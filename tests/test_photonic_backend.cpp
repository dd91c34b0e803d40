// Photonic MatvecBackend tests: quantized linear algebra, in-situ update
// semantics (the resolution cliff), and the energy/time ledger.
#include "core/photonic_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "core/quantized_backend.hpp"

namespace trident::core {
namespace {

nn::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  nn::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(r, c) = rng.uniform(-scale, scale);
    }
  }
  return m;
}

TEST(PhotonicBackend, MatvecCloseToFloatWithinQuantization) {
  PhotonicBackend backend;
  const nn::Matrix w = random_matrix(8, 16, 1);
  nn::Vector x(16);
  Rng rng(2);
  for (auto& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }
  const nn::Vector y = backend.matvec(w, x);
  const nn::Vector ref = w.matvec(x);
  // Error bound: the bank holds level(w) and the DAC rounds x, each within
  // half an LSB (1/254 at 8 bits), so with |w|, |x| ≤ 1 a term is off by at
  // most |q(w)|·Δx + |x|·Δw ≤ 2/254, summed over the fan-in.
  const double bound = 16.0 * (2.0 / 254.0) + 1e-9;
  for (std::size_t r = 0; r < y.size(); ++r) {
    EXPECT_NEAR(y[r], ref[r], bound);
  }
}

TEST(PhotonicBackend, MatvecTransposedCloseToFloat) {
  PhotonicBackend backend;
  const nn::Matrix w = random_matrix(6, 9, 3);
  nn::Vector x(6);
  Rng rng(4);
  for (auto& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }
  const nn::Vector y = backend.matvec_transposed(w, x);
  const nn::Vector ref = w.matvec_transposed(x);
  // Weight and input rounding, as in the forward: 2/254 per term over a
  // fan-in of 6.
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], ref[i], 6.0 * (2.0 / 254.0) + 1e-9);
  }
}

TEST(PhotonicBackend, InputScalingHandlesLargeMagnitudes) {
  // Logit-scale inputs (|x| > 1) must survive the DAC range scaling.
  PhotonicBackend backend;
  nn::Matrix w(1, 2);
  w.at(0, 0) = 0.5;
  w.at(0, 1) = -0.5;
  const nn::Vector y = backend.matvec(w, {4.0, 2.0});
  EXPECT_NEAR(y[0], 1.0, 0.05);
}

TEST(PhotonicBackend, WeightsOutsideRangeSaturate) {
  PhotonicBackend backend;
  nn::Matrix w(1, 1);
  w.at(0, 0) = 3.0;  // beyond the add-drop [-1, 1] range
  const nn::Vector y = backend.matvec(w, {1.0});
  EXPECT_NEAR(y[0], 1.0, 1e-6);
}

TEST(PhotonicBackend, RankOneUpdateMatchesFloatAboveLsb) {
  PhotonicBackendConfig cfg;
  cfg.weight_bits = 8;
  PhotonicBackend backend(cfg);
  nn::Matrix w(2, 2, 0.0);
  // Large update: quantization error is second-order.
  backend.rank1_update(w, {0.5, -0.5}, {0.8, 0.4}, 1.0);
  EXPECT_NEAR(w.at(0, 0), -0.4, 1.0 / 127.0);
  EXPECT_NEAR(w.at(0, 1), -0.2, 1.0 / 127.0);
  EXPECT_NEAR(w.at(1, 0), 0.4, 1.0 / 127.0);
  EXPECT_NEAR(w.at(1, 1), 0.2, 1.0 / 127.0);
}

TEST(PhotonicBackend, UpdatesBelowHalfLsbAreLost) {
  // The §II.B/[34] training cliff: stored weights live on the GST grid, so
  // an update below half an LSB leaves every level unchanged.
  // Snap the initial weight onto each grid first — stored weights always
  // live on programmable levels.
  PhotonicBackendConfig cfg6;
  cfg6.weight_bits = 6;
  PhotonicBackend b6(cfg6);
  nn::Matrix w(1, 1);
  w.at(0, 0) = SymmetricQuantizer(6).quantize(0.5);
  const double before = w.at(0, 0);
  b6.rank1_update(w, {0.01}, {0.5}, 1.0);  // Δ = 0.005 < LSB6/2 = 0.016
  EXPECT_DOUBLE_EQ(w.at(0, 0), before);

  PhotonicBackendConfig cfg8;
  cfg8.weight_bits = 8;
  PhotonicBackend b8(cfg8);
  nn::Matrix w8(1, 1);
  w8.at(0, 0) = SymmetricQuantizer(8).quantize(0.5);
  const double before8 = w8.at(0, 0);
  b8.rank1_update(w8, {0.01}, {0.5}, 1.0);  // Δ = 0.005 > LSB8/2 = 0.0039
  EXPECT_NE(w8.at(0, 0), before8);
}

TEST(PhotonicBackend, StochasticRoundingIsUnbiasedOnAverage) {
  PhotonicBackendConfig cfg;
  cfg.weight_bits = 6;
  cfg.stochastic_rounding = true;
  PhotonicBackend backend(cfg);
  // Apply a sub-LSB update many times: stochastic rounding lets the mean
  // drift by the accumulated amount instead of freezing.
  double sum = 0.0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    nn::Matrix w(1, 1);
    w.at(0, 0) = 0.5;
    backend.rank1_update(w, {0.01}, {0.5}, 1.0);
    sum += w.at(0, 0);
  }
  const double mean_after = sum / trials;
  EXPECT_NEAR(mean_after, 0.5 - 0.005, 0.004);
}

TEST(PhotonicBackend, LedgerCountsProgrammingOncePerResidentMatrix) {
  PhotonicBackend backend;
  const nn::Matrix w = random_matrix(4, 4, 5);
  nn::Vector x{0.1, 0.2, 0.3, 0.4};
  (void)backend.matvec(w, x);
  const auto writes_first = backend.ledger().weight_writes;
  EXPECT_EQ(writes_first, 16u);
  (void)backend.matvec(w, x);  // same matrix resident: no rewrites
  EXPECT_EQ(backend.ledger().weight_writes, writes_first);
  const nn::Matrix w2 = random_matrix(4, 4, 6);
  (void)backend.matvec(w2, x);  // different matrix: re-programs
  EXPECT_EQ(backend.ledger().weight_writes, writes_first + 16u);
}

TEST(PhotonicBackend, TransposedPassForcesReprogram) {
  PhotonicBackend backend;
  const nn::Matrix w = random_matrix(4, 4, 7);
  nn::Vector x{0.1, 0.2, 0.3, 0.4};
  (void)backend.matvec(w, x);
  const auto writes = backend.ledger().weight_writes;
  (void)backend.matvec_transposed(w, x);  // bank re-encoded with Wᵀ
  EXPECT_EQ(backend.ledger().weight_writes, writes + 16u);
  (void)backend.matvec(w, x);  // and again for the forward layout
  EXPECT_EQ(backend.ledger().weight_writes, writes + 32u);
}

TEST(PhotonicBackend, LedgerEnergyAndTimePositive) {
  PhotonicBackend backend;
  const nn::Matrix w = random_matrix(4, 4, 8);
  (void)backend.matvec(w, {0.1, 0.2, 0.3, 0.4});
  const PhotonicLedger& ledger = backend.ledger();
  EXPECT_GT(ledger.energy().J(), 0.0);
  EXPECT_GT(ledger.time().s(), 0.0);
  EXPECT_EQ(ledger.macs, 16u);
  EXPECT_EQ(ledger.symbols, 1u);
  EXPECT_EQ(ledger.program_events, 1u);
  // Programming dominates: 16 × 660 pJ vs sub-pJ everything else.
  EXPECT_GT(ledger.energy().nJ(), 10.0);
  EXPECT_LT(ledger.energy().nJ(), 12.0);
}

TEST(PhotonicBackend, UpdateLedgerCountsOnlyChangedCells) {
  PhotonicBackend backend;
  nn::Matrix w(2, 2, SymmetricQuantizer(8).quantize(0.5));
  // Zero learning rate: nothing changes, no write pulses.
  backend.rank1_update(w, {1.0, 1.0}, {1.0, 1.0}, 0.0);
  EXPECT_EQ(backend.ledger().weight_writes, 0u);
  backend.rank1_update(w, {1.0, 0.0}, {1.0, 0.0}, 0.1);
  EXPECT_EQ(backend.ledger().weight_writes, 1u);  // only w(0,0) moved
}

TEST(PhotonicBackend, Rank1UpdateMatchesQuantizedBackendCellForCell) {
  // Both backends run the one in-situ update kernel, so the same steps
  // leave the same weights, bit for bit, and the same ledger.  The start
  // reaches ±1.2, so saturated cells are updated too.
  for (const int bits : {6, 8}) {
    PhotonicBackendConfig pc;
    pc.weight_bits = bits;
    QuantizedBackendConfig qc;
    qc.weight_bits = bits;
    PhotonicBackend photonic(pc);
    QuantizedBackend quantized(qc);
    nn::Matrix wp = random_matrix(37, 65, 0x51u, 1.2);
    nn::Matrix wq = wp;
    Rng rng(0x52u);
    for (int step = 0; step < 20; ++step) {
      nn::Vector dh(wp.rows());
      nn::Vector y(wp.cols());
      for (double& v : dh) {
        v = rng.uniform(-0.5, 0.5);
      }
      for (double& v : y) {
        v = rng.uniform(-1.0, 1.0);
      }
      photonic.rank1_update(wp, dh, y, 0.05);
      quantized.rank1_update(wq, dh, y, 0.05);
      for (std::size_t i = 0; i < wp.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(wp.data()[i]),
                  std::bit_cast<std::uint64_t>(wq.data()[i]))
            << bits << "-bit, step " << step << ", cell " << i;
      }
      ASSERT_EQ(photonic.ledger(), quantized.ledger())
          << bits << "-bit, step " << step;
    }
    EXPECT_GT(photonic.ledger().weight_writes, 0u);
  }
}

TEST(PhotonicBackend, ReadoutNoisePerturbsResults) {
  PhotonicBackendConfig cfg;
  cfg.readout_noise = 0.05;
  PhotonicBackend noisy(cfg);
  PhotonicBackend clean;
  const nn::Matrix w = random_matrix(4, 8, 9);
  nn::Vector x(8, 0.5);
  const nn::Vector yn = noisy.matvec(w, x);
  const nn::Vector yc = clean.matvec(w, x);
  double max_dev = 0.0;
  for (std::size_t i = 0; i < yn.size(); ++i) {
    max_dev = std::max(max_dev, std::abs(yn[i] - yc[i]));
  }
  EXPECT_GT(max_dev, 1e-6);
  EXPECT_LT(max_dev, 0.5);
}

TEST(PhotonicBackend, DimensionChecks) {
  PhotonicBackend backend;
  nn::Matrix w(2, 3, 0.1);
  EXPECT_THROW((void)backend.matvec(w, {1.0}), Error);
  EXPECT_THROW((void)backend.matvec_transposed(w, {1.0}), Error);
  EXPECT_THROW(backend.rank1_update(w, {1.0}, {1.0, 1.0, 1.0}, 0.1), Error);
}

// --- batched GEMM path -----------------------------------------------------

void expect_ledger_eq(const PhotonicLedger& a, const PhotonicLedger& b) {
  EXPECT_EQ(a.weight_writes, b.weight_writes);
  EXPECT_EQ(a.program_events, b.program_events);
  EXPECT_EQ(a.symbols, b.symbols);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.activations, b.activations);
}

nn::Matrix random_batch(std::size_t batch, std::size_t cols,
                        std::uint64_t seed, double scale = 2.0) {
  Rng rng(seed);
  nn::Matrix x(batch, cols);
  for (double& v : x.data()) {
    v = rng.uniform(-scale, scale);
  }
  return x;
}

class BatchNoise : public ::testing::TestWithParam<double> {};

TEST_P(BatchNoise, MatmulBitIdenticalToMatvecLoop) {
  // Same-seeded backends must produce the same outputs, noise draws, and
  // ledger counters whether the block goes through matmul or a per-sample
  // matvec loop.
  PhotonicBackendConfig cfg;
  cfg.readout_noise = GetParam();
  PhotonicBackend batched(cfg);
  PhotonicBackend looped(cfg);
  const nn::Matrix w = random_matrix(13, 21, 31);
  const nn::Matrix x = random_batch(9, 21, 32);

  const nn::Matrix y = batched.matmul(w, x);
  ASSERT_EQ(y.rows(), 9u);
  ASSERT_EQ(y.cols(), 13u);
  nn::Vector xb(w.cols());
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const auto row = x.row(b);
    std::copy(row.begin(), row.end(), xb.begin());
    const nn::Vector yb = looped.matvec(w, xb);
    for (std::size_t r = 0; r < yb.size(); ++r) {
      EXPECT_EQ(y.at(b, r), yb[r]) << "sample " << b << " row " << r;
    }
  }
  expect_ledger_eq(batched.ledger(), looped.ledger());
}

TEST_P(BatchNoise, MatmulTransposedBitIdenticalToMatvecLoop) {
  PhotonicBackendConfig cfg;
  cfg.readout_noise = GetParam();
  PhotonicBackend batched(cfg);
  PhotonicBackend looped(cfg);
  const nn::Matrix w = random_matrix(11, 7, 33);
  const nn::Matrix x = random_batch(6, 11, 34);

  const nn::Matrix y = batched.matmul_transposed(w, x);
  ASSERT_EQ(y.rows(), 6u);
  ASSERT_EQ(y.cols(), 7u);
  nn::Vector xb(w.rows());
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const auto row = x.row(b);
    std::copy(row.begin(), row.end(), xb.begin());
    const nn::Vector yb = looped.matvec_transposed(w, xb);
    for (std::size_t c = 0; c < yb.size(); ++c) {
      EXPECT_EQ(y.at(b, c), yb[c]) << "sample " << b << " col " << c;
    }
  }
  expect_ledger_eq(batched.ledger(), looped.ledger());
}

INSTANTIATE_TEST_SUITE_P(Noise, BatchNoise, ::testing::Values(0.0, 0.05));

TEST(PhotonicBackendBatch, UpdateBatchMatchesSequentialRank1) {
  // update_batch is DEFINED as the sequential per-sample loop (in-situ
  // programming quantizes after every sample) — weights and ledger must
  // match exactly.
  PhotonicBackend batched;
  PhotonicBackend looped;
  nn::Matrix wb = random_matrix(5, 8, 35, 0.5);
  nn::Matrix wl = wb;
  const nn::Matrix dh = random_batch(4, 5, 36, 0.1);
  const nn::Matrix y_prev = random_batch(4, 8, 37, 1.0);

  batched.update_batch(wb, dh, y_prev, 0.05);
  nn::Vector dhb(5);
  nn::Vector yb(8);
  for (std::size_t b = 0; b < dh.rows(); ++b) {
    const auto dr = dh.row(b);
    const auto yr = y_prev.row(b);
    std::copy(dr.begin(), dr.end(), dhb.begin());
    std::copy(yr.begin(), yr.end(), yb.begin());
    looped.rank1_update(wl, dhb, yb, 0.05);
  }
  for (std::size_t i = 0; i < wb.size(); ++i) {
    EXPECT_EQ(wb.data()[i], wl.data()[i]);
  }
  expect_ledger_eq(batched.ledger(), looped.ledger());
}

TEST(PhotonicBackendBatch, MatmulKeepsMatrixResident) {
  // A batch charges exactly one programming event for a fresh matrix, and
  // none when the matrix is already resident.
  PhotonicBackend backend;
  const nn::Matrix w = random_matrix(4, 4, 38);
  const nn::Matrix x = random_batch(5, 4, 39);
  (void)backend.matmul(w, x);
  EXPECT_EQ(backend.ledger().program_events, 1u);
  EXPECT_EQ(backend.ledger().weight_writes, 16u);
  (void)backend.matmul(w, x);
  EXPECT_EQ(backend.ledger().program_events, 1u);
  EXPECT_EQ(backend.ledger().symbols, 10u);
}

TEST(PhotonicBackendBatch, DimensionChecks) {
  PhotonicBackend backend;
  nn::Matrix w(2, 3, 0.1);
  EXPECT_THROW((void)backend.matmul(w, nn::Matrix(2, 2)), Error);
  EXPECT_THROW((void)backend.matmul_transposed(w, nn::Matrix(2, 3)), Error);
}

class BackendBits : public ::testing::TestWithParam<int> {};

TEST_P(BackendBits, MatvecErrorShrinksWithBits) {
  const int bits = GetParam();
  PhotonicBackendConfig cfg;
  cfg.weight_bits = bits;
  cfg.input_bits = bits;
  PhotonicBackend backend(cfg);
  const nn::Matrix w = random_matrix(8, 8, 10);
  nn::Vector x(8);
  Rng rng(11);
  for (auto& v : x) {
    v = rng.uniform(0.0, 1.0);
  }
  const nn::Vector y = backend.matvec(w, x);
  const nn::Vector ref = w.matvec(x);
  double err = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    err = std::max(err, std::abs(y[i] - ref[i]));
  }
  // Error bound scales with the input quantizer step.
  SymmetricQuantizer q(bits);
  EXPECT_LE(err, 8.0 * q.step());
}

INSTANTIATE_TEST_SUITE_P(Bits, BackendBits, ::testing::Values(4, 6, 8, 10));

}  // namespace
}  // namespace trident::core
