// Quantized int8 tier: error-bound contract against the double reference,
// bit-identity of batched vs single-sample execution, PhotonicBackend
// ledger parity, plan-cache invalidation, and the full-model-zoo
// fast-vs-exact equivalence suite.
#include "core/quantized_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/photonic_backend.hpp"
#include "nn/mlp.hpp"
#include "nn/zoo.hpp"

namespace core = trident::core;
namespace nn = trident::nn;
using trident::Rng;

namespace {

nn::Matrix random_matrix(std::size_t rows, std::size_t cols, double lo,
                         double hi, Rng& rng) {
  nn::Matrix m(rows, cols);
  for (double& v : m.data()) {
    v = rng.uniform(lo, hi);
  }
  return m;
}

double max_abs_diff(const nn::Matrix& a, const nn::Matrix& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

double row_scale(std::span<const double> row) {
  double s = 1.0;
  for (double v : row) {
    s = std::max(s, std::abs(v));
  }
  return s;
}

}  // namespace

TEST(QuantizedBackend, MatmulWithinErrorBoundOfDoubleReference) {
  Rng rng(0xfa57u);
  core::QuantizedBackend fast;
  nn::FloatBackend exact;
  const nn::Matrix w = random_matrix(24, 48, -1.0, 1.0, rng);
  const nn::Matrix x = random_matrix(16, 48, -2.0, 2.0, rng);

  const nn::Matrix yf = fast.matmul(w, x);
  const nn::Matrix ye = exact.matmul(w, x);
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const double bound = fast.matmul_error_bound(w.cols(), row_scale(x.row(b)));
    for (std::size_t r = 0; r < w.rows(); ++r) {
      EXPECT_LE(std::abs(yf.at(b, r) - ye.at(b, r)), bound)
          << "sample " << b << " row " << r;
    }
  }
}

TEST(QuantizedBackend, MatchesNoiseFreePhotonicBackendWithinBound) {
  Rng rng(0xfa58u);
  core::QuantizedBackend fast;
  core::PhotonicBackend photonic;  // defaults: no noise, deterministic
  const nn::Matrix w = random_matrix(12, 30, -1.0, 1.0, rng);
  const nn::Matrix x = random_matrix(9, 30, -3.0, 3.0, rng);

  const nn::Matrix yf = fast.matmul(w, x);
  const nn::Matrix yp = photonic.matmul(w, x);
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const double bound = fast.matmul_error_bound(w.cols(), row_scale(x.row(b)));
    for (std::size_t r = 0; r < w.rows(); ++r) {
      EXPECT_LE(std::abs(yf.at(b, r) - yp.at(b, r)), bound);
    }
  }
}

TEST(QuantizedBackend, OnGridOperandsReproduceThePhotonicPathAlmostExactly) {
  // Weights already on the 8-bit grid and inputs already on the DAC grid
  // with scale 1: the only difference left is double vs int accumulation.
  Rng rng(0xfa59u);
  core::QuantizedBackend fast;
  core::PhotonicBackend photonic;
  const trident::SymmetricQuantizer grid(8, 1.0);
  nn::Matrix w = random_matrix(10, 20, -1.0, 1.0, rng);
  nn::Matrix x = random_matrix(4, 20, -1.0, 1.0, rng);
  for (double& v : w.data()) {
    v = grid.quantize(v);
  }
  for (double& v : x.data()) {
    v = grid.quantize(v);
  }
  const nn::Matrix yf = fast.matmul(w, x);
  const nn::Matrix yp = photonic.matmul(w, x);
  EXPECT_LE(max_abs_diff(yf, yp),
            20 * 4 * std::numeric_limits<double>::epsilon() * 20);
}

TEST(QuantizedBackend, BatchedBitIdenticalToSingleSamplePath) {
  Rng rng(0xfa5au);
  const nn::Matrix w = random_matrix(17, 33, -1.0, 1.0, rng);
  const nn::Matrix x = random_matrix(21, 33, -2.0, 2.0, rng);

  core::QuantizedBackend batched;
  const nn::Matrix y = batched.matmul(w, x);

  core::QuantizedBackend single;
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const auto row = x.row(b);
    const nn::Vector yb =
        single.matvec(w, nn::Vector(row.begin(), row.end()));
    for (std::size_t r = 0; r < w.rows(); ++r) {
      EXPECT_EQ(y.at(b, r), yb[r]) << "sample " << b << " row " << r;
    }
  }
}

TEST(QuantizedBackend, LedgerMatchesPhotonicBackendCallForCall) {
  Rng rng(0xfa5bu);
  core::QuantizedBackend fast;
  core::PhotonicBackend photonic;
  const nn::Matrix w1 = random_matrix(8, 12, -1.0, 1.0, rng);
  const nn::Matrix w2 = random_matrix(6, 8, -1.0, 1.0, rng);
  const nn::Matrix x = random_matrix(5, 12, -1.5, 1.5, rng);
  const nn::Matrix g = random_matrix(5, 8, -0.5, 0.5, rng);
  const nn::Vector dh(8, 0.1);
  const nn::Vector y_prev(12, 0.2);

  // Identical call sequences; weights mutate, so each backend gets copies.
  nn::Matrix wf = w1;
  nn::Matrix wp = w1;
  (void)fast.matmul(wf, x);       // program + block
  (void)fast.matmul(wf, x);       // resident reuse: no programming charge
  (void)fast.matvec(w2, nn::Vector(8, 0.5));  // re-program with w2
  (void)fast.matmul_transposed(wf, g);
  fast.rank1_update(wf, dh, y_prev, 0.05);

  (void)photonic.matmul(wp, x);
  (void)photonic.matmul(wp, x);
  (void)photonic.matvec(w2, nn::Vector(8, 0.5));
  (void)photonic.matmul_transposed(wp, g);
  photonic.rank1_update(wp, dh, y_prev, 0.05);

  EXPECT_EQ(fast.ledger(), photonic.ledger());
  // The deterministic grid update itself must also agree element for
  // element (both land on the same 8-bit level).
  EXPECT_EQ(wf.data(), wp.data());
}

TEST(QuantizedBackend, PlanCacheRecompilesWhenWeightsChangeInPlace) {
  Rng rng(0xfa5cu);
  core::QuantizedBackend fast;
  nn::FloatBackend exact;
  nn::Matrix w = random_matrix(6, 10, -1.0, 1.0, rng);
  const nn::Matrix x = random_matrix(3, 10, -1.0, 1.0, rng);

  (void)fast.matmul(w, x);  // panel compiled for the original values

  // Hot-swap style mutation: new values, same buffer address.
  for (double& v : w.data()) {
    v = -v * 0.5;
  }
  const nn::Matrix yf = fast.matmul(w, x);
  const nn::Matrix ye = exact.matmul(w, x);
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const double bound = fast.matmul_error_bound(w.cols(), row_scale(x.row(b)));
    for (std::size_t r = 0; r < w.rows(); ++r) {
      EXPECT_LE(std::abs(yf.at(b, r) - ye.at(b, r)), bound)
          << "stale panel served after in-place weight change";
    }
  }
}

TEST(QuantizedProgram, FusedForwardHonoursTheErrorBound) {
  Rng rng(0x90au);
  nn::Mlp model({20, 32, 16, 10}, nn::Activation::kReLU, rng);
  const nn::Matrix calibration = random_matrix(24, 20, -1.5, 1.5, rng);
  const nn::Matrix eval = random_matrix(24, 20, -1.5, 1.5, rng);

  const core::FastPathReport report =
      core::check_fast_path(model, calibration, eval);
  EXPECT_FALSE(report.saturated);
  for (std::size_t b = 0; b < eval.rows(); ++b) {
    const auto er = report.exact.row(b);
    const auto fr = report.fast.row(b);
    for (std::size_t r = 0; r < er.size(); ++r) {
      EXPECT_LE(std::abs(fr[r] - er[r]), report.bound[b])
          << "sample " << b << " logit " << r;
    }
  }
}

TEST(QuantizedProgram, GstActivationModelAlsoHonoursTheBound) {
  Rng rng(0x90bu);
  nn::Mlp model({16, 24, 8}, nn::Activation::kGstPhotonic, rng);
  const nn::Matrix calibration = random_matrix(16, 16, -1.0, 1.0, rng);
  const nn::Matrix eval = random_matrix(16, 16, -1.0, 1.0, rng);
  const core::FastPathReport report =
      core::check_fast_path(model, calibration, eval);
  EXPECT_FALSE(report.saturated);
  EXPECT_LE(report.max_abs_error,
            *std::max_element(report.bound.begin(), report.bound.end()));
}

TEST(QuantizedProgram, FullModelZooMeetsTheFastVsExactContract) {
  // Every zoo model, as a deterministic dense surrogate: the fused int8
  // tier must stay within its computed bound on every logit of every
  // sample, and top-1 decisions must overwhelmingly agree.
  std::vector<nn::ModelSpec> specs = nn::zoo::evaluation_models();
  specs.push_back(nn::zoo::lenet5());
  Rng rng(0x200du);
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.name);
    const nn::Mlp model = nn::zoo::surrogate_mlp(spec);
    const std::size_t in =
        static_cast<std::size_t>(model.layer_sizes().front());
    const nn::Matrix calibration = random_matrix(32, in, -1.0, 1.0, rng);
    const nn::Matrix eval = random_matrix(32, in, -1.0, 1.0, rng);

    const core::FastPathReport report =
        core::check_fast_path(model, calibration, eval);
    EXPECT_FALSE(report.saturated);
    for (std::size_t b = 0; b < eval.rows(); ++b) {
      const auto er = report.exact.row(b);
      const auto fr = report.fast.row(b);
      for (std::size_t r = 0; r < er.size(); ++r) {
        ASSERT_LE(std::abs(fr[r] - er[r]), report.bound[b])
            << "sample " << b << " logit " << r;
      }
      // Decision stability is a *theorem* given the bound: whenever the
      // exact top-2 margin exceeds twice the per-sample bound, the fast
      // tier cannot flip the argmax.  (Samples inside the margin are
      // genuine near-ties — random surrogate logits cluster — where a
      // flip is consistent with the bound.)
      std::size_t best = 0, second = 0;
      for (std::size_t r = 1; r < er.size(); ++r) {
        if (er[r] > er[best]) {
          second = best;
          best = r;
        } else if (er[r] > er[second] || second == best) {
          second = r;
        }
      }
      if (er.size() > 1 && er[best] - er[second] > 2.0 * report.bound[b]) {
        std::size_t fast_best = 0;
        for (std::size_t r = 1; r < fr.size(); ++r) {
          if (fr[r] > fr[fast_best]) {
            fast_best = r;
          }
        }
        EXPECT_EQ(fast_best, best)
            << "argmax flipped outside the near-tie margin, sample " << b;
      }
    }
    // Deterministic seeds: the rate is a fixed number per model.  Most
    // random-logit samples are near-ties, so the global floor is loose;
    // the margin check above is the sharp assertion.
    EXPECT_GE(report.top1_agreement, 0.75);
  }
}

TEST(QuantizedBackend, RejectsGridsWiderThanInt8) {
  core::QuantizedBackendConfig cfg;
  cfg.weight_bits = 9;
  EXPECT_THROW(core::QuantizedBackend{cfg}, trident::Error);
  cfg.weight_bits = 8;
  cfg.input_bits = 12;
  EXPECT_THROW(core::QuantizedBackend{cfg}, trident::Error);
}

TEST(QuantizedBackend, PlanCacheSurvivesAddressReuseWithNewContent) {
  // The weight-plan cache is keyed by Matrix address but guarded by a
  // content fingerprint checked on every lookup.  The ABA hazard: destroy a
  // cached matrix, construct a different one at the same address, and serve
  // the stale packed panel.  Re-emplacing one std::optional puts every
  // matrix in the same object storage, so the address is reused by
  // construction on every allocator, sanitizer quarantines included.
  core::QuantizedBackend backend;
  Rng rng(0xABAu);
  std::optional<nn::Matrix> slot;
  slot.emplace(random_matrix(6, 10, -1.0, 1.0, rng));
  const void* const first_addr = &*slot;
  (void)backend.matmul(*slot, random_matrix(2, 10, -1.0, 1.0, rng));

  for (int attempt = 0; attempt < 32; ++attempt) {
    slot.reset();
    slot.emplace(random_matrix(6, 10, -1.0, 1.0, rng));
    ASSERT_EQ(static_cast<const void*>(&*slot), first_addr);
    const nn::Matrix x = random_matrix(3, 10, -1.0, 1.0, rng);
    const nn::Matrix got = backend.matmul(*slot, x);
    // A fresh backend cannot have a stale cache entry: its output is the
    // ground truth for these weights.  Bit-equality proves the fingerprint
    // — not the address — decided the cache hit.
    core::QuantizedBackend fresh;
    const nn::Matrix want = fresh.matmul(*slot, x);
    for (std::size_t b = 0; b < x.rows(); ++b) {
      for (std::size_t r = 0; r < slot->rows(); ++r) {
        ASSERT_EQ(got.at(b, r), want.at(b, r))
            << "attempt " << attempt << ", sample " << b << " row " << r;
      }
    }
  }
}
