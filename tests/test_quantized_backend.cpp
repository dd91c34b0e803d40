// Quantized int8 tier: per-matmul error-bound contract against the double
// reference, bit-identity of batched vs single-sample execution,
// PhotonicBackend ledger parity, in-place and address-reuse weight changes,
// and the full-model-zoo fast-vs-exact check on the served plan forward.
#include "core/quantized_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/photonic_backend.hpp"
#include "nn/mlp.hpp"
#include "nn/plan.hpp"
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

std::size_t argmax(std::span<const double> row) {
  return static_cast<std::size_t>(
      std::max_element(row.begin(), row.end()) - row.begin());
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

TEST(QuantizedBackend, InPlaceWeightChangeIsSeenByTheNextMatmul) {
  Rng rng(0xfa5cu);
  core::QuantizedBackend fast;
  nn::FloatBackend exact;
  nn::Matrix w = random_matrix(6, 10, -1.0, 1.0, rng);
  const nn::Matrix x = random_matrix(3, 10, -1.0, 1.0, rng);

  (void)fast.matmul(w, x);  // panel quantized from the original values

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

TEST(QuantizedBackend, ServedPlanIsBatchInvariantAndAgreesWithTheReference) {
  // The forward every kFast request runs: ExecutionPlan::run on a
  // QuantizedBackend whose grid matches the plan's (the fused run_plan).
  // Every zoo surrogate plus a ReLU and a GST-activation model, on the
  // multilevel GST grids of 4 to 8 bits.  A sample's logits must not depend
  // on the batch it was served in, and at 8 bits the decisions must agree
  // with the double reference on at least 3 of 4 samples — most random
  // surrogate logits are near-ties, so the floor is loose.
  std::vector<std::pair<std::string, nn::Mlp>> models;
  std::vector<nn::ModelSpec> specs = nn::zoo::evaluation_models();
  specs.push_back(nn::zoo::lenet5());
  for (const auto& spec : specs) {
    models.emplace_back(spec.name, nn::zoo::surrogate_mlp(spec));
  }
  Rng relu_rng(0x90au);
  models.emplace_back(
      "relu {20,32,16,10}",
      nn::Mlp({20, 32, 16, 10}, nn::Activation::kReLU, relu_rng));
  Rng gst_rng(0x90bu);
  models.emplace_back(
      "gst {16,24,8}",
      nn::Mlp({16, 24, 8}, nn::Activation::kGstPhotonic, gst_rng));

  Rng rng(0x200du);
  for (const auto& [name, model] : models) {
    SCOPED_TRACE(name);
    const std::size_t in =
        static_cast<std::size_t>(model.layer_sizes().front());
    const nn::Matrix x = random_matrix(32, in, -1.0, 1.0, rng);
    nn::FloatBackend exact;
    const nn::Matrix reference =
        model.forward_batch(x, exact).activations.back();

    for (int bits = 4; bits <= 8; ++bits) {
      SCOPED_TRACE("weight_bits " + std::to_string(bits));
      const auto plan = nn::ExecutionPlan::compile(model, nn::PlanConfig{bits});
      core::QuantizedBackendConfig cfg;
      cfg.weight_bits = bits;

      core::QuantizedBackend batched(cfg);
      nn::PlanArena batched_arena;
      const nn::Matrix& fast = plan->run(batched, x, batched_arena);

      core::QuantizedBackend single(cfg);
      nn::PlanArena single_arena;
      nn::Matrix one(1, in);
      double max_error = 0.0;
      std::size_t agree = 0;
      for (std::size_t b = 0; b < x.rows(); ++b) {
        const auto xb = x.row(b);
        std::copy(xb.begin(), xb.end(), one.row(0).begin());
        const nn::Matrix& alone = plan->run(single, one, single_arena);
        for (std::size_t r = 0; r < fast.cols(); ++r) {
          ASSERT_EQ(fast.at(b, r), alone.at(0, r))
              << "sample " << b << " logit " << r;
          max_error = std::max(
              max_error, std::abs(fast.at(b, r) - reference.at(b, r)));
        }
        if (argmax(fast.row(b)) == argmax(reference.row(b))) {
          ++agree;
        }
      }
      if (bits == 8) {
        const double top1 =
            static_cast<double>(agree) / static_cast<double>(x.rows());
        std::cout << "[ served ] " << name << " 8-bit: max |fast - exact| "
                  << max_error << ", top-1 agreement " << top1 << "\n";
        EXPECT_GE(top1, 0.75);
      }
    }
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

TEST(QuantizedBackend, AddressReuseWithNewContentIsSeenByTheNextMatmul) {
  // The ABA hazard of any address-keyed weight state: destroy a matrix,
  // construct a different one at the same address, and serve a stale
  // panel.  Re-emplacing one std::optional puts every matrix in the same
  // object storage, so the address is reused by construction on every
  // allocator, sanitizer quarantines included.
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
    // A fresh backend has seen no earlier matrix: its output is the ground
    // truth for these weights.  Bit-equality proves nothing keyed by the
    // address leaked into the result.
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
