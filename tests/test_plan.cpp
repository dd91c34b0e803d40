// ExecutionPlan tests: bit-identity of the fused plan paths against the
// per-op forward, the zero-steady-state-allocation contract, the
// interpreter fallback's op-sequence fidelity, plan versioning, and the
// serving runtime's plan publication (hot_swap / canary promote).
#include "nn/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/photonic_backend.hpp"
#include "core/quantized_backend.hpp"
#include "nn/mlp.hpp"
#include "nn/zoo.hpp"
#include "serving/server.hpp"
#include "telemetry/telemetry.hpp"

// --- counting global allocator ----------------------------------------------
// Every heap allocation in this binary bumps one counter; the zero-alloc
// tests snapshot it around Plan::run.  Frees are deliberately not counted:
// the contract is "no allocation", not "balanced allocation".

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace trident::nn {
namespace {

Matrix seeded_batch(std::size_t batch, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(batch, dim);
  for (double& v : x.data()) {
    v = rng.uniform(-1.0, 1.0);
  }
  return x;
}

/// Serving batch sizes: every sample tile and remainder of the packed
/// photonic kernel, one full 16-sample block with and without a tail, and
/// two blocks.
std::vector<std::size_t> serving_batches() {
  return {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 32};
}

std::vector<ModelSpec> plan_suite_specs() {
  return {zoo::lenet5(), zoo::alexnet(), zoo::mobilenet_v2()};
}

/// Runs `model` through forward_batch on `legacy` and through a compiled
/// plan on `fused`, asserting outputs bit-equal.  The two backends must be
/// freshly constructed with identical configs so noise draws and ledgers
/// stay comparable at the call site.
void expect_plan_bit_identity(const Mlp& model, MatvecBackend& legacy,
                              MatvecBackend& fused, const Matrix& x,
                              const PlanConfig& config,
                              const std::string& what) {
  const BatchForwardTrace trace = model.forward_batch(x, legacy);
  const Matrix& want = trace.activations.back();

  const auto plan = ExecutionPlan::compile(model, config);
  PlanArena arena;
  const Matrix& got = plan->run(fused, x, arena);

  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < want.data().size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i]) << what << " element " << i;
  }
}

// --- bit-identity: fused paths vs the per-op forward ------------------------

TEST(PlanBitIdentity, FloatBackendAcrossZooModels) {
  for (const ModelSpec& spec : plan_suite_specs()) {
    const Mlp model = zoo::surrogate_mlp(spec);
    for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
      FloatBackend legacy;
      FloatBackend fused;
      const Matrix x = seeded_batch(
          batch, static_cast<std::size_t>(model.layer_sizes().front()),
          0xF00Du + batch);
      expect_plan_bit_identity(model, legacy, fused, x, PlanConfig{},
                               spec.name + "/float/B=" +
                                   std::to_string(batch));
    }
  }
}

TEST(PlanBitIdentity, PhotonicBackendWithNoiseMatchesDrawForDraw) {
  core::PhotonicBackendConfig bc;
  bc.readout_noise = 0.05;  // nonzero: the fused path must consume the RNG
                            // in exactly the legacy order
  bc.seed = 0xBEEFu;
  for (const ModelSpec& spec : plan_suite_specs()) {
    const Mlp model = zoo::surrogate_mlp(spec);
    for (const std::size_t batch : serving_batches()) {
      core::PhotonicBackend legacy(bc);
      core::PhotonicBackend fused(bc);
      const Matrix x = seeded_batch(
          batch, static_cast<std::size_t>(model.layer_sizes().front()),
          0xF00Du + batch);
      expect_plan_bit_identity(model, legacy, fused, x, PlanConfig{},
                               spec.name + "/photonic/B=" +
                                   std::to_string(batch));
      // Same draws, same bill: the fused path consumed exactly the RNG
      // stream and ledger pulses of the per-op path.
      EXPECT_EQ(fused.rng_state(), legacy.rng_state())
          << spec.name << " B=" << batch;
      EXPECT_EQ(fused.ledger(), legacy.ledger())
          << spec.name << " B=" << batch;
    }
  }
}

TEST(PlanBitIdentity, QuantizedBackendAcrossZooModels) {
  for (const ModelSpec& spec : plan_suite_specs()) {
    const Mlp model = zoo::surrogate_mlp(spec);
    for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
      core::QuantizedBackend legacy;
      core::QuantizedBackend fused;
      const Matrix x = seeded_batch(
          batch, static_cast<std::size_t>(model.layer_sizes().front()),
          0xF00Du + batch);
      expect_plan_bit_identity(model, legacy, fused, x, PlanConfig{},
                               spec.name + "/quantized/B=" +
                                   std::to_string(batch));
      EXPECT_EQ(fused.ledger(), legacy.ledger()) << spec.name;
    }
  }
}

TEST(PlanBitIdentity, FusedPathGridMismatchFallsBackAndStaysExact) {
  // A 6-bit plan on an 8-bit QuantizedBackend, and an 8-bit plan on a
  // 6-bit PhotonicBackend, have no fused path (the level panels are on the
  // wrong grid); Plan::run must interpret per-op — which re-packs on the
  // backend's own grid — and stay bit-identical.  The weights are off
  // both grids, so a fused run on the plan's panels would differ.
  Rng rng(0x51edu);
  const Mlp model({10, 20, 5}, Activation::kReLU, rng);
  const Matrix x = seeded_batch(4, 10, 0xABCDu);
  core::QuantizedBackend legacy;
  core::QuantizedBackend fused;
  expect_plan_bit_identity(model, legacy, fused, x, PlanConfig{6},
                           "grid-mismatch fallback");
  core::PhotonicBackendConfig six;
  six.weight_bits = 6;
  core::PhotonicBackend legacy6(six);
  core::PhotonicBackend fused6(six);
  expect_plan_bit_identity(model, legacy6, fused6, x, PlanConfig{},
                           "photonic grid-mismatch fallback");
  EXPECT_EQ(fused6.ledger(), legacy6.ledger());
}

TEST(PlanBitIdentity, OffGridModelsPlanEqualsPerOp) {
  // Freshly initialised weights lie off the grid; the bank holds their
  // levels on every path.  Both tiers, every narrow batch, one full block
  // with a tail and two blocks: the fused plan equals forward_batch bit
  // for bit, draw for draw and pulse for pulse, and a batch equals its
  // samples run one by one.
  for (const std::vector<int>& sizes :
       {std::vector<int>{512, 1024, 512, 10}, std::vector<int>{64, 128, 64, 10}}) {
    Rng rng(0x0FF6u);
    const Mlp model(sizes, Activation::kGstPhotonic, rng);
    const auto width = static_cast<std::size_t>(sizes.front());
    const Matrix all = seeded_batch(32, width, 0x6121u);
    std::vector<std::size_t> batches(17);
    std::iota(batches.begin(), batches.end(), std::size_t{1});
    batches.push_back(32);
    for (const std::size_t batch : batches) {
      Matrix x(batch, width);
      std::copy_n(all.data().begin(), batch * width, x.data().begin());
      const std::string what = std::to_string(sizes[1]) + "-wide B=" +
                               std::to_string(batch);
      core::PhotonicBackendConfig bc;
      bc.readout_noise = 0.05;
      core::PhotonicBackend legacy(bc);
      core::PhotonicBackend fused(bc);
      expect_plan_bit_identity(model, legacy, fused, x, PlanConfig{},
                               "photonic " + what);
      EXPECT_EQ(fused.ledger(), legacy.ledger()) << what;
      EXPECT_EQ(fused.rng_state(), legacy.rng_state()) << what;
      core::QuantizedBackend qlegacy;
      core::QuantizedBackend qfused;
      expect_plan_bit_identity(model, qlegacy, qfused, x, PlanConfig{},
                               "quantized " + what);
      EXPECT_EQ(qfused.ledger(), qlegacy.ledger()) << what;
    }
    core::PhotonicBackend batched;
    core::PhotonicBackend looped;
    const Matrix want = model.forward_batch(all, batched).activations.back();
    Vector xb(width);
    for (std::size_t b = 0; b < all.rows(); ++b) {
      const auto row = all.row(b);
      std::copy(row.begin(), row.end(), xb.begin());
      const Vector got = model.forward(xb, looped).activations.back();
      for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r], want.at(b, r)) << "sample " << b << " row " << r;
      }
    }
  }
}

TEST(PlanBitIdentity, OnGridWeightsKeepTheSaturatedArithmetic) {
  // Weights already on the 8-bit grid — what rank1_update_levels writes —
  // give the saturated arithmetic the bank used before it held levels:
  // Matrix::matvec on clamp(w) of the DAC'd input, re-scaled, through
  // matvec, matmul and the fused plan alike.  A stored −0.0 reads as +0.0
  // from the panel; a chain starting at +0.0 adds either to the same sum.
  const SymmetricQuantizer grid(8);
  Rng rng(0x06D1u);
  Mlp model({12, 20, 9, 4}, Activation::kGstPhotonic, rng);
  for (int k = 0; k < model.depth(); ++k) {
    std::vector<double>& w = model.weight(k).data();
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = i % 7 == 0    ? -0.0
             : i % 11 == 0 ? (i % 2 == 0 ? 1.0 : -1.0)
                           : grid.quantize(w[i] * 4.0);
    }
  }
  auto saturated = [&](const Vector& x) {
    Vector cur = x;
    for (int k = 0; k < model.depth(); ++k) {
      Matrix clamped = model.weight(k);
      for (double& v : clamped.data()) {
        v = std::clamp(v, -1.0, 1.0);
      }
      double scale = 1.0;
      Vector xq(cur.size());
      dac_quantize(cur.data(), 1, cur.size(), grid, &scale, xq.data());
      cur = clamped.matvec(xq);
      for (double& v : cur) {
        v *= scale;
        if (k + 1 < model.depth()) {
          v = apply_activation(model.hidden_activation(), v);
        }
      }
    }
    return cur;
  };
  const Matrix x = seeded_batch(17, 12, 0x06D2u);
  core::PhotonicBackend per_sample;
  core::PhotonicBackend batched;
  core::PhotonicBackend fused;
  const auto plan = ExecutionPlan::compile(model);
  PlanArena arena;
  const Matrix from_matmul = model.forward_batch(x, batched).activations.back();
  const Matrix& from_plan = plan->run(fused, x, arena);
  Vector xb(12);
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const auto row = x.row(b);
    std::copy(row.begin(), row.end(), xb.begin());
    const Vector want = saturated(xb);
    const Vector from_matvec = model.forward(xb, per_sample).activations.back();
    for (std::size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(from_matvec[r], want[r]) << "matvec sample " << b;
      ASSERT_EQ(from_matmul.at(b, r), want[r]) << "matmul sample " << b;
      ASSERT_EQ(from_plan.at(b, r), want[r]) << "plan sample " << b;
    }
  }
}

// --- zero steady-state allocation -------------------------------------------

/// Widths stay ≤ 32 so the GEMM grain keeps every kernel inline; the large
/// model's layers split their narrow calls and dispatch B = 32's two full
/// blocks across the thread pool.  The zero-allocation contract covers
/// both regimes (docs/performance.md).  Telemetry must be off (the
/// default) — spans allocate.
Mlp small_model() {
  Rng rng(0x7157u);
  return Mlp({16, 32, 24, 8}, Activation::kReLU, rng);
}

template <typename Backend>
void expect_zero_steady_state_allocs(
    Backend& backend, const std::string& what,
    const std::vector<std::size_t>& batches = serving_batches(),
    const Mlp& model = small_model()) {
  ASSERT_FALSE(telemetry::enabled());
  const auto plan = ExecutionPlan::compile(model);
  PlanArena arena;
  const auto width = static_cast<std::size_t>(model.layer_sizes().front());
  for (const std::size_t batch : batches) {
    const Matrix x = seeded_batch(batch, width, 0x1234u + batch);
    (void)plan->run(backend, x, arena);  // warm-up: arena grows here
    (void)plan->run(backend, x, arena);
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 10; ++i) {
      (void)plan->run(backend, x, arena);
    }
    const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << what << " allocated at B=" << batch;
  }
}

TEST(PlanZeroAlloc, FloatBackendSteadyState) {
  FloatBackend backend;
  expect_zero_steady_state_allocs(backend, "float");
}

TEST(PlanZeroAlloc, PhotonicBackendSteadyState) {
  core::PhotonicBackendConfig bc;
  bc.readout_noise = 0.05;  // the noisy loop must not allocate either
  core::PhotonicBackend backend(bc);
  expect_zero_steady_state_allocs(backend, "photonic");
}

TEST(PlanZeroAlloc, PhotonicBackendSplitAcrossThePoolSteadyState) {
  // The edge-serving model: its 1024 × 512 and 512 × 1024 layers split
  // every batch narrower than 16 across the pool, and B = 32 dispatches
  // two full blocks.  The region allocates nothing once the pool exists.
  Rng rng(0x1A29u);
  const Mlp model({512, 1024, 512, 10}, Activation::kReLU, rng);
  core::PhotonicBackendConfig bc;
  bc.readout_noise = 0.05;
  core::PhotonicBackend backend(bc);
  expect_zero_steady_state_allocs(backend, "photonic split",
                                  serving_batches(), model);
}

TEST(PlanZeroAlloc, QuantizedBackendSteadyState) {
  core::QuantizedBackend backend;
  expect_zero_steady_state_allocs(backend, "quantized");
}

// --- interpreter fallback ---------------------------------------------------

/// Overrides only the per-sample pure virtuals plus a counting matmul shim:
/// exactly the shape of a chaos injector or accounting decorator.  The plan
/// runtime must route it through the interpreter with the per-op call
/// sequence intact.
class TracingBackend final : public MatvecBackend {
 public:
  int matmul_calls = 0;

  [[nodiscard]] Vector matvec(const Matrix& w, const Vector& x) override {
    return w.matvec(x);
  }
  [[nodiscard]] Vector matvec_transposed(const Matrix& w,
                                         const Vector& x) override {
    return w.matvec_transposed(x);
  }
  void rank1_update(Matrix& w, const Vector& dh, const Vector& y_prev,
                    double lr) override {
    for (std::size_t r = 0; r < w.rows(); ++r) {
      for (std::size_t c = 0; c < w.cols(); ++c) {
        w.at(r, c) -= lr * dh[r] * y_prev[c];
      }
    }
  }
  [[nodiscard]] Matrix matmul(const Matrix& w, const Matrix& x) override {
    ++matmul_calls;
    return MatvecBackend::matmul(w, x);
  }
};

TEST(PlanInterpreter, FallbackPreservesPerOpSequenceAndBits) {
  Rng rng(0xFA11u);
  const Mlp model({12, 18, 14, 6}, Activation::kGstPhotonic, rng);
  const Matrix x = seeded_batch(5, 12, 0x900Du);

  TracingBackend legacy;
  const BatchForwardTrace trace = model.forward_batch(x, legacy);

  TracingBackend fused;  // no run_plan override → interpreter path
  const auto plan = ExecutionPlan::compile(model);
  PlanArena arena;
  const Matrix& got = plan->run(fused, x, arena);

  EXPECT_EQ(fused.matmul_calls, legacy.matmul_calls);
  EXPECT_EQ(fused.matmul_calls, model.depth());
  const Matrix& want = trace.activations.back();
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < want.data().size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i]);
  }
}

// --- plan identity / compatibility ------------------------------------------

TEST(PlanVersioning, IdsAreProcessWideMonotone) {
  Rng rng(0x1Du);
  const Mlp model({6, 9, 3}, Activation::kReLU, rng);
  const auto a = ExecutionPlan::compile(model);
  const auto b = ExecutionPlan::compile(model);
  EXPECT_GT(a->id(), 0u);
  EXPECT_GT(b->id(), a->id());
}

TEST(PlanVersioning, MatchesChecksArchitectureNotWeights) {
  Rng rng(0x2Du);
  const Mlp model({6, 9, 3}, Activation::kReLU, rng);
  const auto plan = ExecutionPlan::compile(model);
  EXPECT_TRUE(plan->matches(model));

  Rng rng2(0x3Du);
  const Mlp same_arch({6, 9, 3}, Activation::kReLU, rng2);
  EXPECT_TRUE(plan->matches(same_arch));  // weights differ, shape agrees

  Rng rng3(0x4Du);
  const Mlp other_width({6, 8, 3}, Activation::kReLU, rng3);
  EXPECT_FALSE(plan->matches(other_width));
  Rng rng4(0x5Du);
  const Mlp other_act({6, 9, 3}, Activation::kGstPhotonic, rng4);
  EXPECT_FALSE(plan->matches(other_act));
}

TEST(PlanVersioning, RejectsOutOfRangeWeightGrid) {
  Rng rng(0x6Du);
  const Mlp model({4, 4, 2}, Activation::kReLU, rng);
  EXPECT_THROW((void)ExecutionPlan::compile(model, PlanConfig{0}), Error);
  EXPECT_THROW((void)ExecutionPlan::compile(model, PlanConfig{9}), Error);
}

TEST(PlanVersioning, RunRejectsWrongInputWidth) {
  Rng rng(0x7Du);
  const Mlp model({4, 4, 2}, Activation::kReLU, rng);
  const auto plan = ExecutionPlan::compile(model);
  FloatBackend backend;
  PlanArena arena;
  EXPECT_THROW((void)plan->run(backend, Matrix(1, 5), arena), Error);
}

}  // namespace
}  // namespace trident::nn

// --- serving plan publication -----------------------------------------------

namespace trident::serving {
namespace {

nn::Mlp serving_model(std::uint64_t seed) {
  Rng rng(seed);
  return nn::Mlp({8, 16, 4}, nn::Activation::kGstPhotonic, rng);
}

TEST(ServingPlan, HotSwapPublishesANewPlanVersion) {
  Server server(serving_model(0x5eedu), ServerConfig{});
  const auto before = server.published_plan();
  ASSERT_NE(before, nullptr);
  server.hot_swap(serving_model(0xB0Bu));
  const auto after = server.published_plan();
  ASSERT_NE(after, nullptr);
  EXPECT_GT(after->id(), before->id());
}

TEST(ServingPlan, CanaryPromoteReusesTheCandidatePlan) {
  Server server(serving_model(0x5eedu), ServerConfig{});
  const nn::Mlp candidate = serving_model(0xCAFEu);
  // Pre-compile off the serving path (the learning pipeline's shape) and
  // verify the exact object survives promotion into the incumbent slot.
  const auto plan = nn::ExecutionPlan::compile(candidate,
                                               server.plan_config());
  ASSERT_NE(server.canary_start(candidate, 10, plan), 0u);
  ASSERT_TRUE(server.canary_end(true));
  EXPECT_EQ(server.published_plan(), plan);
}

TEST(ServingPlan, RejectsMismatchedPreCompiledCanaryPlan) {
  Server server(serving_model(0x5eedu), ServerConfig{});
  Rng rng(0x77u);
  const nn::Mlp narrow({8, 12, 4}, nn::Activation::kGstPhotonic, rng);
  const auto wrong_shape = nn::ExecutionPlan::compile(narrow);
  EXPECT_THROW((void)server.canary_start(serving_model(0xCAFEu), 10,
                                         wrong_shape),
               Error);
}

TEST(ServingPlan, HotSwapChurnUnderLoadStaysCoherent) {
  // Plan-publication churn: swaps race served batches; every response must
  // come from a single (version, plan) pairing — the never-torn guarantee
  // with plans riding the publications.  Run under TSan in CI.
  ServerConfig cfg;
  cfg.replicas = 2;
  const nn::Mlp base = serving_model(0x5eedu);
  Server server(base, cfg);
  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    std::uint64_t seed = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      server.hot_swap(serving_model(seed++));
    }
  });
  for (int i = 0; i < 200; ++i) {
    auto fut = server.submit(nn::Vector(8, 0.1));
    if (!fut.has_value()) {
      continue;  // shed under churn is fine; torn state is not
    }
    const Response r = fut->get();
    EXPECT_EQ(r.output.size(), 4u);
  }
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
}

}  // namespace
}  // namespace trident::serving
