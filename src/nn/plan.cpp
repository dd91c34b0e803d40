#include "nn/plan.hpp"

#include <algorithm>
#include <atomic>
#include <optional>

#include "common/quantize.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace trident::nn {

namespace {

struct PlanMetrics {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& compiles = reg.counter(
      "trident_plan_compiles_total", "models compiled into execution plans");
  telemetry::Counter& runs = reg.counter(
      "trident_plan_runs_total", "input blocks executed through Plan::run");
  telemetry::Counter& layers =
      reg.counter("trident_plan_layers_total",
                  "layer executions performed inside Plan::run");
  telemetry::Counter& fallbacks =
      reg.counter("trident_plan_fallback_runs_total",
                  "Plan::run calls interpreted per-op because the backend "
                  "had no fused path for the plan");
};

PlanMetrics& plan_metrics() {
  static PlanMetrics m;
  return m;
}

/// Process-wide plan id source — see ExecutionPlan::id().
std::atomic<std::uint64_t> g_next_plan_id{0};

}  // namespace

// ---------------------------------------------------------------------------
// PlanArena
// ---------------------------------------------------------------------------

void PlanArena::ensure(const ExecutionPlan& plan, std::size_t batch) {
  TRIDENT_REQUIRE(batch >= 1, "plan arena batch must be non-empty");
  const std::size_t width = plan.max_width();
  if (batch <= batch_hw_ && width <= width_hw_) {
    return;  // high-water extents already cover this run (steady state)
  }
  batch_hw_ = std::max(batch_hw_, batch);
  width_hw_ = std::max(width_hw_, width);
  out_.reshape(batch_hw_, width_hw_);
  act_a_.reshape(batch_hw_, width_hw_);
  act_b_.reshape(batch_hw_, width_hw_);
  quantized_.reshape(batch_hw_, width_hw_);
  scale_.resize(batch_hw_);
  int8_.resize(batch_hw_ * width_hw_);
  acc_.resize(batch_hw_ * width_hw_);
}

// ---------------------------------------------------------------------------
// ExecutionPlan
// ---------------------------------------------------------------------------

ExecutionPlan::ExecutionPlan(const Mlp& model, const PlanConfig& config)
    : config_(config),
      sizes_(model.layer_sizes()),
      hidden_(model.hidden_activation()) {
  TRIDENT_REQUIRE(config.weight_bits >= 1 && config.weight_bits <= 8,
                  "plan weight grid must fit int8");
  std::optional<telemetry::Span> span;
  if (telemetry::enabled()) {
    span.emplace("plan/compile", "plan");
  }

  const SymmetricQuantizer wq(config.weight_bits, 1.0);
  const int depth = model.depth();
  layers_.reserve(static_cast<std::size_t>(depth));
  for (int k = 0; k < depth; ++k) {
    PlanLayer layer;
    layer.weights = model.weight(k);
    layer.rows = layer.weights.rows();
    layer.cols = layer.weights.cols();
    layer.activation =
        (k == depth - 1) ? Activation::kIdentity : model.hidden_activation();
    // The panel either backend's matmul packs per call, packed once here.
    layer.panel = PackedPanel(layer.weights, wq);
    layers_.push_back(std::move(layer));
  }

  max_width_ = 0;
  for (int s : sizes_) {
    max_width_ = std::max(max_width_, static_cast<std::size_t>(s));
  }

  // The id is taken last so a throwing compile never consumes one.
  id_ = g_next_plan_id.fetch_add(1, std::memory_order_relaxed) + 1;
  if (telemetry::enabled()) {
    plan_metrics().compiles.add(1);
  }
}

std::shared_ptr<const ExecutionPlan> ExecutionPlan::compile(
    const Mlp& model, const PlanConfig& config) {
  return std::make_shared<const ExecutionPlan>(model, config);
}

const PlanLayer& ExecutionPlan::layer(int k) const {
  TRIDENT_REQUIRE(k >= 0 && k < depth(), "plan layer index out of range");
  return layers_[static_cast<std::size_t>(k)];
}

bool ExecutionPlan::matches(const Mlp& model) const {
  return model.layer_sizes() == sizes_ &&
         model.hidden_activation() == hidden_;
}

const Matrix& ExecutionPlan::run(MatvecBackend& backend, const Matrix& x,
                                 PlanArena& arena) const {
  TRIDENT_REQUIRE(x.cols() == input_dim(), "plan input size mismatch");
  arena.ensure(*this, x.rows());
  const bool telem = telemetry::enabled();
  std::optional<telemetry::Span> span;
  if (telem) {
    span.emplace("plan/run", "plan");
  }
  if (!backend.run_plan(*this, x, arena)) {
    if (telem) {
      plan_metrics().fallbacks.add(1);
    }
    run_interpreted(backend, x, arena);
  }
  if (telem) {
    PlanMetrics& m = plan_metrics();
    m.runs.add(1);
    m.layers.add(layers_.size());
  }
  return arena.out();
}

void ExecutionPlan::run_interpreted(MatvecBackend& backend, const Matrix& x,
                                    PlanArena& arena) const {
  // One backend.matmul per layer — the identical op sequence (and thus
  // fault/ledger/noise order) Mlp::forward_batch issues, so backends
  // without a fused path (chaos injectors, counting shims) behave exactly
  // as they do on the per-op path.  This path allocates per layer; the
  // zero-allocation guarantee belongs to the fused paths only.
  const Matrix* cur = &x;
  Matrix carry;
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    const PlanLayer& layer = layers_[k];
    Matrix h = backend.matmul(layer.weights, *cur);
    if (k + 1 == layers_.size()) {
      arena.out() = std::move(h);  // identity epilogue: logits are the output
      return;
    }
    for (double& v : h.data()) {
      v = apply_activation(layer.activation, v);
    }
    carry = std::move(h);
    cur = &carry;
  }
}

// ---------------------------------------------------------------------------
// Backend fused paths that belong to nn (core backends override in core/)
// ---------------------------------------------------------------------------

bool MatvecBackend::run_plan(const ExecutionPlan& plan, const Matrix& x,
                             PlanArena& arena) {
  (void)plan;
  (void)x;
  (void)arena;
  return false;  // no fused path — Plan::run interprets per-op
}

bool FloatBackend::run_plan(const ExecutionPlan& plan, const Matrix& x,
                            PlanArena& arena) {
  const int depth = plan.depth();
  const Matrix* cur = &x;
  for (int k = 0; k < depth; ++k) {
    const PlanLayer& layer = plan.layer(k);
    const bool last = (k == depth - 1);
    Matrix& h = last ? arena.out() : arena.act(k);
    h.reshape(x.rows(), layer.rows);
    layer.weights.matmul_into(*cur, h);
    if (!last) {
      for (double& v : h.data()) {
        v = apply_activation(layer.activation, v);
      }
      cur = &h;
    }
  }
  return true;
}

}  // namespace trident::nn
