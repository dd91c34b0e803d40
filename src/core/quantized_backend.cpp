#include "core/quantized_backend.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>

#include "common/error.hpp"
#include "nn/int8_gemm.hpp"
#include "nn/plan.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::core {

namespace {

struct QuantizedMetrics {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& plan_compiles =
      reg.counter("trident_quantized_plan_compiles_total",
                  "weight matrices compiled into packed int8 level panels");
  telemetry::Counter& plan_reuse =
      reg.counter("trident_quantized_plan_reuse_total",
                  "plan-cache hits (fingerprint matched, panel reused)");
  telemetry::Counter& plan_recompiles =
      reg.counter("trident_quantized_plan_recompiles_total",
                  "plan-cache entries rebuilt after a content change "
                  "(hot-swap or in-situ update mutated the buffer)");
};

QuantizedMetrics& metrics() {
  static QuantizedMetrics m;
  return m;
}

/// splitmix64 finisher: full-avalanche mix of one 64-bit word.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Content hash of the weight buffer.  The plan cache keys panels by matrix
/// address, but weight hot-swap copy-assigns new values into the SAME
/// allocation — the fingerprint is what actually decides whether the
/// compiled panel is still the matrix in front of us.  It runs on EVERY
/// lookup, so it is on the fast path's critical path: four independent
/// xor-multiply lanes (word-at-a-time, multiplies pipelined) keep it an
/// order of magnitude cheaper than a byte-serial FNV while still
/// avalanching every input bit through the splitmix64 finisher.
std::uint64_t fingerprint_of(const std::vector<double>& data) {
  std::uint64_t h0 = 0x9e3779b97f4a7c15ull;
  std::uint64_t h1 = 0xbf58476d1ce4e5b9ull;
  std::uint64_t h2 = 0x94d049bb133111ebull;
  std::uint64_t h3 = 0x2545f4914f6cdd1dull;
  constexpr std::uint64_t kMul = 0x9ddfea08eb382d69ull;
  const std::size_t n = data.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    h0 = std::rotl((h0 ^ std::bit_cast<std::uint64_t>(data[i])) * kMul, 27);
    h1 = std::rotl((h1 ^ std::bit_cast<std::uint64_t>(data[i + 1])) * kMul, 29);
    h2 = std::rotl((h2 ^ std::bit_cast<std::uint64_t>(data[i + 2])) * kMul, 31);
    h3 = std::rotl((h3 ^ std::bit_cast<std::uint64_t>(data[i + 3])) * kMul, 33);
  }
  for (; i < n; ++i) {
    h0 = std::rotl((h0 ^ std::bit_cast<std::uint64_t>(data[i])) * kMul, 27);
  }
  return mix64(mix64(h0 + n) ^ mix64(h1) ^ mix64(h2) ^ mix64(h3));
}

/// max(1, max|row|): the per-sample DAC pre-scale PhotonicBackend applies.
double dac_scale(std::span<const double> row) {
  double s = 1.0;
  for (double v : row) {
    s = std::max(s, std::abs(v));
  }
  return s;
}

/// Exact Lipschitz constant of the (piecewise-linear, kink-at-zero)
/// activations: the steeper of the two unit slopes.  Measuring it from
/// apply_activation keeps the bound honest if the GST slope ever changes.
double activation_lipschitz(nn::Activation act) {
  const double pos = std::abs(nn::apply_activation(act, 1.0) -
                              nn::apply_activation(act, 0.0));
  const double neg = std::abs(nn::apply_activation(act, 0.0) -
                              nn::apply_activation(act, -1.0));
  return std::max(pos, neg);
}

}  // namespace

QuantizedBackend::QuantizedBackend(const QuantizedBackendConfig& config)
    : config_(config),
      weight_quantizer_(config.weight_bits, 1.0),
      input_quantizer_(config.input_bits, 1.0) {
  TRIDENT_REQUIRE(config.weight_bits >= 1 && config.weight_bits <= 8,
                  "quantized tier weight grid must fit int8");
  TRIDENT_REQUIRE(config.input_bits >= 1 && config.input_bits <= 8,
                  "quantized tier input grid must fit int8");
}

const QuantizedBackend::WeightPlan& QuantizedBackend::plan_for(
    const nn::Matrix& w) {
  const std::uint64_t fp = fingerprint_of(w.data());
  WeightPlan& plan = plans_[static_cast<const void*>(&w)];
  if (!plan.levels.empty() && plan.fingerprint == fp &&
      plan.rows == w.rows() && plan.cols == w.cols()) {
    if (telemetry::enabled()) {
      metrics().plan_reuse.add(1);
    }
    return plan;
  }
  if (telemetry::enabled()) {
    if (plan.levels.empty()) {
      metrics().plan_compiles.add(1);
    } else {
      metrics().plan_recompiles.add(1);
    }
  }
  plan.rows = w.rows();
  plan.cols = w.cols();
  plan.fingerprint = fp;
  plan.levels.resize(w.size());
  // to_level saturates outside [-1, 1], which doubles as the clamp the
  // photonic path applies to externally-set out-of-range weights.
  weight_quantizer_.to_levels(w.data(), plan.levels);
  return plan;
}

void QuantizedBackend::ensure_programmed(const nn::Matrix& w) {
  if (resident_matrix_ == static_cast<const void*>(&w)) {
    return;  // non-volatile weights are still loaded — free reuse
  }
  ledger_.weight_writes += w.size();
  ledger_.program_events += 1;
  PhotonicLedger d;
  d.weight_writes = w.size();
  d.program_events = 1;
  detail::mirror_ledger_delta(d);
  resident_matrix_ = static_cast<const void*>(&w);
}

nn::Matrix QuantizedBackend::matmul(const nn::Matrix& w, const nn::Matrix& x) {
  TRIDENT_REQUIRE(x.cols() == w.cols(), "matmul dimension mismatch");
  const WeightPlan& plan = plan_for(w);
  ensure_programmed(w);
  const std::size_t batch = x.rows();
  const std::size_t rows = w.rows();
  const std::size_t cols = w.cols();

  // Per-sample DAC scale, then one int8 quantization pass over the block.
  std::vector<double> scale(batch);
  std::vector<std::int8_t> xq(batch * cols);
  nn::dac_quantize(x.data().data(), batch, cols, input_quantizer_,
                   scale.data(), xq.data());

  std::vector<std::int32_t> acc(batch * rows);
  nn::int8_gemm(plan.levels.data(), rows, cols, xq.data(), batch, acc.data());

  // TIA re-scale: one multiply per output.  The int32 accumulation is exact,
  // so row b is bit-identical whether it ran alone or inside this block.
  const double unit = weight_quantizer_.step() * input_quantizer_.step();
  nn::Matrix y(batch, rows);
  for (std::size_t b = 0; b < batch; ++b) {
    auto yr = y.row(b);
    const std::int32_t* ar = acc.data() + b * rows;
    for (std::size_t r = 0; r < rows; ++r) {
      yr[r] = static_cast<double>(ar[r]) * unit * scale[b];
    }
  }

  ledger_.symbols += batch;
  ledger_.macs += batch * w.size();
  ledger_.activations += batch * w.rows();
  PhotonicLedger d;
  d.symbols = batch;
  d.macs = batch * w.size();
  d.activations = batch * w.rows();
  detail::mirror_ledger_delta(d);
  return y;
}

bool QuantizedBackend::run_plan(const nn::ExecutionPlan& plan,
                                const nn::Matrix& x, nn::PlanArena& arena) {
  if (plan.config().weight_bits != config_.weight_bits) {
    return false;  // panel grid mismatch — interpret per-op (re-packs right)
  }
  const std::size_t batch = x.rows();
  const int depth = plan.depth();
  const double unit = weight_quantizer_.step() * input_quantizer_.step();
  const nn::Matrix* cur = &x;
  nn::Vector& scale = arena.scale();
  std::vector<std::int8_t>& xq = arena.int8_input();
  std::vector<std::int32_t>& acc = arena.int32_acc();
  for (int k = 0; k < depth; ++k) {
    const nn::PlanLayer& layer = plan.layer(k);
    const std::size_t rows = layer.rows;
    const std::size_t cols = layer.cols;
    TRIDENT_REQUIRE(cols <= nn::kInt8GemmMaxCols,
                    "layer fan-in too large for exact int32 accumulation");
    ensure_programmed(layer.weights);

    nn::dac_quantize(cur->data().data(), batch, cols, input_quantizer_,
                     scale.data(), xq.data());

    // The plan's immutable panel replaces plan_for: no per-call content
    // fingerprint, because published plans never mutate.
    nn::int8_gemm(layer.levels.data(), rows, cols, xq.data(), batch,
                  acc.data());

    // Fused epilogue: the TIA re-scale and the activation land in one pass
    // over the output block.  Routing the rescaled value through a register
    // instead of memory does not change its bits, so this matches the
    // legacy rescale-then-activate sequence exactly.
    const bool last = (k == depth - 1);
    nn::Matrix& y = last ? arena.out() : arena.act(k);
    y.reshape(batch, rows);
    for (std::size_t b = 0; b < batch; ++b) {
      auto yr = y.row(b);
      const std::int32_t* ar = acc.data() + b * rows;
      if (last) {
        for (std::size_t r = 0; r < rows; ++r) {
          yr[r] = static_cast<double>(ar[r]) * unit * scale[b];
        }
      } else {
        for (std::size_t r = 0; r < rows; ++r) {
          yr[r] = nn::apply_activation(
              layer.activation,
              static_cast<double>(ar[r]) * unit * scale[b]);
        }
      }
    }

    ledger_.symbols += batch;
    ledger_.macs += batch * layer.weights.size();
    ledger_.activations += batch * rows;
    PhotonicLedger d;
    d.symbols = batch;
    d.macs = batch * layer.weights.size();
    d.activations = batch * rows;
    detail::mirror_ledger_delta(d);

    if (!last) {
      cur = &y;
    }
  }
  return true;
}

nn::Vector QuantizedBackend::matvec(const nn::Matrix& w, const nn::Vector& x) {
  TRIDENT_REQUIRE(x.size() == w.cols(), "matvec dimension mismatch");
  nn::Matrix xm(1, x.size());
  std::copy(x.begin(), x.end(), xm.data().begin());
  // Batch-of-one through the block path: same kernels, same scaling order,
  // same ledger charges — bit-identity with matmul rows is structural.
  const nn::Matrix y = matmul(w, xm);
  const auto row = y.row(0);
  return nn::Vector(row.begin(), row.end());
}

nn::Matrix QuantizedBackend::matmul_transposed(const nn::Matrix& w,
                                               const nn::Matrix& x) {
  TRIDENT_REQUIRE(x.cols() == w.rows(), "transposed matmul dimension mismatch");
  const WeightPlan& plan = plan_for(w);
  const std::size_t batch = x.rows();
  const std::size_t rows = w.rows();
  const std::size_t cols = w.cols();

  // Same accounting as the photonic path: every gradient symbol pair
  // re-encodes the bank with Wᵀ, and the forward layout is gone after.
  ledger_.weight_writes += batch * w.size();
  ledger_.program_events += batch;
  PhotonicLedger dw;
  dw.weight_writes = batch * w.size();
  dw.program_events = batch;
  detail::mirror_ledger_delta(dw);
  resident_matrix_ = nullptr;

  std::vector<double> scale(batch);
  std::vector<std::int8_t> xq(batch * rows);
  nn::dac_quantize(x.data().data(), batch, rows, input_quantizer_,
                   scale.data(), xq.data());

  std::vector<std::int32_t> acc(batch * cols);
  nn::int8_gemm_transposed(plan.levels.data(), rows, cols, xq.data(), batch,
                           acc.data());

  const double unit = weight_quantizer_.step() * input_quantizer_.step();
  nn::Matrix y(batch, cols);
  for (std::size_t b = 0; b < batch; ++b) {
    auto yr = y.row(b);
    const std::int32_t* ar = acc.data() + b * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      yr[c] = static_cast<double>(ar[c]) * unit * scale[b];
    }
  }

  ledger_.symbols += 2 * batch;  // signed gradients: two polarity symbols
  ledger_.macs += batch * w.size();
  PhotonicLedger dr;
  dr.symbols = 2 * batch;
  dr.macs = batch * w.size();
  detail::mirror_ledger_delta(dr);
  return y;
}

nn::Vector QuantizedBackend::matvec_transposed(const nn::Matrix& w,
                                               const nn::Vector& x) {
  TRIDENT_REQUIRE(x.size() == w.rows(), "transposed matvec dimension mismatch");
  nn::Matrix xm(1, x.size());
  std::copy(x.begin(), x.end(), xm.data().begin());
  nn::Matrix y = matmul_transposed(w, xm);
  const auto row = y.row(0);
  return nn::Vector(row.begin(), row.end());
}

void QuantizedBackend::rank1_update(nn::Matrix& w, const nn::Vector& dh,
                                    const nn::Vector& y_prev, double lr) {
  TRIDENT_REQUIRE(dh.size() == w.rows() && y_prev.size() == w.cols(),
                  "rank-1 update dimension mismatch");
  ledger_.symbols += w.rows();
  ledger_.macs += w.size();

  // Deterministic in-situ update on the weight grid: the kernel a
  // noise-free PhotonicBackend runs (round-to-nearest level, sub-LSB loss).
  const std::uint64_t changed =
      nn::rank1_update_levels(w, dh, y_prev, lr, weight_quantizer_);
  ledger_.weight_writes += changed;
  if (changed > 0) {
    ledger_.program_events += 1;
    resident_matrix_ = nullptr;
    plans_.erase(static_cast<const void*>(&w));  // panel is stale
  }
  PhotonicLedger d;
  d.weight_writes = changed;
  d.program_events = changed > 0 ? 1 : 0;
  d.symbols = w.rows();
  d.macs = w.size();
  detail::mirror_ledger_delta(d);
}

double QuantizedBackend::matmul_error_bound(std::size_t cols,
                                            double x_scale) const {
  const double eps = std::numeric_limits<double>::epsilon();
  const double we = weight_quantizer_.step() / 2.0;
  const double xe = input_quantizer_.step() / 2.0;
  const double n = static_cast<double>(cols);
  return x_scale * n * (we + xe + we * xe + 4.0 * n * eps);
}

// ---------------------------------------------------------------------------
// QuantizedProgram
// ---------------------------------------------------------------------------

QuantizedProgram::QuantizedProgram(const nn::Mlp& model,
                                   const nn::Matrix& calibration,
                                   const QuantizedBackendConfig& config,
                                   double range_margin)
    : config_(config) {
  TRIDENT_REQUIRE(config.weight_bits >= 1 && config.weight_bits <= 8,
                  "quantized tier weight grid must fit int8");
  TRIDENT_REQUIRE(config.input_bits >= 1 && config.input_bits <= 8,
                  "quantized tier input grid must fit int8");
  TRIDENT_REQUIRE(range_margin >= 1.0, "range margin must be >= 1");
  const int depth = model.depth();
  TRIDENT_REQUIRE(depth >= 1, "model has no layers");
  TRIDENT_REQUIRE(calibration.cols() ==
                      static_cast<std::size_t>(model.layer_sizes().front()),
                  "calibration batch does not match the model input width");

  // Calibration walk: the double reference over per-sample-normalised
  // inputs (the network is positively homogeneous — ReLU/GST/identity — so
  // normalising commutes with inference and the per-sample DAC scale can be
  // re-applied at the output).
  nn::Matrix xn = calibration;
  for (std::size_t b = 0; b < xn.rows(); ++b) {
    auto row = xn.row(b);
    const double s = dac_scale(row);
    for (double& v : row) {
      v /= s;
    }
  }
  nn::FloatBackend ref;
  const nn::BatchForwardTrace trace = model.forward_batch(xn, ref);

  const SymmetricQuantizer wq(config.weight_bits, 1.0);
  const nn::Activation act = model.hidden_activation();
  const double lipschitz = activation_lipschitz(act);
  const double eps = std::numeric_limits<double>::epsilon();

  double in_step = SymmetricQuantizer(config.input_bits, 1.0).step();
  double in_range = 1.0;        // normalised inputs live in [-1, 1]
  double e_in = in_step / 2.0;  // propagated per-element error bound

  layers_.reserve(static_cast<std::size_t>(depth));
  for (int k = 0; k < depth; ++k) {
    const nn::Matrix& w = model.weight(k);
    TRIDENT_REQUIRE(w.cols() <= nn::kInt8GemmMaxCols,
                    "layer fan-in too large for exact int32 accumulation");
    FusedLayer layer;
    layer.rows = w.rows();
    layer.cols = w.cols();
    layer.w_step = wq.step();
    layer.in_step = in_step;
    layer.weights.resize(w.size());
    wq.to_levels(w.data(), layer.weights);

    const double n = static_cast<double>(w.cols());
    // |ĥ − h| ≤ Σ |w|·|δy| + |δw|·|ŷ|, |w| ≤ 1, |ŷ| ≤ in_range, plus the
    // reference's own float accumulation slop (the int path is exact).
    double e_h = n * (e_in + (wq.step() / 2.0) * in_range) +
                 4.0 * eps * n * n * std::max(1.0, in_range);

    const bool last = (k == depth - 1);
    if (last) {
      unit_bound_ = e_h;
      layers_.push_back(std::move(layer));
      break;
    }

    // Calibrated pre-activation grid (8-bit, the LDSU comparator width).
    double h_max = 0.0;
    for (double v : trace.logits[static_cast<std::size_t>(k)].data()) {
      h_max = std::max(h_max, std::abs(v));
    }
    layer.h_range = std::max(range_margin * h_max, 1e-6);
    const SymmetricQuantizer hq(8, layer.h_range);
    layer.h_step = hq.step();
    layer.h_half_steps = (hq.levels() - 1) / 2;

    // Output grid sized to the calibrated activation range, widened if
    // needed so every h-grid level's activation image stays representable
    // (otherwise the LUT itself would saturate invisibly).
    double y_max = 0.0;
    for (double v :
         trace.activations[static_cast<std::size_t>(k) + 1].data()) {
      y_max = std::max(y_max, std::abs(v));
    }
    double f_image = 0.0;
    for (int l = -layer.h_half_steps; l <= layer.h_half_steps; ++l) {
      f_image = std::max(
          f_image, std::abs(nn::apply_activation(act, l * layer.h_step)));
    }
    const double y_range =
        std::max({range_margin * y_max, f_image, 1e-6});
    const SymmetricQuantizer oq(config.input_bits, y_range);
    layer.out_step = oq.step();
    layer.lut = phot::build_activation_lut(
        [act](double h) { return nn::apply_activation(act, h); }, hq, oq);
    layer.has_lut = true;

    // Propagate: activation is `lipschitz`-Lipschitz, the h requantization
    // adds h_step/2, landing on the next input grid adds out_step/2.
    e_in = lipschitz * (e_h + layer.h_step / 2.0) + layer.out_step / 2.0;
    in_range = y_range;
    in_step = layer.out_step;
    layers_.push_back(std::move(layer));
  }
}

nn::Matrix QuantizedProgram::forward(const nn::Matrix& x,
                                     bool* saturated) const {
  TRIDENT_REQUIRE(x.cols() == layers_.front().cols,
                  "input batch does not match the compiled model");
  const std::size_t batch = x.rows();
  bool sat = false;

  // Layer-0 DAC: per-sample scale, quantize onto the unit input grid.
  const SymmetricQuantizer in0(config_.input_bits, 1.0);
  std::vector<double> scale(batch, 1.0);
  std::size_t cur_cols = layers_.front().cols;
  std::vector<std::int8_t> cur(batch * cur_cols);
  std::vector<double> scaled(cur_cols);
  for (std::size_t b = 0; b < batch; ++b) {
    const auto row = x.row(b);
    const double s = dac_scale(row);
    scale[b] = s;
    for (std::size_t c = 0; c < cur_cols; ++c) {
      scaled[c] = row[c] / s;
    }
    in0.to_levels(scaled,
                  std::span<std::int8_t>(cur.data() + b * cur_cols, cur_cols));
  }

  std::vector<std::int32_t> acc;
  std::vector<std::int8_t> next;
  nn::Matrix out(batch, layers_.back().rows);
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    const FusedLayer& layer = layers_[k];
    acc.resize(batch * layer.rows);
    nn::int8_gemm(layer.weights.data(), layer.rows, layer.cols, cur.data(),
                  batch, acc.data());
    const double unit = layer.w_step * layer.in_step;
    if (!layer.has_lut) {
      // Output layer (identity): undo the carried per-sample DAC scale.
      for (std::size_t b = 0; b < batch; ++b) {
        auto yr = out.row(b);
        const std::int32_t* ar = acc.data() + b * layer.rows;
        for (std::size_t r = 0; r < layer.rows; ++r) {
          yr[r] = static_cast<double>(ar[r]) * unit * scale[b];
        }
      }
      break;
    }
    // Requantize the exact int32 pre-activation onto the h grid, then the
    // fused activation table emits the next layer's input level directly.
    next.resize(batch * layer.rows);
    const double to_h = unit / layer.h_step;
    for (std::size_t i = 0; i < acc.size(); ++i) {
      long level = std::lround(static_cast<double>(acc[i]) * to_h);
      if (level > layer.h_half_steps || level < -layer.h_half_steps) {
        sat = true;  // left the calibrated envelope — bound no longer binds
        level = std::clamp<long>(level, -layer.h_half_steps,
                                 layer.h_half_steps);
      }
      next[i] = layer.lut(static_cast<std::int8_t>(level));
    }
    cur.swap(next);
    cur_cols = layer.rows;
  }

  if (saturated != nullptr) {
    *saturated = sat;
  }
  return out;
}

FastPathReport check_fast_path(const nn::Mlp& model,
                               const nn::Matrix& calibration,
                               const nn::Matrix& eval,
                               const QuantizedBackendConfig& config) {
  const QuantizedProgram program(model, calibration, config);

  nn::FloatBackend ref;
  const nn::BatchForwardTrace trace = model.forward_batch(eval, ref);

  FastPathReport report;
  report.exact = trace.activations.back();
  report.fast = program.forward(eval, &report.saturated);

  const std::size_t batch = eval.rows();
  report.bound.resize(batch);
  std::size_t agree = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    report.bound[b] = dac_scale(eval.row(b)) * program.unit_error_bound();
    const auto er = report.exact.row(b);
    const auto fr = report.fast.row(b);
    std::size_t e_arg = 0;
    std::size_t f_arg = 0;
    for (std::size_t r = 0; r < er.size(); ++r) {
      report.max_abs_error =
          std::max(report.max_abs_error, std::abs(fr[r] - er[r]));
      if (er[r] > er[e_arg]) {
        e_arg = r;
      }
      if (fr[r] > fr[f_arg]) {
        f_arg = r;
      }
    }
    if (e_arg == f_arg) {
      ++agree;
    }
  }
  report.top1_agreement =
      batch == 0 ? 1.0 : static_cast<double>(agree) / static_cast<double>(batch);
  return report;
}

}  // namespace trident::core
