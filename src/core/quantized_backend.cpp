#include "core/quantized_backend.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "nn/int8_gemm.hpp"
#include "nn/plan.hpp"

namespace trident::core {

QuantizedBackend::QuantizedBackend(const QuantizedBackendConfig& config)
    : config_(config),
      weight_quantizer_(config.weight_bits, 1.0),
      input_quantizer_(config.input_bits, 1.0) {
  TRIDENT_REQUIRE(config.weight_bits >= 1 && config.weight_bits <= 8,
                  "quantized tier weight grid must fit int8");
  TRIDENT_REQUIRE(config.input_bits >= 1 && config.input_bits <= 8,
                  "quantized tier input grid must fit int8");
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
  // The level panel a compiled plan holds, packed per call into storage
  // that only grows; to_level saturates outside [-1, 1].
  panel_.pack(w, weight_quantizer_);
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
  nn::int8_gemm(panel_, xq.data(), batch, acc.data());

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
    return false;  // panel grid mismatch — interpret per-op (matmul re-quantizes)
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

    // The plan's immutable panel: quantized once at compile, never here.
    nn::int8_gemm(layer.panel, xq.data(), batch, acc.data());

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
  levels_.resize(w.size());  // the capacity only grows
  nn::to_levels(w.data().data(), w.size(), weight_quantizer_, levels_.data());
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
  nn::int8_gemm_transposed(levels_.data(), rows, cols, xq.data(), batch,
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

}  // namespace trident::core
