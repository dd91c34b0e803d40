// Quantized int8 inference tier (the "fast" serving path).
//
// The photonic functional model quantizes every weight and input anyway —
// GST cells hold one of 255 levels, the modulator DAC is 8-bit — so a
// noise-free forward pass never needs double-precision device math: the
// whole computation collapses to integer level arithmetic plus one scale
// multiply per output.  QuantizedBackend ships that observation as a
// drop-in nn::MatvecBackend executed through the blocked multi-ISA int8
// GEMM kernels (src/nn/int8_gemm) with exact int32 accumulation.  Ledger
// accounting mirrors PhotonicBackend call for call — level reads, program
// events, symbol counts — so energy books and the chaos conservation
// invariants keep holding.
//
// Serving runs one forward: run_plan streams the level panels a compiled
// nn::ExecutionPlan holds — the same panels the photonic tier decodes.
// The per-op matmul entry points (training, tests, reference runs) pack
// the weights on every call, as PhotonicBackend::matmul does, so an
// in-place weight change is always seen.
//
// Error-bound contract: per layer, every output differs from the
// FloatBackend reference by at most `matmul_error_bound` — a closed-form
// function of the SymmetricQuantizer step sizes.  run_plan equals matmul
// layer by layer bit for bit, so the bound holds on the served path too.
#pragma once

#include <cstdint>
#include <vector>

#include "common/quantize.hpp"
#include "core/photonic_backend.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"

namespace trident::core {

struct QuantizedBackendConfig {
  int weight_bits = 8;  ///< GST level grid (must be ≤ 8 to pack into int8)
  int input_bits = 8;   ///< modulator DAC grid (must be ≤ 8)
};

/// int8 SIMD inference backend.  Deterministic (no noise model): it computes
/// exactly what a noise-free PhotonicBackend computes, up to one extra weight
/// quantization — see matmul_error_bound.  Like PhotonicBackend, an instance
/// is driven from a single thread (each serving replica owns one).
class QuantizedBackend final : public nn::MatvecBackend {
 public:
  explicit QuantizedBackend(const QuantizedBackendConfig& config = {});

  [[nodiscard]] nn::Vector matvec(const nn::Matrix& w,
                                  const nn::Vector& x) override;
  [[nodiscard]] nn::Vector matvec_transposed(const nn::Matrix& w,
                                             const nn::Vector& x) override;
  /// In-situ SGD step on the weight grid — same deterministic semantics as
  /// a noise-free PhotonicBackend (sub-LSB updates are lost).
  void rank1_update(nn::Matrix& w, const nn::Vector& dh,
                    const nn::Vector& y_prev, double lr) override;

  /// Batched forward through the blocked int8 GEMM.  Row b is bit-identical
  /// to matvec(w, x.row(b)): the int32 accumulation is exact (no rounding,
  /// no order sensitivity) and the per-sample scale multiplies identically.
  [[nodiscard]] nn::Matrix matmul(const nn::Matrix& w,
                                  const nn::Matrix& x) override;
  [[nodiscard]] nn::Matrix matmul_transposed(const nn::Matrix& w,
                                             const nn::Matrix& x) override;

  /// Fused plan execution: streams the plan's level panels through
  /// int8_gemm with arena-resident scratch and zero steady-state
  /// heap allocation.  Only taken when the plan's weight grid matches this
  /// backend's (otherwise the per-op interpreter runs, which quantizes at
  /// the right grid in matmul); outputs and ledger counters are
  /// bit-identical to Mlp::forward_batch through matmul either way.
  bool run_plan(const nn::ExecutionPlan& plan, const nn::Matrix& x,
                nn::PlanArena& arena) override;

  [[nodiscard]] const PhotonicLedger& ledger() const { return ledger_; }
  [[nodiscard]] const QuantizedBackendConfig& config() const {
    return config_;
  }
  [[nodiscard]] double weight_lsb() const { return weight_quantizer_.step(); }

  /// Closed-form bound on |fast − reference| for one output element of a
  /// matmul against a weight matrix with `cols` fan-in and entries in
  /// [-1, 1], where the per-sample DAC scale was `x_scale`:
  ///
  ///   x_scale · cols · (w_step/2 + x_step/2 + w_step·x_step/4 + 4·cols·ε)
  ///
  /// The first two terms are the quantizer rounding of weights and inputs,
  /// the third their cross term, the last the float accumulation slop of
  /// the double-precision reference (the int32 path is exact).  Also valid
  /// against a noise-free PhotonicBackend (which shares the input grid, so
  /// its distance is smaller).
  [[nodiscard]] double matmul_error_bound(std::size_t cols,
                                          double x_scale) const;

  // --- snapshot/serving hooks (parity with PhotonicBackend) ---------------
  void restore_ledger(const PhotonicLedger& ledger) { ledger_ = ledger; }
  void mark_resident(const nn::Matrix& w) {
    resident_matrix_ = static_cast<const void*>(&w);
  }
  [[nodiscard]] bool is_resident(const nn::Matrix& w) const {
    return resident_matrix_ == static_cast<const void*>(&w);
  }

 private:
  void ensure_programmed(const nn::Matrix& w);

  QuantizedBackendConfig config_;
  SymmetricQuantizer weight_quantizer_;
  SymmetricQuantizer input_quantizer_;
  PhotonicLedger ledger_;
  // Per-call weight levels; their storage only grows.
  nn::PackedPanel panel_;            ///< matmul's level panel
  std::vector<std::int8_t> levels_;  ///< matmul_transposed's, row-major
  const void* resident_matrix_ = nullptr;
};

}  // namespace trident::core
