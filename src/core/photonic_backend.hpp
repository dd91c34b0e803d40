// Photonic execution backend for the functional NN simulation.
//
// Implements nn::MatvecBackend with the behavioural constraints of the
// Trident hardware, without paying device-model cost per ring:
//
//   * weights live in GST cells → the bank holds level(w), the weight's
//     level on the configured grid (8 bits for GST, 6 for the thermal
//     ablation), and every pass multiplies by level · step; a weight
//     outside [-1, 1] saturates at the extreme level.  SGD updates smaller
//     than half an LSB are lost to rounding, which is exactly why the paper
//     says 6-bit hardware cannot train [34];
//   * inputs pass through the modulator DAC → input quantization: each
//     sample is scaled by max(1, max |x|) into range and the scale is
//     re-applied electronically after detection;
//   * the analog accumulation can carry additive read-out noise;
//   * non-volatility: programming is charged only when the bank contents
//     actually change (weight reuse between calls is free — the 0.67 W →
//     0.11 W effect), and each programming event costs one parallel
//     write-pulse time;
//   * energy/time books: writes, symbols, reads, activations.
#pragma once

#include <cstdint>
#include <string>

#include "common/quantize.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"

namespace trident::core {

struct PhotonicBackendConfig {
  int weight_bits = 8;        ///< GST levels → 8; thermal crosstalk → 6
  int input_bits = 8;         ///< modulator DAC resolution
  double readout_noise = 0.0; ///< relative additive noise on each output
  /// Stochastic rounding of programmed weights (programming jitter acts as
  /// dither; off = deterministic round-to-nearest level).
  bool stochastic_rounding = false;
  std::uint64_t seed = 0x7d3ull;
};

/// Energy/latency ledger of everything the backend executed.
struct PhotonicLedger {
  std::uint64_t weight_writes = 0;     ///< GST cells programmed
  std::uint64_t program_events = 0;    ///< parallel bank writes
  std::uint64_t symbols = 0;           ///< optical symbols streamed
  std::uint64_t macs = 0;              ///< ring read-outs
  std::uint64_t activations = 0;       ///< GST activation firing events

  [[nodiscard]] units::Energy energy() const;
  [[nodiscard]] units::Time time() const;

  /// Zeroes all counters (start of a measured phase).
  void reset() { *this = PhotonicLedger{}; }

  friend bool operator==(const PhotonicLedger&,
                         const PhotonicLedger&) = default;
};

namespace detail {
/// Mirrors a ledger delta into the process-wide trident_ledger_* telemetry
/// counters (no-op when telemetry is disabled).  Every backend that keeps a
/// PhotonicLedger must mirror through here with the exact amounts it just
/// added, so a metrics snapshot reconstructs the summed ledger of ALL
/// backends in the process bit-for-bit — the invariant
/// chaos::check_ledger_conservation audits.
void mirror_ledger_delta(const PhotonicLedger& delta);
}  // namespace detail

/// Per-phase attribution: `after - before` is the hardware bill of
/// whatever ran in between (forward vs backward, per epoch, …) without
/// manual counter snapshots.  `before` must be an earlier snapshot of the
/// same monotonic ledger.
[[nodiscard]] PhotonicLedger operator-(const PhotonicLedger& after,
                                       const PhotonicLedger& before);
/// Aggregation across backends (e.g. summing an 8-bit and a 6-bit run's
/// bills; energy()/time() are linear in the counters, so the sum's bill is
/// the bill of the sum).
[[nodiscard]] PhotonicLedger operator+(const PhotonicLedger& a,
                                       const PhotonicLedger& b);

class PhotonicBackend final : public nn::MatvecBackend {
 public:
  explicit PhotonicBackend(const PhotonicBackendConfig& config = {});

  [[nodiscard]] nn::Vector matvec(const nn::Matrix& w,
                                  const nn::Vector& x) override;
  [[nodiscard]] nn::Vector matvec_transposed(const nn::Matrix& w,
                                             const nn::Vector& x) override;
  void rank1_update(nn::Matrix& w, const nn::Vector& dh,
                    const nn::Vector& y_prev, double lr) override;

  /// Batched forward: quantizes the whole input block in one pass, charges
  /// the ledger once per block, packs level(w) into the backend's
  /// nn::PackedPanel and runs its kernel.  matvec is the same forward on a
  /// block of one, so outputs, noise draws, and ledger counters are
  /// bit-identical to a loop of per-sample matvec calls.
  [[nodiscard]] nn::Matrix matmul(const nn::Matrix& w,
                                  const nn::Matrix& x) override;
  /// Batched gradient-vector pass, loop-equivalent to matvec_transposed per
  /// sample (including one bank re-encode per sample — the hardware really
  /// does re-program Wᵀ for each gradient symbol pair, Table II).
  [[nodiscard]] nn::Matrix matmul_transposed(const nn::Matrix& w,
                                             const nn::Matrix& x) override;
  // update_batch intentionally keeps the base-class sequential loop: in-situ
  // GST programming quantizes after every sample, so the batched result is
  // defined BY the per-sample order.

  /// Fused plan execution: per layer, programs the plan's own weights,
  /// quantizes the block into the arena, multiplies through the plan's
  /// level panel (the kernel matmul runs), then applies noise/re-scale and
  /// the activation epilogue in place.  Outputs, RNG draws, and ledger
  /// counters are bit-identical to Mlp::forward_batch through matmul; the
  /// per-call packing is the only work removed.  Zero steady-state heap
  /// allocation.  Declines (returns false) a plan whose panels are on
  /// another grid than this backend's weights; Plan::run then interprets it
  /// per-op.
  bool run_plan(const nn::ExecutionPlan& plan, const nn::Matrix& x,
                nn::PlanArena& arena) override;

  [[nodiscard]] const PhotonicLedger& ledger() const { return ledger_; }
  [[nodiscard]] const PhotonicBackendConfig& config() const { return config_; }

  /// LSB of the stored-weight quantizer at unit scale.
  [[nodiscard]] double weight_lsb() const { return weight_quantizer_.step(); }

  // --- snapshot/restore hooks (state::Snapshot) --------------------------

  /// Serialised state of the hardware RNG (noise + stochastic rounding
  /// draws), so a resumed run replays the exact draw sequence.
  [[nodiscard]] std::string rng_state() const { return rng_.state(); }
  void restore_rng_state(const std::string& text) {
    rng_.restore_state(text);
  }

  /// Overwrites the ledger with a snapshotted one.  Deliberately NOT
  /// mirrored into telemetry: the metrics counters track operations this
  /// process executed, and restoring historical books must not re-count
  /// pulses a previous process already mirrored.
  void restore_ledger(const PhotonicLedger& ledger) { ledger_ = ledger; }

  /// Marks `w` as the matrix currently programmed into the bank, so the
  /// next forward through it skips the program burst (the physical cells
  /// kept their phase across the restart — non-volatility).
  void mark_resident(const nn::Matrix& w) { resident_matrix_ = &w; }
  [[nodiscard]] bool is_resident(const nn::Matrix& w) const {
    return resident_matrix_ == &w;
  }

 private:
  /// Charges programming for `w` unless it is still resident.
  void ensure_programmed(const nn::Matrix& w);
  /// Stochastically rounds a value onto the stored-weight grid (one RNG
  /// draw).
  [[nodiscard]] double stochastic_level(double v);
  /// The per-op forward behind matvec (a block of one) and matmul.
  [[nodiscard]] nn::Matrix forward(const nn::Matrix& w, const nn::Matrix& x);
  /// The per-op gradient pass behind matvec_transposed and
  /// matmul_transposed.
  [[nodiscard]] nn::Matrix transposed(const nn::Matrix& w,
                                      const nn::Matrix& x);
  /// level(w) · step on the weight grid, as doubles in snapped_.
  [[nodiscard]] const nn::Matrix& snap(const nn::Matrix& w);
  /// Read-out noise and the TIA re-scale of each sample b by scale[b].
  void read_out(nn::Matrix& y, const double* scale);

  PhotonicBackendConfig config_;
  SymmetricQuantizer weight_quantizer_;
  SymmetricQuantizer input_quantizer_;
  Rng rng_;
  PhotonicLedger ledger_;
  const void* resident_matrix_ = nullptr;
  // Per-op scratch that only grows; a backend is driven from one thread.
  nn::PackedPanel panel_;  ///< level(w) for the forward (grids ≤ 8 bits)
  nn::Matrix snapped_;     ///< level(w) · step: gradient passes, wide grids
};

}  // namespace trident::core
