// Fault-injecting MatvecBackend decorator.
//
// ChaosBackend layers a FaultPlan over ANY inner backend — the plain
// PhotonicBackend, a FaultyBackend with its frozen stuck-cell masks, even
// the float reference — and perturbs the stream of linear-primitive calls
// exactly as the plan's schedule says: op k throws / stalls / corrupts,
// every other op passes through untouched.  It is the bridge between the
// device-lifetime fault models (core/faults.hpp) and the serving runtime's
// self-healing machinery: transient errors exercise the retry budget, NaN
// injections exercise the output scrub, kReplicaDeath exercises the
// supervisor restart path (via trident::HardwareFailure), and stalls
// exercise heartbeat/stall detection.
//
// Everything injected is counted once, in the shared InjectionLog: each
// applied fault bumps one of its atomics, and the trident_chaos_*_total
// counters are the log itself, read by the metrics registry at snapshot
// time.  A ChaosBackend built without a log counts nowhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "core/faults.hpp"
#include "core/photonic_backend.hpp"
#include "nn/mlp.hpp"
#include "serving/server.hpp"
#include "telemetry/metrics.hpp"

namespace trident::chaos {

/// Plain-value snapshot of what an injector (or a fleet of them sharing
/// one log) actually fired.
struct InjectionCounts {
  std::uint64_t transient_errors = 0;
  std::uint64_t nans = 0;
  std::uint64_t stuck_reads = 0;
  std::uint64_t stalls = 0;
  std::uint64_t deaths = 0;

  [[nodiscard]] std::uint64_t total() const {
    return transient_errors + nans + stuck_reads + stalls + deaths;
  }
  friend bool operator==(const InjectionCounts&,
                         const InjectionCounts&) = default;
};

/// Thread-safe injection ledger shared across every ChaosBackend of one
/// experiment (all replicas, all incarnations).  The metrics registry
/// collects it as the trident_chaos_*_total counters.
class InjectionLog {
 public:
  InjectionLog();
  InjectionLog(const InjectionLog&) = delete;
  InjectionLog& operator=(const InjectionLog&) = delete;

  void count(FaultKind kind);
  [[nodiscard]] InjectionCounts snapshot() const;

 private:
  std::atomic<std::uint64_t> transient_errors_{0};
  std::atomic<std::uint64_t> nans_{0};
  std::atomic<std::uint64_t> stuck_reads_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> deaths_{0};
  /// Last member: destroyed first, so its fold reads the counts above.
  telemetry::MetricsRegistry::CollectorHandle collector_;
};

class ChaosBackend final : public nn::MatvecBackend {
 public:
  /// Owning decorator: `inner` executes every op that the plan's
  /// (replica, incarnation) schedule does not perturb.
  ChaosBackend(std::unique_ptr<nn::MatvecBackend> inner,
               std::shared_ptr<const FaultPlan> plan, int replica,
               int incarnation, std::shared_ptr<InjectionLog> log = nullptr);

  [[nodiscard]] nn::Vector matvec(const nn::Matrix& w,
                                  const nn::Vector& x) override;
  [[nodiscard]] nn::Vector matvec_transposed(const nn::Matrix& w,
                                             const nn::Vector& x) override;
  void rank1_update(nn::Matrix& w, const nn::Vector& dh,
                    const nn::Vector& y_prev, double lr) override;
  [[nodiscard]] nn::Matrix matmul(const nn::Matrix& w,
                                  const nn::Matrix& x) override;
  [[nodiscard]] nn::Matrix matmul_transposed(const nn::Matrix& w,
                                             const nn::Matrix& x) override;
  void update_batch(nn::Matrix& w, const nn::Matrix& dh,
                    const nn::Matrix& y_prev, double lr) override;

  /// Linear-primitive calls executed (== the op index of the next call).
  [[nodiscard]] std::uint64_t ops() const { return op_; }
  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] nn::MatvecBackend& inner() { return *inner_; }

 private:
  /// Advances the op counter, applies stall/throw faults scheduled for
  /// this op, and reports whether the output must be corrupted.
  struct Perturbation {
    bool nan = false;
    bool stuck = false;
  };
  [[nodiscard]] Perturbation begin_op(bool has_output);
  void record(FaultKind kind);
  static void corrupt(double& cell, const Perturbation& p);

  std::unique_ptr<nn::MatvecBackend> inner_;
  std::shared_ptr<const FaultPlan> plan_;
  std::shared_ptr<InjectionLog> log_;
  std::vector<FaultEvent> events_;  ///< sorted schedule for this stream
  std::size_t cursor_ = 0;          ///< next unapplied event
  std::uint64_t op_ = 0;
};

/// BackendFactory wiring chaos over the stock PhotonicBackend: replica r,
/// incarnation i gets a ChaosBackend around PhotonicBackend(cfg) driven by
/// plan->schedule(r, i).  The inner photonic ledger stays reachable for
/// ServerStats aggregation.
[[nodiscard]] serving::BackendFactory chaos_photonic_factory(
    std::shared_ptr<const FaultPlan> plan,
    std::shared_ptr<InjectionLog> log = nullptr);

/// Chaos over degraded hardware: the inner backend is a FaultyBackend
/// (frozen stuck-cell masks at `faults.fault_rate`) whose own photonic
/// core uses the server-supplied per-incarnation config.  This is the
/// full edge-lifetime stack: dead cells below, transient chaos above.
[[nodiscard]] serving::BackendFactory chaos_faulty_factory(
    core::FaultConfig faults, std::shared_ptr<const FaultPlan> plan,
    std::shared_ptr<InjectionLog> log = nullptr);

}  // namespace trident::chaos
