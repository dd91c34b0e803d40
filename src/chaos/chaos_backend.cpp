#include "chaos/chaos_backend.hpp"

#include <limits>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace trident::chaos {

InjectionLog::InjectionLog()
    : collector_(telemetry::MetricsRegistry::global().add_collector([this] {
        const InjectionCounts c = snapshot();
        return std::vector<telemetry::CounterSample>{
            {"trident_chaos_transient_errors_total",
             "injected retryable backend errors", c.transient_errors},
            {"trident_chaos_nan_injections_total",
             "injected NaN output corruptions", c.nans},
            {"trident_chaos_stuck_reads_total",
             "injected silent additive output corruptions", c.stuck_reads},
            {"trident_chaos_stalls_total", "injected backend stalls",
             c.stalls},
            {"trident_chaos_replica_deaths_total",
             "injected hardware-failure replica deaths", c.deaths},
        };
      })) {}

void InjectionLog::count(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransientError:
      transient_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kNanInjection:
      nans_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kStuckRead:
      stuck_reads_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kStall:
      stalls_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kReplicaDeath:
      deaths_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

InjectionCounts InjectionLog::snapshot() const {
  return {
      .transient_errors = transient_errors_.load(std::memory_order_relaxed),
      .nans = nans_.load(std::memory_order_relaxed),
      .stuck_reads = stuck_reads_.load(std::memory_order_relaxed),
      .stalls = stalls_.load(std::memory_order_relaxed),
      .deaths = deaths_.load(std::memory_order_relaxed),
  };
}

ChaosBackend::ChaosBackend(std::unique_ptr<nn::MatvecBackend> inner,
                           std::shared_ptr<const FaultPlan> plan, int replica,
                           int incarnation, std::shared_ptr<InjectionLog> log)
    : inner_(std::move(inner)),
      plan_(std::move(plan)),
      log_(std::move(log)),
      events_(plan_->schedule(replica, incarnation)) {
  TRIDENT_REQUIRE(inner_ != nullptr, "ChaosBackend needs an inner backend");
}

void ChaosBackend::record(FaultKind kind) {
  if (log_) {
    log_->count(kind);
  }
}

ChaosBackend::Perturbation ChaosBackend::begin_op(bool has_output) {
  const std::uint64_t op = op_++;
  Perturbation p;
  // Apply every event scheduled for this op, in schedule order.  Throwing
  // kinds consume the event *before* throwing so a retry of the same call
  // is a fresh op, not a replay of the fault.
  while (cursor_ < events_.size() && events_[cursor_].op == op) {
    const FaultEvent ev = events_[cursor_++];
    switch (ev.kind) {
      case FaultKind::kReplicaDeath:
        record(ev.kind);
        throw HardwareFailure("chaos: replica death at op " +
                              std::to_string(op));
      case FaultKind::kTransientError:
        record(ev.kind);
        throw Error("chaos: transient backend error at op " +
                    std::to_string(op));
      case FaultKind::kStall:
        record(ev.kind);
        std::this_thread::sleep_for(ev.stall);
        break;
      case FaultKind::kNanInjection:
        // Update primitives have no returned output to corrupt; the event
        // is skipped (not logged) so the log only counts applied faults.
        if (has_output) {
          record(ev.kind);
          p.nan = true;
        }
        break;
      case FaultKind::kStuckRead:
        if (has_output) {
          record(ev.kind);
          p.stuck = true;
        }
        break;
    }
  }
  return p;
}

void ChaosBackend::corrupt(double& cell, const Perturbation& p) {
  if (p.nan) {
    cell = std::numeric_limits<double>::quiet_NaN();
  } else if (p.stuck) {
    // A stuck high-conductance read: a bounded, silent additive bias the
    // invariant suite can detect as "finite but wrong".
    cell += 1.0;
  }
}

nn::Vector ChaosBackend::matvec(const nn::Matrix& w, const nn::Vector& x) {
  const Perturbation p = begin_op(/*has_output=*/true);
  nn::Vector y = inner_->matvec(w, x);
  if ((p.nan || p.stuck) && !y.empty()) {
    corrupt(y.front(), p);
  }
  return y;
}

nn::Vector ChaosBackend::matvec_transposed(const nn::Matrix& w,
                                           const nn::Vector& x) {
  const Perturbation p = begin_op(/*has_output=*/true);
  nn::Vector y = inner_->matvec_transposed(w, x);
  if ((p.nan || p.stuck) && !y.empty()) {
    corrupt(y.front(), p);
  }
  return y;
}

void ChaosBackend::rank1_update(nn::Matrix& w, const nn::Vector& dh,
                                const nn::Vector& y_prev, double lr) {
  (void)begin_op(/*has_output=*/false);
  inner_->rank1_update(w, dh, y_prev, lr);
}

nn::Matrix ChaosBackend::matmul(const nn::Matrix& w, const nn::Matrix& x) {
  const Perturbation p = begin_op(/*has_output=*/true);
  nn::Matrix y = inner_->matmul(w, x);
  if ((p.nan || p.stuck) && y.size() > 0) {
    corrupt(y.data()[0], p);
  }
  return y;
}

nn::Matrix ChaosBackend::matmul_transposed(const nn::Matrix& w,
                                           const nn::Matrix& x) {
  const Perturbation p = begin_op(/*has_output=*/true);
  nn::Matrix y = inner_->matmul_transposed(w, x);
  if ((p.nan || p.stuck) && y.size() > 0) {
    corrupt(y.data()[0], p);
  }
  return y;
}

void ChaosBackend::update_batch(nn::Matrix& w, const nn::Matrix& dh,
                                const nn::Matrix& y_prev, double lr) {
  (void)begin_op(/*has_output=*/false);
  inner_->update_batch(w, dh, y_prev, lr);
}

serving::BackendFactory chaos_photonic_factory(
    std::shared_ptr<const FaultPlan> plan, std::shared_ptr<InjectionLog> log) {
  TRIDENT_REQUIRE(plan != nullptr, "chaos factory needs a fault plan");
  return [plan = std::move(plan), log = std::move(log)](
             int replica, int incarnation,
             const core::PhotonicBackendConfig& cfg) -> serving::ReplicaBackend {
    auto inner = std::make_unique<core::PhotonicBackend>(cfg);
    core::PhotonicBackend* raw = inner.get();
    auto chaos = std::make_unique<ChaosBackend>(std::move(inner), plan,
                                                replica, incarnation, log);
    serving::ReplicaBackend rb;
    rb.backend = std::move(chaos);
    rb.ledger = [raw] { return raw->ledger(); };
    return rb;
  };
}

serving::BackendFactory chaos_faulty_factory(core::FaultConfig faults,
                                             std::shared_ptr<const FaultPlan> plan,
                                             std::shared_ptr<InjectionLog> log) {
  TRIDENT_REQUIRE(plan != nullptr, "chaos factory needs a fault plan");
  return [faults, plan = std::move(plan), log = std::move(log)](
             int replica, int incarnation,
             const core::PhotonicBackendConfig& cfg) -> serving::ReplicaBackend {
    core::FaultConfig per_replica = faults;
    per_replica.hardware = cfg;
    // Independent stuck-cell draw per (replica, incarnation): each physical
    // replacement board carries its own defect pattern.
    per_replica.seed = Rng(faults.seed)
                           .split(static_cast<std::uint64_t>(replica))
                           .split(static_cast<std::uint64_t>(incarnation))
                           .seed();
    auto inner = std::make_unique<core::FaultyBackend>(per_replica);
    core::FaultyBackend* raw = inner.get();
    auto chaos = std::make_unique<ChaosBackend>(std::move(inner), plan,
                                                replica, incarnation, log);
    serving::ReplicaBackend rb;
    rb.backend = std::move(chaos);
    rb.ledger = [raw] { return raw->ledger(); };
    return rb;
  };
}

}  // namespace trident::chaos
