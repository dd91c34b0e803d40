// Conservation-law checks for chaos experiments (header-only).
//
// A chaos soak is only a test if something falsifiable is asserted at the
// end.  These checkers encode the serving runtime's conservation laws —
// the properties that must hold for EVERY thread interleaving of a fault
// schedule, which is exactly what makes them the right assertions for a
// nondeterministically-interleaved soak:
//
//   * request conservation      submitted == accepted + shed
//                               accepted  == completed + failed   (drained)
//   * load-report agreement     the generator's own counts match the
//                               server's books
//   * energy books              the drained ledger equals the per-pulse
//                               trident_ledger_* counters
//   * queue bounds              depth never exceeds capacity plus the
//                               worst-case requeued in-flight batches
//
// Checkers return an InvariantReport instead of asserting, so one failed
// law does not hide the others and the soak can print every violation
// alongside the reproducing seed.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "serving/load_gen.hpp"
#include "serving/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::chaos {

/// Outcome of one invariant sweep: empty == all laws held.
struct InvariantReport {
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }

  /// One violation per line (empty string when ok). GTest-friendly:
  /// `EXPECT_TRUE(report.ok()) << report.to_string();`
  [[nodiscard]] std::string to_string() const {
    std::ostringstream out;
    for (const std::string& v : violations) {
      out << v << '\n';
    }
    return out.str();
  }

  void merge(const InvariantReport& other) {
    violations.insert(violations.end(), other.violations.begin(),
                      other.violations.end());
  }
};

namespace detail {

inline void expect_eq(InvariantReport& report, std::uint64_t lhs,
                      std::uint64_t rhs, const std::string& law) {
  if (lhs != rhs) {
    report.violations.push_back(law + ": " + std::to_string(lhs) +
                                " != " + std::to_string(rhs));
  }
}

inline void expect_le(InvariantReport& report, std::uint64_t lhs,
                      std::uint64_t rhs, const std::string& law) {
  if (lhs > rhs) {
    report.violations.push_back(law + ": " + std::to_string(lhs) + " > " +
                                std::to_string(rhs));
  }
}

}  // namespace detail

/// Request conservation on the server's own books.  `drained` selects the
/// strong post-drain form (every accepted request has a terminal response);
/// before drain only the weak inequalities can hold.
[[nodiscard]] inline InvariantReport check_server_conservation(
    const serving::ServerStats& stats, bool drained = true) {
  InvariantReport report;
  detail::expect_eq(report, stats.submitted, stats.accepted + stats.shed,
                    "submitted == accepted + shed");
  if (drained) {
    detail::expect_eq(report, stats.accepted, stats.completed + stats.failed,
                      "accepted == completed + failed (drained)");
  } else {
    detail::expect_le(report, stats.completed + stats.failed, stats.accepted,
                      "completed + failed <= accepted (serving)");
  }
  detail::expect_eq(report, stats.sojourn.count,
                    stats.completed,
                    "sojourn samples == completed (kOk responses only)");
  // Tier accounting: every completed response was dispatched on exactly one
  // tier (the fast/exact knob partitions completions, fallbacks included —
  // a fast request degraded to exact counts as an exact dispatch).
  detail::expect_eq(report,
                    stats.quantized_dispatches + stats.exact_dispatches,
                    stats.completed,
                    "quantized + exact dispatches == completed");
  // Arm accounting: the canary stage partitions completions the same way —
  // every response was served by exactly one weight set, even across
  // replica deaths mid-canary and promote/rollback transitions.
  detail::expect_eq(report,
                    stats.canary_dispatches + stats.incumbent_dispatches,
                    stats.completed,
                    "canary + incumbent dispatches == completed");
  // Canary lifecycle books: every canary started resolves to exactly one
  // promote or one rollback, unless it is the still-live one.
  detail::expect_eq(report, stats.canary_starts,
                    stats.canary_promotes + stats.canary_rollbacks +
                        (stats.canary_version != 0 ? 1u : 0u),
                    "canary starts == promotes + rollbacks + active");
  // Every promotion IS a hot_swap, so swaps can never undercount promotes.
  detail::expect_le(report, stats.canary_promotes, stats.weight_swaps,
                    "canary promotes <= weight swaps");
  return report;
}

/// The load generator's books must agree with the server's: nothing the
/// generator offered vanished between the two sets of counters.
[[nodiscard]] inline InvariantReport check_load_conservation(
    const serving::LoadReport& load, const serving::ServerStats& stats) {
  InvariantReport report;
  detail::expect_eq(report, static_cast<std::uint64_t>(load.offered),
                    static_cast<std::uint64_t>(load.accepted) +
                        static_cast<std::uint64_t>(load.shed),
                    "load: offered == accepted + shed");
  detail::expect_eq(report, static_cast<std::uint64_t>(load.offered),
                    stats.submitted, "load offered == server submitted");
  detail::expect_eq(report, static_cast<std::uint64_t>(load.accepted),
                    stats.accepted, "load accepted == server accepted");
  detail::expect_eq(report, static_cast<std::uint64_t>(load.shed), stats.shed,
                    "load shed == server shed");
  return report;
}

/// Energy-book conservation: the server's drained ledger must equal the
/// telemetry mirror of every pulse executed in-process.  This is the
/// "accepted == completed + failed" analogue for the energy books — the
/// restart fold (retired_ledger_) plus the live replica ledgers must
/// neither drop nor double-count a dead incarnation's pulses, and a
/// snapshot restore must not leak a previous process's bill into this
/// one's mirror.  Only meaningful when the registry was reset_values()'d
/// at experiment start and every PhotonicBackend that ran since belongs to
/// this server (the trident_ledger_* counters are process-global).  No-op
/// when telemetry is off.
[[nodiscard]] inline InvariantReport check_ledger_conservation(
    const serving::ServerStats& stats) {
  InvariantReport report;
  if (!telemetry::enabled()) {
    return report;
  }
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::global().snapshot();
  detail::expect_eq(report, stats.ledger.weight_writes,
                    snap.counter_value("trident_ledger_weight_writes_total"),
                    "ledger weight_writes == trident_ledger_weight_writes_total");
  detail::expect_eq(
      report, stats.ledger.program_events,
      snap.counter_value("trident_ledger_program_events_total"),
      "ledger program_events == trident_ledger_program_events_total");
  detail::expect_eq(report, stats.ledger.symbols,
                    snap.counter_value("trident_ledger_symbols_total"),
                    "ledger symbols == trident_ledger_symbols_total");
  detail::expect_eq(report, stats.ledger.macs,
                    snap.counter_value("trident_ledger_macs_total"),
                    "ledger macs == trident_ledger_macs_total");
  detail::expect_eq(report, stats.ledger.activations,
                    snap.counter_value("trident_ledger_activations_total"),
                    "ledger activations == trident_ledger_activations_total");
  return report;
}

/// Queue-side conservation and bounds.  Depth may transiently exceed
/// capacity by the requeued in-flight batches (one per replica), never
/// more.
[[nodiscard]] inline InvariantReport check_queue_bounds(
    const serving::Server& server) {
  InvariantReport report;
  const serving::ServerConfig& cfg = server.config();
  const std::uint64_t bound =
      cfg.admission.capacity +
      static_cast<std::uint64_t>(cfg.replicas) * cfg.max_batch;
  detail::expect_le(report, server.queue_depth(), bound,
                    "queue depth <= capacity + replicas * max_batch");
  return report;
}

/// The full post-drain sweep for a soak: every law in one report.
/// `ledger_books` additionally audits the energy books against the
/// per-pulse trident_ledger_* counters (only valid when the server's
/// backends are the only PhotonicBackends that ran since the registry
/// reset).
[[nodiscard]] inline InvariantReport check_soak(
    const serving::Server& server, const serving::ServerStats& stats,
    const serving::LoadReport* load = nullptr, bool ledger_books = false) {
  InvariantReport report = check_server_conservation(stats, /*drained=*/true);
  if (load != nullptr) {
    report.merge(check_load_conservation(*load, stats));
  }
  if (ledger_books) {
    report.merge(check_ledger_conservation(stats));
  }
  report.merge(check_queue_bounds(server));
  return report;
}

/// Fleet-wide request conservation across node churn.  The same laws as
/// check_server_conservation, lifted over the whole cluster: the front
/// door's books must balance, and must agree with the SUM of every node's
/// books — live nodes plus the folds of retired and dead ones.  This is
/// the property node death, drain-retire and autoscaling must not break:
/// a request accepted by a node that later died must still appear as
/// exactly one completion or one explicit failure.
[[nodiscard]] inline InvariantReport check_fleet_conservation(
    const fleet::FleetStats& stats, bool drained = true) {
  InvariantReport report;
  detail::expect_eq(report, stats.submitted, stats.accepted + stats.shed,
                    "fleet: submitted == accepted + shed");
  detail::expect_eq(report, stats.shed,
                    stats.shed_no_node + stats.shed_class + stats.shed_node,
                    "fleet: shed == no_node + class + node sheds");
  if (drained) {
    detail::expect_eq(report, stats.accepted, stats.completed + stats.failed,
                      "fleet: accepted == completed + failed (drained)");
    // Node-book agreement.  The fleet's hook-driven counters and the summed
    // node counters must be two views of the same events.  (Node-level
    // `submitted` is NOT compared: a submit refused by a draining corpse
    // increments the node's submitted without a matching node-side
    // accepted/shed — the fleet reroutes it — so only the terminal books
    // are comparable.)
    detail::expect_eq(report, stats.node_accepted, stats.accepted,
                      "fleet: sum(node accepted) == fleet accepted");
    detail::expect_eq(report, stats.node_completed, stats.completed,
                      "fleet: sum(node completed) == fleet completed");
    detail::expect_eq(report, stats.node_failed, stats.failed,
                      "fleet: sum(node failed) == fleet failed");
    detail::expect_eq(report, stats.node_shed, stats.shed_node,
                      "fleet: sum(node shed) == fleet node-admission sheds");
    detail::expect_eq(report, stats.sojourn.count, stats.completed,
                      "fleet: sojourn samples == completed");
  } else {
    detail::expect_le(report, stats.completed + stats.failed, stats.accepted,
                      "fleet: completed + failed <= accepted (serving)");
  }
  return report;
}

/// Per-tenant partition of the fleet books: every front-door event belongs
/// to exactly one tenant, so the tenant counters must sum back to the
/// fleet totals, and each tenant's own books must balance like a miniature
/// fleet.
[[nodiscard]] inline InvariantReport check_fleet_tenant_conservation(
    const std::vector<fleet::TenantStats>& tenants,
    const fleet::FleetStats& stats, bool drained = true) {
  InvariantReport report;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  for (const fleet::TenantStats& t : tenants) {
    submitted += t.submitted;
    accepted += t.accepted;
    shed += t.shed;
    completed += t.completed;
    failed += t.failed;
    detail::expect_eq(report, t.submitted, t.accepted + t.shed,
                      "tenant " + t.name + ": submitted == accepted + shed");
    if (drained) {
      detail::expect_eq(report, t.accepted, t.completed + t.failed,
                        "tenant " + t.name +
                            ": accepted == completed + failed (drained)");
      detail::expect_eq(report, t.sojourn.count, t.completed,
                        "tenant " + t.name + ": sojourn samples == completed");
    }
  }
  detail::expect_eq(report, submitted, stats.submitted,
                    "sum(tenant submitted) == fleet submitted");
  detail::expect_eq(report, accepted, stats.accepted,
                    "sum(tenant accepted) == fleet accepted");
  detail::expect_eq(report, shed, stats.shed,
                    "sum(tenant shed) == fleet shed");
  if (drained) {
    detail::expect_eq(report, completed, stats.completed,
                      "sum(tenant completed) == fleet completed");
    detail::expect_eq(report, failed, stats.failed,
                      "sum(tenant failed) == fleet failed");
  }
  return report;
}

/// Fleet energy-book conservation: the drained fleet ledger (live folds +
/// retired folds, across every node death and autoscale) must equal the
/// process-global trident_ledger_* mirror.  Same preconditions as
/// check_ledger_conservation — registry reset at experiment start, and the
/// fleet's backends are the only ones that ran since.  No-op when
/// telemetry is off.
[[nodiscard]] inline InvariantReport check_fleet_ledger_conservation(
    const fleet::FleetStats& stats) {
  InvariantReport report;
  if (!telemetry::enabled()) {
    return report;
  }
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::global().snapshot();
  detail::expect_eq(report, stats.ledger.weight_writes,
                    snap.counter_value("trident_ledger_weight_writes_total"),
                    "fleet ledger weight_writes == "
                    "trident_ledger_weight_writes_total");
  detail::expect_eq(report, stats.ledger.program_events,
                    snap.counter_value("trident_ledger_program_events_total"),
                    "fleet ledger program_events == "
                    "trident_ledger_program_events_total");
  detail::expect_eq(report, stats.ledger.symbols,
                    snap.counter_value("trident_ledger_symbols_total"),
                    "fleet ledger symbols == trident_ledger_symbols_total");
  detail::expect_eq(report, stats.ledger.macs,
                    snap.counter_value("trident_ledger_macs_total"),
                    "fleet ledger macs == trident_ledger_macs_total");
  detail::expect_eq(report, stats.ledger.activations,
                    snap.counter_value("trident_ledger_activations_total"),
                    "fleet ledger activations == "
                    "trident_ledger_activations_total");
  return report;
}

/// The full post-drain sweep for a fleet soak: request conservation,
/// tenant partition, and (opt-in, same caveat as check_soak) the
/// fleet-wide energy books.
[[nodiscard]] inline InvariantReport check_fleet_soak(
    const fleet::FleetStats& stats,
    const std::vector<fleet::TenantStats>& tenants,
    bool ledger_books = false) {
  InvariantReport report = check_fleet_conservation(stats, /*drained=*/true);
  report.merge(check_fleet_tenant_conservation(tenants, stats,
                                               /*drained=*/true));
  if (ledger_books) {
    report.merge(check_fleet_ledger_conservation(stats));
  }
  return report;
}

}  // namespace trident::chaos
