// Conservation-law checks for continuous-learning soaks (header-only).
//
// Extends chaos/invariants.hpp to the learning pipeline's books.  The laws
// a chaos soak over shadow retraining + canary hot-swap must not break,
// for ANY interleaving of trainer deaths, checkpoint kills, and serving
// replica deaths mid-canary:
//
//   * feedback conservation    offered  == enqueued + dropped
//                              enqueued == consumed + depth + discarded
//                              consumed == trained + lost
//   * canary lifecycle books   publications == promotes + rollbacks
//                                              + (active ? 1 : 0)
//                              and the server's own canary books agree
//   * never-torn checkpoint    whatever is on disk at the checkpoint path
//                              LOADS — a kill mid-checkpoint must leave
//                              the previous complete snapshot, never a
//                              torn one
//   * combined energy books    server ledger + trainer ledger equals the
//                              process-global trident_ledger_* mirror
#pragma once

#include <exception>

#include "chaos/invariants.hpp"
#include "learning/pipeline.hpp"
#include "state/snapshot.hpp"

namespace trident::chaos {

/// Feedback-stream + pulse + canary-lifecycle books of the pipeline.
[[nodiscard]] inline InvariantReport check_learning_conservation(
    const learning::LearningStats& stats) {
  InvariantReport report;
  detail::expect_eq(report, stats.offered, stats.enqueued + stats.dropped,
                    "learning: offered == enqueued + dropped");
  detail::expect_eq(
      report, stats.enqueued,
      stats.consumed + stats.queue_depth + stats.discarded,
      "learning: enqueued == consumed + depth + discarded");
  detail::expect_eq(report, stats.consumed,
                    stats.samples_trained + stats.samples_lost,
                    "learning: consumed == trained + lost");
  detail::expect_eq(report, stats.canary_publications,
                    stats.promotes + stats.rollbacks +
                        (stats.canary_active ? 1u : 0u),
                    "learning: publications == promotes + rollbacks + active");
  detail::expect_eq(report, stats.trainer_deaths,
                    stats.trainer_restarts +
                        (stats.trainer_restarts < stats.trainer_deaths ? 1u
                                                                       : 0u),
                    "learning: deaths == restarts (+1 if budget exhausted)");
  return report;
}

/// Combined energy books: serving ledger (drained) + trainer ledger must
/// equal the process-global trident_ledger_* mirror — no pulse of either
/// side dropped or double-counted across replica/trainer deaths.  Same
/// preconditions as check_ledger_conservation, lifted over both ledgers.
[[nodiscard]] inline InvariantReport check_combined_ledger_conservation(
    const serving::ServerStats& server,
    const learning::LearningStats& learning) {
  InvariantReport report;
  if (!telemetry::enabled()) {
    return report;
  }
  const core::PhotonicLedger total = server.ledger + learning.ledger;
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::global().snapshot();
  detail::expect_eq(report, total.weight_writes,
                    snap.counter_value("trident_ledger_weight_writes_total"),
                    "combined weight_writes == "
                    "trident_ledger_weight_writes_total");
  detail::expect_eq(report, total.program_events,
                    snap.counter_value("trident_ledger_program_events_total"),
                    "combined program_events == "
                    "trident_ledger_program_events_total");
  detail::expect_eq(report, total.symbols,
                    snap.counter_value("trident_ledger_symbols_total"),
                    "combined symbols == trident_ledger_symbols_total");
  detail::expect_eq(report, total.macs,
                    snap.counter_value("trident_ledger_macs_total"),
                    "combined macs == trident_ledger_macs_total");
  detail::expect_eq(report, total.activations,
                    snap.counter_value("trident_ledger_activations_total"),
                    "combined activations == trident_ledger_activations_total");
  return report;
}

/// Never-torn checkpoint: if the pipeline ever wrote (or tried to write) a
/// checkpoint, the file on disk must parse and checksum clean.  A kill
/// mid-checkpoint may only lose the LATEST attempt, never corrupt the
/// previous image — that is atomic_write_file's contract under test.
[[nodiscard]] inline InvariantReport check_checkpoint_integrity(
    const std::string& checkpoint_path,
    const learning::LearningStats& stats) {
  InvariantReport report;
  if (checkpoint_path.empty() || stats.checkpoints == 0) {
    return report;  // nothing was ever durably written
  }
  try {
    (void)state::Snapshot::load(checkpoint_path);
  } catch (const std::exception& e) {
    report.violations.push_back(
        "checkpoint at " + checkpoint_path +
        " failed to load (torn snapshot adopted?): " + e.what());
  }
  return report;
}

/// The full post-drain sweep for a learning soak: serving laws (canary
/// books included), learning books, checkpoint integrity, and (opt-in,
/// same caveat as check_soak) the combined energy books.  The server-side canary books must also agree with the
/// pipeline's view when the pipeline is the only publisher.
[[nodiscard]] inline InvariantReport check_learning_soak(
    const serving::Server& server, const serving::ServerStats& server_stats,
    const learning::LearningStats& learning_stats,
    const std::string& checkpoint_path = "", bool ledger_books = false,
    bool sole_publisher = true) {
  InvariantReport report =
      check_server_conservation(server_stats, /*drained=*/true);
  report.merge(check_queue_bounds(server));
  report.merge(check_learning_conservation(learning_stats));
  report.merge(check_checkpoint_integrity(checkpoint_path, learning_stats));
  if (sole_publisher) {
    detail::expect_eq(report, server_stats.canary_starts,
                      learning_stats.canary_publications,
                      "server canary starts == pipeline publications");
    detail::expect_eq(report, server_stats.canary_promotes,
                      learning_stats.promotes,
                      "server canary promotes == pipeline promotes");
    detail::expect_eq(report, server_stats.canary_rollbacks,
                      learning_stats.rollbacks,
                      "server canary rollbacks == pipeline rollbacks");
  }
  if (ledger_books) {
    report.merge(
        check_combined_ledger_conservation(server_stats, learning_stats));
  }
  return report;
}

}  // namespace trident::chaos
