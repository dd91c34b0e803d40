// Continuous-learning loop: shadow retraining + canary hot-swap, end to
// end and deterministic.
//
// Runs the virtual-time learning harness (see docs/learning.md): a real
// multi-replica serving::Server answers scripted traffic while the
// co-resident LearningPipeline retrains a shadow replica on the labelled
// feedback stream, publishes candidates through the canary stage, and
// promotes or rolls back on the accuracy/p99 gates.  The promote/rollback
// decision sequence is a pure function of (seed, scenario): two runs with
// the same TRIDENT_LEARNING_SEED (or --seed) write byte-identical decision
// logs — the learning-smoke CI job diffs them with cmp.
//
// Scenarios (--scenario):
//   drift    phase 1 shifts the class templates; the retrained candidate
//            must eventually be promoted (exit enforces >= 1 promote)
//   poison   feedback labels are flipped at 0.9; every candidate is
//            garbage and must be rolled back (exit enforces >= 1 rollback,
//            0 promotes, incumbent never displaced)
//   latency  canary-arm latencies are inflated 3x against a 1.5x p99
//            gate (exit enforces >= 1 rollback, 0 promotes)
//
// Every run additionally enforces the learning conservation laws and the
// bit-exactness audit (every response bit-identical to its stamped arm's
// reference forward).  With --metrics-out the exported trident_learning_*
// counters are the pipeline's own books, collected by the registry.
//
// Run:  ./build/examples/learn_loop --scenario drift --decision-log dl.txt
//       TRIDENT_LEARNING_SEED=0xBEEF ./build/examples/learn_loop
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "chaos/learning_invariants.hpp"
#include "common/cli.hpp"
#include "learning/harness.hpp"
#include "state/snapshot.hpp"
#include "telemetry/session.hpp"

int main(int argc, char** argv) {
  using namespace trident;
  const CliArgs args(argc, argv);
  telemetry::TelemetrySession telemetry_session(args);

  const std::string scenario =
      args.value("scenario").value_or(std::string("drift"));

  // Seed precedence: --seed beats TRIDENT_LEARNING_SEED beats the default.
  std::uint64_t seed = learning::learning_seed_from_env(0x5eedull);
  if (const auto s = args.value("seed"); s.has_value()) {
    seed = std::strtoull(s->c_str(), nullptr, 0);
  }

  learning::HarnessConfig cfg;
  cfg.seed = seed;
  cfg.features = 10;
  cfg.classes = 3;
  cfg.hidden = {12};
  cfg.round_size =
      static_cast<std::size_t>(args.value_int_positive("round-size", 16));
  cfg.incumbent_train_samples = 150;
  cfg.incumbent_epochs = 5;
  cfg.replicas = args.value_int_positive("replicas", 2);
  cfg.learning.pulse_threshold = 24;
  cfg.learning.max_pulse_samples = 96;
  cfg.learning.canary.traffic_percent = static_cast<std::uint32_t>(
      args.value_int_positive("canary-percent", 30));
  cfg.learning.canary.min_samples_per_arm = 10;
  cfg.publish_after_pulses = 2;
  if (const auto ckpt = args.value("checkpoint"); ckpt.has_value()) {
    cfg.learning.checkpoint_path = *ckpt;
    cfg.checkpoint_every_rounds = 2;
  }

  if (scenario == "drift") {
    cfg.phases = {
        learning::DriftPhase{4 * cfg.round_size, 1, 0.05, 0.0, 1.0},
        learning::DriftPhase{16 * cfg.round_size, 2, 0.05, 0.0, 1.0},
    };
  } else if (scenario == "poison") {
    cfg.learning.epochs_per_pulse = 3;
    cfg.publish_after_pulses = 5;
    cfg.phases = {
        learning::DriftPhase{20 * cfg.round_size, 1, 0.05, 0.9, 1.0},
    };
  } else if (scenario == "latency") {
    cfg.phases = {
        learning::DriftPhase{14 * cfg.round_size, 1, 0.05, 0.0, 3.0},
    };
  } else {
    std::cerr << "unknown --scenario '" << scenario
              << "' (drift | poison | latency)\n";
    return 2;
  }

  std::printf("learn_loop: scenario=%s seed=0x%llx rounds of %zu over %d "
              "replicas, canary %u%%\n",
              scenario.c_str(), static_cast<unsigned long long>(seed),
              cfg.round_size, cfg.replicas,
              cfg.learning.canary.traffic_percent);

  const learning::HarnessReport report = learning::run_learning_harness(cfg);

  // Decision log export (atomic write; byte-identical across same-seed
  // runs — the learning-smoke job cmp's two of these).
  if (const auto path = args.value("decision-log"); path.has_value()) {
    state::atomic_write_file(*path, report.decision_log);
  }

  std::printf("  rounds=%llu decisions=%zu promotes=%llu rollbacks=%llu "
              "canary/incumbent=%llu/%llu\n",
              static_cast<unsigned long long>(report.rounds),
              report.decisions.size(),
              static_cast<unsigned long long>(report.learning.promotes),
              static_cast<unsigned long long>(report.learning.rollbacks),
              static_cast<unsigned long long>(report.canary_responses),
              static_cast<unsigned long long>(report.incumbent_responses));
  std::printf("  trained=%llu pulses=%llu final_round_accuracy=%.3f "
              "trainer_energy=%.3g J\n",
              static_cast<unsigned long long>(report.learning.samples_trained),
              static_cast<unsigned long long>(report.learning.train_pulses),
              report.final_round_accuracy,
              report.learning.ledger.energy().J());
  std::fputs(report.decision_log.c_str(), stdout);

  // --- exit gate: invariants + scenario expectations ------------------------
  int failures = 0;
  auto fail = [&failures](const std::string& why) {
    std::cerr << "FAIL: " << why << "\n";
    ++failures;
  };

  if (report.bit_exact_mismatches != 0) {
    fail("bit-exactness audit: " +
         std::to_string(report.bit_exact_mismatches) +
         " responses did not match their stamped arm");
  }
  const chaos::InvariantReport inv =
      chaos::check_learning_conservation(report.learning);
  if (!inv.ok()) {
    fail("learning invariants:\n" + inv.to_string());
  }
  if (report.server.canary_starts != report.learning.canary_publications ||
      report.server.canary_promotes != report.learning.promotes ||
      report.server.canary_rollbacks != report.learning.rollbacks) {
    fail("server and pipeline canary books disagree");
  }
  if (scenario == "drift" && report.learning.promotes == 0) {
    fail("drift scenario finished without a promote");
  }
  if (scenario != "drift") {
    if (report.learning.rollbacks == 0) {
      fail(scenario + " scenario finished without a rollback");
    }
    if (report.learning.promotes != 0) {
      fail(scenario + " scenario promoted a regressed candidate");
    }
    if (report.server.weight_swaps != 0) {
      fail("rollback displaced the incumbent (weight_swaps != 0)");
    }
  }

  if (failures == 0) {
    std::puts("learn_loop: OK");
  }
  return failures == 0 ? 0 : 1;
}
