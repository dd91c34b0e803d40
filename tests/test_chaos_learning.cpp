// Chaos soaks for the continuous-learning loop: kill the shadow trainer
// mid-checkpoint, kill a serving replica mid-canary, and audit the full
// set of learning conservation laws afterwards (check_learning_soak) —
// feedback books balanced, canary lifecycle books balanced, energy ledger
// folded across every death, and no torn snapshot ever adopted.
//
// Reproduction contract matches test_chaos_serving: schedules derive from
// one printed seed (TRIDENT_CHAOS_SEED); assertions are conservation laws
// that must hold for ALL interleavings, never golden traces.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos_backend.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/learning_invariants.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/photonic_backend.hpp"
#include "learning/harness.hpp"
#include "learning/pipeline.hpp"
#include "nn/mlp.hpp"
#include "serving/server.hpp"
#include "state/snapshot.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::chaos {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kDefaultSoakSeed = 0x1EA25EEDull;

std::uint64_t soak_seed() {
  const char* env = std::getenv("TRIDENT_CHAOS_SEED");
  std::uint64_t seed = kDefaultSoakSeed;
  if (env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 0);
  }
  std::cout << "[ chaos ] TRIDENT_CHAOS_SEED=" << seed << " (0x" << std::hex
            << seed << std::dec << ") — rerun with this env var to reproduce"
            << std::endl;
  return seed;
}

void reset_telemetry() {
  telemetry::set_enabled(true);
  telemetry::MetricsRegistry::global().reset_values();
}

/// Unique-per-test scratch path for checkpoint files.
std::string scratch_path(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / "trident_chaos";
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

nn::Mlp test_model(std::uint64_t seed = 0x5eedu) {
  Rng rng(seed);
  return nn::Mlp({8, 16, 3}, nn::Activation::kGstPhotonic, rng);
}

learning::FeedbackSample feedback_sample(std::uint64_t id, std::uint64_t seed) {
  learning::FeedbackSample s;
  s.id = id;
  Rng rng(Rng(seed).split(id).seed());
  s.input = nn::Vector(8);
  for (double& v : s.input) {
    v = rng.uniform(-1.0, 1.0);
  }
  s.label = static_cast<int>(id % 3);
  return s;
}

// --- trainer killed mid-checkpoint ------------------------------------------

TEST(ChaosLearning, TrainerKilledMidCheckpointHealsFromPreviousSnapshot) {
  reset_telemetry();
  const std::uint64_t seed = soak_seed();
  const std::string ckpt = scratch_path(
      "learn_ckpt_" + std::to_string(seed) + ".snap");
  std::filesystem::remove(ckpt);

  const nn::Mlp model = test_model(seed);
  serving::ServerConfig sc;
  sc.replicas = 1;
  sc.admission.capacity = 256;
  serving::Server server(model, sc);

  learning::LearningConfig cfg;
  cfg.pulse_threshold = 8;
  cfg.max_pulse_samples = 16;
  cfg.feedback_capacity = 512;
  cfg.checkpoint_path = ckpt;
  // Checkpoint 0 succeeds (a complete image lands on disk); checkpoint
  // attempt 1 dies mid-write, BEFORE the atomic rename — the image from
  // attempt 0 must survive untouched and heal the restarted trainer.
  cfg.checkpoint_fault_hook = [](std::uint64_t ordinal) {
    if (ordinal == 1) {
      throw HardwareFailure("scripted mid-checkpoint kill");
    }
  };
  learning::LearningPipeline pipeline(server, model, cfg);

  // A little serving traffic so the soak audits real server books too.
  for (std::uint64_t i = 0; i < 24; ++i) {
    auto fut = server.submit(feedback_sample(i, seed).input);
    ASSERT_TRUE(fut.has_value());
    (void)fut->get();
  }

  std::uint64_t fed = 0;
  auto feed_pulse = [&] {
    for (std::uint64_t i = 0; i < cfg.pulse_threshold; ++i) {
      (void)pipeline.feed(feedback_sample(fed++, seed));
    }
  };

  feed_pulse();
  ASSERT_GT(pipeline.train_pulse(), 0u);
  ASSERT_TRUE(pipeline.checkpoint());  // ordinal 0: clean image on disk
  const nn::Mlp at_checkpoint = pipeline.shadow_model();

  feed_pulse();
  ASSERT_GT(pipeline.train_pulse(), 0u);  // shadow drifts past the image
  EXPECT_FALSE(pipeline.checkpoint());    // ordinal 1: killed mid-write

  // The kill was booked as a trainer death; the restarted incarnation
  // healed from the surviving snapshot — bit-identically the weights of
  // checkpoint 0, not the drifted in-memory shadow.
  learning::LearningStats stats = pipeline.stats();
  EXPECT_EQ(stats.checkpoint_failures, 1u);
  EXPECT_EQ(stats.trainer_deaths, 1u);
  EXPECT_EQ(stats.trainer_restarts, 1u);
  EXPECT_EQ(stats.checkpoint_restores, 1u);
  EXPECT_FALSE(pipeline.trainer_dead());
  const nn::Mlp healed = pipeline.shadow_model();
  ASSERT_EQ(healed.depth(), at_checkpoint.depth());
  for (int l = 0; l < healed.depth(); ++l) {
    EXPECT_EQ(healed.weight(l).data(), at_checkpoint.weight(l).data())
        << "healed layer " << l << " is not the checkpointed image";
  }

  // The healed trainer keeps training and checkpointing (ordinal 2 passes
  // the hook), and the bill of the dead incarnation stayed on the books.
  feed_pulse();
  EXPECT_GT(pipeline.train_pulse(), 0u);
  EXPECT_TRUE(pipeline.checkpoint());

  pipeline.feedback().close();
  server.drain();
  const InvariantReport report = check_learning_soak(
      server, server.stats(), pipeline.stats(), ckpt, /*ledger_books=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(pipeline.stats().ledger.weight_writes, 0u);
  std::filesystem::remove(ckpt);
}

TEST(ChaosLearning, TrainerDeathBudgetExhaustionStopsCleanly) {
  reset_telemetry();
  const std::uint64_t seed = soak_seed() ^ 0xDEADull;

  const nn::Mlp model = test_model(seed);
  serving::ServerConfig sc;
  sc.replicas = 1;
  sc.admission.capacity = 64;
  serving::Server server(model, sc);

  learning::LearningConfig cfg;
  cfg.pulse_threshold = 4;
  cfg.max_pulse_samples = 8;
  cfg.feedback_capacity = 256;
  cfg.max_trainer_restarts = 2;
  // Every trainer incarnation dies on its first op: the pipeline must burn
  // its restart budget, mark the trainer dead, and keep its books exact —
  // every consumed sample accounted as lost, every death's bill folded.
  cfg.trainer_factory = [](int incarnation,
                           const core::PhotonicBackendConfig& bc) {
    auto plan_cfg = FaultPlanConfig{};
    plan_cfg.deaths = {{0, 0}};
    auto plan = std::make_shared<FaultPlan>(
        plan_cfg, 0x0DDull + static_cast<std::uint64_t>(incarnation));
    auto inner = std::make_unique<core::PhotonicBackend>(bc);
    auto* ledger_src = inner.get();
    learning::TrainerBackend tb;
    // Every incarnation reuses scripted death (replica 0, incarnation 0).
    tb.backend = std::make_unique<ChaosBackend>(std::move(inner), plan,
                                                /*replica=*/0,
                                                /*incarnation=*/0);
    tb.ledger = [ledger_src] { return ledger_src->ledger(); };
    return tb;
  };
  learning::LearningPipeline pipeline(server, model, cfg);

  std::uint64_t fed = 0;
  for (int round = 0; round < 4 && !pipeline.trainer_dead(); ++round) {
    for (std::uint64_t i = 0; i < cfg.pulse_threshold; ++i) {
      (void)pipeline.feed(feedback_sample(fed++, seed));
    }
    (void)pipeline.train_pulse();
  }

  EXPECT_TRUE(pipeline.trainer_dead());
  learning::LearningStats stats = pipeline.stats();
  EXPECT_EQ(stats.trainer_deaths,
            static_cast<std::uint64_t>(cfg.max_trainer_restarts) + 1u);
  EXPECT_EQ(stats.trainer_restarts,
            static_cast<std::uint64_t>(cfg.max_trainer_restarts));
  EXPECT_EQ(stats.samples_trained, 0u);
  EXPECT_GT(stats.samples_lost, 0u);
  // A dead trainer refuses further pulses without corrupting the books.
  EXPECT_EQ(pipeline.train_pulse(), 0u);

  pipeline.feedback().close();
  server.drain();
  const InvariantReport report =
      check_learning_soak(server, server.stats(), pipeline.stats());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- serving replica killed mid-canary --------------------------------------

TEST(ChaosLearning, ReplicaKilledMidCanaryConservesArms) {
  reset_telemetry();
  const std::uint64_t seed = soak_seed() ^ 0xCA11ull;

  const nn::Mlp incumbent = test_model(seed);
  const nn::Mlp candidate = test_model(seed ^ 1u);

  // Replica 0's first incarnation dies mid-stream while a canary is live;
  // the supervisor restarts it and the fresh incarnation must re-adopt the
  // LIVE canary (not serve stale arms).  A background transient-error rate
  // keeps the retry path warm so requeued canary groups are exercised.
  FaultPlanConfig plan_cfg;
  plan_cfg.horizon_ops = 8192;
  plan_cfg.transient_error_rate = 0.01;
  plan_cfg.deaths = {{0, 40}};
  auto plan = std::make_shared<FaultPlan>(plan_cfg, seed);
  auto log = std::make_shared<InjectionLog>();

  serving::ServerConfig sc;
  sc.replicas = 2;
  sc.max_batch = 4;
  sc.admission.capacity = 512;
  sc.backend_factory = chaos_photonic_factory(plan, log);
  serving::Server server(incumbent, sc);

  learning::LearningConfig cfg;
  cfg.feedback_capacity = 512;
  cfg.canary.traffic_percent = 50;
  cfg.canary.min_samples_per_arm = 1;
  learning::LearningPipeline pipeline(server, incumbent, cfg);

  // Publish by hand (the pipeline publishes its shadow; here the scripted
  // candidate stands in for a retrained shadow).
  ASSERT_NE(server.canary_start(candidate, 50), 0u);

  std::uint64_t canary_seen = 0;
  for (std::uint64_t i = 0; i < 160; ++i) {
    auto fut = server.submit(feedback_sample(i, seed).input);
    ASSERT_TRUE(fut.has_value());
    const serving::Response resp = fut->get();
    EXPECT_EQ(resp.status, serving::ResponseStatus::kOk)
        << "self-healing must absorb the scripted death: " << resp.error;
    canary_seen += resp.canary ? 1u : 0u;
  }
  EXPECT_GT(canary_seen, 0u) << "canary arm never served";
  EXPECT_LT(canary_seen, 160u) << "incumbent arm never served";
  EXPECT_TRUE(server.canary_end(/*promote=*/false));

  pipeline.feedback().close();
  server.drain();
  const serving::ServerStats stats = server.stats();
  EXPECT_GE(stats.replica_restarts, 1u);
  EXPECT_EQ(log->snapshot().deaths, 1u);

  // The canary was published directly on the server (standing in for a
  // retrained shadow), so the pipeline is NOT the sole publisher here.
  const InvariantReport report =
      check_learning_soak(server, stats, pipeline.stats(), "",
                          /*ledger_books=*/false, /*sole_publisher=*/false);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- the end-to-end soak: harness + checkpoint kills over fixed seeds -------

TEST(ChaosLearning, HarnessSoakWithCheckpointKillsOverFixedSeeds) {
  // The deterministic harness run under checkpoint chaos: every 3rd
  // checkpoint attempt dies mid-write.  Across fixed seeds the full
  // learning-soak invariant sweep must stay green and the bit-exactness
  // audit must stay at zero — a trainer death never tears served weights.
  for (const std::uint64_t seed : {0x50A1ull, 0x50A2ull}) {
    reset_telemetry();
    const std::string ckpt = scratch_path(
        "learn_soak_" + std::to_string(seed) + ".snap");
    std::filesystem::remove(ckpt);

    learning::HarnessConfig cfg;
    cfg.seed = seed;
    cfg.features = 10;
    cfg.classes = 3;
    cfg.hidden = {12};
    cfg.round_size = 16;
    cfg.incumbent_train_samples = 120;
    cfg.incumbent_epochs = 4;
    cfg.replicas = 2;
    cfg.phases = {
        learning::DriftPhase{4 * cfg.round_size, 1, 0.05, 0.0, 1.0},
        learning::DriftPhase{10 * cfg.round_size, 2, 0.05, 0.0, 1.0},
    };
    cfg.learning.pulse_threshold = 24;
    cfg.learning.max_pulse_samples = 96;
    cfg.learning.canary.traffic_percent = 30;
    cfg.learning.canary.min_samples_per_arm = 10;
    cfg.publish_after_pulses = 2;
    cfg.checkpoint_every_rounds = 2;
    cfg.learning.checkpoint_path = ckpt;
    cfg.learning.checkpoint_fault_hook = [](std::uint64_t ordinal) {
      if (ordinal % 3 == 2) {
        throw HardwareFailure("scripted mid-checkpoint kill");
      }
    };

    const learning::HarnessReport report = learning::run_learning_harness(cfg);
    EXPECT_EQ(report.bit_exact_mismatches, 0u) << "seed=" << seed;
    EXPECT_GT(report.learning.checkpoints, 0u) << "seed=" << seed;
    EXPECT_GT(report.learning.checkpoint_failures, 0u) << "seed=" << seed;

    InvariantReport inv = check_learning_conservation(report.learning);
    inv.merge(check_checkpoint_integrity(ckpt, report.learning));
    EXPECT_TRUE(inv.ok()) << "seed=" << seed << "\n" << inv.to_string();
    // Sole publisher: server and pipeline tell the same canary story.
    EXPECT_EQ(report.server.canary_starts,
              report.learning.canary_publications)
        << "seed=" << seed;
    EXPECT_EQ(report.server.canary_promotes, report.learning.promotes);
    EXPECT_EQ(report.server.canary_rollbacks, report.learning.rollbacks);
    std::filesystem::remove(ckpt);
  }
}

}  // namespace
}  // namespace trident::chaos
