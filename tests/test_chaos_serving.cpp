// Invariant-checked chaos soak tests: seeded fault injection against the
// multi-replica serving runtime, exercising self-healing end to end.
//
// Reproduction contract: every soak derives its fault schedule from ONE
// seed (TRIDENT_CHAOS_SEED in the environment, fixed default otherwise)
// and prints it.  Re-running with the printed seed regenerates the
// identical injection schedule; the thread interleaving around it still
// varies, which is why every assertion here is a conservation law that
// must hold for ALL interleavings rather than a golden trace.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos_backend.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "common/rng.hpp"
#include "core/photonic_backend.hpp"
#include "core/quantized_backend.hpp"
#include "nn/mlp.hpp"
#include "serving/flight_recorder.hpp"
#include "serving/load_gen.hpp"
#include "serving/server.hpp"
#include "state/snapshot.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::chaos {
namespace {

using namespace std::chrono_literals;
using serving::Clock;
using serving::ReplicaHealth;
using serving::ReplicaState;
using serving::Response;
using serving::ResponseStatus;
using serving::Server;
using serving::ServerConfig;
using serving::ServerStats;

constexpr std::uint64_t kDefaultSoakSeed = 0xC7A05EEDull;

/// Soak seed: TRIDENT_CHAOS_SEED from the environment (decimal or 0x-hex)
/// or the fixed default.  Printed so a CI failure is reproducible locally
/// with the exact same schedule.
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

nn::Mlp test_model(std::uint64_t seed = 0x5eedu) {
  Rng rng(seed);
  return nn::Mlp({8, 16, 4}, nn::Activation::kGstPhotonic, rng);
}

nn::Vector seeded_input(std::uint64_t seed) {
  Rng rng(seed);
  nn::Vector x(8);
  for (double& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }
  return x;
}

/// Fresh telemetry epoch for the energy-book checks: the per-pulse
/// trident_ledger_* counters are process-global and cumulative, so each
/// test zeroes them before its own server runs.
void reset_telemetry() {
  telemetry::set_enabled(true);
  telemetry::MetricsRegistry::global().reset_values();
}

// --- the acceptance soak ----------------------------------------------------

TEST(ChaosSoak, KilledReplicaSelfHealsUnderLoad) {
  reset_telemetry();
  const std::uint64_t seed = soak_seed();

  // Two replicas; replica 0's first incarnation is scripted to die on its
  // third backend call (mid-batch, mid-load).  A light background rate of
  // transient errors keeps the retry path warm on both replicas.
  FaultPlanConfig plan_cfg;
  plan_cfg.horizon_ops = 4096;
  plan_cfg.transient_error_rate = 0.01;
  plan_cfg.deaths = {{0, 2}};
  auto plan = std::make_shared<FaultPlan>(plan_cfg, seed);

  // Reproducibility half of the acceptance criterion: the same (seed,
  // config) yields the identical event schedule for every stream the soak
  // will consume.
  const FaultPlan replay(plan_cfg, seed);
  for (int replica = 0; replica < 2; ++replica) {
    for (int incarnation = 0; incarnation < 3; ++incarnation) {
      ASSERT_EQ(plan->schedule(replica, incarnation),
                replay.schedule(replica, incarnation))
          << "schedule not reproducible from the seed alone";
    }
  }

  auto log = std::make_shared<InjectionLog>();
  ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 8;
  cfg.max_wait = 200us;
  cfg.admission.capacity = 1024;
  cfg.max_attempts = 5;
  cfg.supervision_interval = 500us;
  cfg.backend_factory = chaos_photonic_factory(plan, log);
  Server server(test_model(), cfg);

  // Open-loop Poisson arrivals on a pre-drawn timeline, futures kept so
  // every response's attempt count is inspectable afterwards.
  constexpr int kRequests = 400;
  Rng arrivals(seed ^ 0x10ADull);
  std::vector<std::future<Response>> futures;
  futures.reserve(kRequests);
  const auto start = Clock::now();
  double t = 0.0;
  for (int i = 0; i < kRequests; ++i) {
    t += -std::log(1.0 - arrivals.uniform()) / 10'000.0;  // λ = 10k qps
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(t)));
    auto fut = server.submit(seeded_input(seed + static_cast<std::uint64_t>(i)));
    if (fut.has_value()) {
      futures.push_back(std::move(*fut));
    }
  }
  server.drain();

  // Every admitted request received a terminal response.
  std::uint64_t ok = 0, failed = 0, retried_responses = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready)
        << "an admitted request was left unanswered after drain";
    const Response r = f.get();
    ASSERT_LE(r.attempts, cfg.max_attempts);
    if (r.status == ResponseStatus::kOk) {
      ++ok;
      EXPECT_FALSE(r.output.empty());
    } else {
      ++failed;
      EXPECT_FALSE(r.error.empty());
    }
    if (r.attempts > 1) {
      ++retried_responses;
    }
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(static_cast<std::uint64_t>(futures.size()), stats.accepted);
  EXPECT_EQ(ok, stats.completed);
  EXPECT_EQ(failed, stats.failed);

  // The scripted kill fired exactly once, the supervisor healed it, and
  // the in-flight batch's members came back with attempts > 1.
  const InjectionCounts injected = log->snapshot();
  EXPECT_EQ(injected.deaths, 1u);
  EXPECT_EQ(stats.replica_deaths, 1u);
  EXPECT_GE(stats.replica_restarts, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(retried_responses, 1u) << "no response carried attempts > 1";

  // Replica 0 is back: health shows a later incarnation, nobody dead.
  const auto health = server.health();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_GE(health[0].incarnation, 1);
  for (const ReplicaHealth& h : health) {
    EXPECT_NE(h.state, ReplicaState::kDead);
  }

  // The full invariant sweep: request conservation and queue bounds.
  // Print the violations with the seed so the failure replays.
  const InvariantReport report = check_soak(server, stats);
  EXPECT_TRUE(report.ok()) << "invariants violated under seed " << seed
                           << ":\n"
                           << report.to_string();

  // Post-drain the hardware bill is aggregated across every incarnation,
  // including the dead one's partial work.
  EXPECT_GT(stats.ledger.macs, 0u);
}

TEST(ChaosSoak, PoissonLoadReportAgreesWithServerBooks) {
  reset_telemetry();
  const std::uint64_t seed = soak_seed();
  FaultPlanConfig plan_cfg;
  plan_cfg.transient_error_rate = 0.02;
  auto plan = std::make_shared<FaultPlan>(plan_cfg, seed);
  auto log = std::make_shared<InjectionLog>();

  ServerConfig cfg;
  cfg.replicas = 2;
  cfg.max_batch = 4;
  cfg.admission.capacity = 512;
  cfg.backend_factory = chaos_photonic_factory(plan, log);
  Server server(test_model(), cfg);

  serving::LoadGenConfig load;
  load.target_qps = 8'000.0;
  load.requests = 200;
  load.seed = seed;
  const serving::LoadReport report = serving::run_poisson_load(
      server, load, [&](int i) {
        return seeded_input(seed + static_cast<std::uint64_t>(i));
      });
  server.drain();

  const ServerStats stats = server.stats();
  const InvariantReport sweep = check_soak(server, stats, &report);
  EXPECT_TRUE(sweep.ok()) << "invariants violated under seed " << seed << ":\n"
                          << sweep.to_string();
}

// --- fast-tier chaos: ChaosBackend composed over the quantized tier ---------

TEST(ChaosSoak, FastTierChaosComposesAndKeepsEnergyBooksBalanced) {
  reset_telemetry();
  const std::uint64_t seed = soak_seed();

  // The int8 tier is just another MatvecBackend, so the chaos decorator
  // must compose over it unchanged: replica 0's quantized backend is
  // scripted to die mid-traffic, background transient errors and NaN
  // injections keep the fast retry/scrub paths warm, and at the end the
  // energy books — exact photonic ledgers PLUS the level-read bills of the
  // quantized tier, both mirrored into the same trident_ledger_* counters —
  // must balance to the last pulse.
  FaultPlanConfig plan_cfg;
  plan_cfg.horizon_ops = 4096;
  plan_cfg.transient_error_rate = 0.02;
  plan_cfg.nan_rate = 0.01;
  plan_cfg.deaths = {{0, 4}};
  auto plan = std::make_shared<FaultPlan>(plan_cfg, seed);
  auto log = std::make_shared<InjectionLog>();

  ServerConfig cfg;
  // One replica: every fast group runs on replica 0's chaos stream, so the
  // scripted op-4 kill fires on its third fast batch regardless of how the
  // OS schedules worker threads.
  cfg.replicas = 1;
  cfg.max_batch = 8;
  cfg.max_wait = 200us;
  cfg.admission.capacity = 1024;
  cfg.max_attempts = 5;
  cfg.supervision_interval = 500us;
  cfg.backend_factory =
      [plan, log](int replica, int incarnation,
                  const core::PhotonicBackendConfig& hw)
      -> serving::ReplicaBackend {
    serving::ReplicaBackend rb;
    auto exact = std::make_unique<core::PhotonicBackend>(hw);
    core::PhotonicBackend* exact_raw = exact.get();
    rb.backend = std::move(exact);
    rb.ledger = [exact_raw] { return exact_raw->ledger(); };
    auto fast = std::make_unique<core::QuantizedBackend>();
    core::QuantizedBackend* fast_raw = fast.get();
    rb.fast = std::make_unique<ChaosBackend>(std::move(fast), plan, replica,
                                             incarnation, log);
    rb.fast_ledger = [fast_raw] { return fast_raw->ledger(); };
    return rb;
  };
  Server server(test_model(), cfg);

  // Mostly fast-tier traffic (so the scripted fast-path kill lands), with
  // an exact share mixed into the same batches.
  constexpr int kRequests = 300;
  std::vector<std::future<Response>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    const serving::ServingTier tier = (i % 4 == 0)
                                          ? serving::ServingTier::kExact
                                          : serving::ServingTier::kFast;
    auto fut = server.submit(
        seeded_input(seed + static_cast<std::uint64_t>(i)), tier);
    if (fut.has_value()) {
      futures.push_back(std::move(*fut));
    }
  }
  // Let the supervisor heal the scripted kill before draining (drain
  // disables restarts); the backlog keeps the incarnation-1 worker busy.
  {
    const auto deadline = Clock::now() + 10s;
    while (Clock::now() < deadline && server.health()[0].incarnation < 1) {
      std::this_thread::yield();
    }
  }
  server.drain();

  std::uint64_t ok = 0, failed = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
    const Response r = f.get();
    if (r.status == ResponseStatus::kOk) {
      ++ok;
      // The NaN scrub must hold on the fast path too: no non-finite
      // output ever reaches a caller.
      for (double v : r.output) {
        EXPECT_TRUE(std::isfinite(v));
      }
    } else {
      ++failed;
    }
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(ok, stats.completed);
  EXPECT_EQ(failed, stats.failed);
  EXPECT_GT(stats.quantized_dispatches, 0u)
      << "no request was actually served by the quantized tier";
  EXPECT_EQ(stats.fast_fallbacks, 0u)
      << "every replica carries a fast tier; nothing may degrade";

  const InjectionCounts injected = log->snapshot();
  EXPECT_EQ(injected.deaths, 1u) << "scripted fast-path kill never fired";
  EXPECT_GE(stats.replica_deaths, 1u);
  EXPECT_GE(stats.replica_restarts, 1u);

  // Full sweep including the energy books (ledger_books=true): the fold of
  // exact + fast ledgers across live and dead incarnations must equal the
  // process-wide telemetry mirror exactly.
  const InvariantReport report = check_soak(server, stats, /*load=*/nullptr,
                                            /*ledger_books=*/true);
  EXPECT_TRUE(report.ok()) << "invariants violated under seed " << seed
                           << ":\n"
                           << report.to_string();
  EXPECT_GT(stats.ledger.macs, 0u);
}

// --- degraded modes ---------------------------------------------------------

TEST(ChaosServing, RetryBudgetExhaustionYieldsExplicitFailures) {
  // Every backend call fails: each request must burn exactly max_attempts
  // attempts and resolve as an explicit kFailed response — never a broken
  // future, never a silent drop.
  FaultPlanConfig plan_cfg;
  plan_cfg.transient_error_rate = 1.0;
  auto plan = std::make_shared<FaultPlan>(plan_cfg, 17);

  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 4;
  cfg.max_attempts = 3;
  cfg.backend_factory = chaos_photonic_factory(plan);
  Server server(test_model(), cfg);

  constexpr int kRequests = 12;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    auto fut = server.submit(seeded_input(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(fut.has_value());
    futures.push_back(std::move(*fut));
  }
  server.drain();

  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_EQ(r.status, ResponseStatus::kFailed);
    EXPECT_EQ(r.attempts, cfg.max_attempts);
    EXPECT_FALSE(r.error.empty());
    EXPECT_TRUE(r.output.empty());
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, static_cast<std::uint64_t>(kRequests));
  // Each request was requeued exactly max_attempts - 1 times.
  EXPECT_EQ(stats.retries,
            static_cast<std::uint64_t>(kRequests) *
                static_cast<std::uint64_t>(cfg.max_attempts - 1));
  const InvariantReport report = check_server_conservation(stats);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ChaosServing, AllReplicasDeadDrainFailsLeftoversExplicitly) {
  // The only replica dies on its first call and restarts are disabled:
  // drain() must still answer every admitted request (kFailed), keeping
  // the conservation law intact with zero completions.
  FaultPlanConfig plan_cfg;
  plan_cfg.deaths = {{0, 0}};
  auto plan = std::make_shared<FaultPlan>(plan_cfg, 23);
  auto log = std::make_shared<InjectionLog>();

  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 8;
  cfg.restart_dead_replicas = false;
  cfg.backend_factory = chaos_photonic_factory(plan, log);
  Server server(test_model(), cfg);

  constexpr int kRequests = 10;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    auto fut = server.submit(seeded_input(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(fut.has_value());
    futures.push_back(std::move(*fut));
  }
  server.drain();

  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_EQ(r.status, ResponseStatus::kFailed);
    EXPECT_LE(r.attempts, cfg.max_attempts);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.replica_deaths, 1u);
  EXPECT_EQ(stats.replica_restarts, 0u);
  EXPECT_EQ(log->snapshot().deaths, 1u);
  const InvariantReport report = check_server_conservation(stats);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ChaosServing, RestartBudgetExhaustionRetiresReplica) {
  // Scripted death plus zero restart budget: the replica dies once and is
  // retired, not resurrected.
  FaultPlanConfig plan_cfg;
  plan_cfg.deaths = {{0, 0}};
  auto plan = std::make_shared<FaultPlan>(plan_cfg, 29);

  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_restarts = 0;
  cfg.supervision_interval = 200us;
  cfg.backend_factory = chaos_photonic_factory(plan);
  Server server(test_model(), cfg);

  auto fut = server.submit(seeded_input(1));
  ASSERT_TRUE(fut.has_value());
  // The supervisor retires the dead replica while the server is live.
  const auto deadline = Clock::now() + 5s;
  while (Clock::now() < deadline) {
    const auto health = server.health();
    if (health[0].state == ReplicaState::kRetired) {
      break;
    }
    std::this_thread::yield();
  }
  EXPECT_EQ(server.health()[0].state, ReplicaState::kRetired);
  server.drain();
  const Response r = fut->get();
  EXPECT_EQ(r.status, ResponseStatus::kFailed);
  EXPECT_EQ(server.stats().replica_restarts, 0u);
}

TEST(ChaosServing, AdmissionBlipsAreSeededAndCounted) {
  // A seeded admission blip sheds a deterministic subset of submissions
  // before they reach the queue; conservation must fold them into `shed`.
  const std::uint64_t seed = 31;
  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.admission_blip = [seed](std::uint64_t index) {
    return Rng(seed).split(index).uniform() < 0.3;
  };
  Server server(test_model(), cfg);

  constexpr int kRequests = 50;
  int accepted = 0, shed = 0;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    auto fut = server.submit(seeded_input(static_cast<std::uint64_t>(i)));
    if (fut.has_value()) {
      ++accepted;
      futures.push_back(std::move(*fut));
    } else {
      ++shed;
    }
  }
  server.drain();
  EXPECT_GT(shed, 0);
  EXPECT_GT(accepted, 0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(accepted));
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, ResponseStatus::kOk);
  }
  const InvariantReport report = check_server_conservation(stats);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // Seeded: the same blip function sheds the same submission indices.
  int shed_replay = 0;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(kRequests); ++i) {
    if (Rng(seed).split(i).uniform() < 0.3) {
      ++shed_replay;
    }
  }
  EXPECT_EQ(shed_replay, shed);
}

// --- crash-safe restore (PR-5): heal from the last snapshot ----------------

/// Exact output a healthy replica must serve for `model` (noise-free
/// hardware, so independent of batching).  Bills a throwaway backend —
/// call it BEFORE reset_telemetry() or ledger conservation breaks.
nn::Vector reference_output(const nn::Mlp& model, const nn::Vector& x) {
  core::PhotonicBackend backend;
  return model.forward(x, backend).activations.back();
}

/// Unique snapshot path under the system temp dir; caller removes it.
std::string snapshot_path_for(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("trident_chaos_" + name + ".tsnap"))
      .string();
}

/// Serially probes the server until replica 0 reports a later incarnation
/// (i.e. the scripted kill fired and the supervisor healed it).  Every
/// response along the way must be bit-exactly one of `allowed` — a torn
/// restore would produce a third value.  Returns false on timeout.
bool probe_until_healed(Server& server, const nn::Vector& probe,
                        const std::vector<nn::Vector>& allowed) {
  const auto deadline = Clock::now() + 10s;
  while (Clock::now() < deadline) {
    auto fut = server.submit(probe);
    if (fut.has_value()) {
      const Response r = fut->get();
      if (r.status == ResponseStatus::kOk) {
        bool matched = false;
        for (const nn::Vector& want : allowed) {
          matched = matched || r.output == want;
        }
        EXPECT_TRUE(matched) << "served output matches no known weight set";
      }
    }
    if (server.health()[0].incarnation >= 1) {
      return true;
    }
  }
  return false;
}

TEST(ChaosRestore, HealedReplicaServesSnapshotWeightsBitIdentical) {
  const nn::Mlp model = test_model(0x7341u);
  const nn::Vector probe = seeded_input(0xBEEFu);
  const nn::Vector expected = reference_output(model, probe);
  reset_telemetry();

  // The last checkpoint on disk carries the serving weights themselves:
  // after the kill, the healed replica must reload them and serve
  // BIT-IDENTICAL predictions — crash-safety down to the last ulp.
  const std::string snap_path = snapshot_path_for("heal_bitident");
  state::Snapshot snap;
  snap.model = state::capture_model(model);
  snap.save(snap_path);

  FaultPlanConfig plan_cfg;
  plan_cfg.horizon_ops = 4096;
  plan_cfg.deaths = {{0, 9}};  // die mid-traffic on the 10th backend op
  auto plan = std::make_shared<FaultPlan>(plan_cfg, 0x9E41u);
  auto log = std::make_shared<InjectionLog>();

  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 4;
  cfg.max_wait = 200us;
  cfg.supervision_interval = 200us;
  cfg.snapshot_path = snap_path;
  cfg.backend_factory = chaos_photonic_factory(plan, log);
  Server server(model, cfg);

  // Pre-kill reference response from incarnation 0.
  auto first = server.submit(probe);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->get().output, expected);

  ASSERT_TRUE(probe_until_healed(server, probe, {expected}))
      << "scripted kill never healed";

  // Post-heal: the restored replica serves the snapshot weights exactly.
  auto after = server.submit(probe);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->get().output, expected)
      << "healed replica's predictions differ from the snapshot weights";
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.replica_deaths, 1u);
  EXPECT_GE(stats.replica_restarts, 1u);
  EXPECT_EQ(stats.snapshot_restores, stats.replica_restarts)
      << "every heal must have gone through the snapshot";
  EXPECT_EQ(stats.snapshot_restore_failures, 0u);

  // Full sweep including the energy books: the dead incarnation's pulses
  // are folded exactly once, and the restore billed nothing phantom.
  const InvariantReport report = check_soak(server, stats, /*load=*/nullptr,
                                            /*ledger_books=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
  std::filesystem::remove(snap_path);
}

TEST(ChaosRestore, HealedReplicaServesTrainedWeightsNotInitSeed) {
  // The scenario the whole subsystem exists for: the process trained the
  // model (snapshot on disk), then a replica dies.  Before this PR the
  // heal path cloned the server's construction-time weights — the init
  // seed — silently discarding the training.  Now it must come back
  // serving the TRAINED weights.
  const nn::Mlp init_model = test_model(0x5eedu);
  const nn::Mlp trained_model = test_model(0x774A17u);  // stand-in "trained"
  const nn::Vector probe = seeded_input(0xCAFEu);
  const nn::Vector expected_init = reference_output(init_model, probe);
  const nn::Vector expected_trained = reference_output(trained_model, probe);
  ASSERT_NE(expected_init, expected_trained);
  reset_telemetry();

  const std::string snap_path = snapshot_path_for("heal_trained");
  state::Snapshot snap;
  snap.model = state::capture_model(trained_model);
  snap.save(snap_path);

  FaultPlanConfig plan_cfg;
  plan_cfg.horizon_ops = 4096;
  plan_cfg.deaths = {{0, 9}};
  auto plan = std::make_shared<FaultPlan>(plan_cfg, 0x9E42u);
  auto log = std::make_shared<InjectionLog>();

  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 4;
  cfg.max_wait = 200us;
  cfg.supervision_interval = 200us;
  cfg.snapshot_path = snap_path;
  cfg.backend_factory = chaos_photonic_factory(plan, log);
  Server server(init_model, cfg);

  auto first = server.submit(probe);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->get().output, expected_init);

  ASSERT_TRUE(probe_until_healed(server, probe,
                                 {expected_init, expected_trained}))
      << "scripted kill never healed";

  auto after = server.submit(probe);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->get().output, expected_trained)
      << "healed replica serves the init seed, not the trained snapshot";
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.snapshot_restores, 1u);
  EXPECT_EQ(stats.snapshot_restore_failures, 0u);
  const InvariantReport report = check_soak(server, stats, /*load=*/nullptr,
                                            /*ledger_books=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
  std::filesystem::remove(snap_path);
}

TEST(ChaosRestore, CorruptSnapshotDegradesToPublishedWeights) {
  // Availability beats fidelity: a heal must never be refused because the
  // checkpoint is unreadable.  The replica falls back to the published
  // weights and the degradation is counted, not hidden.
  const nn::Mlp model = test_model(0x5eedu);
  const nn::Vector probe = seeded_input(0xD00Du);
  const nn::Vector expected = reference_output(model, probe);
  reset_telemetry();

  const std::string snap_path = snapshot_path_for("heal_corrupt");
  {
    std::ofstream out(snap_path, std::ios::binary);
    out << "TRIDSNAPgarbage-that-fails-the-checksum";
  }

  FaultPlanConfig plan_cfg;
  plan_cfg.horizon_ops = 4096;
  plan_cfg.deaths = {{0, 9}};
  auto plan = std::make_shared<FaultPlan>(plan_cfg, 0x9E43u);
  auto log = std::make_shared<InjectionLog>();

  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 4;
  cfg.max_wait = 200us;
  cfg.supervision_interval = 200us;
  cfg.snapshot_path = snap_path;
  cfg.backend_factory = chaos_photonic_factory(plan, log);
  Server server(model, cfg);

  ASSERT_TRUE(probe_until_healed(server, probe, {expected}))
      << "scripted kill never healed";
  auto after = server.submit(probe);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->get().output, expected);
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.replica_restarts, 1u);
  EXPECT_EQ(stats.snapshot_restores, 0u);
  EXPECT_EQ(stats.snapshot_restore_failures, stats.replica_restarts);
  const InvariantReport report = check_soak(server, stats, /*load=*/nullptr,
                                            /*ledger_books=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
  std::filesystem::remove(snap_path);
}

// --- flight-recorder postmortem (observability acceptance) ------------------

/// One deterministic kill-and-heal pass: a single replica whose first
/// incarnation is scripted to die at op 4 (the third single-request
/// batch's first matmul), driven by sequential submit-and-wait so the
/// batch contents — and therefore the fault plan's op stream — are
/// identical run to run.  Returns the bytes of the exit flight dump.
std::string deterministic_soak_dump(const std::string& dump_path,
                                    std::uint64_t seed) {
  FaultPlanConfig plan_cfg;
  plan_cfg.horizon_ops = 4096;
  plan_cfg.deaths = {{0, 4}};
  auto plan = std::make_shared<FaultPlan>(plan_cfg, seed);
  auto log = std::make_shared<InjectionLog>();

  ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 1;  // one request per batch: deterministic op stream
  cfg.max_wait = 200us;
  cfg.max_attempts = 5;
  cfg.supervision_interval = 200us;
  cfg.backend_factory = chaos_photonic_factory(plan, log);
  cfg.flight.enabled = true;
  cfg.flight.sample_every = 1;
  cfg.flight.deterministic = true;
  cfg.flight.dump_path = dump_path;
  Server server(test_model(), cfg);

  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    auto fut =
        server.submit(seeded_input(seed + static_cast<std::uint64_t>(i)));
    EXPECT_TRUE(fut.has_value());
    if (fut.has_value()) {
      // Waiting on each response before the next submit is what pins the
      // schedule: one request in flight at a time, ids in program order,
      // and the scripted kill lands on the same request every run.
      const Response r = fut->get();
      EXPECT_EQ(r.status, ResponseStatus::kOk);
    }
  }
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.replica_deaths, 1u);
  EXPECT_GE(stats.replica_restarts, 1u);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(log->snapshot().deaths, 1u);

  std::ifstream in(dump_path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "drain wrote no flight dump at " << dump_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ChaosSoak, FlightDumpCapturesKillAndHealByteForByte) {
  reset_telemetry();
  const std::uint64_t seed = soak_seed();
  const std::string path_a =
      (std::filesystem::temp_directory_path() / "trident_flight_a.json")
          .string();
  const std::string path_b =
      (std::filesystem::temp_directory_path() / "trident_flight_b.json")
          .string();

  const std::string dump_a = deterministic_soak_dump(path_a, seed);
  const std::string dump_b = deterministic_soak_dump(path_b, seed);
  ASSERT_FALSE(dump_a.empty());
  // Reproducibility: the same seed regenerates the postmortem byte for
  // byte (deterministic mode drops wall-clock timings and orders records
  // by trace id; the kill schedule and request ids are seed-pinned).
  EXPECT_EQ(dump_a, dump_b)
      << "flight dump is not reproducible from seed " << seed;

  // The artifact is atomic + checksummed, and shows the full causal story:
  // the request that was on the dying incarnation carries a retry edge
  // hopping from incarnation 0 to incarnation 1.
  const serving::FlightDumpInfo info =
      serving::FlightRecorder::verify(dump_a);
  EXPECT_NE(info.payload.find("\"reason\":\"exit\""), std::string::npos);
  EXPECT_NE(info.payload.find("\"deterministic\":true"), std::string::npos);
  EXPECT_NE(info.payload.find("\"keep\":\"retried\""), std::string::npos);
  EXPECT_NE(info.payload.find("\"attempts\":2"), std::string::npos);
  EXPECT_NE(info.payload.find("\"incarnation\":0"), std::string::npos);
  EXPECT_NE(info.payload.find("\"incarnation\":1"), std::string::npos);
  EXPECT_NE(info.payload.find("replica death"), std::string::npos);

  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
}

}  // namespace
}  // namespace trident::chaos
