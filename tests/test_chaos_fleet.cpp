// Fleet chaos soak: scripted whole-node death, a partitioned router view
// that keeps placing onto the corpse until its heartbeat expires, and the
// fleet-wide conservation sweep (request books, tenant partition, energy
// ledger) across the churn.
//
// Reproduction contract: as in test_chaos_serving, the fault schedule
// derives from ONE seed (TRIDENT_CHAOS_SEED, fixed default otherwise),
// printed at the start of every soak.  The router/ring topology is pure
// arithmetic (no seed at all), so tenant→node ownership is identical in
// every run; only the background fault draws vary with the seed, and
// every assertion is a conservation law that holds for all of them.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos_backend.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "nn/mlp.hpp"
#include "serving/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::chaos {
namespace {

using namespace std::chrono_literals;
using fleet::ConsistentHashRing;
using fleet::Fleet;
using fleet::FleetConfig;
using fleet::FleetStats;
using fleet::TenantClass;
using fleet::TenantStats;
using serving::Response;

constexpr std::uint64_t kDefaultSoakSeed = 0xF1EE75EEDull;
constexpr int kNodes = 3;
constexpr int kVictim = 1;  ///< the node scripted to die

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

void reset_telemetry() {
  telemetry::set_enabled(true);
  telemetry::MetricsRegistry::global().reset_values();
}

/// Tenant names chosen deterministically so every node owns the same
/// number: the fleet's ring is pure arithmetic over (node id, vnodes), so
/// we can precompute ownership with an identical standalone ring and keep
/// generating candidate names until each node has `per_node` tenants.
/// This guarantees the victim node carries traffic — its scripted death
/// actually fires — independent of the chaos seed.
std::vector<std::string> balanced_tenants(int vnodes, int per_node) {
  ConsistentHashRing ring(vnodes);
  for (int n = 0; n < kNodes; ++n) {
    ring.add_node(n);
  }
  std::vector<int> owned(kNodes, 0);
  std::vector<std::string> names;
  for (int i = 0; static_cast<int>(names.size()) < kNodes * per_node; ++i) {
    const std::string name = "tenant-" + std::to_string(i);
    const int owner = ring.route(ConsistentHashRing::key_of(name));
    if (owner >= 0 && owned[static_cast<std::size_t>(owner)] < per_node) {
      ++owned[static_cast<std::size_t>(owner)];
      names.push_back(name);
    }
  }
  return names;
}

// --- the acceptance soak ----------------------------------------------------

TEST(ChaosFleetSoak, NodeDeathUnderRouterPartitionKeepsBooksBalanced) {
  reset_telemetry();
  const std::uint64_t seed = soak_seed();

  // The victim node's only replica is scripted to die early (op 10 of
  // incarnation 0); with replica restarts disabled that one replica death
  // IS a whole-node death.  The survivors run a light background rate of
  // transient errors to keep the retry path warm.
  auto log = std::make_shared<InjectionLog>();
  FaultPlanConfig victim_cfg;
  victim_cfg.deaths = {{0, 10}};
  FaultPlanConfig benign_cfg;
  benign_cfg.transient_error_rate = 0.01;
  auto victim_plan = std::make_shared<FaultPlan>(victim_cfg, seed);
  auto benign_plan = std::make_shared<FaultPlan>(benign_cfg, seed);

  FleetConfig cfg;
  cfg.initial_nodes = kNodes;
  cfg.min_nodes = 1;
  cfg.max_nodes = kNodes;
  cfg.node.replicas = 1;
  cfg.node.restart_dead_replicas = false;
  cfg.node.max_batch = 4;
  cfg.node.max_wait = 200us;
  cfg.node.max_attempts = 3;
  cfg.node.admission.capacity = 512;
  cfg.node.supervision_interval = 500us;
  cfg.router.heartbeat_timeout_s = 1.0;
  cfg.node_backend_factory = [&](int node_id) {
    return chaos_photonic_factory(
        node_id == kVictim ? victim_plan : benign_plan, log);
  };
  Fleet fleet(test_model(), cfg);

  const std::vector<std::string> tenants =
      balanced_tenants(cfg.router.vnodes, /*per_node=*/3);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    (void)fleet.register_tenant(
        {.name = tenants[i],
         .klass = i % 2 == 0 ? TenantClass::kGold : TenantClass::kBronze});
  }

  std::vector<std::future<Response>> futures;
  std::uint64_t shed = 0;
  std::uint64_t next_input = 0;
  const auto submit_round_robin = [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto fut = fleet.submit(tenants[next_input % tenants.size()],
                              seeded_input(seed + next_input));
      ++next_input;
      if (fut.has_value()) {
        futures.push_back(std::move(*fut));
      } else {
        ++shed;
      }
    }
  };

  // Phase 1 — healthy traffic.  ~1/3 lands on the victim, whose backend
  // dies at op 10; its queued leftovers fail at fold time.
  double t = 0.0;
  for (int round = 0; round < 10; ++round) {
    submit_round_robin(12);
    t += 0.05;
    fleet.tick(t);
  }

  // Phase 2 — partition the router, then wait for the fleet to notice the
  // whole-node death.  Virtual time creeps (well inside the heartbeat
  // timeout) while wall time lets the node's supervisor observe the dead
  // replica.
  fleet.router().set_partitioned(true);
  const auto wall_deadline = std::chrono::steady_clock::now() + 10s;
  while (fleet.stats().node_deaths == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), wall_deadline)
        << "scripted node death was never detected (seed " << seed << ")";
    std::this_thread::sleep_for(1ms);
    t += 0.001;
    fleet.tick(t);
  }
  ASSERT_EQ(fleet.stats().node_deaths, 1u);
  ASSERT_EQ(fleet.live_nodes(), kNodes - 1);

  // Phase 3 — the chaos window: the corpse is still on the ring (its
  // heartbeat has not expired) and the partitioned view still calls it
  // fresh, so placements keep landing on it.  Its server is retired, so
  // each such submit reroutes once to a live node.
  submit_round_robin(3 * static_cast<int>(tenants.size()));
  const FleetStats mid = fleet.stats();
  EXPECT_GE(mid.reroutes, 1u)
      << "no traffic was placed onto the corpse during the partition window";

  // Phase 4 — stale fallback: virtual time jumps past the heartbeat
  // timeout.  Every view in the frozen router is now expired, so the hash
  // walk finds nobody fresh and the partitioned router falls back to the
  // stale owner.  (The same tick expires the corpse off the ring; the
  // stale placements that follow land on stale-but-alive survivors.)
  t += 2.0 * cfg.router.heartbeat_timeout_s;
  fleet.tick(t);
  submit_round_robin(2 * static_cast<int>(tenants.size()));
  EXPECT_GE(fleet.stats().router.stale_placements, 1u)
      << "the partitioned router never served from its stale view";

  // Phase 5 — heal: heartbeats flow again, placements go back to normal.
  fleet.router().set_partitioned(false);
  t += 0.1;
  fleet.tick(t);
  submit_round_robin(static_cast<int>(tenants.size()));

  fleet.drain();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready)
        << "an accepted request was left unanswered after drain";
  }

  // The books: every submit is accounted once, fleet-wide and per tenant,
  // across a node death, a partition, and the drain — and the folded
  // energy ledger (including the corpse's partial work) matches the
  // process-global telemetry mirror.
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(futures.size()) + shed);
  EXPECT_EQ(stats.node_deaths, 1u);
  EXPECT_EQ(log->snapshot().deaths, 1u);
  EXPECT_GT(stats.ledger.macs, 0u);

  const std::vector<TenantStats> tenant_stats = fleet.tenant_stats();
  const InvariantReport sweep =
      check_fleet_soak(stats, tenant_stats, /*ledger_books=*/true);
  EXPECT_TRUE(sweep.ok()) << "fleet invariants violated under seed " << seed
                          << ":\n"
                          << sweep.to_string();
}

// --- unpartitioned death: expiry reroutes without a stale view ---------------

TEST(ChaosFleetSoak, NodeDeathWithoutPartitionHealsByExpiry) {
  reset_telemetry();
  const std::uint64_t seed = soak_seed() ^ 0xE8B1Full;

  auto log = std::make_shared<InjectionLog>();
  FaultPlanConfig victim_cfg;
  victim_cfg.deaths = {{0, 10}};
  auto victim_plan = std::make_shared<FaultPlan>(victim_cfg, seed);
  auto benign_plan = std::make_shared<FaultPlan>(FaultPlanConfig{}, seed);

  FleetConfig cfg;
  cfg.initial_nodes = kNodes;
  cfg.min_nodes = 1;
  cfg.max_nodes = kNodes;
  cfg.node.replicas = 1;
  cfg.node.restart_dead_replicas = false;
  cfg.node.max_batch = 4;
  cfg.node.max_wait = 200us;
  cfg.node.supervision_interval = 500us;
  cfg.router.heartbeat_timeout_s = 0.5;
  cfg.node_backend_factory = [&](int node_id) {
    return chaos_photonic_factory(
        node_id == kVictim ? victim_plan : benign_plan, log);
  };
  Fleet fleet(test_model(), cfg);

  const std::vector<std::string> tenants =
      balanced_tenants(cfg.router.vnodes, /*per_node=*/2);
  for (const std::string& name : tenants) {
    (void)fleet.register_tenant({.name = name, .klass = TenantClass::kGold});
  }

  std::vector<std::future<Response>> futures;
  std::uint64_t shed = 0;
  std::uint64_t next_input = 0;
  const auto submit_round_robin = [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto fut = fleet.submit(tenants[next_input % tenants.size()],
                              seeded_input(seed + next_input));
      ++next_input;
      if (fut.has_value()) {
        futures.push_back(std::move(*fut));
      } else {
        ++shed;
      }
    }
  };

  double t = 0.0;
  for (int round = 0; round < 10; ++round) {
    submit_round_robin(12);
    t += 0.05;
    fleet.tick(t);
  }
  const auto wall_deadline = std::chrono::steady_clock::now() + 10s;
  while (fleet.stats().node_deaths == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), wall_deadline)
        << "scripted node death was never detected (seed " << seed << ")";
    std::this_thread::sleep_for(1ms);
    t += 0.001;
    fleet.tick(t);
  }

  // Past the timeout the corpse leaves the ring; traffic redistributes to
  // the survivors with no stale placements (the view was never frozen).
  t += 2.0 * cfg.router.heartbeat_timeout_s;
  fleet.tick(t);
  submit_round_robin(2 * static_cast<int>(tenants.size()));
  const FleetStats after = fleet.stats();
  EXPECT_EQ(after.router.stale_placements, 0u);

  fleet.drain();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
  }

  const InvariantReport sweep = check_fleet_soak(
      fleet.stats(), fleet.tenant_stats(), /*ledger_books=*/true);
  EXPECT_TRUE(sweep.ok()) << "fleet invariants violated under seed " << seed
                          << ":\n"
                          << sweep.to_string();
}

}  // namespace
}  // namespace trident::chaos
