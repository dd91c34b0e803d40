// Fleet integration tests: routing + tenant classes + node lifecycle +
// autoscaling against real serving::Server nodes, with every scenario
// closed out by the fleet conservation sweep from chaos/invariants.hpp.
#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "chaos/invariants.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "serving/request.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::fleet {
namespace {

using namespace std::chrono_literals;
using serving::Response;
using serving::ResponseStatus;

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

/// Registry epoch per test: the energy-book checks compare the cumulative
/// process-global trident_ledger_* counters against this one fleet's books.
void reset_telemetry() {
  telemetry::set_enabled(true);
  telemetry::MetricsRegistry::global().reset_values();
}

FleetConfig small_fleet(int nodes = 2) {
  FleetConfig cfg;
  cfg.initial_nodes = nodes;
  cfg.min_nodes = 1;
  cfg.max_nodes = 8;
  cfg.node.replicas = 1;
  cfg.node.max_batch = 4;
  cfg.node.max_wait = 200us;
  cfg.node.admission.capacity = 256;
  return cfg;
}

std::vector<Response> settle(
    std::vector<std::future<Response>>& futures) {
  std::vector<Response> responses;
  responses.reserve(futures.size());
  for (auto& f : futures) {
    responses.push_back(f.get());
  }
  return responses;
}

// --- construction and validation --------------------------------------------

TEST(Fleet, RejectsDegenerateConfig) {
  FleetConfig cfg = small_fleet();
  cfg.initial_nodes = 0;
  EXPECT_THROW(Fleet(test_model(), cfg), Error);
  cfg = small_fleet();
  cfg.min_nodes = 0;
  EXPECT_THROW(Fleet(test_model(), cfg), Error);
  cfg = small_fleet();
  cfg.max_nodes = 1;
  cfg.min_nodes = 3;
  EXPECT_THROW(Fleet(test_model(), cfg), Error);
  cfg = small_fleet();
  cfg.node.on_response = [](const Response&) {};
  EXPECT_THROW(Fleet(test_model(), cfg), Error)
      << "the fleet must own the on_response hook";
}

TEST(Fleet, SpawnsInitialNodes) {
  reset_telemetry();
  Fleet fleet(test_model(), small_fleet(3));
  EXPECT_EQ(fleet.live_nodes(), 3);
  EXPECT_EQ(fleet.stats().node_spawns, 3u);
  EXPECT_EQ(fleet.node_status().size(), 3u);
  fleet.drain();
}

// --- request flow and conservation ------------------------------------------

TEST(Fleet, ServesTenantsAndBooksBalance) {
  reset_telemetry();
  Fleet fleet(test_model(), small_fleet(2));
  (void)fleet.register_tenant({.name = "acme", .klass = TenantClass::kGold});
  (void)fleet.register_tenant({.name = "initech", .klass = TenantClass::kBronze});

  constexpr int kRequests = 60;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    const std::string tenant = (i % 2 == 0) ? "acme" : "initech";
    auto fut = fleet.submit(tenant, seeded_input(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(fut.has_value()) << "request " << i << " shed on an idle fleet";
    futures.push_back(std::move(*fut));
    if (i % 16 == 0) {
      fleet.tick(0.01 * i);
    }
  }
  const std::vector<Response> responses = settle(futures);
  fleet.drain();

  std::uint64_t ok = 0;
  for (const Response& r : responses) {
    if (r.status == ResponseStatus::kOk) {
      ++ok;
      EXPECT_FALSE(r.output.empty());
      EXPECT_NE(r.tenant_key, 0u) << "fleet submits must carry the tenant key";
    }
  }

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.sojourn.count, stats.completed);
  EXPECT_GT(stats.ledger.macs, 0u) << "drained fleet ledger is empty";

  // Both tenants served, each with balanced books summing to the fleet's.
  const std::vector<TenantStats> tenants = fleet.tenant_stats();
  ASSERT_EQ(tenants.size(), 2u);
  for (const TenantStats& t : tenants) {
    EXPECT_EQ(t.submitted, static_cast<std::uint64_t>(kRequests / 2));
    EXPECT_EQ(t.accepted, t.completed + t.failed);
  }

  const chaos::InvariantReport sweep =
      chaos::check_fleet_soak(stats, tenants, /*ledger_books=*/true);
  EXPECT_TRUE(sweep.ok()) << sweep.to_string();
}

TEST(Fleet, HashRoutingKeepsATenantOnOneNode) {
  reset_telemetry();
  FleetConfig cfg = small_fleet(3);
  cfg.router.policy = RoutePolicy::kConsistentHash;
  Fleet fleet(test_model(), cfg);
  (void)fleet.register_tenant({.name = "sticky", .klass = TenantClass::kGold});

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 24; ++i) {
    auto fut = fleet.submit("sticky", seeded_input(7u + static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(fut.has_value());
    futures.push_back(std::move(*fut));
  }
  const std::vector<Response> responses = settle(futures);
  fleet.drain();

  // With no churn and no faults, hash routing is perfectly sticky: every
  // placement chose the same fresh owner and nothing was rerouted.
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.router.reroutes, 0u);
  EXPECT_EQ(stats.reroutes, 0u);
  EXPECT_EQ(stats.router.placements, 24u);
  EXPECT_EQ(stats.router.stale_placements, 0u);
  for (const Response& r : responses) {
    EXPECT_EQ(r.tenant_key, ConsistentHashRing::key_of("sticky"));
  }
}

TEST(Fleet, UnknownTenantIsAutoRegisteredAsBronze) {
  reset_telemetry();
  Fleet fleet(test_model(), small_fleet(1));
  auto fut = fleet.submit("walk-in", seeded_input(1u));
  ASSERT_TRUE(fut.has_value());
  (void)fut->get();
  fleet.drain();
  const std::vector<TenantStats> tenants = fleet.tenant_stats();
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].name, "walk-in");
  EXPECT_EQ(tenants[0].klass, TenantClass::kBronze);
  EXPECT_EQ(tenants[0].completed + tenants[0].failed, 1u);
}

// --- tenant classes ----------------------------------------------------------

TEST(Fleet, BronzeWatermarkShedsBeforeGold) {
  reset_telemetry();
  FleetConfig cfg = small_fleet(1);
  cfg.bronze.admit_watermark = 0.0;  // bronze sheds at any queue depth
  Fleet fleet(test_model(), cfg);
  (void)fleet.register_tenant({.name = "gold", .klass = TenantClass::kGold});
  (void)fleet.register_tenant({.name = "bronze", .klass = TenantClass::kBronze});

  std::vector<std::future<Response>> futures;
  int bronze_shed = 0;
  for (int i = 0; i < 20; ++i) {
    auto gold = fleet.submit("gold", seeded_input(2u * static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(gold.has_value()) << "gold shed while bronze-only pressure";
    futures.push_back(std::move(*gold));
    auto bronze = fleet.submit("bronze", seeded_input(2u * static_cast<std::uint64_t>(i) + 1));
    if (!bronze.has_value()) {
      ++bronze_shed;
    } else {
      futures.push_back(std::move(*bronze));
    }
  }
  (void)settle(futures);
  fleet.drain();

  EXPECT_EQ(bronze_shed, 20) << "watermark 0.0 must shed every bronze request";
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.shed_class, 20u);
  EXPECT_EQ(stats.shed, 20u);

  const std::vector<TenantStats> tenants = fleet.tenant_stats();
  const chaos::InvariantReport sweep =
      chaos::check_fleet_soak(stats, tenants, /*ledger_books=*/true);
  EXPECT_TRUE(sweep.ok()) << sweep.to_string();
  for (const TenantStats& t : tenants) {
    if (t.klass == TenantClass::kBronze) {
      EXPECT_EQ(t.shed, 20u);
      EXPECT_EQ(t.accepted, 0u);
    } else {
      EXPECT_EQ(t.shed, 0u);
      EXPECT_EQ(t.accepted, 20u);
    }
  }
}

TEST(Fleet, GoldDeadlineDrivesSloAccounting) {
  reset_telemetry();
  FleetConfig cfg = small_fleet(1);
  cfg.gold.deadline_s = 1e-9;  // every response lands past this deadline
  Fleet fleet(test_model(), cfg);
  (void)fleet.register_tenant({.name = "late", .klass = TenantClass::kGold});

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    auto fut = fleet.submit("late", seeded_input(11u + static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(fut.has_value());
    futures.push_back(std::move(*fut));
  }
  const std::vector<Response> responses = settle(futures);
  fleet.drain();

  for (const Response& r : responses) {
    EXPECT_TRUE(r.deadline_missed);
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.slo_violations, 8u);
  const std::vector<TenantStats> tenants = fleet.tenant_stats();
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].slo_violations, 8u);
}

// --- node lifecycle ----------------------------------------------------------

TEST(Fleet, AddAndRetireNodesFoldBooks) {
  reset_telemetry();
  Fleet fleet(test_model(), small_fleet(2));
  (void)fleet.register_tenant({.name = "t", .klass = TenantClass::kGold});

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    auto fut = fleet.submit("t", seeded_input(23u + static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(fut.has_value());
    futures.push_back(std::move(*fut));
  }
  (void)settle(futures);

  const int added = fleet.add_node(0.5);
  EXPECT_EQ(fleet.live_nodes(), 3);
  EXPECT_TRUE(fleet.retire_node(added));
  EXPECT_EQ(fleet.live_nodes(), 2);
  EXPECT_FALSE(fleet.retire_node(added)) << "double retire must be refused";
  EXPECT_FALSE(fleet.retire_node(999));

  // Retire a node that actually served traffic: its books must fold into
  // the fleet totals, not vanish.
  const std::vector<NodeStatus> status = fleet.node_status();
  ASSERT_FALSE(status.empty());
  ASSERT_TRUE(fleet.retire_node(status[0].id));
  for (int i = 0; i < 8; ++i) {
    auto fut = fleet.submit("t", seeded_input(101u + static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(fut.has_value()) << "fleet stopped serving after a retire";
    futures.push_back(std::move(*fut));
  }
  fleet.drain();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.node_retires, 3u);  // explicit x2 + drain of the survivor
  EXPECT_EQ(stats.accepted, 24u);
  const chaos::InvariantReport sweep = chaos::check_fleet_soak(
      stats, fleet.tenant_stats(), /*ledger_books=*/true);
  EXPECT_TRUE(sweep.ok()) << sweep.to_string();
}

TEST(Fleet, SubmitAfterDrainSheds) {
  reset_telemetry();
  Fleet fleet(test_model(), small_fleet(1));
  fleet.drain();
  EXPECT_FALSE(fleet.submit("t", seeded_input(1u)).has_value());
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.shed_no_node, 1u);
  EXPECT_EQ(stats.submitted, stats.accepted + stats.shed);
}

// --- autoscaling -------------------------------------------------------------

TEST(Fleet, AutoscalerGrowsFleetUnderSyntheticPressure) {
  reset_telemetry();
  FleetConfig cfg = small_fleet(1);
  cfg.autoscale = true;
  cfg.min_nodes = 1;
  cfg.max_nodes = 3;
  cfg.autoscale_interval_s = 0.1;
  cfg.autoscaler.up_depth = 0.0;  // depth >= 0: every sample reads hot
  cfg.autoscaler.up_streak = 1;
  cfg.autoscaler.hold_s = 0.0;
  Fleet fleet(test_model(), cfg);

  for (int i = 1; i <= 6; ++i) {
    fleet.tick(0.5 * i);
  }
  EXPECT_EQ(fleet.live_nodes(), 3) << "autoscaler did not reach max_nodes";
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.scale_ups, 2u);
  fleet.drain();
  EXPECT_EQ(fleet.stats().scale_ups, 2u)
      << "drain must not trigger further scaling";
}

TEST(Fleet, AutoscalerShrinksIdleFleetToMin) {
  reset_telemetry();
  FleetConfig cfg = small_fleet(3);
  cfg.autoscale = true;
  cfg.min_nodes = 1;
  cfg.max_nodes = 3;
  cfg.autoscale_interval_s = 0.1;
  // An idle fleet is genuinely cold (zero burns, zero depth); a short
  // streak and no cooldown let the test converge in a handful of ticks.
  cfg.autoscaler.down_streak = 1;
  cfg.autoscaler.hold_s = 0.0;
  Fleet fleet(test_model(), cfg);

  for (int i = 1; i <= 6; ++i) {
    fleet.tick(0.5 * i);
  }
  EXPECT_EQ(fleet.live_nodes(), 1) << "autoscaler did not drain to min_nodes";
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.scale_downs, 2u);
  EXPECT_EQ(stats.node_retires, 2u);
  fleet.drain();
  const chaos::InvariantReport sweep = chaos::check_fleet_soak(
      fleet.stats(), fleet.tenant_stats(), /*ledger_books=*/true);
  EXPECT_TRUE(sweep.ok()) << sweep.to_string();
}

}  // namespace
}  // namespace trident::fleet
