// Fleet serving loop: a sharded cluster of serving nodes behind the
// consistent-hash (or least-loaded) router, with per-tenant SLO classes,
// telemetry-driven autoscaling, and an invariant-checked exit.
//
// Spins up `--nodes` serving nodes (each a full replica/batcher/admission
// runtime with its own backend seed split), registers `--tenants` tenants
// alternating gold/bronze, offers `--requests` round-robin requests while
// the fleet clock ticks, then drains and audits the fleet-wide
// conservation laws: every submit becomes exactly one accept or shed,
// every accept exactly one completion or failure — fleet-wide and per
// tenant — and the folded energy ledger balances against the per-pulse
// trident_ledger_* counters.  The exported trident_fleet_* and
// trident_tenant_* counters are the fleet's own books, collected by the
// metrics registry.
//
// With `--chaos-seed S` one node (`--chaos-kill-node`, default 1) runs a
// scripted FaultPlan that kills its only replica at op
// `--chaos-kill-op` — a whole-node death.  The fleet detects it, folds
// the corpse's books, and keeps serving; with `--partition` the router's
// view is frozen for the middle third of the run, so traffic keeps
// landing on the corpse until its heartbeat expires (each such submit
// reroutes once).  The exit sweep must hold across all of it.
//
// Run:  ./build/examples/fleet_loop --nodes 3 --tenants 8 --requests 2000
//       ./build/examples/fleet_loop --chaos-seed 7 --chaos-kill-op 40
//           --partition
#include <chrono>
#include <cstdint>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos_backend.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "nn/mlp.hpp"
#include "telemetry/session.hpp"

int main(int argc, char** argv) {
  using namespace trident;
  const CliArgs args(argc, argv);
  telemetry::TelemetrySession telemetry_session(args);

  fleet::FleetConfig cfg;
  cfg.initial_nodes = args.value_int_positive("nodes", 3);
  cfg.min_nodes = args.value_int_positive("min-nodes", 1);
  cfg.max_nodes = args.value_int_positive("max-nodes", 8);
  cfg.node.replicas = args.value_int_positive("replicas", 1);
  cfg.node.max_batch =
      static_cast<std::size_t>(args.value_int_positive("max-batch", 8));
  cfg.node.max_wait =
      std::chrono::microseconds(args.value_int_positive("max-wait-us", 200));
  cfg.node.admission.capacity =
      static_cast<std::size_t>(args.value_int_positive("queue-cap", 4096));
  cfg.router.policy = args.value("policy").value_or("hash") == "least-loaded"
                          ? fleet::RoutePolicy::kLeastLoaded
                          : fleet::RoutePolicy::kConsistentHash;
  cfg.router.heartbeat_timeout_s =
      args.value_double_positive("heartbeat-timeout-s", 1.0);
  cfg.gold.deadline_s = args.value_double("gold-deadline-ms", 50.0) * 1e-3;
  cfg.bronze.deadline_s = args.value_double("bronze-deadline-ms", 200.0) * 1e-3;
  cfg.autoscale = args.has_flag("autoscale");

  // Chaos wiring: the victim node's single replica dies at the scripted
  // op; everyone else gets a benign plan with a light transient rate.
  const bool chaos_on = args.value("chaos-seed").has_value();
  const int kill_node = args.value_int("chaos-kill-node", 1);
  std::shared_ptr<chaos::InjectionLog> injection_log;
  std::shared_ptr<const chaos::FaultPlan> victim_plan;
  std::shared_ptr<const chaos::FaultPlan> benign_plan;
  if (chaos_on) {
    injection_log = std::make_shared<chaos::InjectionLog>();
    const auto chaos_seed =
        static_cast<std::uint64_t>(args.value_int("chaos-seed", 0));
    chaos::FaultPlanConfig victim_cfg;
    victim_cfg.deaths.emplace_back(
        0, static_cast<std::uint64_t>(args.value_int("chaos-kill-op", 40)));
    chaos::FaultPlanConfig benign_cfg;
    benign_cfg.transient_error_rate =
        args.value_double("chaos-transient-rate", 0.005);
    victim_plan = std::make_shared<const chaos::FaultPlan>(victim_cfg, chaos_seed);
    benign_plan = std::make_shared<const chaos::FaultPlan>(benign_cfg, chaos_seed);
    cfg.node.replicas = 1;  // one replica death == whole-node death
    cfg.node.restart_dead_replicas = false;
    cfg.node.supervision_interval = std::chrono::microseconds(500);
    cfg.node_backend_factory = [&, kill_node](int node_id) {
      return chaos::chaos_photonic_factory(
          node_id == kill_node ? victim_plan : benign_plan, injection_log);
    };
  }

  const int tenants = args.value_int_positive("tenants", 8);
  const int requests = args.value_int_positive("requests", 2000);
  const bool partition = args.has_flag("partition");
  const auto seed = static_cast<std::uint64_t>(args.value_int("seed", 0x5e12));

  Rng rng(seed);
  cfg.node.backend.seed = rng.split(7).seed();
  const nn::Mlp model({32, 64, 10}, nn::Activation::kGstPhotonic, rng);

  std::cout << "=== fleet_loop: " << cfg.initial_nodes << " node(s) ["
            << fleet::to_string(cfg.router.policy) << "], " << tenants
            << " tenant(s), " << requests << " request(s)"
            << (cfg.autoscale ? ", autoscaling" : "") << " ===\n";
  if (chaos_on) {
    std::cout << "chaos     seed " << victim_plan->seed() << ", node "
              << kill_node << " dies at op "
              << victim_plan->config().deaths[0].second
              << (partition ? ", router partitioned mid-run" : "")
              << " (rerun with --chaos-seed " << victim_plan->seed()
              << " to reproduce)\n";
  }

  fleet::Fleet fleet(model, cfg);
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(tenants));
  for (int i = 0; i < tenants; ++i) {
    names.push_back("tenant-" + std::to_string(i));
    (void)fleet.register_tenant(
        {names.back(),
         i % 2 == 0 ? fleet::TenantClass::kGold : fleet::TenantClass::kBronze});
  }

  Rng input_rng = rng.split(1);
  std::vector<nn::Vector> inputs;
  for (int i = 0; i < 64; ++i) {
    nn::Vector x(32);
    for (double& v : x) {
      v = input_rng.uniform(-1.0, 1.0);
    }
    inputs.push_back(std::move(x));
  }

  // Open-loop round-robin offers with a virtual fleet clock: a tick every
  // 32 submits heartbeats the nodes and runs death detection / corpse
  // expiry / autoscaling; the 1 ms sleep gives the node supervisors wall
  // time to observe scripted deaths mid-run.
  std::vector<std::future<serving::Response>> futures;
  futures.reserve(static_cast<std::size_t>(requests));
  std::uint64_t shed = 0;
  double t = 0.0;
  const int partition_start = requests / 3;
  const int partition_end = 2 * requests / 3;
  for (int i = 0; i < requests; ++i) {
    if (partition && i == partition_start) {
      fleet.router().set_partitioned(true);
      std::cout << "fault     router partitioned at request " << i << "\n";
    }
    if (partition && i == partition_end) {
      fleet.router().set_partitioned(false);
      std::cout << "fault     router healed at request " << i << "\n";
    }
    auto fut = fleet.submit(
        names[static_cast<std::size_t>(i) % names.size()],
        inputs[static_cast<std::size_t>(i) % inputs.size()]);
    if (fut.has_value()) {
      futures.push_back(std::move(*fut));
    } else {
      ++shed;
    }
    if (i % 32 == 31) {
      t += 0.01;
      fleet.tick(t);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  fleet.router().set_partitioned(false);
  // Let the corpse (if any) age off the ring, then drain.
  t += 2.0 * cfg.router.heartbeat_timeout_s;
  fleet.tick(t);
  fleet.drain();
  for (auto& f : futures) {
    f.wait();
  }

  const fleet::FleetStats stats = fleet.stats();
  std::cout << "front     " << stats.submitted << " submitted, "
            << stats.accepted << " accepted, " << stats.shed << " shed ("
            << stats.shed_no_node << " no-node, " << stats.shed_class
            << " class, " << stats.shed_node << " node), " << stats.reroutes
            << " reroute(s)\n"
            << "served    " << stats.completed << " completed, "
            << stats.failed << " failed, " << stats.slo_violations
            << " SLO violation(s)\n"
            << "sojourn   p50 " << stats.sojourn.p50_s * 1e3 << " ms, p99 "
            << stats.sojourn.p99_s * 1e3 << " ms over "
            << stats.sojourn.count << " sample(s)\n"
            << "router    " << stats.router.placements << " placement(s), "
            << stats.router.reroutes << " ring hop(s), "
            << stats.router.stale_placements << " stale, "
            << stats.router.no_node << " no-node\n"
            << "topology  " << stats.node_spawns << " spawn(s), "
            << stats.node_retires << " retire(s), " << stats.node_deaths
            << " death(s), " << stats.scale_ups << " up / "
            << stats.scale_downs << " down\n"
            << "hardware  " << stats.ledger.energy().mJ() << " mJ, "
            << stats.ledger.program_events << " bank program event(s)\n";
  for (const fleet::TenantStats& ts : fleet.tenant_stats()) {
    std::cout << "tenant    " << ts.name << " [" << fleet::to_string(ts.klass)
              << "] " << ts.accepted << "/" << ts.submitted << " accepted, "
              << ts.completed << " ok, " << ts.failed << " failed, "
              << ts.slo_violations << " SLO miss(es), p99 "
              << ts.sojourn.p99_s * 1e3 << " ms\n";
  }
  if (chaos_on) {
    const chaos::InjectionCounts injected = injection_log->snapshot();
    std::cout << "injected  " << injected.transient_errors << " transient, "
              << injected.deaths << " death(s)\n";
  }

  // The pass/fail line: fleet-wide conservation, the per-tenant partition
  // of the books, and — since this process runs no backend outside the
  // fleet — the folded energy ledger against its registry twin.
  const chaos::InvariantReport sweep = chaos::check_fleet_soak(
      stats, fleet.tenant_stats(), /*ledger_books=*/true);
  if (!sweep.ok()) {
    std::cerr << "ERROR: fleet invariants violated:\n" << sweep.to_string();
    return 1;
  }
  if (chaos_on && stats.node_deaths != 1) {
    std::cerr << "ERROR: scripted node death was not detected (expected 1, "
              << "saw " << stats.node_deaths << ")\n";
    return 1;
  }
  if (static_cast<std::uint64_t>(futures.size()) != stats.accepted) {
    std::cerr << "ERROR: " << futures.size() << " futures but "
              << stats.accepted << " accepted\n";
    return 1;
  }
  std::cout << "invariants all fleet conservation laws hold\n";
  return 0;
}
