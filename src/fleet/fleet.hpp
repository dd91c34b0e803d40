// Fleet-scale serving: a sharded cluster of serving::Server nodes behind
// one routed front door.
//
// The Fleet owns N nodes.  Each node is a full PR-4 serving runtime — its
// own cloned model, replicas, backend (with energy ledger), admission
// queue, supervisor — constructed from one ServerConfig template with the
// backend seed re-split per node id, so every node's noise stream and
// every replica's within it are independent draws from one seed tree:
//
//   node n, replica r, incarnation i  →  split(split(split(seed, n), r), i)
//
// Request flow:
//
//   submit(tenant, input)
//     ├─ tenant lookup → class policy (deadline, watermark, tier)
//     ├─ Router::place(tenant_key, now) → node (hash-sticky or least-loaded)
//     ├─ class watermark check against the node's live queue depth
//     │    (bronze sheds early; gold defers to node admission)
//     └─ Server::submit(input, {deadline, tier, tenant_key})
//          └─ a draining/dead target reroutes once to the least-loaded
//             live node before the fleet sheds
//
// Accounting is hook-driven: every node runs with an on_response hook that
// fires for each terminal response (kOk and kFailed alike), so the fleet's
// per-tenant and fleet-wide books see exactly the responses the node-level
// conservation law counts.  The fleet-wide laws — checked by
// chaos::check_fleet_conservation after drain — are:
//
//   submitted == accepted + shed                 (front door)
//   accepted  == completed + failed              (after drain, across churn)
//   Σ node ledgers (live + retired folds) == fleet ledger
//
// and the same submitted/accepted/shed/completed/failed partition holds
// per tenant.
//
// Node lifecycle (driven by tick(), manually from tests or by the optional
// supervision thread):
//
//   live     heartbeats depth to the router every tick
//   dead     every replica kDead/kRetired → whole-node death: the fleet
//            retires the corpse's server (draining fails leftovers, books
//            fold) but leaves it on the ring until its heartbeat expires —
//            the window where a partitioned router keeps placing traffic
//            onto it (those submits hit a closed queue and reroute)
//   retired  drained cleanly (autoscale-down or drain()): removed from the
//            router first, then retire()d; final stats and ledger fold
//            into the fleet accumulators
//
// The Autoscaler consumes HealthMonitor burn rates over the fleet counters
// plus the mean depth gauge and fleet p99, and tick() applies its
// decisions within [min_nodes, max_nodes]: scale-up spawns a fresh node,
// scale-down drain-retires the least-loaded one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/photonic_backend.hpp"
#include "fleet/autoscaler.hpp"
#include "fleet/router.hpp"
#include "fleet/tenant.hpp"
#include "nn/mlp.hpp"
#include "serving/server.hpp"
#include "telemetry/health.hpp"
#include "telemetry/metrics.hpp"

namespace trident::fleet {

struct FleetConfig {
  /// Nodes at construction.
  int initial_nodes = 2;
  /// Autoscaler clamp (also enforced on manual retire_node).
  int min_nodes = 1;
  int max_nodes = 8;
  /// Per-node runtime template.  `node.backend.seed` is the fleet base
  /// seed; node n runs with split(seed, n).  `node.on_response` must stay
  /// null — the fleet installs its own accounting hook.
  serving::ServerConfig node;
  RouterConfig router;
  /// Class policies (tenants reference these by TenantClass).
  TenantClassPolicy gold{0.0, 1.0, 0.001, serving::ServingTier::kExact};
  TenantClassPolicy bronze{0.0, 0.6, 0.05, serving::ServingTier::kExact};
  /// Telemetry-driven autoscaling (off: the fleet holds initial_nodes
  /// unless add_node/retire_node are called explicitly).
  bool autoscale = false;
  AutoscalerConfig autoscaler;
  /// Burn-rate classifier feeding the autoscaler (budgets shared with the
  /// node-level health story).
  telemetry::HealthConfig health;
  /// Autoscaler evaluation cadence within tick() (ticks may be faster;
  /// heartbeats happen every tick regardless).
  double autoscale_interval_s = 0.5;
  /// Background supervision: a thread calling tick(elapsed wall seconds)
  /// at this period.  0 disables — tests drive tick() manually with
  /// virtual time.
  double supervise_interval_s = 0.0;
  /// Chaos hook: per-node backend factory override (node id → factory
  /// passed into that node's ServerConfig).  Null uses `node.backend_factory`
  /// for every node.  This is how the fleet chaos harness gives each node
  /// its own scripted FaultPlan.
  std::function<serving::BackendFactory(int node_id)> node_backend_factory;
};

/// Point-in-time view of one node.
struct NodeStatus {
  int id = -1;
  bool dead = false;        ///< whole-node death detected
  std::size_t queue_depth = 0;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
};

/// Fleet-wide accounting: live node counters summed with the folds of
/// every retired/dead node, plus the fleet front door's own books.
struct FleetStats {
  // Topology.
  int nodes = 0;  ///< currently live (non-dead, non-retired)
  std::uint64_t node_spawns = 0;   ///< includes the initial nodes
  std::uint64_t node_retires = 0;  ///< clean drain-retires
  std::uint64_t node_deaths = 0;   ///< whole-node deaths detected
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  // Front door.
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;   ///< admitted into some node's queue
  std::uint64_t shed = 0;       ///< no_node + class watermark + node admission
  std::uint64_t shed_no_node = 0;   ///< no live node to place on
  std::uint64_t shed_class = 0;     ///< class watermark refused
  std::uint64_t shed_node = 0;      ///< node admission refused
  std::uint64_t reroutes = 0;   ///< draining/dead target, resubmitted elsewhere
  // Completions (on_response hook; equals the sum of node books).
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t slo_violations = 0;  ///< responses past their class deadline
  // Routing (mirror of RouterStats).
  RouterStats router;
  /// Fleet-wide exact sojourn: per-tenant recorders merged into one
  /// population (LatencyRecorder::merge), so cluster p99 is a true order
  /// statistic.
  serving::LatencySummary sojourn;
  /// Summed node counters (live stats() + retired folds) for
  /// cross-checking against the front-door books.
  std::uint64_t node_accepted = 0;
  std::uint64_t node_completed = 0;
  std::uint64_t node_failed = 0;
  std::uint64_t node_shed = 0;
  /// Folded hardware bill.  Like the per-server ledger this is only
  /// complete after drain() (live nodes' replica ledgers are
  /// worker-private while serving); before that it holds the retired
  /// nodes' folds.
  core::PhotonicLedger ledger;
};

class Fleet {
 public:
  Fleet(const nn::Mlp& model, const FleetConfig& config);

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Drains on destruction if the caller did not.
  ~Fleet();

  /// Registers a tenant and returns its routing key.  Registering the
  /// same name again updates the class and returns the same key.
  std::uint64_t register_tenant(const TenantSpec& spec);

  /// Submits one inference under `tenant` (auto-registered as bronze when
  /// unknown).  Returns the response future, or nullopt when the fleet
  /// shed the request (no live node, class watermark, or node admission).
  [[nodiscard]] std::optional<std::future<serving::Response>> submit(
      const std::string& tenant, nn::Vector input);

  /// One supervision step at fleet time `now_s` (any monotonic scale, must
  /// be nondecreasing across calls): heartbeats live nodes to the router,
  /// detects whole-node deaths, expires corpses off the ring, and — when
  /// autoscaling — evaluates the autoscaler and applies its decision.
  void tick(double now_s);

  /// Spawns a fresh node (ignores max_nodes — the autoscaler clamp, not a
  /// hard limit for operators).  Returns the node id.
  int add_node(double now_s);

  /// Drain-retires a node: removed from the router, retire()d, books
  /// folded.  Returns false for an unknown/already-gone id.
  bool retire_node(int id);

  /// Retires every node and stops supervision.  Subsequent submits shed.
  /// Idempotent.
  void drain();

  [[nodiscard]] FleetStats stats() const;
  [[nodiscard]] std::vector<TenantStats> tenant_stats() const;
  [[nodiscard]] std::vector<NodeStatus> node_status() const;
  [[nodiscard]] int live_nodes() const;
  /// The routing front end (exposed for fault injection: partitions,
  /// manual heartbeats in virtual-time harnesses).
  [[nodiscard]] Router& router() { return router_; }
  [[nodiscard]] const FleetConfig& config() const { return config_; }

 private:
  struct TenantAccount {
    TenantSpec spec;
    std::uint64_t key = 0;
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> slo_violations{0};
    serving::LatencyRecorder sojourn;
  };

  enum class NodeState { kLive, kDead, kRetired };

  struct Node {
    int id = -1;
    std::unique_ptr<serving::Server> server;
    NodeState state = NodeState::kLive;
    double died_s = 0.0;  ///< fleet time of death detection
  };

  [[nodiscard]] serving::ServerConfig node_config(int node_id);
  /// The on_response accounting hook (runs on node worker threads).
  void observe_response(const serving::Response& response);
  int add_node_locked(double now_s);
  /// Folds a node's final books into the retired accumulators.  The node
  /// must already be off the router (clean retire) or expired (death).
  void fold_node_locked(Node& node, NodeState final_state);
  [[nodiscard]] std::shared_ptr<TenantAccount> tenant_account(
      const std::string& name);
  /// Least-loaded live node other than `excluded` (-1 = none); used for
  /// the reroute-once path.  Caller holds nodes_mutex_.
  [[nodiscard]] std::shared_ptr<Node> reroute_target_locked(int excluded) const;
  [[nodiscard]] int live_nodes_locked() const;
  void autoscale_locked(double now_s);
  void supervise_loop();
  /// The fleet's front-door counters and every tenant's
  /// `trident_tenant_<name>_*` family, as the metrics registry collects
  /// them (the nodes' own Servers report theirs).
  [[nodiscard]] std::vector<telemetry::CounterSample> counter_readings() const;

  FleetConfig config_;
  nn::Mlp model_;
  /// One plan compiled at construction and shared by every node's version-0
  /// publication (via ServerConfig::initial_plan).
  std::shared_ptr<const nn::ExecutionPlan> init_plan_;
  Router router_;
  Autoscaler autoscaler_;
  telemetry::HealthMonitor health_;

  mutable std::mutex nodes_mutex_;
  std::map<int, std::shared_ptr<Node>> nodes_;
  int next_node_id_ = 0;
  double last_autoscale_s_ = -1e300;
  /// Monotonic fleet clock: advanced by tick(now_s), read by submit() for
  /// routing freshness.  Virtual in tests/bench, wall-derived under the
  /// supervision thread.
  std::atomic<double> fleet_now_s_{0.0};

  mutable std::mutex tenants_mutex_;
  std::map<std::string, std::shared_ptr<TenantAccount>> tenants_by_name_;
  std::map<std::uint64_t, std::shared_ptr<TenantAccount>> tenants_by_key_;

  // Front-door + completion counters (hook threads → atomics).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_no_node_{0};
  std::atomic<std::uint64_t> shed_class_{0};
  std::atomic<std::uint64_t> shed_node_{0};
  std::atomic<std::uint64_t> reroutes_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> slo_violations_{0};
  std::atomic<std::uint64_t> node_spawns_{0};
  std::atomic<std::uint64_t> node_retires_{0};
  std::atomic<std::uint64_t> node_deaths_{0};
  std::atomic<std::uint64_t> scale_ups_{0};
  std::atomic<std::uint64_t> scale_downs_{0};
  /// Untenanted sojourn samples (tenant_key 0 — e.g. direct node access);
  /// tenanted samples live in their TenantAccount recorders.
  serving::LatencyRecorder untenanted_sojourn_;

  /// Books of retired/dead nodes (folded at retire time).
  mutable std::mutex fold_mutex_;
  std::uint64_t folded_accepted_ = 0;
  std::uint64_t folded_completed_ = 0;
  std::uint64_t folded_failed_ = 0;
  std::uint64_t folded_shed_ = 0;
  core::PhotonicLedger folded_ledger_;

  std::thread supervisor_;
  std::mutex supervisor_mutex_;
  std::condition_variable supervisor_cv_;
  std::atomic<bool> supervisor_stop_{false};

  mutable std::mutex drain_mutex_;
  bool drained_ = false;

  /// Registry collector over the books above.  Last member: destroyed
  /// first, so its fold reads them while they still exist.
  telemetry::MetricsRegistry::CollectorHandle collector_;
};

}  // namespace trident::fleet
