#include "fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::fleet {

namespace {

struct FleetMetrics {
  telemetry::Gauge& nodes = telemetry::MetricsRegistry::global().gauge(
      "trident_fleet_nodes", "live serving nodes in the fleet");
};

FleetMetrics& fleet_metrics() {
  static FleetMetrics m;
  return m;
}

/// Prometheus-legal metric name fragment from a tenant name.
[[nodiscard]] std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) {
    out = "unnamed";
  }
  return out;
}

}  // namespace

serving::ServerConfig Fleet::node_config(int node_id) {
  serving::ServerConfig cfg = config_.node;
  // One seed tree for the whole fleet: node n's backend seed is
  // split(base, n); the Server re-splits per replica and incarnation.
  cfg.backend.seed =
      Rng(config_.node.backend.seed).split(static_cast<std::uint64_t>(node_id))
          .seed();
  if (config_.node_backend_factory) {
    cfg.backend_factory = config_.node_backend_factory(node_id);
  }
  cfg.on_response = [this](const serving::Response& r) { observe_response(r); };
  // All nodes launch from the same weights, so they share one compiled plan
  // instead of each paying a compile at construction.  Per-node hot_swaps
  // diverge from here as before — each publishes its own plan.
  cfg.initial_plan = init_plan_;
  return cfg;
}

Fleet::Fleet(const nn::Mlp& model, const FleetConfig& config)
    : config_(config),
      model_(model),
      router_(config.router),
      autoscaler_(config.autoscaler),
      health_(config.health) {
  TRIDENT_REQUIRE(config.initial_nodes >= 1, "fleet needs at least one node");
  TRIDENT_REQUIRE(config.min_nodes >= 1, "min_nodes must be at least 1");
  TRIDENT_REQUIRE(config.max_nodes >= config.min_nodes,
                  "max_nodes must be at least min_nodes");
  TRIDENT_REQUIRE(!config.node.on_response,
                  "FleetConfig::node.on_response must be null (the fleet "
                  "installs its own accounting hook)");
  TRIDENT_REQUIRE(config.node.initial_plan == nullptr,
                  "FleetConfig::node.initial_plan must be null (the fleet "
                  "compiles one shared plan for all nodes)");
  init_plan_ = nn::ExecutionPlan::compile(
      model_, serving::Server::plan_config_for(config_.node));
  {
    std::lock_guard lock(nodes_mutex_);
    for (int i = 0; i < config.initial_nodes; ++i) {
      add_node_locked(0.0);
    }
  }
  if (config_.supervise_interval_s > 0.0) {
    supervisor_ = std::thread([this] { supervise_loop(); });
  }
  collector_ = telemetry::MetricsRegistry::global().add_collector(
      [this] { return counter_readings(); });
}

Fleet::~Fleet() { drain(); }

int Fleet::add_node_locked(double now_s) {
  const int id = next_node_id_++;
  auto node = std::make_shared<Node>();
  node->id = id;
  node->server = std::make_unique<serving::Server>(model_, node_config(id));
  nodes_.emplace(id, std::move(node));
  router_.add_node(id, now_s);
  node_spawns_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    fleet_metrics().nodes.set(static_cast<double>(live_nodes_locked()));
  }
  return id;
}

int Fleet::add_node(double now_s) {
  std::lock_guard lock(nodes_mutex_);
  return add_node_locked(now_s);
}

void Fleet::fold_node_locked(Node& node, NodeState final_state) {
  const serving::ServerStats final = node.server->retire();
  {
    std::lock_guard lock(fold_mutex_);
    folded_accepted_ += final.accepted;
    folded_completed_ += final.completed;
    folded_failed_ += final.failed;
    folded_shed_ += final.shed;
    folded_ledger_ = folded_ledger_ + final.ledger;
  }
  node.state = final_state;
}

bool Fleet::retire_node(int id) {
  std::lock_guard lock(nodes_mutex_);
  auto it = nodes_.find(id);
  if (it == nodes_.end() || it->second->state != NodeState::kLive) {
    return false;
  }
  // Off the router first, so no new placement targets the node while it
  // drains; in-flight requests complete (or fail explicitly) inside
  // retire().
  router_.remove_node(id);
  fold_node_locked(*it->second, NodeState::kRetired);
  nodes_.erase(it);
  node_retires_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    fleet_metrics().nodes.set(static_cast<double>(live_nodes_locked()));
  }
  return true;
}

std::uint64_t Fleet::register_tenant(const TenantSpec& spec) {
  std::lock_guard lock(tenants_mutex_);
  auto it = tenants_by_name_.find(spec.name);
  if (it != tenants_by_name_.end()) {
    it->second->spec.klass = spec.klass;
    return it->second->key;
  }
  auto acct = std::make_shared<TenantAccount>();
  acct->spec = spec;
  // key_of never returns 0 (the untenanted sentinel); on the astronomically
  // unlikely cross-name collision, probe linearly to keep attribution
  // injective.
  std::uint64_t key = ConsistentHashRing::key_of(spec.name);
  while (key == 0 || tenants_by_key_.count(key) != 0) {
    ++key;
  }
  acct->key = key;
  tenants_by_name_.emplace(spec.name, acct);
  tenants_by_key_.emplace(key, acct);
  return key;
}

std::shared_ptr<Fleet::TenantAccount> Fleet::tenant_account(
    const std::string& name) {
  {
    std::lock_guard lock(tenants_mutex_);
    auto it = tenants_by_name_.find(name);
    if (it != tenants_by_name_.end()) {
      return it->second;
    }
  }
  // Unknown tenants ride the bronze contract.
  register_tenant(TenantSpec{name, TenantClass::kBronze});
  std::lock_guard lock(tenants_mutex_);
  return tenants_by_name_.at(name);
}

void Fleet::observe_response(const serving::Response& response) {
  const bool ok = response.status == serving::ResponseStatus::kOk;
  if (ok) {
    completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (response.deadline_missed) {
    slo_violations_.fetch_add(1, std::memory_order_relaxed);
  }

  std::shared_ptr<TenantAccount> acct;
  if (response.tenant_key != 0) {
    std::lock_guard lock(tenants_mutex_);
    auto it = tenants_by_key_.find(response.tenant_key);
    if (it != tenants_by_key_.end()) {
      acct = it->second;
    }
  }
  if (acct) {
    (ok ? acct->completed : acct->failed).fetch_add(1,
                                                    std::memory_order_relaxed);
    if (response.deadline_missed) {
      acct->slo_violations.fetch_add(1, std::memory_order_relaxed);
    }
    // Like the Server's own recorder, only kOk sojourns enter the latency
    // population (sojourn samples == completed, fleet-wide and per tenant).
    if (ok) {
      acct->sojourn.record(response.timing.sojourn_s);
    }
  } else if (ok) {
    untenanted_sojourn_.record(response.timing.sojourn_s);
  }
}

std::shared_ptr<Fleet::Node> Fleet::reroute_target_locked(int excluded) const {
  std::shared_ptr<Node> best;
  std::size_t best_depth = std::numeric_limits<std::size_t>::max();
  for (const auto& [id, node] : nodes_) {
    if (id == excluded || node->state != NodeState::kLive) {
      continue;
    }
    const std::size_t depth = node->server->queue_depth();
    if (depth < best_depth) {
      best = node;
      best_depth = depth;
    }
  }
  return best;
}

std::optional<std::future<serving::Response>> Fleet::submit(
    const std::string& tenant, nn::Vector input) {
  auto acct = tenant_account(tenant);
  const TenantClassPolicy& policy =
      acct->spec.klass == TenantClass::kGold ? config_.gold : config_.bronze;

  submitted_.fetch_add(1, std::memory_order_relaxed);
  acct->submitted.fetch_add(1, std::memory_order_relaxed);

  const auto shed = [&](std::atomic<std::uint64_t>& bucket) {
    bucket.fetch_add(1, std::memory_order_relaxed);
    acct->shed.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };

  const double now_s = fleet_now_s_.load(std::memory_order_relaxed);
  const Placement placement = router_.place(acct->key, now_s);
  if (placement.node < 0) {
    return shed(shed_no_node_);
  }

  std::shared_ptr<Node> node;
  {
    std::lock_guard lock(nodes_mutex_);
    auto it = nodes_.find(placement.node);
    if (it != nodes_.end()) {
      node = it->second;
    } else {
      // Router view lagged a retire; fall through to the reroute path.
      node = reroute_target_locked(-1);
      if (node) {
        reroutes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (!node) {
    return shed(shed_no_node_);
  }

  // Class-watermark admission: bronze sheds as soon as the routed node's
  // queue passes its fraction of capacity; gold (watermark 1.0) defers to
  // the node's own admission control.
  if (policy.admit_watermark < 1.0) {
    const auto cap = static_cast<double>(config_.node.admission.capacity);
    if (static_cast<double>(node->server->queue_depth()) >=
        policy.admit_watermark * cap) {
      return shed(shed_class_);
    }
  }

  serving::SubmitOptions options;
  options.tier = policy.default_tier;
  options.tenant_key = acct->key;
  if (policy.deadline_s > 0.0) {
    options.deadline = serving::Clock::now() +
                       std::chrono::duration_cast<serving::Clock::duration>(
                           std::chrono::duration<double>(policy.deadline_s));
  }

  auto future = node->server->submit(input, options);
  if (!future && node->server->draining()) {
    // The routed node is draining (retiring, or a detected corpse whose
    // queue was closed by the death fold) — reroute once to the
    // least-loaded live node before giving up.
    std::shared_ptr<Node> fallback;
    {
      std::lock_guard lock(nodes_mutex_);
      fallback = reroute_target_locked(node->id);
    }
    if (!fallback) {
      return shed(shed_no_node_);
    }
    reroutes_.fetch_add(1, std::memory_order_relaxed);
    future = fallback->server->submit(std::move(input), options);
    if (!future) {
      return shed(fallback->server->draining() ? shed_no_node_ : shed_node_);
    }
  } else if (!future) {
    return shed(shed_node_);
  }

  accepted_.fetch_add(1, std::memory_order_relaxed);
  acct->accepted.fetch_add(1, std::memory_order_relaxed);
  return future;
}

void Fleet::tick(double now_s) {
  // Monotonic fleet clock shared with submit()'s routing decisions.
  double prev = fleet_now_s_.load(std::memory_order_relaxed);
  while (now_s > prev && !fleet_now_s_.compare_exchange_weak(
                             prev, now_s, std::memory_order_relaxed)) {
  }

  std::lock_guard lock(nodes_mutex_);
  // 1. Whole-node death detection: every replica kDead/kRetired.  The
  //    corpse's books fold immediately (retire() fails the queued
  //    leftovers explicitly — conservation), but the node STAYS on the
  //    router until its heartbeat expires: the window where a stale or
  //    partitioned view keeps placing traffic onto it.
  for (auto& [id, node] : nodes_) {
    if (node->state != NodeState::kLive) {
      continue;
    }
    const auto healths = node->server->health();
    bool all_dead = !healths.empty();
    for (const auto& h : healths) {
      if (h.state != serving::ReplicaState::kDead &&
          h.state != serving::ReplicaState::kRetired) {
        all_dead = false;
        break;
      }
    }
    if (all_dead) {
      node_deaths_.fetch_add(1, std::memory_order_relaxed);
      fold_node_locked(*node, NodeState::kDead);
      node->died_s = now_s;
      if (telemetry::enabled()) {
        fleet_metrics().nodes.set(static_cast<double>(live_nodes_locked()));
      }
    }
  }

  // 2. Heartbeats for the living (the router drops them while
  //    partitioned — that is the fault, not a bug).
  for (auto& [id, node] : nodes_) {
    if (node->state == NodeState::kLive) {
      router_.heartbeat(id, static_cast<int>(node->server->queue_depth()),
                        now_s);
    }
  }

  // 3. Corpse expiry: once a dead node's last heartbeat has aged out it
  //    can no longer attract placements — take it off the ring and forget
  //    it (books were folded at death).
  for (auto it = nodes_.begin(); it != nodes_.end();) {
    Node& node = *it->second;
    if (node.state == NodeState::kDead &&
        now_s - node.died_s > config_.router.heartbeat_timeout_s) {
      router_.remove_node(node.id);
      it = nodes_.erase(it);
    } else {
      ++it;
    }
  }

  // 4. Telemetry-driven autoscaling on its own cadence.
  if (config_.autoscale &&
      now_s - last_autoscale_s_ >= config_.autoscale_interval_s) {
    last_autoscale_s_ = now_s;
    autoscale_locked(now_s);
  }
}

void Fleet::autoscale_locked(double now_s) {
  // Feed the burn-rate classifier the fleet-wide cumulative counters; its
  // windowed burns are exactly the autoscaler's pressure signals.
  telemetry::HealthSample hs;
  hs.t_s = now_s;
  hs.completed = completed_.load(std::memory_order_relaxed);
  hs.slo_violations = slo_violations_.load(std::memory_order_relaxed);
  hs.shed = shed_no_node_.load(std::memory_order_relaxed) +
            shed_class_.load(std::memory_order_relaxed) +
            shed_node_.load(std::memory_order_relaxed);
  hs.degraded = failed_.load(std::memory_order_relaxed);
  const telemetry::HealthReport report = health_.update(hs);

  int live = 0;
  double depth_sum = 0.0;
  for (const auto& [id, node] : nodes_) {
    if (node->state == NodeState::kLive) {
      ++live;
      depth_sum += static_cast<double>(node->server->queue_depth());
    }
  }

  ScaleSample sample;
  sample.t_s = now_s;
  sample.slo_burn = std::max(report.slo.short_burn, report.degraded.short_burn);
  sample.shed_burn = report.shed.short_burn;
  sample.mean_depth = live > 0 ? depth_sum / static_cast<double>(live) : 0.0;
  sample.p99_s = report.p99_s;

  const ScaleDecision decision = autoscaler_.evaluate(sample);
  if (decision == ScaleDecision::kScaleUp && live < config_.max_nodes) {
    add_node_locked(now_s);
    scale_ups_.fetch_add(1, std::memory_order_relaxed);
  } else if (decision == ScaleDecision::kScaleDown && live > config_.min_nodes) {
    // Drain-retire the least-loaded live node: cheapest to empty, and its
    // tenants re-land on the survivors with bounded ring disruption.
    const std::shared_ptr<Node> victim = reroute_target_locked(-1);
    if (victim) {
      router_.remove_node(victim->id);
      fold_node_locked(*victim, NodeState::kRetired);
      nodes_.erase(victim->id);
      node_retires_.fetch_add(1, std::memory_order_relaxed);
      scale_downs_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::enabled()) {
        fleet_metrics().nodes.set(static_cast<double>(live_nodes_locked()));
      }
    }
  }
}

void Fleet::supervise_loop() {
  const auto start = std::chrono::steady_clock::now();
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(config_.supervise_interval_s));
  std::unique_lock lock(supervisor_mutex_);
  while (!supervisor_stop_.load(std::memory_order_acquire)) {
    supervisor_cv_.wait_for(lock, interval, [this] {
      return supervisor_stop_.load(std::memory_order_acquire);
    });
    if (supervisor_stop_.load(std::memory_order_acquire)) {
      break;
    }
    const double now_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    lock.unlock();
    tick(now_s);
    lock.lock();
  }
}

void Fleet::drain() {
  {
    std::lock_guard lock(drain_mutex_);
    if (drained_) {
      return;
    }
    drained_ = true;
  }
  if (supervisor_.joinable()) {
    supervisor_stop_.store(true, std::memory_order_release);
    supervisor_cv_.notify_all();
    supervisor_.join();
  }
  std::lock_guard lock(nodes_mutex_);
  for (auto& [id, node] : nodes_) {
    router_.remove_node(id);
    if (node->state == NodeState::kLive) {
      fold_node_locked(*node, NodeState::kRetired);
      node_retires_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  nodes_.clear();
  if (telemetry::enabled()) {
    fleet_metrics().nodes.set(0.0);
  }
}

int Fleet::live_nodes_locked() const {
  int live = 0;
  for (const auto& [id, node] : nodes_) {
    if (node->state == NodeState::kLive) {
      ++live;
    }
  }
  return live;
}

int Fleet::live_nodes() const {
  std::lock_guard lock(nodes_mutex_);
  return live_nodes_locked();
}

FleetStats Fleet::stats() const {
  FleetStats s;
  s.node_spawns = node_spawns_.load(std::memory_order_relaxed);
  s.node_retires = node_retires_.load(std::memory_order_relaxed);
  s.node_deaths = node_deaths_.load(std::memory_order_relaxed);
  s.scale_ups = scale_ups_.load(std::memory_order_relaxed);
  s.scale_downs = scale_downs_.load(std::memory_order_relaxed);
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.shed_no_node = shed_no_node_.load(std::memory_order_relaxed);
  s.shed_class = shed_class_.load(std::memory_order_relaxed);
  s.shed_node = shed_node_.load(std::memory_order_relaxed);
  s.shed = s.shed_no_node + s.shed_class + s.shed_node;
  s.reroutes = reroutes_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.slo_violations = slo_violations_.load(std::memory_order_relaxed);
  s.router = router_.stats();

  {
    std::lock_guard lock(nodes_mutex_);
    s.nodes = live_nodes_locked();
    for (const auto& [id, node] : nodes_) {
      if (node->state != NodeState::kLive) {
        continue;  // dead/retired books are in the folds
      }
      const serving::ServerStats ns = node->server->stats();
      s.node_accepted += ns.accepted;
      s.node_completed += ns.completed;
      s.node_failed += ns.failed;
      s.node_shed += ns.shed;
      s.ledger = s.ledger + ns.ledger;  // nonzero only once drained
    }
  }
  {
    std::lock_guard lock(fold_mutex_);
    s.node_accepted += folded_accepted_;
    s.node_completed += folded_completed_;
    s.node_failed += folded_failed_;
    s.node_shed += folded_shed_;
    s.ledger = s.ledger + folded_ledger_;
  }

  // Fleet-wide exact percentiles: merge every tenant population plus the
  // untenanted remainder into one recorder (order statistics survive the
  // merge; averaging per-tenant p99s would not).
  serving::LatencyRecorder all;
  {
    std::vector<std::shared_ptr<TenantAccount>> accounts;
    {
      std::lock_guard lock(tenants_mutex_);
      accounts.reserve(tenants_by_key_.size());
      for (const auto& [key, acct] : tenants_by_key_) {
        accounts.push_back(acct);
      }
    }
    for (const auto& acct : accounts) {
      all.merge(acct->sojourn);
    }
  }
  all.merge(untenanted_sojourn_);
  s.sojourn = all.summary();
  return s;
}

std::vector<TenantStats> Fleet::tenant_stats() const {
  std::vector<std::shared_ptr<TenantAccount>> accounts;
  {
    std::lock_guard lock(tenants_mutex_);
    accounts.reserve(tenants_by_key_.size());
    for (const auto& [key, acct] : tenants_by_key_) {
      accounts.push_back(acct);
    }
  }
  std::vector<TenantStats> out;
  out.reserve(accounts.size());
  for (const auto& acct : accounts) {
    TenantStats t;
    t.name = acct->spec.name;
    t.klass = acct->spec.klass;
    t.key = acct->key;
    t.submitted = acct->submitted.load(std::memory_order_relaxed);
    t.accepted = acct->accepted.load(std::memory_order_relaxed);
    t.shed = acct->shed.load(std::memory_order_relaxed);
    t.completed = acct->completed.load(std::memory_order_relaxed);
    t.failed = acct->failed.load(std::memory_order_relaxed);
    t.slo_violations = acct->slo_violations.load(std::memory_order_relaxed);
    t.sojourn = acct->sojourn.summary();
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<telemetry::CounterSample> Fleet::counter_readings() const {
  const auto load = [](const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  std::vector<telemetry::CounterSample> out = {
      {"trident_fleet_node_spawns_total", "nodes spawned (initial + scale-up)",
       load(node_spawns_)},
      {"trident_fleet_node_retires_total",
       "nodes drain-retired cleanly (scale-down, drain)", load(node_retires_)},
      {"trident_fleet_node_deaths_total",
       "whole-node deaths detected (every replica dead)", load(node_deaths_)},
      {"trident_fleet_requests_submitted_total",
       "requests offered to the fleet", load(submitted_)},
      {"trident_fleet_requests_accepted_total",
       "requests admitted into some node's queue", load(accepted_)},
      {"trident_fleet_requests_shed_total",
       "requests shed at the fleet front door (no node, class watermark, "
       "node admission)",
       load(shed_no_node_) + load(shed_class_) + load(shed_node_)},
      {"trident_fleet_requests_completed_total",
       "responses completed across all nodes (fleet hook)", load(completed_)},
      {"trident_fleet_requests_failed_total",
       "explicit kFailed responses across all nodes (fleet hook)",
       load(failed_)},
      {"trident_fleet_reroutes_total",
       "submissions rerouted off a draining or dead node", load(reroutes_)},
      {"trident_fleet_slo_violations_total",
       "responses past their tenant-class deadline", load(slo_violations_)},
      {"trident_fleet_scale_ups_total", "autoscaler scale-up actions applied",
       load(scale_ups_)},
      {"trident_fleet_scale_downs_total",
       "autoscaler scale-down actions applied", load(scale_downs_)},
  };
  // Per-tenant families.  No-label registries mangle the tenant into the
  // metric name, so two tenants whose names sanitize identically report
  // the same names and the registry sums them into one family (documented
  // in docs/fleet.md).
  std::lock_guard lock(tenants_mutex_);
  for (const auto& [name, acct] : tenants_by_name_) {
    const std::string base = "trident_tenant_" + sanitize(name) + "_";
    out.push_back({base + "requests_submitted_total",
                   "requests offered by tenant " + name,
                   load(acct->submitted)});
    out.push_back({base + "requests_accepted_total",
                   "requests admitted for tenant " + name,
                   load(acct->accepted)});
    out.push_back({base + "requests_shed_total",
                   "requests shed for tenant " + name, load(acct->shed)});
    out.push_back({base + "requests_completed_total",
                   "responses completed for tenant " + name,
                   load(acct->completed)});
    out.push_back({base + "requests_failed_total",
                   "kFailed responses for tenant " + name,
                   load(acct->failed)});
    out.push_back({base + "slo_violations_total",
                   "class-deadline misses for tenant " + name,
                   load(acct->slo_violations)});
  }
  return out;
}

std::vector<NodeStatus> Fleet::node_status() const {
  std::lock_guard lock(nodes_mutex_);
  std::vector<NodeStatus> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) {
    NodeStatus st;
    st.id = id;
    st.dead = node->state == NodeState::kDead;
    st.queue_depth = node->server->queue_depth();
    const serving::ServerStats ns = node->server->stats();
    st.accepted = ns.accepted;
    st.completed = ns.completed;
    out.push_back(st);
  }
  return out;
}

}  // namespace trident::fleet
