#include "serving/server.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace trident::serving {

namespace {

[[nodiscard]] std::vector<double> batch_size_buckets() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};
}

struct ServerMetrics {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  telemetry::Gauge& healthy =
      reg.gauge("trident_serving_replicas_healthy",
                "replicas currently idle or serving");
  telemetry::Histogram& queue_wait = reg.histogram(
      "trident_serving_queue_wait_seconds",
      telemetry::duration_buckets_seconds(), "admission to batch cut");
  telemetry::Histogram& batch_form = reg.histogram(
      "trident_serving_batch_form_seconds",
      telemetry::duration_buckets_seconds(),
      "batch-formation window: oldest member's admission to the cut");
  telemetry::Histogram& service = reg.histogram(
      "trident_serving_service_seconds",
      telemetry::duration_buckets_seconds(),
      "batched forward pass on the replica");
  telemetry::Histogram& sojourn = reg.histogram(
      "trident_serving_sojourn_seconds",
      telemetry::duration_buckets_seconds(),
      "admission to response ready (queue wait + service)");
  telemetry::Histogram& batch_size =
      reg.histogram("trident_serving_batch_size", batch_size_buckets(),
                    "requests per served micro-batch");
  telemetry::Gauge& p50 = reg.gauge("trident_serving_sojourn_p50_seconds",
                                    "exact median sojourn so far");
  telemetry::Gauge& p99 = reg.gauge("trident_serving_sojourn_p99_seconds",
                                    "exact p99 sojourn so far");
  telemetry::Histogram& swap_latency = reg.histogram(
      "trident_serving_weight_swap_latency_seconds",
      telemetry::duration_buckets_seconds(),
      "hot_swap publication to a replica's adoption");
  telemetry::Gauge& weights_version =
      reg.gauge("trident_serving_weights_version",
                "version of the most recently published weights");
  telemetry::Gauge& canary_version =
      reg.gauge("trident_serving_canary_version",
                "live canary publication sequence (0 = none active)");
};

ServerMetrics& server_metrics() {
  static ServerMetrics m;
  return m;
}

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] bool row_finite(std::span<const double> row) {
  for (double v : row) {
    if (!std::isfinite(v)) {
      return false;
    }
  }
  return true;
}

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Canary arm selection: a pure function of (trace id, percent), so the
/// arm a request rides is fixed at admission — stable across retries and
/// replica hops, deterministic under a fixed submission order, and
/// greppable from any trace or flight dump by the same arithmetic.
[[nodiscard]] bool route_to_canary(std::uint64_t trace_id,
                                   std::uint32_t percent) {
  if (percent == 0) {
    return false;
  }
  if (percent >= 100) {
    return true;
  }
  return splitmix64(trace_id) % 100 < percent;
}

}  // namespace

Server::Server(const nn::Mlp& model, const ServerConfig& config)
    : config_(config),
      input_dim_(model.layer_sizes().front()),
      queue_(config.admission) {
  TRIDENT_REQUIRE(config.replicas >= 1, "need at least one replica");
  TRIDENT_REQUIRE(config.max_batch >= 1, "max_batch must be positive");
  TRIDENT_REQUIRE(config.max_wait.count() >= 0,
                  "max_wait must be non-negative");
  TRIDENT_REQUIRE(config.slo_target_s >= 0.0,
                  "slo_target_s must be non-negative");
  TRIDENT_REQUIRE(config.max_attempts >= 1,
                  "max_attempts must be at least one");
  TRIDENT_REQUIRE(config.max_restarts >= 0,
                  "max_restarts must be non-negative");
  // Version 0 = the init model; hot_swap bumps from here.  Publishing it
  // up front means restarts and adoption checks never see a null pointer.
  // The plan is the publication: a shared one when the caller pre-compiled
  // (fleet), compiled here otherwise.
  std::shared_ptr<const nn::ExecutionPlan> plan = config_.initial_plan;
  if (plan != nullptr) {
    TRIDENT_REQUIRE(plan->matches(model),
                    "initial_plan does not match the serving model");
    TRIDENT_REQUIRE(plan->config().weight_bits == plan_config().weight_bits,
                    "initial_plan weight grid does not match the server");
  } else {
    plan = nn::ExecutionPlan::compile(model, plan_config());
  }
  published_ = std::make_shared<const PublishedModel>(
      PublishedModel{0, now_ns(), plan});
  if (config_.flight.enabled) {
    flight_ = std::make_unique<FlightRecorder>(config_.flight);
  }
  replicas_.reserve(static_cast<std::size_t>(config.replicas));
  for (int r = 0; r < config.replicas; ++r) {
    auto replica = std::make_unique<Replica>(r);
    replica->backend = make_backend(r, 0);
    replica->plan = plan;
    replicas_.push_back(std::move(replica));
  }
  for (auto& replica : replicas_) {
    start_worker(*replica);
  }
  supervisor_ = std::thread([this] { supervisor_loop(); });
  if (telemetry::enabled()) {
    server_metrics().healthy.set(static_cast<double>(config.replicas));
  }
  collector_ = telemetry::MetricsRegistry::global().add_collector(
      [this] { return counter_readings(); });
}

Server::~Server() { drain(); }

ReplicaBackend Server::make_backend(int replica, int incarnation) const {
  core::PhotonicBackendConfig backend_cfg = config_.backend;
  // Independent noise stream per (replica, incarnation): counter-based
  // split, the same idiom the Monte-Carlo sweeps use.  A restarted
  // replica never replays its predecessor's stream.
  backend_cfg.seed = Rng(config_.backend.seed)
                         .split(static_cast<std::uint64_t>(replica))
                         .split(static_cast<std::uint64_t>(incarnation))
                         .seed();
  if (config_.backend_factory) {
    return config_.backend_factory(replica, incarnation, backend_cfg);
  }
  auto backend = std::make_unique<core::PhotonicBackend>(backend_cfg);
  core::PhotonicBackend* raw = backend.get();
  ReplicaBackend rb;
  rb.backend = std::move(backend);
  rb.ledger = [raw] { return raw->ledger(); };
  if (config_.enable_fast_tier) {
    // The quantized tier is deterministic, so unlike the exact backend it
    // needs no per-incarnation seed split; its level-read bill flows into
    // the same aggregate ledger through fast_ledger.
    auto fast = std::make_unique<core::QuantizedBackend>(config_.fast_backend);
    core::QuantizedBackend* fast_raw = fast.get();
    rb.fast = std::move(fast);
    rb.fast_ledger = [fast_raw] { return fast_raw->ledger(); };
  }
  return rb;
}

void Server::start_worker(Replica& replica) {
  heartbeat(replica);
  replica.state.store(ReplicaState::kIdle, std::memory_order_release);
  replica.worker = std::thread([this, rep = &replica] { worker_loop(*rep); });
}

std::optional<std::future<Response>> Server::submit(nn::Vector input,
                                                    ServingTier tier) {
  SubmitOptions options;
  options.tier = tier;
  return submit(std::move(input), options);
}

std::optional<std::future<Response>> Server::submit(nn::Vector input,
                                                    Clock::time_point deadline,
                                                    ServingTier tier) {
  SubmitOptions options;
  options.deadline = deadline;
  options.tier = tier;
  return submit(std::move(input), options);
}

std::optional<std::future<Response>> Server::submit(
    nn::Vector input, const SubmitOptions& options) {
  const Clock::time_point deadline = options.deadline;
  const ServingTier tier = options.tier;
  const bool wide = static_cast<int>(input.size()) == input_dim_;
  const bool finite = std::all_of(input.begin(), input.end(),
                                  [](double v) { return std::isfinite(v); });
  if (!wide || !finite) {
    // Refused before an id is minted: a NaN would otherwise reach the DAC,
    // which quantizes it to level 0, and be served kOk as if it were 0.0.
    rejected_inputs_.fetch_add(1, std::memory_order_relaxed);
    TRIDENT_REQUIRE(wide, "input width " + std::to_string(input.size()) +
                              " does not match the model input " +
                              std::to_string(input_dim_));
    TRIDENT_REQUIRE(finite, "input holds a NaN or an infinity");
  }
  const std::uint64_t index =
      submitted_.fetch_add(1, std::memory_order_relaxed);
  if (config_.admission_blip && config_.admission_blip(index)) {
    unqueued_shed_.fetch_add(1, std::memory_order_relaxed);
    flight_observe_shed(next_id_.fetch_add(1, std::memory_order_relaxed),
                        tier);
    return std::nullopt;
  }
  Request request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.input = std::move(input);
  request.tier = tier;
  request.tenant_key = options.tenant_key;
  // Trace identity is minted here, at admission — id + 1, so trace id 0
  // keeps meaning "untraced" and a fixed submission order reproduces the
  // same trace ids (what makes flight-recorder dumps seed-deterministic).
  request.trace.trace_id = request.id + 1;
  if (deadline != Clock::time_point{}) {
    request.deadline = deadline;
    if (deadline <= Clock::now()) {
      // Already hopeless at admission: the SLO is blown before any queueing
      // or service happened.  Count it here, once.
      request.deadline_violation_counted = true;
      slo_violations_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::future<Response> future = request.promise.get_future();
  const std::uint64_t shed_id = request.id;
  const AdmitResult admit = queue_.push(request);
  if (admit != AdmitResult::kAccepted) {
    if (admit == AdmitResult::kClosed) {
      // The queue books its own overload sheds; a closed queue counts none.
      unqueued_shed_.fetch_add(1, std::memory_order_relaxed);
    }
    flight_observe_shed(shed_id, tier);
    return std::nullopt;
  }
  return future;
}

void Server::flight_observe_shed(std::uint64_t id, ServingTier tier) {
  if (!flight_) {
    return;
  }
  FlightRecord rec;
  rec.trace_id = id + 1;
  rec.request_id = id;
  rec.outcome = "shed";
  rec.tier = tier;
  rec.attempts = 0;
  flight_->observe(std::move(rec));
}

void Server::flight_autodump(std::string_view reason) {
  if (!flight_ || config_.flight.dump_path.empty()) {
    return;
  }
  try {
    flight_->dump(config_.flight.dump_path, reason);
  } catch (const std::exception&) {
    // A postmortem must never take the serving runtime down with it; a
    // failed dump (unwritable path) leaves the previous artifact intact.
  }
}

void Server::heartbeat(Replica& replica) const {
  replica.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
}

void Server::worker_loop(Replica& replica) {
  for (;;) {
    replica.state.store(ReplicaState::kIdle, std::memory_order_release);
    heartbeat(replica);
    std::vector<Request> batch =
        queue_.pop_batch(config_.max_batch, config_.max_wait);
    if (batch.empty()) {
      return;  // queue closed and drained
    }
    // Batch boundary: the only place weights may change, so no request in
    // the batch about to be served can observe a torn or mid-swap model.
    maybe_adopt_weights(replica);
    replica.state.store(ReplicaState::kServing, std::memory_order_release);
    heartbeat(replica);
    const bool alive = serve_batch(replica, batch);
    heartbeat(replica);
    replica.stall_flagged.store(false, std::memory_order_relaxed);
    if (!alive) {
      // Hardware gone: hand the replica to the supervisor and exit.
      replica.state.store(ReplicaState::kDead, std::memory_order_release);
      deaths_.fetch_add(1, std::memory_order_relaxed);
      death_pending_.store(true, std::memory_order_release);
      supervisor_cv_.notify_all();
      return;
    }
  }
}

bool Server::serve_batch(Replica& replica, std::vector<Request>& batch) {
  const Clock::time_point formed = Clock::now();
  const std::size_t n = batch.size();
  batches_.fetch_add(1, std::memory_order_relaxed);
  replica.batches.fetch_add(1, std::memory_order_relaxed);

  const bool telem = telemetry::enabled();
  if (telem) {
    ServerMetrics& m = server_metrics();
    m.batch_size.observe(static_cast<double>(n));
    Clock::time_point oldest = batch.front().admitted;
    for (const Request& r : batch) {
      oldest = std::min(oldest, r.admitted);
      m.queue_wait.observe(seconds_between(r.admitted, formed));
    }
    m.batch_form.observe(seconds_between(oldest, formed));
  }
  for (const Request& r : batch) {
    queue_wait_.record(seconds_between(r.admitted, formed));
  }

  // (Tier × arm) split: a batch may mix fast and exact requests, and — when
  // a canary this replica has adopted is live — incumbent- and
  // canary-routed ones.  Each combination runs as one forward pass with the
  // right weights on the right backend, so no request can ever see a torn
  // mix of the two weight sets.  kFast degrades to exact — counted, and
  // visible in the response — when the replica has no quantized tier.
  const bool canary_live =
      replica.canary_seen != 0 && replica.canary_plan != nullptr;
  const std::uint32_t percent = canary_live ? replica.canary_percent : 0;
  struct Group {
    std::vector<Request> requests;
    ServingTier tier = ServingTier::kExact;
    bool canary = false;
  };
  std::array<Group, 4> groups;  // [exact/inc, exact/can, fast/inc, fast/can]
  groups[1].canary = true;
  groups[2].tier = ServingTier::kFast;
  groups[3].tier = ServingTier::kFast;
  groups[3].canary = true;
  for (Request& r : batch) {
    const bool fast = r.tier == ServingTier::kFast &&
                      replica.backend.fast != nullptr;
    if (r.tier == ServingTier::kFast && !fast) {
      fast_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
    const bool canary = canary_live && route_to_canary(r.trace.trace_id,
                                                       percent);
    groups[(fast ? 2u : 0u) + (canary ? 1u : 0u)].requests.push_back(
        std::move(r));
  }
  batch.clear();

  const int incarnation = replica.incarnation.load(std::memory_order_relaxed);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    Group& group = groups[g];
    if (group.requests.empty()) {
      continue;
    }
    nn::MatvecBackend& backend = group.tier == ServingTier::kFast
                                     ? *replica.backend.fast
                                     : *replica.backend.backend;
    // A canary group runs the canary's plan, never the incumbent's.
    const nn::ExecutionPlan& plan =
        group.canary ? *replica.canary_plan : *replica.plan;
    const std::uint64_t version =
        group.canary ? replica.canary_seen : replica.weights_seen;
    if (!serve_group(replica, group.requests, plan, backend, group.tier,
                     group.canary, version, formed, n)) {
      // Hardware died under this pass: the rest of the batch has nowhere
      // to run on this replica either — requeue it alongside.
      for (std::size_t rest = g + 1; rest < groups.size(); ++rest) {
        for (Request& r : groups[rest].requests) {
          retry_or_fail(std::move(r),
                        "replica " + std::to_string(replica.index) +
                            " died before this share of its batch",
                        replica.index, incarnation);
        }
      }
      return false;
    }
  }
  return true;
}

bool Server::serve_group(Replica& replica, std::vector<Request>& group,
                         const nn::ExecutionPlan& plan,
                         nn::MatvecBackend& backend, ServingTier served,
                         bool canary_arm, std::uint64_t served_version,
                         Clock::time_point formed, std::size_t cut_size) {
  const std::size_t n = group.size();
  const bool telem = telemetry::enabled();
  const int incarnation = replica.incarnation.load(std::memory_order_relaxed);
  try {
    nn::Matrix x(n, static_cast<std::size_t>(input_dim_));
    for (std::size_t b = 0; b < n; ++b) {
      auto row = x.row(b);
      std::copy(group[b].input.begin(), group[b].input.end(), row.begin());
    }

    // The batch span adopts the head request's trace (a batch serves many
    // traces; the head names the tree it renders under), and the TraceScope
    // makes every span built inside the plan run — the plan span, GEMM
    // dispatch — a child of this batch span with zero changes at those
    // sites.
    std::optional<telemetry::Span> span;
    std::optional<telemetry::TraceScope> scope;
    telemetry::TraceContext batch_ctx;
    if (telem) {
      span.emplace("serving/batch" + std::to_string(n) + "/replica" +
                       std::to_string(replica.index) +
                       (served == ServingTier::kFast ? "/fast" : ""),
                   "serving", group.front().trace,
                   "\"replica\":" + std::to_string(replica.index) +
                       ",\"incarnation\":" + std::to_string(incarnation) +
                       ",\"batch\":" + std::to_string(n) + ",\"tier\":\"" +
                       (served == ServingTier::kFast ? "fast" : "exact") +
                       "\"");
      batch_ctx = span->context();
      scope.emplace(batch_ctx);
    }
    const Clock::time_point start = Clock::now();
    const nn::Matrix& logits = plan.run(backend, x, replica.arena);
    const Clock::time_point done = Clock::now();
    scope.reset();
    span.reset();

    const double service_s = seconds_between(start, done);
    for (std::size_t b = 0; b < n; ++b) {
      if (!row_finite(logits.row(b))) {
        // Silent-corruption scrub: a non-finite row never reaches the
        // caller; the request goes back for another attempt.
        retry_or_fail(std::move(group[b]),
                      "non-finite output from replica " +
                          std::to_string(replica.index),
                      replica.index, incarnation);
        continue;
      }
      Response response;
      response.id = group[b].id;
      response.trace_id = group[b].trace.trace_id;
      response.tenant_key = group[b].tenant_key;
      const auto row = logits.row(b);
      response.output.assign(row.begin(), row.end());
      response.batch_size = cut_size;
      response.replica = replica.index;
      response.attempts = group[b].attempts + 1;
      response.tier = served;
      response.weights_version = served_version;
      response.canary = canary_arm;
      response.timing.queue_wait_s = seconds_between(group[b].admitted, formed);
      response.timing.service_s = service_s;
      response.timing.sojourn_s = seconds_between(group[b].admitted, done);

      service_.record(service_s);
      sojourn_.record(response.timing.sojourn_s);
      bool violated = config_.slo_target_s > 0.0 &&
                      response.timing.sojourn_s > config_.slo_target_s;
      if (group[b].deadline.has_value()) {
        response.deadline_missed = group[b].deadline_violation_counted ||
                                   done > *group[b].deadline;
        // A miss already billed at admission is not billed again.
        if (response.deadline_missed && !group[b].deadline_violation_counted) {
          violated = true;
        }
      }
      if (violated) {
        slo_violations_.fetch_add(1, std::memory_order_relaxed);
      }
      completed_.fetch_add(1, std::memory_order_relaxed);
      // Dispatch accounting at fulfil time, so the two tier counters
      // partition completed responses exactly.
      if (served == ServingTier::kFast) {
        quantized_dispatches_.fetch_add(1, std::memory_order_relaxed);
      } else {
        exact_dispatches_.fetch_add(1, std::memory_order_relaxed);
      }
      // The arm counters partition completed responses exactly the same
      // way the tier counters do — canary + incumbent == completed is a
      // checked invariant.
      if (canary_arm) {
        canary_dispatches_.fetch_add(1, std::memory_order_relaxed);
      } else {
        incumbent_dispatches_.fetch_add(1, std::memory_order_relaxed);
      }
      if (telem) {
        ServerMetrics& m = server_metrics();
        m.service.observe(service_s);
        m.sojourn.observe(response.timing.sojourn_s);
        // Retro-dated per-request phases with the request's OWN trace id
        // (the batch span carries the head's): queue wait measured from
        // admission to the batch cut, then the service attempt.  Together
        // with the retry events these render one request as a single
        // causal tree in Perfetto.
        telemetry::TraceBuffer& tb = telemetry::TraceBuffer::global();
        telemetry::TraceEvent qe;
        qe.name = "request/queue_wait";
        qe.category = "serving";
        qe.ts_us = tb.to_us(group[b].admitted);
        qe.dur_us = response.timing.queue_wait_s * 1e6;
        qe.trace_id = group[b].trace.trace_id;
        qe.args = "\"id\":" + std::to_string(group[b].id) +
                  ",\"attempt\":" + std::to_string(response.attempts);
        tb.record(std::move(qe));
        telemetry::TraceEvent se;
        se.name = "request/serve";
        se.category = "serving";
        se.ts_us = tb.to_us(start);
        se.dur_us = service_s * 1e6;
        se.trace_id = group[b].trace.trace_id;
        se.parent_id = batch_ctx.trace_id == group[b].trace.trace_id
                           ? batch_ctx.span_id
                           : 0;
        se.args = "\"id\":" + std::to_string(group[b].id) +
                  ",\"replica\":" + std::to_string(replica.index) +
                  ",\"incarnation\":" + std::to_string(incarnation) +
                  ",\"attempt\":" + std::to_string(response.attempts) +
                  ",\"tier\":\"" +
                  (served == ServingTier::kFast ? "fast" : "exact") + "\"";
        tb.record(std::move(se));
      }
      if (flight_) {
        FlightRecord rec;
        rec.trace_id = group[b].trace.trace_id;
        rec.request_id = group[b].id;
        rec.outcome = "ok";
        rec.tier = served;
        rec.tier_fallback =
            group[b].tier == ServingTier::kFast && served == ServingTier::kExact;
        rec.attempts = response.attempts;
        rec.replica = replica.index;
        rec.incarnation = incarnation;
        rec.batch_size = cut_size;
        rec.slo_violated =
            violated || group[b].deadline_violation_counted;
        rec.deadline_missed = response.deadline_missed;
        rec.attempt_log = std::move(group[b].attempt_log);
        rec.timing = response.timing;
        flight_->observe(std::move(rec));
      }
      if (config_.on_response) {
        config_.on_response(response);
      }
      group[b].promise.set_value(std::move(response));
    }
    return true;
  } catch (const HardwareFailure& hf) {
    // The replica is gone.  Its batch is not at fault per se, but each
    // member still burns one attempt — a request that keeps landing on
    // dying hardware must eventually resolve.
    for (Request& r : group) {
      retry_or_fail(std::move(r), hf.what(), replica.index, incarnation);
    }
    return false;
  } catch (const std::exception& e) {
    for (Request& r : group) {
      retry_or_fail(std::move(r), e.what(), replica.index, incarnation);
    }
    return true;
  } catch (...) {
    for (Request& r : group) {
      retry_or_fail(std::move(r), "unknown error", replica.index, incarnation);
    }
    return true;
  }
}

void Server::retry_or_fail(Request&& r, const std::string& why, int replica,
                           int incarnation) {
  ++r.attempts;
  // The spent attempt joins the request's history either way: a kFailed
  // response and a flight record both carry the full cross-incarnation
  // hop list.
  r.attempt_log.push_back(AttemptNote{replica, incarnation, why});
  if (r.attempts >= config_.max_attempts) {
    fail_request(std::move(r), why);
    return;
  }
  retries_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    // The retry edge: an instant-like event on the request's trace naming
    // the attempt that failed and where it failed.
    telemetry::TraceBuffer& tb = telemetry::TraceBuffer::global();
    telemetry::TraceEvent ev;
    ev.name = "request/retry";
    ev.category = "serving";
    ev.ts_us = tb.now_us();
    ev.dur_us = 0.0;
    ev.trace_id = r.trace.trace_id;
    ev.args = "\"id\":" + std::to_string(r.id) +
              ",\"attempt\":" + std::to_string(r.attempts) +
              ",\"replica\":" + std::to_string(replica) +
              ",\"incarnation\":" + std::to_string(incarnation) +
              ",\"error\":\"" + telemetry::json_escape(why) + "\"";
    tb.record(std::move(ev));
  }
  queue_.requeue(std::move(r));
}

void Server::fail_request(Request&& r, const std::string& why) {
  const Clock::time_point now = Clock::now();
  Response response;
  response.id = r.id;
  response.trace_id = r.trace.trace_id;
  response.tenant_key = r.tenant_key;
  response.status = ResponseStatus::kFailed;
  response.attempts = r.attempts;
  response.error = why;
  response.timing.sojourn_s = seconds_between(r.admitted, now);
  if (r.deadline.has_value()) {
    response.deadline_missed = now > *r.deadline;
  }
  failed_.fetch_add(1, std::memory_order_relaxed);
  if (flight_) {
    FlightRecord rec;
    rec.trace_id = r.trace.trace_id;
    rec.request_id = r.id;
    rec.outcome = "failed";
    rec.tier = r.tier;
    rec.attempts = r.attempts;
    rec.deadline_missed = response.deadline_missed;
    rec.attempt_log = std::move(r.attempt_log);
    rec.timing = response.timing;
    flight_->observe(std::move(rec));
  }
  if (config_.on_response) {
    config_.on_response(response);
  }
  r.promise.set_value(std::move(response));
}

void Server::supervisor_loop() {
  std::unique_lock lock(supervisor_mutex_);
  for (;;) {
    supervisor_cv_.wait_for(lock, config_.supervision_interval, [&] {
      return supervisor_stop_.load(std::memory_order_acquire) ||
             death_pending_.load(std::memory_order_acquire);
    });
    if (supervisor_stop_.load(std::memory_order_acquire)) {
      return;
    }
    death_pending_.store(false, std::memory_order_release);
    // Restart scan.  Safe without extra locking: only the supervisor
    // touches a dead replica's thread/plan/backend, and the worker that
    // set kDead has already returned (join() below synchronises with it).
    std::size_t healthy = 0;
    for (auto& replica : replicas_) {
      const ReplicaState state =
          replica->state.load(std::memory_order_acquire);
      if (state == ReplicaState::kDead) {
        // Postmortem first: the dump captures the ring as the death left
        // it, before the restarted incarnation's traffic dilutes it.
        flight_autodump("replica_death");
        if (config_.restart_dead_replicas && !queue_.closed() &&
            replica->incarnation.load(std::memory_order_relaxed) <
                config_.max_restarts) {
          restart_replica(*replica);
          ++healthy;
        } else {
          if (replica->worker.joinable()) {
            replica->worker.join();
          }
          replica->state.store(ReplicaState::kRetired,
                               std::memory_order_release);
        }
        continue;
      }
      if (state == ReplicaState::kIdle || state == ReplicaState::kServing) {
        ++healthy;
        // Stall detection: only a replica actively serving can be stuck;
        // an idle one parks in pop_batch legitimately.
        if (state == ReplicaState::kServing) {
          const double age_s =
              static_cast<double>(
                  now_ns() -
                  replica->heartbeat_ns.load(std::memory_order_relaxed)) *
              1e-9;
          const double threshold_s =
              std::chrono::duration<double>(config_.stall_threshold).count();
          if (age_s > threshold_s &&
              !replica->stall_flagged.exchange(true,
                                               std::memory_order_relaxed)) {
            stalls_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
    if (telemetry::enabled()) {
      server_metrics().healthy.set(static_cast<double>(healthy));
    }
  }
}

void Server::hot_swap(const nn::Mlp& model) {
  TRIDENT_REQUIRE(published_plan()->matches(model),
                  "hot_swap model architecture does not match the server");
  // Compile before taking swap_mutex_: the plan build walks every weight
  // panel, and serving workers block on this mutex at batch boundaries.
  publish_incumbent(nn::ExecutionPlan::compile(model, plan_config()));
}

std::shared_ptr<const nn::ExecutionPlan> Server::published_plan() const {
  std::lock_guard lock(swap_mutex_);
  return published_->plan;
}

void Server::publish_incumbent(std::shared_ptr<const nn::ExecutionPlan> plan) {
  {
    std::lock_guard lock(swap_mutex_);
    const std::uint64_t version = published_->version + 1;
    published_ = std::make_shared<const PublishedModel>(
        PublishedModel{version, now_ns(), std::move(plan)});
    // Release so a worker's acquire-load of the version observes the
    // pointer published above (the mutex alone would do; the atomic is the
    // lock-free fast path).
    weights_version_.store(version, std::memory_order_release);
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    server_metrics().weights_version.set(
        static_cast<double>(weights_version_.load(std::memory_order_relaxed)));
  }
}

std::uint64_t Server::canary_start(const nn::Mlp& candidate,
                                   std::uint32_t traffic_percent) {
  return canary_start(candidate, traffic_percent, nullptr);
}

std::uint64_t Server::canary_start(
    const nn::Mlp& candidate, std::uint32_t traffic_percent,
    std::shared_ptr<const nn::ExecutionPlan> plan) {
  TRIDENT_REQUIRE(published_plan()->matches(candidate),
                  "canary model architecture does not match the server");
  if (plan != nullptr) {
    TRIDENT_REQUIRE(plan->matches(candidate),
                    "canary plan does not match the candidate model");
    TRIDENT_REQUIRE(plan->config().weight_bits == plan_config().weight_bits,
                    "canary plan weight grid does not match the server");
  } else {
    plan = nn::ExecutionPlan::compile(candidate, plan_config());
  }
  const std::uint32_t percent = std::min<std::uint32_t>(traffic_percent, 100);
  std::uint64_t seq = 0;
  {
    std::lock_guard lock(swap_mutex_);
    if (canary_published_ != nullptr) {
      // One canary at a time: overlapping candidates would make the
      // per-version response stamp ambiguous.  The caller must resolve the
      // live one (canary_end) before publishing another.
      return 0;
    }
    seq = ++canary_seq_;
    canary_published_ = std::make_shared<const PublishedModel>(
        PublishedModel{seq, now_ns(), std::move(plan)});
    canary_percent_.store(percent, std::memory_order_relaxed);
    // Release pairs with the workers' acquire in maybe_adopt_weights: a
    // worker that observes the sequence also observes the pointer above.
    canary_version_.store(seq, std::memory_order_release);
  }
  canary_starts_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    server_metrics().canary_version.set(static_cast<double>(seq));
  }
  return seq;
}

bool Server::canary_end(bool promote) {
  std::shared_ptr<const PublishedModel> candidate;
  {
    std::lock_guard lock(swap_mutex_);
    if (canary_published_ == nullptr) {
      return false;
    }
    candidate = std::move(canary_published_);
    canary_published_.reset();
    canary_percent_.store(0, std::memory_order_relaxed);
    // Workers observing 0 clear their canary arm at the next batch
    // boundary; in-flight batches finish on whichever weights they started
    // with — still one definite version per response.
    canary_version_.store(0, std::memory_order_release);
  }
  if (promote) {
    // Outside the lock: publish_incumbent takes swap_mutex_ itself.
    // Promotion IS a hot_swap, so it inherits the never-torn publication
    // guarantee and bills re-programming through each replica's ledger on
    // adoption.  The candidate's plan is REUSED, not recompiled: the exact
    // object the canary arm was serving becomes the incumbent's, so the
    // promote path never pays a compile and the plan id is stable across
    // the promotion.
    publish_incumbent(candidate->plan);
    canary_promotes_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Rollback is pure bookkeeping: the incumbent was never displaced, so
    // restoring it is a no-op by construction.
    canary_rollbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  if (telemetry::enabled()) {
    server_metrics().canary_version.set(0.0);
  }
  return true;
}

void Server::maybe_adopt_weights(Replica& replica) {
  // Fast path: two acquire-loads; nothing to do while neither the
  // incumbent publication nor the canary stage moved.
  if (weights_version_.load(std::memory_order_acquire) ==
          replica.weights_seen &&
      canary_version_.load(std::memory_order_acquire) == replica.canary_seen) {
    return;
  }
  std::shared_ptr<const PublishedModel> published;
  std::shared_ptr<const PublishedModel> canary;
  std::uint32_t percent = 0;
  {
    std::lock_guard lock(swap_mutex_);
    published = published_;
    canary = canary_published_;
    percent = canary_percent_.load(std::memory_order_relaxed);
  }
  if (published->version != replica.weights_seen) {
    // The publication is immutable and shared: adoption is a pointer copy.
    // The new plan's weight addresses make the next forward's
    // ensure_programmed() re-program the GST bank — billing the swap's
    // write pulses through this replica's existing ledger.
    replica.plan = published->plan;
    replica.weights_seen = published->version;
    adoptions_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      server_metrics().swap_latency.observe(
          static_cast<double>(now_ns() - published->published_ns) * 1e-9);
    }
  }
  // Canary adoption/clearing happens at the same batch boundary, so a
  // worker can never serve half a batch on one candidate and half on
  // another: the (plan, percent, sequence) triple changes only here.
  const std::uint64_t canary_version = canary ? canary->version : 0;
  if (canary_version != replica.canary_seen) {
    if (canary) {
      replica.canary_plan = canary->plan;
      replica.canary_percent = percent;
    } else {
      replica.canary_plan.reset();
      replica.canary_percent = 0;
    }
    replica.canary_seen = canary_version;
  }
}

std::shared_ptr<const nn::ExecutionPlan> Server::restart_plan(
    std::uint64_t& seen_version) {
  std::shared_ptr<const PublishedModel> published;
  {
    std::lock_guard lock(swap_mutex_);
    published = published_;
  }
  seen_version = published->version;
  if (!config_.snapshot_path.empty()) {
    try {
      const state::Snapshot snap = state::Snapshot::load(config_.snapshot_path);
      const nn::Mlp restored = state::restore_model(snap.model);
      TRIDENT_REQUIRE(published->plan->matches(restored),
                      "snapshot model architecture does not match the server");
      // Snapshot weights are whatever the snapshot holds — generally NOT
      // the published weights — so this incarnation serves a private plan
      // of them until its next adoption.
      auto plan = nn::ExecutionPlan::compile(restored, plan_config());
      snapshot_restores_.fetch_add(1, std::memory_order_relaxed);
      return plan;
    } catch (const std::exception&) {
      // Missing/corrupt snapshot: degrade to the published weights rather
      // than refuse to heal — availability first, and the counter makes
      // the degradation observable.
      snapshot_restore_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return published->plan;
}

void Server::restart_replica(Replica& replica) {
  if (replica.worker.joinable()) {
    replica.worker.join();
  }
  // Fold the dead incarnation's hardware bill in before the backend is
  // replaced, so drain-time aggregation stays exact.  The snapshot's own
  // ledger (if any) is deliberately NOT folded in: those pulses belong to
  // the process that wrote the snapshot, and the dead incarnation's pulses
  // were just captured above — folding both would double-count.
  if (replica.backend.ledger || replica.backend.fast_ledger) {
    std::lock_guard ledger_lock(ledger_mutex_);
    if (replica.backend.ledger) {
      retired_ledger_ = retired_ledger_ + replica.backend.ledger();
    }
    if (replica.backend.fast_ledger) {
      retired_ledger_ = retired_ledger_ + replica.backend.fast_ledger();
    }
  }
  const int incarnation =
      replica.incarnation.fetch_add(1, std::memory_order_relaxed) + 1;
  // Heal with the non-volatile state, not the init seed: prefer the
  // configured snapshot, fall back to the latest hot-swapped weights.
  // weights_seen is pinned to the published version read at restore time
  // so the new incarnation is not immediately clobbered by a stale
  // publication, yet still adopts any later hot_swap.  Fresh RNG split
  // per incarnation, as before.
  std::uint64_t seen = 0;
  replica.plan = restart_plan(seen);
  replica.weights_seen = seen;
  // Canary state is NOT carried across the death: the fresh incarnation
  // re-adopts any still-live canary at its first batch boundary, so a
  // node killed mid-canary heals onto the current stage, not a stale one.
  replica.canary_plan.reset();
  replica.canary_seen = 0;
  replica.canary_percent = 0;
  replica.backend = make_backend(replica.index, incarnation);
  restarts_.fetch_add(1, std::memory_order_relaxed);
  start_worker(replica);
}

void Server::fail_leftovers() {
  for (;;) {
    std::vector<Request> leftovers =
        queue_.pop_batch(config_.max_batch, std::chrono::microseconds(0));
    if (leftovers.empty()) {
      return;
    }
    for (Request& r : leftovers) {
      // Not a retry: there is nowhere left to retry to.
      fail_request(std::move(r), "no replica available (all workers dead)");
    }
  }
}

void Server::drain() {
  std::lock_guard lock(drain_mutex_);
  if (drained_) {
    return;
  }
  queue_.close();
  // Stop the supervisor first: afterwards nobody else touches the worker
  // thread handles, so the joins below are race-free.  Replicas that die
  // during the drain stay dead (the closed queue disables restarts);
  // survivors finish the backlog.
  supervisor_stop_.store(true, std::memory_order_release);
  supervisor_cv_.notify_all();
  if (supervisor_.joinable()) {
    supervisor_.join();
  }
  for (auto& replica : replicas_) {
    if (replica->worker.joinable()) {
      replica->worker.join();
    }
  }
  // If every replica died mid-drain the queue may still hold accepted
  // requests; answer them explicitly so conservation holds.
  fail_leftovers();
  drained_ = true;
  publish_slo_gauges(sojourn_.summary());
  // Exit dump: the black box survives the process.
  flight_autodump("exit");
}

ServerStats Server::retire() {
  drain();
  // After drain() the books are final: admission is closed, every accepted
  // request has a terminal response, and stats() folds the retired ledgers
  // with the (now quiescent) live replica ledgers.
  return stats();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected_inputs = rejected_inputs_.load(std::memory_order_relaxed);
  s.accepted = queue_.accepted();
  s.shed = queue_.shed() + unqueued_shed_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.mean_batch = s.batches == 0 ? 0.0
                                : static_cast<double>(s.completed) /
                                      static_cast<double>(s.batches);
  s.sojourn = sojourn_.summary();
  s.queue_wait = queue_wait_.summary();
  s.service = service_.summary();
  s.slo_violations = slo_violations_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.replica_deaths = deaths_.load(std::memory_order_relaxed);
  s.replica_restarts = restarts_.load(std::memory_order_relaxed);
  s.stalls_detected = stalls_.load(std::memory_order_relaxed);
  s.weight_swaps = swaps_.load(std::memory_order_relaxed);
  s.swap_adoptions = adoptions_.load(std::memory_order_relaxed);
  s.snapshot_restores = snapshot_restores_.load(std::memory_order_relaxed);
  s.snapshot_restore_failures =
      snapshot_restore_failures_.load(std::memory_order_relaxed);
  s.quantized_dispatches = quantized_dispatches_.load(std::memory_order_relaxed);
  s.exact_dispatches = exact_dispatches_.load(std::memory_order_relaxed);
  s.fast_fallbacks = fast_fallbacks_.load(std::memory_order_relaxed);
  s.canary_starts = canary_starts_.load(std::memory_order_relaxed);
  s.canary_promotes = canary_promotes_.load(std::memory_order_relaxed);
  s.canary_rollbacks = canary_rollbacks_.load(std::memory_order_relaxed);
  s.canary_version = canary_version_.load(std::memory_order_relaxed);
  s.canary_dispatches = canary_dispatches_.load(std::memory_order_relaxed);
  s.incumbent_dispatches =
      incumbent_dispatches_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(drain_mutex_);
    if (drained_) {
      {
        std::lock_guard ledger_lock(ledger_mutex_);
        s.ledger = retired_ledger_;
      }
      for (const auto& replica : replicas_) {
        if (replica->backend.ledger) {
          s.ledger = s.ledger + replica->backend.ledger();
        }
        if (replica->backend.fast_ledger) {
          s.ledger = s.ledger + replica->backend.fast_ledger();
        }
      }
    }
  }
  publish_slo_gauges(s.sojourn);
  return s;
}

std::vector<telemetry::CounterSample> Server::counter_readings() const {
  const auto load = [](const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  std::vector<telemetry::CounterSample> out = {
      {"trident_serving_requests_submitted_total",
       "submit() calls past input validation (admitted, shed or refused)",
       load(submitted_)},
      {"trident_serving_rejected_inputs_total",
       "submit() calls refused before admission: wrong width, NaN or "
       "infinity",
       load(rejected_inputs_)},
      {"trident_serving_requests_accepted_total",
       "requests admitted into the serving queue", queue_.accepted()},
      {"trident_serving_requests_shed_total",
       "requests rejected by admission control", queue_.shed()},
      {"trident_serving_requests_completed_total",
       "requests served to completion", load(completed_)},
      {"trident_serving_requests_failed_total",
       "requests answered with an explicit kFailed response", load(failed_)},
      {"trident_serving_retries_total",
       "requests requeued after a transient fault or replica death",
       load(retries_)},
      {"trident_serving_batches_total", "micro-batches cut and served",
       load(batches_)},
      {"trident_serving_slo_violations_total",
       "responses slower than the configured sojourn SLO",
       load(slo_violations_)},
      {"trident_serving_replica_deaths_total",
       "workers lost to a HardwareFailure", load(deaths_)},
      {"trident_serving_replica_restarts_total",
       "supervisor restarts (new replica incarnations)", load(restarts_)},
      {"trident_serving_replica_stalls_total",
       "replicas flagged past the stall threshold", load(stalls_)},
      {"trident_serving_weight_swaps_total", "hot_swap weight publications",
       load(swaps_)},
      {"trident_serving_weight_swap_adoptions_total",
       "replica adoptions of published weights at batch bounds",
       load(adoptions_)},
      {"trident_serving_snapshot_restores_total",
       "replica restarts healed from the configured snapshot",
       load(snapshot_restores_)},
      {"trident_serving_snapshot_restore_failures_total",
       "snapshot restores that fell back to published weights",
       load(snapshot_restore_failures_)},
      // The tier pair and the arm pair each partition completed responses
      // exactly (quantized + exact == canary + incumbent == completed),
      // which the metrics validator checks.
      {"trident_quantized_dispatch_total",
       "responses served by the int8 quantized tier",
       load(quantized_dispatches_)},
      {"trident_exact_dispatch_total",
       "responses served by the exact device-model tier",
       load(exact_dispatches_)},
      {"trident_serving_fast_fallbacks_total",
       "kFast requests served exact (replica has no quantized tier)",
       load(fast_fallbacks_)},
      {"trident_canary_dispatch_total",
       "responses served by the candidate (canary) weights",
       load(canary_dispatches_)},
      {"trident_incumbent_dispatch_total",
       "responses served by the incumbent weights",
       load(incumbent_dispatches_)},
      {"trident_serving_canary_starts_total",
       "candidate weight sets published to the canary stage",
       load(canary_starts_)},
      {"trident_serving_canary_promotes_total",
       "canaries promoted to incumbent via hot_swap", load(canary_promotes_)},
      {"trident_serving_canary_rollbacks_total",
       "canaries rolled back (candidate discarded)", load(canary_rollbacks_)},
  };
  if (flight_) {
    out.push_back({"trident_flight_records_kept_total",
                   "request records retained by the flight recorder's tail "
                   "sampler",
                   flight_->kept()});
    out.push_back({"trident_flight_records_evicted_total",
                   "flight records evicted from the bounded ring",
                   flight_->evicted()});
    out.push_back({"trident_flight_dumps_total",
                   "flight-recorder postmortem dumps written",
                   flight_->dumps()});
  }
  return out;
}

std::vector<ReplicaHealth> Server::health() const {
  std::vector<ReplicaHealth> out;
  out.reserve(replicas_.size());
  const std::int64_t now = now_ns();
  for (const auto& replica : replicas_) {
    ReplicaHealth h;
    h.index = replica->index;
    h.state = replica->state.load(std::memory_order_acquire);
    h.incarnation = replica->incarnation.load(std::memory_order_relaxed);
    h.batches = replica->batches.load(std::memory_order_relaxed);
    h.heartbeat_age_s =
        static_cast<double>(
            now - replica->heartbeat_ns.load(std::memory_order_relaxed)) *
        1e-9;
    h.stalled = replica->stall_flagged.load(std::memory_order_relaxed);
    out.push_back(h);
  }
  return out;
}

void Server::publish_slo_gauges(const LatencySummary& sojourn) const {
  if (telemetry::enabled() && sojourn.count > 0) {
    ServerMetrics& m = server_metrics();
    m.p50.set(sojourn.p50_s);
    m.p99.set(sojourn.p99_s);
  }
}

}  // namespace trident::serving
