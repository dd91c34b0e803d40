// Multi-replica edge-serving runtime with replica self-healing.
//
// The Server owns N independent accelerator replicas — each one its own
// backend (by default a PhotonicBackend with weight banks, quantizers,
// noise stream, energy ledger) running the shared, immutable compiled
// ExecutionPlan of the published weights — and a shared admission-controlled
// request queue.  Each replica runs a worker thread in a simple loop:
//
//   pop_batch(max_batch, max_wait)   deadline-aware micro-batch cut
//   ExecutionPlan::run(...)          one batched GEMM pass per layer
//   fulfil promises                  responses carry the latency breakdown
//
// Batching exploits the amortised-ledger GEMM path directly: a batch of B
// requests pays input quantization and bookkeeping once per block instead
// of once per request, and the blocked kernels keep the weight row in
// cache across samples.  Because the backend's matmul is bit-identical to
// a loop of per-sample matvecs, a noise-free server produces outputs
// bit-identical to the sequential per-request path regardless of how
// requests were grouped into batches — the property the end-to-end test
// pins down.
//
// Failure handling is explicit and conservation-preserving; the chaos
// suite (src/chaos/) drives every path below with seeded fault plans:
//
//   * transient faults — a backend exception or a non-finite output row
//     requeues the affected requests at the queue head with a bounded
//     per-request retry budget (`max_attempts`); once the budget is spent
//     the promise is fulfilled with an explicit ResponseStatus::kFailed
//     degraded response.  Nothing admitted is ever silently dropped.
//   * replica death — a backend throwing trident::HardwareFailure kills
//     its replica: the in-flight batch is requeued, the worker exits, and
//     the supervisor thread restarts the replica on the published plan (or
//     the configured snapshot) with a fresh RNG-split backend (a new
//     incarnation), up to `max_restarts` times.
//   * stalls — workers stamp a heartbeat around every batch; the
//     supervisor flags replicas that sit in kServing past
//     `stall_threshold` (counted, surfaced via health()).
//
// Shutdown is graceful by construction: drain() closes admission, workers
// finish every accepted request, then join.  If every replica died and
// could not be restarted, drain() fails the leftover queue explicitly
// (kFailed, "no replica available") — the accepted == completed + failed
// conservation law holds in every fault scenario.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/photonic_backend.hpp"
#include "core/quantized_backend.hpp"
#include "nn/mlp.hpp"
#include "nn/plan.hpp"
#include "serving/flight_recorder.hpp"
#include "serving/request.hpp"
#include "serving/request_queue.hpp"
#include "serving/slo.hpp"
#include "state/snapshot.hpp"
#include "telemetry/metrics.hpp"

namespace trident::serving {

/// One replica's execution engine plus an optional hardware-bill accessor
/// (null when the backend keeps no ledger).  Produced by a BackendFactory.
/// `fast`/`fast_ledger` are the optional int8 quantized tier: when null,
/// kFast requests fall back to the exact backend (counted, and the response
/// reports the tier it really got).  Factories that only fill the first two
/// members keep working — the fast tier is simply absent.
struct ReplicaBackend {
  std::unique_ptr<nn::MatvecBackend> backend;
  std::function<core::PhotonicLedger()> ledger;
  std::unique_ptr<nn::MatvecBackend> fast;
  std::function<core::PhotonicLedger()> fast_ledger;
};

/// Builds the backend for (replica, incarnation).  `cfg` already carries
/// the per-incarnation split seed, so a default factory just constructs a
/// PhotonicBackend from it; decorators (FaultyBackend, chaos injection)
/// layer here without the Server knowing.
using BackendFactory = std::function<ReplicaBackend(
    int replica, int incarnation, const core::PhotonicBackendConfig& cfg)>;

struct ServerConfig {
  int replicas = 1;
  std::size_t max_batch = 8;
  /// Deadline-aware batch window: how long the head request waits for
  /// co-batchers before the batch is cut anyway.
  std::chrono::microseconds max_wait{200};
  AdmissionConfig admission;
  /// Per-replica backend; replica r (incarnation i) runs with seed
  /// split(split(seed, r), i) so every noise stream — including the ones
  /// born from a restart — is independent.
  core::PhotonicBackendConfig backend;
  /// Sojourn-time SLO in seconds; responses slower than this count as
  /// violations.  0 disables SLO accounting.
  double slo_target_s = 0.0;
  /// Service attempts per request before the degraded kFailed response.
  int max_attempts = 3;
  /// Restart replicas whose backend threw HardwareFailure.
  bool restart_dead_replicas = true;
  /// Restart budget per replica (incarnations beyond the first).
  int max_restarts = 8;
  /// Supervisor wake-up period (health scan cadence).
  std::chrono::microseconds supervision_interval{2'000};
  /// A replica stuck in kServing longer than this is flagged stalled.
  std::chrono::microseconds stall_threshold{100'000};
  /// Replacement backend builder; null uses the plain PhotonicBackend.
  BackendFactory backend_factory;
  /// Chaos hook: returns true to shed the i-th submit at admission (a
  /// seeded "admission blip").  Null disables.
  std::function<bool(std::uint64_t submit_index)> admission_blip;
  /// Attach the int8 quantized tier to every default-factory replica, so
  /// requests submitted with ServingTier::kFast run through it.  Custom
  /// backend factories opt in by filling ReplicaBackend::fast themselves.
  bool enable_fast_tier = false;
  /// Grids of the quantized tier (only read when the fast tier exists).
  core::QuantizedBackendConfig fast_backend;
  /// Non-volatile restore: when set, a supervisor restart loads this
  /// state::Snapshot and the healed replica serves the snapshotted
  /// (trained) weights through a plan compiled for them, until its next
  /// adoption.  A missing or corrupt snapshot falls back to the current
  /// published weights (and counts a snapshot_restore_failure).
  std::string snapshot_path;
  /// Black-box flight recorder (tail-based request retention + postmortem
  /// dumps).  Disabled by default: the serving hot path then never touches
  /// it.  With flight.dump_path set, the supervisor dumps on every replica
  /// death and drain() dumps on exit.
  FlightRecorderConfig flight;
  /// Pre-compiled plan for the construction-time model, so a fleet compiles
  /// once and every node shares the panels instead of re-deriving them.
  /// Must match the model architecture and the server's plan_config();
  /// null (the default) compiles in the constructor.
  std::shared_ptr<const nn::ExecutionPlan> initial_plan;
  /// Completion hook: called with every terminal response (kOk and kFailed
  /// alike) just before its promise is fulfilled, from whatever thread
  /// resolved the request (replica workers; the draining thread for
  /// leftovers).  This is how a fleet layer sees per-node completions
  /// without wrapping futures: the hook observes exactly the responses the
  /// conservation law counts, so an accounting built on it balances with
  /// the server's own books.  Must be thread-safe and must not call back
  /// into this Server.  Null disables.
  std::function<void(const Response&)> on_response;
};

/// Lifecycle of one replica worker, as the supervisor sees it.
enum class ReplicaState {
  kIdle,     ///< parked in pop_batch, queue empty
  kServing,  ///< running a batch
  kDead,     ///< backend raised HardwareFailure; awaiting restart
  kRetired,  ///< dead with no restart budget left (or server draining)
};

/// Point-in-time health view of one replica (all fields lock-free reads).
struct ReplicaHealth {
  int index = 0;
  ReplicaState state = ReplicaState::kIdle;
  int incarnation = 0;  ///< 0 = original; +1 per supervisor restart
  std::uint64_t batches = 0;  ///< batches served across incarnations
  double heartbeat_age_s = 0.0;
  bool stalled = false;  ///< currently past the stall threshold
};

/// Point-in-time view of the runtime's own accounting (available with
/// telemetry compiled out; the bench cross-validates these numbers).
struct ServerStats {
  /// submit() calls refused with trident::Error before admission: a wrong
  /// width, a NaN or an infinity.  They consume no id and are not counted
  /// in `submitted`.
  std::uint64_t rejected_inputs = 0;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;  ///< admission control + chaos admission blips
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  ///< explicit kFailed degraded responses
  std::uint64_t batches = 0;
  double mean_batch = 0.0;  ///< completed / batches
  LatencySummary sojourn;
  LatencySummary queue_wait;
  LatencySummary service;
  std::uint64_t slo_violations = 0;
  /// Self-healing ledger.
  std::uint64_t retries = 0;           ///< requests requeued after a fault
  std::uint64_t replica_deaths = 0;    ///< HardwareFailure worker exits
  std::uint64_t replica_restarts = 0;  ///< supervisor re-incarnations
  std::uint64_t stalls_detected = 0;   ///< heartbeat overruns flagged
  /// Weight lifecycle.
  std::uint64_t weight_swaps = 0;      ///< hot_swap() publications
  std::uint64_t swap_adoptions = 0;    ///< replica adoptions at batch bounds
  std::uint64_t snapshot_restores = 0; ///< restarts healed from the snapshot
  std::uint64_t snapshot_restore_failures = 0;  ///< fell back to published
  /// Canary lifecycle (continuous-learning publication stage).  Every
  /// canary started resolves to exactly one promote or one rollback unless
  /// it is still live: starts == promotes + rollbacks + (active ? 1 : 0) —
  /// the promote/rollback books the chaos invariants check.
  std::uint64_t canary_starts = 0;
  std::uint64_t canary_promotes = 0;   ///< ended via hot_swap of the candidate
  std::uint64_t canary_rollbacks = 0;  ///< candidate discarded
  /// Live canary's publication sequence (0 = no canary active).
  std::uint64_t canary_version = 0;
  /// Arm dispatch accounting: every completed response was served by
  /// exactly one weight set (canary + incumbent == completed — the canary
  /// conservation law).
  std::uint64_t canary_dispatches = 0;
  std::uint64_t incumbent_dispatches = 0;
  /// Tier dispatch accounting.  Every completed response is exactly one of
  /// the two (quantized + exact == completed — the metrics validator checks
  /// it on the exported trident_{quantized,exact}_dispatch_total, which the
  /// registry reads from these books).
  std::uint64_t quantized_dispatches = 0;  ///< responses served by the int8 tier
  std::uint64_t exact_dispatches = 0;      ///< responses served exact
  std::uint64_t fast_fallbacks = 0;  ///< kFast requests served exact (no tier)
  /// Aggregate hardware bill across replicas.  Only populated once the
  /// server is drained (replica ledgers are worker-thread-private while
  /// serving); zero before that.  Dead incarnations' bills are folded in
  /// at restart time.
  core::PhotonicLedger ledger;
};

class Server {
 public:
  /// Compiles `model` once (or takes config.initial_plan) and shares the
  /// plan across replicas.  The model's input width fixes the accepted
  /// request shape.
  Server(const nn::Mlp& model, const ServerConfig& config);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Drains on destruction if the caller did not.
  ~Server();

  /// Submits one inference.  Returns the response future, or nullopt when
  /// admission shed the request (or the server is draining).  Blocks only
  /// under OverloadPolicy::kBlock with a full queue.
  /// The tier selects the replica backend that runs the forward pass:
  /// kExact (default) is the full device model, kFast the int8 quantized
  /// tier (falling back to exact — and saying so in the response — when
  /// the replica has none).  An input of the wrong width or holding a NaN
  /// or an infinity throws trident::Error and counts in
  /// ServerStats::rejected_inputs.
  [[nodiscard]] std::optional<std::future<Response>> submit(
      nn::Vector input, ServingTier tier = ServingTier::kExact);

  /// Submit with an explicit absolute deadline.  A deadline that has
  /// already expired counts as an SLO violation at admission (the request
  /// is still served; the response carries deadline_missed).
  [[nodiscard]] std::optional<std::future<Response>> submit(
      nn::Vector input, Clock::time_point deadline,
      ServingTier tier = ServingTier::kExact);

  /// Submit with the full option set (deadline, tier, tenant key).  The
  /// other overloads delegate here.
  [[nodiscard]] std::optional<std::future<Response>> submit(
      nn::Vector input, const SubmitOptions& options);

  /// Closes admission, serves every accepted request, joins all replica
  /// workers, then fails any leftovers explicitly if no replica survived.
  /// Idempotent.
  void drain();

  /// Graceful decommission: stops admission, completes (or explicitly
  /// fails) every in-flight request, and returns the final books — counters
  /// plus the folded hardware ledger across every incarnation of every
  /// replica.  This is the node-retire primitive the fleet autoscaler
  /// uses: after retire() the returned stats are immutable truth, so a
  /// cluster can fold them into its own accounting without violating
  /// `accepted == completed + failed` or dropping ledger pulses.
  /// Idempotent (a second call returns the same final stats).
  [[nodiscard]] ServerStats retire();

  /// Atomically publishes new weights to all replicas.  Each replica
  /// adopts at its next batch boundary — never mid-forward, so no request
  /// sees torn weights — and the adoption re-programs the replica's GST
  /// bank through its own backend, billing the write pulses in the
  /// existing ledger.  The architecture must match the serving model.
  /// Thread-safe; concurrent swaps serialise, the newest version wins.
  void hot_swap(const nn::Mlp& model);

  /// Version of the most recently published weights (0 = the init model).
  [[nodiscard]] std::uint64_t weights_version() const {
    return weights_version_.load(std::memory_order_acquire);
  }

  /// Publishes `candidate` as a canary: `traffic_percent`% of subsequent
  /// traffic (selected by a splitmix64 hash of the trace id, so the arm a
  /// request lands on is a pure function of its identity and composes with
  /// request tracing — retries stay on their arm) is served by the
  /// candidate weights, the rest by the incumbent.  Replicas adopt the
  /// candidate at batch boundaries exactly like a hot swap: no response is
  /// ever a torn mix of the two weight sets, and the candidate's GST
  /// programming is billed through the adopting replica's ledger.  Returns
  /// the canary publication sequence (> 0), or 0 when a canary is already
  /// active (one candidate at a time; end it first).  The architecture
  /// must match the serving model.  Thread-safe.
  [[nodiscard]] std::uint64_t canary_start(const nn::Mlp& candidate,
                                           std::uint32_t traffic_percent);

  /// canary_start with a pre-compiled plan for `candidate`, so the caller
  /// (the learning pipeline's trainer thread) pays the compile cost off the
  /// serving path.  The plan must match the candidate's architecture and
  /// this server's plan_config(); null compiles here.
  /// On promote the SAME plan object becomes the incumbent's — shared, not
  /// re-derived.
  [[nodiscard]] std::uint64_t canary_start(
      const nn::Mlp& candidate, std::uint32_t traffic_percent,
      std::shared_ptr<const nn::ExecutionPlan> plan);

  /// Resolves the live canary: promote publishes the candidate as the new
  /// incumbent through the hot_swap path (version bump, batch-boundary
  /// adoption); rollback discards it and all traffic reverts to the
  /// untouched incumbent.  No-op (returns false) when no canary is active.
  /// Thread-safe; serialises with canary_start and hot_swap.
  bool canary_end(bool promote);

  /// Live canary's publication sequence (0 = none active).
  [[nodiscard]] std::uint64_t canary_version() const {
    return canary_version_.load(std::memory_order_acquire);
  }

  [[nodiscard]] ServerStats stats() const;
  /// Per-replica lifecycle/heartbeat view (cheap, lock-free).
  [[nodiscard]] std::vector<ReplicaHealth> health() const;
  /// The flight recorder, when ServerConfig::flight.enabled (else null).
  /// Callers (chaos harness, serve_loop) may dump() it on demand — e.g.
  /// when a chaos fault fires — in addition to the automatic
  /// replica-death and drain dumps.
  [[nodiscard]] FlightRecorder* flight_recorder() const {
    return flight_.get();
  }
  [[nodiscard]] const ServerConfig& config() const { return config_; }
  /// PlanConfig this server compiles published weights with: the packed
  /// int8 grid follows the fast tier's weight grid (so the quantized
  /// backend takes its fused path).  Static so plan-sharing layers (fleet)
  /// can pre-compile against a node config before any server exists.
  [[nodiscard]] static nn::PlanConfig plan_config_for(
      const ServerConfig& config) {
    return nn::PlanConfig{config.fast_backend.weight_bits};
  }
  [[nodiscard]] nn::PlanConfig plan_config() const {
    return plan_config_for(config_);
  }
  /// Plan of the current incumbent publication.
  [[nodiscard]] std::shared_ptr<const nn::ExecutionPlan> published_plan()
      const;
  [[nodiscard]] int replicas() const { return static_cast<int>(replicas_.size()); }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  [[nodiscard]] bool draining() const { return queue_.closed(); }

 private:
  struct Replica {
    int index = 0;
    ReplicaBackend backend;
    std::thread worker;
    std::atomic<ReplicaState> state{ReplicaState::kIdle};
    std::atomic<int> incarnation{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::int64_t> heartbeat_ns{0};  ///< steady-clock stamp
    std::atomic<bool> stall_flagged{false};
    /// Published-weights version this replica serves.  Worker-private
    /// while alive (only touched by the worker thread and, between
    /// incarnations, by the supervisor holding the joined thread).
    std::uint64_t weights_seen = 0;
    /// Plan of the weights this replica serves: the published one, or a
    /// private one compiled for snapshot-restored weights until the next
    /// adoption.  Worker-private like `weights_seen`; never null.
    std::shared_ptr<const nn::ExecutionPlan> plan;
    /// Candidate (canary) plan this replica serves, when a canary is live
    /// and adopted; null otherwise.  Cleared at the batch boundary after
    /// the canary ends.
    std::shared_ptr<const nn::ExecutionPlan> canary_plan;
    std::uint64_t canary_seen = 0;  ///< canary sequence adopted (0 = none)
    /// Traffic split cached at adoption, so routing within a batch is a
    /// pure function of replica state (no racing reads of the knob).
    std::uint32_t canary_percent = 0;
    /// Plan-run scratch: grown at adoption, allocation-free per batch.
    nn::PlanArena arena;

    explicit Replica(int idx) : index(idx) {}
  };

  /// One immutable publication.  Readers grab the shared_ptr under
  /// swap_mutex_ — the struct itself is never mutated after publication,
  /// so there are no torn reads.
  struct PublishedModel {
    std::uint64_t version = 0;
    std::int64_t published_ns = 0;  ///< steady-clock stamp of hot_swap()
    /// Compiled plan of the published weights: the only copy of them the
    /// server keeps.  Replicas share it and adopt it at a batch boundary.
    std::shared_ptr<const nn::ExecutionPlan> plan;
  };

  [[nodiscard]] ReplicaBackend make_backend(int replica, int incarnation) const;
  void start_worker(Replica& replica);
  void worker_loop(Replica& replica);
  /// Serves one batch.  Returns false when the replica's hardware died
  /// (batch already requeued) and the worker must exit.
  [[nodiscard]] bool serve_batch(Replica& replica, std::vector<Request>& batch);
  /// Runs one (tier, arm) share of a batch through `backend` with `plan`
  /// (in the replica's arena: bit-identical to Mlp::forward_batch,
  /// allocation-free) and fulfils its promises.  `canary_arm` and
  /// `served_version` stamp the responses (incumbent version, or the canary
  /// sequence when the candidate served).  `cut_size` is the size of the
  /// originally cut batch (what responses report).  Returns false on
  /// HardwareFailure (group requeued).
  [[nodiscard]] bool serve_group(Replica& replica, std::vector<Request>& group,
                                 const nn::ExecutionPlan& plan,
                                 nn::MatvecBackend& backend, ServingTier served,
                                 bool canary_arm, std::uint64_t served_version,
                                 Clock::time_point formed,
                                 std::size_t cut_size);
  /// Requeues `r` for another attempt, or fulfils it as kFailed when the
  /// attempt budget is spent.  `replica`/`incarnation` name the attempt
  /// that just failed (appended to the request's attempt log; -1/0 when no
  /// replica was involved) — this is the retry edge the flight recorder
  /// and trace tree preserve across incarnations.
  void retry_or_fail(Request&& r, const std::string& why, int replica,
                     int incarnation);
  void fail_request(Request&& r, const std::string& why);
  /// Feeds one terminal outcome to the flight recorder (no-op when the
  /// recorder is off).
  void flight_observe_shed(std::uint64_t id, ServingTier tier);
  /// Auto-dump helper: dumps to config_.flight.dump_path when set.
  void flight_autodump(std::string_view reason);
  void heartbeat(Replica& replica) const;
  void supervisor_loop();
  void restart_replica(Replica& replica);
  /// Adopts the latest published weights at a batch boundary (fast
  /// acquire-load no-op when the replica is current).
  void maybe_adopt_weights(Replica& replica);
  /// Plan a restarted incarnation should serve: one compiled for the
  /// snapshot's weights when configured and loadable, the latest published
  /// plan otherwise.  `seen_version` is set to the published version read,
  /// so the next publication after it is adopted.
  [[nodiscard]] std::shared_ptr<const nn::ExecutionPlan> restart_plan(
      std::uint64_t& seen_version);
  /// Shared tail of hot_swap and canary promotion: publishes `plan` as the
  /// new incumbent version under swap_mutex_ and books the swap.
  void publish_incumbent(std::shared_ptr<const nn::ExecutionPlan> plan);
  /// Fails everything still queued after the workers exited (all replicas
  /// dead): the explicit degraded-drain path.
  void fail_leftovers();
  /// Publishes exact p50/p99 sojourn gauges to telemetry (no-op when
  /// telemetry is off).
  void publish_slo_gauges(const LatencySummary& sojourn) const;
  /// This server's counters (its own, the queue's and the flight
  /// recorder's), as the metrics registry collects them.
  [[nodiscard]] std::vector<telemetry::CounterSample> counter_readings() const;

  ServerConfig config_;
  int input_dim_ = 0;
  RequestQueue queue_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<FlightRecorder> flight_;  ///< null unless flight.enabled

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> rejected_inputs_{0};
  std::atomic<std::uint64_t> submitted_{0};
  /// Sheds the queue never saw: the admission blip, and a submit after
  /// drain() closed the queue.
  std::atomic<std::uint64_t> unqueued_shed_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> slo_violations_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> deaths_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> adoptions_{0};
  std::atomic<std::uint64_t> snapshot_restores_{0};
  std::atomic<std::uint64_t> snapshot_restore_failures_{0};
  std::atomic<std::uint64_t> quantized_dispatches_{0};
  std::atomic<std::uint64_t> exact_dispatches_{0};
  std::atomic<std::uint64_t> fast_fallbacks_{0};

  /// Hot-swap publication point.  weights_version_ mirrors
  /// published_->version so workers can check currency with one
  /// acquire-load before taking the mutex.  The canary publication shares
  /// the same mutex: canary_version_ == 0 means no candidate; a non-zero
  /// value is the live canary's sequence number and canary_published_
  /// holds its immutable weights.  Sequences are never reused (canary_seq_
  /// is monotone), so a worker detects "ended then restarted" purely by
  /// comparing its adopted sequence against the live one.
  mutable std::mutex swap_mutex_;
  std::shared_ptr<const PublishedModel> published_;
  std::shared_ptr<const PublishedModel> canary_published_;
  std::atomic<std::uint64_t> weights_version_{0};
  std::atomic<std::uint64_t> canary_version_{0};
  std::atomic<std::uint32_t> canary_percent_{0};
  std::uint64_t canary_seq_ = 0;  ///< monotone canary ids (under swap_mutex_)
  std::atomic<std::uint64_t> canary_starts_{0};
  std::atomic<std::uint64_t> canary_promotes_{0};
  std::atomic<std::uint64_t> canary_rollbacks_{0};
  std::atomic<std::uint64_t> canary_dispatches_{0};
  std::atomic<std::uint64_t> incumbent_dispatches_{0};
  LatencyRecorder sojourn_;
  LatencyRecorder queue_wait_;
  LatencyRecorder service_;

  /// Bills of incarnations that died (folded in at restart/drain).
  mutable std::mutex ledger_mutex_;
  core::PhotonicLedger retired_ledger_;

  // The supervisor wakes on its interval or on a death notification.  The
  // flags are atomics so a dying worker never needs supervisor_mutex_ —
  // the supervisor may be holding it while joining that very worker.  A
  // notify that races the wait is recovered by the periodic wake-up.
  std::thread supervisor_;
  std::mutex supervisor_mutex_;
  std::condition_variable supervisor_cv_;
  std::atomic<bool> supervisor_stop_{false};
  std::atomic<bool> death_pending_{false};

  mutable std::mutex drain_mutex_;
  bool drained_ = false;

  /// Registry collector over the books above.  Last member: destroyed
  /// first, so its fold reads them while they still exist.
  telemetry::MetricsRegistry::CollectorHandle collector_;
};

}  // namespace trident::serving
