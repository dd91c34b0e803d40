// Co-resident continuous-learning pipeline: shadow retraining + canary
// hot-swap, closing the loop the paper's on-device-training story opens.
//
// While the serving runtime keeps answering requests, a shadow training
// replica — its OWN model copy and its OWN PhotonicBackend with its own
// energy ledger — consumes the labelled feedback stream and retrains in
// pulses.  Candidate weights are never thrust onto the fleet: they go
// through the canary stage (serving::Server::canary_start routes x% of
// traffic by trace id), a CanaryController compares accuracy and p99
// against the incumbent over per-arm observation windows, and the verdict
// either promotes the candidate (Server::hot_swap — the never-torn
// publication) or rolls it back (the incumbent was never displaced, and
// the shadow model is restored from the last known-good weights so one
// poisoned retraining cannot poison the next candidate too).
//
// Every retraining pulse and re-programming write is billed: the trainer
// backend's PhotonicLedger folds across trainer deaths exactly the way
// serving replica ledgers do (retired + live, never dropped, never
// double-counted) — chaos::check_learning_soak audits the books after a
// soak.  The trident_learning_*_total counters are these same books: the
// metrics registry collects them from the pipeline (and the feedback
// queue) at snapshot time rather than keeping a copy.
//
// Threading contract: feed() and observe_response() are thread-safe (they
// are designed to be called from serving completion hooks).  train_pulse,
// checkpoint, publish_canary, maybe_decide and stats serialise on an
// internal trainer mutex — one logical trainer, callable from a dedicated
// trainer thread (run_until_closed) or stepped synchronously by the
// deterministic harness.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/photonic_backend.hpp"
#include "learning/canary.hpp"
#include "learning/feedback.hpp"
#include "nn/mlp.hpp"
#include "serving/server.hpp"
#include "telemetry/metrics.hpp"

namespace trident::learning {

/// The shadow trainer's execution engine + bill accessor, mirroring
/// serving::ReplicaBackend so chaos decorators layer identically.
struct TrainerBackend {
  std::unique_ptr<nn::MatvecBackend> backend;
  std::function<core::PhotonicLedger()> ledger;
};

/// Builds the trainer backend for one incarnation (0 = original, +1 per
/// death).  `cfg` already carries the per-incarnation split seed.
using TrainerFactory =
    std::function<TrainerBackend(int incarnation,
                                 const core::PhotonicBackendConfig& cfg)>;

struct LearningConfig {
  /// Pulse shape: a pulse consumes up to max_pulse_samples from the
  /// feedback queue (non-blocking) and runs epochs_per_pulse SGD epochs
  /// over them.  train_pulse() is a no-op below pulse_threshold queued
  /// samples, so tiny dribbles don't burn programming pulses.
  std::size_t pulse_threshold = 32;
  std::size_t max_pulse_samples = 256;
  int epochs_per_pulse = 1;
  int train_batch_size = 1;
  double learning_rate = 0.1;
  std::size_t feedback_capacity = 1024;
  CanaryPolicy canary;
  /// Trainer hardware; incarnation i trains with seed split(seed, i).
  core::PhotonicBackendConfig backend;
  /// Replacement trainer-backend builder; null uses PhotonicBackend.
  TrainerFactory trainer_factory;
  /// Atomic checkpoint target (state::Snapshot); empty disables.
  std::string checkpoint_path;
  /// Trainer incarnations beyond the first (deaths past this stay dead).
  int max_trainer_restarts = 8;
  /// Checkpoint cadence of run_until_closed (0 = never).
  std::uint64_t checkpoint_every_pulses = 0;
  /// Chaos hook: invoked with the checkpoint ordinal just before the
  /// atomic write; throwing simulates the trainer dying mid-checkpoint
  /// (the previous on-disk snapshot must stay intact — atomic_write_file's
  /// contract, which check_learning_soak verifies by loading it).
  std::function<void(std::uint64_t ordinal)> checkpoint_fault_hook;
};

/// Point-in-time books of the pipeline.  Conservation laws (checked by
/// chaos::check_learning_conservation):
///   offered   == enqueued + dropped
///   enqueued  == consumed + queue depth (+ discarded after close)
///   consumed  == samples_trained + samples_lost
///   publications == promotes + rollbacks + (canary_active ? 1 : 0)
struct LearningStats {
  std::uint64_t offered = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t consumed = 0;
  std::uint64_t discarded = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t samples_trained = 0;
  /// Consumed by a pulse whose trainer died before the pulse completed.
  std::uint64_t samples_lost = 0;
  std::uint64_t train_pulses = 0;
  std::uint64_t trainer_deaths = 0;
  std::uint64_t trainer_restarts = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_failures = 0;
  /// Trainer restarts healed from the on-disk checkpoint.
  std::uint64_t checkpoint_restores = 0;
  std::uint64_t canary_publications = 0;
  std::uint64_t promotes = 0;
  std::uint64_t rollbacks = 0;
  bool canary_active = false;
  /// Completed training pulses since the last promote/rollback/restore —
  /// how far the live shadow has drifted from its last anchor.
  std::uint64_t shadow_generation = 0;
  /// Trainer hardware bill: retired incarnations + the live backend.
  core::PhotonicLedger ledger;
};

class LearningPipeline {
 public:
  /// `shadow_init` seeds the shadow replica (normally a copy of the
  /// incumbent the server was built with) and doubles as the initial
  /// known-good rollback anchor.
  LearningPipeline(serving::Server& server, nn::Mlp shadow_init,
                   LearningConfig config);

  LearningPipeline(const LearningPipeline&) = delete;
  LearningPipeline& operator=(const LearningPipeline&) = delete;

  /// Thread-safe: offers one labelled sample to the feedback stream.
  /// Returns false when the sample was dropped (counted).
  bool feed(FeedbackSample sample);

  /// Thread-safe: accumulates one served-response outcome into the live
  /// canary's observation windows (no-op while no canary is active).
  void observe_response(bool canary_arm, bool correct, double latency_s);

  /// One retraining pulse: consumes queued feedback and runs SGD on the
  /// shadow model through the trainer backend.  Returns samples trained
  /// (0: below threshold, queue empty, or the trainer died — deaths are
  /// counted, the pulse's samples booked as lost, and the trainer healed
  /// from the checkpoint when restart budget remains).
  std::size_t train_pulse();

  /// Atomic state::Snapshot of the shadow model + trainer ledger.  False
  /// when disabled or the write failed (failures counted; a failure never
  /// leaves a torn file on disk).
  bool checkpoint();

  /// Publishes the current shadow weights as a canary via
  /// Server::canary_start.  Returns the canary sequence, or 0 when one is
  /// already active (either here or published by someone else).
  std::uint64_t publish_canary();

  /// Evaluates the live canary and, on a non-pending verdict, resolves it:
  /// promote → Server::canary_end(true) (hot_swap) and the candidate
  /// becomes the new known-good anchor; rollback → Server::canary_end
  /// (false) and the shadow model is restored from the anchor.  The
  /// evaluation (including kPending) is appended to `log` when given.
  CanaryEvaluation maybe_decide(std::uint64_t round, DecisionLog* log);

  /// Trainer-thread loop for co-resident operation: pulse on demand,
  /// checkpoint on cadence, exit once the feedback queue is closed and
  /// drained.  Canary publication/decisions stay with the orchestrator.
  void run_until_closed();

  [[nodiscard]] bool canary_active() const;
  /// True once the trainer died with no restart budget left.
  [[nodiscard]] bool trainer_dead() const;
  [[nodiscard]] LearningStats stats() const;
  [[nodiscard]] FeedbackQueue& feedback() { return queue_; }
  [[nodiscard]] const LearningConfig& config() const { return config_; }

  /// Snapshot of the current shadow weights (trainer-mutex serialised).
  [[nodiscard]] nn::Mlp shadow_model() const;

 private:
  void build_trainer(int incarnation);
  /// Fold the dying incarnation's bill, book the pulse's samples as lost,
  /// and heal from the checkpoint if budget remains.
  void handle_trainer_death(std::size_t samples_in_flight);
  [[nodiscard]] core::PhotonicLedger ledger_locked() const;
  /// The pipeline's counters as the metrics registry collects them.
  [[nodiscard]] std::vector<telemetry::CounterSample> counter_readings() const;

  serving::Server& server_;
  LearningConfig config_;
  FeedbackQueue queue_;

  mutable std::mutex trainer_mutex_;
  nn::Mlp shadow_;
  nn::Mlp anchor_;  ///< last known-good weights (rollback restore target)
  /// The exact weights published to the live canary (the shadow may keep
  /// training underneath); promoted into anchor_ on a promote verdict.
  std::optional<nn::Mlp> candidate_;
  TrainerBackend trainer_;
  int incarnation_ = 0;
  bool trainer_dead_ = false;
  core::PhotonicLedger retired_ledger_;
  // Written only under trainer_mutex_, but atomic so the metrics collector
  // reads them without waiting out a training pulse that holds the mutex.
  std::atomic<std::uint64_t> samples_trained_{0};
  std::atomic<std::uint64_t> samples_lost_{0};
  std::atomic<std::uint64_t> train_pulses_{0};
  std::atomic<std::uint64_t> trainer_deaths_{0};
  std::atomic<std::uint64_t> trainer_restarts_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<std::uint64_t> checkpoint_failures_{0};
  std::atomic<std::uint64_t> checkpoint_restores_{0};
  std::atomic<std::uint64_t> publications_{0};
  std::atomic<std::uint64_t> promotes_{0};
  std::atomic<std::uint64_t> rollbacks_{0};
  std::uint64_t shadow_generation_ = 0;
  std::uint64_t active_seq_ = 0;

  mutable std::mutex obs_mutex_;
  CanaryController controller_;
  bool observing_ = false;  ///< windows accumulate only while a canary runs

  /// Registry collector over the books above.  Last member: destroyed
  /// first, so its fold reads them while they still exist.
  telemetry::MetricsRegistry::CollectorHandle collector_;
};

}  // namespace trident::learning
