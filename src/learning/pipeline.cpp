#include "learning/pipeline.hpp"

#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "nn/plan.hpp"
#include "nn/train.hpp"
#include "state/snapshot.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::learning {

namespace {

struct LearningMetrics {
  telemetry::Gauge& shadow_generation =
      telemetry::MetricsRegistry::global().gauge(
          "trident_learning_shadow_generation",
          "training pulses since the shadow's last known-good anchor");
};

[[nodiscard]] LearningMetrics& learning_metrics() {
  static LearningMetrics m;
  return m;
}

}  // namespace

LearningPipeline::LearningPipeline(serving::Server& server, nn::Mlp shadow_init,
                                   LearningConfig config)
    : server_(server),
      config_(std::move(config)),
      queue_(config_.feedback_capacity),
      shadow_(shadow_init),
      anchor_(std::move(shadow_init)),
      controller_(config_.canary) {
  if (config_.pulse_threshold == 0) {
    config_.pulse_threshold = 1;
  }
  if (config_.max_pulse_samples < config_.pulse_threshold) {
    config_.max_pulse_samples = config_.pulse_threshold;
  }
  build_trainer(0);
  collector_ = telemetry::MetricsRegistry::global().add_collector(
      [this] { return counter_readings(); });
}

void LearningPipeline::build_trainer(int incarnation) {
  core::PhotonicBackendConfig cfg = config_.backend;
  // Trainer stream 0xl34 + per-incarnation split: independent of every
  // serving replica's noise stream, and fresh per re-incarnation.
  cfg.seed = Rng(config_.backend.seed)
                 .split(0x134a)
                 .split(static_cast<std::uint64_t>(incarnation))
                 .seed();
  if (config_.trainer_factory) {
    trainer_ = config_.trainer_factory(incarnation, cfg);
    return;
  }
  auto backend = std::make_unique<core::PhotonicBackend>(cfg);
  core::PhotonicBackend* raw = backend.get();
  trainer_.backend = std::move(backend);
  trainer_.ledger = [raw] { return raw->ledger(); };
}

bool LearningPipeline::feed(FeedbackSample sample) {
  return queue_.push(std::move(sample));
}

void LearningPipeline::observe_response(bool canary_arm, bool correct,
                                        double latency_s) {
  std::lock_guard lock(obs_mutex_);
  if (!observing_) {
    return;
  }
  controller_.observe(canary_arm, correct, latency_s);
}

std::size_t LearningPipeline::train_pulse() {
  std::lock_guard lock(trainer_mutex_);
  if (trainer_dead_) {
    return 0;
  }
  // Below the pulse threshold nothing is consumed — tiny dribbles must not
  // burn a programming burst.  Once the stream is closed the remainder is
  // drained regardless (the last pulse of a session may be short).
  if (!queue_.closed() && queue_.depth() < config_.pulse_threshold) {
    return 0;
  }
  std::vector<FeedbackSample> batch = queue_.pop_batch(
      config_.max_pulse_samples, std::chrono::microseconds(0));
  if (batch.empty()) {
    return 0;
  }
  nn::Dataset data;
  data.features = shadow_.layer_sizes().front();
  data.classes = shadow_.layer_sizes().back();
  data.inputs.reserve(batch.size());
  data.labels.reserve(batch.size());
  for (FeedbackSample& s : batch) {
    data.inputs.push_back(std::move(s.input));
    data.labels.push_back(s.label);
  }
  nn::TrainConfig tc;
  tc.epochs = config_.epochs_per_pulse;
  tc.learning_rate = config_.learning_rate;
  tc.batch_size = config_.train_batch_size;
  // No intra-pulse shuffle: the pulse trains in feedback arrival order, so
  // the weight trajectory is a pure function of the sample sequence — the
  // determinism the decision-replay harness pins down.
  tc.shuffle = false;
  try {
    (void)nn::fit(shadow_, std::move(data), tc, *trainer_.backend);
  } catch (const HardwareFailure&) {
    handle_trainer_death(batch.size());
    return 0;
  } catch (const std::exception&) {
    // Transient trainer fault: the pulse is lost, the trainer survives.
    samples_lost_.fetch_add(batch.size(), std::memory_order_relaxed);
    return 0;
  }
  samples_trained_.fetch_add(batch.size(), std::memory_order_relaxed);
  train_pulses_.fetch_add(1, std::memory_order_relaxed);
  ++shadow_generation_;
  if (telemetry::enabled()) {
    learning_metrics().shadow_generation.set(
        static_cast<double>(shadow_generation_));
  }
  return batch.size();
}

void LearningPipeline::handle_trainer_death(std::size_t samples_in_flight) {
  trainer_deaths_.fetch_add(1, std::memory_order_relaxed);
  samples_lost_.fetch_add(samples_in_flight, std::memory_order_relaxed);
  // Fold the dead incarnation's bill before the backend is replaced —
  // exactly the serving replica discipline: pulses are never dropped and
  // never double-counted across a death.
  if (trainer_.ledger) {
    retired_ledger_ = retired_ledger_ + trainer_.ledger();
  }
  trainer_.backend.reset();
  trainer_.ledger = nullptr;
  if (trainer_restarts_.load(std::memory_order_relaxed) >=
      static_cast<std::uint64_t>(config_.max_trainer_restarts)) {
    trainer_dead_ = true;
    return;
  }
  trainer_restarts_.fetch_add(1, std::memory_order_relaxed);
  ++incarnation_;
  build_trainer(incarnation_);
  // Heal the weights from the non-volatile checkpoint when one loads; a
  // missing/older checkpoint keeps the in-memory weights (numerically
  // valid — SGD just loses the interrupted pulse).
  if (!config_.checkpoint_path.empty()) {
    try {
      const state::Snapshot snap =
          state::Snapshot::load(config_.checkpoint_path);
      state::restore_model_into(snap.model, shadow_);
      checkpoint_restores_.fetch_add(1, std::memory_order_relaxed);
      shadow_generation_ = 0;
    } catch (const std::exception&) {
      // No checkpoint yet (or unreadable): continue on live weights.
    }
  }
}

bool LearningPipeline::checkpoint() {
  std::lock_guard lock(trainer_mutex_);
  if (config_.checkpoint_path.empty()) {
    return false;
  }
  const std::uint64_t ordinal =
      checkpoints_.load(std::memory_order_relaxed) +
      checkpoint_failures_.load(std::memory_order_relaxed);
  try {
    if (config_.checkpoint_fault_hook) {
      config_.checkpoint_fault_hook(ordinal);
    }
    state::Snapshot snap;
    snap.model = state::capture_model(shadow_);
    snap.ledger = state::to_ledger_state(ledger_locked());
    snap.save(config_.checkpoint_path);
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    return true;
  } catch (const HardwareFailure&) {
    // The trainer died mid-checkpoint.  The atomic write discipline means
    // the previous snapshot is still intact on disk — which is exactly
    // what the healed trainer restores from below.
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    handle_trainer_death(0);
    return false;
  } catch (const std::exception&) {
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
}

std::uint64_t LearningPipeline::publish_canary() {
  std::lock_guard lock(trainer_mutex_);
  if (active_seq_ != 0) {
    return 0;
  }
  // Compile the candidate's plan here, off the serving path: canary_start
  // would otherwise build it itself, and on promotion the same plan object
  // carries straight into the incumbent publication without a recompile.
  const std::uint64_t seq = server_.canary_start(
      shadow_, config_.canary.traffic_percent,
      nn::ExecutionPlan::compile(shadow_, server_.plan_config()));
  if (seq == 0) {
    return 0;
  }
  active_seq_ = seq;
  candidate_ = shadow_;
  publications_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard obs(obs_mutex_);
    controller_.reset();
    observing_ = true;
  }
  return seq;
}

CanaryEvaluation LearningPipeline::maybe_decide(std::uint64_t round,
                                                DecisionLog* log) {
  std::lock_guard lock(trainer_mutex_);
  CanaryEvaluation eval;
  if (active_seq_ == 0) {
    eval.reason = "no canary active";
    return eval;
  }
  {
    std::lock_guard obs(obs_mutex_);
    eval = controller_.evaluate();
  }
  if (log != nullptr) {
    log->append(round, active_seq_, eval);
  }
  if (eval.verdict == CanaryVerdict::kPending) {
    return eval;
  }
  const bool promote = eval.verdict == CanaryVerdict::kPromote;
  server_.canary_end(promote);
  if (promote) {
    promotes_.fetch_add(1, std::memory_order_relaxed);
    // The candidate — the exact weights that were serving the canary arm,
    // not the since-evolved shadow — becomes the new known-good anchor.
    anchor_ = *candidate_;
  } else {
    rollbacks_.fetch_add(1, std::memory_order_relaxed);
    // Roll the SHADOW back too: one poisoned retraining must not seed the
    // next candidate.  The serving incumbent was never displaced.
    shadow_ = anchor_;
  }
  shadow_generation_ = 0;
  candidate_.reset();
  active_seq_ = 0;
  {
    std::lock_guard obs(obs_mutex_);
    observing_ = false;
    controller_.reset();
  }
  if (telemetry::enabled()) {
    learning_metrics().shadow_generation.set(0.0);
  }
  return eval;
}

void LearningPipeline::run_until_closed() {
  std::uint64_t pulses_since_checkpoint = 0;
  for (;;) {
    (void)queue_.wait_for_depth(config_.pulse_threshold,
                                std::chrono::microseconds(1000));
    const std::size_t trained = train_pulse();
    if (trained > 0 && config_.checkpoint_every_pulses != 0 &&
        ++pulses_since_checkpoint >= config_.checkpoint_every_pulses) {
      pulses_since_checkpoint = 0;
      (void)checkpoint();
    }
    if (trainer_dead()) {
      return;
    }
    if (trained == 0 && queue_.closed() && queue_.depth() == 0) {
      return;
    }
  }
}

bool LearningPipeline::canary_active() const {
  std::lock_guard lock(trainer_mutex_);
  return active_seq_ != 0;
}

bool LearningPipeline::trainer_dead() const {
  std::lock_guard lock(trainer_mutex_);
  return trainer_dead_;
}

nn::Mlp LearningPipeline::shadow_model() const {
  std::lock_guard lock(trainer_mutex_);
  return shadow_;
}

core::PhotonicLedger LearningPipeline::ledger_locked() const {
  core::PhotonicLedger total = retired_ledger_;
  if (trainer_.ledger) {
    total = total + trainer_.ledger();
  }
  return total;
}

LearningStats LearningPipeline::stats() const {
  LearningStats s;
  s.offered = queue_.offered();
  s.enqueued = queue_.enqueued();
  s.dropped = queue_.dropped();
  s.consumed = queue_.consumed();
  s.discarded = queue_.discarded();
  s.queue_depth = queue_.depth();
  std::lock_guard lock(trainer_mutex_);
  s.samples_trained = samples_trained_.load(std::memory_order_relaxed);
  s.samples_lost = samples_lost_.load(std::memory_order_relaxed);
  s.train_pulses = train_pulses_.load(std::memory_order_relaxed);
  s.trainer_deaths = trainer_deaths_.load(std::memory_order_relaxed);
  s.trainer_restarts = trainer_restarts_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.checkpoint_failures = checkpoint_failures_.load(std::memory_order_relaxed);
  s.checkpoint_restores = checkpoint_restores_.load(std::memory_order_relaxed);
  s.canary_publications = publications_.load(std::memory_order_relaxed);
  s.promotes = promotes_.load(std::memory_order_relaxed);
  s.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  s.canary_active = active_seq_ != 0;
  s.shadow_generation = shadow_generation_;
  s.ledger = ledger_locked();
  return s;
}

std::vector<telemetry::CounterSample> LearningPipeline::counter_readings()
    const {
  const auto load = [](const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  return {
      {"trident_learning_feedback_offered_total",
       "labelled feedback samples offered to the stream", queue_.offered()},
      {"trident_learning_feedback_dropped_total",
       "feedback samples dropped at the stream (full or closed)",
       queue_.dropped()},
      {"trident_learning_samples_trained_total",
       "feedback samples consumed by completed training pulses",
       load(samples_trained_)},
      {"trident_learning_samples_lost_total",
       "feedback samples consumed by pulses that died mid-train",
       load(samples_lost_)},
      {"trident_learning_train_pulses_total",
       "completed shadow retraining pulses", load(train_pulses_)},
      {"trident_learning_trainer_deaths_total",
       "shadow trainer incarnations killed by HardwareFailure",
       load(trainer_deaths_)},
      {"trident_learning_trainer_restarts_total",
       "shadow trainer re-incarnations", load(trainer_restarts_)},
      {"trident_learning_checkpoints_total", "atomic shadow snapshots written",
       load(checkpoints_)},
      {"trident_learning_checkpoint_failures_total",
       "checkpoint attempts that failed (no torn file remains)",
       load(checkpoint_failures_)},
      {"trident_learning_checkpoint_restores_total",
       "trainer restarts healed from the on-disk checkpoint",
       load(checkpoint_restores_)},
      {"trident_learning_canary_publications_total",
       "shadow weight sets published to the canary stage",
       load(publications_)},
      {"trident_learning_promotes_total",
       "canary candidates promoted to incumbent", load(promotes_)},
      {"trident_learning_rollbacks_total",
       "canary candidates rolled back (incumbent untouched)",
       load(rollbacks_)},
  };
}

}  // namespace trident::learning
