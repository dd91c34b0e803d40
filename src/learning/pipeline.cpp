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

/// trident_learning_* telemetry: one-for-one mirrors of the pipeline's
/// books, so chaos::check_learning_telemetry_mirror can audit them like
/// the serving counters.
struct LearningMetrics {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& offered =
      reg.counter("trident_learning_feedback_offered_total",
                  "labelled feedback samples offered to the stream");
  telemetry::Counter& dropped =
      reg.counter("trident_learning_feedback_dropped_total",
                  "feedback samples dropped at the stream (full or closed)");
  telemetry::Counter& trained =
      reg.counter("trident_learning_samples_trained_total",
                  "feedback samples consumed by completed training pulses");
  telemetry::Counter& lost =
      reg.counter("trident_learning_samples_lost_total",
                  "feedback samples consumed by pulses that died mid-train");
  telemetry::Counter& pulses =
      reg.counter("trident_learning_train_pulses_total",
                  "completed shadow retraining pulses");
  telemetry::Counter& trainer_deaths =
      reg.counter("trident_learning_trainer_deaths_total",
                  "shadow trainer incarnations killed by HardwareFailure");
  telemetry::Counter& trainer_restarts =
      reg.counter("trident_learning_trainer_restarts_total",
                  "shadow trainer re-incarnations");
  telemetry::Counter& checkpoints =
      reg.counter("trident_learning_checkpoints_total",
                  "atomic shadow snapshots written");
  telemetry::Counter& checkpoint_failures =
      reg.counter("trident_learning_checkpoint_failures_total",
                  "checkpoint attempts that failed (no torn file remains)");
  telemetry::Counter& checkpoint_restores =
      reg.counter("trident_learning_checkpoint_restores_total",
                  "trainer restarts healed from the on-disk checkpoint");
  telemetry::Counter& publications =
      reg.counter("trident_learning_canary_publications_total",
                  "shadow weight sets published to the canary stage");
  telemetry::Counter& promotes =
      reg.counter("trident_learning_promotes_total",
                  "canary candidates promoted to incumbent");
  telemetry::Counter& rollbacks =
      reg.counter("trident_learning_rollbacks_total",
                  "canary candidates rolled back (incumbent untouched)");
  telemetry::Gauge& shadow_generation =
      reg.gauge("trident_learning_shadow_generation",
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
  const bool accepted = queue_.push(std::move(sample));
  if (telemetry::enabled()) {
    LearningMetrics& m = learning_metrics();
    m.offered.add(1);
    if (!accepted) {
      m.dropped.add(1);
    }
  }
  return accepted;
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
    samples_lost_ += batch.size();
    if (telemetry::enabled()) {
      learning_metrics().lost.add(batch.size());
    }
    return 0;
  }
  samples_trained_ += batch.size();
  ++train_pulses_;
  ++shadow_generation_;
  if (telemetry::enabled()) {
    LearningMetrics& m = learning_metrics();
    m.trained.add(batch.size());
    m.pulses.add(1);
    m.shadow_generation.set(static_cast<double>(shadow_generation_));
  }
  return batch.size();
}

void LearningPipeline::handle_trainer_death(std::size_t samples_in_flight) {
  ++trainer_deaths_;
  samples_lost_ += samples_in_flight;
  // Fold the dead incarnation's bill before the backend is replaced —
  // exactly the serving replica discipline: pulses are never dropped and
  // never double-counted across a death.
  if (trainer_.ledger) {
    retired_ledger_ = retired_ledger_ + trainer_.ledger();
  }
  trainer_.backend.reset();
  trainer_.ledger = nullptr;
  if (telemetry::enabled()) {
    LearningMetrics& m = learning_metrics();
    m.trainer_deaths.add(1);
    if (samples_in_flight > 0) {
      m.lost.add(samples_in_flight);
    }
  }
  if (trainer_restarts_ >=
      static_cast<std::uint64_t>(config_.max_trainer_restarts)) {
    trainer_dead_ = true;
    return;
  }
  ++trainer_restarts_;
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
      ++checkpoint_restores_;
      shadow_generation_ = 0;
      if (telemetry::enabled()) {
        learning_metrics().checkpoint_restores.add(1);
      }
    } catch (const std::exception&) {
      // No checkpoint yet (or unreadable): continue on live weights.
    }
  }
  if (telemetry::enabled()) {
    learning_metrics().trainer_restarts.add(1);
  }
}

bool LearningPipeline::checkpoint() {
  std::lock_guard lock(trainer_mutex_);
  if (config_.checkpoint_path.empty()) {
    return false;
  }
  const std::uint64_t ordinal = checkpoints_ + checkpoint_failures_;
  try {
    if (config_.checkpoint_fault_hook) {
      config_.checkpoint_fault_hook(ordinal);
    }
    state::Snapshot snap;
    snap.model = state::capture_model(shadow_);
    snap.ledger = state::to_ledger_state(ledger_locked());
    snap.save(config_.checkpoint_path);
    ++checkpoints_;
    if (telemetry::enabled()) {
      learning_metrics().checkpoints.add(1);
    }
    return true;
  } catch (const HardwareFailure&) {
    // The trainer died mid-checkpoint.  The atomic write discipline means
    // the previous snapshot is still intact on disk — which is exactly
    // what the healed trainer restores from below.
    ++checkpoint_failures_;
    if (telemetry::enabled()) {
      learning_metrics().checkpoint_failures.add(1);
    }
    handle_trainer_death(0);
    return false;
  } catch (const std::exception&) {
    ++checkpoint_failures_;
    if (telemetry::enabled()) {
      learning_metrics().checkpoint_failures.add(1);
    }
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
  ++publications_;
  {
    std::lock_guard obs(obs_mutex_);
    controller_.reset();
    observing_ = true;
  }
  if (telemetry::enabled()) {
    learning_metrics().publications.add(1);
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
    ++promotes_;
    // The candidate — the exact weights that were serving the canary arm,
    // not the since-evolved shadow — becomes the new known-good anchor.
    anchor_ = *candidate_;
    if (telemetry::enabled()) {
      learning_metrics().promotes.add(1);
    }
  } else {
    ++rollbacks_;
    // Roll the SHADOW back too: one poisoned retraining must not seed the
    // next candidate.  The serving incumbent was never displaced.
    shadow_ = anchor_;
    if (telemetry::enabled()) {
      learning_metrics().rollbacks.add(1);
    }
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
  s.samples_trained = samples_trained_;
  s.samples_lost = samples_lost_;
  s.train_pulses = train_pulses_;
  s.trainer_deaths = trainer_deaths_;
  s.trainer_restarts = trainer_restarts_;
  s.checkpoints = checkpoints_;
  s.checkpoint_failures = checkpoint_failures_;
  s.checkpoint_restores = checkpoint_restores_;
  s.canary_publications = publications_;
  s.promotes = promotes_;
  s.rollbacks = rollbacks_;
  s.canary_active = active_seq_ != 0;
  s.shadow_generation = shadow_generation_;
  s.ledger = ledger_locked();
  return s;
}

}  // namespace trident::learning
