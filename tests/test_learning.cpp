// Continuous-learning pipeline tests: quantile-window gating on degenerate
// windows, feedback-queue conservation (unit + seeded property fuzz), the
// canary controller's gate order, decision-log byte stability, and the
// deterministic end-to-end harness — promote on drift, rollback on scripted
// accuracy / p99 regressions, byte-identical decision replay, and the
// never-torn bit-exactness audit across every served response.
#include "learning/harness.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

#include "chaos/learning_invariants.hpp"
#include "common/rng.hpp"
#include "learning/canary.hpp"
#include "learning/feedback.hpp"
#include "learning/pipeline.hpp"
#include "learning/scripted_stream.hpp"
#include "serving/slo.hpp"

namespace trident::learning {
namespace {

using namespace std::chrono_literals;

// --- exact quantiles over degenerate windows --------------------------------
//
// The canary p99 gate must be total over every window shape: empty,
// singleton, all-tied, and unequal sample counts.  A degenerate window must
// read as "not comparable", never as a promotable (or rollback-able) signal.

TEST(ExactQuantile, EmptyWindowHasNoQuantile) {
  EXPECT_FALSE(serving::exact_quantile({}, 0.99).has_value());
  EXPECT_FALSE(serving::exact_quantile({}, 0.0).has_value());
}

TEST(ExactQuantile, SingletonWindowIsItsOnlyElementForEveryQ) {
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    const auto v = serving::exact_quantile({0.042}, q);
    ASSERT_TRUE(v.has_value()) << "q=" << q;
    EXPECT_DOUBLE_EQ(*v, 0.042) << "q=" << q;
  }
}

TEST(ExactQuantile, TiedWindowIsTheTiedValue) {
  const std::vector<double> tied(17, 3.5);
  for (double q : {0.0, 0.5, 0.99}) {
    const auto v = serving::exact_quantile(tied, q);
    ASSERT_TRUE(v.has_value());
    EXPECT_DOUBLE_EQ(*v, 3.5);
  }
}

TEST(ExactQuantile, UnsortedInputYieldsExactOrderStatistic) {
  // floor(0.5 * (5-1)) = index 2 of the sorted window {1,2,3,4,5}.
  const auto v = serving::exact_quantile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.5);
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(*v, 3.0);
}

TEST(CompareLatencyWindows, BelowFloorIsNotComparableAndRatioIsNaN) {
  const std::vector<double> big(50, 1e-3);
  const std::vector<double> small(3, 1e-3);
  for (const auto* candidate : {&small}) {
    const auto cmp = serving::compare_latency_windows(big, *candidate, 10);
    EXPECT_FALSE(cmp.comparable);
    EXPECT_TRUE(std::isnan(cmp.ratio));
  }
  // Empty and singleton candidate windows are the extreme degenerates.
  EXPECT_FALSE(serving::compare_latency_windows(big, {}, 1).comparable);
  EXPECT_FALSE(serving::compare_latency_windows(big, {1e-3}, 2).comparable);
  // min_samples clamps to >= 1: even a floor of 0 cannot make an empty
  // window comparable.
  EXPECT_FALSE(serving::compare_latency_windows(big, {}, 0).comparable);
}

TEST(CompareLatencyWindows, UnequalCountsUseEachWindowsOwnOrderStatistic) {
  // Incumbent: 100 samples at 1 ms.  Candidate: 25 samples at 2 ms.  The
  // windows are unequal in size; each side's p99 is its own exact order
  // statistic and the ratio is exactly 2.
  const std::vector<double> inc(100, 1e-3);
  const std::vector<double> can(25, 2e-3);
  const auto cmp = serving::compare_latency_windows(inc, can, 10);
  ASSERT_TRUE(cmp.comparable);
  EXPECT_EQ(cmp.incumbent_count, 100u);
  EXPECT_EQ(cmp.candidate_count, 25u);
  EXPECT_DOUBLE_EQ(cmp.incumbent_q_s, 1e-3);
  EXPECT_DOUBLE_EQ(cmp.candidate_q_s, 2e-3);
  EXPECT_DOUBLE_EQ(cmp.ratio, 2.0);
}

TEST(CompareLatencyWindows, ZeroIncumbentQuantileEdges) {
  const std::vector<double> zeros(20, 0.0);
  const std::vector<double> nonzero(20, 1e-3);
  // Both zero: the arms are identical, ratio 1 (no regression signal).
  EXPECT_DOUBLE_EQ(
      serving::compare_latency_windows(zeros, zeros, 5).ratio, 1.0);
  // Candidate regressed from a zero baseline: +inf, which any finite
  // max_p99_ratio gate treats as a regression.
  EXPECT_TRUE(std::isinf(
      serving::compare_latency_windows(zeros, nonzero, 5).ratio));
}

// --- feedback queue (unit) --------------------------------------------------

FeedbackSample sample(std::uint64_t id) {
  FeedbackSample s;
  s.id = id;
  s.input = nn::Vector(4, 0.5);
  s.label = static_cast<int>(id % 3);
  return s;
}

TEST(FeedbackQueue, DropsOnFullAndCountsTheDrop) {
  FeedbackQueue q(2);
  EXPECT_TRUE(q.push(sample(0)));
  EXPECT_TRUE(q.push(sample(1)));
  EXPECT_FALSE(q.push(sample(2)));  // full → dropped, not blocked
  EXPECT_EQ(q.offered(), 3u);
  EXPECT_EQ(q.enqueued(), 2u);
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.depth(), 2u);
}

TEST(FeedbackQueue, CloseAndDrainBalancesTheBooks) {
  FeedbackQueue q(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.push(sample(i)));
  }
  q.close();
  EXPECT_FALSE(q.push(sample(99)));  // closed → dropped
  // Drain in two batches; FIFO order must hold.
  const auto first = q.pop_batch(3, 0us);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].id, 0u);
  EXPECT_EQ(first[2].id, 2u);
  const auto rest = q.pop_batch(16, 0us);
  ASSERT_EQ(rest.size(), 2u);
  // Closed and drained: further pops are the empty batch.
  EXPECT_TRUE(q.pop_batch(4, 1ms).empty());
  EXPECT_EQ(q.enqueued(), q.consumed());
  EXPECT_EQ(q.offered(), q.enqueued() + q.dropped());
  EXPECT_EQ(q.depth(), 0u);
}

TEST(FeedbackQueue, CloseAndDiscardBooksTheBacklog) {
  FeedbackQueue q(8);
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(q.push(sample(i)));
  }
  const auto consumed = q.pop_batch(2, 0us);
  ASSERT_EQ(consumed.size(), 2u);
  EXPECT_EQ(q.close_and_discard(), 4u);
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.enqueued(), q.consumed() + q.discarded());
}

TEST(FeedbackQueue, WaitForDepthParksWithoutConsuming) {
  FeedbackQueue q(16);
  std::atomic<std::size_t> observed{0};
  std::thread trainer([&] { observed = q.wait_for_depth(3, 2'000'000us); });
  // The waiter must not eat samples a below-threshold pulse must leave.
  ASSERT_TRUE(q.push(sample(0)));
  ASSERT_TRUE(q.push(sample(1)));
  ASSERT_TRUE(q.push(sample(2)));
  trainer.join();
  EXPECT_GE(observed.load(), 3u);
  EXPECT_EQ(q.depth(), 3u);  // nothing consumed by the wait
  EXPECT_EQ(q.consumed(), 0u);
}

TEST(FeedbackQueue, CloseWakesADepthWaiter) {
  FeedbackQueue q(16);
  std::thread waiter([&] { (void)q.wait_for_depth(100, 10'000'000us); });
  // Close must release the parked trainer well before the 10 s timeout.
  std::this_thread::sleep_for(5ms);
  q.close();
  waiter.join();
  SUCCEED();
}

// --- feedback queue (seeded property fuzz) ----------------------------------
//
// The PR-4 RequestQueue fuzz, replayed over the feedback discipline: under
// ANY seeded interleaving of concurrent push / pop_batch / close, the
// stream must conserve samples (offered == enqueued + dropped, enqueued ==
// consumed once drained), never exceed its capacity bound, and only ever
// return the empty batch once closed-and-drained.

class FeedbackFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FeedbackFuzz, ConservationAndCapacityBoundUnderConcurrency) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  constexpr std::size_t kCapacity = 32;
  FeedbackQueue q(kCapacity);

  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 500;
  constexpr std::size_t kMaxBatch = 9;

  std::atomic<std::uint64_t> pushed_ok{0};
  std::atomic<std::uint64_t> popped_total{0};
  std::atomic<bool> batch_bound_violated{false};
  std::atomic<bool> capacity_violated{false};
  std::atomic<bool> fifo_violated{false};
  std::atomic<bool> stop_monitor{false};

  // Depth monitor: the capacity bound must hold at every instant, not just
  // at the end.
  std::thread monitor([&] {
    while (!stop_monitor.load(std::memory_order_relaxed)) {
      if (q.depth() > kCapacity) {
        capacity_violated.store(true, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(Rng(seed).split(static_cast<std::uint64_t>(p)).seed());
      for (int i = 0; i < kPerProducer; ++i) {
        // Per-producer monotone ids let a consumer check FIFO per producer.
        FeedbackSample s = sample(static_cast<std::uint64_t>(p) * 1'000'000u +
                                  static_cast<std::uint64_t>(i));
        if (q.push(std::move(s))) {
          pushed_ok.fetch_add(1, std::memory_order_relaxed);
        }
        if (rng.bernoulli(0.1)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(Rng(seed ^ 0xFEEDu).split(static_cast<std::uint64_t>(c)).seed());
      for (;;) {
        const std::size_t want =
            1 + static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(kMaxBatch) - 1));
        const auto batch = q.pop_batch(
            want, std::chrono::microseconds(rng.uniform_int(0, 200)));
        if (batch.empty()) {
          if (q.closed() && q.depth() == 0) {
            return;  // the only legal terminal empty batch
          }
          continue;  // timeout on an open queue — keep draining
        }
        if (batch.size() > want) {
          batch_bound_violated.store(true, std::memory_order_relaxed);
        }
        for (std::size_t i = 1; i < batch.size(); ++i) {
          if (batch[i].id / 1'000'000u == batch[i - 1].id / 1'000'000u &&
              batch[i].id <= batch[i - 1].id) {
            fifo_violated.store(true, std::memory_order_relaxed);
          }
        }
        popped_total.fetch_add(batch.size(), std::memory_order_relaxed);
      }
    });
  }

  for (int p = 0; p < kProducers; ++p) {
    threads[static_cast<std::size_t>(p)].join();
  }
  q.close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) {
    threads[t].join();
  }
  stop_monitor.store(true);
  monitor.join();

  EXPECT_FALSE(batch_bound_violated.load()) << "a batch exceeded max_batch";
  EXPECT_FALSE(capacity_violated.load()) << "depth exceeded capacity";
  EXPECT_FALSE(fifo_violated.load()) << "per-producer FIFO order broken";
  EXPECT_EQ(popped_total.load(), pushed_ok.load());
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.enqueued(), pushed_ok.load());
  EXPECT_EQ(q.consumed(), popped_total.load());
  EXPECT_EQ(q.offered(), q.enqueued() + q.dropped());
  EXPECT_EQ(q.offered(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
}

TEST_P(FeedbackFuzz, CloseAndDiscardRaceKeepsBooksBalanced) {
  // close_and_discard() racing pushes and pops: whatever each sample's
  // fate — consumed, discarded, or dropped-at-admission — the double-entry
  // books must balance exactly.
  const std::uint64_t seed =
      std::uint64_t{0xD15Cull} + static_cast<std::uint64_t>(GetParam());
  FeedbackQueue q(16);

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 300;
  std::atomic<int> producers_done{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(Rng(seed).split(static_cast<std::uint64_t>(p)).seed());
      for (int i = 0; i < kPerProducer; ++i) {
        (void)q.push(sample(static_cast<std::uint64_t>(i)));
        if (rng.bernoulli(0.05)) {
          std::this_thread::yield();
        }
      }
      producers_done.fetch_add(1);
    });
  }
  std::thread popper([&] {
    while (!q.closed() || q.depth() != 0) {
      if (q.pop_batch(5, 50us).empty() && q.closed()) {
        break;
      }
    }
  });
  // Usually fires while producers still push; when most pushes are dropped
  // at admission the popper may never consume 64, so the closer also stops
  // waiting once every producer has finished.
  std::thread closer([&] {
    while (q.consumed() < 64 && producers_done.load() < kProducers) {
      std::this_thread::yield();
    }
    (void)q.close_and_discard();
  });
  for (auto& t : threads) {
    t.join();
  }
  closer.join();
  popper.join();

  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.offered(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(q.offered(), q.enqueued() + q.dropped());
  // After close, any residue the popper didn't drain was discarded at
  // close_and_discard time or consumed afterwards by the drain loop.
  EXPECT_EQ(q.enqueued(), q.consumed() + q.discarded() + q.depth());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeedbackFuzz, ::testing::Values(1, 2, 3, 4, 5));

// --- canary controller gates ------------------------------------------------

CanaryPolicy tight_policy() {
  CanaryPolicy p;
  p.min_samples_per_arm = 4;
  p.max_accuracy_drop = 0.02;
  p.max_p99_ratio = 1.5;
  return p;
}

void feed_arm(CanaryController& c, bool arm, std::size_t n, double accuracy,
              double latency_s) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool correct =
        static_cast<double>(i) < accuracy * static_cast<double>(n);
    c.observe(arm, correct, latency_s);
  }
}

TEST(CanaryController, BelowSampleFloorOnEitherArmIsPending) {
  CanaryController c(tight_policy());
  feed_arm(c, false, 10, 1.0, 1e-3);  // incumbent has plenty
  feed_arm(c, true, 3, 0.0, 9e-3);    // candidate below the floor — and awful
  const CanaryEvaluation eval = c.evaluate();
  // Even a clearly-regressed candidate cannot be rolled back (or promoted)
  // on a degenerate window.
  EXPECT_EQ(eval.verdict, CanaryVerdict::kPending);
  EXPECT_TRUE(std::isnan(eval.latency.ratio));
}

TEST(CanaryController, AccuracyRegressionRollsBack) {
  CanaryController c(tight_policy());
  feed_arm(c, false, 20, 0.95, 1e-3);
  feed_arm(c, true, 20, 0.80, 1e-3);  // > max_accuracy_drop below incumbent
  const CanaryEvaluation eval = c.evaluate();
  EXPECT_EQ(eval.verdict, CanaryVerdict::kRollback);
  EXPECT_NE(eval.reason.find("accuracy"), std::string::npos) << eval.reason;
}

TEST(CanaryController, LatencyRegressionRollsBack) {
  CanaryController c(tight_policy());
  feed_arm(c, false, 20, 0.95, 1e-3);
  feed_arm(c, true, 20, 0.95, 2e-3);  // accuracy fine, p99 ratio 2 > 1.5
  const CanaryEvaluation eval = c.evaluate();
  EXPECT_EQ(eval.verdict, CanaryVerdict::kRollback);
  EXPECT_NE(eval.reason.find("p99"), std::string::npos) << eval.reason;
}

TEST(CanaryController, ClearGatesPromote) {
  CanaryController c(tight_policy());
  feed_arm(c, false, 20, 0.90, 1e-3);
  feed_arm(c, true, 20, 0.95, 1.1e-3);
  const CanaryEvaluation eval = c.evaluate();
  EXPECT_EQ(eval.verdict, CanaryVerdict::kPromote);
}

TEST(CanaryController, ResetDropsBothWindows) {
  CanaryController c(tight_policy());
  feed_arm(c, false, 20, 0.5, 1e-3);
  feed_arm(c, true, 20, 0.5, 1e-3);
  c.reset();
  EXPECT_EQ(c.incumbent().total, 0u);
  EXPECT_EQ(c.candidate().total, 0u);
  EXPECT_EQ(c.evaluate().verdict, CanaryVerdict::kPending);
}

// --- decision log byte stability --------------------------------------------

TEST(DecisionLog, IdenticalEvaluationsProduceIdenticalBytes) {
  CanaryController c(tight_policy());
  feed_arm(c, false, 20, 0.95, 1e-3);
  feed_arm(c, true, 20, 0.80, 1e-3);
  const CanaryEvaluation eval = c.evaluate();

  DecisionLog a;
  DecisionLog b;
  a.note(0, "canary published seq=1");
  b.note(0, "canary published seq=1");
  a.append(3, 1, eval);
  b.append(3, 1, eval);
  EXPECT_EQ(a.text(), b.text());
  EXPECT_EQ(a.lines(), 2u);
  EXPECT_NE(a.text().find("round=3"), std::string::npos);
  EXPECT_NE(a.text().find("verdict=rollback"), std::string::npos);
}

TEST(DecisionLog, NaNRatioPrintsAsFixedLiteral) {
  // A pending evaluation (degenerate window) carries a NaN ratio; the log
  // must print the fixed literal "nan", not a platform-dependent spelling.
  CanaryController c(tight_policy());
  feed_arm(c, false, 2, 1.0, 1e-3);
  DecisionLog log;
  log.append(0, 7, c.evaluate());
  EXPECT_NE(log.text().find("p99_ratio=nan"), std::string::npos) << log.text();
}

// --- seed plumbing ----------------------------------------------------------

TEST(LearningSeed, EnvOverrideParsesDecimalAndHex) {
  ASSERT_EQ(setenv(kLearningSeedEnv, "12345", 1), 0);
  EXPECT_EQ(learning_seed_from_env(7), 12345u);
  ASSERT_EQ(setenv(kLearningSeedEnv, "0xBEEF", 1), 0);
  EXPECT_EQ(learning_seed_from_env(7), 0xBEEFu);
  ASSERT_EQ(setenv(kLearningSeedEnv, "not-a-seed", 1), 0);
  EXPECT_EQ(learning_seed_from_env(7), 7u);
  ASSERT_EQ(unsetenv(kLearningSeedEnv), 0);
  EXPECT_EQ(learning_seed_from_env(7), 7u);
}

// --- end-to-end harness -----------------------------------------------------

/// Small-but-real harness shape shared by the e2e scenarios: 2 replicas,
/// canary at 30% traffic, pulses of up to 96 samples past a 24-sample
/// threshold, publish after 2 pulses.
HarnessConfig small_harness(std::uint64_t seed) {
  HarnessConfig cfg;
  cfg.seed = seed;
  cfg.features = 10;
  cfg.classes = 3;
  cfg.hidden = {12};
  cfg.round_size = 16;
  cfg.incumbent_train_samples = 150;
  cfg.incumbent_epochs = 5;
  cfg.replicas = 2;
  cfg.max_batch = 8;
  cfg.learning.pulse_threshold = 24;
  cfg.learning.max_pulse_samples = 96;
  cfg.learning.learning_rate = 0.1;
  cfg.learning.canary.traffic_percent = 30;
  cfg.learning.canary.min_samples_per_arm = 10;
  cfg.publish_after_pulses = 2;
  return cfg;
}

void expect_books_balanced(const HarnessReport& report) {
  const chaos::InvariantReport inv =
      chaos::check_learning_conservation(report.learning);
  EXPECT_TRUE(inv.ok()) << inv.to_string();
  // The harness's own per-response arm tally must agree with the server's
  // dispatch counters — the two are computed on opposite sides of the API.
  EXPECT_EQ(report.canary_responses, report.server.canary_dispatches);
  EXPECT_EQ(report.incumbent_responses, report.server.incumbent_dispatches);
  // Sole publisher: the server's canary lifecycle books are the pipeline's.
  EXPECT_EQ(report.server.canary_starts, report.learning.canary_publications);
  EXPECT_EQ(report.server.canary_promotes, report.learning.promotes);
  EXPECT_EQ(report.server.canary_rollbacks, report.learning.rollbacks);
}

TEST(LearningHarness, SameSeedReplaysByteIdenticalDecisionLog) {
  HarnessConfig cfg = small_harness(0xD371u);
  cfg.phases = {
      DriftPhase{6 * cfg.round_size, 1, 0.05, 0.0, 1.0},
      DriftPhase{10 * cfg.round_size, 2, 0.05, 0.0, 1.0},
  };
  const HarnessReport a = run_learning_harness(cfg);
  const HarnessReport b = run_learning_harness(cfg);

  // The decision sequence — and its byte-level log — is a pure function of
  // (seed, config): two runs diff clean.
  EXPECT_FALSE(a.decision_log.empty());
  EXPECT_EQ(a.decision_log, b.decision_log);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].round, b.decisions[i].round);
    EXPECT_EQ(a.decisions[i].canary_seq, b.decisions[i].canary_seq);
    EXPECT_EQ(a.decisions[i].verdict, b.decisions[i].verdict);
    EXPECT_EQ(a.decisions[i].reason, b.decisions[i].reason);
  }
  EXPECT_EQ(a.bit_exact_mismatches, 0u);
  EXPECT_EQ(b.bit_exact_mismatches, 0u);
  expect_books_balanced(a);
  expect_books_balanced(b);
}

TEST(LearningHarness, DifferentSeedsDiverge) {
  // Sanity check that the determinism above is not vacuous: a different
  // seed produces a different world (and, with near-certainty, different
  // logs — at minimum different routing tallies).
  HarnessConfig a_cfg = small_harness(0xA11CEu);
  HarnessConfig b_cfg = small_harness(0xB0Bu);
  const HarnessReport a = run_learning_harness(a_cfg);
  const HarnessReport b = run_learning_harness(b_cfg);
  EXPECT_TRUE(a.decision_log != b.decision_log ||
              a.canary_responses != b.canary_responses);
}

TEST(LearningHarness, DriftRetrainsAndPromotes) {
  // Phase 1 drifts the class templates out from under the incumbent; the
  // shadow retrains on fresh feedback and its candidate must eventually
  // clear the gates and be promoted via hot_swap.
  HarnessConfig cfg = small_harness(0x90207Eu);
  cfg.phases = {
      DriftPhase{4 * cfg.round_size, 1, 0.05, 0.0, 1.0},
      DriftPhase{16 * cfg.round_size, 2, 0.05, 0.0, 1.0},
  };
  const HarnessReport report = run_learning_harness(cfg);
  EXPECT_GE(report.learning.promotes, 1u) << report.decision_log;
  // A promote IS a hot_swap: the never-torn publication path.
  EXPECT_GE(report.server.weight_swaps, report.learning.promotes);
  EXPECT_EQ(report.bit_exact_mismatches, 0u);
  expect_books_balanced(report);
}

TEST(LearningHarness, LabelPoisoningTriggersAccuracyRollback) {
  // Scripted regression: the trainer's feedback labels are flipped with
  // probability 0.9 while the served ground truth stays correct, so every
  // candidate the shadow produces is garbage.  The accuracy gate must roll
  // each one back — and the incumbent must keep serving bit-identically.
  // Publishing waits for 5 pulses of 3 epochs each so the poison has fully
  // taken hold by the time the first candidate reaches the canary stage.
  HarnessConfig cfg = small_harness(0x6015u);
  cfg.learning.epochs_per_pulse = 3;
  cfg.publish_after_pulses = 5;
  cfg.phases = {
      DriftPhase{20 * cfg.round_size, 1, 0.05, 0.9, 1.0},
  };
  const HarnessReport report = run_learning_harness(cfg);
  EXPECT_GE(report.learning.rollbacks, 1u) << report.decision_log;
  EXPECT_EQ(report.learning.promotes, 0u) << report.decision_log;
  // Rollback never displaces the incumbent: no hot_swap ever happened and
  // every incumbent-arm response audited bit-exact against the original.
  EXPECT_EQ(report.server.weight_swaps, 0u);
  EXPECT_EQ(report.bit_exact_mismatches, 0u);
  EXPECT_NE(report.decision_log.find("accuracy"), std::string::npos)
      << report.decision_log;
  expect_books_balanced(report);
}

TEST(LearningHarness, CanaryLatencyInflationTriggersP99Rollback) {
  // No drift and no poisoning — the candidate is as accurate as the
  // incumbent — but the scripted world inflates canary-arm latencies 3x
  // against a 1.5x gate.  The p99 gate must catch it.
  HarnessConfig cfg = small_harness(0x1A7E57u);
  cfg.phases = {
      DriftPhase{14 * cfg.round_size, 1, 0.05, 0.0, 3.0},
  };
  const HarnessReport report = run_learning_harness(cfg);
  EXPECT_GE(report.learning.rollbacks, 1u) << report.decision_log;
  EXPECT_EQ(report.learning.promotes, 0u) << report.decision_log;
  EXPECT_EQ(report.server.weight_swaps, 0u);
  EXPECT_EQ(report.bit_exact_mismatches, 0u);
  EXPECT_NE(report.decision_log.find("p99"), std::string::npos)
      << report.decision_log;
  expect_books_balanced(report);
}

TEST(LearningHarness, EnergyLedgerBillsTheTrainer) {
  // Every retraining pulse runs through the trainer's own PhotonicBackend:
  // after any run that trained at least one pulse, the learning ledger must
  // show programming writes and MACs distinct from the serving bill.
  HarnessConfig cfg = small_harness(0xB111u);
  cfg.phases = {DriftPhase{8 * cfg.round_size, 1, 0.05, 0.0, 1.0}};
  const HarnessReport report = run_learning_harness(cfg);
  ASSERT_GE(report.learning.train_pulses, 1u);
  EXPECT_GT(report.learning.ledger.macs, 0u);
  EXPECT_GT(report.learning.ledger.weight_writes, 0u);
  EXPECT_GT(report.learning.samples_trained, 0u);
  expect_books_balanced(report);
}

}  // namespace
}  // namespace trident::learning
