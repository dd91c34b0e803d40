// Tests of the benchmark's own arithmetic: the percentile rule, median and
// quartiles, the counting allocator, span self time, and the seeded traffic.
// run.py runs them after every build, before any measurement.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "schedule.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace e2e {
namespace {

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(nearest_rank(0.99, 1000), 990u);
  EXPECT_EQ(samples_beyond(0.99, 1000), 10u);
  EXPECT_TRUE(percentile_supported(0.99, 1000));
  EXPECT_FALSE(percentile_supported(0.99, 999));
  EXPECT_FALSE(percentile_supported(0.99, 0));
  EXPECT_EQ(samples_beyond(0.5, 7), 3u);
  EXPECT_THROW((void)nearest_rank(0.0, 10), std::invalid_argument);
}

TEST(Percentile, NearestRankQuantile) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(quantile(v, 0.99), 990.0);
  EXPECT_EQ(quantile(v, 0.5), 500.0);
  EXPECT_EQ(quantile(v, 1.0), 1000.0);
  std::vector<double> one{4.0};
  EXPECT_EQ(quantile(one, 0.99), 4.0);
}

TEST(Median, OddAndEvenLikePython) {
  std::vector<double> odd{5, 1, 3};
  EXPECT_EQ(median(odd), 3.0);
  std::vector<double> even{4, 1, 3, 2};
  EXPECT_EQ(median(even), 2.5);
  std::vector<double> empty;
  EXPECT_THROW((void)median(empty), std::invalid_argument);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // Expected values from statistics.quantiles(data, n=4).
  std::vector<double> ten(10);
  std::iota(ten.begin(), ten.end(), 1.0);
  EXPECT_EQ(quartiles(ten), (std::array<double, 3>{2.75, 5.5, 8.25}));
  EXPECT_EQ(quartiles({1, 2, 3, 4}), (std::array<double, 3>{1.25, 2.5, 3.75}));
  EXPECT_EQ(quartiles({3, 1}), (std::array<double, 3>{0.5, 2.0, 3.5}));
  EXPECT_EQ(quartiles({5, 1, 4, 2, 3}), (std::array<double, 3>{1.5, 3.0, 4.5}));
  EXPECT_DOUBLE_EQ(iqr_share({5, 1, 4, 2, 3}), 1.0);
  EXPECT_THROW((void)quartiles({1.0}), std::invalid_argument);
}

// Allocations escape through here, so the compiler cannot elide them.
std::atomic<void*> g_escape{nullptr};

TEST(CountingAllocator, CountsEveryAllocationOnEveryThread) {
  const std::uint64_t before = allocation_count();
  auto p = std::make_unique<int>(7);
  g_escape.store(p.get());
  EXPECT_EQ(allocation_count() - before, 1u);
  std::vector<double> v;
  v.reserve(100);
  EXPECT_EQ(allocation_count() - before, 2u);
  const std::uint64_t before_thread = allocation_count();
  std::thread t([] {
    auto q = std::make_unique<long>(1);
    g_escape.store(q.get());
  });
  t.join();
  // the worker's own allocation, plus whatever std::thread allocates
  EXPECT_GE(allocation_count() - before_thread, 2u);
  const std::uint64_t quiet = allocation_count();
  v.push_back(1.0);  // within capacity
  EXPECT_EQ(allocation_count(), quiet);
}

TEST(Schedule, PureFunctionOfTheSeed) {
  const auto a = make_schedule(42, 1, 40'000.0, 0.25, 0, 1024, 0.5);
  const auto b = make_schedule(42, 1, 40'000.0, 0.25, 0, 1024, 0.5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].input, b[i].input);
    EXPECT_EQ(a[i].fast, b[i].fast);
  }
  const auto c = make_schedule(43, 1, 40'000.0, 0.25, 0, 1024, 0.5);
  EXPECT_NE(a.size() == c.size() && a[0].due_ns == c[0].due_ns &&
                a[1].input == c[1].input,
            true);
}

TEST(Schedule, EveryBlockHoldsTheSameExponentialGaps) {
  const auto a = make_schedule(1, 1, 1000.0, 10.0, 0, 8, 0.0);
  const auto b = make_schedule(2, 1, 1000.0, 10.0, 0, 8, 0.0);
  ASSERT_GE(a.size(), 2 * kGapStratum);
  ASSERT_GE(b.size(), 2 * kGapStratum);
  // A block's arrivals span the sum of its gaps, whatever the seed and the
  // order: kGapStratum mid-quantiles of Exp(1000/s) sum to 0.99965 s.
  const auto span = [](const std::vector<Arrival>& s, std::size_t block) {
    const std::int64_t start = block == 0 ? 0 : s[block * kGapStratum - 1].due_ns;
    return s[(block + 1) * kGapStratum - 1].due_ns - start;
  };
  EXPECT_NEAR(static_cast<double>(span(a, 0)), 0.99965e9, 1e5);
  EXPECT_NEAR(static_cast<double>(span(a, 1)), static_cast<double>(span(b, 1)), 1e3);
  EXPECT_NE(a[5].due_ns, b[5].due_ns);  // but in a seeded order
}

TEST(Schedule, PoissonRateTierShareAndOrder) {
  const auto s = make_schedule(7, 1, 40'000.0, 1.0, 0, 64, 0.5);
  // 40k arrivals expected; Poisson sd is 200.
  EXPECT_NEAR(static_cast<double>(s.size()), 40'000.0, 1'000.0);
  std::size_t fast = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_LT(s[i].input, 64u);
    EXPECT_LT(s[i].due_ns, 1'000'000'000);
    if (i > 0) {
      EXPECT_GE(s[i].due_ns, s[i - 1].due_ns);
    }
    fast += s[i].fast ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(fast) / static_cast<double>(s.size()), 0.5,
              0.02);
  const auto none = make_schedule(7, 1, 300.0, 1.0, 0, 64, 0.0);
  for (const Arrival& a : none) {
    EXPECT_FALSE(a.fast);
  }
  const auto closed = make_schedule(7, 2, 0.0, 0.0, 1234, 64, 0.5);
  EXPECT_EQ(closed.size(), 1234u);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log(8);
  const std::int32_t root = log.add("root", 0, 100);
  log.add("a", 10, 30, root);
  log.add("b", 20, 50, root);   // overlaps a: counted once
  log.add("c", 60, 70, root);
  log.add("d", 90, 130, root);  // clipped at the parent's end
  const std::vector<std::int64_t> self = self_times(log.spans());
  EXPECT_EQ(self[0], 100 - 40 - 10 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[4], 40);
  const std::vector<double> us = self_us_named(log.spans(), self, "c");
  ASSERT_EQ(us.size(), 1u);
  EXPECT_DOUBLE_EQ(us[0], 0.01);
}

TEST(Spans, FullLogDropsAndCounts) {
  SpanLog log(2);
  EXPECT_EQ(log.add("x", 0, 1), 0);
  EXPECT_EQ(log.add("x", 1, 2), 1);
  EXPECT_EQ(log.add("x", 2, 3), -1);
  EXPECT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
}

}  // namespace
}  // namespace e2e
