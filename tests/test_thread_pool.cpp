#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace trident {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, RespectsSubrange) {
  std::vector<int> hits(100, 0);
  parallel_for(10, 20, [&](std::size_t i) { hits[i] = 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], (i >= 10 && i < 20) ? 1 : 0) << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool touched = false;
  parallel_for(5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, InvertedRangeThrows) {
  EXPECT_THROW(parallel_for(5, 4, [](std::size_t) {}), Error);
}

TEST(ParallelFor, PropagatesWorkerException) {
  EXPECT_THROW(parallel_for(0, 64,
                            [](std::size_t i) {
                              if (i == 17) {
                                throw Error("worker failure");
                              }
                            }),
               Error);
}

TEST(ParallelFor, MatchesSerialReduction) {
  // Chunked writes into disjoint slots, then reduce — the simulator's
  // standard sweep pattern.
  std::vector<double> out(512);
  parallel_for(0, out.size(), [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 0.5;
  });
  const double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 0.5 * (511.0 * 512.0 / 2.0));
}

TEST(ParallelFor, GrainForcesSerialForTinyRanges) {
  // With grain >= range the loop runs inline (no pool dispatch) — verify
  // correctness is unchanged.
  std::vector<int> hits(8, 0);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] = 1; }, 100);
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ParallelFor, ResultIndependentOfGrain) {
  // The batched GEMM kernels pick their grain from the problem size; the
  // answer must not depend on how the range gets chunked (workers own
  // disjoint output slots, so any grain — serial included — is equivalent).
  auto run = [](std::size_t grain) {
    std::vector<double> out(257);  // deliberately not a power of two
    parallel_for(
        0, out.size(),
        [&](std::size_t i) {
          double acc = 0.0;
          for (std::size_t k = 0; k < 64; ++k) {
            acc += static_cast<double>(i + 1) / static_cast<double>(k + 1);
          }
          out[i] = acc;
        },
        grain);
    return out;
  };
  const std::vector<double> serial = run(10000);  // grain ≥ n → inline
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{256}}) {
    EXPECT_EQ(run(grain), serial) << "grain " << grain;
  }
}

TEST(ParallelFor, ConcurrentCallersEachCoverTheirRangeOnce) {
  // Two threads dispatch at once, over and over: one of them owns the
  // pool's region and the other runs its range inline, or they take turns.
  // Either way each sees every index of its own range exactly once.
  constexpr std::size_t kN = 4096;
  constexpr int kRounds = 200;
  auto caller = [](std::vector<std::atomic<int>>& hits) {
    for (int round = 0; round < kRounds; ++round) {
      parallel_for(0, kN, [&](std::size_t i) { ++hits[i]; });
    }
  };
  std::vector<std::atomic<int>> a(kN);
  std::vector<std::atomic<int>> b(kN);
  std::thread ta(caller, std::ref(a));
  std::thread tb(caller, std::ref(b));
  ta.join();
  tb.join();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(a[i].load(), kRounds) << i;
    EXPECT_EQ(b[i].load(), kRounds) << i;
  }
}

TEST(ParallelFor, NestedCallInsideABodyCompletes) {
  // The inner call finds the pool busy with the outer region and runs
  // inline, so nesting cannot deadlock.
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN * kN);
  parallel_for(0, kN, [&](std::size_t i) {
    parallel_for(0, kN, [&](std::size_t j) { ++hits[i * kN + j]; });
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, FirstExceptionPropagatesAndThePoolStaysUsable) {
  for (int round = 0; round < 20; ++round) {
    // Every index from 100 on throws; whichever chunk throws first wins.
    try {
      parallel_for(0, 1000, [](std::size_t i) {
        if (i >= 100) {
          throw Error("index " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "no exception propagated";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("index "), std::string::npos);
    }
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) {
      ASSERT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadPool, ShutsDownWhetherOrNotItsWorkersEverStarted) {
  // Destroy pools straight after construction, and straight after a region
  // the caller may have run alone: a worker that starts only after the
  // regions and the shutdown were published must still see them and exit.
  for (int round = 0; round < 100; ++round) {
    ThreadPool idle(3);
  }
  for (int round = 0; round < 100; ++round) {
    ThreadPool pool(3);
    std::vector<int> hits(64, 0);
    const bool ran = pool.try_run(
        0, hits.size(), 1,
        [](void* ctx, std::size_t lo, std::size_t hi) {
          auto& h = *static_cast<std::vector<int>*>(ctx);
          for (std::size_t i = lo; i < hi; ++i) {
            ++h[i];
          }
        },
        &hits);
    ASSERT_TRUE(ran);
    for (const int h : hits) {
      ASSERT_EQ(h, 1);
    }
  }
}

TEST(ThreadPool, WithoutWorkersDeclinesEveryRegion) {
  // A single-core host's pool: try_run declines at once, so parallel_for
  // runs the whole range on the caller without waking anything.
  ThreadPool serial(0);
  EXPECT_EQ(serial.size(), 0u);
  std::vector<int> hits(64, 0);
  EXPECT_FALSE(serial.try_run(
      0, hits.size(), 1,
      [](void* ctx, std::size_t lo, std::size_t hi) {
        auto& h = *static_cast<std::vector<int>*>(ctx);
        for (std::size_t i = lo; i < hi; ++i) {
          ++h[i];
        }
      },
      &hits));
  for (const int h : hits) {
    EXPECT_EQ(h, 0);
  }
}

TEST(ParallelForRanges, NonEmptySubrangesCoverTheRangeOnce) {
  // Each call gets a non-empty [lo, hi); together they cover the range once.
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<int> calls{0};
  parallel_for_ranges(3, kN, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LT(lo, hi);
    ++calls;
    for (std::size_t i = lo; i < hi; ++i) {
      ++hits[i];
    }
  });
  EXPECT_GE(calls.load(), 1);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), i < 3 ? 0 : 1) << i;
  }
}

TEST(GlobalPool, SingletonIsStable) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
  // One worker per hardware thread besides the caller's.
  EXPECT_EQ(a.size(), std::max(1U, std::thread::hardware_concurrency()) - 1);
}

}  // namespace
}  // namespace trident
