// Randomised property tests ("fuzz") over the analytical stack: random
// valid layer shapes must satisfy the model's invariants, and the two
// timing models (closed-form analyzer, event-driven simulator) must agree
// on every one of them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>
#include <vector>

#include "arch/photonic.hpp"
#include "common/rng.hpp"
#include "core/array_sim.hpp"
#include "dataflow/analyzer.hpp"
#include "serving/request_queue.hpp"

namespace trident {
namespace {

using dataflow::GemmShape;
using nn::LayerSpec;

/// Generates a random, guaranteed-valid layer.
LayerSpec random_layer(Rng& rng, int index) {
  const int kind = static_cast<int>(rng.uniform_int(0, 3));
  const int hw = static_cast<int>(rng.uniform_int(4, 64));
  const int in_c = static_cast<int>(rng.uniform_int(1, 96));
  const int out_c = static_cast<int>(rng.uniform_int(1, 128));
  const std::string name = "fuzz" + std::to_string(index);
  switch (kind) {
    case 0: {
      const int kernel = 1 + 2 * static_cast<int>(rng.uniform_int(0, 2));
      const int stride = static_cast<int>(rng.uniform_int(1, 2));
      const int pad = kernel / 2;
      LayerSpec l = LayerSpec::conv(name, hw, in_c, out_c, kernel, stride,
                                    pad);
      l.validate();
      return l;
    }
    case 1: {
      LayerSpec l = LayerSpec::dwconv(name, hw, in_c, 3, 1, 1);
      l.validate();
      return l;
    }
    case 2: {
      LayerSpec l = LayerSpec::dense(
          name, static_cast<int>(rng.uniform_int(1, 4096)),
          static_cast<int>(rng.uniform_int(1, 512)));
      l.validate();
      return l;
    }
    default: {
      LayerSpec l = LayerSpec::pool(name, hw, in_c, 2, 2);
      l.validate();
      return l;
    }
  }
}

nn::ModelSpec random_model(Rng& rng, int layers) {
  nn::ModelSpec m;
  m.name = "fuzz-model";
  for (int i = 0; i < layers; ++i) {
    m.layers.push_back(random_layer(rng, i));
  }
  return m;
}

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, GemmVolumeEqualsMacCount) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    const LayerSpec l = random_layer(rng, trial);
    const GemmShape g = dataflow::lower_to_gemm(l);
    EXPECT_EQ(g.m * g.k * g.cols, l.macs()) << l.name << " kind";
  }
}

TEST_P(FuzzSweep, AnalyzerInvariantsHoldForRandomLayers) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const auto array = arch::make_trident().array;
  for (int trial = 0; trial < 30; ++trial) {
    const LayerSpec l = random_layer(rng, trial);
    const auto cost = dataflow::analyze_layer(l, array, {}, 1e6);
    EXPECT_EQ(cost.macs, l.macs());
    EXPECT_GE(cost.latency.s(), 0.0);
    EXPECT_GE(cost.energy.total().J(), 0.0);
    // Latency at least covers the streamed symbols.
    EXPECT_GE(cost.latency.s(),
              static_cast<double>(cost.symbols) /
                  static_cast<double>(array.pe_count) *
                  array.symbol_time().s() * 0.99 /
                  std::max<double>(1.0, static_cast<double>(cost.tiles)));
    // Programming energy is exactly weights × write energy (batch 1).
    if (l.macs() > 0) {
      EXPECT_NEAR(cost.energy.weight_programming.J(),
                  static_cast<double>(l.weights()) *
                      array.weight_write_energy.J(),
                  1e-18 + cost.energy.weight_programming.J() * 1e-9);
    }
  }
}

TEST_P(FuzzSweep, SimulatorAgreesWithAnalyzerOnRandomModels) {
  Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  const auto array = arch::make_trident().array;
  const nn::ModelSpec model = random_model(rng, 6);
  const auto analytic = dataflow::analyze_model(model, array);
  const auto sim = core::simulate_array(model, array);
  EXPECT_NEAR(sim.makespan.s(), analytic.latency.s(),
              analytic.latency.s() * 1e-9);
  EXPECT_NEAR(sim.energy.total().J(), analytic.energy.total().J(),
              analytic.energy.total().J() * 1e-12);
}

TEST_P(FuzzSweep, BatchNeverWorsensPerInferenceCost) {
  Rng rng(3000 + static_cast<std::uint64_t>(GetParam()));
  const auto array = arch::make_trident().array;
  const nn::ModelSpec model = random_model(rng, 4);
  dataflow::AnalyzerOptions b1, b8;
  b8.batch = 8;
  const auto c1 = dataflow::analyze_model(model, array, b1);
  const auto c8 = dataflow::analyze_model(model, array, b8);
  EXPECT_LE(c8.latency.s() / 8.0, c1.latency.s() * 1.001);
  EXPECT_LE(c8.energy.total().J() / 8.0, c1.energy.total().J() * 1.001);
}

TEST_P(FuzzSweep, TridentNeverLosesToBaselinesOnRandomModels) {
  // The Fig 4/6 ordering must be structural, not tuned to the five CNNs.
  Rng rng(4000 + static_cast<std::uint64_t>(GetParam()));
  const nn::ModelSpec model = random_model(rng, 5);
  const auto trident_cost =
      dataflow::analyze_model(model, arch::make_trident().array);
  for (const auto& other : {arch::make_deap_cnn(), arch::make_crosslight(),
                            arch::make_pixel()}) {
    const auto cost = dataflow::analyze_model(model, other.array);
    EXPECT_LE(trident_cost.latency.s(), cost.latency.s() * 1.001)
        << other.name;
    EXPECT_LE(trident_cost.energy.total().J(),
              cost.energy.total().J() * 1.001)
        << other.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Values(1, 2, 3, 4, 5));

// --- serving request-queue properties ---------------------------------------
//
// Under ANY seeded interleaving of concurrent push / pop_batch / close, the
// queue must conserve requests and respect the batch bound.  The seed fixes
// each thread's action sequence; the interleaving is whatever the scheduler
// produces — the properties must hold regardless.

class QueueFuzz : public ::testing::TestWithParam<int> {};

TEST_P(QueueFuzz, ConservationAndBatchBoundUnderConcurrency) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  serving::AdmissionConfig admission;
  admission.capacity = 64;
  admission.policy = serving::OverloadPolicy::kReject;
  serving::RequestQueue q(admission);

  constexpr int kProducers = 3;
  constexpr int kPoppers = 3;
  constexpr int kPerProducer = 400;
  constexpr std::size_t kMaxBatch = 7;

  std::atomic<std::uint64_t> produced_accepted{0};
  std::atomic<std::uint64_t> popped_total{0};
  std::atomic<bool> batch_bound_violated{false};
  std::atomic<bool> fifo_violated{false};

  std::vector<std::thread> threads;
  threads.reserve(kProducers + kPoppers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(Rng(seed).split(static_cast<std::uint64_t>(p)).seed());
      for (int i = 0; i < kPerProducer; ++i) {
        serving::Request r;
        // Per-producer monotone ids let a popper check FIFO per producer.
        r.id = static_cast<std::uint64_t>(p) * 1'000'000u +
               static_cast<std::uint64_t>(i);
        if (q.push(r) == serving::AdmitResult::kAccepted) {
          produced_accepted.fetch_add(1, std::memory_order_relaxed);
        }
        if (rng.bernoulli(0.1)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int c = 0; c < kPoppers; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(Rng(seed ^ 0xF00Du).split(static_cast<std::uint64_t>(c)).seed());
      for (;;) {
        const std::size_t want =
            1 + static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(kMaxBatch) - 1));
        const auto batch =
            q.pop_batch(want, std::chrono::microseconds(
                                  rng.uniform_int(0, 200)));
        if (batch.empty()) {
          return;  // closed and drained — the only legal empty batch
        }
        if (batch.size() > want) {
          batch_bound_violated.store(true, std::memory_order_relaxed);
        }
        for (std::size_t i = 1; i < batch.size(); ++i) {
          // Within one batch, same-producer ids must stay in push order.
          if (batch[i].id / 1'000'000u == batch[i - 1].id / 1'000'000u &&
              batch[i].id <= batch[i - 1].id) {
            fifo_violated.store(true, std::memory_order_relaxed);
          }
        }
        popped_total.fetch_add(batch.size(), std::memory_order_relaxed);
      }
    });
  }

  // Join producers, then close: poppers drain the backlog and exit on the
  // empty-and-closed signal.
  for (int p = 0; p < kProducers; ++p) {
    threads[static_cast<std::size_t>(p)].join();
  }
  q.close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) {
    threads[t].join();
  }

  EXPECT_FALSE(batch_bound_violated.load()) << "a batch exceeded max_batch";
  EXPECT_FALSE(fifo_violated.load()) << "per-producer FIFO order broken";
  // Conservation: everything admitted was handed out exactly once, nothing
  // was left behind, nothing was invented.
  EXPECT_EQ(popped_total.load(), produced_accepted.load());
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.accepted(), produced_accepted.load());
  EXPECT_EQ(q.popped(), popped_total.load());
  EXPECT_EQ(q.accepted() + q.shed(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(q.popped() + q.depth(), q.accepted() + q.requeued());
}

TEST_P(QueueFuzz, BlockingProducersConserveUnderCloseRace) {
  // kBlock admission with a racing close(): every push resolves to either
  // kAccepted (and is eventually popped) or kClosed — never lost.
  const std::uint64_t seed =
      std::uint64_t{0xB10C} + static_cast<std::uint64_t>(GetParam());
  serving::AdmissionConfig admission;
  admission.capacity = 8;
  admission.policy = serving::OverloadPolicy::kBlock;
  serving::RequestQueue q(admission);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> popped{0};
  // Each producer holds its last push until the close is published, so
  // that push returns kClosed by construction — however fast the others
  // got the rest of theirs accepted.
  std::latch close_published(1);

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(Rng(seed).split(static_cast<std::uint64_t>(p)).seed());
      for (int i = 0; i < kPerProducer; ++i) {
        serving::Request r;
        r.id = static_cast<std::uint64_t>(i);
        if (i == kPerProducer - 1) {
          close_published.wait();
        }
        switch (q.push(r)) {
          case serving::AdmitResult::kAccepted:
            accepted.fetch_add(1, std::memory_order_relaxed);
            break;
          case serving::AdmitResult::kClosed:
            closed.fetch_add(1, std::memory_order_relaxed);
            break;
          case serving::AdmitResult::kShed:
            ADD_FAILURE() << "kBlock policy must never shed";
            break;
        }
        if (rng.bernoulli(0.05)) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::thread popper([&] {
    Rng rng(seed ^ 0x70Full);
    for (;;) {
      const auto batch = q.pop_batch(
          1 + static_cast<std::size_t>(rng.uniform_int(0, 4)),
          std::chrono::microseconds(50));
      if (batch.empty()) {
        return;
      }
      popped.fetch_add(batch.size(), std::memory_order_relaxed);
    }
  });
  // Close mid-stream: some pushes were already admitted, later ones (and
  // any producer parked on a full queue) must observe kClosed.
  std::thread closer([&] {
    while (accepted.load(std::memory_order_relaxed) < kPerProducer) {
      std::this_thread::yield();
    }
    q.close();
    close_published.count_down();
  });
  for (auto& t : threads) {
    t.join();
  }
  closer.join();
  popper.join();

  EXPECT_EQ(accepted.load() + closed.load(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_GE(closed.load(), static_cast<std::uint64_t>(kProducers));
  EXPECT_EQ(popped.load(), accepted.load());
  EXPECT_EQ(q.depth(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace trident
