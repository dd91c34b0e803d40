#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident {

namespace {

/// Chunks per participating thread: more chunks than threads, so a worker
/// woken late takes fewer of them instead of holding up the region.
constexpr std::size_t kChunksPerThread = 4;
/// The claim word's chunk fields are 16 bits wide.
constexpr std::size_t kMaxChunks = 0xFFFF;
constexpr std::uint64_t kChunkMask = 0xFFFF;

/// Pause-loop polls of the owner waiting for a straggler chunk before it
/// starts yielding its core instead.  It keeps its core rather than
/// sleeping: a sleeping owner cost closed-loop throughput
/// (docs/performance.md).
constexpr unsigned kOwnerPolls = 1024;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// parallel_for dispatch counters: how often a loop fans out across the
/// pool, and how often it runs on the caller (one grain, or a busy pool).
struct PoolMetrics {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& for_inline =
      reg.counter("trident_pool_parallel_for_inline_total",
                  "parallel_for calls run on the caller thread "
                  "(range fits one grain, or the pool runs another region)");
  telemetry::Counter& for_dispatched =
      reg.counter("trident_pool_parallel_for_dispatched_total",
                  "parallel_for calls fanned out across workers");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

}  // namespace

ThreadPool::ThreadPool()
    : ThreadPool(std::max(1U, std::thread::hardware_concurrency()) - 1) {}

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

bool ThreadPool::try_run(std::size_t begin, std::size_t end,
                         std::size_t grain, ChunkFn fn, void* ctx) {
  if (workers_.empty() || busy_.exchange(true, std::memory_order_acquire)) {
    return false;
  }
  if (telemetry::enabled()) {
    pool_metrics().for_dispatched.add(1);
  }
  const std::size_t n = end - begin;
  const std::size_t g = std::max<std::size_t>(1, grain);
  const std::size_t threads = workers_.size() + 1;
  const std::size_t target =
      std::min({(n + g - 1) / g, kChunksPerThread * threads, kMaxChunks});
  const std::size_t step = (n + target - 1) / target;
  const std::uint64_t count = (n + step - 1) / step;

  // Publish: the fields first, then the claim word that releases them.
  fn_.store(fn, std::memory_order_relaxed);
  ctx_.store(ctx, std::memory_order_relaxed);
  begin_.store(begin, std::memory_order_relaxed);
  end_.store(end, std::memory_order_relaxed);
  step_.store(step, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  const std::uint64_t seq = (claim_.load(std::memory_order_relaxed) >> 32) + 1;
  claim_.store(seq << 32 | count << 16, std::memory_order_release);

  // The bump releases the claim word to every worker that sees it; a
  // worker still on its way to sleep sees it without the wake.
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();

  run_chunks();
  // Chunks other threads claimed may still be running; the body lives on
  // this caller's stack, so the region ends only when they have finished.
  for (unsigned i = 0; done_.load(std::memory_order_acquire) != count; ++i) {
    if (i < kOwnerPolls) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  std::exception_ptr error;
  if (failed_.load(std::memory_order_relaxed)) {
    error = std::exchange(error_, nullptr);
    failed_.store(false, std::memory_order_relaxed);
  }
  busy_.store(false, std::memory_order_release);
  if (error) {
    std::rethrow_exception(error);
  }
  return true;
}

void ThreadPool::run_chunks() {
  std::uint64_t c = claim_.load(std::memory_order_acquire);
  for (;;) {
    const std::uint64_t next = c & kChunkMask;
    if (next >= (c >> 16 & kChunkMask)) {
      return;
    }
    const ChunkFn fn = fn_.load(std::memory_order_relaxed);
    void* const ctx = ctx_.load(std::memory_order_relaxed);
    const std::size_t begin = begin_.load(std::memory_order_relaxed);
    const std::size_t end = end_.load(std::memory_order_relaxed);
    const std::size_t step = step_.load(std::memory_order_relaxed);
    // A failed exchange reloads c (another claim, or a newer region) and
    // the fields are read again.
    if (!claim_.compare_exchange_weak(c, c + 1, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      continue;
    }
    const std::size_t lo = begin + static_cast<std::size_t>(next) * step;
    const std::size_t hi = std::min(end, lo + step);
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        fn(ctx, lo, hi);
      } catch (...) {
        if (!failed_.exchange(true, std::memory_order_relaxed)) {
          error_ = std::current_exception();
        }
      }
    }
    done_.fetch_add(1, std::memory_order_release);
    c = claim_.load(std::memory_order_acquire);
  }
}

void ThreadPool::worker_loop() {
  // The epoch the pool was built with, not a fresh load: a worker that
  // starts late must still see every region (and the shutdown) published
  // since construction.
  std::uint32_t seen = 0;
  for (;;) {
    // Sleep at once, with no poll for the next region first: polling cost
    // more CPU than the wakes it saved and did not lower latency
    // (docs/performance.md).
    epoch_.wait(seen, std::memory_order_acquire);
    seen = epoch_.load(std::memory_order_acquire);
    if (stopping_.load(std::memory_order_acquire)) {
      return;
    }
    run_chunks();
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

namespace detail {

void note_for_inline() {
  if (telemetry::enabled()) {
    pool_metrics().for_inline.add(1);
  }
}

}  // namespace detail

}  // namespace trident
