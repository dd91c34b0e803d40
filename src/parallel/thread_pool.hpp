// A fork-join thread pool plus parallel_for.
//
// The sweeps in this project (per-layer dataflow analysis over five CNNs,
// Monte-Carlo noise runs, activation-curve sweeps) are embarrassingly
// parallel, and so are the row groups of one large photonic layer.
// `parallel_for` (and its range form, `parallel_for_ranges`) publishes one
// *region* at a time: a range, a chunk size and a reference to the body.
// The pool's workers and the calling thread claim contiguous chunks of it
// through one atomic counter until none is left, so the caller's core works
// too and dispatch allocates nothing.
// Following the OpenMP-examples idiom of static chunked loops, a chunk is a
// contiguous index range, which keeps each thread's writes on distinct
// cache lines for the common "fill output[i]" pattern.
//
// Only one region runs at a time.  A call that finds the pool busy —
// another thread's region, or its own from inside a body — runs its whole
// range inline at once: it never queues and never waits, and nesting
// cannot deadlock.  On a single-core host the pool has no workers and
// every call runs inline.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace trident {

class ThreadPool {
 public:
  /// Runs indices [lo, hi) of a region's range; `ctx` is the caller's body.
  using ChunkFn = void (*)(void* ctx, std::size_t lo, std::size_t hi);

  /// One worker per hardware thread besides the caller's, since the thread
  /// that publishes a region works too; none on a single-core host.
  ThreadPool();
  /// Exactly `workers` workers.  A pool without any declines every region.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Runs fn(ctx, lo, hi) over [begin, end) in contiguous chunks of about
  /// `grain` or more indices, on the calling thread and the workers, and
  /// returns true once every chunk has run.  Returns false at once, having
  /// run nothing, when another region is live or the pool has no workers —
  /// the caller then runs the range inline.  The first exception a chunk
  /// throws is rethrown here after every claimed chunk has finished; chunks
  /// claimed after it are skipped.
  bool try_run(std::size_t begin, std::size_t end, std::size_t grain,
               ChunkFn fn, void* ctx);

 private:
  void worker_loop();
  /// Claims and runs chunks of the live region until none is left.
  void run_chunks();

  // The claim word packs the region's sequence number (high 32 bits), its
  // chunk count (next 16) and the next unclaimed chunk (low 16).  A thread
  // reads the region fields below only between loading the claim word and
  // claiming through a compare-exchange on it, and the owner rewrites them
  // only after every chunk has been claimed and run — so a claim that
  // succeeds proves the fields it read belong to its region.  The fields
  // are atomics because a late thread may read them while the next region
  // is being published; its claim then fails and it reads them again.
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<ChunkFn> fn_{nullptr};
  std::atomic<void*> ctx_{nullptr};
  std::atomic<std::size_t> begin_{0};
  std::atomic<std::size_t> end_{0};
  std::atomic<std::size_t> step_{1};
  /// Chunks of the live region that have finished (run or skipped).
  std::atomic<std::uint32_t> done_{0};
  /// Set by the first chunk that throws; error_ is written by that chunk
  /// alone, before its done_ increment, and read by the owner after all.
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  /// True while a region is live; the owner's exchange is the admission.
  std::atomic<bool> busy_{false};

  /// Bumped once per published region (and at shutdown); workers sleep on
  /// it.
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> stopping_{false};

  std::vector<std::thread> workers_;
};

/// Global pool shared by the simulator's sweeps and kernels (constructed on
/// first dispatch, so a run whose loops all fit one grain never starts it).
ThreadPool& global_pool();

namespace detail {
/// Telemetry tick for a parallel_for run inline on the caller thread.
void note_for_inline();
}  // namespace detail

/// Runs fn(lo, hi) over contiguous subranges that together cover
/// [begin, end) once each.  A range of more than `grain` indices is
/// published as one region of the global pool, whose chunks of `grain` or
/// more indices run across the caller and the workers; a smaller range, or
/// one met while the pool runs another region or has no workers, runs as a
/// single fn(begin, end) on the caller.  Exceptions are propagated to the
/// caller (first one wins).  Neither arm allocates: the pool reaches the
/// callable through a plain pointer, never a std::function (the plan
/// runtime's steady-state zero-alloc guarantee rides on this).
template <typename Fn>
void parallel_for_ranges(std::size_t begin, std::size_t end, Fn&& fn,
                         std::size_t grain = 1) {
  TRIDENT_REQUIRE(begin <= end, "empty or inverted range");
  if (begin == end) {
    return;
  }
  using F = std::remove_reference_t<Fn>;
  if (end - begin > grain) {
    const ThreadPool::ChunkFn chunk = [](void* ctx, std::size_t lo,
                                         std::size_t hi) {
      (*static_cast<F*>(ctx))(lo, hi);
    };
    void* const ctx =
        const_cast<void*>(static_cast<const void*>(std::addressof(fn)));
    if (global_pool().try_run(begin, end, grain, chunk, ctx)) {
      return;
    }
  }
  detail::note_for_inline();
  fn(begin, end);
}

/// Runs fn(i) for every i in [begin, end), split as parallel_for_ranges
/// splits the range.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                  std::size_t grain = 1) {
  parallel_for_ranges(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          fn(i);
        }
      },
      grain);
}

}  // namespace trident
