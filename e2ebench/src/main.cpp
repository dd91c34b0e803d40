// End-to-end benchmark of the Trident serving runtime.
//
//   trident_e2e --workload NAME --seed N --seconds S --trace 0|1
//               [--out-dir DIR]
//
// Runs one named workload against the real threaded runtime — a
// serving::Server with its replica workers, plus the learning pipeline on
// learn_canary — and covers each request from Server::submit to its
// resolved response.  Every response is checked bit for bit against a
// reference forward.  The report ends in one JSON line: the end-to-end
// metrics with --trace 0, the per-layer metrics of a traced run with
// --trace 1.  README.md defines every metric and says why each workload
// exists.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "arch/photonic.hpp"
#include "common/rng.hpp"
#include "core/photonic_backend.hpp"
#include "core/quantized_backend.hpp"
#include "dataflow/analyzer.hpp"
#include "learning/pipeline.hpp"
#include "learning/scripted_stream.hpp"
#include "nn/dataset.hpp"
#include "nn/mlp.hpp"
#include "nn/plan.hpp"
#include "nn/train.hpp"
#include "schedule.hpp"
#include "serving/server.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

namespace core = trident::core;
namespace learning = trident::learning;
namespace nn = trident::nn;
namespace serving = trident::serving;
namespace telemetry = trident::telemetry;
using nn::Mlp;
using nn::Vector;
using trident::Rng;

// --- workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  std::vector<int> layers;
  int replicas;
  std::size_t max_batch;
  double fast_share;          ///< share of requests sent to the fast tier
  double open_rate;           ///< req/s of the open-loop phase
  double closed_nominal_rps;  ///< sizes the closed phase's request count
  double open_share;          ///< share of --seconds given to the open phase
  bool learning;              ///< shadow training + canary publication
  bool telemetry;             ///< the program's own telemetry switch
  std::uint32_t pool;         ///< distinct pooled inputs
};

// Why each exists is in README.md.  The closed phase sends a fixed number of
// requests (nominal rate × its share of --seconds) so every run of a seed
// allocates the same recorder and record memory, which keeps peak RSS steady.
const Workload kWorkloads[] = {
    {"small_tiers", {64, 128, 64, 10}, 2, 8, 0.5, 40'000.0, 110'000.0, 0.6,
     false, false, 1024},
    {"large_exact", {512, 1024, 512, 10}, 2, 16, 0.0, 300.0, 9'000.0, 0.8,
     false, false, 128},
    {"learn_canary", {64, 128, 64, 10}, 2, 8, 0.0, 2'000.0, 110'000.0, 0.8,
     true, true, 256},
};

constexpr int kSetups = 21;              // cold set-ups per run (median)
constexpr std::size_t kClosedWindow = 32;  // closed loop: requests in flight
constexpr std::size_t kClosedWindows = 16;  // closed-phase throughput windows
constexpr std::size_t kMinWindowRequests = 1000;  // open-phase latency window
constexpr std::size_t kMaxWindows = 1000;  // cap on open-phase windows
// serving::LatencyRecorder keeps 2^20 samples per server; past that it
// drops them, which changes the per-request cost and the memory curve.
// A phase's server stays well below, warm-up included.
constexpr std::size_t kMaxPhaseRequests = 900'000;
constexpr std::size_t kRingSlots = 8192;  // open-loop futures held at once
constexpr int kMaxBursts = 100;  // set-up / warm-up bursts before giving up
constexpr std::size_t kWarmupIds = 16'384;  // ids reserved for probe + warm-up
constexpr std::size_t kTraceEventCap = 16'384;  // telemetry ring, per thread
constexpr std::size_t kTracedRequests = 20'000;  // request trees in the trace
constexpr double kMissMs = 1e12;  // latency a shed or failed request reads as

// learn_canary's trainer: fixed pulses of kPulse samples; a canary after
// every kPulsesPerCanary pulses, observed over the kWindow requests starting
// kGap ids (one second of traffic) after max(trained samples, previous
// window end).  The gap is far longer than a pulse plus publication takes,
// so the canary is live before its window's first request is sent, and the
// samples trained per cycle exceed kGap + kWindow, so the feedback backlog
// cannot grow.
constexpr std::size_t kPulse = 576;
constexpr std::uint64_t kPulsesPerCanary = 4;
constexpr std::uint64_t kGap = 2000;
constexpr std::uint64_t kWindow = 256;
constexpr std::uint32_t kCanaryPercent = 25;

// --- small helpers ------------------------------------------------------------

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] double cpu_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of the process so far (getrusage ru_maxrss), in MB.
[[nodiscard]] double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

[[nodiscard]] std::uint64_t hash_output(std::span<const double> v) {
  std::uint64_t h = e2e::splitmix64(v.size());
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    h = e2e::splitmix64(h ^ bits);
  }
  return h;
}

[[nodiscard]] int argmax(std::span<const double> v) {
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

[[nodiscard]] double median_of(std::vector<double> v) {
  return v.empty() ? 0.0 : e2e::median(v);
}

[[nodiscard]] double quantile_of(std::vector<double> v, double q) {
  return v.empty() ? 0.0 : e2e::quantile(v, q);
}

[[noreturn]] void fail(const std::string& why) { throw std::runtime_error(why); }

// --- per-request records --------------------------------------------------------

enum RecordFlag : std::uint8_t {
  kAskFast = 1,     ///< sent to the fast tier
  kServedFast = 2,  ///< the fast tier answered
  kCanaryArm = 4,   ///< the canary weights answered
  kOk = 8,          ///< ResponseStatus::kOk
  kShed = 16,       ///< admission refused it
  kDone = 32,       ///< the completion hook saw it
  kCorrect = 64,    ///< argmax matched the true label (learn_canary)
};

/// What the completion hook keeps of one response: enough to verify its
/// bits afterwards and time it, with no allocation on the serving thread.
struct Record {
  std::int64_t hook_ns = 0;
  std::uint64_t hash = 0;
  std::uint32_t version = 0;
  std::uint32_t input = 0;
  std::int8_t replica = -1;
  /// Written by the generator before submit and by the completion hook
  /// after the fields above; atomic, so a replica thread that sees kDone
  /// in another request's record also sees that record's fields.
  std::atomic<std::uint8_t> flags{0};
};

/// Extra stamps of a traced request.
struct Stamps {
  std::int64_t submit_begin = 0;
  std::int64_t submit_end = 0;
  double queue_wait_s = 0.0;
  double service_s = 0.0;
  double sojourn_s = 0.0;
};

class Learner;

/// Owner of the completion hook's buffers for one Server.  Request ids are
/// the server's submit index, so they index the records directly.
class Sink {
 public:
  // Value-initialised, so every page is touched up front and the run's
  // memory does not depend on how many records the phase uses.
  Sink(std::size_t capacity, bool traced)
      : records(capacity), stamps(traced ? capacity : 0) {}

  void on_response(const serving::Response& r);

  std::vector<Record> records;
  std::vector<Stamps> stamps;
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> overflow{0};
  std::atomic<bool> stamp_timing{false};
  Learner* learner = nullptr;  ///< set while learn_canary's phase runs
};

// --- learn_canary: in-order feedback + benchmark-owned trainer -----------------

struct ArmWeights {
  std::map<std::uint64_t, Mlp> incumbent;  ///< by weights_version
  std::map<std::uint64_t, Mlp> canary;     ///< by canary sequence
};

class Learner {
 public:
  Learner(learning::LearningPipeline& pipeline, serving::Server& server,
          const std::vector<learning::StreamSample>& stream,
          std::uint64_t id_base, Sink& sink, e2e::SpanLog* spans,
          std::uint64_t seed, ArmWeights& arms)
      : pipeline_(pipeline),
        server_(server),
        stream_(stream),
        id_base_(id_base),
        sink_(sink),
        spans_(spans),
        latency_key_(e2e::splitmix64(seed ^ 0x1a7e)),
        arms_(arms),
        next_(id_base) {
    first_canary_ns_.assign(1024, 0);
    first_version_ns_.assign(1024, 0);
    publish_ns_.assign(1024, 0);
    promote_ns_.assign(1024, 0);
  }

  Learner(const Learner&) = delete;
  Learner& operator=(const Learner&) = delete;

  /// Stops and joins the trainer if finish() never ran (a failed phase).
  ~Learner() {
    if (trainer_.joinable()) {
      {
        std::lock_guard lock(mutex_);
        abort_ = true;
      }
      cv_.notify_all();
      trainer_.join();
    }
  }

  /// Hook side: the response for `r.id` is recorded; feed and observe every
  /// request whose turn has come, strictly in id order, so training and
  /// canary windows see the same sequence whatever the batch grouping and
  /// whichever replica answered first.
  void on_response(const serving::Response& r, const Record& rec) {
    std::unique_lock lock(mutex_);
    auto& first = r.canary ? first_canary_ns_ : first_version_ns_;
    if (r.weights_version < first.size() && first[r.weights_version] == 0) {
      first[r.weights_version] = rec.hook_ns;
    }
    advance(lock);
  }

  /// Whether the response's argmax is its stream sample's true label.
  [[nodiscard]] bool correct(const serving::Response& r) const {
    const std::uint64_t i = r.id - id_base_;
    return r.id >= id_base_ && i < stream_.size() &&
           r.status == serving::ResponseStatus::kOk &&
           argmax(r.output) == stream_[i].true_label;
  }

  /// Generator side: request `id` was shed, so the sequence skips it.
  void on_shed() {
    std::unique_lock lock(mutex_);
    advance(lock);
  }

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  void note_sent(std::uint64_t sent) {
    sent_.store(sent, std::memory_order_release);
  }

  void start() { trainer_ = std::thread([this] { trainer_loop(); }); }
  /// Waits until every response was fed and the trainer has used all whole
  /// pulses of it, then joins the trainer.
  void finish() {
    {
      std::lock_guard lock(mutex_);
      feeding_done_ = true;
    }
    cv_.notify_all();
    trainer_.join();
  }

  [[nodiscard]] std::string error() const {
    std::lock_guard lock(mutex_);
    return error_;
  }
  [[nodiscard]] std::uint64_t late() const { return late_; }
  [[nodiscard]] std::uint64_t window_canary() const { return window_canary_; }
  [[nodiscard]] std::uint64_t window_total() const { return window_total_; }
  [[nodiscard]] const std::string& decisions() const { return log_.text(); }

  /// Publication return → first response stamped with that weight set.
  [[nodiscard]] std::vector<double> adopt_ms() const {
    std::vector<double> out;
    for (std::size_t s = 1; s < publish_ns_.size(); ++s) {
      if (publish_ns_[s] != 0 && first_canary_ns_[s] != 0) {
        out.push_back(static_cast<double>(first_canary_ns_[s] - publish_ns_[s]) *
                      1e-6);
      }
      if (promote_ns_[s] != 0 && first_version_ns_[s] != 0) {
        out.push_back(
            static_cast<double>(first_version_ns_[s] - promote_ns_[s]) * 1e-6);
      }
    }
    return out;
  }

 private:
  void advance(std::unique_lock<std::mutex>& lock) {
    const std::uint64_t end = id_base_ + stream_.size();
    bool window_closed = false;
    while (next_ < end) {
      const Record& rec = sink_.records[next_];
      if ((rec.flags & (kDone | kShed)) == 0) {
        break;
      }
      const std::uint64_t i = next_ - id_base_;
      const bool in_window = i >= win_begin_ && i < win_end_;
      if (in_window && ++window_seen_ == win_end_ - win_begin_) {
        window_closed = true;
      }
      if ((rec.flags & kDone) != 0) {
        const bool canary = (rec.flags & kCanaryArm) != 0;
        if (in_window) {
          // Deterministic latency stand-in (as learning/harness.cpp does):
          // the gate must follow the seed, not the host's clock.
          const double u =
              static_cast<double>(e2e::splitmix64(latency_key_ + i) >> 11) *
              0x1.0p-53;
          pipeline_.observe_response(canary, (rec.flags & kCorrect) != 0,
                                     (900.0 + 200.0 * u) * 1e-6);
          ++window_total_;
          window_canary_ += canary ? 1 : 0;
        }
        const learning::StreamSample& s = stream_[i];
        const bool traced =
            spans_ != nullptr && tracing_.load(std::memory_order_relaxed);
        const std::int64_t t0 = traced ? now_ns() : 0;
        (void)pipeline_.feed(learning::FeedbackSample{i, s.input, s.feedback_label});
        if (traced) {
          spans_->add("learning.feed", t0, now_ns(), -1, next_ + 1);
        }
      }
      ++next_;
    }
    if (next_ == end || window_closed) {
      lock.unlock();
      cv_.notify_all();
    }
  }

  void set_error(const std::string& why) {
    std::lock_guard lock(mutex_);
    if (error_.empty()) {
      error_ = why;
    }
  }

  void trainer_loop() {
    const std::uint64_t total = stream_.size();
    std::uint64_t trained = 0;
    std::uint64_t pulses_since = 0;
    std::uint64_t prev_window_end = 0;
    std::uint64_t round = 0;
    for (;;) {
      if (pipeline_.feedback().depth() >= kPulse) {
        const std::int64_t t0 = now_ns();
        const std::size_t n = pipeline_.train_pulse();
        const std::int64_t t1 = now_ns();
        if (n != kPulse) {
          set_error("train_pulse consumed " + std::to_string(n) + " samples");
          return;
        }
        if (spans_ != nullptr) {
          spans_->add("learning.train_pulse", t0, t1);
        }
        trained += n;
        if (++pulses_since < kPulsesPerCanary) {
          continue;
        }
        const std::uint64_t begin = std::max(trained, prev_window_end) + kGap;
        if (begin + kWindow > total) {
          continue;  // the window would outlast the phase: no more canaries
        }
        if (!run_canary(begin, round++)) {
          return;
        }
        prev_window_end = begin + kWindow;
        pulses_since = 0;
        continue;
      }
      std::unique_lock lock(mutex_);
      if (abort_ || (feeding_done_ && next_ == id_base_ + total &&
                     pipeline_.feedback().depth() < kPulse)) {
        return;
      }
      cv_.wait_for(lock, std::chrono::microseconds(200));
    }
  }

  bool run_canary(std::uint64_t begin, std::uint64_t round) {
    Mlp candidate = pipeline_.shadow_model();
    const std::int64_t t0 = now_ns();
    const std::uint64_t seq = pipeline_.publish_canary();
    const std::int64_t t1 = now_ns();
    if (spans_ != nullptr) {
      spans_->add("learning.publish_canary", t0, t1);
    }
    if (seq == 0 || seq >= publish_ns_.size()) {
      set_error("publish_canary refused or ran out of sequence slots");
      return false;
    }
    publish_ns_[seq] = t1;
    const std::uint64_t sent = sent_.load(std::memory_order_acquire);
    if (sent > begin) {
      // The trainer fell a second behind the traffic.  The window moves to
      // the first request sent after publication, so every request in it
      // can reach the canary; its verdict may then differ from other runs
      // of the seed.  Reported, not fatal.
      ++late_;
      begin = sent;
      if (begin + kWindow > stream_.size()) {
        return false;  // too late to observe: the canary stays live, unjudged
      }
    }
    {
      std::unique_lock lock(mutex_);
      arms_.canary.emplace(seq, candidate);
      win_begin_ = begin;
      win_end_ = begin + kWindow;
      window_seen_ = 0;
      cv_.wait(lock, [&] { return abort_ || window_seen_ == kWindow; });
      if (abort_) {
        return false;
      }
    }
    const std::int64_t t2 = now_ns();
    const learning::CanaryEvaluation eval = pipeline_.maybe_decide(round, &log_);
    const std::int64_t t3 = now_ns();
    if (spans_ != nullptr) {
      spans_->add("learning.maybe_decide", t2, t3);
    }
    if (eval.verdict == learning::CanaryVerdict::kPending) {
      set_error("canary " + std::to_string(seq) + " still pending: " +
                eval.reason);
      return false;
    }
    if (eval.verdict == learning::CanaryVerdict::kPromote) {
      const std::uint64_t version = server_.weights_version();
      std::lock_guard lock(mutex_);
      arms_.incumbent.emplace(version, std::move(candidate));
      if (version < promote_ns_.size()) {
        promote_ns_[version] = t3;
      }
    }
    return true;
  }

  learning::LearningPipeline& pipeline_;
  serving::Server& server_;
  const std::vector<learning::StreamSample>& stream_;
  const std::uint64_t id_base_;
  Sink& sink_;
  e2e::SpanLog* spans_;
  std::uint64_t latency_key_;
  ArmWeights& arms_;
  learning::DecisionLog log_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t next_;  ///< next id to feed (under mutex_)
  std::uint64_t win_begin_ = 0;
  std::uint64_t win_end_ = 0;
  std::uint64_t window_seen_ = 0;
  std::uint64_t window_total_ = 0;
  std::uint64_t window_canary_ = 0;
  bool feeding_done_ = false;
  bool abort_ = false;
  std::string error_;

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<bool> tracing_{false};
  std::uint64_t late_ = 0;  ///< canaries published after their window began
  // First-response stamps are written under mutex_ by the replica threads
  // and read after the phase; publication stamps by the trainer.
  std::vector<std::int64_t> first_canary_ns_;
  std::vector<std::int64_t> first_version_ns_;
  std::vector<std::int64_t> publish_ns_;
  std::vector<std::int64_t> promote_ns_;
  std::thread trainer_;
};

void Sink::on_response(const serving::Response& r) {
  const std::int64_t stamp = now_ns();
  if (r.id >= records.size()) {
    overflow.fetch_add(1, std::memory_order_relaxed);
    done.fetch_add(1, std::memory_order_release);
    return;
  }
  Record& rec = records[r.id];
  rec.hook_ns = stamp;
  rec.hash = hash_output(r.output);
  rec.version = static_cast<std::uint32_t>(r.weights_version);
  rec.replica = static_cast<std::int8_t>(r.replica);
  std::uint8_t flags = kDone;
  flags |= learner != nullptr && learner->correct(r) ? kCorrect : 0;
  flags |= r.status == serving::ResponseStatus::kOk ? kOk : 0;
  flags |= r.tier == serving::ServingTier::kFast ? kServedFast : 0;
  flags |= r.canary ? kCanaryArm : 0;
  rec.flags |= flags;
  if (!stamps.empty() && stamp_timing.load(std::memory_order_relaxed)) {
    Stamps& s = stamps[r.id];
    s.queue_wait_s = r.timing.queue_wait_s;
    s.service_s = r.timing.service_s;
    s.sojourn_s = r.timing.sojourn_s;
  }
  if (learner != nullptr) {
    learner->on_response(r, rec);
  }
  done.fetch_add(1, std::memory_order_release);
}

// --- one serving instance -------------------------------------------------------

struct Context {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  bool traced = false;
  std::vector<Vector> pool;  ///< pooled inputs
  std::vector<learning::StreamSample> stream;  ///< learn_canary's open phase
  std::optional<Mlp> incumbent;  ///< learn_canary's pre-trained model
};

struct Instance {
  std::unique_ptr<Sink> sink;
  Mlp model;
  std::unique_ptr<serving::Server> server;
  std::unique_ptr<learning::LearningPipeline> pipeline;
  std::uint64_t next_id = 0;  ///< ids handed out so far (== submit calls)
};

[[nodiscard]] learning::LearningConfig learning_config() {
  learning::LearningConfig lc;
  lc.pulse_threshold = kPulse;
  lc.max_pulse_samples = kPulse;
  lc.epochs_per_pulse = 1;
  lc.train_batch_size = 1;
  lc.feedback_capacity = 8192;
  lc.canary.traffic_percent = kCanaryPercent;
  return lc;
}

/// Submits `x` as the instance's next request and notes it in its record.
std::optional<std::future<serving::Response>> submit(Instance& inst,
                                                     std::uint32_t input,
                                                     bool fast, Vector x) {
  const std::uint64_t id = inst.next_id++;
  if (id >= inst.sink->records.size()) {
    fail("request ids overran the record buffer");
  }
  Record& rec = inst.sink->records[id];
  rec.input = input;
  rec.flags = fast ? kAskFast : 0;
  serving::SubmitOptions opts;
  opts.tier = fast ? serving::ServingTier::kFast : serving::ServingTier::kExact;
  auto f = inst.server->submit(std::move(x), opts);
  if (!f.has_value()) {
    rec.flags |= kShed;
  }
  return f;
}

/// Sends bursts of one tier until `pred` holds for a response of every
/// (replica, tier) pair; each burst outsizes one replica's batch, so every
/// replica gets work.  Returns the completion-hook stamp at which the last
/// pair was first met.
template <typename Pred>
std::int64_t burst_until(Instance& inst, const Workload& w, const Context& ctx,
                         int max_bursts, Pred pred) {
  const int tiers = w.fast_share > 0.0 ? 2 : 1;
  const std::size_t burst = w.max_batch * static_cast<std::size_t>(w.replicas) * 2;
  std::vector<std::int64_t> met(static_cast<std::size_t>(w.replicas * tiers), 0);
  std::vector<std::future<serving::Response>> futures;
  futures.reserve(burst);
  for (int b = 0; b < max_bursts; ++b) {
    const bool fast = tiers == 2 && b % 2 == 1;
    futures.clear();
    for (std::size_t k = 0; k < burst; ++k) {
      const auto input = static_cast<std::uint32_t>((b * burst + k) % ctx.pool.size());
      auto f = submit(inst, input, fast, ctx.pool[input]);
      if (!f.has_value()) {
        fail("a set-up request was shed");
      }
      futures.push_back(std::move(*f));
    }
    for (auto& f : futures) {
      const serving::Response r = f.get();
      if (r.status != serving::ResponseStatus::kOk || r.replica < 0) {
        fail("a set-up request failed: " + r.error);
      }
      std::int64_t& first =
          met[static_cast<std::size_t>(r.replica * tiers + (fast ? 1 : 0))];
      const std::int64_t stamp = inst.sink->records[r.id].hook_ns;
      if (pred(r) && (first == 0 || stamp < first)) {
        first = stamp;
      }
    }
    if (std::none_of(met.begin(), met.end(), [](std::int64_t m) { return m == 0; })) {
      return *std::max_element(met.begin(), met.end());
    }
  }
  fail("set-up never reached every replica on every tier");
}

/// The served model: seeded init, or a copy of learn_canary's pre-trained
/// incumbent.
Mlp make_model(const Context& ctx) {
  if (ctx.incumbent.has_value()) {
    return *ctx.incumbent;
  }
  Rng rng(Rng(ctx.seed).split(0x30de1).seed());
  return Mlp(ctx.w->layers, nn::Activation::kGstPhotonic, rng);
}

/// One cold set-up: model, Server (plan compile, threads, backends) and, on
/// learn_canary, the LearningPipeline — timed to the first successful
/// response from every replica on every tier used.
Instance cold_setup(const Context& ctx, std::size_t measured_ids,
                    double& seconds) {
  const Workload& w = *ctx.w;
  auto sink = std::make_unique<Sink>(kWarmupIds + measured_ids, ctx.traced);
  const std::int64_t t0 = now_ns();
  Instance inst{std::move(sink), make_model(ctx), nullptr, nullptr, 0};
  serving::ServerConfig cfg;
  cfg.replicas = w.replicas;
  cfg.max_batch = w.max_batch;
  cfg.admission.capacity = 1u << 16;
  cfg.enable_fast_tier = w.fast_share > 0.0;
  cfg.on_response = [hook = inst.sink.get()](const serving::Response& r) {
    hook->on_response(r);
  };
  inst.server = std::make_unique<serving::Server>(inst.model, cfg);
  if (w.learning) {
    inst.pipeline = std::make_unique<learning::LearningPipeline>(
        *inst.server, inst.model, learning_config());
  }
  const std::int64_t ready = burst_until(
      inst, w, ctx, kMaxBursts, [](const serving::Response&) { return true; });
  seconds = static_cast<double>(ready - t0) * 1e-9;
  return inst;
}

/// Untimed warm-up: every replica serves a full batch on every tier.
void warm_up(Instance& inst, const Context& ctx) {
  const Workload& w = *ctx.w;
  (void)burst_until(inst, w, ctx, kMaxBursts, [&](const serving::Response& r) {
    return r.batch_size == w.max_batch;
  });
}

// --- verification -------------------------------------------------------------

struct PhaseCounts {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
};

/// Reference output hashes: B=1 forwards on a fresh noise-free backend of
/// each tier (tests/test_serving.cpp's reference).
struct Reference {
  std::vector<std::uint64_t> exact;
  std::vector<std::uint64_t> fast;
};

Reference reference_hashes(const Mlp& model, const std::vector<Vector>& pool,
                           bool with_fast) {
  Reference ref;
  core::PhotonicBackend exact;
  for (const Vector& x : pool) {
    ref.exact.push_back(hash_output(model.forward(x, exact).activations.back()));
  }
  if (with_fast) {
    core::QuantizedBackend fast;
    for (const Vector& x : pool) {
      ref.fast.push_back(hash_output(model.forward(x, fast).activations.back()));
    }
  }
  return ref;
}

/// Counts outcomes of ids [begin, end) and checks every served output
/// against `expected(record)`.
template <typename Expected>
PhaseCounts verify(const Sink& sink, std::uint64_t begin, std::uint64_t end,
                   int replicas, Expected expected) {
  PhaseCounts c;
  for (std::uint64_t id = begin; id < end; ++id) {
    const Record& r = sink.records[id];
    ++c.attempted;
    if ((r.flags & kShed) != 0) {
      ++c.shed;
    } else if ((r.flags & kOk) == 0) {
      ++c.failed;
    } else if ((r.flags & kDone) == 0 || r.replica < 0 ||
               r.replica >= replicas ||
               ((r.flags & kAskFast) != 0) != ((r.flags & kServedFast) != 0) ||
               r.hash != expected(id, r)) {
      ++c.mismatched;
    } else {
      ++c.succeeded;
    }
  }
  return c;
}

// --- phases ---------------------------------------------------------------------

/// Splits n requests into equal consecutive windows of at least
/// kMinWindowRequests (so each window's p99 has ten samples beyond it), at
/// most kMaxWindows.  Returns the n_windows + 1 bounds.
std::vector<std::size_t> window_bounds(std::size_t n) {
  const std::size_t w =
      std::clamp<std::size_t>(n / kMinWindowRequests, 1, kMaxWindows);
  std::vector<std::size_t> bounds;
  for (std::size_t k = 0; k <= w; ++k) {
    bounds.push_back(k * n / w);
  }
  return bounds;
}

struct OpenResult {
  std::vector<double> latency_ms;  ///< per request; misses read as kMissMs
  std::vector<std::size_t> windows;  ///< window bounds over latency_ms
  double cpu_us_per_req = 0.0;  ///< process CPU minus the generator's
  double allocs_per_req = 0.0;
  double generator_cpu_pct = 0.0;
  double send_lag_p99_us = 0.0;
  double batch_mean = 0.0;
  std::uint64_t retries = 0;
  // traced runs: the untraced first half against the traced second half
  double cpu_us_untraced = 0.0;
  double cpu_us_traced = 0.0;
  std::int64_t t0_ns = 0;
  std::int64_t mid_ns = 0;
  std::uint64_t id_base = 0;
  std::size_t traced_from = 0;  ///< first traced request (size() if none)
};

/// Spins until `due`: a sleeping generator wakes late on a virtual machine,
/// and its lateness would read as server latency.
void pace_until(std::int64_t due) {
  while (now_ns() < due) {
  }
}

void wait_for_done(const Sink& sink, std::uint64_t target) {
  const std::int64_t give_up = now_ns() + 120'000'000'000;
  while (sink.done.load(std::memory_order_acquire) < target) {
    if (now_ns() > give_up) {
      fail("responses never arrived");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

OpenResult run_open(Instance& inst, const Context& ctx,
                    const std::vector<e2e::Arrival>& sched, Learner* learner) {
  OpenResult res;
  Sink& sink = *inst.sink;
  const std::size_t n = sched.size();
  std::vector<std::future<serving::Response>> ring(kRingSlots);
  std::vector<double> lag_us(n);
  res.windows = window_bounds(n);
  const serving::ServerStats before = inst.server->stats();
  const std::uint64_t done_before = sink.done.load(std::memory_order_acquire);
  res.id_base = inst.next_id;
  res.traced_from = ctx.traced ? n / 2 : n;
  std::uint64_t accepted = 0;

  const std::int64_t start = now_ns() + 2'000'000;
  const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double gen0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const std::uint64_t allocs0 = e2e::allocation_count();
  double cpu_mid = cpu0;
  double gen_mid = gen0;
  res.t0_ns = start;
  res.mid_ns = start;
  for (std::size_t i = 0; i < n; ++i) {
    const e2e::Arrival& a = sched[i];
    if (i == res.traced_from) {
      cpu_mid = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
      gen_mid = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
      res.mid_ns = now_ns();
      sink.stamp_timing.store(true, std::memory_order_relaxed);
      if (learner != nullptr) {
        learner->set_tracing(true);
      }
    }
    const std::int64_t due = start + a.due_ns;
    pace_until(due);
    const std::int64_t sent = now_ns();
    lag_us[i] = static_cast<double>(sent - due) * 1e-3;
    const std::uint64_t id = inst.next_id;
    // The caller's input copy, from the pool or learn_canary's stream.
    Vector x(learner != nullptr ? ctx.stream[a.input].input : ctx.pool[a.input]);
    auto f = submit(inst, a.input, a.fast, std::move(x));
    if (i >= res.traced_from) {
      sink.stamps[id].submit_begin = sent;
      sink.stamps[id].submit_end = now_ns();
    }
    if (learner != nullptr) {
      learner->note_sent(i + 1);
    }
    if (f.has_value()) {
      ++accepted;
      ring[i % kRingSlots] = std::move(*f);
    } else if (learner != nullptr) {
      learner->on_shed();
    }
  }
  wait_for_done(sink, done_before + accepted);
  if (learner != nullptr) {
    learner->finish();
  }
  const double cpu1 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double gen1 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const std::uint64_t allocs1 = e2e::allocation_count();
  const std::int64_t end = now_ns();
  sink.stamp_timing.store(false, std::memory_order_relaxed);
  ring.clear();

  const serving::ServerStats after = inst.server->stats();
  const double completed =
      static_cast<double>(after.completed - before.completed);
  res.cpu_us_per_req =
      ((cpu1 - cpu0) - (gen1 - gen0)) / std::max(completed, 1.0) * 1e6;
  res.allocs_per_req = static_cast<double>(allocs1 - allocs0) /
                       std::max(completed, 1.0);
  res.generator_cpu_pct =
      (gen1 - gen0) / (static_cast<double>(end - start) * 1e-9) * 100.0;
  if (ctx.traced) {
    const auto half_a = static_cast<double>(res.traced_from);
    const auto half_b = static_cast<double>(n - res.traced_from);
    res.cpu_us_untraced = ((cpu_mid - cpu0) - (gen_mid - gen0)) / half_a * 1e6;
    res.cpu_us_traced = ((cpu1 - cpu_mid) - (gen1 - gen_mid)) / half_b * 1e6;
  }
  res.send_lag_p99_us = quantile_of(lag_us, 0.99);
  res.batch_mean = completed / std::max<double>(
                                   static_cast<double>(after.batches - before.batches), 1.0);
  res.retries = after.retries - before.retries;
  res.latency_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = sink.records[res.id_base + i];
    const bool ok = (r.flags & kOk) != 0 && (r.flags & kShed) == 0;
    res.latency_ms.push_back(
        ok ? static_cast<double>(r.hook_ns - (start + sched[i].due_ns)) * 1e-6
           : kMissMs);
  }
  return res;
}

/// Quantile q of each window of the open phase's latencies.
std::vector<double> window_quantiles(const OpenResult& open, double q) {
  std::vector<double> out;
  for (std::size_t k = 0; k + 1 < open.windows.size(); ++k) {
    out.push_back(quantile_of(
        {open.latency_ms.begin() + static_cast<std::ptrdiff_t>(open.windows[k]),
         open.latency_ms.begin() + static_cast<std::ptrdiff_t>(open.windows[k + 1])},
        q));
  }
  return out;
}

struct ClosedResult {
  std::uint64_t id_base = 0;
  std::uint64_t count = 0;
  std::vector<double> rps;  ///< per window: kClosedWindows equal shares
  double batch_mean = 0.0;
  std::uint64_t retries = 0;
};

ClosedResult run_closed(Instance& inst, const Context& ctx,
                        const std::vector<e2e::Arrival>& sched) {
  ClosedResult res;
  res.id_base = inst.next_id;
  res.count = sched.size();
  const serving::ServerStats before = inst.server->stats();
  std::vector<std::future<serving::Response>> window(kClosedWindow);
  std::uint64_t completed = 0;
  std::uint64_t completed_at_mark = 0;
  std::int64_t mark = now_ns();
  const std::size_t per_window = std::max<std::size_t>(1, sched.size() / kClosedWindows);
  for (std::size_t i = 0; i < sched.size(); ++i) {
    auto& slot = window[i % kClosedWindow];
    if (slot.valid()) {
      completed += slot.get().status == serving::ResponseStatus::kOk ? 1 : 0;
    }
    if (i > 0 && i % per_window == 0) {
      const std::int64_t t = now_ns();
      res.rps.push_back(static_cast<double>(completed - completed_at_mark) /
                        (static_cast<double>(t - mark) * 1e-9));
      mark = t;
      completed_at_mark = completed;
    }
    const e2e::Arrival& a = sched[i];
    auto f = submit(inst, a.input, a.fast, ctx.pool[a.input]);
    if (f.has_value()) {
      slot = std::move(*f);
    }
  }
  for (auto& slot : window) {
    if (slot.valid()) {
      completed += slot.get().status == serving::ResponseStatus::kOk ? 1 : 0;
    }
  }
  res.rps.push_back(static_cast<double>(completed - completed_at_mark) /
                    (static_cast<double>(now_ns() - mark) * 1e-9));
  const serving::ServerStats after = inst.server->stats();
  res.batch_mean =
      static_cast<double>(after.completed - before.completed) /
      std::max<double>(static_cast<double>(after.batches - before.batches), 1.0);
  res.retries = after.retries - before.retries;
  return res;
}

// --- traced run: spans and per-layer metrics ------------------------------------

/// Request trees of the traced half of the open phase, sampled by a fixed
/// id stride: root = scheduled send → completion hook; children are the
/// send lag, Server::submit, and the phases Response::timing reports,
/// anchored at submit's return (the admission stamp is taken inside it).
void add_request_spans(e2e::SpanLog& log, const Sink& sink,
                       const OpenResult& open,
                       const std::vector<e2e::Arrival>& sched) {
  const std::int32_t phase =
      log.add("bench.open_traced", open.mid_ns, now_ns());
  const std::size_t n = sched.size() - open.traced_from;
  const std::size_t stride = std::max<std::size_t>(1, n / kTracedRequests);
  for (std::size_t i = open.traced_from; i < sched.size(); i += stride) {
    const std::uint64_t id = open.id_base + i;
    const Record& r = sink.records[id];
    if ((r.flags & kOk) == 0 || (r.flags & kShed) != 0) {
      continue;
    }
    const Stamps& s = sink.stamps[id];
    const std::int64_t due = open.t0_ns + sched[i].due_ns;
    const auto ns = [](double sec) { return static_cast<std::int64_t>(sec * 1e9); };
    const std::int64_t admitted = s.submit_end;
    const std::int64_t formed = admitted + ns(s.queue_wait_s);
    const std::int64_t done = admitted + ns(s.sojourn_s);
    const std::int64_t started = done - ns(s.service_s);
    const std::uint64_t req = id + 1;
    const std::int32_t root = log.add("request", due, r.hook_ns, phase, req);
    log.add("bench.send_lag", due, s.submit_begin, root, req);
    log.add("serving.submit", s.submit_begin, s.submit_end, root, req);
    log.add("serving.queue_wait", admitted, formed, root, req);
    log.add("serving.form_copy", formed, started, root, req);
    log.add((r.flags & kServedFast) != 0 ? "nn.service.fast" : "nn.service.exact",
            started, done, root, req);
    log.add("serving.fulfil", done, r.hook_ns, root, req);
  }
}

const char* const kPlanSpanNames[2][3] = {
    {"nn.plan_run.exact.b1", "nn.plan_run.exact.b8", "nn.plan_run.exact.b16"},
    {"nn.plan_run.fast.b1", "nn.plan_run.fast.b8", "nn.plan_run.fast.b16"}};
const char* const kLayerSpanNames[3][2] = {{"nn.layer0.b1", "nn.layer0.b16"},
                                           {"nn.layer1.b1", "nn.layer1.b16"},
                                           {"nn.layer2.b1", "nn.layer2.b16"}};
constexpr std::size_t kBatches[3] = {1, 8, 16};

/// Warmed ExecutionPlan::run calls on a private backend and arena, one span
/// per call, about 40 ms of calls per shape.
void time_plan(e2e::SpanLog& log, const char* name, const nn::ExecutionPlan& plan,
               nn::MatvecBackend& backend, const std::vector<Vector>& pool,
               std::size_t batch) {
  nn::Matrix x(batch, plan.input_dim());
  for (std::size_t b = 0; b < batch; ++b) {
    const Vector& v = pool[b % pool.size()];
    std::copy(v.begin(), v.end(), x.row(b).begin());
  }
  nn::PlanArena arena;
  std::int64_t warm = 0;
  for (int k = 0; k < 3; ++k) {
    const std::int64_t t0 = now_ns();
    (void)plan.run(backend, x, arena);
    warm = now_ns() - t0;
  }
  const auto reps = std::clamp<std::int64_t>(40'000'000 / std::max<std::int64_t>(warm, 1),
                                             15, 4000);
  for (std::int64_t k = 0; k < reps; ++k) {
    const std::int64_t t0 = now_ns();
    (void)plan.run(backend, x, arena);
    log.add(name, t0, now_ns());
  }
}

/// `count` seeded inputs of `width` values in [-1, 1].
std::vector<Vector> make_inputs(std::size_t width, std::size_t count,
                                std::uint64_t seed) {
  e2e::Stream s(seed, width);
  std::vector<Vector> out(count, Vector(width));
  for (Vector& v : out) {
    for (double& x : v) {
      x = 2.0 * s.uniform() - 1.0;
    }
  }
  return out;
}

struct LayerTiming {
  std::size_t rows = 0;
  std::size_t cols = 0;
  double trident_us = 0.0;  ///< dataflow::analyze_model latency at batch 1
};

/// Each layer of `model` alone, as a one-layer plan on a private exact-tier
/// backend at b1 and b16.  A one-layer plan ends in the identity epilogue,
/// so a hidden layer's activation pass is the part of it not timed here.
std::vector<LayerTiming> time_layers(e2e::SpanLog& log, const Mlp& model,
                                     std::uint64_t seed) {
  const std::vector<int>& sizes = model.layer_sizes();
  nn::ModelSpec spec;
  spec.name = "served_mlp";
  for (int k = 0; k < model.depth(); ++k) {
    spec.layers.push_back(nn::LayerSpec::dense(
        "fc" + std::to_string(k), sizes[static_cast<std::size_t>(k)],
        sizes[static_cast<std::size_t>(k) + 1]));
  }
  trident::dataflow::AnalyzerOptions opt;
  opt.batch = 1;
  const trident::dataflow::ModelCost cost = trident::dataflow::analyze_model(
      spec, trident::arch::make_trident().array, opt);
  std::vector<LayerTiming> out;
  for (int k = 0; k < std::min(model.depth(), 3); ++k) {
    const auto cols = static_cast<std::size_t>(sizes[static_cast<std::size_t>(k)]);
    const auto rows =
        static_cast<std::size_t>(sizes[static_cast<std::size_t>(k) + 1]);
    Rng rng(seed);
    Mlp one({static_cast<int>(cols), static_cast<int>(rows)},
            model.hidden_activation(), rng);
    one.weight(0) = model.weight(k);
    const nn::ExecutionPlan plan(one);
    const std::vector<Vector> inputs = make_inputs(cols, 16, seed + static_cast<std::uint64_t>(k));
    core::PhotonicBackend backend;
    time_plan(log, kLayerSpanNames[k][0], plan, backend, inputs, 1);
    time_plan(log, kLayerSpanNames[k][1], plan, backend, inputs, 16);
    out.push_back({rows, cols, cost.layers[static_cast<std::size_t>(k)].latency.us()});
  }
  return out;
}

// --- report -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_counts(const char* phase, const PhaseCounts& c) {
  std::printf("phase %-7s attempted %llu succeeded %llu shed %llu failed %llu "
              "mismatched %llu\n",
              phase, static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.succeeded),
              static_cast<unsigned long long>(c.shed),
              static_cast<unsigned long long>(c.failed),
              static_cast<unsigned long long>(c.mismatched));
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : kMissMs;
    os << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": "
       << v << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// --- the run ------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".e2ebench_out";
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val, nullptr, 0);
      have_seed = true;
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--out-dir") {
      o.out_dir = val;
    } else {
      fail("unknown argument " + key);
    }
  }
  if (argc % 2 == 0 || o.workload.empty() || !have_seed || !(o.seconds > 0.0)) {
    fail("usage: trident_e2e --workload NAME --seed N --seconds S --trace 0|1 "
         "[--out-dir DIR]");
  }
  return o;
}

int run(const Options& opt) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (opt.workload == cand.name) {
      w = &cand;
    }
  }
  if (w == nullptr) {
    fail("unknown workload '" + opt.workload +
         "' (small_tiers | large_exact | learn_canary)");
  }
#ifndef NDEBUG
  fail("refusing to time a build with assertions on");
#endif
  if (std::string(E2E_BUILD_TYPE) != "Release") {
    fail(std::string("refusing to time a '") + E2E_BUILD_TYPE +
         "' build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  // Set explicitly so a TRIDENT_TELEMETRY in the environment cannot leak in.
  telemetry::set_enabled(w->telemetry);
  if (w->telemetry) {
    telemetry::TraceBuffer::global().set_thread_capacity(kTraceEventCap);
  }
  const std::int64_t epoch = now_ns();
  std::printf("workload %s seed %llu seconds %g trace %d build %s\n", w->name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, E2E_BUILD_TYPE);

  Context ctx;
  ctx.w = w;
  ctx.seed = opt.seed;
  ctx.traced = opt.trace;
  const auto in = static_cast<std::size_t>(w->layers.front());
  const int classes = w->layers.back();
  ctx.pool = make_inputs(in, w->pool, opt.seed);

  const double open_s = opt.seconds * w->open_share;
  const auto closed_n = std::min(
      kMaxPhaseRequests,
      static_cast<std::size_t>(w->closed_nominal_rps * (opt.seconds - open_s)));
  std::vector<e2e::Arrival> open_sched = e2e::make_schedule(
      opt.seed, 1, w->open_rate, open_s, 0, w->pool, w->fast_share);
  const std::vector<e2e::Arrival> closed_sched = e2e::make_schedule(
      opt.seed, 2, 0.0, 0.0, closed_n, w->pool, w->fast_share);
  if (open_sched.size() > kMaxPhaseRequests) {
    fail("the open phase would overrun a server's latency recorders; lower "
         "--seconds");
  }
  if (const auto bounds = window_bounds(open_sched.size());
      !e2e::percentile_supported(0.99, bounds[1] - bounds[0])) {
    fail("the open phase holds too few requests for a p99; raise --seconds");
  }

  if (w->learning) {
    // A template phase on the incumbent's own class prototypes, then a
    // concept drift the shadow has to learn.
    const std::size_t n = open_sched.size();
    learning::ScriptedStream stream(
        {learning::DriftPhase{n / 3, 1, 0.05, 0.0, 1.0},
         learning::DriftPhase{n - n / 3, 2, 0.05, 0.0, 1.0}},
        static_cast<int>(in), classes, opt.seed);
    ctx.stream.reserve(n);
    learning::StreamSample s;
    while (stream.next(s)) {
      ctx.stream.push_back(s);
    }
    for (std::size_t i = 0; i < n; ++i) {
      open_sched[i].input = static_cast<std::uint32_t>(i);
    }
    const Rng master(opt.seed);
    Rng init = master.split(0x0de1);
    Mlp incumbent(w->layers, nn::Activation::kGstPhotonic, init);
    Rng data = master.split(1);  // phase 0's template seed
    nn::TrainConfig tc;
    tc.epochs = 4;
    tc.learning_rate = learning_config().learning_rate;
    tc.shuffle_seed = master.split(0x5fff).seed();
    core::PhotonicBackend pretrain;
    (void)nn::fit(incumbent,
                  nn::pattern_classes(400, classes, static_cast<int>(in), 0.05, data),
                  tc, pretrain);
    ctx.incumbent = std::move(incumbent);
  }

  e2e::SpanLog spans(opt.trace ? 1u << 19 : 0u);
  e2e::SpanLog* span_log = opt.trace ? &spans : nullptr;

  // Cold set-ups, every one timed: all but the last two are discarded at
  // once; the last two serve the open and the closed phase.
  std::vector<double> setup_s;
  const auto timed_setup = [&](std::size_t measured_ids) {
    double s = 0.0;
    const std::int64_t t0 = now_ns();
    Instance inst = cold_setup(ctx, measured_ids, s);
    if (span_log != nullptr) {
      span_log->add("bench.setup", t0, now_ns());
    }
    setup_s.push_back(s);
    return inst;
  };
  for (int k = 0; k + 2 < kSetups; ++k) {
    (void)timed_setup(0);
  }
  const double rss_after_setups = peak_rss_mb();

  const Mlp served = make_model(ctx);
  const Reference ref = reference_hashes(served, ctx.pool, w->fast_share > 0.0);
  const auto pooled = [&](std::uint64_t, const Record& r) {
    return (r.flags & kAskFast) != 0 ? ref.fast[r.input] : ref.exact[r.input];
  };

  // --- open phase: verified and torn down before the closed phase starts,
  // so the two phases' buffers never coexist in the peak RSS.
  PhaseCounts warm;
  PhaseCounts open_counts;
  std::uint64_t overflow = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double cpu_us = 0.0;
  double trace_overhead_pct = 0.0;
  double allocs_per_req = 0.0;
  double open_batch_mean = 0.0;
  double generator_cpu_pct = 0.0;
  double send_lag_p99_us = 0.0;
  std::uint64_t retries = 0;
  learning::LearningStats lstats;
  std::vector<double> adopt_ms;
  double canary_share = 0.0;
  {
    ArmWeights arms;
    Instance inst = timed_setup(open_sched.size());
    warm_up(inst, ctx);
    std::unique_ptr<Learner> learner;
    if (w->learning) {
      arms.incumbent.emplace(0, inst.model);
      learner = std::make_unique<Learner>(*inst.pipeline, *inst.server,
                                          ctx.stream, inst.next_id, *inst.sink,
                                          span_log, opt.seed, arms);
      inst.sink->learner = learner.get();
      learner->start();
    }
    const OpenResult open = run_open(inst, ctx, open_sched, learner.get());
    inst.sink->learner = nullptr;
    if (inst.pipeline) {
      lstats = inst.pipeline->stats();
    }
    inst.server->drain();
    if (learner != nullptr && !learner->error().empty()) {
      fail("learn_canary: " + learner->error());
    }
    const std::uint64_t end = open.id_base + open_sched.size();
    warm = verify(*inst.sink, 0, open.id_base, w->replicas, pooled);
    if (w->learning) {
      // Each response against the weights of its stamped (version, canary)
      // arm, with one fresh reference backend per arm.
      std::vector<std::uint64_t> expected(open_sched.size(), 0);
      std::map<std::pair<bool, std::uint64_t>, std::vector<std::uint64_t>> by_arm;
      for (std::uint64_t i = 0; i < open_sched.size(); ++i) {
        const Record& r = inst.sink->records[open.id_base + i];
        if ((r.flags & kOk) != 0) {
          by_arm[{(r.flags & kCanaryArm) != 0, r.version}].push_back(i);
        }
      }
      for (const auto& [arm, ids] : by_arm) {
        const auto& table = arm.first ? arms.canary : arms.incumbent;
        const auto it = table.find(arm.second);
        if (it == table.end()) {
          continue;  // an arm nobody published: all its responses mismatch
        }
        core::PhotonicBackend backend;
        for (const std::uint64_t i : ids) {
          expected[i] = hash_output(
              it->second.forward(ctx.stream[i].input, backend).activations.back());
        }
      }
      open_counts = verify(*inst.sink, open.id_base, end, w->replicas,
                           [&](std::uint64_t id, const Record&) {
                             return expected[id - open.id_base];
                           });
      adopt_ms = learner->adopt_ms();
      canary_share = static_cast<double>(learner->window_canary()) /
                     static_cast<double>(std::max<std::uint64_t>(learner->window_total(), 1));
      std::printf("learning pulses %llu trained %llu offered %llu dropped %llu "
                  "promotes %llu rollbacks %llu late canaries %llu\n",
                  static_cast<unsigned long long>(lstats.train_pulses),
                  static_cast<unsigned long long>(lstats.samples_trained),
                  static_cast<unsigned long long>(lstats.offered),
                  static_cast<unsigned long long>(lstats.dropped),
                  static_cast<unsigned long long>(lstats.promotes),
                  static_cast<unsigned long long>(lstats.rollbacks),
                  static_cast<unsigned long long>(learner->late()));
      std::fputs(learner->decisions().c_str(), stdout);
    } else {
      open_counts = verify(*inst.sink, open.id_base, end, w->replicas, pooled);
    }
    if (span_log != nullptr) {
      add_request_spans(spans, *inst.sink, open, open_sched);
    }
    overflow += inst.sink->overflow;
    // Medians over consecutive windows of the open phase of each window's
    // p50, p90 and p99: a host stall inflates the windows it overlaps, not
    // the figure.
    p50 = median_of(window_quantiles(open, 0.5));
    p90 = median_of(window_quantiles(open, 0.9));
    p99 = median_of(window_quantiles(open, 0.99));
    cpu_us = open.cpu_us_per_req;
    trace_overhead_pct = (open.cpu_us_traced / open.cpu_us_untraced - 1.0) * 100.0;
    allocs_per_req = open.allocs_per_req;
    open_batch_mean = open.batch_mean;
    generator_cpu_pct = open.generator_cpu_pct;
    send_lag_p99_us = open.send_lag_p99_us;
    retries = open.retries;
    std::printf("open    %zu requests in %zu windows: p50 %.4f ms, p90 %.4f "
                "ms, p99 %.4f ms (medians over windows; %zu samples beyond "
                "each window's p99; whole phase: p50 %.4f ms, p99 %.4f ms), "
                "cpu %.3f us/req, %.3f allocs/req, batch mean %.3f, send lag "
                "p99 %.2f us, generator cpu %.1f%%\n",
                open.latency_ms.size(), open.windows.size() - 1, p50, p90, p99,
                e2e::samples_beyond(0.99, open.windows[1] - open.windows[0]),
                quantile_of(open.latency_ms, 0.5),
                quantile_of(open.latency_ms, 0.99), cpu_us, allocs_per_req,
                open_batch_mean, send_lag_p99_us, generator_cpu_pct);
  }

  const double rss_after_open = peak_rss_mb();
  // Hand the open phase's freed heap back to the kernel, so the closed
  // phase's peak does not depend on how deep a host stall pushed the open
  // phase's backlog.
  malloc_trim(0);

  // --- closed phase
  PhaseCounts closed_counts;
  double rps = 0.0;
  double closed_batch_mean = 0.0;
  {
    Instance inst = timed_setup(closed_sched.size());
    warm_up(inst, ctx);
    const ClosedResult closed = run_closed(inst, ctx, closed_sched);
    inst.server->drain();
    const PhaseCounts more = verify(*inst.sink, 0, closed.id_base, w->replicas, pooled);
    warm.attempted += more.attempted;
    warm.succeeded += more.succeeded;
    warm.shed += more.shed;
    warm.failed += more.failed;
    warm.mismatched += more.mismatched;
    closed_counts = verify(*inst.sink, closed.id_base,
                           closed.id_base + closed.count, w->replicas, pooled);
    overflow += inst.sink->overflow;
    rps = median_of(closed.rps);
    closed_batch_mean = closed.batch_mean;
    retries += closed.retries;
    std::printf("closed  %llu requests, %zu in flight: %.1f req/s (median of "
                "%zu windows, IQR/median %.4f), batch mean %.3f\n",
                static_cast<unsigned long long>(closed.count), kClosedWindow,
                rps, closed.rps.size(), e2e::iqr_share(closed.rps),
                closed_batch_mean);
  }

  print_counts("warmup", warm);
  print_counts("open", open_counts);
  print_counts("closed", closed_counts);
  std::uint64_t attempted = open_counts.attempted + closed_counts.attempted;
  std::uint64_t failures = open_counts.shed + open_counts.failed +
                           closed_counts.shed + closed_counts.failed;
  const std::uint64_t mismatched = warm.mismatched + warm.failed + warm.shed +
                                   open_counts.mismatched +
                                   closed_counts.mismatched + overflow;
  if (w->learning) {
    attempted += lstats.offered;
    failures += lstats.dropped;
  }

  const double peak_mb = peak_rss_mb();
  std::printf("setup   %zu cold set-ups, median %.6f s (IQR/median %.4f)\n",
              setup_s.size(), median_of(setup_s), e2e::iqr_share(setup_s));
  std::printf("memory  peak rss %.2f MB (%.2f MB after the set-ups, %.2f MB "
              "after the open phase)\n",
              peak_mb, rss_after_setups, rss_after_open);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"latency_p50_ms", p50, "ms"},
        {"latency_p90_ms", p90, "ms"},
        {"throughput_rps", rps, "req/s"},
        {"cpu_us_per_req", cpu_us, "us"},
        {"allocs_per_req", allocs_per_req, "count"},
        {"setup_s", median_of(setup_s), "s"},
        {"peak_rss_mb", peak_mb, "MB"},
        {"success_share",
         static_cast<double>(attempted - failures) /
             static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
         "ratio"},
    };
  } else {
    // Layer micro-measurements on private backends; the request spans of
    // the traced half of the open phase are already in the log.
    const std::shared_ptr<const nn::ExecutionPlan> plan = nn::ExecutionPlan::compile(
        served, serving::Server::plan_config_for(serving::ServerConfig{}));
    {
      core::PhotonicBackend exact;
      core::QuantizedBackend fast;
      for (std::size_t b = 0; b < 3; ++b) {
        time_plan(spans, kPlanSpanNames[0][b], *plan, exact, ctx.pool, kBatches[b]);
        time_plan(spans, kPlanSpanNames[1][b], *plan, fast, ctx.pool, kBatches[b]);
      }
    }
    const std::vector<LayerTiming> layers = time_layers(spans, served, opt.seed);
    for (int k = 0; k < 5; ++k) {
      const std::int64_t t0 = now_ns();
      const std::string text = telemetry::prometheus_text(
          telemetry::MetricsRegistry::global().snapshot());
      spans.add("telemetry.export", t0, now_ns());
    }

    const std::span<const e2e::Span> all = spans.spans();
    const std::vector<std::int64_t> self = e2e::self_times(all);
    const auto us = [&](const char* name) {
      return e2e::self_us_named(all, self, name);
    };
    const auto ms = [&](const char* name) {
      std::vector<double> v = us(name);
      for (double& x : v) {
        x *= 1e-3;
      }
      return median_of(std::move(v));
    };
    metrics = {
        {"serving.submit_us", median_of(us("serving.submit")), "us"},
        {"serving.queue_wait_us.p50", quantile_of(us("serving.queue_wait"), 0.5), "us"},
        {"serving.queue_wait_us.p99", quantile_of(us("serving.queue_wait"), 0.99), "us"},
        {"serving.form_copy_us", median_of(us("serving.form_copy")), "us"},
        {"serving.fulfil_us", median_of(us("serving.fulfil")), "us"},
        {"serving.batch_mean.open", open_batch_mean, "req"},
        {"serving.batch_mean.closed", closed_batch_mean, "req"},
        {"serving.shed", static_cast<double>(open_counts.shed + closed_counts.shed), "count"},
        {"serving.failed", static_cast<double>(open_counts.failed + closed_counts.failed), "count"},
        {"serving.retries", static_cast<double>(retries), "count"},
        {"serving.adopt_ms", median_of(adopt_ms), "ms"},
        {"serving.canary_share", canary_share, "ratio"},
        {"nn.service_us.exact", median_of(us("nn.service.exact")), "us"},
        {"nn.service_us.fast", median_of(us("nn.service.fast")), "us"},
    };
    for (int t = 0; t < 2; ++t) {
      for (std::size_t b = 0; b < 3; ++b) {
        std::string name = kPlanSpanNames[t][b];
        name.replace(0, std::strlen("nn.plan_run"), "nn.plan_run_us");
        metrics.push_back({name, median_of(us(kPlanSpanNames[t][b])), "us"});
      }
    }
    std::printf("layer  rows x cols     MACs      bytes   us.b1   us.b16  "
                "trident_us.b1\n");
    for (std::size_t k = 0; k < layers.size(); ++k) {
      const LayerTiming& l = layers[k];
      const auto macs = static_cast<double>(l.rows * l.cols);
      const auto bytes = 8.0 * static_cast<double>(l.rows * l.cols + l.rows + l.cols);
      const std::string p = "nn.layer" + std::to_string(k);
      const double b1 = median_of(us(kLayerSpanNames[k][0]));
      const double b16 = median_of(us(kLayerSpanNames[k][1]));
      metrics.push_back({p + ".us.b1", b1, "us"});
      metrics.push_back({p + ".us.b16", b16, "us"});
      metrics.push_back({p + ".macs", macs, "MAC"});
      metrics.push_back({p + ".bytes", bytes, "B"});
      std::printf("%5zu  %4zu x %-5zu %9.0f %10.0f %7.2f %8.2f %14.4f\n", k,
                  l.rows, l.cols, macs, bytes, b1, b16, l.trident_us);
    }
    metrics.insert(metrics.end(), {
        {"learning.pulses", static_cast<double>(lstats.train_pulses), "count"},
        {"learning.samples_trained", static_cast<double>(lstats.samples_trained), "count"},
        {"learning.feedback_dropped", static_cast<double>(lstats.dropped), "count"},
        {"learning.promotes", static_cast<double>(lstats.promotes), "count"},
        {"learning.rollbacks", static_cast<double>(lstats.rollbacks), "count"},
        {"learning.feed_us", median_of(us("learning.feed")), "us"},
        {"learning.publish_ms", ms("learning.publish_canary"), "ms"},
        {"learning.decide_us", median_of(us("learning.maybe_decide")), "us"},
        {"learning.retrain_ms", ms("learning.train_pulse"), "ms"},
        {"telemetry.trace_events",
         static_cast<double>(telemetry::TraceBuffer::global().size()), "count"},
        {"telemetry.trace_dropped",
         static_cast<double>(telemetry::TraceBuffer::global().dropped()), "count"},
        {"telemetry.export_ms", ms("telemetry.export"), "ms"},
        {"bench.latency_p99_ms", p99, "ms"},
        {"bench.send_lag_us.p99", quantile_of(us("bench.send_lag"), 0.99), "us"},
        {"bench.generator_cpu_pct", generator_cpu_pct, "%"},
        {"bench.trace_overhead_pct", trace_overhead_pct, "%"},
    });
    std::filesystem::create_directories(opt.out_dir);
    const std::string path = opt.out_dir + "/trace-" + w->name + "-" +
                             std::to_string(opt.seed) + ".tsv";
    spans.write_tsv(path, epoch);
    std::printf("trace   %zu spans (%llu dropped) written to %s\n", all.size(),
                static_cast<unsigned long long>(spans.dropped()), path.c_str());
    for (const Metric& m : metrics) {
      std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  const bool correct = mismatched == 0;
  print_json(correct, attempted, failures, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold each time a large mapped block is
  // freed, after which large buffers land in whichever thread's arena grows
  // a vector next; that made peak RSS differ by 3% between identical runs.
  // Pinning the threshold at glibc's initial 128 KiB maps and unmaps large
  // buffers the same way every run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "trident_e2e: " << e.what() << '\n';
    return 2;
  }
}
