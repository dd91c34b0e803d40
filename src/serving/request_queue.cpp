#include "serving/request_queue.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::serving {

namespace {

struct QueueMetrics {
  telemetry::Gauge& depth = telemetry::MetricsRegistry::global().gauge(
      "trident_serving_queue_depth", "requests waiting in the serving queue");
};

QueueMetrics& queue_metrics() {
  static QueueMetrics m;
  return m;
}

}  // namespace

RequestQueue::RequestQueue(const AdmissionConfig& config)
    : capacity_(config.capacity),
      watermark_(config.shed_watermark == 0
                     ? config.capacity
                     : std::min(config.shed_watermark, config.capacity)),
      policy_(config.policy) {
  TRIDENT_REQUIRE(capacity_ > 0, "queue capacity must be positive");
}

AdmitResult RequestQueue::push(Request& r) {
  {
    std::unique_lock lock(mutex_);
    if (policy_ == OverloadPolicy::kBlock) {
      ++producers_waiting_;
      space_cv_.wait(lock,
                     [&] { return closed_ || queue_.size() < capacity_; });
      --producers_waiting_;
    }
    if (closed_) {
      return AdmitResult::kClosed;
    }
    const std::size_t limit =
        policy_ == OverloadPolicy::kReject ? watermark_ : capacity_;
    if (queue_.size() >= limit) {
      ++shed_;
      return AdmitResult::kShed;
    }
    r.admitted = Clock::now();
    queue_.push_back(std::move(r));
    ++accepted_;
    // Published under the lock so a concurrent push/pop cannot overwrite
    // the gauge with a staler depth.
    if (telemetry::enabled()) {
      queue_metrics().depth.set(static_cast<double>(queue_.size()));
    }
  }
  not_empty_cv_.notify_one();
  return AdmitResult::kAccepted;
}

void RequestQueue::requeue(Request&& r) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_front(std::move(r));
    ++requeued_;
    // Published under the lock so a concurrent push/pop cannot overwrite
    // the gauge with a staler depth.
    if (telemetry::enabled()) {
      queue_metrics().depth.set(static_cast<double>(queue_.size()));
    }
  }
  not_empty_cv_.notify_one();
}

std::vector<Request> RequestQueue::pop_batch(std::size_t max_batch,
                                             std::chrono::microseconds max_wait) {
  TRIDENT_REQUIRE(max_batch > 0, "max_batch must be positive");
  std::vector<Request> batch;
  std::size_t depth = 0;
  {
    std::unique_lock lock(mutex_);
    for (;;) {
      ++poppers_waiting_;
      not_empty_cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) {
        --poppers_waiting_;
        return batch;  // closed and drained
      }
      // Deadline-aware cut: the head request waits at most max_wait (counted
      // from the moment this popper saw it) for co-batchers.
      if (queue_.size() < max_batch && !closed_ && max_wait.count() > 0) {
        const auto deadline = Clock::now() + max_wait;
        not_empty_cv_.wait_until(lock, deadline, [&] {
          return closed_ || queue_.size() >= max_batch;
        });
      }
      --poppers_waiting_;
      if (!queue_.empty()) {
        break;
      }
      // A sibling popper drained the queue during the fill window.  An
      // empty batch tells the caller "closed and drained", so while the
      // queue is still open go back to waiting instead of cutting.
    }
    const std::size_t n = std::min(max_batch, queue_.size());
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    popped_ += n;
    depth = queue_.size();
    // Published under the lock so a concurrent push/pop cannot overwrite
    // the gauge with a staler depth.
    if (telemetry::enabled()) {
      queue_metrics().depth.set(static_cast<double>(depth));
    }
  }
  space_cv_.notify_all();
  // Other poppers may still have work to cut.
  if (depth > 0) {
    not_empty_cv_.notify_one();
  }
  return batch;
}

void RequestQueue::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  not_empty_cv_.notify_all();
  space_cv_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

std::size_t RequestQueue::depth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::uint64_t RequestQueue::accepted() const {
  std::lock_guard lock(mutex_);
  return accepted_;
}

std::uint64_t RequestQueue::shed() const {
  std::lock_guard lock(mutex_);
  return shed_;
}

std::uint64_t RequestQueue::requeued() const {
  std::lock_guard lock(mutex_);
  return requeued_;
}

std::uint64_t RequestQueue::popped() const {
  std::lock_guard lock(mutex_);
  return popped_;
}

std::size_t RequestQueue::poppers_waiting() const {
  std::lock_guard lock(mutex_);
  return poppers_waiting_;
}

std::size_t RequestQueue::producers_waiting() const {
  std::lock_guard lock(mutex_);
  return producers_waiting_;
}

}  // namespace trident::serving
