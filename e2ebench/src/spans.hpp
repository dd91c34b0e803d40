// In-memory span log of the traced run.
//
// A span is (name, start, end, parent, request id).  The benchmark records
// spans only around its own calls into the program — never inside it — and
// keeps them in a preallocated buffer that is written out once, at exit.
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover (overlapping children counted once).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 = root
  std::uint64_t request = 0;  ///< request id + 1; 0 = not request-scoped
};

/// Fixed-capacity, thread-safe append-only span buffer.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : spans_(capacity) {}

  /// Appends a span and returns its index, or -1 when the buffer is full
  /// (the span is counted as dropped).  `name` must outlive the log.
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent = -1,
                   std::uint64_t request = 0) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= spans_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return -1;
    }
    spans_[i] = Span{name, start_ns, end_ns, parent, request};
    return static_cast<std::int32_t>(i);
  }

  /// Recorded spans; only valid once every recording thread is quiescent.
  [[nodiscard]] std::span<const Span> spans() const {
    return {spans_.data(),
            std::min(next_.load(std::memory_order_acquire), spans_.size())};
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Tab-separated dump: index, parent, name, request, start, end (ns
  /// relative to `epoch_ns`).
  void write_tsv(const std::string& path, std::int64_t epoch_ns) const {
    std::ofstream out(path);
    out << "index\tparent\tname\trequest\tstart_ns\tend_ns\n";
    const std::span<const Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      out << i << '\t' << s.parent << '\t' << s.name << '\t' << s.request
          << '\t' << s.start_ns - epoch_ns << '\t' << s.end_ns - epoch_ns
          << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Self time (ns) of every span, index-aligned with `spans`.
[[nodiscard]] inline std::vector<std::int64_t> self_times(
    std::span<const Span> spans) {
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::int32_t> kids;  // child indices grouped by parent
  kids.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      kids.push_back(static_cast<std::int32_t>(i));
    }
  }
  std::sort(kids.begin(), kids.end(), [&](std::int32_t a, std::int32_t b) {
    const Span& x = spans[static_cast<std::size_t>(a)];
    const Span& y = spans[static_cast<std::size_t>(b)];
    return x.parent != y.parent ? x.parent < y.parent : x.start_ns < y.start_ns;
  });
  for (std::size_t k = 0; k < kids.size();) {
    const std::int32_t p = spans[static_cast<std::size_t>(kids[k])].parent;
    const Span& parent = spans[static_cast<std::size_t>(p)];
    std::int64_t covered = 0;
    std::int64_t reach = parent.start_ns;  // end of the union so far
    for (; k < kids.size() &&
           spans[static_cast<std::size_t>(kids[k])].parent == p;
         ++k) {
      const Span& c = spans[static_cast<std::size_t>(kids[k])];
      const std::int64_t lo = std::max(c.start_ns, reach);
      const std::int64_t hi = std::min(c.end_ns, parent.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[static_cast<std::size_t>(p)] -= covered;
  }
  return self;
}

/// Self times, in microseconds, of every span called `name`.
[[nodiscard]] inline std::vector<double> self_us_named(
    std::span<const Span> spans, const std::vector<std::int64_t>& self,
    std::string_view name) {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) {
      out.push_back(static_cast<double>(self[i]) * 1e-3);
    }
  }
  return out;
}

}  // namespace e2e
