// Seeded traffic: the open-loop Poisson arrival timeline and the per-request
// input and tier draws.  Everything here is a pure function of its
// arguments (splitmix64 streams, no library distributions), so one seed
// gives the same requests on every platform and every run.
//
// The exponential gaps are stratified: each block of kGapStratum gaps is
// the block's kGapStratum mid-quantiles of the exponential distribution,
// in a seeded random order.  Every block then holds the same mix of short
// and long gaps, so the tail latency a seed measures depends far less on
// how many near-coincident arrivals its draws happened to contain.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace e2e {

[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Counter-based stream: draw i of stream (seed, salt) is
/// splitmix64(seed ^ salt-mix ^ i), independent of every other draw.
class Stream {
 public:
  Stream(std::uint64_t seed, std::uint64_t salt)
      : key_(splitmix64(seed ^ splitmix64(salt))) {}

  [[nodiscard]] std::uint64_t next() { return splitmix64(key_ + counter_++); }

  /// Uniform in [0, 1) with 53 random bits.
  [[nodiscard]] double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t key_;
  std::uint64_t counter_ = 0;
};

inline constexpr std::size_t kGapStratum = 1000;

/// One request of a phase: when it is due (ns after the phase start, 0 for
/// closed-loop phases), which pooled input it carries and which tier.
struct Arrival {
  std::int64_t due_ns = 0;
  std::uint32_t input = 0;
  bool fast = false;
};

/// Poisson arrivals at `rate` per second over `duration_s` (rate > 0, gaps
/// stratified as above), or exactly `count` back-to-back requests when
/// rate == 0 (closed loop).
/// Inputs are uniform over `pool`; each request goes to the fast tier with
/// probability `fast_share`.
[[nodiscard]] inline std::vector<Arrival> make_schedule(
    std::uint64_t seed, std::uint64_t salt, double rate, double duration_s,
    std::size_t count, std::uint32_t pool, double fast_share) {
  Stream gaps(seed, salt ^ 0x6a9ull);
  Stream picks(seed, salt ^ 0x1f7ull);
  Stream tiers(seed, salt ^ 0x7e2ull);
  std::vector<Arrival> out;
  if (rate > 0.0) {
    out.reserve(static_cast<std::size_t>(rate * duration_s * 1.05) + 16);
  } else {
    out.reserve(count);
  }
  std::vector<double> block(kGapStratum);
  double t = 0.0;
  for (;;) {
    if (rate > 0.0) {
      const std::size_t k = out.size() % kGapStratum;
      if (k == 0) {
        for (std::size_t j = 0; j < kGapStratum; ++j) {
          const double u = (static_cast<double>(j) + 0.5) / kGapStratum;
          block[j] = -std::log(1.0 - u) / rate;
        }
        for (std::size_t j = kGapStratum - 1; j > 0; --j) {  // Fisher-Yates
          std::swap(block[j], block[gaps.next() % (j + 1)]);
        }
      }
      t += block[k];
      if (t >= duration_s) {
        break;
      }
    } else if (out.size() == count) {
      break;
    }
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t * 1e9);
    a.input = static_cast<std::uint32_t>(picks.next() % pool);
    a.fast = tiers.uniform() < fast_share;
    out.push_back(a);
  }
  return out;
}

}  // namespace e2e
