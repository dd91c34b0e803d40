// Order statistics behind every number the benchmark reports.
//
// Percentiles are nearest-rank order statistics: quantile q of n samples is
// the ceil(q·n)-th smallest.  A percentile is only reported when at least
// kMinTail samples lie strictly beyond its rank, so "p99" needs n >= 1000.
// Quartiles follow Python's statistics.quantiles(n=4) ("exclusive" method),
// the rule the spread of repeated runs is judged by.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

namespace e2e {

/// Samples that must lie beyond a reported percentile's rank.
inline constexpr std::size_t kMinTail = 10;

/// 1-based rank of quantile q (0 < q <= 1) among n samples: ceil(q·n).
[[nodiscard]] inline std::size_t nearest_rank(double q, std::size_t n) {
  if (n == 0 || !(q > 0.0) || q > 1.0) {
    throw std::invalid_argument("nearest_rank needs n > 0 and 0 < q <= 1");
  }
  // The epsilon keeps q·n that is mathematically whole (0.99·1000) from
  // rounding up past it in binary floating point.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

/// Samples strictly beyond the rank of quantile q.
[[nodiscard]] inline std::size_t samples_beyond(double q, std::size_t n) {
  return n - nearest_rank(q, n);
}

/// True when quantile q of n samples has at least kMinTail samples beyond.
[[nodiscard]] inline bool percentile_supported(double q, std::size_t n) {
  return n > 0 && samples_beyond(q, n) >= kMinTail;
}

/// Nearest-rank quantile; reorders `v`.  Throws on an empty sample.
[[nodiscard]] inline double quantile(std::vector<double>& v, double q) {
  const std::size_t k = nearest_rank(q, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Median as Python's statistics.median computes it (mean of the middle
/// pair for even n).  Reorders `v`.
[[nodiscard]] inline double median(std::vector<double>& v) {
  if (v.empty()) {
    throw std::invalid_argument("median of an empty sample");
  }
  const std::size_t n = v.size();
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (n % 2 == 1) {
    return *mid;
  }
  const double lower = *std::max_element(v.begin(), mid);
  return (lower + *mid) / 2.0;
}

/// Q1, Q2, Q3 by Python's statistics.quantiles(v, n=4) default method.
[[nodiscard]] inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    throw std::invalid_argument("quartiles need at least two samples");
  }
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long long>(v.size());
  const long long m = n + 1;
  std::array<double, 3> out{};
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, n - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    const auto lo = static_cast<std::size_t>(j - 1);
    out[static_cast<std::size_t>(i - 1)] =
        (v[lo] * (4.0 - delta) + v[lo + 1] * delta) / 4.0;
  }
  return out;
}

/// Interquartile range as a share of the median: the run-to-run spread.
[[nodiscard]] inline double iqr_share(const std::vector<double>& v) {
  const std::array<double, 3> q = quartiles(v);
  std::vector<double> copy = v;
  return (q[2] - q[0]) / median(copy);
}

}  // namespace e2e
