// Symmetric fixed-point quantization helpers.
//
// The paper's central device argument is about *bit resolution*: GST cells
// provide 255 distinguishable transmission levels (8-bit weights, enough for
// training per Wang et al. [34]); thermally tuned MRRs are limited to 6 bits
// by inter-channel crosstalk, which is *not* enough.  This module provides
// the shared symmetric quantizer used by both the photonic functional model
// (weight programming, signal modulation) and the 6-vs-8-bit training
// ablation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace trident {

/// Nearest integer to `u`, ties away from zero: truncate, then step one
/// level away from zero when the dropped fraction is at least ½.  `u - t`
/// is exact (it only clears the integer bits), so for |u| < 2³¹ this is
/// std::lround bit for bit, without the libm call.  NaN maps to 0 before
/// the conversion, so no NaN is ever converted.  The vector kernels in
/// nn/matrix.cpp compute the same rule lane by lane.
[[nodiscard]] inline int round_half_away(double u) {
  const double v = u == u ? u : 0.0;
  const int t = static_cast<int>(v);
  const double f = v - static_cast<double>(t);
  return t + static_cast<int>(f >= 0.5) - static_cast<int>(f <= -0.5);
}

/// A symmetric uniform quantizer over [-range, +range] with `bits` of
/// resolution: 2^bits - 1 levels, level 0 at the midpoint, zero exactly
/// representable.  With bits = 8 this matches the paper's 255-level GST cell.
class SymmetricQuantizer {
 public:
  SymmetricQuantizer(int bits, double range = 1.0) : bits_(bits), range_(range) {
    TRIDENT_REQUIRE(bits >= 1 && bits <= 16, "bit width must be in [1, 16]");
    TRIDENT_REQUIRE(range > 0.0, "quantizer range must be positive");
    // 2^bits - 1 levels → (levels - 1)/2 steps on each side of zero.
    levels_ = (1 << bits) - 1;
    half_steps_ = (levels_ - 1) / 2;
    step_ = range_ / static_cast<double>(half_steps_);
  }

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] int levels() const { return levels_; }
  /// Quantization step between adjacent levels.
  [[nodiscard]] double step() const { return step_; }
  [[nodiscard]] double range() const { return range_; }

  /// Signed level index in [-half_steps, +half_steps]; values outside
  /// [-range, range] saturate and NaN lands on level 0.
  [[nodiscard]] int to_level(double x) const {
    return round_half_away(std::clamp(x, -range_, range_) / step_);
  }

  /// Reconstruction value of a level index.
  [[nodiscard]] double from_level(int level) const {
    TRIDENT_REQUIRE(std::abs(level) <= half_steps_, "level index out of range");
    return static_cast<double>(level) * step_;
  }

  /// Round-trip quantization of a single value.
  [[nodiscard]] double quantize(double x) const { return from_level(to_level(x)); }

  /// Quantize a whole vector in place.
  void quantize(std::span<double> xs) const {
    for (double& x : xs) {
      x = quantize(x);
    }
  }

  /// Quantize into a fresh vector.
  [[nodiscard]] std::vector<double> quantized(std::span<const double> xs) const {
    std::vector<double> out(xs.begin(), xs.end());
    quantize(out);
    return out;
  }

  // --- bulk level conversion ---------------------------------------------
  //
  // Scalar reference loops.  The int8 panels the GEMMs stream are packed by
  // the vectorized kernels in nn/matrix.hpp (nn::to_levels,
  // nn::PackedPanel), bit-identical to to_level per element; every level of
  // a ≤ 8-bit grid fits a byte ([-127, 127] at 8 bits, so -128 never
  // appears).

  /// out[i] = to_level(xs[i]).  Spans must have equal length.
  void to_levels(std::span<const double> xs, std::span<int> out) const {
    TRIDENT_REQUIRE(xs.size() == out.size(), "to_levels span size mismatch");
    for (std::size_t i = 0; i < xs.size(); ++i) {
      out[i] = to_level(xs[i]);
    }
  }

  /// out[i] = from_level(levels[i]).  Spans must have equal length.
  void from_levels(std::span<const int> levels, std::span<double> out) const {
    TRIDENT_REQUIRE(levels.size() == out.size(),
                    "from_levels span size mismatch");
    for (std::size_t i = 0; i < levels.size(); ++i) {
      out[i] = from_level(levels[i]);
    }
  }

  void from_levels(std::span<const std::int8_t> levels,
                   std::span<double> out) const {
    TRIDENT_REQUIRE(levels.size() == out.size(),
                    "from_levels span size mismatch");
    for (std::size_t i = 0; i < levels.size(); ++i) {
      out[i] = from_level(levels[i]);
    }
  }

  /// Worst-case absolute rounding error for in-range inputs (= step / 2).
  [[nodiscard]] double max_rounding_error() const { return step_ / 2.0; }

 private:
  int bits_;
  double range_;
  int levels_;
  int half_steps_;
  double step_;
};

/// Unsigned quantizer over [0, range]: `2^bits - 1` levels above zero.
/// Used for the optical signal amplitudes (light intensity is non-negative);
/// signed values are carried by the add-drop/balanced-photodetector pair.
class UnsignedQuantizer {
 public:
  UnsignedQuantizer(int bits, double range = 1.0) : bits_(bits), range_(range) {
    TRIDENT_REQUIRE(bits >= 1 && bits <= 16, "bit width must be in [1, 16]");
    TRIDENT_REQUIRE(range > 0.0, "quantizer range must be positive");
    levels_ = (1 << bits) - 1;
    step_ = range_ / static_cast<double>(levels_);
  }

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] int levels() const { return levels_; }
  [[nodiscard]] double step() const { return step_; }

  [[nodiscard]] int to_level(double x) const {
    return round_half_away(std::clamp(x, 0.0, range_) / step_);
  }
  [[nodiscard]] double from_level(int level) const {
    TRIDENT_REQUIRE(level >= 0 && level <= levels_, "level index out of range");
    return static_cast<double>(level) * step_;
  }
  [[nodiscard]] double quantize(double x) const { return from_level(to_level(x)); }

 private:
  int bits_;
  double range_;
  int levels_;
  double step_;
};

}  // namespace trident
