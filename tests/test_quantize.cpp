// Quantizer tests, including the parameterized rounding-error property the
// photonic weight-storage argument rests on.
#include "common/quantize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace trident {
namespace {

TEST(SymmetricQuantizer, EightBitMatchesGstLevels) {
  SymmetricQuantizer q(8);
  EXPECT_EQ(q.levels(), 255);  // 2^8 - 1 levels, zero representable
  EXPECT_EQ(q.bits(), 8);
  EXPECT_DOUBLE_EQ(q.step(), 1.0 / 127.0);
}

TEST(SymmetricQuantizer, ZeroIsExact) {
  for (int bits : {2, 4, 6, 8, 12}) {
    SymmetricQuantizer q(bits);
    EXPECT_DOUBLE_EQ(q.quantize(0.0), 0.0) << "bits=" << bits;
  }
}

TEST(SymmetricQuantizer, ExtremesAreExact) {
  SymmetricQuantizer q(8);
  EXPECT_DOUBLE_EQ(q.quantize(1.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantize(-1.0), -1.0);
}

TEST(SymmetricQuantizer, SaturatesOutOfRange) {
  SymmetricQuantizer q(8);
  EXPECT_DOUBLE_EQ(q.quantize(3.5), 1.0);
  EXPECT_DOUBLE_EQ(q.quantize(-2.0), -1.0);
}

TEST(SymmetricQuantizer, SymmetryProperty) {
  SymmetricQuantizer q(6);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    EXPECT_DOUBLE_EQ(q.quantize(-x), -q.quantize(x));
  }
}

TEST(SymmetricQuantizer, LevelRoundTrip) {
  SymmetricQuantizer q(8);
  for (int level = -127; level <= 127; ++level) {
    EXPECT_EQ(q.to_level(q.from_level(level)), level);
  }
  EXPECT_THROW((void)q.from_level(128), Error);
}

TEST(SymmetricQuantizer, VectorOverloads) {
  SymmetricQuantizer q(4);
  std::vector<double> xs{0.11, -0.52, 0.93};
  const std::vector<double> out = q.quantized(xs);
  q.quantize(std::span<double>(xs));
  EXPECT_EQ(out, xs);
  for (double v : xs) {
    EXPECT_EQ(q.quantize(v), v);  // idempotent
  }
}

TEST(SymmetricQuantizer, RejectsBadArguments) {
  EXPECT_THROW(SymmetricQuantizer(0), Error);
  EXPECT_THROW(SymmetricQuantizer(17), Error);
  EXPECT_THROW(SymmetricQuantizer(8, -1.0), Error);
}

TEST(UnsignedQuantizer, BasicLevels) {
  UnsignedQuantizer q(8);
  EXPECT_EQ(q.levels(), 255);
  EXPECT_DOUBLE_EQ(q.quantize(0.0), 0.0);
  EXPECT_DOUBLE_EQ(q.quantize(1.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantize(-0.5), 0.0);  // clamps to non-negative
  EXPECT_DOUBLE_EQ(q.quantize(2.0), 1.0);
}

TEST(UnsignedQuantizer, LevelBounds) {
  UnsignedQuantizer q(4);
  EXPECT_THROW((void)q.from_level(-1), Error);
  EXPECT_THROW((void)q.from_level(q.levels() + 1), Error);
  EXPECT_DOUBLE_EQ(q.from_level(q.levels()), 1.0);
}

// --- parameterized property sweep -------------------------------------------

class QuantizerErrorBound : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerErrorBound, RoundingErrorWithinHalfStep) {
  const int bits = GetParam();
  SymmetricQuantizer q(bits);
  Rng rng(static_cast<std::uint64_t>(bits));
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    EXPECT_LE(std::abs(x - q.quantize(x)), q.max_rounding_error() + 1e-15)
        << "bits=" << bits << " x=" << x;
  }
}

TEST_P(QuantizerErrorBound, StepHalvesPerBit) {
  const int bits = GetParam();
  if (bits >= 16) {
    return;
  }
  SymmetricQuantizer coarse(bits), fine(bits + 1);
  EXPECT_LT(fine.step(), coarse.step());
  // One more bit halves the step asymptotically; the exact ratio is
  // (2^b - 1) / (2^(b-1) - 1), which only approaches 2 for wider grids.
  if (bits >= 6) {
    EXPECT_NEAR(coarse.step() / fine.step(), 2.0, 0.1);
  }
}

INSTANTIATE_TEST_SUITE_P(BitWidths, QuantizerErrorBound,
                         ::testing::Values(2, 4, 6, 8, 10, 12, 16));

// --- bulk level-conversion overloads (the quantized tier's fast path) -------

class BulkLevelConversion : public ::testing::TestWithParam<int> {};

TEST_P(BulkLevelConversion, GridPointsRoundTripExactly) {
  // from_levels ∘ to_levels is the identity on every representable value:
  // the grid is closed under a bulk round trip at every bit width.
  const int bits = GetParam();
  SymmetricQuantizer q(bits);
  const int half = (q.levels() - 1) / 2;
  std::vector<int> levels;
  for (int l = -half; l <= half; ++l) {
    levels.push_back(l);
  }
  std::vector<double> values(levels.size());
  q.from_levels(levels, values);
  std::vector<int> back(levels.size());
  q.to_levels(values, back);
  EXPECT_EQ(back, levels) << "bits=" << bits;
}

TEST_P(BulkLevelConversion, SaturatesAtRangeAndRepresentsZero) {
  const int bits = GetParam();
  SymmetricQuantizer q(bits, 0.75);
  const int half = (q.levels() - 1) / 2;
  const std::vector<double> xs{-100.0, -0.7500001, -0.75, 0.0, 0.75, 3.0e8};
  std::vector<int> levels(xs.size());
  q.to_levels(xs, levels);
  EXPECT_EQ(levels[0], -half) << "bits=" << bits;  // deep saturation
  EXPECT_EQ(levels[1], -half);                     // just past the edge
  EXPECT_EQ(levels[2], -half);                     // the edge itself
  EXPECT_EQ(levels[3], 0);                         // zero exactly on-grid
  EXPECT_EQ(levels[4], half);
  EXPECT_EQ(levels[5], half);
  std::vector<double> values(levels.size());
  q.from_levels(levels, values);
  EXPECT_DOUBLE_EQ(values[3], 0.0);
  EXPECT_DOUBLE_EQ(values[2], -0.75);
  EXPECT_DOUBLE_EQ(values[4], 0.75);
}

TEST_P(BulkLevelConversion, BulkAgreesWithScalarOnRandomInputs) {
  const int bits = GetParam();
  SymmetricQuantizer q(bits, 1.25);
  Rng rng(0xb01c'0000u + static_cast<std::uint64_t>(bits));
  std::vector<double> xs(512);
  for (double& x : xs) {
    x = rng.uniform(-2.0, 2.0);  // includes out-of-range values
  }
  std::vector<int> levels(xs.size());
  q.to_levels(xs, levels);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(levels[i], q.to_level(xs[i])) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(BitWidths, BulkLevelConversion,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 12, 16));

TEST(BulkLevelConversion, Int8VariantMatchesWideVariantThroughEightBits) {
  Rng rng(0xb01c'1111u);
  for (int bits = 2; bits <= 8; ++bits) {
    SymmetricQuantizer q(bits);
    std::vector<double> xs(256);
    for (double& x : xs) {
      x = rng.uniform(-1.5, 1.5);
    }
    std::vector<int> wide(xs.size());
    std::vector<std::int8_t> narrow(xs.size());
    q.to_levels(xs, std::span<int>(wide));
    nn::to_levels(xs.data(), xs.size(), q, narrow.data());
    std::vector<double> from_wide(xs.size()), from_narrow(xs.size());
    q.from_levels(std::span<const int>(wide), from_wide);
    q.from_levels(std::span<const std::int8_t>(narrow), from_narrow);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(static_cast<int>(narrow[i]), wide[i]) << "bits=" << bits;
      EXPECT_EQ(from_narrow[i], from_wide[i]) << "bits=" << bits;
    }
  }
}

TEST(BulkLevelConversion, RejectsMismatchedSpansAndWideGridsOnInt8) {
  SymmetricQuantizer q8(8);
  std::vector<double> xs(4, 0.0);
  std::vector<int> small(3);
  EXPECT_THROW(q8.to_levels(xs, std::span<int>(small)), Error);
  std::vector<std::int8_t> bytes(4);
  SymmetricQuantizer q9(9);  // 511 levels do not fit an int8
  EXPECT_THROW(nn::to_levels(xs.data(), xs.size(), q9, bytes.data()), Error);
  std::vector<int> levels(5, 0);
  std::vector<double> out(4);
  EXPECT_THROW(q8.from_levels(std::span<const int>(levels), out), Error);
}

// The training-resolution cliff in miniature: a 6-bit grid cannot represent
// updates an 8-bit grid can.
TEST(QuantizerProperty, SmallUpdatesVanishAtLowResolution) {
  SymmetricQuantizer q6(6), q8(8);
  // An update between the 8-bit half-step (0.0039) and the 6-bit half-step
  // (0.0161) survives on the fine grid but vanishes on the coarse one.
  const double update = 0.006;
  const double w6 = q6.quantize(0.5);
  EXPECT_DOUBLE_EQ(q6.quantize(w6 + update), w6) << "update lost at 6 bits";
  const double w8 = q8.quantize(0.5);
  EXPECT_NE(q8.quantize(w8 + update), w8) << "update survives at 8 bits";
}

}  // namespace
}  // namespace trident
