// Int8 GEMM kernels: correctness against a scalar reference at awkward
// shapes, B=1 vs batched bit-identity, and the int32-overflow guard.
#include "nn/int8_gemm.hpp"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/quantize.hpp"
#include "common/rng.hpp"

namespace nn = trident::nn;
using trident::Rng;

namespace {

/// The level panel holding `levels` (row-major rows × cols) on the 8-bit
/// grid: each level's grid value packs back to the level itself.
nn::PackedPanel panel_of(const std::vector<std::int8_t>& levels,
                         std::size_t rows, std::size_t cols) {
  const trident::SymmetricQuantizer grid(8);
  nn::Matrix w(rows, cols);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    w.data()[i] = grid.from_level(levels[i]);
  }
  return nn::PackedPanel(w, grid);
}

std::vector<std::int8_t> random_levels(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) {
    // Full signed level range of an 8-bit symmetric grid.
    x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  return v;
}

std::vector<std::int32_t> reference_gemm(const std::vector<std::int8_t>& w,
                                         std::size_t rows, std::size_t cols,
                                         const std::vector<std::int8_t>& x,
                                         std::size_t batch) {
  std::vector<std::int32_t> y(batch * rows, 0);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t r = 0; r < rows; ++r) {
      std::int32_t acc = 0;
      for (std::size_t c = 0; c < cols; ++c) {
        acc += static_cast<std::int32_t>(w[r * cols + c]) *
               static_cast<std::int32_t>(x[b * cols + c]);
      }
      y[b * rows + r] = acc;
    }
  }
  return y;
}

std::vector<std::int32_t> reference_gemm_transposed(
    const std::vector<std::int8_t>& w, std::size_t rows, std::size_t cols,
    const std::vector<std::int8_t>& x, std::size_t batch) {
  std::vector<std::int32_t> y(batch * cols, 0);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        y[b * cols + c] += static_cast<std::int32_t>(w[r * cols + c]) *
                           static_cast<std::int32_t>(x[b * rows + r]);
      }
    }
  }
  return y;
}

}  // namespace

TEST(Int8Gemm, MatchesScalarReferenceAcrossShapes) {
  Rng rng(0x18'6e44u);
  // Batches straddle the panel widths (32 full, 16 half, scalar tail) and
  // cols straddle the 256-column cache block.
  const std::size_t batches[] = {1, 3, 16, 17, 32, 33, 64};
  const std::size_t shapes[][2] = {{1, 1}, {5, 7}, {16, 256}, {33, 257}};
  for (const auto& shape : shapes) {
    const std::size_t rows = shape[0];
    const std::size_t cols = shape[1];
    const auto w = random_levels(rows * cols, rng);
    const nn::PackedPanel panel = panel_of(w, rows, cols);
    for (std::size_t batch : batches) {
      const auto x = random_levels(batch * cols, rng);
      std::vector<std::int32_t> y(batch * rows, -1);
      nn::int8_gemm(panel, x.data(), batch, y.data());
      EXPECT_EQ(y, reference_gemm(w, rows, cols, x, batch))
          << rows << "x" << cols << " batch " << batch;
    }
  }
}

TEST(Int8Gemm, TransposedMatchesScalarReference) {
  Rng rng(0x18'7155u);
  const std::size_t batches[] = {1, 2, 16, 31, 33};
  const std::size_t shapes[][2] = {{1, 4}, {7, 5}, {64, 48}, {257, 19}};
  for (const auto& shape : shapes) {
    const std::size_t rows = shape[0];
    const std::size_t cols = shape[1];
    const auto w = random_levels(rows * cols, rng);
    for (std::size_t batch : batches) {
      const auto x = random_levels(batch * rows, rng);
      std::vector<std::int32_t> y(batch * cols, -1);
      nn::int8_gemm_transposed(w.data(), rows, cols, x.data(), batch,
                               y.data());
      EXPECT_EQ(y, reference_gemm_transposed(w, rows, cols, x, batch))
          << rows << "x" << cols << " batch " << batch;
    }
  }
}

TEST(Int8Gemm, BatchedBitIdenticalToSingleSampleCalls) {
  Rng rng(0x18'beefu);
  const std::size_t rows = 24;
  const std::size_t cols = 100;
  const std::size_t batch = 37;
  const nn::PackedPanel panel =
      panel_of(random_levels(rows * cols, rng), rows, cols);
  const auto x = random_levels(batch * cols, rng);

  std::vector<std::int32_t> batched(batch * rows);
  nn::int8_gemm(panel, x.data(), batch, batched.data());

  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<std::int32_t> single(rows);
    nn::int8_gemm(panel, x.data() + b * cols, 1, single.data());
    ASSERT_EQ(0, std::memcmp(single.data(), batched.data() + b * rows,
                             rows * sizeof(std::int32_t)))
        << "row " << b << " differs from its B=1 run";
  }
}

TEST(Int8Gemm, ExtremeLevelsStayExactAtMaxSupportedFanIn) {
  // ±127 everywhere at a large fan-in: the accumulator must neither wrap
  // nor saturate.  (Running the full 133k-column worst case takes memory;
  // 8192 columns exercises every blocking path with the extreme values.)
  const std::size_t rows = 2;
  const std::size_t cols = 8192;
  const nn::PackedPanel w =
      panel_of(std::vector<std::int8_t>(rows * cols, 127), rows, cols);
  std::vector<std::int8_t> x(cols, 127);
  for (std::size_t c = 0; c < cols; c += 2) {
    x[c] = -127;  // alternate signs so both polarities hit the accumulator
  }
  std::vector<std::int32_t> y(rows);
  nn::int8_gemm(w, x.data(), 1, y.data());
  EXPECT_EQ(y[0], 0);
  EXPECT_EQ(y[1], 0);

  std::fill(x.begin(), x.end(), static_cast<std::int8_t>(127));
  nn::int8_gemm(w, x.data(), 1, y.data());
  EXPECT_EQ(y[0], static_cast<std::int32_t>(cols) * 127 * 127);
}

TEST(Int8Gemm, RejectsFanInBeyondOverflowHeadroom) {
  const nn::PackedPanel w(nn::Matrix(1, nn::kInt8GemmMaxCols + 1),
                          trident::SymmetricQuantizer(8));
  std::vector<std::int8_t> x(nn::kInt8GemmMaxCols + 1, 0);
  std::int32_t y = 0;
  EXPECT_THROW(nn::int8_gemm(w, x.data(), 1, &y), trident::Error);
}

TEST(Int8Gemm, ReportsAnIsaTier) {
  const std::string isa = nn::int8_kernel_isa();
  EXPECT_TRUE(isa == "avx512bw" || isa == "avx512f" || isa == "avx2" ||
              isa == "baseline")
      << isa;
}
