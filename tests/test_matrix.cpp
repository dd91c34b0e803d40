#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::nn {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 0.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.5);
  m.at(0, 1) = -1.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -1.0);
}

TEST(Matrix, ZeroDimensionThrows) {
  EXPECT_THROW(Matrix(0, 3), Error);
  EXPECT_THROW(Matrix(3, 0), Error);
}

TEST(Matrix, MatvecMatchesHandComputation) {
  Matrix m(2, 3);
  // [[1, 2, 3], [4, 5, 6]]
  double v = 1.0;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      m.at(r, c) = v++;
    }
  }
  const Vector y = m.matvec({1.0, 0.0, -1.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(Matrix, MatvecTransposedMatchesExplicitTranspose) {
  Rng rng(3);
  const Matrix m = Matrix::xavier(5, 7, rng);
  Vector x(5);
  for (auto& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }
  const Vector direct = m.matvec_transposed(x);
  const Vector via_transpose = m.transposed().matvec(x);
  ASSERT_EQ(direct.size(), via_transpose.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct[i], via_transpose[i], 1e-12);
  }
}

TEST(Matrix, DimensionMismatchesThrow) {
  Matrix m(2, 3);
  EXPECT_THROW((void)m.matvec({1.0, 2.0}), Error);
  EXPECT_THROW((void)m.matvec_transposed({1.0}), Error);
  EXPECT_THROW(m.add_outer({1.0}, {1.0, 2.0, 3.0}, 1.0), Error);
}

TEST(Matrix, AddOuterIsRankOneUpdate) {
  Matrix m(2, 2, 0.0);
  m.add_outer({1.0, 2.0}, {3.0, 4.0}, -0.5);
  EXPECT_DOUBLE_EQ(m.at(0, 0), -1.5);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), -4.0);
}

TEST(Matrix, TransposeInvolution) {
  Rng rng(4);
  const Matrix m = Matrix::xavier(3, 5, rng);
  const Matrix mtt = m.transposed().transposed();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_DOUBLE_EQ(m.at(r, c), mtt.at(r, c));
    }
  }
}

TEST(Matrix, XavierBoundsAndSpread) {
  Rng rng(5);
  const Matrix m = Matrix::xavier(20, 30, rng);
  const double limit = std::sqrt(6.0 / 50.0);
  double max_seen = 0.0;
  for (double v : m.data()) {
    EXPECT_LE(std::abs(v), limit);
    max_seen = std::max(max_seen, std::abs(v));
  }
  EXPECT_GT(max_seen, limit * 0.5);  // actually spreads across the range
  EXPECT_NEAR(m.max_abs(), max_seen, 1e-15);
}

// --- batched GEMM kernels --------------------------------------------------

/// Naive reference: y(b, r) = Σ_c w(r, c) · x(b, c), no blocking.
Matrix naive_matmul(const Matrix& w, const Matrix& x) {
  Matrix y(x.rows(), w.rows());
  for (std::size_t b = 0; b < x.rows(); ++b) {
    for (std::size_t r = 0; r < w.rows(); ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < w.cols(); ++c) {
        acc += w.at(r, c) * x.at(b, c);
      }
      y.at(b, r) = acc;
    }
  }
  return y;
}

Matrix naive_matmul_transposed(const Matrix& w, const Matrix& x) {
  Matrix y(x.rows(), w.cols());
  for (std::size_t b = 0; b < x.rows(); ++b) {
    for (std::size_t c = 0; c < w.cols(); ++c) {
      double acc = 0.0;
      for (std::size_t r = 0; r < w.rows(); ++r) {
        acc += w.at(r, c) * x.at(b, r);
      }
      y.at(b, c) = acc;
    }
  }
  return y;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) {
    v = rng.uniform(-1.0, 1.0);
  }
  return m;
}

TEST(MatrixGemm, MatmulMatchesNaiveReference) {
  Rng rng(11);
  // Deliberately odd shapes: non-square, batch not a multiple of the panel
  // width, single-row and single-column weights.
  const struct {
    std::size_t rows, cols, batch;
  } shapes[] = {{5, 7, 3},   {16, 16, 8}, {33, 17, 13}, {1, 9, 4},
                {9, 1, 4},   {2, 300, 5}, {300, 2, 5},  {64, 64, 1},
                {24, 40, 65}};
  for (const auto& s : shapes) {
    const Matrix w = random_matrix(s.rows, s.cols, rng);
    const Matrix x = random_matrix(s.batch, s.cols, rng);
    const Matrix y = w.matmul(x);
    const Matrix ref = naive_matmul(w, x);
    ASSERT_EQ(y.rows(), s.batch);
    ASSERT_EQ(y.cols(), s.rows);
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_NEAR(y.data()[i], ref.data()[i], 1e-12)
          << s.rows << "x" << s.cols << " batch " << s.batch;
    }
  }
}

TEST(MatrixGemm, MatmulRowsBitIdenticalToMatvec) {
  // The blocked kernel must preserve the per-sample accumulation order
  // exactly — outputs compare with ==, not a tolerance.
  Rng rng(12);
  const Matrix w = random_matrix(37, 53, rng);
  const Matrix x = random_matrix(21, 53, rng);
  const Matrix y = w.matmul(x);
  Vector xb(w.cols());
  for (std::size_t b = 0; b < x.rows(); ++b) {
    const auto row = x.row(b);
    std::copy(row.begin(), row.end(), xb.begin());
    const Vector yb = w.matvec(xb);
    for (std::size_t r = 0; r < yb.size(); ++r) {
      EXPECT_EQ(y.at(b, r), yb[r]) << "sample " << b << " row " << r;
    }
  }
}

TEST(MatrixGemm, MatmulTransposedMatchesNaiveAndMatvec) {
  Rng rng(13);
  const struct {
    std::size_t rows, cols, batch;
  } shapes[] = {{5, 7, 3}, {1, 9, 4}, {9, 1, 4}, {33, 17, 13}};
  for (const auto& s : shapes) {
    const Matrix w = random_matrix(s.rows, s.cols, rng);
    const Matrix x = random_matrix(s.batch, s.rows, rng);
    const Matrix y = w.matmul_transposed(x);
    const Matrix ref = naive_matmul_transposed(w, x);
    ASSERT_EQ(y.rows(), s.batch);
    ASSERT_EQ(y.cols(), s.cols);
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_NEAR(y.data()[i], ref.data()[i], 1e-12);
    }
    Vector xb(w.rows());
    for (std::size_t b = 0; b < s.batch; ++b) {
      const auto row = x.row(b);
      std::copy(row.begin(), row.end(), xb.begin());
      const Vector yb = w.matvec_transposed(xb);
      for (std::size_t c = 0; c < yb.size(); ++c) {
        EXPECT_EQ(y.at(b, c), yb[c]);
      }
    }
  }
}

TEST(MatrixGemm, MatmulDimensionMismatchThrows) {
  const Matrix w(3, 4);
  EXPECT_THROW((void)w.matmul(Matrix(2, 5)), Error);
  EXPECT_THROW((void)w.matmul_transposed(Matrix(2, 5)), Error);
  Matrix y(2, 5);
  EXPECT_THROW(w.matmul_into(Matrix(2, 4), y), Error);
}

TEST(MatrixGemm, AddOuterBatchEqualsSequentialAddOuter) {
  Rng rng(14);
  const Matrix a = random_matrix(9, 6, rng);
  const Matrix b = random_matrix(9, 11, rng);
  Matrix batched = random_matrix(6, 11, rng);
  Matrix sequential = batched;
  batched.add_outer_batch(a, b, -0.05);
  Vector ab(a.cols());
  Vector bb(b.cols());
  for (std::size_t m = 0; m < a.rows(); ++m) {
    const auto ar = a.row(m);
    const auto br = b.row(m);
    std::copy(ar.begin(), ar.end(), ab.begin());
    std::copy(br.begin(), br.end(), bb.begin());
    sequential.add_outer(ab, bb, -0.05);
  }
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched.data()[i], sequential.data()[i]);
  }
}

TEST(MatrixGemm, IntoVariantsReuseBuffers) {
  Rng rng(15);
  const Matrix w = random_matrix(4, 5, rng);
  Vector x(5, 0.25);
  Vector y;
  w.matvec_into(x, y);
  EXPECT_EQ(y, w.matvec(x));
  Vector yt;
  Vector xt(4, -0.5);
  w.matvec_transposed_into(xt, yt);
  EXPECT_EQ(yt, w.matvec_transposed(xt));
  Matrix xb = random_matrix(3, 5, rng);
  Matrix yb(3, 4);
  w.matmul_into(xb, yb);
  const Matrix yb_ref = w.matmul(xb);
  EXPECT_EQ(yb.data(), yb_ref.data());
}

// --- packed photonic panel --------------------------------------------------

TEST(PackedPanel, EveryTileAndRemainderBitIdenticalToLevelMatvec) {
  // The panel holds level(w); the reference is Matrix::matvec on
  // q(w) = grid.quantize(w), the value the bank holds.  Rows cover a
  // partial group, exact groups and leftover groups after the tallest
  // tiles (70 = 8 + 1 groups, which also crosses the pool-dispatch
  // threshold at B ≥ 32); fan-in covers 1, odd and past 256; B = 1..33
  // covers every sample tile, the full-block tile and every remainder on
  // every ISA tier.  The large shapes reach the row-group split of calls
  // narrower than one 16-sample block (B = 1..15 and the one-sample tail
  // of B = 17), with a partial last group in the last chunk; B = 16 and 32
  // run whole blocks.  Weights mix off-grid values up to ±2 (saturation),
  // −0.0, exact half-LSB ties and on-grid values; outputs compare with ==,
  // not a tolerance.
  Rng rng(0x9AC4u);
  auto check = [&rng](std::size_t rows, std::size_t cols,
                      const std::vector<std::size_t>& batches,
                      const SymmetricQuantizer& grid) {
    const int half = (grid.levels() - 1) / 2;
    Matrix w(rows, cols);
    for (double& v : w.data()) {
      const int k = static_cast<int>(rng.uniform_int(-half, half - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0:
          v = -0.0;
          break;
        case 1:
          v = (k + 0.5) * grid.step();  // a tie: rounds away from zero
          break;
        case 2:
          v = grid.from_level(k);
          break;
        default:
          v = rng.uniform(-2.0, 2.0);
      }
    }
    Matrix held = w;
    for (double& v : held.data()) {
      v = grid.quantize(v);
    }
    const PackedPanel panel(w, grid);
    ASSERT_EQ(panel.rows(), rows);
    ASSERT_EQ(panel.cols(), cols);
    // Every batch is a prefix of one input, so each sample's reference
    // matvec runs once.
    const std::size_t most = *std::max_element(batches.begin(), batches.end());
    const Matrix x = random_matrix(most, cols, rng);
    std::vector<Vector> want(most);
    Vector xb(cols);
    for (std::size_t b = 0; b < most; ++b) {
      const auto row = x.row(b);
      std::copy(row.begin(), row.end(), xb.begin());
      want[b] = held.matvec(xb);
    }
    for (const std::size_t batch : batches) {
      Matrix xp(batch, cols);
      std::copy_n(x.data().begin(), batch * cols, xp.data().begin());
      Matrix y(batch, rows);
      panel.matmul_into(xp, y);
      for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t r = 0; r < rows; ++r) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(y.at(b, r)),
                    std::bit_cast<std::uint64_t>(want[b][r]))
              << grid.bits() << "-bit " << rows << "x" << cols
              << " B=" << batch << " sample " << b << " row " << r;
        }
      }
    }
  };
  std::vector<std::size_t> every(33);
  std::iota(every.begin(), every.end(), std::size_t{1});
  for (const int bits : {8, 6}) {
    for (const std::size_t rows : {1u, 7u, 8u, 9u, 10u, 25u, 70u}) {
      for (const std::size_t cols : {1u, 3u, 257u}) {
        check(rows, cols, every, SymmetricQuantizer(bits));
      }
    }
  }
  std::vector<std::size_t> split(17);
  std::iota(split.begin(), split.end(), std::size_t{1});
  split.push_back(32);
  for (const std::size_t rows : {1016u, 1024u, 1025u}) {
    for (const std::size_t cols : {512u, 513u}) {
      check(rows, cols, split, SymmetricQuantizer(8));
    }
  }
}

TEST(PackedPanel, RepackingReusesStorageAndClearsThePaddingRows) {
  // A per-op panel is re-packed for every call; a smaller matrix after a
  // larger one must read level 0 in its padding rows, not stale levels.
  const SymmetricQuantizer grid(8);
  PackedPanel panel(Matrix(16, 5, 0.75), grid);
  const std::int8_t* storage = panel.levels();
  panel.pack(Matrix(3, 5, -0.25), grid);
  EXPECT_EQ(panel.levels(), storage);
  for (std::size_t c = 0; c < 5; ++c) {
    for (std::size_t r = 0; r < 8; ++r) {
      EXPECT_EQ(panel.levels()[c * 8 + r], r < 3 ? grid.to_level(-0.25) : 0)
          << "row " << r << " column " << c;
    }
  }
  Matrix y(1, 3);
  panel.matmul_into(Matrix(1, 5, 1.0), y);
  EXPECT_EQ(y.at(0, 0), Matrix(3, 5, grid.quantize(-0.25)).matvec(
                            Vector(5, 1.0))[0]);
}

TEST(PackedPanel, OnlyLargeCallsNarrowerThanABlockSplit) {
  // The split rule reads the call's shape alone: at least two
  // 262,144-MAC grains of samples narrower than one 16-sample block.
  // 1024 × 512 × 1 is exactly two grains and splits; the serving model's
  // widest layer at B = 15 (128 × 64 × 15) and a full block of the large
  // layer do not reach the pool.
  if (!telemetry::compiled_in()) {
    GTEST_SKIP() << "built with -DTRIDENT_TELEMETRY=OFF";
  }
  telemetry::Counter& dispatched =
      telemetry::MetricsRegistry::global().counter(
          "trident_pool_parallel_for_dispatched_total");
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  auto dispatches = [&](std::size_t rows, std::size_t cols,
                        std::size_t batch) {
    const PackedPanel panel(Matrix(rows, cols), SymmetricQuantizer(8));
    Matrix y(batch, rows);
    const std::uint64_t before = dispatched.value();
    panel.matmul_into(Matrix(batch, cols), y);
    return dispatched.value() - before;
  };
  EXPECT_EQ(dispatches(1024, 512, 1), 1u);
  EXPECT_EQ(dispatches(512, 1024, 15), 1u);
  EXPECT_EQ(dispatches(1024, 511, 1), 0u);
  EXPECT_EQ(dispatches(128, 64, 15), 0u);
  EXPECT_EQ(dispatches(1024, 512, 16), 0u);
  telemetry::set_enabled(was_enabled);
}

TEST(PackedPanel, ShapeMismatchThrows) {
  const PackedPanel panel(Matrix(3, 4), SymmetricQuantizer(8));
  Matrix y(2, 3);
  EXPECT_THROW(panel.matmul_into(Matrix(2, 5), y), Error);
  Matrix wrong(2, 4);
  EXPECT_THROW(panel.matmul_into(Matrix(2, 4), wrong), Error);
}

// --- quantization kernels ---------------------------------------------------

/// The rounding the kernels replaced, kept here as the reference: libm
/// lround of the clamped value, narrowed to int.  lround(NaN) narrows to
/// level 0.
int lround_level(double x, const SymmetricQuantizer& grid) {
  return static_cast<int>(
      std::lround(std::clamp(x, -grid.range(), grid.range()) / grid.step()));
}

double lround_value(double x, const SymmetricQuantizer& grid) {
  return static_cast<double>(lround_level(x, grid)) * grid.step();
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every tie k ± ½ of `grid` and both neighbours of each, ±1 and their
/// neighbours, ±0 and denormals: the values whose rounding is in doubt.
/// All lie in [-1, 1] apart from the neighbours just beyond ±1.
std::vector<double> in_range_probes(const SymmetricQuantizer& grid) {
  std::vector<double> v{0.0,
                        -0.0,
                        std::numeric_limits<double>::denorm_min(),
                        -std::numeric_limits<double>::denorm_min(),
                        -2.5e-310,
                        1.0,
                        -1.0,
                        std::nextafter(1.0, 0.0),
                        std::nextafter(1.0, 2.0),
                        std::nextafter(-1.0, 0.0),
                        std::nextafter(-1.0, -2.0)};
  const int half = (grid.levels() - 1) / 2;
  for (int k = -half; k < half; ++k) {
    const double tie = (k + 0.5) * grid.step();
    v.push_back(tie);
    v.push_back(std::nextafter(tie, -2.0));
    v.push_back(std::nextafter(tie, 2.0));
  }
  return v;
}

/// Values the clamp and the NaN mapping decide: finite ones, then NaN,
/// then the two infinities last.
std::vector<double> out_of_range_probes() {
  const double inf = std::numeric_limits<double>::infinity();
  return {1.5,     -1.5,     3.0,
          -7.25,   1e300,    -1e300,
          DBL_MAX, -DBL_MAX, std::numeric_limits<double>::quiet_NaN(),
          inf,     -inf};
}

const std::vector<std::size_t> kKernelWidths = {1,  3,  7,  8,  9,  15,
                                                16, 17, 63, 64, 65, 257};

TEST(QuantizeKernels, Rank1UpdateMatchesLroundBitForBit) {
  // Row 0 holds +0.0 with dh = 1, lr = 1 and y = −probe, so the target is
  // the probe exactly: every tie, neighbour, ±Inf and NaN meets the
  // rounding.  Row 1 holds −0.0 with dh = 0: a cell whose level stays 0
  // must keep its −0.0.  Row 2 starts on the grid; row 3 starts on the
  // probes themselves (off-grid, beyond ±1, NaN stored).
  Rng rng(0x0A11u);
  for (const int bits : {4, 6, 8}) {
    const SymmetricQuantizer grid(bits, 1.0);
    std::vector<double> probes = in_range_probes(grid);
    for (const double v : out_of_range_probes()) {
      probes.push_back(v);
    }
    for (const std::size_t cols : kKernelWidths) {
      for (std::size_t offset = 0; offset < probes.size(); offset += cols) {
        Matrix w(4, cols);
        Vector y(cols);
        for (std::size_t c = 0; c < cols; ++c) {
          const double p = probes[(offset + c) % probes.size()];
          y[c] = -p;
          w.at(0, c) = 0.0;
          w.at(1, c) = -0.0;
          w.at(2, c) = grid.quantize(rng.uniform(-1.0, 1.0));
          w.at(3, c) = p;
        }
        const Vector dh{1.0, 0.0, rng.uniform(-0.1, 0.1), 1e-3};
        const double lr = 1.0;

        Matrix want = w;
        std::uint64_t want_changed = 0;
        for (std::size_t r = 0; r < want.rows(); ++r) {
          for (std::size_t c = 0; c < cols; ++c) {
            const double q =
                lround_value(std::clamp(want.at(r, c) - lr * dh[r] * y[c],
                                        -1.0, 1.0),
                             grid);
            if (q != want.at(r, c)) {
              want.at(r, c) = q;
              ++want_changed;
            }
          }
        }

        const std::uint64_t changed = rank1_update_levels(w, dh, y, lr, grid);
        ASSERT_EQ(changed, want_changed)
            << bits << "-bit, width " << cols << ", offset " << offset;
        for (std::size_t i = 0; i < w.size(); ++i) {
          ASSERT_EQ(bits_of(w.data()[i]), bits_of(want.data()[i]))
              << bits << "-bit, width " << cols << ", offset " << offset
              << ", cell " << i;
        }
      }
    }
  }
}

TEST(QuantizeKernels, DacMatchesLroundBitForBit) {
  // Row 0 stays in [-1, 1] (scale 1, so the probes themselves are
  // rounded); row 1 adds values beyond ±1 and NaN (a finite scale that a
  // NaN must not win); row 2 adds ±Inf (scale Inf, every level from
  // Inf/Inf or x/Inf).  The unscaled kernels, to_levels and snap_to_grid
  // (the weight panels), must round every row's raw values the same way:
  // ties away from zero, −0.0 to level 0, NaN to 0, ±Inf saturated.
  for (const int bits : {4, 6, 8}) {
    const SymmetricQuantizer grid(bits, 1.0);
    const std::vector<double> in = in_range_probes(grid);
    const std::vector<double> out = out_of_range_probes();
    for (const std::size_t cols : kKernelWidths) {
      for (std::size_t offset = 0; offset < in.size(); offset += cols) {
        Matrix x(3, cols);
        for (std::size_t c = 0; c < cols; ++c) {
          const double p = in[(offset + c) % in.size()];
          x.at(0, c) = p;
          const std::size_t i = offset + c;
          x.at(1, c) = i % 4 == 1 ? out[i % (out.size() - 2)] : p;
          x.at(2, c) = i % 5 == 2 ? out[i % out.size()] : p;
        }
        Vector scale(3);
        Vector q(x.size());
        std::vector<std::int8_t> levels(x.size());
        dac_quantize(x.data().data(), 3, cols, grid, scale.data(), q.data());
        Vector scale8(3);
        dac_quantize(x.data().data(), 3, cols, grid, scale8.data(),
                     levels.data());
        std::vector<std::int8_t> raw_levels(x.size());
        Vector raw(x.size());
        to_levels(x.data().data(), x.size(), grid, raw_levels.data());
        snap_to_grid(x.data().data(), x.size(), grid, raw.data());
        for (std::size_t b = 0; b < 3; ++b) {
          double s = 1.0;
          for (std::size_t c = 0; c < cols; ++c) {
            s = std::max(s, std::abs(x.at(b, c)));
          }
          ASSERT_EQ(bits_of(scale[b]), bits_of(s));
          ASSERT_EQ(bits_of(scale8[b]), bits_of(s));
          for (std::size_t c = 0; c < cols; ++c) {
            const double v = x.at(b, c) / s;
            ASSERT_EQ(bits_of(q[b * cols + c]), bits_of(lround_value(v, grid)))
                << bits << "-bit, width " << cols << ", row " << b
                << ", col " << c << ", x " << x.at(b, c);
            ASSERT_EQ(levels[b * cols + c],
                      static_cast<std::int8_t>(lround_level(v, grid)))
                << bits << "-bit, width " << cols << ", row " << b
                << ", col " << c << ", x " << x.at(b, c);
            ASSERT_EQ(raw_levels[b * cols + c],
                      static_cast<std::int8_t>(lround_level(x.at(b, c), grid)))
                << bits << "-bit, width " << cols << ", row " << b
                << ", col " << c << ", x " << x.at(b, c);
            ASSERT_EQ(bits_of(raw[b * cols + c]),
                      bits_of(lround_value(x.at(b, c), grid)))
                << bits << "-bit, width " << cols << ", row " << b
                << ", col " << c << ", x " << x.at(b, c);
          }
        }
      }
    }
  }
}

TEST(QuantizeKernels, ScalarRuleMatchesLround) {
  // round_half_away is what SymmetricQuantizer::to_level and the kernels'
  // remainders use; NaN lands on 0 by definition.
  for (const int bits : {4, 6, 8}) {
    const SymmetricQuantizer grid(bits, 1.0);
    std::vector<double> probes = in_range_probes(grid);
    for (const double v : out_of_range_probes()) {
      probes.push_back(v);
    }
    for (const double v : probes) {
      EXPECT_EQ(grid.to_level(v), lround_level(v, grid)) << v;
    }
  }
  EXPECT_EQ(round_half_away(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(round_half_away(-2.5), -3);
  EXPECT_EQ(round_half_away(2.5), 3);
  EXPECT_EQ(round_half_away(std::nextafter(0.5, 0.0)), 0);
}

TEST(QuantizeKernels, Rank1ShapeMismatchThrows) {
  Matrix w(2, 3);
  const SymmetricQuantizer grid(8, 1.0);
  EXPECT_THROW((void)rank1_update_levels(w, Vector(3), Vector(3), 0.1, grid),
               Error);
  EXPECT_THROW((void)rank1_update_levels(w, Vector(2), Vector(2), 0.1, grid),
               Error);
}

TEST(VectorOps, HadamardInto) {
  Vector out{2.0, 0.5, 0.0};
  hadamard_into({1.0, -2.0, 3.0}, out);
  EXPECT_EQ(out, (Vector{2.0, -1.0, 0.0}));
  Vector bad{1.0};
  EXPECT_THROW(hadamard_into({1.0, 2.0}, bad), Error);
}

TEST(VectorOps, Hadamard) {
  const Vector h = hadamard({1.0, -2.0, 3.0}, {2.0, 0.5, 0.0});
  EXPECT_EQ(h, (Vector{2.0, -1.0, 0.0}));
  EXPECT_THROW((void)hadamard({1.0}, {1.0, 2.0}), Error);
}

TEST(VectorOps, Dot) {
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0}, {3.0, -1.0}), 1.0);
  EXPECT_THROW((void)dot({1.0}, {1.0, 2.0}), Error);
}

TEST(VectorOps, ArgmaxFirstTieWins) {
  EXPECT_EQ(argmax({0.1, 0.9, 0.9, 0.2}), 1u);
  EXPECT_EQ(argmax({-1.0}), 0u);
  EXPECT_THROW((void)argmax({}), Error);
}

}  // namespace
}  // namespace trident::nn
