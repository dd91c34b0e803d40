// Dense matrix / vector math for the functional neural-network simulation.
//
// The functional side of this project (in-situ training, quantization
// studies) works on small dense layers, so a simple row-major matrix with
// explicit loops is all that is needed; the heavy analytical sweeps use the
// layer *descriptors* in layer.hpp instead and never materialise tensors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/quantize.hpp"
#include "common/rng.hpp"

namespace trident::nn {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    TRIDENT_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    TRIDENT_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    TRIDENT_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) {
    TRIDENT_ASSERT(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    TRIDENT_ASSERT(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::vector<double>& data() { return data_; }
  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  /// Re-shapes to (rows × cols) in place, discarding the contents.  The
  /// backing vector only grows — shrinking and re-growing within the
  /// high-water mark never reallocates, which is what lets a PlanArena
  /// (nn/plan.hpp) reuse one Matrix across layers of different widths with
  /// zero steady-state allocation.
  void reshape(std::size_t rows, std::size_t cols) {
    TRIDENT_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// y = W x
  [[nodiscard]] Vector matvec(const Vector& x) const;
  /// y = Wᵀ x
  [[nodiscard]] Vector matvec_transposed(const Vector& x) const;
  /// In-place y = W x (y is resized; no allocation when already sized).
  void matvec_into(const Vector& x, Vector& y) const;
  /// In-place y = Wᵀ x.
  void matvec_transposed_into(const Vector& x, Vector& y) const;
  /// W += scale · a bᵀ  (rank-1 update; the backprop outer product).
  void add_outer(const Vector& a, const Vector& b, double scale);

  // --- batched (GEMM) kernels --------------------------------------------
  //
  // A batch is a Matrix whose ROWS are samples.  The kernels are cache
  // blocked (samples are packed into column-major panels so the weight row
  // is loaded once per panel instead of once per sample) and dispatched
  // over the thread pool, but each sample's accumulation runs in the same
  // strict column order as the per-sample kernel — so every output row is
  // bit-identical to the corresponding matvec call.

  /// Y = X Wᵀ: x is (batch × cols); returns (batch × rows), row b equal to
  /// matvec(x.row(b)) bit-for-bit.
  [[nodiscard]] Matrix matmul(const Matrix& x) const;
  /// In-place variant; y must be (x.rows() × rows()).
  void matmul_into(const Matrix& x, Matrix& y) const;

  /// Y = X W: x is (batch × rows); returns (batch × cols), row b equal to
  /// matvec_transposed(x.row(b)) bit-for-bit.
  [[nodiscard]] Matrix matmul_transposed(const Matrix& x) const;
  /// In-place variant; y must be (x.rows() × cols()).
  void matmul_transposed_into(const Matrix& x, Matrix& y) const;

  /// W += scale · Σ_b a.row(b) ⊗ b.row(b): the accumulated outer product of
  /// a batch (a is batch × rows, b is batch × cols).  Per element, samples
  /// accumulate in batch order — bit-identical to sequential add_outer
  /// calls.
  void add_outer_batch(const Matrix& a, const Matrix& b, double scale);

  [[nodiscard]] Matrix transposed() const;

  /// Xavier/Glorot-uniform initialisation.
  static Matrix xavier(std::size_t rows, std::size_t cols, Rng& rng);

  /// Max |element|.
  [[nodiscard]] double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// The weight bank's contents, packed for streaming: the GST level of
/// every weight on a grid of at most 8 bits, one byte per cell — the
/// software analogue of weights that stay in the bank while inputs stream
/// past.  Rows are interleaved in groups of 8 across the columns: block
/// (g, c) holds the levels of column c of rows 8g..8g+7 in 8 bytes, and a
/// final partial group is padded with level 0.  Both tiers stream the same
/// panel: matmul_into decodes level · step (SymmetricQuantizer::from_level)
/// in registers for the photonic tier, and int8_gemm (nn/int8_gemm.hpp)
/// multiplies the levels exactly for the quantized tier.
class PackedPanel {
 public:
  PackedPanel() = default;
  /// Packs level(w) on `grid` (bits ≤ 8); weights outside ±grid.range()
  /// saturate and NaN lands on level 0, as SymmetricQuantizer::to_level.
  PackedPanel(const Matrix& w, const SymmetricQuantizer& grid);

  /// Re-packs in place.  The storage only grows, so a per-call panel that
  /// is re-packed within its high-water size never allocates.
  void pack(const Matrix& w, const SymmetricQuantizer& grid);

  /// Rows per group, and so levels per block.
  static constexpr std::size_t kGroupRows = 8;

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  /// The grid's step: level l decodes to l · step().
  [[nodiscard]] double step() const { return step_; }
  /// Block (g, c) starts at levels()[(g · cols() + c) · kGroupRows].
  [[nodiscard]] const std::int8_t* levels() const { return levels_.data(); }
  /// Row r's level in column c is row(r)[c · kGroupRows].
  [[nodiscard]] const std::int8_t* row(std::size_t r) const {
    return levels_.data() + r / kGroupRows * cols_ * kGroupRows +
           r % kGroupRows;
  }

  /// Y = X·Qᵀ, Q = level · step the decoded weights: x is (batch × cols),
  /// y must be (x.rows() × rows()).  Row b is bit-identical to
  /// Q.matvec(x.row(b)) on every ISA tier: each (row, sample) output is one
  /// chain accumulated in strict column order with a separate multiply and
  /// add.
  void matmul_into(const Matrix& x, Matrix& y) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  double step_ = 0.0;
  /// Blocks of 8 levels, group-major then column.
  std::vector<std::int8_t> levels_;
};

// --- quantization kernels ---------------------------------------------------
//
// All run on the GEMMs' ISA tiers and round with round_half_away
// (common/quantize.hpp) lane by lane, so every result is bit-identical to
// SymmetricQuantizer's scalar rounding of the same element, including
// NaN → level 0 and ±Inf saturating.

/// The in-situ GST update (Eqs. 1–2): w ← level(w − (lr·dh[r])·y[c]) on
/// `grid`, clamped to ±grid.range() first.  A cell whose level did not
/// move keeps its stored bits (a stored −0.0 stays −0.0).  Returns the
/// number of cells that changed — the write pulses the bank fires.
[[nodiscard]] std::uint64_t rank1_update_levels(Matrix& w, const Vector& dh,
                                                const Vector& y, double lr,
                                                const SymmetricQuantizer& grid);

/// level(x[i]) on `grid` (at most 8 bits) for n elements, as int8 level
/// indices.
void to_levels(const double* x, std::size_t n, const SymmetricQuantizer& grid,
               std::int8_t* levels);

/// q[i] = level(x[i]) · step on `grid` (any width): the value a cell
/// programmed with x[i] holds, SymmetricQuantizer::quantize per element.
void snap_to_grid(const double* x, std::size_t n,
                  const SymmetricQuantizer& grid, double* q);

/// The modulator DAC over a row-major (batch × cols) block: scale[b] =
/// max(1, max|x_b|) (a NaN element never wins), then q = level(x / scale[b])
/// on `grid` — as doubles (the photonic tier) or as int8 level indices (the
/// fast tier; `grid` must have at most 8 bits).
void dac_quantize(const double* x, std::size_t batch, std::size_t cols,
                  const SymmetricQuantizer& grid, double* scale, double* q);
void dac_quantize(const double* x, std::size_t batch, std::size_t cols,
                  const SymmetricQuantizer& grid, double* scale,
                  std::int8_t* levels);

/// Element-wise (Hadamard) product.
[[nodiscard]] Vector hadamard(const Vector& a, const Vector& b);

/// In-place Hadamard product: out[i] *= a[i].
void hadamard_into(const Vector& a, Vector& out);

/// Dot product.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

/// Index of the maximum element (argmax); ties resolve to the first.
[[nodiscard]] std::size_t argmax(const Vector& v);

}  // namespace trident::nn
