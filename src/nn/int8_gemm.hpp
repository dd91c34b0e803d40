// Integer GEMM kernels for the quantized inference tier.
//
// The photonic hardware computes with 8-bit quantities by construction:
// GST cells store one of 255 transmission levels, the modulator DAC emits
// 8-bit symbols.  The quantized tier exploits that directly — weights and
// inputs travel as signed level indices (int8, in [-127, 127]) and the
// GEMM accumulates in int32, which is EXACT: |w·x| ≤ 127² = 16129 per
// term, so any fan-in below ~133k columns fits int32 without overflow and
// integer addition is associative.  Unlike the double kernels there is no
// lane-order subtlety — every blocking strategy produces bit-identical
// accumulators, which is what makes B=1 vs batched bit-identity trivial
// for this tier.
//
// The kernels mirror the PR-1 double GEMM in src/nn/matrix.cpp: samples
// pack into column-major panels (pre-widened to int32 so the inner loop is
// a pure vector multiply-add), `target_clones` multiversioning picks
// AVX-512/AVX2/baseline at load time, and blocks dispatch over the shared
// thread pool.
#pragma once

#include <cstddef>
#include <cstdint>

#include "nn/matrix.hpp"

namespace trident::nn {

/// y[b·rows + r] = Σ_c L(r, c) · x[b·cols + c], int32 accumulation, where
/// L is the level panel `w` (the 8-row-group layout the photonic tier
/// streams too), `x` a row-major (batch × w.cols()) level block and `y` a
/// row-major (batch × w.rows()) output.  Requires w.cols() ≤
/// kInt8GemmMaxCols (int32 overflow headroom).
void int8_gemm(const PackedPanel& w, const std::int8_t* x, std::size_t batch,
               std::int32_t* y);

/// Transposed variant over a row-major (rows × cols) level matrix `w`, as
/// nn::to_levels writes it: y[b·cols + c] = Σ_r w[r·cols + c] · x[b·rows +
/// r] (`x` is batch × rows, `y` is batch × cols).  Requires rows ≤
/// kInt8GemmMaxCols — the fan-in runs over rows here.
void int8_gemm_transposed(const std::int8_t* w, std::size_t rows,
                          std::size_t cols, const std::int8_t* x,
                          std::size_t batch, std::int32_t* y);

/// Largest fan-in the int32 accumulator provably absorbs:
/// floor((2³¹ − 1) / 127²).
inline constexpr std::size_t kInt8GemmMaxCols = 133152;

/// ISA tier the int8 kernels resolve to on this machine ("avx512bw" —
/// the vpmaddwd pair-multiply tier — "avx512f", "avx2" or "baseline");
/// same resolver logic as the double kernels plus the BW check.
[[nodiscard]] const char* int8_kernel_isa();

}  // namespace trident::nn
