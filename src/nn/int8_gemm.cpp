#include "nn/int8_gemm.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::nn {

// Same multiversioning gate as the double kernels (src/nn/matrix.cpp): GCC
// ifunc dispatch over AVX-512/AVX2/baseline, disabled under TSan (resolver
// runs before the interceptors) and under TRIDENT_NO_KERNEL_CLONES (the
// -DTRIDENT_SIMD=OFF fallback build).  Integer arithmetic is associative,
// so unlike the FP kernels the clones are trivially bit-identical.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(TRIDENT_NO_KERNEL_CLONES)
#define TRIDENT_INT8_KERNEL_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define TRIDENT_INT8_KERNEL_CLONES
#endif

// 16-lane int32 vector: one zmm on AVX-512, two ymm on AVX2, four xmm on
// baseline.  Each lane is one sample's accumulator chain.
#if defined(__GNUC__) || defined(__clang__)
#define TRIDENT_HAVE_INT_VECTOR_EXT 1
using v16si = std::int32_t __attribute__((vector_size(64), aligned(64)));
#endif

// vpmaddwd tier (AVX-512BW): int8 levels widen to int16, and one
// multiply-add instruction folds a *pair* of columns into each int32 lane —
// |w·x| ≤ 127², so the adjacent-pair sum ≤ 2·127² fits int16×int16→int32
// exactly and the kernel stays bit-identical to every other tier.  This
// needs real intrinsics (no vector-extension spelling of vpmaddwd), so it
// is a separate runtime-dispatched function rather than a target_clones
// member.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(TRIDENT_NO_KERNEL_CLONES)
#define TRIDENT_INT8_MADD 1
#include <immintrin.h>
#endif

namespace {

/// Samples per wide panel: 32 chains (two 16-lane vectors in flight) hide
/// the vpmulld latency the same way the double path's 16 chains hide the
/// FP-add latency.
constexpr std::size_t kBatchBlock = 32;
/// Half-width panel for mid-sized tails (16 ≤ tail < 32 samples).
constexpr std::size_t kBatchBlockSmall = 16;
/// Fan-in block: a kColBlock × kBatchBlock int32 panel is 32 KiB — the
/// same L1 budget as the double path's panel, at twice the samples.
constexpr std::size_t kColBlock = 256;

/// Grain for parallel_for: target roughly 256k multiply-adds per task
/// (mirrors grain_for in matrix.cpp).
[[nodiscard]] std::size_t grain_for(std::size_t ops_per_index) {
  constexpr std::size_t kTargetOps = 262144;
  return std::max<std::size_t>(
      1, kTargetOps / std::max<std::size_t>(1, ops_per_index));
}

/// Row r's level in column c of the panel is w.row(r)[c · kStride].
constexpr std::size_t kStride = PackedPanel::kGroupRows;

/// Computes output rows [b0, b0+MB) of y = x·Wᵀ.  The panel pre-widens the
/// int8 sample levels to int32 once per column block, so the inner loop is
/// a stride-1 broadcast-multiply-add over MB independent int32 chains.
template <std::size_t MB>
[[gnu::always_inline]] inline void int8_panel(const PackedPanel& w,
                                              const std::int8_t* x,
                                              std::int32_t* y,
                                              std::size_t b0) {
  const std::size_t rows = w.rows();
  const std::size_t cols = w.cols();
#ifdef TRIDENT_HAVE_INT_VECTOR_EXT
  static_assert(MB % 16 == 0);
  constexpr std::size_t kNV = MB / 16;
  v16si panel[kColBlock * kNV];
  std::int32_t* const pd = reinterpret_cast<std::int32_t*>(panel);
  for (std::size_t c0 = 0; c0 < cols; c0 += kColBlock) {
    const std::size_t kc = std::min(kColBlock, cols - c0);
    for (std::size_t m = 0; m < MB; ++m) {
      const std::int8_t* xr = x + (b0 + m) * cols + c0;
      for (std::size_t c = 0; c < kc; ++c) {
        pd[c * MB + m] = static_cast<std::int32_t>(xr[c]);
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const std::int8_t* wr = w.row(r) + c0 * kStride;
      alignas(64) std::int32_t lanes[MB];
      for (std::size_t m = 0; m < MB; ++m) {
        lanes[m] = y[(b0 + m) * rows + r];
      }
      v16si acc[kNV];
      __builtin_memcpy(acc, lanes, sizeof(lanes));
      for (std::size_t c = 0; c < kc; ++c) {
        const std::int32_t wc = static_cast<std::int32_t>(wr[c * kStride]);
        const v16si* px = panel + c * kNV;
        for (std::size_t v = 0; v < kNV; ++v) {
          acc[v] += wc * px[v];
        }
      }
      __builtin_memcpy(lanes, acc, sizeof(lanes));
      for (std::size_t m = 0; m < MB; ++m) {
        y[(b0 + m) * rows + r] = lanes[m];
      }
    }
  }
#else
  std::int32_t panel[kColBlock * MB];
  for (std::size_t c0 = 0; c0 < cols; c0 += kColBlock) {
    const std::size_t kc = std::min(kColBlock, cols - c0);
    for (std::size_t m = 0; m < MB; ++m) {
      const std::int8_t* xr = x + (b0 + m) * cols + c0;
      for (std::size_t c = 0; c < kc; ++c) {
        panel[c * MB + m] = static_cast<std::int32_t>(xr[c]);
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const std::int8_t* wr = w.row(r) + c0 * kStride;
      std::int32_t acc[MB];
      for (std::size_t m = 0; m < MB; ++m) {
        acc[m] = y[(b0 + m) * rows + r];
      }
      for (std::size_t c = 0; c < kc; ++c) {
        const std::int32_t wc = static_cast<std::int32_t>(wr[c * kStride]);
        const std::int32_t* px = panel + c * MB;
        for (std::size_t m = 0; m < MB; ++m) {
          acc[m] += wc * px[m];
        }
      }
      for (std::size_t m = 0; m < MB; ++m) {
        y[(b0 + m) * rows + r] = acc[m];
      }
    }
  }
#endif
}

TRIDENT_INT8_KERNEL_CLONES
void int8_block_wide(const PackedPanel& w, const std::int8_t* x,
                     std::int32_t* y, std::size_t b0) {
  int8_panel<kBatchBlock>(w, x, y, b0);
}

TRIDENT_INT8_KERNEL_CLONES
void int8_block_small(const PackedPanel& w, const std::int8_t* x,
                      std::int32_t* y, std::size_t b0) {
  int8_panel<kBatchBlockSmall>(w, x, y, b0);
}

#ifdef TRIDENT_INT8_MADD
/// vpmaddwd block for mb ∈ {16, 32} samples: the x panel is widened to
/// int16 column *pairs* (odd trailing column zero-padded), so each inner
/// iteration retires 32 multiply-adds per zmm vector — double the vpmulld
/// tier's rate.  Accumulation is exact int32, identical to every other
/// tier by associativity.
__attribute__((target("avx512f,avx512bw"))) void int8_block_madd(
    const PackedPanel& w, const std::int8_t* x, std::int32_t* y,
    std::size_t b0, std::size_t mb) {
  const std::size_t rows = w.rows();
  const std::size_t cols = w.cols();
  const std::size_t nv = mb / 16;  // zmm vectors per column pair
  alignas(64) std::int16_t panel[kColBlock * kBatchBlock];
  for (std::size_t c0 = 0; c0 < cols; c0 += kColBlock) {
    const std::size_t kc = std::min(kColBlock, cols - c0);
    const std::size_t pairs = (kc + 1) / 2;
    for (std::size_t m = 0; m < mb; ++m) {
      const std::int8_t* xr = x + (b0 + m) * cols + c0;
      // Vector v holds samples [16v, 16v+16); lane i packs the int16 pair
      // (x[c], x[c+1]) of sample 16v+i.
      std::int16_t* pd = panel + (m / 16) * 32 + 2 * (m % 16);
      for (std::size_t p = 0; p < pairs; ++p) {
        const std::size_t c = 2 * p;
        pd[p * nv * 32] = static_cast<std::int16_t>(xr[c]);
        pd[p * nv * 32 + 1] =
            c + 1 < kc ? static_cast<std::int16_t>(xr[c + 1]) : std::int16_t{0};
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const std::int8_t* wr = w.row(r) + c0 * kStride;
      __m512i acc[2] = {_mm512_setzero_si512(), _mm512_setzero_si512()};
      for (std::size_t p = 0; p < pairs; ++p) {
        const std::size_t c = 2 * p;
        const auto w0 = static_cast<std::uint32_t>(static_cast<std::uint16_t>(
            static_cast<std::int16_t>(wr[c * kStride])));
        const std::uint32_t w1 =
            c + 1 < kc ? static_cast<std::uint32_t>(static_cast<std::uint16_t>(
                             static_cast<std::int16_t>(wr[(c + 1) * kStride])))
                       : 0u;
        const __m512i wv =
            _mm512_set1_epi32(static_cast<int>(w0 | (w1 << 16)));
        for (std::size_t v = 0; v < nv; ++v) {
          const __m512i xv = _mm512_load_si512(
              reinterpret_cast<const void*>(panel + (p * nv + v) * 32));
          acc[v] = _mm512_add_epi32(acc[v], _mm512_madd_epi16(wv, xv));
        }
      }
      alignas(64) std::int32_t lanes[kBatchBlock];
      for (std::size_t v = 0; v < nv; ++v) {
        _mm512_store_si512(reinterpret_cast<void*>(lanes + v * 16), acc[v]);
      }
      for (std::size_t m = 0; m < mb; ++m) {
        y[(b0 + m) * rows + r] += lanes[m];
      }
    }
  }
}

[[nodiscard]] bool int8_madd_supported() {
  static const bool supported = __builtin_cpu_supports("avx512bw") != 0;
  return supported;
}
#endif

/// Samples [b0, b0+n) one at a time, a row group at a time: a group's
/// levels of one column are kStride contiguous bytes, so its rows' exact
/// int32 chains run side by side in one vector.
TRIDENT_INT8_KERNEL_CLONES
void int8_samples(const PackedPanel& w, const std::int8_t* x, std::int32_t* y,
                  std::size_t b0, std::size_t n) {
  const std::size_t rows = w.rows();
  const std::size_t cols = w.cols();
  for (std::size_t b = b0; b < b0 + n; ++b) {
    const std::int8_t* xr = x + b * cols;
    std::int32_t* yr = y + b * rows;
    for (std::size_t r0 = 0; r0 < rows; r0 += kStride) {
      const std::int8_t* group = w.row(r0);
      std::int32_t acc[kStride] = {};
      for (std::size_t c = 0; c < cols; ++c) {
        const auto xc = static_cast<std::int32_t>(xr[c]);
        for (std::size_t i = 0; i < kStride; ++i) {
          acc[i] += static_cast<std::int32_t>(group[c * kStride + i]) * xc;
        }
      }
      for (std::size_t i = 0; i < kStride && r0 + i < rows; ++i) {
        yr[r0 + i] = acc[i];
      }
    }
  }
}

/// Transposed block: each sample owns its output row (no cross-column
/// chain), so the column loop auto-vectorises at full width per clone.
TRIDENT_INT8_KERNEL_CLONES
void int8_transposed_block(const std::int8_t* w, std::size_t rows,
                           std::size_t cols, const std::int8_t* x,
                           std::int32_t* y, std::size_t b0, std::size_t mb) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int8_t* wr = w + r * cols;
    for (std::size_t m = 0; m < mb; ++m) {
      const std::int32_t xr =
          static_cast<std::int32_t>(x[(b0 + m) * rows + r]);
      std::int32_t* yr = y + (b0 + m) * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        yr[c] += static_cast<std::int32_t>(wr[c]) * xr;
      }
    }
  }
}

/// Per-ISA metrics for the int8 path: the dispatch counter and the timing
/// histograms are suffixed with the resolved clone, so a snapshot records
/// which ISA produced the kernel times (the registry has no labels).
struct Int8GemmMetrics {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& dispatch = reg.counter(
      std::string("trident_int8_gemm_dispatch_") + int8_kernel_isa() +
          "_total",
      "int8 GEMM calls dispatched to this machine's best kernel clone");
  telemetry::Counter& matmul_calls = reg.counter(
      "trident_int8_gemm_matmul_total", "blocked int8 y = x*W^T calls");
  telemetry::Counter& matmul_transposed_calls =
      reg.counter("trident_int8_gemm_matmul_transposed_total",
                  "blocked int8 y = x*W calls");
  telemetry::Histogram& matmul_seconds = reg.histogram(
      std::string("trident_int8_gemm_matmul_seconds_") + int8_kernel_isa(),
      telemetry::duration_buckets_seconds(),
      "wall time of one blocked int8_gemm call on the resolved ISA");
  telemetry::Histogram& matmul_transposed_seconds = reg.histogram(
      std::string("trident_int8_gemm_matmul_transposed_seconds_") +
          int8_kernel_isa(),
      telemetry::duration_buckets_seconds(),
      "wall time of one blocked int8_gemm_transposed call on the resolved "
      "ISA");
};

[[nodiscard]] Int8GemmMetrics& int8_metrics() {
  static Int8GemmMetrics m;
  return m;
}

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const char* int8_kernel_isa() {
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(TRIDENT_NO_KERNEL_CLONES)
  if (__builtin_cpu_supports("avx512bw")) {
    return "avx512bw";  // vpmaddwd pair-multiply tier
  }
  if (__builtin_cpu_supports("avx512f")) {
    return "avx512f";
  }
  if (__builtin_cpu_supports("avx2")) {
    return "avx2";
  }
#endif
  return "baseline";
}

void int8_gemm(const PackedPanel& w, const std::int8_t* x, std::size_t batch,
               std::int32_t* y) {
  const std::size_t rows = w.rows();
  const std::size_t cols = w.cols();
  TRIDENT_REQUIRE(cols <= kInt8GemmMaxCols,
                  "int8_gemm fan-in exceeds int32 overflow headroom");
  const bool telem = telemetry::enabled();
  std::chrono::steady_clock::time_point t0;
  if (telem) {
    t0 = std::chrono::steady_clock::now();
  }
  std::fill(y, y + batch * rows, 0);
#ifdef TRIDENT_INT8_MADD
  const bool madd = int8_madd_supported();
#endif
  const std::size_t full_blocks = batch / kBatchBlock;
  parallel_for(
      0, full_blocks,
      [&](std::size_t blk) {
#ifdef TRIDENT_INT8_MADD
        if (madd) {
          int8_block_madd(w, x, y, blk * kBatchBlock, kBatchBlock);
          return;
        }
#endif
        int8_block_wide(w, x, y, blk * kBatchBlock);
      },
      grain_for(rows * cols * kBatchBlock));

  std::size_t b = full_blocks * kBatchBlock;
  if (batch - b >= kBatchBlockSmall) {
#ifdef TRIDENT_INT8_MADD
    if (madd) {
      int8_block_madd(w, x, y, b, kBatchBlockSmall);
    } else {
      int8_block_small(w, x, y, b);
    }
#else
    int8_block_small(w, x, y, b);
#endif
    b += kBatchBlockSmall;
  }
#ifdef TRIDENT_INT8_MADD
  // Mid-size tails (serving micro-batches sit here): zero-pad up to one
  // small panel and run the vpmaddwd block anyway — the discarded lanes
  // cost less than a scalar loop from ~4 samples up, and int32 exactness
  // makes the padded path bit-identical to the scalar one.
  if (madd && batch - b >= 4) {
    const std::size_t tail = batch - b;
    // Grow-only padding buffers owned by the calling thread, so the
    // serving batches that land here allocate only on their first call.
    thread_local std::vector<std::int8_t> xp;
    thread_local std::vector<std::int32_t> yp;
    if (xp.size() < kBatchBlockSmall * cols) {
      xp.resize(kBatchBlockSmall * cols);
    }
    if (yp.size() < kBatchBlockSmall * rows) {
      yp.resize(kBatchBlockSmall * rows);
    }
    const auto pad = xp.begin() + static_cast<std::ptrdiff_t>(tail * cols);
    std::copy(x + b * cols, x + batch * cols, xp.begin());
    std::fill(pad, pad + static_cast<std::ptrdiff_t>(
                             (kBatchBlockSmall - tail) * cols), 0);
    std::fill(yp.begin(),
              yp.begin() + static_cast<std::ptrdiff_t>(kBatchBlockSmall * rows),
              0);
    int8_block_madd(w, xp.data(), yp.data(), 0, kBatchBlockSmall);
    std::copy(yp.begin(),
              yp.begin() + static_cast<std::ptrdiff_t>(tail * rows),
              y + b * rows);
    b = batch;
  }
#endif
  if (b < batch) {
    int8_samples(w, x, y, b, batch - b);
  }
  if (telem) {
    Int8GemmMetrics& m = int8_metrics();
    m.dispatch.add(1);
    m.matmul_calls.add(1);
    m.matmul_seconds.observe(seconds_since(t0));
  }
}

void int8_gemm_transposed(const std::int8_t* w, std::size_t rows,
                          std::size_t cols, const std::int8_t* x,
                          std::size_t batch, std::int32_t* y) {
  TRIDENT_REQUIRE(rows <= kInt8GemmMaxCols,
                  "int8_gemm_transposed fan-in exceeds int32 overflow "
                  "headroom");
  const bool telem = telemetry::enabled();
  std::chrono::steady_clock::time_point t0;
  if (telem) {
    t0 = std::chrono::steady_clock::now();
  }
  std::fill(y, y + batch * cols, 0);
  const std::size_t blocks = (batch + kBatchBlock - 1) / kBatchBlock;
  parallel_for(
      0, blocks,
      [&](std::size_t blk) {
        const std::size_t b0 = blk * kBatchBlock;
        int8_transposed_block(w, rows, cols, x, y, b0,
                              std::min(kBatchBlock, batch - b0));
      },
      grain_for(rows * cols * kBatchBlock));
  if (telem) {
    Int8GemmMetrics& m = int8_metrics();
    m.dispatch.add(1);
    m.matmul_transposed_calls.add(1);
    m.matmul_transposed_seconds.observe(seconds_since(t0));
  }
}

}  // namespace trident::nn
