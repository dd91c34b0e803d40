#include "nn/matrix.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace trident::nn {

// The batched kernels run on three ISA tiers: AVX-512, AVX2, and the
// baseline this file is compiled for (SSE2 unless -march says more).  Each
// tier is a separate function compiled with target(...) and picked once at
// run time by __builtin_cpu_supports, so one binary runs everywhere but
// uses the wide units where they exist.  Every tier works in its own
// register width: GCC keeps a vector wider than the target's registers on
// the stack and moves it through halves on every iteration, which is
// slower than the scalar loop.  Together with
// -ffp-contract=off (set project-wide by CMake) every tier performs the
// identical sequence of IEEE multiplies and adds — vector width changes
// which lanes run together, never what any one accumulation chain computes.
// The chain-free kernels (transposed GEMM, outer-product update) vectorise
// on their own and keep GCC/Clang function multiversioning instead.
// ThreadSanitizer runs its interceptors before the dynamic loader resolves
// ifuncs; the target_clones resolver then faults inside libtsan.  Sanitized
// builds therefore compile the baseline kernel only — the maths is identical
// (see above), only the vector width changes.
// TRIDENT_NO_KERNEL_CLONES (the -DTRIDENT_SIMD=OFF build) additionally
// forces the baseline-only fallback so CI can prove the maths does not
// depend on the wide tiers.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(TRIDENT_NO_KERNEL_CLONES)
#define TRIDENT_KERNEL_TIERS 1
#define TRIDENT_KERNEL_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define TRIDENT_KERNEL_CLONES
#endif

namespace {

// GNU vector extension: each lane is an independent multiply-then-add
// chain, so lowering the width never changes any lane's result.
using v8df = double __attribute__((vector_size(64)));
using v4df = double __attribute__((vector_size(32)));
using v2df = double __attribute__((vector_size(16)));

template <class V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

// The baseline tier takes the widest vector this file's own flags provide,
// so a -march build keeps its full width with the runtime tiers off.
#if defined(__AVX512F__)
using vbase = v8df;
constexpr std::size_t kBaseRegs = 32;
#elif defined(__AVX__)
using vbase = v4df;
constexpr std::size_t kBaseRegs = 16;
#else
using vbase = v2df;
constexpr std::size_t kBaseRegs = 16;
#endif

enum class Tier { kBaseline, kAvx2, kAvx512 };

/// ISA tier this machine runs.  GCC's ifunc resolver (the target_clones
/// kernels) and __builtin_cpu_supports consult the same CPUID feature
/// words, so every kernel of one process runs on the same tier.
[[nodiscard]] Tier kernel_tier() {
#ifdef TRIDENT_KERNEL_TIERS
  static const Tier tier = __builtin_cpu_supports("avx512f") ? Tier::kAvx512
                           : __builtin_cpu_supports("avx2")  ? Tier::kAvx2
                                                             : Tier::kBaseline;
  return tier;
#else
  return Tier::kBaseline;
#endif
}

[[nodiscard]] const char* kernel_isa() {
  switch (kernel_tier()) {
    case Tier::kAvx512:
      return "avx512f";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kBaseline:
      break;
  }
  return "baseline";
}

/// Runs Kernel::run<V, R>(args...) on this machine's tier, V its vector
/// type and R its vector register count, and returns its result.
/// Kernel::run is always_inline, so its body is compiled at the ISA of the
/// tier function it lands in.
#ifdef TRIDENT_KERNEL_TIERS
template <class Kernel, class... Args>
__attribute__((target("avx512f"))) auto run_avx512(Args... args) {
  return Kernel::template run<v8df, 32>(args...);
}
template <class Kernel, class... Args>
__attribute__((target("avx2"))) auto run_avx2(Args... args) {
  return Kernel::template run<v4df, 16>(args...);
}
#endif

template <class Kernel, class... Args>
auto run_on_tier(Args... args) {
#ifdef TRIDENT_KERNEL_TIERS
  switch (kernel_tier()) {
    case Tier::kAvx512:
      return run_avx512<Kernel>(args...);
    case Tier::kAvx2:
      return run_avx2<Kernel>(args...);
    case Tier::kBaseline:
      break;
  }
#endif
  return Kernel::template run<vbase, kBaseRegs>(args...);
}

/// Samples per wide microkernel panel: one independent accumulation chain
/// per sample lets the compiler vectorise across the batch without
/// reassociating any single sample's sum (strict FP semantics).  16 chains
/// fill the FP-add pipeline (two 8-wide vectors in flight) on AVX-512.
constexpr std::size_t kBatchBlock = 16;
/// Half-width panel for mid-sized tails (8 ≤ tail < 16 samples).
constexpr std::size_t kBatchBlockSmall = 8;
/// Fan-in block: a kColBlock × kBatchBlock panel is 32 KiB — stays in L1
/// while every weight row of the block streams over it.
constexpr std::size_t kColBlock = 256;
/// Multiply-adds per dispatched parallel_for task: below this a call runs
/// inline.
constexpr std::size_t kGrainMacs = 262144;

/// Grain for parallel_for so tiny batched calls run inline: target roughly
/// kGrainMacs multiply-adds per dispatched task.
[[nodiscard]] std::size_t grain_for(std::size_t flops_per_index) {
  return std::max<std::size_t>(
      1, kGrainMacs / std::max<std::size_t>(1, flops_per_index));
}

/// Computes output rows [b0, b0+MB) of y = x·Wᵀ.  Samples are packed into a
/// column-major panel so the inner loop is a stride-1 multiply-add across
/// the MB independent chains; each sample still accumulates in strict
/// column order.  Explicit vectors keep the compiler from vectorising the
/// fan-in loop instead (which would need in-order reductions and serialise
/// every add).  Each lane is one sample's chain, accumulated in strict
/// column order — exactly the scalar kernel's arithmetic.
template <std::size_t MB>
struct MatmulPanel {
  template <class V, std::size_t R>
  [[gnu::always_inline]] static void run(const double* wdata,
                                         std::size_t rows, std::size_t cols,
                                         const double* xdata, double* ydata,
                                         std::size_t b0) {
    constexpr std::size_t kNV = MB / kLanes<V>;
    static_assert(kNV + 2 <= R, "accumulators must stay in registers");
    V panel[kColBlock * kNV];
    double* const pd = reinterpret_cast<double*>(panel);
    for (std::size_t c0 = 0; c0 < cols; c0 += kColBlock) {
      const std::size_t kc = std::min(kColBlock, cols - c0);
      for (std::size_t m = 0; m < MB; ++m) {
        const double* xr = xdata + (b0 + m) * cols + c0;
        for (std::size_t c = 0; c < kc; ++c) {
          pd[c * MB + m] = xr[c];
        }
      }
      for (std::size_t r = 0; r < rows; ++r) {
        const double* w = wdata + r * cols + c0;
        alignas(64) double lanes[MB];
        for (std::size_t m = 0; m < MB; ++m) {
          lanes[m] = ydata[(b0 + m) * rows + r];
        }
        V acc[kNV];
        __builtin_memcpy(acc, lanes, sizeof(lanes));
        for (std::size_t c = 0; c < kc; ++c) {
          const double wc = w[c];
          const V* px = panel + c * kNV;
          for (std::size_t v = 0; v < kNV; ++v) {
            acc[v] += wc * px[v];
          }
        }
        __builtin_memcpy(lanes, acc, sizeof(lanes));
        for (std::size_t m = 0; m < MB; ++m) {
          ydata[(b0 + m) * rows + r] = lanes[m];
        }
      }
    }
  }
};

/// int32 and int8 vectors with V's lane count.  (GCC drops a vector_size
/// attribute on a dependent alias template, but keeps it on a member
/// typedef.)
template <class V>
struct LaneInts {
  typedef std::int32_t i32 __attribute__((vector_size(sizeof(V) / 2)));
  typedef std::int8_t i8 __attribute__((vector_size(sizeof(V) / 8)));
  typedef std::uint64_t u64 __attribute__((vector_size(sizeof(V))));
};

// --- packed-panel kernel ----------------------------------------------------
//
// A tile is RP row groups (8 rows each) × NB samples: RP·(8/lanes)·NB
// vector accumulators, each lane one (row, sample) chain.  Per column the
// tile loads RP blocks of 8 levels, decodes each to level · step —
// from_level's expression, so the value the bank holds — and broadcasts NB
// input values: every weight decoded feeds NB chains and every input value
// feeds 8·RP.  On AVX-512 that is 3 groups × 8 samples for full blocks,
// and up to 8 groups for the narrow remainders serving batches mostly are.

/// Row groups per tile for NB samples on a tier with `regs` vector
/// registers: the most (up to 8) whose accumulators, RP·vg weight vectors
/// and two temporaries fit the register file.  The weights stay live across
/// the sample loop and each broadcast is used at once; a tile that
/// overflows spills accumulators through the stack on every column.  0
/// means no such tile.
constexpr std::size_t tile_groups(std::size_t vg, std::size_t regs,
                                  std::size_t nb) {
  std::size_t best = 0;
  for (std::size_t rp = 1; rp <= 8; ++rp) {
    if (rp * vg * (nb + 1) + 2 <= regs) {
      best = rp;
    }
  }
  return best;
}

/// Widest sample tile a tier supports below a full block (8 on AVX-512, 6
/// on AVX2, 2 on SSE2).
constexpr std::size_t max_tile_samples(std::size_t vg, std::size_t regs) {
  std::size_t best = 1;
  for (std::size_t nb = 1; nb <= 8; ++nb) {
    if (tile_groups(vg, regs, nb) > 0) {
      best = nb;
    }
  }
  return best;
}

constexpr std::size_t kGroupRows = PackedPanel::kGroupRows;

/// Decodes an 8-level block into V's lanes: level · step, bit for bit
/// SymmetricQuantizer::from_level.  Each lane shifts its byte out of the
/// broadcast block, lands level + 128 in the mantissa of 2⁵² (exact), and
/// subtracts 2⁵² + 128 (exact) — GCC lowers a vector int8 → double
/// conversion one lane at a time.
template <class V>
struct LevelDecoder {
  static constexpr std::size_t kL = kLanes<V>;
  static constexpr std::size_t kVG = kGroupRows / kL;
  using U = typename LaneInts<V>::u64;
  U shift[kVG] = {};  ///< vector v holds the block's bytes [v·kL, v·kL + kL)
  V step;

  explicit LevelDecoder(double grid_step) : step(V{} + grid_step) {
    for (std::size_t v = 0; v < kVG; ++v) {
      for (std::size_t l = 0; l < kL; ++l) {
        shift[v][l] = 8 * (v * kL + l);
      }
    }
  }

  /// out ← lanes [v·kL, v·kL + kL) of `block`.  In place, as GridLanes.
  [[gnu::always_inline]] void decode(const std::int8_t* block, std::size_t v,
                                     V& out) const {
    std::uint64_t bytes;
    __builtin_memcpy(&bytes, block, sizeof(bytes));
    const U b = (((U{} + bytes) >> shift[v]) & 0xFF) ^ 0x4330000000000080ULL;
    __builtin_memcpy(&out, &b, sizeof(V));
    out = (out - (0x1p52 + 128.0)) * step;
  }
};

/// Geometry every tile of one call shares.
struct PanelArgs {
  const std::int8_t* blocks;
  double step;
  std::size_t rows;
  std::size_t cols;
  const double* x;  ///< batch × cols, row-major
  double* y;        ///< batch × rows, row-major
};

/// y[b0 .. b0+NB) for row groups [g0, g0+RP): the register-blocked tile.
template <class V, std::size_t RP, std::size_t NB>
[[gnu::always_inline]] inline void packed_tile(const PanelArgs& a,
                                               std::size_t g0,
                                               std::size_t b0) {
  constexpr std::size_t kL = kLanes<V>;
  constexpr std::size_t kVG = kGroupRows / kL;  // vectors per row group
  const std::size_t cols = a.cols;
  const std::int8_t* const panel = a.blocks + g0 * cols * kGroupRows;
  const double* const x = a.x + b0 * cols;
  const LevelDecoder<V> levels(a.step);
  V acc[RP * kVG][NB] = {};  // +0.0, the start of matvec's chain
  for (std::size_t c = 0; c < cols; ++c) {
    V w[RP * kVG];
#pragma GCC unroll 32
    for (std::size_t i = 0; i < RP * kVG; ++i) {
      levels.decode(panel + (i / kVG * cols + c) * kGroupRows, i % kVG, w[i]);
    }
#pragma GCC unroll 8
    for (std::size_t s = 0; s < NB; ++s) {
      const double xs = x[s * cols + c];
#pragma GCC unroll 32
      for (std::size_t i = 0; i < RP * kVG; ++i) {
        acc[i][s] += w[i] * xs;
      }
    }
  }
  for (std::size_t p = 0; p < RP; ++p) {
    for (std::size_t v = 0; v < kVG; ++v) {
      const std::size_t r0 = (g0 + p) * kGroupRows + v * kL;
      for (std::size_t s = 0; s < NB; ++s) {
        double* yr = a.y + (b0 + s) * a.rows;
        if (r0 + kL <= a.rows) {
          __builtin_memcpy(yr + r0, &acc[p * kVG + v][s], sizeof(V));
        } else {
          for (std::size_t i = 0; r0 + i < a.rows; ++i) {
            yr[r0 + i] = acc[p * kVG + v][s][i];
          }
        }
      }
    }
  }
}

/// Row groups [g0, g1) for samples [b0, b0+NB): RP-group tiles, then the
/// leftover groups with halving tile heights.
template <class V, std::size_t RP, std::size_t NB>
[[gnu::always_inline]] inline void packed_sweep(const PanelArgs& a,
                                                std::size_t g0,
                                                std::size_t g1,
                                                std::size_t b0) {
  for (; g0 + RP <= g1; g0 += RP) {
    packed_tile<V, RP, NB>(a, g0, b0);
  }
  if constexpr (RP > 1) {
    packed_sweep<V, RP / 2, NB>(a, g0, g1, b0);
  }
}

/// Row groups [g0, g1) for samples [b0, b0+n), n ≤ kBatchBlock, in tiles of
/// the tier's widest sample count and one tile for the remainder.
struct PackedSamples {
  template <class V, std::size_t R>
  [[gnu::always_inline]] static void run(PanelArgs a, std::size_t g0,
                                         std::size_t g1, std::size_t b0,
                                         std::size_t n) {
    constexpr std::size_t kVG = kGroupRows / kLanes<V>;
    constexpr std::size_t kMaxNB = max_tile_samples(kVG, R);
    while (n > 0) {
      const std::size_t nb = std::min(n, kMaxNB);
      dispatch<V, R>(a, g0, g1, b0, nb, std::make_index_sequence<kMaxNB>{});
      b0 += nb;
      n -= nb;
    }
  }

  template <class V, std::size_t R, std::size_t... I>
  [[gnu::always_inline]] static void dispatch(const PanelArgs& a,
                                              std::size_t g0, std::size_t g1,
                                              std::size_t b0, std::size_t nb,
                                              std::index_sequence<I...>) {
    constexpr std::size_t kVG = kGroupRows / kLanes<V>;
    ((nb == I + 1
          ? packed_sweep<V, tile_groups(kVG, R, I + 1), I + 1>(a, g0, g1, b0)
          : void()),
     ...);
  }
};

// --- quantization kernels ---------------------------------------------------
//
// round_half_away (common/quantize.hpp) lane by lane.  GCC leaves a plain
// loop of clamps and selects scalar under the default -ftrapping-math, so
// the bodies are written in the tier's vector type.  A lane converts to
// int32 (cvttpd2dq, present on every tier) only after the clamp has bounded
// it and NaN has become 0, so no lane ever converts a NaN or an
// out-of-range value.  The scalar remainders call the SymmetricQuantizer
// itself.

/// Broadcasts and bounds of one level grid, in the tier's vector type.
template <class V>
struct GridLanes {
  V lo, hi, step;
  explicit GridLanes(const SymmetricQuantizer& grid)
      : lo(V{} - grid.range()), hi(V{} + grid.range()), step(V{} + grid.step()) {}

  /// v ← round_half_away(std::clamp(v, lo, hi) / step) per lane, as an
  /// integer-valued double (+0.0 for level 0, like the int it stands for).
  /// In place: a vector passed or returned by value would change the ABI
  /// of this untargeted helper.
  [[gnu::always_inline]] void to_level(V& v) const {
    const V zero = {};
    const V one = zero + 1.0;
    const V half = zero + 0.5;
    const V c = v < lo ? lo : (hi < v ? hi : v);
    V u = c / step;
    u = u == u ? u : zero;
    const V t = __builtin_convertvector(
        __builtin_convertvector(u, typename LaneInts<V>::i32), V);
    const V f = u - t;
    v = t + (f >= half ? one : zero) - (f <= -half ? one : zero);
  }
};

/// level(x[c] / s) for c < cols on `grid`, into out[c · Stride]: the level
/// itself (Out = std::int8_t) or level · step (Out = double, Stride 1).
/// s = 1 skips the division, which would return x unchanged.
template <class V, std::size_t Stride, class Out>
[[gnu::always_inline]] inline void quantize_row(const double* x,
                                                std::size_t cols, double s,
                                                const GridLanes<V>& g,
                                                const SymmetricQuantizer& grid,
                                                Out* out) {
  static_assert(Stride == 1 || !std::is_same_v<Out, double>);
  constexpr std::size_t kL = kLanes<V>;
  std::size_t c = 0;
  for (; c + kL <= cols; c += kL) {
    V level;
    __builtin_memcpy(&level, x + c, sizeof(V));
    if (s != 1.0) {
      level /= s;
    }
    g.to_level(level);
    if constexpr (std::is_same_v<Out, double>) {
      const V q = level * g.step;
      __builtin_memcpy(out + c, &q, sizeof(V));
    } else {
      const auto q = __builtin_convertvector(
          __builtin_convertvector(level, typename LaneInts<V>::i32),
          typename LaneInts<V>::i8);
      if constexpr (Stride == 1) {
        __builtin_memcpy(out + c, &q, sizeof(q));
      } else {
        for (std::size_t l = 0; l < kL; ++l) {
          out[(c + l) * Stride] = q[l];
        }
      }
    }
  }
  for (; c < cols; ++c) {
    const double v = s != 1.0 ? x[c] / s : x[c];
    if constexpr (std::is_same_v<Out, double>) {
      out[c] = grid.quantize(v);
    } else {
      out[c * Stride] = static_cast<std::int8_t>(grid.to_level(v));
    }
  }
}

/// rank1_update_levels on one tier: returns the cells whose level moved.
struct Rank1Levels {
  template <class V, std::size_t R>
  [[gnu::always_inline]] static std::uint64_t run(
      double* w, std::size_t rows, std::size_t cols, const double* dh,
      const double* y, double lr, const SymmetricQuantizer* grid) {
    constexpr std::size_t kL = kLanes<V>;
    const GridLanes<V> g(*grid);
    decltype(V{} != V{}) moved = {};
    std::uint64_t changed = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double a = lr * dh[r];  // lr·dh[r]·y[c] groups left to right
      double* wr = w + r * cols;
      std::size_t c = 0;
      for (; c + kL <= cols; c += kL) {
        V old;
        V yc;
        __builtin_memcpy(&old, wr + c, sizeof(V));
        __builtin_memcpy(&yc, y + c, sizeof(V));
        V q = old - a * yc;
        g.to_level(q);
        q *= g.step;
        const auto ne = q != old;
        const V out = ne ? q : old;
        __builtin_memcpy(wr + c, &out, sizeof(V));
        moved -= ne;
      }
      for (; c < cols; ++c) {
        const double q = grid->quantize(wr[c] - a * y[c]);
        if (q != wr[c]) {
          wr[c] = q;
          ++changed;
        }
      }
    }
    for (std::size_t l = 0; l < kL; ++l) {
      changed += static_cast<std::uint64_t>(moved[l]);
    }
    return changed;
  }
};

/// dac_quantize on one tier, Out = double (grid values) or std::int8_t
/// (level indices).
struct DacRows {
  template <class V, std::size_t R, class Out>
  [[gnu::always_inline]] static void run(const double* x, std::size_t batch,
                                         std::size_t cols,
                                         const SymmetricQuantizer* grid,
                                         double* scale, Out* q) {
    constexpr std::size_t kL = kLanes<V>;
    const GridLanes<V> g(*grid);
    const V zero = {};
    for (std::size_t b = 0; b < batch; ++b) {
      const double* xr = x + b * cols;
      // max(1, max|x|) per lane, then across lanes: max is exact and a NaN
      // never wins a comparison, so the order does not change the result.
      V m = zero + 1.0;
      std::size_t c = 0;
      for (; c + kL <= cols; c += kL) {
        V v;
        __builtin_memcpy(&v, xr + c, sizeof(V));
        const V av = v < zero ? -v : v;
        m = m < av ? av : m;
      }
      double s = 1.0;
      for (std::size_t l = 0; l < kL; ++l) {
        s = std::max(s, m[l]);
      }
      for (; c < cols; ++c) {
        s = std::max(s, std::abs(xr[c]));
      }
      scale[b] = s;
      quantize_row<V, 1>(xr, cols, s, g, *grid, q + b * cols);
    }
  }
};

/// Unscaled levels of a row-major (rows × cols) block on one tier: row-major
/// (Stride 1), or into PackedPanel's groups (Stride 8: row r's levels land
/// in its group's blocks, one byte per column).
template <std::size_t Stride>
struct LevelRows {
  template <class V, std::size_t R, class Out>
  [[gnu::always_inline]] static void run(const double* x, std::size_t rows,
                                         std::size_t cols,
                                         const SymmetricQuantizer* grid,
                                         Out* out) {
    const GridLanes<V> g(*grid);
    for (std::size_t r = 0; r < rows; ++r) {
      Out* const o = Stride == 1 ? out + r * cols
                                 : out + r / kGroupRows * cols * kGroupRows +
                                       r % kGroupRows;
      quantize_row<V, Stride>(x + r * cols, cols, 1.0, g, *grid, o);
    }
  }
};

/// Transposed-GEMM block: samples [b0, b0+mb).  Each sample owns its output
/// row (y[c] += w[c]·xr has no cross-column chain), so the column loop
/// vectorises at full width on every clone.
TRIDENT_KERNEL_CLONES
void matmul_transposed_block(const double* wdata, std::size_t rows,
                             std::size_t cols, const double* xdata,
                             double* ydata, std::size_t b0, std::size_t mb) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* w = wdata + r * cols;
    for (std::size_t m = 0; m < mb; ++m) {
      const double xr = xdata[(b0 + m) * rows + r];
      double* yr = ydata + (b0 + m) * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        yr[c] += w[c] * xr;
      }
    }
  }
}

/// One weight row of the batched outer-product accumulation, samples in
/// batch order (bit-identical to sequential add_outer calls).
TRIDENT_KERNEL_CLONES
void add_outer_row(double* w, const double* adata, const double* bdata,
                   std::size_t rows, std::size_t cols, std::size_t batch,
                   std::size_t r, double scale) {
  for (std::size_t m = 0; m < batch; ++m) {
    const double ar = scale * adata[m * rows + r];
    const double* br = bdata + m * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      w[c] += ar * br[c];
    }
  }
}

/// Batched-kernel metrics.  The dispatch counter is suffixed with the ISA
/// tier picked at load time so a metrics snapshot records which tier
/// produced the numbers (the simple registry has no label support).
struct GemmMetrics {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& dispatch = reg.counter(
      std::string("trident_gemm_dispatch_") + kernel_isa() + "_total",
      "batched GEMM calls dispatched to this machine's best kernel clone");
  telemetry::Counter& matmul_calls =
      reg.counter("trident_gemm_matmul_total", "blocked y = x*W^T calls");
  telemetry::Counter& matmul_transposed_calls = reg.counter(
      "trident_gemm_matmul_transposed_total", "blocked y = x*W calls");
  telemetry::Counter& add_outer_calls =
      reg.counter("trident_gemm_add_outer_batch_total",
                  "batched outer-product accumulations");
  telemetry::Histogram& matmul_seconds =
      reg.histogram("trident_gemm_matmul_seconds",
                    telemetry::duration_buckets_seconds(),
                    "wall time of one blocked matmul_into call");
  telemetry::Histogram& matmul_transposed_seconds =
      reg.histogram("trident_gemm_matmul_transposed_seconds",
                    telemetry::duration_buckets_seconds(),
                    "wall time of one blocked matmul_transposed_into call");
  telemetry::Histogram& add_outer_seconds =
      reg.histogram("trident_gemm_add_outer_batch_seconds",
                    telemetry::duration_buckets_seconds(),
                    "wall time of one add_outer_batch call");
};

[[nodiscard]] GemmMetrics& gemm_metrics() {
  static GemmMetrics m;
  return m;
}

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Books one y = x·Wᵀ call (either layout) started at `t0`.
void note_matmul(std::chrono::steady_clock::time_point t0) {
  GemmMetrics& m = gemm_metrics();
  m.dispatch.add(1);
  m.matmul_calls.add(1);
  m.matmul_seconds.observe(seconds_since(t0));
}

}  // namespace

Vector Matrix::matvec(const Vector& x) const {
  Vector y;
  matvec_into(x, y);
  return y;
}

void Matrix::matvec_into(const Vector& x, Vector& y) const {
  TRIDENT_REQUIRE(x.size() == cols_, "matvec dimension mismatch");
  y.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* w = data_.data() + r * cols_;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      acc += w[c] * x[c];
    }
    y[r] = acc;
  }
}

Vector Matrix::matvec_transposed(const Vector& x) const {
  Vector y;
  matvec_transposed_into(x, y);
  return y;
}

void Matrix::matvec_transposed_into(const Vector& x, Vector& y) const {
  TRIDENT_REQUIRE(x.size() == rows_, "transposed matvec dimension mismatch");
  y.assign(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* w = data_.data() + r * cols_;
    const double xr = x[r];
    for (std::size_t c = 0; c < cols_; ++c) {
      y[c] += w[c] * xr;
    }
  }
}

Matrix Matrix::matmul(const Matrix& x) const {
  Matrix y(x.rows(), rows_);
  matmul_into(x, y);
  return y;
}

void Matrix::matmul_into(const Matrix& x, Matrix& y) const {
  TRIDENT_REQUIRE(x.cols() == cols_, "matmul dimension mismatch");
  TRIDENT_REQUIRE(y.rows() == x.rows() && y.cols() == rows_,
                  "matmul output shape mismatch");
  const bool telem = telemetry::enabled();
  std::chrono::steady_clock::time_point t0;
  if (telem) {
    t0 = std::chrono::steady_clock::now();
  }
  const std::size_t batch = x.rows();
  const std::size_t full_blocks = batch / kBatchBlock;
  std::fill(y.data().begin(), y.data().end(), 0.0);

  parallel_for(
      0, full_blocks,
      [&](std::size_t blk) {
        run_on_tier<MatmulPanel<kBatchBlock>>(data_.data(), rows_, cols_,
                                              x.data().data(), y.data().data(),
                                              blk * kBatchBlock);
      },
      grain_for(rows_ * cols_ * kBatchBlock));

  // Tail: one half-width panel if at least 8 samples remain, then the
  // per-sample kernel for the rest.  It runs four rows' chains side by
  // side, so their adds overlap instead of each waiting on the last.
  std::size_t b = full_blocks * kBatchBlock;
  if (batch - b >= kBatchBlockSmall) {
    run_on_tier<MatmulPanel<kBatchBlockSmall>>(data_.data(), rows_, cols_,
                                               x.data().data(),
                                               y.data().data(), b);
    b += kBatchBlockSmall;
  }
  for (; b < batch; ++b) {
    const double* xr = x.data().data() + b * cols_;
    double* yr = y.data().data() + b * rows_;
    std::size_t r = 0;
    for (; r + 4 <= rows_; r += 4) {
      const double* w = data_.data() + r * cols_;
      double acc[4] = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t c = 0; c < cols_; ++c) {
        for (std::size_t i = 0; i < 4; ++i) {
          acc[i] += w[i * cols_ + c] * xr[c];
        }
      }
      std::copy(acc, acc + 4, yr + r);
    }
    for (; r < rows_; ++r) {
      const double* w = data_.data() + r * cols_;
      double acc = 0.0;
      for (std::size_t c = 0; c < cols_; ++c) {
        acc += w[c] * xr[c];
      }
      yr[r] = acc;
    }
  }
  if (telem) {
    note_matmul(t0);
  }
}

PackedPanel::PackedPanel(const Matrix& w, const SymmetricQuantizer& grid) {
  pack(w, grid);
}

void PackedPanel::pack(const Matrix& w, const SymmetricQuantizer& grid) {
  TRIDENT_REQUIRE(grid.bits() <= 8, "int8 levels require bits <= 8");
  rows_ = w.rows();
  cols_ = w.cols();
  step_ = grid.step();
  const std::size_t groups = (rows_ + kGroupRows - 1) / kGroupRows;
  levels_.resize(groups * cols_ * kGroupRows);  // the capacity only grows
  if (rows_ % kGroupRows != 0) {
    // Level 0 in the padding rows of the partial last group.
    std::fill(levels_.end() - static_cast<std::ptrdiff_t>(cols_ * kGroupRows),
              levels_.end(), std::int8_t{0});
  }
  run_on_tier<LevelRows<kGroupRows>>(w.data().data(), rows_, cols_, &grid,
                                     levels_.data());
}

void PackedPanel::matmul_into(const Matrix& x, Matrix& y) const {
  TRIDENT_REQUIRE(x.cols() == cols_, "packed matmul dimension mismatch");
  TRIDENT_REQUIRE(y.rows() == x.rows() && y.cols() == rows_,
                  "packed matmul output shape mismatch");
  const bool telem = telemetry::enabled();
  std::chrono::steady_clock::time_point t0;
  if (telem) {
    t0 = std::chrono::steady_clock::now();
  }
  const PanelArgs args{levels_.data(), step_, rows_, cols_, x.data().data(),
                       y.data().data()};
  const std::size_t groups = (rows_ + kGroupRows - 1) / kGroupRows;
  const std::size_t batch = x.rows();
  const std::size_t full_blocks = batch / kBatchBlock;
  // Pool dispatch over the same 16-sample blocks and grain as
  // Matrix::matmul_into, so a full block of one large layer keeps its core.
  parallel_for(
      0, full_blocks,
      [&](std::size_t blk) {
        run_on_tier<PackedSamples>(args, std::size_t{0}, groups,
                                   blk * kBatchBlock, kBatchBlock);
      },
      grain_for(rows_ * cols_ * kBatchBlock));
  // The samples narrower than a block: a tail of at least two grains of
  // work is split across the pool by row group, in chunks of whole groups
  // the pool sizes.  Each (row, sample) chain still runs in one tile on one
  // thread in strict column order, so the split changes no output bit.
  const std::size_t b = full_blocks * kBatchBlock;
  const std::size_t tail = batch - b;
  if (tail > 0 && rows_ * cols_ * tail < 2 * kGrainMacs) {
    run_on_tier<PackedSamples>(args, std::size_t{0}, groups, b, tail);
  } else if (tail > 0) {
    parallel_for_ranges(0, groups, [&](std::size_t g0, std::size_t g1) {
      run_on_tier<PackedSamples>(args, g0, g1, b, tail);
    });
  }
  if (telem) {
    note_matmul(t0);
  }
}

Matrix Matrix::matmul_transposed(const Matrix& x) const {
  Matrix y(x.rows(), cols_);
  matmul_transposed_into(x, y);
  return y;
}

void Matrix::matmul_transposed_into(const Matrix& x, Matrix& y) const {
  TRIDENT_REQUIRE(x.cols() == rows_, "transposed matmul dimension mismatch");
  TRIDENT_REQUIRE(y.rows() == x.rows() && y.cols() == cols_,
                  "transposed matmul output shape mismatch");
  const bool telem = telemetry::enabled();
  std::chrono::steady_clock::time_point t0;
  if (telem) {
    t0 = std::chrono::steady_clock::now();
  }
  const std::size_t batch = x.rows();
  std::fill(y.data().begin(), y.data().end(), 0.0);

  // Each sample owns its output row, so blocking over samples keeps every
  // weight row hot in L1 across the block while workers write disjoint rows.
  const std::size_t blocks = (batch + kBatchBlock - 1) / kBatchBlock;
  parallel_for(
      0, blocks,
      [&](std::size_t blk) {
        const std::size_t b0 = blk * kBatchBlock;
        matmul_transposed_block(data_.data(), rows_, cols_, x.data().data(),
                                y.data().data(), b0,
                                std::min(kBatchBlock, batch - b0));
      },
      grain_for(rows_ * cols_ * kBatchBlock));
  if (telem) {
    GemmMetrics& m = gemm_metrics();
    m.dispatch.add(1);
    m.matmul_transposed_calls.add(1);
    m.matmul_transposed_seconds.observe(seconds_since(t0));
  }
}

void Matrix::add_outer_batch(const Matrix& a, const Matrix& b, double scale) {
  TRIDENT_REQUIRE(a.rows() == b.rows(), "outer-product batch mismatch");
  TRIDENT_REQUIRE(a.cols() == rows_ && b.cols() == cols_,
                  "outer-product dimension mismatch");
  const bool telem = telemetry::enabled();
  std::chrono::steady_clock::time_point t0;
  if (telem) {
    t0 = std::chrono::steady_clock::now();
  }
  const std::size_t batch = a.rows();
  // Workers own disjoint weight rows; per element the batch accumulates in
  // sample order, matching sequential add_outer calls exactly.
  parallel_for(
      0, rows_,
      [&](std::size_t r) {
        add_outer_row(data_.data() + r * cols_, a.data().data(),
                      b.data().data(), rows_, cols_, batch, r, scale);
      },
      grain_for(batch * cols_));
  if (telem) {
    GemmMetrics& m = gemm_metrics();
    m.dispatch.add(1);
    m.add_outer_calls.add(1);
    m.add_outer_seconds.observe(seconds_since(t0));
  }
}

void Matrix::add_outer(const Vector& a, const Vector& b, double scale) {
  TRIDENT_REQUIRE(a.size() == rows_ && b.size() == cols_,
                  "outer-product dimension mismatch");
  for (std::size_t r = 0; r < rows_; ++r) {
    double* w = data_.data() + r * cols_;
    const double ar = scale * a[r];
    for (std::size_t c = 0; c < cols_; ++c) {
      w[c] += ar * b[c];
    }
  }
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t.at(c, r) = at(r, c);
    }
  }
  return t;
}

Matrix Matrix::xavier(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const double limit =
      std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (double& v : m.data_) {
    v = rng.uniform(-limit, limit);
  }
  return m;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) {
    m = std::max(m, std::abs(v));
  }
  return m;
}

std::uint64_t rank1_update_levels(Matrix& w, const Vector& dh,
                                  const Vector& y, double lr,
                                  const SymmetricQuantizer& grid) {
  TRIDENT_REQUIRE(dh.size() == w.rows() && y.size() == w.cols(),
                  "rank-1 update dimension mismatch");
  return run_on_tier<Rank1Levels>(w.data().data(), w.rows(), w.cols(),
                                  dh.data(), y.data(), lr, &grid);
}

void to_levels(const double* x, std::size_t n, const SymmetricQuantizer& grid,
               std::int8_t* levels) {
  TRIDENT_REQUIRE(grid.bits() <= 8, "int8 levels require bits <= 8");
  run_on_tier<LevelRows<1>>(x, std::size_t{1}, n, &grid, levels);
}

void snap_to_grid(const double* x, std::size_t n,
                  const SymmetricQuantizer& grid, double* q) {
  run_on_tier<LevelRows<1>>(x, std::size_t{1}, n, &grid, q);
}

void dac_quantize(const double* x, std::size_t batch, std::size_t cols,
                  const SymmetricQuantizer& grid, double* scale, double* q) {
  run_on_tier<DacRows>(x, batch, cols, &grid, scale, q);
}

void dac_quantize(const double* x, std::size_t batch, std::size_t cols,
                  const SymmetricQuantizer& grid, double* scale,
                  std::int8_t* levels) {
  TRIDENT_REQUIRE(grid.bits() <= 8, "int8 levels require bits <= 8");
  run_on_tier<DacRows>(x, batch, cols, &grid, scale, levels);
}

Vector hadamard(const Vector& a, const Vector& b) {
  TRIDENT_REQUIRE(a.size() == b.size(), "hadamard dimension mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] * b[i];
  }
  return out;
}

void hadamard_into(const Vector& a, Vector& out) {
  TRIDENT_REQUIRE(a.size() == out.size(), "hadamard dimension mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] *= a[i];
  }
}

double dot(const Vector& a, const Vector& b) {
  TRIDENT_REQUIRE(a.size() == b.size(), "dot dimension mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

std::size_t argmax(const Vector& v) {
  TRIDENT_REQUIRE(!v.empty(), "argmax of empty vector");
  return static_cast<std::size_t>(
      std::distance(v.begin(), std::max_element(v.begin(), v.end())));
}

}  // namespace trident::nn
