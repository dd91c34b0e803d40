// Google-benchmark microbenchmarks of the simulator's hot kernels:
// device-model evaluation, weight-bank programming/apply, the photonic
// functional backend, and the whole-model dataflow analysis.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "arch/photonic.hpp"
#include "core/array_sim.hpp"
#include "core/photonic_backend.hpp"
#include "core/queueing.hpp"
#include "core/spectral_bank.hpp"
#include "core/quantized_backend.hpp"
#include "core/weight_bank.hpp"
#include "common/rng.hpp"
#include "nn/int8_gemm.hpp"
#include "dataflow/analyzer.hpp"
#include "nn/dataset.hpp"
#include "nn/mlp.hpp"
#include "nn/plan.hpp"
#include "nn/train.hpp"
#include "nn/zoo.hpp"
#include "parallel/thread_pool.hpp"
#include "state/snapshot.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace trident;
using namespace trident::units::literals;

void BM_MrrResponse(benchmark::State& state) {
  phot::Mrr ring(phot::MrrDesign{}, 1550.0_nm);
  const units::Length probe = units::Length::nanometers(1550.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.response(probe, 0.8));
  }
}
BENCHMARK(BM_MrrResponse);

void BM_MrrSpectrum(benchmark::State& state) {
  phot::Mrr ring(phot::MrrDesign{}, 1550.0_nm);
  const auto points = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ring.spectrum(1548.0_nm, 1552.0_nm, points));
  }
  state.SetItemsProcessed(state.iterations() * points);
}
BENCHMARK(BM_MrrSpectrum)->Arg(64)->Arg(256)->Arg(1024);

void BM_GstProgram(benchmark::State& state) {
  phot::GstCell cell;
  int level = 0;
  for (auto _ : state) {
    cell.program(level);
    level = (level + 37) % 255;
  }
}
BENCHMARK(BM_GstProgram);

void BM_WeightBankProgram(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  core::WeightBankConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.plan = phot::ChannelPlan(n);
  core::WeightBank bank(cfg);
  Rng rng(1);
  nn::Matrix w(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (auto _ : state) {
    state.PauseTiming();
    for (double& v : w.data()) {
      v = rng.uniform(-1.0, 1.0);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(bank.program(w));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_WeightBankProgram)->Arg(4)->Arg(8)->Arg(16);

void BM_WeightBankApply(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  core::WeightBankConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.plan = phot::ChannelPlan(n);
  core::WeightBank bank(cfg);
  nn::Matrix w(static_cast<std::size_t>(n), static_cast<std::size_t>(n), 0.4);
  bank.program(w);
  nn::Vector x(static_cast<std::size_t>(n), 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.apply_const(x));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_WeightBankApply)->Arg(4)->Arg(8)->Arg(16);

// --- batched GEMM path vs per-sample loops --------------------------------
//
// The pairs below share sizes so the speedup of the blocked kernels over a
// loop of per-sample matvec calls reads straight off the GFLOP/s counters
// (the acceptance target is ≥3× at 256×256, batch 32).

void set_gemm_counters(benchmark::State& state, std::size_t n,
                       std::size_t batch) {
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(batch);
  state.counters["FLOPS"] =
      benchmark::Counter(flops, benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n * batch));
}

void BM_MatmulBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  const nn::Matrix w = nn::Matrix::xavier(n, n, rng);
  nn::Matrix x(batch, n);
  for (double& v : x.data()) {
    v = rng.uniform(-1.0, 1.0);
  }
  nn::Matrix y(batch, n);
  for (auto _ : state) {
    w.matmul_into(x, y);
    benchmark::DoNotOptimize(y.data().data());
  }
  set_gemm_counters(state, n, batch);
}
BENCHMARK(BM_MatmulBlocked)
    ->ArgsProduct({{16, 64, 256, 512}, {1, 8, 32, 64}});

void BM_MatvecLoop(benchmark::State& state) {
  // The pre-GEMM baseline: one matvec call per sample.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  const nn::Matrix w = nn::Matrix::xavier(n, n, rng);
  nn::Matrix x(batch, n);
  for (double& v : x.data()) {
    v = rng.uniform(-1.0, 1.0);
  }
  nn::Vector xb(n);
  nn::Vector y(n);
  for (auto _ : state) {
    for (std::size_t b = 0; b < batch; ++b) {
      const auto row = x.row(b);
      std::copy(row.begin(), row.end(), xb.begin());
      w.matvec_into(xb, y);
      benchmark::DoNotOptimize(y.data());
    }
  }
  set_gemm_counters(state, n, batch);
}
BENCHMARK(BM_MatvecLoop)->ArgsProduct({{16, 64, 256, 512}, {1, 8, 32, 64}});

// --- int8 quantized tier vs the double GEMM -------------------------------
//
// Same shapes as BM_MatmulBlocked, so the int8-over-double multiplier at
// 256×256 batch 32 (acceptance target ≥2×) reads straight off the shared
// FLOPS counter (integer multiply-adds counted the same way).  The label
// records which ISA clone the resolver picked on this host.

void BM_Int8GemmBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  const nn::PackedPanel w(nn::Matrix::xavier(n, n, rng), SymmetricQuantizer(8));
  std::vector<std::int8_t> x(batch * n);
  for (std::int8_t& v : x) {
    v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  std::vector<std::int32_t> y(batch * n);
  for (auto _ : state) {
    nn::int8_gemm(w, x.data(), batch, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  set_gemm_counters(state, n, batch);
  state.SetLabel(nn::int8_kernel_isa());
}
BENCHMARK(BM_Int8GemmBlocked)
    ->ArgsProduct({{16, 64, 256, 512}, {1, 8, 32, 64}});

void BM_Int8GemmTransposedBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  Rng rng(6);
  std::vector<std::int8_t> w(n * n);
  std::vector<std::int8_t> x(batch * n);
  for (std::int8_t& v : w) {
    v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  for (std::int8_t& v : x) {
    v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  std::vector<std::int32_t> y(batch * n);
  for (auto _ : state) {
    nn::int8_gemm_transposed(w.data(), n, n, x.data(), batch, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  set_gemm_counters(state, n, batch);
  state.SetLabel(nn::int8_kernel_isa());
}
BENCHMARK(BM_Int8GemmTransposedBlocked)->ArgsProduct({{64, 256}, {8, 32}});

void BM_MatmulTransposedBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  Rng rng(6);
  const nn::Matrix w = nn::Matrix::xavier(n, n, rng);
  nn::Matrix x(batch, n);
  for (double& v : x.data()) {
    v = rng.uniform(-1.0, 1.0);
  }
  nn::Matrix y(batch, n);
  for (auto _ : state) {
    w.matmul_transposed_into(x, y);
    benchmark::DoNotOptimize(y.data().data());
  }
  set_gemm_counters(state, n, batch);
}
BENCHMARK(BM_MatmulTransposedBlocked)->ArgsProduct({{64, 256}, {8, 32}});

void BM_AddOuterBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  Rng rng(7);
  nn::Matrix w = nn::Matrix::xavier(n, n, rng);
  nn::Matrix a(batch, n, 0.05);
  nn::Matrix b(batch, n, 0.4);
  for (auto _ : state) {
    w.add_outer_batch(a, b, -1e-9);
    benchmark::DoNotOptimize(w.data().data());
  }
  set_gemm_counters(state, n, batch);
}
BENCHMARK(BM_AddOuterBatch)->ArgsProduct({{64, 256}, {8, 32}});

void BM_PhotonicBackendMatvec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::PhotonicBackend backend;
  Rng rng(2);
  const nn::Matrix w = nn::Matrix::xavier(n, n, rng);
  nn::Vector x(n, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.matvec(w, x));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_PhotonicBackendMatvec)->Arg(16)->Arg(64)->Arg(256);

void BM_PhotonicBackendMatmul(benchmark::State& state) {
  // Batched functional backend: one block quantize + one blocked GEMM,
  // bit-identical to BM_PhotonicBackendMatvecLoop below.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  core::PhotonicBackend backend;
  Rng rng(2);
  const nn::Matrix w = nn::Matrix::xavier(n, n, rng);
  nn::Matrix x(batch, n, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.matmul(w, x));
  }
  set_gemm_counters(state, n, batch);
}
BENCHMARK(BM_PhotonicBackendMatmul)->ArgsProduct({{64, 256}, {8, 32}});

void BM_QuantizedBackendMatmul(benchmark::State& state) {
  // Per-op fast tier at the same shapes as BM_PhotonicBackendMatmul:
  // weight quantize + per-sample DAC quantize + int8 GEMM + scale-out.  The
  // weights are quantized on every call, as PhotonicBackend::matmul packs
  // its panel on every call; serving streams a compiled plan's panel
  // instead (BM_MlpForwardPlan*).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  core::QuantizedBackend backend;
  Rng rng(2);
  const nn::Matrix w = nn::Matrix::xavier(n, n, rng);
  nn::Matrix x(batch, n, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.matmul(w, x));
  }
  set_gemm_counters(state, n, batch);
  state.SetLabel(nn::int8_kernel_isa());
}
BENCHMARK(BM_QuantizedBackendMatmul)->ArgsProduct({{64, 256}, {8, 32}});

void BM_PhotonicBackendMatvecLoop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  core::PhotonicBackend backend;
  Rng rng(2);
  const nn::Matrix w = nn::Matrix::xavier(n, n, rng);
  nn::Matrix x(batch, n, 0.3);
  nn::Vector xb(n);
  for (auto _ : state) {
    for (std::size_t b = 0; b < batch; ++b) {
      const auto row = x.row(b);
      std::copy(row.begin(), row.end(), xb.begin());
      benchmark::DoNotOptimize(backend.matvec(w, xb));
    }
  }
  set_gemm_counters(state, n, batch);
}
BENCHMARK(BM_PhotonicBackendMatvecLoop)->ArgsProduct({{64, 256}, {8, 32}});

void BM_WeightBankApplyBatch(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  core::WeightBankConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.plan = phot::ChannelPlan(n);
  core::WeightBank bank(cfg);
  nn::Matrix w(static_cast<std::size_t>(n), static_cast<std::size_t>(n), 0.4);
  bank.program(w);
  nn::Matrix x(batch, static_cast<std::size_t>(n), 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.apply_batch(x));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              static_cast<std::size_t>(n * n) * batch));
}
BENCHMARK(BM_WeightBankApplyBatch)->ArgsProduct({{8, 16}, {8, 32}});

void BM_PhotonicBackendRank1(benchmark::State& state) {
  // The in-situ update at rows × cols, cycling through 16 seeded (dh, y)
  // pairs so levels keep moving; with one constant pair no level moves
  // after the first call.  128×64, 64×128 and 1024×512 are served shapes.
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  core::PhotonicBackend backend;
  Rng rng(3);
  nn::Matrix w = nn::Matrix::xavier(rows, cols, rng);
  std::vector<nn::Vector> dhs(16, nn::Vector(rows));
  std::vector<nn::Vector> ys(16, nn::Vector(cols));
  for (std::size_t i = 0; i < dhs.size(); ++i) {
    for (double& v : dhs[i]) {
      v = rng.uniform(-0.5, 0.5);
    }
    for (double& v : ys[i]) {
      v = rng.uniform(-1.0, 1.0);
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    backend.rank1_update(w, dhs[i % dhs.size()], ys[i % ys.size()], 0.05);
    benchmark::DoNotOptimize(w.data().data());
    benchmark::ClobberMemory();
    ++i;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_PhotonicBackendRank1)
    ->Args({16, 16})
    ->Args({64, 64})
    ->Args({256, 256})
    ->Args({128, 64})
    ->Args({64, 128})
    ->Args({1024, 512});

void BM_TrainPulsePhotonic(benchmark::State& state) {
  // One learn_canary-sized training pulse: a batch-1 nn::fit of 576
  // samples on {64, 128, 64, 10} through the photonic tier, from the same
  // starting weights every iteration.
  Rng rng(0x9015u);
  const nn::Mlp start({64, 128, 64, 10}, nn::Activation::kGstPhotonic, rng);
  const nn::Dataset pulse = nn::pattern_classes(576, 10, 64, 0.05, rng);
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.learning_rate = 0.05;
  for (auto _ : state) {
    nn::Mlp net = start;
    core::PhotonicBackend backend;
    benchmark::DoNotOptimize(nn::fit(net, pulse, tc, backend));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pulse.size()));
}
BENCHMARK(BM_TrainPulsePhotonic)->Unit(benchmark::kMillisecond);

void BM_DacQuantize(benchmark::State& state) {
  // The modulator DAC pass of one 16-sample block of width n: per-sample
  // scale, then the 8-bit level of every element.
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 16;
  const SymmetricQuantizer grid(8, 1.0);
  Rng rng(0xDACu);
  nn::Matrix x(kBatch, n);
  for (double& v : x.data()) {
    v = rng.uniform(-2.0, 2.0);
  }
  nn::Vector scale(kBatch);
  nn::Matrix q(kBatch, n);
  for (auto _ : state) {
    nn::dac_quantize(x.data().data(), kBatch, n, grid, scale.data(),
                     q.data().data());
    benchmark::DoNotOptimize(q.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch * n));
}
BENCHMARK(BM_DacQuantize)->Arg(64)->Arg(512)->Arg(1024);

void BM_AnalyzeModel(benchmark::State& state) {
  const auto models = nn::zoo::evaluation_models();
  const auto& model = models[static_cast<std::size_t>(state.range(0))];
  const auto trident = arch::make_trident();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataflow::analyze_model(model, trident.array));
  }
  state.SetLabel(model.name);
}
BENCHMARK(BM_AnalyzeModel)->DenseRange(0, 4);

void BM_ParallelForScaling(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(n);
  for (auto _ : state) {
    parallel_for(0, n, [&](std::size_t i) {
      double acc = 0.0;
      for (int k = 0; k < 200; ++k) {
        acc += static_cast<double>(i * static_cast<std::size_t>(k) % 7);
      }
      out[i] = acc;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelForScaling)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SpectralTransferMatrix(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  core::SpectralBankConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.mrr.radius = units::Length::micrometers(3.0);
  cfg.mrr.self_coupling_1 = 0.98;
  cfg.mrr.self_coupling_2 = 0.98;
  cfg.plan = phot::ChannelPlan(n);
  cfg.placement = core::GstPlacement::kPostDrop;
  core::SpectralWeightBank bank(cfg);
  Rng rng(4);
  nn::Matrix w(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (double& v : w.data()) {
    v = rng.uniform(-0.9, 0.9);
  }
  bank.program(w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.transfer_matrix());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_SpectralTransferMatrix)->Arg(4)->Arg(8)->Arg(16);

void BM_SimulateArray(benchmark::State& state) {
  const auto trident = arch::make_trident();
  const auto model = nn::zoo::mobilenet_v2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::simulate_array(model, trident.array));
  }
}
BENCHMARK(BM_SimulateArray);

void BM_QueueingSim(benchmark::State& state) {
  core::QueueingConfig cfg;
  cfg.requests = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::simulate_service(units::Time::milliseconds(1.0), cfg));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QueueingSim)->Arg(1000)->Arg(20000);

// Snapshot codec cost: the checkpoint interval a training schedule can
// afford depends on how fast a full model + bank state serialises, and the
// heal path's MTTR includes one deserialize + checksum pass.
state::Snapshot bench_snapshot(int hidden) {
  Rng rng(11);
  const nn::Mlp net({64, hidden, 10}, nn::Activation::kGstPhotonic, rng);
  state::Snapshot snap;
  snap.model = state::capture_model(net);
  state::LedgerState ledger;
  ledger.weight_writes = 123456;
  ledger.symbols = 9999999;
  snap.ledger = ledger;
  state::BankState bank;
  bank.rows = 32;
  bank.cols = 32;
  for (int i = 0; i < 32 * 32; ++i) {
    bank.levels.push_back(static_cast<std::int32_t>(i % 255));
    bank.writes.push_back(static_cast<std::uint64_t>(i));
    bank.reads.push_back(static_cast<std::uint64_t>(i) * 3u);
  }
  snap.banks.push_back(bank);
  return snap;
}

void BM_SnapshotSerialize(benchmark::State& state) {
  const state::Snapshot snap = bench_snapshot(static_cast<int>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string blob = snap.serialize();
    bytes = blob.size();
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SnapshotSerialize)->Arg(32)->Arg(256)->Arg(1024);

void BM_SnapshotDeserialize(benchmark::State& state) {
  const std::string blob =
      bench_snapshot(static_cast<int>(state.range(0))).serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(state::Snapshot::deserialize(blob));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_SnapshotDeserialize)->Arg(32)->Arg(256)->Arg(1024);

// ---------------------------------------------------------------------------
// Telemetry overhead: the cost of a span and of trace-id propagation, with
// telemetry disabled (the guard branch only — what every hot path pays by
// default) and enabled (clock reads + buffer append).  Each enabled-mode
// iteration records real events, so the buffer is cleared afterwards to
// keep memory flat across benchmark repetitions.

void BM_TelemetrySpanDisabled(benchmark::State& state) {
  telemetry::set_enabled(false);
  for (auto _ : state) {
    // The guarded-site idiom: with telemetry off the span name is never
    // even built.  This is the whole disabled-path cost.
    if (telemetry::enabled()) {
      telemetry::Span span("bench/span", "bench");
      benchmark::DoNotOptimize(&span);
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TelemetrySpanDisabled);

void BM_TelemetrySpanEnabled(benchmark::State& state) {
  if (!telemetry::compiled_in()) {
    state.SkipWithError("telemetry compiled out");
    return;
  }
  telemetry::set_enabled(true);
  for (auto _ : state) {
    if (telemetry::enabled()) {
      telemetry::Span span("bench/span", "bench");
      benchmark::DoNotOptimize(&span);
    }
  }
  telemetry::set_enabled(false);
  telemetry::TraceBuffer::global().clear();
}
BENCHMARK(BM_TelemetrySpanEnabled);

void BM_TelemetrySpanWithTrace(benchmark::State& state) {
  if (!telemetry::compiled_in()) {
    state.SkipWithError("telemetry compiled out");
    return;
  }
  telemetry::set_enabled(true);
  // Request-scoped propagation: a parent context installed on the thread,
  // every span underneath inheriting trace/span/parent ids — the serving
  // batch-span pattern.
  std::uint64_t trace_id = 0;
  for (auto _ : state) {
    if (telemetry::enabled()) {
      ++trace_id;
      telemetry::Span root("bench/root", "bench",
                           telemetry::TraceContext{trace_id, 0});
      telemetry::TraceScope scope(root.context());
      telemetry::Span child("bench/child", "bench");
      benchmark::DoNotOptimize(&child);
    }
  }
  telemetry::set_enabled(false);
  telemetry::TraceBuffer::global().clear();
}
BENCHMARK(BM_TelemetrySpanWithTrace);

void BM_TelemetryCounter(benchmark::State& state) {
  if (!telemetry::compiled_in()) {
    state.SkipWithError("telemetry compiled out");
    return;
  }
  telemetry::set_enabled(true);
  telemetry::Counter& c = telemetry::MetricsRegistry::global().counter(
      "bench_telemetry_counter_total");
  for (auto _ : state) {
    if (telemetry::enabled()) {
      c.add(1);
    }
  }
  telemetry::set_enabled(false);
}
BENCHMARK(BM_TelemetryCounter);

// --- plan runtime vs per-op dispatch ---------------------------------------
//
// Whole-model forward through a compiled ExecutionPlan against the per-op
// Mlp::forward_batch dispatch on the same backend, at the serving batch
// sizes the acceptance gate cares about (B=1 and B=32).
// scripts/summarize_bench.py --plan pairs each BM_MlpForwardPerOp* row
// with its BM_MlpForwardPlan* twin and requires the plan path to be at
// least as fast.

nn::Matrix plan_bench_input(const nn::Mlp& model, std::size_t batch) {
  Rng rng(7);
  nn::Matrix x(batch, static_cast<std::size_t>(model.layer_sizes().front()));
  for (double& v : x.data()) {
    v = rng.uniform(-1.0, 1.0);
  }
  return x;
}

void BM_MlpForwardPerOpPhotonic(benchmark::State& state) {
  const nn::Mlp model = nn::zoo::surrogate_mlp(nn::zoo::lenet5());
  core::PhotonicBackend backend;
  const nn::Matrix x =
      plan_bench_input(model, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const nn::BatchForwardTrace trace = model.forward_batch(x, backend);
    benchmark::DoNotOptimize(trace.activations.back().data().data());
  }
}
BENCHMARK(BM_MlpForwardPerOpPhotonic)->Arg(1)->Arg(32);

void BM_MlpForwardPlanPhotonic(benchmark::State& state) {
  const nn::Mlp model = nn::zoo::surrogate_mlp(nn::zoo::lenet5());
  core::PhotonicBackend backend;
  const auto plan = nn::ExecutionPlan::compile(model);
  nn::PlanArena arena;
  const nn::Matrix x =
      plan_bench_input(model, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const nn::Matrix& y = plan->run(backend, x, arena);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_MlpForwardPlanPhotonic)->Arg(1)->Arg(32);

void BM_MlpForwardPerOpQuantized(benchmark::State& state) {
  const nn::Mlp model = nn::zoo::surrogate_mlp(nn::zoo::lenet5());
  core::QuantizedBackend backend;
  const nn::Matrix x =
      plan_bench_input(model, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const nn::BatchForwardTrace trace = model.forward_batch(x, backend);
    benchmark::DoNotOptimize(trace.activations.back().data().data());
  }
}
BENCHMARK(BM_MlpForwardPerOpQuantized)->Arg(1)->Arg(32);

void BM_MlpForwardPlanQuantized(benchmark::State& state) {
  const nn::Mlp model = nn::zoo::surrogate_mlp(nn::zoo::lenet5());
  core::QuantizedBackend backend;
  const auto plan = nn::ExecutionPlan::compile(model);
  nn::PlanArena arena;
  const nn::Matrix x =
      plan_bench_input(model, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const nn::Matrix& y = plan->run(backend, x, arena);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_MlpForwardPlanQuantized)->Arg(1)->Arg(32);

void BM_PlanForwardPhotonicLarge(benchmark::State& state) {
  // The exact-tier serving forward of the {512, 1024, 512, 10} model (1.05
  // MB of level panels) at serving batch sizes.  MACs is a rate; bytes is
  // what one call must move at least: every level panel once (one byte per
  // cell, padding rows included), plus each layer's input and output block
  // of doubles.
  Rng rng(0x1A63u);
  const nn::Mlp model({512, 1024, 512, 10}, nn::Activation::kGstPhotonic, rng);
  core::PhotonicBackend backend;
  const auto plan = nn::ExecutionPlan::compile(model);
  nn::PlanArena arena;
  const auto batch = static_cast<std::size_t>(state.range(0));
  const nn::Matrix x = plan_bench_input(model, batch);
  double macs = 0.0;
  double bytes = 0.0;
  for (int k = 0; k < plan->depth(); ++k) {
    const nn::PlanLayer& layer = plan->layer(k);
    const double padded_rows = static_cast<double>((layer.rows + 7) / 8 * 8);
    macs += static_cast<double>(batch * layer.rows * layer.cols);
    bytes += padded_rows * static_cast<double>(layer.cols) +
             8.0 * static_cast<double>(batch * (layer.rows + layer.cols));
  }
  for (auto _ : state) {
    const nn::Matrix& y = plan->run(backend, x, arena);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.counters["MACs"] = benchmark::Counter(
      macs, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["bytes"] = bytes;
}
BENCHMARK(BM_PlanForwardPhotonicLarge)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_PlanCompile(benchmark::State& state) {
  // The cost hot_swap / canary_start pay per publication (off the serving
  // path); documented in docs/performance.md.
  const nn::Mlp model = nn::zoo::surrogate_mlp(nn::zoo::lenet5());
  for (auto _ : state) {
    const auto plan = nn::ExecutionPlan::compile(model);
    benchmark::DoNotOptimize(plan->id());
  }
}
BENCHMARK(BM_PlanCompile);

}  // namespace

// `--json-out=FILE` is shorthand for google-benchmark's own
// `--benchmark_out=FILE --benchmark_out_format=json`, so CI drives this
// binary and bench/edge_serving with the same flag.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  static char fmt_flag[] = "--benchmark_out_format=json";
  for (auto it = args.begin(); it != args.end(); ++it) {
    constexpr std::string_view kJsonOut = "--json-out=";
    const std::string_view arg(*it);
    if (arg.rfind(kJsonOut, 0) == 0) {
      out_flag = "--benchmark_out=" + std::string(arg.substr(kJsonOut.size()));
      args.erase(it);
      break;
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
