// Edge-serving tail latency: the analytic M/D/1 model next to the *real*
// concurrent serving runtime, each validating the other.
//
// Part 1 (analytic): every accelerator serves a Poisson request stream at
// 70% of its own capacity; we report p50/p99 sojourn times from the
// discrete-event model — the tail amplifies the mean-latency differences
// of Fig 6.  The batch-service mode of the same model shows what a gated
// micro-batcher does to the sojourn distribution.
//
// Part 2 (measured): the src/serving runtime actually runs requests
// through PhotonicBackend replicas.  At max_batch 1 and 70% utilization
// the runtime is a single-server queue with Poisson arrivals.  Its service
// time is not deterministic on a shared host (in-run p99 is about twice
// p50), so the oracle is the M/G/1 Pollaczek–Khinchine mean, fed the
// in-run service moments; the M/D/1 simulation and closed form stay beside
// it for the distribution.  A batched run then shows the throughput the
// amortised GEMM path buys at equal replica count.
//
// Run:  ./build/bench/edge_serving            # everything
//       ./build/bench/edge_serving --analytic-only
//       ./build/bench/edge_serving --measured-only --requests 6000
//       ./build/bench/edge_serving --json-out report.json
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "arch/electronic.hpp"
#include "arch/photonic.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/queueing.hpp"
#include "dataflow/analyzer.hpp"
#include "nn/mlp.hpp"
#include "nn/plan.hpp"
#include "nn/zoo.hpp"
#include "serving/load_gen.hpp"
#include "serving/server.hpp"
#include "telemetry/session.hpp"

namespace {

using namespace trident;

/// Mean per-request service time of `model` on one warm replica: `iters`
/// single-row runs of the compiled plan through a warm arena — the forward
/// a replica serves a batch of one with.
[[nodiscard]] double calibrate_service_s(const nn::Mlp& model,
                                         const core::PhotonicBackendConfig& cfg,
                                         int iters) {
  core::PhotonicBackend backend(cfg);
  const nn::ExecutionPlan plan(model);
  nn::PlanArena arena;
  Rng rng(0xCA1Bu);
  nn::Matrix x(1, plan.input_dim());
  for (double& v : x.data()) {
    v = rng.uniform(-1.0, 1.0);
  }
  (void)plan.run(backend, x, arena);  // warm: program the banks, size arena
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    (void)plan.run(backend, x, arena);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() / iters;
}

void analytic_tables() {
  using namespace trident::core;
  const auto model = nn::zoo::mobilenet_v2();
  std::cout << "=== Edge serving: " << model.name
            << " under Poisson load (70% utilization each) ===\n\n";

  Table t({"Accelerator", "Service (ms)", "Sustainable req/s", "p50 (ms)",
           "p99 (ms)", "p99 / service"});
  auto add = [&](const std::string& name, units::Time service) {
    QueueingConfig cfg;
    cfg.utilization = 0.7;
    const QueueingResult r = simulate_service(service, cfg);
    t.add_row({name, Table::num(service.ms(), 3),
               Table::num(r.arrival_rate, 0), Table::num(r.p50.ms(), 3),
               Table::num(r.p99.ms(), 3),
               Table::num(r.p99.s() / service.s(), 1) + "x"});
  };

  for (const auto& acc : arch::photonic_contenders()) {
    add(acc.name, dataflow::analyze_model(model, acc.array).latency);
  }
  for (const auto& board : arch::electronic_contenders()) {
    add(board.name, board.inference_latency(model));
  }
  std::cout << t;

  std::cout << "\nRising load on Trident (queueing blows the tail up near "
               "saturation):\n\n";
  Table u({"Utilization", "mean (ms)", "p99 (ms)"});
  const units::Time trident_service =
      dataflow::analyze_model(model, arch::make_trident().array).latency;
  for (double util : {0.3, 0.5, 0.7, 0.9, 0.97}) {
    QueueingConfig cfg;
    cfg.utilization = util;
    const QueueingResult r = simulate_service(trident_service, cfg);
    u.add_row({Table::num(util * 100.0, 0) + "%",
               Table::num(r.mean_sojourn.ms(), 3),
               Table::num(r.p99.ms(), 3)});
  }
  std::cout << u;

  std::cout << "\nGated batch service at 70% utilization (batch amortisation "
               "raises capacity;\nthe model anchors the runtime's "
               "micro-batcher):\n\n";
  Table b({"Batch", "req/s", "mean batch", "mean (ms)", "p99 (ms)"});
  for (int batch : {1, 2, 4, 8, 16}) {
    QueueingConfig cfg;
    cfg.utilization = 0.7;
    cfg.batch_size = batch;
    const QueueingResult r = simulate_service(trident_service, cfg);
    b.add_row({Table::num(batch, 0), Table::num(r.arrival_rate, 0),
               Table::num(r.mean_batch, 2), Table::num(r.mean_sojourn.ms(), 3),
               Table::num(r.p99.ms(), 3)});
  }
  std::cout << b;
}

/// Machine-readable twin of the measured-runtime tables, for CI artifacts.
/// Only the fields that were actually measured are emitted (the M/D/1 block
/// is skipped when the realised utilization was too close to saturation).
struct MeasuredReport {
  double calibrated_service_s = 0.0;
  double measured_service_s = 0.0;
  double realised_utilization = 0.0;
  bool md1_checked = false;
  double measured_mean_s = 0.0, measured_p50_s = 0.0, measured_p99_s = 0.0;
  double sim_mean_s = 0.0, sim_p50_s = 0.0, sim_p99_s = 0.0;
  double analytic_mean_s = 0.0;
  double mean_rel_err = 0.0;
  double service_mean_sq_s2 = 0.0;
  double mg1_mean_s = 0.0;
  double mg1_rel_err = 0.0;
  std::size_t max_batch = 0;
  double batch1_qps = 0.0;
  double batched_qps = 0.0;
  double batch_speedup = 0.0;
};

void write_json_report(const std::string& path, const MeasuredReport& r) {
  std::ofstream out(path);
  out << std::setprecision(12);
  out << "{\n"
      << "  \"benchmark\": \"edge_serving\",\n"
      << "  \"calibrated_service_s\": " << r.calibrated_service_s << ",\n"
      << "  \"measured_service_s\": " << r.measured_service_s << ",\n"
      << "  \"realised_utilization\": " << r.realised_utilization << ",\n"
      << "  \"md1_checked\": " << (r.md1_checked ? "true" : "false") << ",\n";
  if (r.md1_checked) {
    out << "  \"sojourn\": {\n"
        << "    \"measured_mean_s\": " << r.measured_mean_s << ",\n"
        << "    \"measured_p50_s\": " << r.measured_p50_s << ",\n"
        << "    \"measured_p99_s\": " << r.measured_p99_s << ",\n"
        << "    \"sim_mean_s\": " << r.sim_mean_s << ",\n"
        << "    \"sim_p50_s\": " << r.sim_p50_s << ",\n"
        << "    \"sim_p99_s\": " << r.sim_p99_s << ",\n"
        << "    \"analytic_mean_s\": " << r.analytic_mean_s << ",\n"
        << "    \"mean_rel_err\": " << r.mean_rel_err << ",\n"
        << "    \"service_mean_sq_s2\": " << r.service_mean_sq_s2 << ",\n"
        << "    \"mg1_mean_s\": " << r.mg1_mean_s << ",\n"
        << "    \"mg1_rel_err\": " << r.mg1_rel_err << "\n"
        << "  },\n";
  }
  out << "  \"throughput\": {\n"
      << "    \"max_batch\": " << r.max_batch << ",\n"
      << "    \"batch1_qps\": " << r.batch1_qps << ",\n"
      << "    \"batched_qps\": " << r.batched_qps << ",\n"
      << "    \"batch_speedup\": " << r.batch_speedup << "\n"
      << "  }\n"
      << "}\n";
  if (!out) {
    std::cerr << "warning: could not write " << path << "\n";
  }
}

int real_runtime(const CliArgs& args) {
  using core::QueueingConfig;
  using core::QueueingResult;

  const std::optional<std::string> json_out = args.value("json-out");
  MeasuredReport json_report;

  const int requests = args.value_int_positive("requests", 3000);
  const auto max_batch =
      static_cast<std::size_t>(args.value_int_positive("max-batch", 16));
  const double utilization = 0.7;

  Rng rng(0xED6Eu);
  const nn::Mlp model({512, 1024, 512, 10}, nn::Activation::kGstPhotonic, rng);
  core::PhotonicBackendConfig backend;  // noise-free, 8-bit

  const double service_s = calibrate_service_s(model, backend, 400);
  const double qps = utilization / service_s;
  std::cout << "\n=== Real runtime vs M/D/1 (batch=1, "
            << utilization * 100.0 << "% utilization) ===\n\n"
            << "calibrated service: " << service_s * 1e6 << " us  ->  "
            << qps << " req/s offered, " << requests << " requests\n";

  serving::ServerConfig cfg;
  cfg.replicas = 1;
  cfg.max_batch = 1;
  cfg.max_wait = std::chrono::microseconds(0);
  cfg.admission.capacity = static_cast<std::size_t>(requests) + 1;
  cfg.admission.policy = serving::OverloadPolicy::kBlock;
  cfg.backend = backend;

  nn::Vector probe(512);
  Rng input_rng = rng.split(7);
  for (double& v : probe) {
    v = input_rng.uniform(-1.0, 1.0);
  }

  serving::LoadGenConfig load;
  load.target_qps = qps;
  load.requests = requests;
  load.seed = 0xEDCEu;
  // Spin-tail pacing sharpens sub-millisecond arrivals, but on a host with
  // one or two cores the spinning generator steals the serving core and
  // corrupts the very latencies under test — sleep-only pacing there.
  load.precise_pacing = std::thread::hardware_concurrency() > 2;

  serving::Server server(model, cfg);
  const serving::LoadReport report =
      serving::run_poisson_load(server, load, [&](int) { return probe; });
  server.drain();

  // The oracle is parameterised from the run itself: the offered Poisson
  // rate is exact (open loop, absolute schedule) and the service time is
  // the measured per-request mean, so the comparison isolates the queueing
  // dynamics from host frequency drift between calibration and run.
  const double measured_service_s = report.service.mean_s;
  const double rho = qps * measured_service_s;
  json_report.calibrated_service_s = service_s;
  json_report.measured_service_s = measured_service_s;
  json_report.realised_utilization = rho;
  std::cout << "in-run service: " << measured_service_s * 1e6
            << " us mean  ->  realised utilization "
            << Table::num(rho * 100.0, 1) << "%\n";
  if (rho >= 0.95) {
    std::cout << "\nrealised utilization too close to saturation for a "
                 "stable comparison (host much slower under load than at "
                 "calibration) — skipping the M/D/1 check\n";
    if (json_out) {
      write_json_report(*json_out, json_report);
    }
    return 0;
  }
  QueueingConfig sim_cfg;
  sim_cfg.utilization = rho;
  sim_cfg.requests = std::max(requests, 20000);
  const QueueingResult sim = core::simulate_service(
      units::Time::seconds(measured_service_s), sim_cfg);
  const double analytic_mean_s =
      sim.analytic_mean_wait.s() + measured_service_s;
  // Pollaczek–Khinchine: E[T] = E[S] + λE[S²] / (2(1 − ρ)), with both
  // service moments taken from this run's own requests.
  const double mg1_mean_s =
      measured_service_s +
      qps * report.service_mean_sq_s2 / (2.0 * (1.0 - rho));

  Table t({"Sojourn", "measured (us)", "M/D/1 sim (us)",
           "M/D/1 analytic (us)", "M/G/1 analytic (us)"});
  t.add_row({"mean", Table::num(report.sojourn.mean_s * 1e6, 1),
             Table::num(sim.mean_sojourn.us(), 1),
             Table::num(analytic_mean_s * 1e6, 1),
             Table::num(mg1_mean_s * 1e6, 1)});
  t.add_row({"p50", Table::num(report.sojourn.p50_s * 1e6, 1),
             Table::num(sim.p50.us(), 1), "-", "-"});
  t.add_row({"p99", Table::num(report.sojourn.p99_s * 1e6, 1),
             Table::num(sim.p99.us(), 1), "-", "-"});
  std::cout << '\n' << t;
  std::cout << "in-run service p50 / p99: "
            << Table::num(report.service.p50_s * 1e6, 1) << " / "
            << Table::num(report.service.p99_s * 1e6, 1) << " us\n";

  const double rel_err =
      std::abs(report.sojourn.mean_s - analytic_mean_s) / analytic_mean_s;
  const double mg1_rel_err =
      std::abs(report.sojourn.mean_s - mg1_mean_s) / mg1_mean_s;
  json_report.md1_checked = true;
  json_report.measured_mean_s = report.sojourn.mean_s;
  json_report.measured_p50_s = report.sojourn.p50_s;
  json_report.measured_p99_s = report.sojourn.p99_s;
  json_report.sim_mean_s = sim.mean_sojourn.s();
  json_report.sim_p50_s = sim.p50.s();
  json_report.sim_p99_s = sim.p99.s();
  json_report.analytic_mean_s = analytic_mean_s;
  json_report.mean_rel_err = rel_err;
  json_report.service_mean_sq_s2 = report.service_mean_sq_s2;
  json_report.mg1_mean_s = mg1_mean_s;
  json_report.mg1_rel_err = mg1_rel_err;
  std::cout << "\nmean sojourn vs analytic M/D/1: "
            << Table::num(rel_err * 100.0, 1) << "% (deterministic service)\n"
            << "mean sojourn vs analytic M/G/1: "
            << Table::num(mg1_rel_err * 100.0, 1) << "% "
            << (mg1_rel_err <= 0.10 ? "(PASS, within 10%)"
                                    : "(WARN, outside 10%)")
            << "\n";

  // Throughput: saturate one replica and compare batch=1 against the
  // micro-batched GEMM path at equal replica count.
  std::cout << "\n=== Saturated throughput, 1 replica: batch=1 vs max_batch="
            << max_batch << " ===\n\n";
  Table s({"Config", "completed req/s", "mean batch", "speedup"});
  double base_qps = 0.0;
  for (const std::size_t mb : {std::size_t{1}, max_batch}) {
    serving::ServerConfig scfg;
    scfg.replicas = 1;
    scfg.max_batch = mb;
    scfg.max_wait = std::chrono::microseconds(mb == 1 ? 0 : 200);
    scfg.admission.capacity = 512;
    scfg.admission.policy = serving::OverloadPolicy::kBlock;
    scfg.backend = backend;
    serving::Server sat_server(model, scfg);
    serving::LoadGenConfig sat_load;
    // Well past single-replica capacity, anchored to the service time
    // measured during the run (calibration can drift on shared hosts).
    sat_load.target_qps = 4.0 / measured_service_s;
    sat_load.requests = requests;
    sat_load.seed = 0xEDCEu;
    const serving::LoadReport sat =
        serving::run_poisson_load(sat_server, sat_load,
                                  [&](int) { return probe; });
    sat_server.drain();
    const serving::ServerStats stats = sat_server.stats();
    if (mb == 1) {
      base_qps = sat.completed_qps;
      json_report.batch1_qps = sat.completed_qps;
    } else {
      json_report.max_batch = mb;
      json_report.batched_qps = sat.completed_qps;
      json_report.batch_speedup = sat.completed_qps / base_qps;
    }
    s.add_row({"max_batch=" + std::to_string(mb),
               Table::num(sat.completed_qps, 0),
               Table::num(stats.mean_batch, 2),
               Table::num(sat.completed_qps / base_qps, 2) + "x"});
  }
  std::cout << s;
  if (json_out) {
    write_json_report(*json_out, json_report);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  telemetry::TelemetrySession telemetry_session(args);

  if (!args.has_flag("measured-only")) {
    analytic_tables();
    if (args.has_flag("analytic-only")) {
      return 0;
    }
  }
  return real_runtime(args);
}
