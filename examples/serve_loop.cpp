// Edge-serving loop: the real concurrent runtime under open-loop Poisson
// load.
//
// Spins up N accelerator replicas behind the admission-controlled
// micro-batching queue, offers `--target-qps` Poisson traffic for
// `--duration-s` seconds, then reports delivery, throughput, the sojourn
// percentiles, and the aggregate hardware bill.  With `--metrics-out` the
// telemetry snapshot carries the same numbers as exported histograms
// (including bucket-estimated p50/p90/p99) — the serving-smoke CI job
// validates that artifact.
//
// With `--chaos-seed S` the run layers a seeded FaultPlan over every
// replica backend (see docs/chaos.md): transient errors exercise the
// retry budget, `--chaos-kill-op K` scripts replica 0's death at its K-th
// backend op so the supervisor restart path runs, and the exit status
// enforces the chaos invariants (conservation laws + energy books)
// instead of the fault-free "nothing failed" check.  The same seed
// reproduces the same injection schedule, and the exported
// trident_chaos_*_total counters are the injection log itself.
//
// With `--checkpoint-dir D` the serving weights are persisted to
// `D/serving.tsnap` as an atomic state::Snapshot before traffic starts and
// the heal path restores from it: a chaos-killed replica comes back
// serving the snapshot weights (see docs/state.md), and the exit status
// additionally requires every restart to have gone through the snapshot.
//
// Run:  ./build/examples/serve_loop --replicas 2 --max-batch 8
//           --max-wait-us 200 --target-qps 2000 --duration-s 1
//       ./build/examples/serve_loop --chaos-seed 7 --chaos-kill-op 40
//           --checkpoint-dir /tmp/serve-ckpt
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "chaos/chaos_backend.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "serving/load_gen.hpp"
#include "serving/server.hpp"
#include "serving/flight_recorder.hpp"
#include "state/snapshot.hpp"
#include "telemetry/health.hpp"
#include "telemetry/session.hpp"

int main(int argc, char** argv) {
  using namespace trident;
  const CliArgs args(argc, argv);
  telemetry::TelemetrySession telemetry_session(args);

  serving::ServerConfig cfg;
  cfg.replicas = args.value_int_positive("replicas", 2);
  cfg.max_batch =
      static_cast<std::size_t>(args.value_int_positive("max-batch", 8));
  cfg.max_wait =
      std::chrono::microseconds(args.value_int_positive("max-wait-us", 200));
  cfg.admission.capacity = static_cast<std::size_t>(
      args.value_int_positive("queue-cap", 4096));
  cfg.admission.policy = args.has_flag("block")
                             ? serving::OverloadPolicy::kBlock
                             : serving::OverloadPolicy::kReject;
  cfg.slo_target_s = args.value_double("slo-ms", 50.0) * 1e-3;

  // Black-box flight recorder: --flight-out enables tail-based request
  // retention and points the automatic replica-death/exit dumps at FILE.
  // --flight-deterministic makes the dump byte-stable under a fixed seed
  // (timings omitted, records ordered by trace id); the exit status then
  // verifies the artifact's checksum round-trips.
  const std::optional<std::string> flight_out = args.value("flight-out");
  if (flight_out.has_value()) {
    cfg.flight.enabled = true;
    cfg.flight.dump_path = *flight_out;
    cfg.flight.capacity = static_cast<std::size_t>(
        args.value_int_positive("flight-capacity", 4096));
    cfg.flight.sample_every = static_cast<std::uint64_t>(
        args.value_int("flight-sample-every", 64));
    cfg.flight.slow_threshold_s =
        args.value_double("flight-slow-ms", 0.0) * 1e-3;
    cfg.flight.deterministic = args.has_flag("flight-deterministic");
  }

  // Chaos wiring: --chaos-seed turns every replica backend into a
  // ChaosBackend driven by one seeded FaultPlan.  All knobs funnel through
  // the hardened CLI parsers so a typo'd rate fails loudly.
  const bool chaos_on = args.value("chaos-seed").has_value();
  std::shared_ptr<const chaos::FaultPlan> plan;
  std::shared_ptr<chaos::InjectionLog> injection_log;
  if (chaos_on) {
    injection_log = std::make_shared<chaos::InjectionLog>();
    const auto chaos_seed =
        static_cast<std::uint64_t>(args.value_int("chaos-seed", 0));
    chaos::FaultPlanConfig plan_cfg;
    plan_cfg.transient_error_rate =
        args.value_double("chaos-transient-rate", 0.005);
    plan_cfg.nan_rate = args.value_double("chaos-nan-rate", 0.001);
    plan_cfg.stuck_read_rate = args.value_double("chaos-stuck-rate", 0.0);
    plan_cfg.stall_rate = args.value_double("chaos-stall-rate", 0.0);
    const int kill_op = args.value_int("chaos-kill-op", -1);
    if (kill_op >= 0) {
      plan_cfg.deaths.emplace_back(0, static_cast<std::uint64_t>(kill_op));
    }
    plan = std::make_shared<const chaos::FaultPlan>(plan_cfg, chaos_seed);
    cfg.backend_factory =
        chaos::chaos_photonic_factory(plan, injection_log);
    cfg.max_attempts = args.value_int_positive("max-attempts", 5);
    cfg.supervision_interval = std::chrono::microseconds(500);
  }

  serving::LoadGenConfig load;
  load.target_qps = args.value_double_positive("target-qps", 2000.0);
  const double duration_s = args.value_double_positive("duration-s", 1.0);
  load.requests = std::max(1, static_cast<int>(load.target_qps * duration_s));
  load.seed = static_cast<std::uint64_t>(args.value_int("seed", 0x5e12));

  // A small edge model with fixed weights.  Each multi-layer forward cycles
  // the bank through the layer matrices, so program events scale with batches
  // served, not with requests — micro-batching amortises the writes.
  Rng rng(load.seed);
  const nn::Mlp model({64, 128, 64, 10}, nn::Activation::kGstPhotonic, rng);

  // Crash-safe weight state: persist the serving model as an atomic
  // snapshot and point the heal path at it, so a killed replica comes back
  // serving these weights from disk instead of cloning in-memory state.
  const std::optional<std::string> checkpoint_dir = args.value("checkpoint-dir");
  if (checkpoint_dir.has_value()) {
    std::filesystem::create_directories(*checkpoint_dir);
    cfg.snapshot_path =
        (std::filesystem::path(*checkpoint_dir) / "serving.tsnap").string();
    state::Snapshot snap;
    snap.model = state::capture_model(model);
    snap.save(cfg.snapshot_path);
  }

  std::cout << "=== serve_loop: " << cfg.replicas << " replica(s), max_batch "
            << cfg.max_batch << ", max_wait " << cfg.max_wait.count()
            << " us, " << load.target_qps << " req/s for " << duration_s
            << " s (" << load.requests << " requests) ===\n";
  if (chaos_on) {
    std::cout << "chaos     seed " << plan->seed() << ", transient rate "
              << plan->config().transient_error_rate << ", nan rate "
              << plan->config().nan_rate << ", scripted deaths "
              << plan->config().deaths.size() << " (rerun with --chaos-seed "
              << plan->seed() << " to reproduce)\n";
  }

  serving::Server server(model, cfg);
  Rng input_rng = rng.split(1);
  std::vector<nn::Vector> inputs;
  inputs.reserve(static_cast<std::size_t>(std::min(load.requests, 256)));
  for (int i = 0; i < std::min(load.requests, 256); ++i) {
    nn::Vector x(64);
    for (double& v : x) {
      v = input_rng.uniform(-1.0, 1.0);
    }
    inputs.push_back(std::move(x));
  }
  const serving::LoadReport report = serving::run_poisson_load(
      server, load,
      [&](int i) { return inputs[static_cast<std::size_t>(i) % inputs.size()]; });
  server.drain();
  const serving::ServerStats stats = server.stats();

  std::cout << "offered   " << report.offered << " (" << report.offered_qps
            << " req/s realised)\n"
            << "accepted  " << report.accepted << ", shed " << report.shed
            << "\n"
            << "completed " << stats.completed << " in " << stats.batches
            << " batches (mean batch " << stats.mean_batch << ")\n"
            << "goodput   " << report.completed_qps << " req/s\n"
            << "sojourn   p50 " << report.sojourn.p50_s * 1e3 << " ms, p90 "
            << report.sojourn.p90_s * 1e3 << " ms, p99 "
            << report.sojourn.p99_s * 1e3 << " ms, max "
            << report.sojourn.max_s * 1e3 << " ms\n"
            << "queue     p50 " << report.queue_wait.p50_s * 1e3
            << " ms, p99 " << report.queue_wait.p99_s * 1e3 << " ms\n"
            << "service   p50 " << report.service.p50_s * 1e3 << " ms, p99 "
            << report.service.p99_s * 1e3 << " ms\n"
            << "SLO       " << stats.slo_violations << " violation(s) of "
            << cfg.slo_target_s * 1e3 << " ms\n"
            << "hardware  " << stats.ledger.energy().mJ() << " mJ, "
            << stats.ledger.program_events << " bank program event(s)\n";

  // SLO burn-rate health decision over the run: one baseline sample at
  // t=0, one at the end, so the short/long windows both cover the whole
  // run.  Counters come from the server's own accounting (works with
  // telemetry off); the energy gauge is ledger-derived.
  telemetry::HealthMonitor health_monitor;
  {
    telemetry::HealthSample baseline;
    baseline.t_s = 0.0;
    health_monitor.update(baseline);
    telemetry::HealthSample now;
    now.t_s = duration_s;
    now.completed = stats.completed;
    now.slo_violations = stats.slo_violations;
    now.shed = stats.shed;
    now.degraded = stats.failed;
    now.p99_s = stats.sojourn.p99_s;
    if (stats.completed > 0) {
      now.energy_per_inference_j =
          stats.ledger.energy().J() / static_cast<double>(stats.completed);
    }
    const telemetry::HealthReport hr = health_monitor.update(now);
    std::cout << "health    " << telemetry::to_string(hr.state) << " ("
              << hr.reason << "); burn slo " << hr.slo.short_burn << ", shed "
              << hr.shed.short_burn << ", degraded " << hr.degraded.short_burn
              << "\n";
  }

  if (flight_out.has_value() && server.flight_recorder() != nullptr) {
    const serving::FlightRecorder& fr = *server.flight_recorder();
    std::cout << "flight    " << fr.kept() << " kept of " << fr.observed()
              << " observed (" << fr.evicted() << " evicted), "
              << fr.dumps() << " dump(s) -> " << *flight_out << "\n";
  }

  if (chaos_on) {
    const chaos::InjectionCounts injected = injection_log->snapshot();
    std::cout << "injected  " << injected.transient_errors << " transient, "
              << injected.nans << " NaN, " << injected.stuck_reads
              << " stuck, " << injected.stalls << " stall(s), "
              << injected.deaths << " death(s)\n"
              << "healing   " << stats.retries << " retries, "
              << stats.replica_deaths << " replica death(s), "
              << stats.replica_restarts << " restart(s), " << stats.failed
              << " degraded kFailed response(s)\n";
    if (checkpoint_dir.has_value()) {
      std::cout << "restore   " << stats.snapshot_restores
                << " snapshot restore(s), " << stats.snapshot_restore_failures
                << " failure(s) from " << cfg.snapshot_path << "\n";
    }
    for (const serving::ReplicaHealth& h : server.health()) {
      std::cout << "replica " << h.index << " incarnation " << h.incarnation
                << ", " << h.batches << " batch(es)\n";
    }
  }

  // Delivery guarantee: drain() must have served everything accepted.
  if (stats.completed + stats.failed !=
      static_cast<std::uint64_t>(report.accepted)) {
    std::cerr << "ERROR: accepted " << report.accepted << " but completed "
              << stats.completed << " (+" << stats.failed << " failed)\n";
    return 1;
  }
  if (chaos_on) {
    // Under chaos, explicit degraded responses are legal; the conservation
    // laws are the pass/fail line.  This process runs no PhotonicBackend
    // outside the server, so the energy books can be audited against the
    // per-pulse trident_ledger_* counters too.
    const chaos::InvariantReport invariants = chaos::check_soak(
        server, stats, &report, /*ledger_books=*/true);
    if (!invariants.ok()) {
      std::cerr << "ERROR: chaos invariants violated (--chaos-seed "
                << plan->seed() << " reproduces):\n"
                << invariants.to_string();
      return 1;
    }
    if (checkpoint_dir.has_value() &&
        stats.snapshot_restores != stats.replica_restarts) {
      std::cerr << "ERROR: " << stats.replica_restarts << " restart(s) but "
                << stats.snapshot_restores
                << " snapshot restore(s) — a heal bypassed the checkpoint\n";
      return 1;
    }
    std::cout << "invariants all conservation laws hold\n";
  } else if (stats.failed != 0) {
    std::cerr << "ERROR: " << stats.failed << " request(s) failed\n";
    return 1;
  }
  if (flight_out.has_value()) {
    // The drain dump must exist, round-trip its checksum, and — when a
    // scripted death fired — show the cross-incarnation retry history.
    try {
      std::FILE* f = std::fopen(flight_out->c_str(), "rb");
      if (f == nullptr) {
        std::cerr << "ERROR: flight dump " << *flight_out
                  << " was not written\n";
        return 1;
      }
      std::string bytes;
      char buf[1 << 16];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        bytes.append(buf, n);
      }
      std::fclose(f);
      const serving::FlightDumpInfo info =
          serving::FlightRecorder::verify(bytes);
      if (stats.replica_deaths > 0 &&
          info.payload.find("\"error\":") == std::string::npos) {
        std::cerr << "ERROR: flight dump records no failed attempt despite "
                  << stats.replica_deaths << " replica death(s)\n";
        return 1;
      }
      std::cout << "flight    dump verified (" << info.payload_bytes
                << " payload bytes, checksum ok)\n";
    } catch (const std::exception& e) {
      std::cerr << "ERROR: flight dump invalid: " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}
