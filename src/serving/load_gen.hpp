// Open-loop Poisson load generator.
//
// Drives a Server with the same arrival process the analytic model in
// core/queueing assumes: exponential inter-arrival gaps, scheduled on an
// *absolute* timeline fixed before the run starts.  Open-loop means a slow
// server does not slow the arrivals down — the backlog grows instead,
// which is what real edge traffic does and what makes the measured sojourn
// comparable to the M/D/1 prediction.
#pragma once

#include <cstdint>
#include <functional>

#include "nn/matrix.hpp"
#include "serving/server.hpp"
#include "serving/slo.hpp"

namespace trident::serving {

struct LoadGenConfig {
  /// Offered arrival rate λ.  0 is a legal degenerate load: nothing ever
  /// arrives and run_poisson_load returns an empty report immediately.
  double target_qps = 1000.0;
  /// Total arrivals to offer (0 = empty timeline, returns immediately).
  int requests = 1000;
  std::uint64_t seed = 0x10ADull;
  /// Spin (rather than sleep) for the tail of each inter-arrival gap to
  /// keep the arrival process faithful at sub-millisecond rates.  The
  /// spin window is bounded, so long gaps still sleep.
  bool precise_pacing = true;
};

/// What one load run measured.  Latency summaries are computed from the
/// responses' own timing stamps (admission → completion), so they hold
/// with telemetry compiled out.
struct LoadReport {
  int offered = 0;
  int accepted = 0;
  int shed = 0;
  double duration_s = 0.0;      ///< first arrival to last response
  double offered_qps = 0.0;     ///< realised arrival rate
  double completed_qps = 0.0;   ///< goodput
  LatencySummary sojourn;
  LatencySummary queue_wait;
  LatencySummary service;
  /// E[S²] of the per-request service times: with service.mean_s, what the
  /// M/G/1 Pollaczek–Khinchine mean needs.
  double service_mean_sq_s2 = 0.0;
};

/// Offers `config.requests` Poisson arrivals to `server` and blocks until
/// every accepted request completes.  `make_input` produces the i-th
/// request payload (called on the generator thread, in arrival order).
[[nodiscard]] LoadReport run_poisson_load(
    Server& server, const LoadGenConfig& config,
    const std::function<nn::Vector(int)>& make_input);

}  // namespace trident::serving
