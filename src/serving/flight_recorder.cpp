#include "serving/flight_recorder.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "state/snapshot.hpp"
#include "telemetry/exporters.hpp"

namespace trident::serving {

namespace {

[[nodiscard]] std::string format_double(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  return std::string(buf, ptr);
}

[[nodiscard]] const char* tier_label(ServingTier t) {
  return t == ServingTier::kFast ? "fast" : "exact";
}

void append_record_json(std::string& out, const FlightRecord& r,
                        bool deterministic) {
  out += "{\"trace\":" + std::to_string(r.trace_id);
  out += ",\"id\":" + std::to_string(r.request_id);
  out += ",\"outcome\":\"" + telemetry::json_escape(r.outcome) + '"';
  out += ",\"keep\":\"" + telemetry::json_escape(r.keep_reason) + '"';
  out += ",\"tier\":\"";
  out += tier_label(r.tier);
  out += '"';
  out += ",\"fallback\":";
  out += r.tier_fallback ? "true" : "false";
  out += ",\"attempts\":" + std::to_string(r.attempts);
  out += ",\"replica\":" + std::to_string(r.replica);
  out += ",\"incarnation\":" + std::to_string(r.incarnation);
  out += ",\"batch\":" + std::to_string(r.batch_size);
  out += ",\"slo_violated\":";
  out += r.slo_violated ? "true" : "false";
  out += ",\"deadline_missed\":";
  out += r.deadline_missed ? "true" : "false";
  out += ",\"attempt_log\":[";
  for (std::size_t i = 0; i < r.attempt_log.size(); ++i) {
    const AttemptNote& a = r.attempt_log[i];
    out += i == 0 ? "" : ",";
    out += "{\"replica\":" + std::to_string(a.replica);
    out += ",\"incarnation\":" + std::to_string(a.incarnation);
    out += ",\"error\":\"" + telemetry::json_escape(a.error) + "\"}";
  }
  out += ']';
  if (!deterministic) {
    // Wall-clock timings are real observations in a live dump but vary
    // run to run — deterministic mode omits them so a seeded soak
    // reproduces the dump byte-for-byte.
    out += ",\"timing\":{\"queue_wait_s\":" + format_double(r.timing.queue_wait_s);
    out += ",\"service_s\":" + format_double(r.timing.service_s);
    out += ",\"sojourn_s\":" + format_double(r.timing.sojourn_s) + '}';
  }
  out += '}';
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config)) {
  TRIDENT_REQUIRE(config_.capacity >= 1,
                  "flight recorder capacity must be positive");
  ring_.reserve(std::min<std::size_t>(config_.capacity, 4096));
}

std::string_view FlightRecorder::keep_reason(const FlightRecord& r) const {
  // Anomaly rules first: an anomalous request is always kept, whether or
  // not it also happens to be in the sample.
  if (r.outcome == "failed") {
    return "failed";
  }
  if (r.outcome == "shed") {
    return "shed";
  }
  if (r.slo_violated) {
    return "slo_violated";
  }
  if (r.deadline_missed) {
    return "deadline_missed";
  }
  if (r.attempts > 1 || !r.attempt_log.empty()) {
    return "retried";
  }
  if (config_.slow_threshold_s > 0.0 &&
      r.timing.sojourn_s > config_.slow_threshold_s) {
    return "slow";
  }
  if (config_.sample_every > 0 && r.trace_id % config_.sample_every == 0) {
    return "sampled";
  }
  return {};
}

void FlightRecorder::observe(FlightRecord record) {
  const std::string_view reason = keep_reason(record);
  std::lock_guard lock(mutex_);
  ++observed_;
  if (reason.empty()) {
    return;
  }
  record.keep_reason = std::string(reason);
  ++kept_;
  if (ring_.size() >= config_.capacity) {
    // Bounded by construction: drop the oldest record, count the loss.
    ring_.erase(ring_.begin());
    ++evicted_;
  }
  ring_.push_back(std::move(record));
}

std::string FlightRecorder::render(std::string_view reason) const {
  std::vector<FlightRecord> records;
  std::uint64_t observed = 0;
  std::uint64_t kept = 0;
  std::uint64_t evicted = 0;
  {
    std::lock_guard lock(mutex_);
    records = ring_;
    observed = observed_;
    kept = kept_;
    evicted = evicted_;
  }
  if (config_.deterministic) {
    // Ring order reflects worker-thread interleaving; trace-id order is a
    // property of the workload alone.
    std::stable_sort(records.begin(), records.end(),
                     [](const FlightRecord& a, const FlightRecord& b) {
                       return a.trace_id < b.trace_id;
                     });
  }
  std::string payload = "{\"flight_recorder_version\":1";
  payload += ",\"reason\":\"" + telemetry::json_escape(reason) + '"';
  payload += ",\"deterministic\":";
  payload += config_.deterministic ? "true" : "false";
  payload += ",\"observed\":" + std::to_string(observed);
  payload += ",\"kept\":" + std::to_string(kept);
  payload += ",\"evicted\":" + std::to_string(evicted);
  payload += ",\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i != 0) {
      payload += ',';
    }
    append_record_json(payload, records[i], config_.deterministic);
  }
  payload += "]}";

  char checksum[24];
  std::snprintf(checksum, sizeof(checksum), "%016" PRIx64,
                state::fnv1a64(payload));
  std::string out = "{\"schema\":\"trident-flight-v1\",\"checksum\":\"";
  out += checksum;
  out += "\",\"payload_bytes\":" + std::to_string(payload.size()) + "}\n";
  out += payload;
  out += '\n';
  return out;
}

void FlightRecorder::dump(const std::string& path,
                          std::string_view reason) const {
  state::atomic_write_file(path, render(reason));
  dumps_.fetch_add(1, std::memory_order_relaxed);
}

FlightDumpInfo FlightRecorder::verify(std::string_view bytes) {
  const std::size_t newline = bytes.find('\n');
  TRIDENT_REQUIRE(newline != std::string_view::npos,
                  "flight dump has no header line");
  const std::string_view header = bytes.substr(0, newline);
  TRIDENT_REQUIRE(header.find("\"schema\":\"trident-flight-v1\"") !=
                      std::string_view::npos,
                  "flight dump header missing schema marker");

  FlightDumpInfo info;
  constexpr std::string_view kChecksumKey = "\"checksum\":\"";
  const std::size_t cpos = header.find(kChecksumKey);
  TRIDENT_REQUIRE(cpos != std::string_view::npos,
                  "flight dump header missing checksum");
  const std::string_view hex =
      header.substr(cpos + kChecksumKey.size(), 16);
  TRIDENT_REQUIRE(hex.size() == 16, "flight dump checksum truncated");
  {
    const auto [ptr, ec] =
        std::from_chars(hex.data(), hex.data() + hex.size(), info.checksum, 16);
    TRIDENT_REQUIRE(ec == std::errc() && ptr == hex.data() + hex.size(),
                    "flight dump checksum is not 16 hex digits");
  }
  constexpr std::string_view kBytesKey = "\"payload_bytes\":";
  const std::size_t bpos = header.find(kBytesKey);
  TRIDENT_REQUIRE(bpos != std::string_view::npos,
                  "flight dump header missing payload_bytes");
  {
    const std::string_view tail = header.substr(bpos + kBytesKey.size());
    const auto [ptr, ec] = std::from_chars(
        tail.data(), tail.data() + tail.size(), info.payload_bytes);
    (void)ptr;
    TRIDENT_REQUIRE(ec == std::errc(), "flight dump payload_bytes malformed");
  }
  const std::string_view rest = bytes.substr(newline + 1);
  TRIDENT_REQUIRE(rest.size() >= info.payload_bytes,
                  "flight dump payload shorter than advertised");
  const std::string_view payload = rest.substr(0, info.payload_bytes);
  TRIDENT_REQUIRE(state::fnv1a64(payload) == info.checksum,
                  "flight dump checksum mismatch (corrupted file)");
  info.payload = std::string(payload);
  return info;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard lock(mutex_);
  return ring_.size();
}

std::vector<FlightRecord> FlightRecorder::records() const {
  std::lock_guard lock(mutex_);
  return ring_;
}

std::uint64_t FlightRecorder::observed() const {
  std::lock_guard lock(mutex_);
  return observed_;
}

std::uint64_t FlightRecorder::kept() const {
  std::lock_guard lock(mutex_);
  return kept_;
}

std::uint64_t FlightRecorder::evicted() const {
  std::lock_guard lock(mutex_);
  return evicted_;
}

std::uint64_t FlightRecorder::dumps() const {
  return dumps_.load(std::memory_order_relaxed);
}

}  // namespace trident::serving
