// Telemetry subsystem: registry semantics (collectors included), span
// recording, exporter formats, the runtime switch, and the ledger-mirror
// exactness contract.
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/photonic_backend.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/session.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace trident::telemetry {
namespace {

/// Restores the global switch and drains the trace buffer around each test
/// (the registry and buffer are process-wide singletons).
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    TraceBuffer::global().clear();
  }
  void TearDown() override {
    set_enabled(false);
    TraceBuffer::global().clear();
  }
};

/// Tests that need the runtime switch to actually flip can't run when the
/// subsystem is compiled out (set_enabled is a no-op there).
#define TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT()                   \
  do {                                                             \
    if (!compiled_in()) {                                          \
      GTEST_SKIP() << "built with -DTRIDENT_TELEMETRY=OFF";        \
    }                                                              \
  } while (false)

// --- registry ---------------------------------------------------------------

TEST_F(TelemetryTest, CounterAccumulatesAndResets) {
  Counter& c = MetricsRegistry::global().counter("test_counter_total", "t");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryTest, ReRegistrationReturnsSameInstrument) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& a = reg.counter("test_shared_total", "first help");
  Counter& b = reg.counter("test_shared_total", "second help ignored");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = reg.gauge("test_shared_gauge");
  Gauge& g2 = reg.gauge("test_shared_gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST_F(TelemetryTest, InvalidMetricNamesAreRejected) {
  MetricsRegistry& reg = MetricsRegistry::global();
  EXPECT_THROW((void)reg.counter("has space"), Error);
  EXPECT_THROW((void)reg.counter("0leading_digit"), Error);
  EXPECT_THROW((void)reg.counter(""), Error);
  EXPECT_THROW((void)reg.gauge("dash-not-allowed"), Error);
  EXPECT_NO_THROW((void)reg.counter("ok_name:with_colon_09"));
}

TEST_F(TelemetryTest, GaugeSetAndAdd) {
  Gauge& g = MetricsRegistry::global().gauge("test_gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST_F(TelemetryTest, HistogramBucketsAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 3.0});
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (le is inclusive)
  h.observe(1.5);   // bucket 1
  h.observe(100.0); // +Inf bucket
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 0u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 103.0);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST_F(TelemetryTest, EmptyHistogramMinMaxAreNaN) {
  Histogram h({1.0});
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.max));
}

TEST_F(TelemetryTest, HistogramQuantileInterpolatesWithinBuckets) {
  Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 8; ++i) {
    h.observe(0.5);  // all mass in bucket 0, min 0.5
  }
  h.observe(1.5);   // bucket 1
  h.observe(3.0);   // bucket 2
  const HistogramSnapshot s = h.snapshot();
  // p50 rank = 5 of 10 -> inside bucket 0, interpolated between min and le=1.
  const double p50 = s.quantile(0.5);
  EXPECT_GE(p50, 0.5);
  EXPECT_LE(p50, 1.0);
  // p99 rank = 10 of 10 -> last occupied bucket, upper edge clamped to max.
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 3.0);
  // q=0 takes the first sample's bucket floor.
  EXPECT_GE(s.quantile(0.0), 0.5);
}

TEST_F(TelemetryTest, HistogramQuantileEmptyIsNaNAndSingleIsExactish) {
  Histogram empty({1.0});
  EXPECT_TRUE(std::isnan(empty.snapshot().quantile(0.5)));
  Histogram one({10.0});
  one.observe(3.25);
  const HistogramSnapshot s = one.snapshot();
  // min == max tighten the bucket to the single sample.
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.25);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 3.25);
}

TEST_F(TelemetryTest, HistogramQuantilesAreMonotone) {
  Histogram h({0.001, 0.01, 0.1, 1.0});
  for (int i = 1; i <= 100; ++i) {
    h.observe(0.002 * static_cast<double>(i));
  }
  const HistogramSnapshot s = h.snapshot();
  const double p50 = s.quantile(0.5);
  const double p90 = s.quantile(0.9);
  const double p99 = s.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, s.min);
  EXPECT_LE(p99, s.max);
}

TEST_F(TelemetryTest, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
  EXPECT_THROW(Histogram({1.0, 1.0}), Error);
}

TEST_F(TelemetryTest, CountersSurviveValueReset) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test_reset_total");
  c.add(7);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed
  c.add(1);
  EXPECT_EQ(reg.snapshot().counter_value("test_reset_total"), 1u);
}

TEST_F(TelemetryTest, SnapshotIsSortedByName) {
  MetricsRegistry& reg = MetricsRegistry::global();
  (void)reg.counter("test_zzz_total");
  (void)reg.counter("test_aaa_total");
  const MetricsSnapshot s = reg.snapshot();
  for (std::size_t i = 1; i < s.counters.size(); ++i) {
    EXPECT_LT(s.counters[i - 1].name, s.counters[i].name);
  }
}

// --- collectors -------------------------------------------------------------
//
// No skip when telemetry is compiled out: collection reads an owner's books
// and ignores the runtime switch.  Each test owns a private registry.

/// A stand-in owner: one book, collected under `name`.
struct Book {
  Book(MetricsRegistry& reg, std::string name)
      : handle(reg.add_collector([this, name = std::move(name)] {
          return std::vector<CounterSample>{{name, "a book", count.load()}};
        })) {}

  std::atomic<std::uint64_t> count{0};
  MetricsRegistry::CollectorHandle handle;  ///< last: folds while count lives
};

TEST_F(TelemetryTest, LiveCollectorShowsInSnapshot) {
  MetricsRegistry reg;
  (void)reg.counter("test_aaa_total");
  Book book(reg, "test_book_total");
  EXPECT_EQ(reg.snapshot().counter_value("test_book_total"), 0u);
  book.count = 5;
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("test_book_total"), 5u);
  // Collected names join the registry's own in one name-sorted list.
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "test_aaa_total");
  EXPECT_EQ(snap.counters[1].name, "test_book_total");
  EXPECT_EQ(snap.counters[1].help, "a book");
  // The registry reads the book; it keeps no copy of its own.
  EXPECT_EQ(reg.counter("test_book_total").value(), 0u);
}

TEST_F(TelemetryTest, CollectorsOfOneNameSum) {
  MetricsRegistry reg;
  reg.counter("test_book_total").add(1);
  Book a(reg, "test_book_total");
  Book b(reg, "test_book_total");
  a.count = 3;
  b.count = 4;
  const MetricsSnapshot snap = reg.snapshot();
  // The registry's own counter and both owners add into one entry.
  EXPECT_EQ(snap.counter_value("test_book_total"), 8u);
  EXPECT_EQ(snap.counters.size(), 1u);
}

TEST_F(TelemetryTest, DestroyedCollectorFoldsItsLastReading) {
  MetricsRegistry reg;
  {
    Book book(reg, "test_book_total");
    book.count = 6;
  }
  EXPECT_EQ(reg.counter("test_book_total").value(), 6u);
  EXPECT_EQ(reg.snapshot().counter_value("test_book_total"), 6u);
  // A later owner of the name adds to the fold.
  Book next(reg, "test_book_total");
  next.count = 2;
  EXPECT_EQ(reg.snapshot().counter_value("test_book_total"), 8u);
}

TEST_F(TelemetryTest, ResetValuesZeroesFoldsAndLeavesLiveOwnersAlone) {
  MetricsRegistry reg;
  {
    Book dead(reg, "test_book_total");
    dead.count = 10;
  }
  Book live(reg, "test_book_total");
  live.count = 3;
  reg.reset_values();
  EXPECT_EQ(reg.counter("test_book_total").value(), 0u);
  EXPECT_EQ(reg.snapshot().counter_value("test_book_total"), 3u);
  EXPECT_EQ(live.count.load(), 3u);
}

TEST_F(TelemetryTest, MovedCollectorHandleFoldsOnce) {
  MetricsRegistry reg;
  std::atomic<std::uint64_t> count{4};
  {
    MetricsRegistry::CollectorHandle outer;
    {
      MetricsRegistry::CollectorHandle inner = reg.add_collector([&count] {
        return std::vector<CounterSample>{
            {"test_moved_total", "", count.load()}};
      });
      outer = std::move(inner);
    }  // the moved-from handle unregisters nothing
    EXPECT_EQ(reg.counter("test_moved_total").value(), 0u);
    EXPECT_EQ(reg.snapshot().counter_value("test_moved_total"), 4u);
  }
  EXPECT_EQ(reg.counter("test_moved_total").value(), 4u);
  EXPECT_EQ(reg.snapshot().counter_value("test_moved_total"), 4u);
}

// --- switch -----------------------------------------------------------------

TEST_F(TelemetryTest, SwitchDefaultsOffAndToggles) {
  EXPECT_FALSE(enabled());
  set_enabled(true);
  // Compiled out, set_enabled is a no-op and enabled() stays constexpr false.
  EXPECT_EQ(enabled(), compiled_in());
  set_enabled(false);
  EXPECT_FALSE(enabled());
}

// --- spans ------------------------------------------------------------------

TEST_F(TelemetryTest, DisabledSpanRecordsNothing) {
  {
    Span s("never", "test");
  }
  EXPECT_EQ(TraceBuffer::global().size(), 0u);
}

TEST_F(TelemetryTest, EnabledSpanRecordsCompleteEvent) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  set_enabled(true);
  {
    Span s("work", "test");
  }
  const auto events = TraceBuffer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_STREQ(events[0].category, "test");
  EXPECT_GE(events[0].ts_us, 0.0);
  EXPECT_GE(events[0].dur_us, 0.0);
}

TEST_F(TelemetryTest, SpanEndIsIdempotent) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  set_enabled(true);
  Span s("once", "test");
  s.end();
  s.end();
  EXPECT_EQ(TraceBuffer::global().size(), 1u);
}

TEST_F(TelemetryTest, MovedFromSpanDoesNotDoubleRecord) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  set_enabled(true);
  {
    Span a("moved", "test");
    Span b = std::move(a);
  }
  EXPECT_EQ(TraceBuffer::global().size(), 1u);
}

TEST_F(TelemetryTest, SnapshotIsSortedByStartAcrossThreads) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 10; ++i) {
        Span s("t", "test");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const auto events = TraceBuffer::global().snapshot();
  EXPECT_EQ(events.size(), 40u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
}

TEST_F(TelemetryTest, CapacityDropsAreCounted) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  TraceBuffer& buf = TraceBuffer::global();
  buf.set_thread_capacity(2);
  set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    Span s("overflow", "test");
  }
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.dropped(), 3u);
  buf.set_thread_capacity(1u << 20);
  buf.clear();
  EXPECT_EQ(buf.dropped(), 0u);
}

// --- request-scoped tracing -------------------------------------------------

TEST_F(TelemetryTest, InternCategoryIsIdempotentAndOutlivesCaller) {
  const char* a;
  {
    // Dynamically built, immediately destroyed — the interned copy must
    // not dangle.
    std::string transient = std::string("serving/") + "batch";
    a = intern_category(transient);
  }
  const char* b = intern_category(std::string("serving/") + "batch");
  EXPECT_EQ(a, b);  // same pointer, not just equal content
  EXPECT_STREQ(a, "serving/batch");
  EXPECT_NE(intern_category("serving/other"), a);
}

TEST_F(TelemetryTest, CurrentTraceDefaultsInactive) {
  EXPECT_FALSE(current_trace().active());
  EXPECT_EQ(current_trace(), (TraceContext{}));
}

TEST_F(TelemetryTest, TraceScopeInstallsAndRestoresContext) {
  const TraceContext outer{7, 3};
  {
    TraceScope a(outer);
    EXPECT_EQ(current_trace(), outer);
    {
      TraceScope b(TraceContext{9, 1});
      EXPECT_EQ(current_trace(), (TraceContext{9, 1}));
    }
    EXPECT_EQ(current_trace(), outer);
  }
  EXPECT_FALSE(current_trace().active());
}

TEST_F(TelemetryTest, SpanInheritsCurrentTraceAsParent) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  set_enabled(true);
  std::uint64_t root_span = 0;
  {
    Span root("request", "serving", TraceContext{42, 0});
    ASSERT_TRUE(root.context().active());
    root_span = root.context().span_id;
    EXPECT_NE(root_span, 0u);
    TraceScope scope(root.context());
    Span child("layer0", "mlp");  // default ctor: inherits thread context
    EXPECT_EQ(child.context().trace_id, 42u);
    EXPECT_NE(child.context().span_id, root_span);
  }
  const auto events = TraceBuffer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  for (const auto& e : events) {
    EXPECT_EQ(e.trace_id, 42u);
    if (e.name == "layer0") {
      EXPECT_EQ(e.parent_id, root_span);
    } else {
      EXPECT_EQ(e.parent_id, 0u);  // trace root
    }
  }
}

TEST_F(TelemetryTest, UntracedSpanAllocatesNoSpanId) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  set_enabled(true);
  {
    Span s("plain", "test");
    EXPECT_FALSE(s.context().active());
  }
  const auto events = TraceBuffer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, 0u);
  EXPECT_EQ(events[0].span_id, 0u);
  EXPECT_EQ(events[0].parent_id, 0u);
}

TEST_F(TelemetryTest, RecordEventInternsCategoryAndStampsTid) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  TraceBuffer& buf = TraceBuffer::global();
  TraceEvent ev;
  ev.name = "request/queue_wait";
  {
    const std::string transient = "serving";
    ev.category = transient.c_str();
    ev.trace_id = 5;
    ev.args = "\"id\":4";
    buf.record(std::move(ev));
  }
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].category, intern_category("serving"));  // same pointer
  EXPECT_EQ(events[0].trace_id, 5u);
  EXPECT_EQ(events[0].args, "\"id\":4");
}

TEST_F(TelemetryTest, DroppedCounterMirrorsMultiThreadPressure) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  TraceBuffer& buf = TraceBuffer::global();
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  const std::uint64_t counter_before =
      before.counter_value("trident_trace_dropped_total");
  buf.set_thread_capacity(4);
  set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) {
        Span s("pressure", "test");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  set_enabled(false);
  // Each fresh thread buffers its first 4 events and drops the other 96.
  EXPECT_EQ(buf.size(), 16u);
  EXPECT_EQ(buf.dropped(), 384u);
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  EXPECT_EQ(after.counter_value("trident_trace_dropped_total") -
                counter_before,
            384u);
  buf.set_thread_capacity(1u << 20);
  buf.clear();
  // clear() rewinds the buffer's own tally but never the lifetime counter.
  EXPECT_EQ(buf.dropped(), 0u);
  const MetricsSnapshot final_snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(final_snap.counter_value("trident_trace_dropped_total") -
                counter_before,
            384u);
}

// --- chrome trace exporter --------------------------------------------------

TEST_F(TelemetryTest, EmptyTraceIsExactMinimalDocument) {
  EXPECT_EQ(chrome_trace_json({}),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}");
}

TEST_F(TelemetryTest, EventNamesAreJsonEscaped) {
  std::vector<TraceEvent> events;
  events.push_back({"layer \"x\"\\with\nnewline\tand\x01"
                    "ctrl",
                    "cat", 1.0, 2.0, 3});
  const std::string json = chrome_trace_json(events);
  EXPECT_NE(json.find("layer \\\"x\\\"\\\\with\\nnewline\\tand\\u0001ctrl"),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
}

TEST_F(TelemetryTest, TimestampsRoundToNanosecondsWithoutScientific) {
  std::vector<TraceEvent> events;
  events.push_back({"a", "c", 1.23456789, 0.00049, 0});       // rounds
  events.push_back({"b", "c", 123456789012.25, 2.5, 0});      // large, exact
  const std::string json = chrome_trace_json(events);
  EXPECT_NE(json.find("\"ts\":1.235,"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0,"), std::string::npos);  // below 0.5 ns
  EXPECT_NE(json.find("\"ts\":123456789012.25,"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.5,"), std::string::npos);
  // Never scientific notation, however large the timestamp.
  EXPECT_EQ(json.find("e+"), std::string::npos);
  EXPECT_EQ(json.find("E+"), std::string::npos);
}

TEST_F(TelemetryTest, FormatTraceUsTrimsAndClamps) {
  EXPECT_EQ(format_trace_us(0.0), "0");
  EXPECT_EQ(format_trace_us(3.0), "3");
  EXPECT_EQ(format_trace_us(2.5), "2.5");
  EXPECT_EQ(format_trace_us(2.50), "2.5");
  EXPECT_EQ(format_trace_us(0.001), "0.001");
  EXPECT_EQ(format_trace_us(-1.0), "0");  // clock misuse clamps
  EXPECT_EQ(format_trace_us(std::nan("")), "0");
}

TEST_F(TelemetryTest, ChromeTraceExportsTraceCorrelationArgs) {
  std::vector<TraceEvent> events;
  TraceEvent traced;
  traced.name = "serve";
  traced.category = "serving";
  traced.ts_us = 1.0;
  traced.dur_us = 2.0;
  traced.trace_id = 7;
  traced.span_id = 12;
  traced.parent_id = 3;
  traced.args = "\"replica\":1,\"attempt\":2";
  events.push_back(traced);
  TraceEvent root = traced;
  root.name = "request";
  root.parent_id = 0;  // trace root: parent key omitted entirely
  root.args.clear();
  events.push_back(root);
  TraceEvent untraced;
  untraced.name = "gemm";
  untraced.category = "kernel";
  events.push_back(untraced);
  const std::string json = chrome_trace_json(events);
  EXPECT_NE(json.find("\"args\":{\"trace\":7,\"span\":12,\"parent\":3,"
                      "\"replica\":1,\"attempt\":2}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"trace\":7,\"span\":12}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"parent\":0"), std::string::npos);
  // The untraced event carries no args object at all.
  const auto gemm = json.find("\"gemm\"");
  ASSERT_NE(gemm, std::string::npos);
  EXPECT_EQ(json.find("\"args\"", gemm), std::string::npos);
}

// --- prometheus exporter ----------------------------------------------------

TEST_F(TelemetryTest, PrometheusExpositionShape) {
  MetricsSnapshot snap;
  snap.counters.push_back({"req_total", "requests", 5});
  snap.gauges.push_back({"depth", "", 1.5});
  HistogramSample h;
  h.name = "lat_seconds";
  h.help = "latency";
  h.data.bounds = {0.1, 1.0};
  h.data.counts = {2, 1, 1};  // non-cumulative, +Inf last
  h.data.count = 4;
  h.data.sum = 3.25;
  snap.histograms.push_back(h);

  const std::string text = prometheus_text(snap);
  EXPECT_NE(text.find("# HELP req_total requests\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("req_total 5\n"), std::string::npos);
  // No HELP line when the help string is empty.
  EXPECT_EQ(text.find("# HELP depth"), std::string::npos);
  EXPECT_NE(text.find("depth 1.5\n"), std::string::npos);
  // Buckets are cumulative and end at +Inf.
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 3.25\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 4\n"), std::string::npos);
}

TEST_F(TelemetryTest, PrometheusEmitsPercentileGaugeSeries) {
  MetricsSnapshot snap;
  HistogramSample h;
  h.name = "lat_seconds";
  h.data.bounds = {0.1, 1.0};
  h.data.counts = {2, 1, 1};
  h.data.count = 4;
  h.data.sum = 3.25;
  h.data.min = 0.05;
  h.data.max = 5.0;
  snap.histograms.push_back(h);
  const std::string text = prometheus_text(snap);
  // Percentiles are companion gauge families with the unit suffix kept
  // last; `{quantile=...}` samples inside a histogram family are illegal
  // in the OpenMetrics exposition format.
  EXPECT_NE(text.find("# TYPE lat_p50_seconds gauge\n"), std::string::npos);
  EXPECT_NE(text.find("lat_p50_seconds "), std::string::npos);
  EXPECT_NE(text.find("lat_p90_seconds "), std::string::npos);
  EXPECT_NE(text.find("lat_p99_seconds "), std::string::npos);
  EXPECT_EQ(text.find("quantile"), std::string::npos);
}

TEST_F(TelemetryTest, PrometheusOmitsPercentilesForEmptyHistogram) {
  MetricsSnapshot snap;
  HistogramSample h;
  h.name = "lat_seconds";
  h.data.bounds = {1.0};
  h.data.counts = {0, 0};
  h.data.min = std::nan("");
  h.data.max = std::nan("");
  snap.histograms.push_back(h);
  const std::string text = prometheus_text(snap);
  EXPECT_EQ(text.find("lat_p50_seconds"), std::string::npos);
  EXPECT_EQ(text.find("quantile"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 0\n"), std::string::npos);
}

TEST_F(TelemetryTest, SingleBucketMassQuantileGaugesCollapseToSample) {
  // All mass in one bucket with min == max: the companion percentile
  // gauges must all report that single value, not a bucket edge.
  MetricsSnapshot snap;
  HistogramSample h;
  h.name = "lat_seconds";
  h.data.bounds = {10.0};
  h.data.counts = {4, 0};
  h.data.count = 4;
  h.data.sum = 13.0;
  h.data.min = 3.25;
  h.data.max = 3.25;
  snap.histograms.push_back(h);
  const std::string text = prometheus_text(snap);
  EXPECT_NE(text.find("lat_p50_seconds 3.25\n"), std::string::npos);
  EXPECT_NE(text.find("lat_p90_seconds 3.25\n"), std::string::npos);
  EXPECT_NE(text.find("lat_p99_seconds 3.25\n"), std::string::npos);
}

TEST_F(TelemetryTest, SnapshotIsDecoupledFromResetValuesMidExport) {
  // A snapshot taken before reset_values() must export the old values
  // unchanged (deep copy, not a live view), and a snapshot taken after
  // must show zeros.
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test_mid_export_total");
  c.reset();
  c.add(9);
  const MetricsSnapshot before = reg.snapshot();
  reg.reset_values();
  const std::string text = prometheus_text(before);
  EXPECT_NE(text.find("test_mid_export_total 9\n"), std::string::npos);
  const std::string json = json_snapshot(before);
  EXPECT_NE(json.find("\"test_mid_export_total\":9"), std::string::npos);
  EXPECT_EQ(reg.snapshot().counter_value("test_mid_export_total"), 0u);
}

TEST_F(TelemetryTest, RegisteredGaugeOwnsPercentileNameOverEstimate) {
  // An explicitly registered gauge (e.g. the serving runtime's exact
  // sojourn p50) keeps its name: the exporter must not emit a duplicate
  // family for the bucket-estimated series.
  MetricsSnapshot snap;
  snap.gauges.push_back({"lat_p50_seconds", "exact p50", 0.123});
  HistogramSample h;
  h.name = "lat_seconds";
  h.data.bounds = {0.1, 1.0};
  h.data.counts = {2, 1, 1};
  h.data.count = 4;
  h.data.sum = 3.25;
  h.data.min = 0.05;
  h.data.max = 5.0;
  snap.histograms.push_back(h);
  const std::string text = prometheus_text(snap);
  EXPECT_NE(text.find("lat_p50_seconds 0.123\n"), std::string::npos);
  // Exactly one TYPE header for the contested family; p90/p99 estimates
  // are still free to appear.
  const auto first = text.find("# TYPE lat_p50_seconds gauge\n");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE lat_p50_seconds gauge\n", first + 1),
            std::string::npos);
  EXPECT_NE(text.find("lat_p99_seconds "), std::string::npos);
}

TEST_F(TelemetryTest, PercentileSeriesKeepUnitSuffixLast) {
  // A histogram without the _seconds unit suffix just appends the tag.
  MetricsSnapshot snap;
  HistogramSample h;
  h.name = "batch_size";
  h.data.bounds = {2.0, 8.0};
  h.data.counts = {1, 2, 1};
  h.data.count = 4;
  h.data.sum = 14.0;
  h.data.min = 1.0;
  h.data.max = 9.0;
  snap.histograms.push_back(h);
  const std::string text = prometheus_text(snap);
  EXPECT_NE(text.find("# TYPE batch_size_p99 gauge\n"), std::string::npos);
  EXPECT_NE(text.find("batch_size_p50 "), std::string::npos);
}

// --- json snapshot exporter -------------------------------------------------

TEST_F(TelemetryTest, JsonSnapshotSerializesNaNAsNull) {
  MetricsSnapshot snap;
  HistogramSample h;
  h.name = "empty_hist";
  h.data.bounds = {1.0};
  h.data.counts = {0, 0};
  h.data.min = std::nan("");
  h.data.max = std::nan("");
  snap.histograms.push_back(h);
  const std::string json = json_snapshot(snap);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"min\":null"), std::string::npos);
  EXPECT_NE(json.find("\"max\":null"), std::string::npos);
  // Empty histogram: percentile keys are present but null.
  EXPECT_NE(json.find("\"p50\":null"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":null"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":null"), std::string::npos);
  // The +Inf bucket bound serialises as null too.
  EXPECT_NE(json.find("{\"le\":null,\"count\":0}"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST_F(TelemetryTest, JsonSnapshotEmitsNumericPercentiles) {
  MetricsSnapshot snap;
  HistogramSample h;
  h.name = "lat_seconds";
  h.data.bounds = {1.0, 2.0};
  h.data.counts = {3, 1, 0};
  h.data.count = 4;
  h.data.sum = 3.0;
  h.data.min = 0.25;
  h.data.max = 1.5;
  snap.histograms.push_back(h);
  const std::string json = json_snapshot(snap);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(json.find("\"p50\":null"), std::string::npos);
}

// --- session ----------------------------------------------------------------

TEST_F(TelemetryTest, SessionEnablesOnlyWhenOutputRequested) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  {
    TelemetrySession inert(std::nullopt, std::nullopt);
    EXPECT_FALSE(inert.active());
    EXPECT_FALSE(enabled());
  }
  const std::string path = ::testing::TempDir() + "telemetry_session_m.json";
  {
    TelemetrySession live(path, std::nullopt);
    EXPECT_TRUE(live.active());
    EXPECT_TRUE(enabled());
    EXPECT_TRUE(live.flush());
  }
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
}

// --- ledger algebra (satellite: per-phase attribution) ----------------------

TEST_F(TelemetryTest, LedgerDeltaAndSumAreFieldwise) {
  core::PhotonicLedger a;
  a.weight_writes = 10;
  a.program_events = 2;
  a.symbols = 30;
  a.macs = 400;
  a.activations = 50;
  core::PhotonicLedger b = a;
  b.weight_writes += 1;
  b.symbols += 2;
  b.macs += 3;

  const core::PhotonicLedger d = b - a;
  EXPECT_EQ(d.weight_writes, 1u);
  EXPECT_EQ(d.program_events, 0u);
  EXPECT_EQ(d.symbols, 2u);
  EXPECT_EQ(d.macs, 3u);
  EXPECT_EQ(d.activations, 0u);

  const core::PhotonicLedger s = a + d;
  EXPECT_EQ(s, b);
  // energy()/time() are linear in the counters.
  EXPECT_DOUBLE_EQ(s.energy().J(), b.energy().J());
  EXPECT_DOUBLE_EQ((a.energy() + d.energy()).J(), b.energy().J());
}

TEST_F(TelemetryTest, LedgerDeltaRejectsNonMonotonicSnapshots) {
  core::PhotonicLedger a;
  a.symbols = 5;
  core::PhotonicLedger b;
  b.symbols = 3;
  EXPECT_THROW((void)(b - a), Error);
}

TEST_F(TelemetryTest, LedgerResetZeroesAllCounters) {
  core::PhotonicLedger l;
  l.weight_writes = 1;
  l.macs = 2;
  l.reset();
  EXPECT_EQ(l, core::PhotonicLedger{});
}

// --- ledger mirror exactness (acceptance criterion) -------------------------

TEST_F(TelemetryTest, MetricsMirrorLedgerExactly) {
  TRIDENT_SKIP_IF_TELEMETRY_COMPILED_OUT();
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset_values();
  set_enabled(true);

  core::PhotonicBackend backend;
  nn::Matrix w(4, 3);
  for (std::size_t i = 0; i < w.data().size(); ++i) {
    w.data()[i] = 0.1 * static_cast<double>(i % 7) - 0.3;
  }
  const nn::Vector x{0.2, -0.5, 0.8};
  (void)backend.matvec(w, x);
  (void)backend.matvec(w, x);  // resident reuse: no extra programming
  nn::Matrix xb(5, 3);
  for (std::size_t i = 0; i < xb.data().size(); ++i) {
    xb.data()[i] = 0.05 * static_cast<double>(i) - 0.3;
  }
  (void)backend.matmul(w, xb);
  (void)backend.matvec_transposed(w, nn::Vector{0.1, 0.2, 0.3, 0.4});
  nn::Matrix xt(2, 4);
  for (std::size_t i = 0; i < xt.data().size(); ++i) {
    xt.data()[i] = 0.1 * static_cast<double>(i) - 0.4;
  }
  (void)backend.matmul_transposed(w, xt);
  backend.rank1_update(w, nn::Vector{0.1, 0.2, 0.3, 0.4},
                       nn::Vector{0.5, 0.6, 0.7}, 0.1);
  set_enabled(false);

  const MetricsSnapshot snap = reg.snapshot();
  core::PhotonicLedger from_metrics;
  from_metrics.weight_writes =
      snap.counter_value("trident_ledger_weight_writes_total");
  from_metrics.program_events =
      snap.counter_value("trident_ledger_program_events_total");
  from_metrics.symbols = snap.counter_value("trident_ledger_symbols_total");
  from_metrics.macs = snap.counter_value("trident_ledger_macs_total");
  from_metrics.activations =
      snap.counter_value("trident_ledger_activations_total");

  EXPECT_EQ(from_metrics, backend.ledger());
  // Bit-exact energy: both sides compute from the same integers.
  EXPECT_EQ(from_metrics.energy().J(), backend.ledger().energy().J());
  EXPECT_EQ(from_metrics.time().s(), backend.ledger().time().s());
  // The second matvec and the forward matmul were both served by resident
  // weights (non-volatility: programming charged only when contents change).
  EXPECT_EQ(snap.counter_value("trident_backend_program_reuse_total"), 2u);
}

TEST_F(TelemetryTest, DisabledPathLeavesMetricsUntouched) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset_values();
  ASSERT_FALSE(enabled());

  core::PhotonicBackend backend;
  nn::Matrix w(2, 2);
  w.data() = {0.1, -0.2, 0.3, -0.4};
  (void)backend.matvec(w, nn::Vector{0.5, 0.5});

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("trident_ledger_symbols_total"), 0u);
  EXPECT_EQ(snap.counter_value("trident_ledger_macs_total"), 0u);
  // The hardware books still ran — only the mirror is off.
  EXPECT_EQ(backend.ledger().symbols, 1u);
}

}  // namespace
}  // namespace trident::telemetry
