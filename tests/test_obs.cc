// Tests for the observability layer (src/obs): JSON round-trips, trace
// nesting and Chrome-trace export, histograms, BenchReporter
// files, windowed time series, SLO accounting, the request-lifecycle
// event log, and two integration invariants: pipeline-track spans of a
// simulated multiplication sum exactly to the reported wall cycles, and
// a chaos serving run emits deterministic, causally-consistent
// observability output (Σ per-window counts == cumulative counters).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ntt/poly.h"
#include "obs/bench_report.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "runtime/serving.h"
#include "sim/simulator.h"

namespace cryptopim::obs {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, DumpAndParseRoundTrip) {
  Json doc = Json::object();
  doc.set("schema", 1);
  doc.set("name", "bench \"quoted\"\n");
  doc.set("pi", 3.25);
  doc.set("flag", true);
  doc.set("nothing", Json());
  Json arr = Json::array();
  arr.push_back(std::uint64_t{1} << 40);
  arr.push_back(-7);
  doc.set("values", std::move(arr));

  const auto r = parse_json(doc.dump());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, doc);
  // Large integers print without a fractional part.
  EXPECT_NE(doc.dump().find("1099511627776"), std::string::npos);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_FALSE(parse_json("").ok);
  EXPECT_FALSE(parse_json("{\"a\":1,}").ok);
  EXPECT_FALSE(parse_json("[1, 2] trailing").ok);
  EXPECT_FALSE(parse_json("\"bad \\x escape\"").ok);
  EXPECT_FALSE(parse_json("{\"a\" 1}").ok);
  EXPECT_TRUE(parse_json("  {\"a\": [true, null, 1e3]}  ").ok);
}

TEST(Json, UnsignedIntegersRoundTripExactly) {
  // Above 2^53 a double can no longer hold every integer.
  for (const std::uint64_t v :
       {(std::uint64_t{1} << 63) - 2, ~std::uint64_t{0}}) {
    Json doc = Json::object();
    doc.set("v", v);
    const std::string text = doc.dump();
    EXPECT_EQ(text, "{\"v\":" + std::to_string(v) + "}");
    const auto r = parse_json(text);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.at("v").as_u64(), v);
    EXPECT_EQ(r.value.dump(), text);
  }
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json doc = Json::object();
  doc.set("zebra", 1);
  doc.set("alpha", 2);
  doc.set("zebra", 3);  // replace keeps first-insertion position
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "zebra");
  EXPECT_EQ(doc.members()[0].second.as_u64(), 3u);
  EXPECT_EQ(doc.members()[1].first, "alpha");
}

TEST(JsonLine, WritesTheBytesJsonDumpWrites) {
  // Quote, backslash, newline, tab, a control byte and UTF-8 bytes, as a
  // key and as a value.
  const std::string text = "q\"b\\s\nt\t\x01 caf\xc3\xa9";
  const std::uint64_t past_2_53 = (std::uint64_t{1} << 53) + 1;
  Json nested = Json::object();
  nested.set("name", text);
  nested.set("n", std::uint64_t{7});
  Json doc = Json::object();
  doc.set("zero", std::uint64_t{0});
  doc.set("past_2_53", past_2_53);
  doc.set("max", ~std::uint64_t{0});
  doc.set("yes", true);
  doc.set("no", false);
  doc.set(text, text);
  doc.set("args", nested);

  JsonLine line;
  line.u64("zero", 0)
      .u64("past_2_53", past_2_53)
      .u64("max", ~std::uint64_t{0})
      .flag("yes", true)
      .flag("no", false)
      .str(text, text)
      .raw("args", nested.dump());
  EXPECT_EQ(line.dump(), doc.dump());
  const auto r = parse_json(line.dump());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, doc);

  EXPECT_EQ(JsonLine().dump(), Json::object().dump());
}

// --------------------------------------------------------------- Tracer --

TEST(Tracer, NestedSpansCloseInnermostFirst) {
  Tracer t;
  t.set_enabled(true);
  t.begin(0, "outer", "stage", 0);
  t.begin(0, "inner", "circuit", 10);
  EXPECT_EQ(t.open_span_count(), 2u);
  t.end(0, 40);   // closes "inner"
  t.end(0, 100);  // closes "outer"
  EXPECT_EQ(t.open_span_count(), 0u);

  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events()[0].name, "inner");
  EXPECT_EQ(t.events()[0].begin, 10u);
  EXPECT_EQ(t.events()[0].dur, 30u);
  EXPECT_EQ(t.events()[1].name, "outer");
  EXPECT_EQ(t.events()[1].dur, 100u);
  // Unbalanced end() is ignored, not fatal.
  t.end(0, 200);
  EXPECT_EQ(t.events().size(), 2u);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer t;
  ASSERT_FALSE(t.enabled());
  t.begin(1, "span", "stage", 0);
  t.end(1, 50);
  t.emit(1, "direct", "stage", 0, 5);
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.open_span_count(), 0u);
}

TEST(Tracer, ChromeTraceExportIsValidJson) {
  Tracer t;
  t.set_enabled(true);
  t.set_track_name(3, "bank 3 (A)");
  t.emit(3, "butterfly/s4", "stage", 100, 250);

  std::ostringstream os;
  t.write_chrome_trace(os);
  const auto r = parse_json(os.str());
  ASSERT_TRUE(r.ok) << r.error;
  const auto& events = r.value.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  bool saw_meta = false, saw_span = false;
  for (const auto& e : events.items()) {
    const auto& ph = e.at("ph").as_string();
    if (ph == "M") {
      saw_meta = e.at("name").as_string() == "thread_name" &&
                 e.at("args").at("name").as_string() == "bank 3 (A)";
    } else if (ph == "X") {
      saw_span = true;
      EXPECT_EQ(e.at("name").as_string(), "butterfly/s4");
      EXPECT_EQ(e.at("ts").as_u64(), 100u);
      EXPECT_EQ(e.at("dur").as_u64(), 250u);
      EXPECT_EQ(e.at("tid").as_u64(), 3u);
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_span);
}

// -------------------------------------------------------------- Metrics --

TEST(Metrics, HistogramBucketsArePowersOfTwo) {
  Histogram hist;
  hist.add(0);  // bucket 0
  hist.add(1);  // bucket 1: [1, 2)
  hist.add(6);  // bucket 3: [4, 8)
  hist.add(7);
  EXPECT_EQ(hist.bucket(0), 1u);
  EXPECT_EQ(hist.bucket(1), 1u);
  EXPECT_EQ(hist.bucket(3), 2u);
  EXPECT_EQ(hist.mean(), 3.5);
}

TEST(Metrics, HistogramQuantileWalksBuckets) {
  Histogram hist;
  EXPECT_EQ(hist.quantile(0.5), 0u);  // empty
  // 90 fast samples and 10 slow outliers: the p50 sits in the fast
  // bucket, the p99 in the slow one. Bucket resolution is a factor of
  // two, so compare against bucket edges, not exact sample values.
  for (int i = 0; i < 90; ++i) hist.add(10);   // bucket [8, 16)
  for (int i = 0; i < 10; ++i) hist.add(900);  // bucket [512, 1024)
  EXPECT_EQ(hist.quantile(0.50), 15u);   // upper edge of [8, 16)
  EXPECT_EQ(hist.quantile(0.90), 15u);
  EXPECT_EQ(hist.quantile(0.99), 900u);  // clamped to max
  EXPECT_EQ(hist.quantile(0.0), 10u);    // min
  EXPECT_EQ(hist.quantile(1.0), 900u);   // max
}

TEST(Metrics, HistogramEmptyIsAllZeros) {
  // The documented empty-histogram contract: every accessor returns 0,
  // every quantile (including the p=0 and p=1 extremes) returns 0, and
  // the mean does not divide by zero. Serving reports lean on this when
  // a run completes nothing.
  Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.mean(), 0.0);
  EXPECT_EQ(hist.quantile(0.0), 0u);
  EXPECT_EQ(hist.quantile(0.5), 0u);
  EXPECT_EQ(hist.quantile(1.0), 0u);
}

TEST(Metrics, HistogramFullQuantileIsExactMax) {
  // p >= 1 must return the exact maximum (not a pow2 bucket edge), and
  // p beyond 1 clamps rather than reading past the last bucket.
  Histogram hist;
  hist.add(3);
  hist.add(1000);  // bucket [512, 1024), well below its upper edge
  EXPECT_EQ(hist.quantile(1.0), 1000u);
  EXPECT_EQ(hist.quantile(2.0), 1000u);
  EXPECT_EQ(hist.quantile(-0.5), 3u);  // p <= 0: the exact minimum
}

TEST(Metrics, HistogramSumFeedsMeanReporting) {
  // sum() is the accessor the CLI's mean-latency line is built from:
  // mean() == sum()/count() exactly, with no bucket quantisation.
  Histogram hist;
  hist.add(7);
  hist.add(9);
  hist.add(20);
  EXPECT_EQ(hist.sum(), 36u);
  EXPECT_DOUBLE_EQ(hist.mean(), 12.0);
}

TEST(Metrics, HistogramQuantileClampsToObservedRange) {
  Histogram hist;
  hist.add(100);
  // One sample: every quantile is that sample (min == max clamps the
  // bucket edge from both sides).
  EXPECT_EQ(hist.quantile(0.5), 100u);
  EXPECT_EQ(hist.quantile(0.999), 100u);
  hist.add(0);
  EXPECT_EQ(hist.quantile(0.25), 0u);  // rank 1 of 2 lands on the zero
}

// -------------------------------------------------------- BenchReporter --

TEST(BenchReporter, WritesParseableSchema) {
  BenchReporter rep("unit_test");
  rep.set_param("trials", "3");
  rep.add("latency", 12.5, "us", {{"n", "256"}});
  rep.add("throughput", 1e6, "1/s");
  EXPECT_EQ(rep.metric_count(), 2u);

  const std::string path = ::testing::TempDir() + "/bench_unit_test.json";
  ASSERT_TRUE(rep.write(path));
  std::ifstream is(path);
  std::stringstream buf;
  buf << is.rdbuf();
  const auto r = parse_json(buf.str());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.at("bench").as_string(), "unit_test");
  EXPECT_EQ(r.value.at("schema").as_u64(), 1u);
  EXPECT_EQ(r.value.at("params").at("trials").as_string(), "3");
  const auto& metrics = r.value.at("metrics");
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].at("name").as_string(), "latency");
  EXPECT_EQ(metrics[0].at("params").at("n").as_string(), "256");
  std::remove(path.c_str());
}

// ------------------------------------------------------- WindowedSeries --

TEST(WindowedSeries, CountersLandInTheRightWindows) {
  WindowedSeries s(100);
  s.count(SeriesCounter::kCompleted, 5);
  s.count(SeriesCounter::kCompleted, 99);
  s.count(SeriesCounter::kCompleted, 100);  // next window
  s.count(SeriesCounter::kCompleted, 350);  // window 3 (window 2 stays sparse)
  ASSERT_EQ(s.window_count(), 3u);
  EXPECT_EQ(s.window_start(0), 0u);
  EXPECT_EQ(s.window_start(1), 100u);
  EXPECT_EQ(s.window_start(2), 300u);
  EXPECT_EQ(s.counter_at(0, SeriesCounter::kCompleted), 2u);
  EXPECT_EQ(s.counter_at(1, SeriesCounter::kCompleted), 1u);
  EXPECT_EQ(s.counter_at(2, SeriesCounter::kCompleted), 1u);
  EXPECT_EQ(s.counter_at(2, SeriesCounter::kShed), 0u);
}

TEST(WindowedSeries, HistogramsKeepExactMinMaxPerWindow) {
  WindowedSeries s(1000);
  s.observe(SeriesHistogram::kLatencyCycles, 10, 100);
  s.observe(SeriesHistogram::kLatencyCycles, 20, 100);  // min == max
  s.observe(SeriesHistogram::kLatencyCycles, 1500, 7000);
  const Histogram& w0 = s.histogram_at(0, SeriesHistogram::kLatencyCycles);
  EXPECT_EQ(w0.count(), 2u);
  // The clamp regression: a pow2 bucket edge would report 127 here.
  EXPECT_EQ(w0.quantile(0.99), 100u);
  EXPECT_EQ(w0.min(), 100u);
  EXPECT_EQ(w0.max(), 100u);
  EXPECT_EQ(s.histogram_at(1, SeriesHistogram::kLatencyCycles).count(), 1u);
  EXPECT_EQ(s.histogram_at(0, SeriesHistogram::kQueueDepth).count(), 0u);
}

TEST(WindowedSeries, EvictionDropsTheOldestWindows) {
  // Six windows past kCapacity force six evictions of the oldest.
  constexpr std::uint64_t kCap = WindowedSeries::kCapacity;
  ASSERT_EQ(kCap, 4096u);
  WindowedSeries s(10);
  for (std::uint64_t c = 0; c < (kCap + 6) * 10; c += 10) {
    s.count(SeriesCounter::kSubmitted, c, c / 10 + 1);
    s.observe(SeriesHistogram::kLatencyCycles, c, c + 1);
  }
  EXPECT_EQ(s.window_count(), kCap);
  EXPECT_EQ(s.evicted_windows(), 6u);
  EXPECT_EQ(s.window_start(0), 60u);  // windows 0..5 dropped
  EXPECT_EQ(s.counter_at(0, SeriesCounter::kSubmitted), 7u);
  EXPECT_EQ(s.histogram_at(0, SeriesHistogram::kLatencyCycles).min(), 61u);
  EXPECT_EQ(s.counter_at(kCap - 1, SeriesCounter::kSubmitted), kCap + 6);
  EXPECT_EQ(s.to_json().at("evicted_windows").as_u64(), 6u);
  // The running total still counts the evicted windows: 1 + ... + kCap+6.
  EXPECT_EQ(s.total(SeriesCounter::kSubmitted), (kCap + 6) * (kCap + 7) / 2);
}

TEST(WindowedSeries, ToJsonCarriesSchemaWindowsAndSummaries) {
  WindowedSeries s(50);
  s.count(SeriesCounter::kCompleted, 10, 3);
  s.observe(SeriesHistogram::kLatencyCycles, 10, 900);
  s.count(SeriesCounter::kAdmitted, 60);
  s.count(SeriesCounter::kTimedOut, 60);
  const Json j = s.to_json();
  EXPECT_EQ(j.at("schema").as_string(), "timeseries/1");
  EXPECT_EQ(j.at("window_cycles").as_u64(), 50u);
  ASSERT_EQ(j.at("windows").size(), 2u);
  const Json& w0 = j.at("windows")[0];
  EXPECT_EQ(w0.at("start").as_u64(), 0u);
  // Only the counters a window recorded are written.
  ASSERT_EQ(w0.at("counters").size(), 1u);
  EXPECT_EQ(w0.at("counters").at("completed").as_u64(), 3u);
  ASSERT_EQ(w0.at("histograms").size(), 1u);
  const Json& h = w0.at("histograms").at("latency_cycles");
  EXPECT_EQ(h.at("count").as_u64(), 1u);
  EXPECT_EQ(h.at("min").as_u64(), 900u);
  EXPECT_EQ(h.at("max").as_u64(), 900u);
  EXPECT_EQ(h.at("p99").as_u64(), 900u);  // clamped, not a bucket edge
  // Names are written in alphabetical order; "histograms" only appears
  // in a window that observed a sample.
  EXPECT_EQ(j.at("windows")[1].dump(),
            R"({"start":50,"counters":{"admitted":1,"timed_out":1}})");
  // Deterministic: same inputs, same bytes.
  EXPECT_EQ(j.dump(), s.to_json().dump());
  // Disabled series: no-ops, enabled() false.
  WindowedSeries off;
  off.count(SeriesCounter::kCompleted, 1);
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.window_count(), 0u);
}

// ------------------------------------------------------------------ SLO --

TEST(Slo, ErrorBudgetMath) {
  SloConfig cfg;
  cfg.availability = 0.99;  // 1% error budget
  WindowedSeries s(100);
  s.count(SeriesCounter::kCompleted, 0, 50);
  s.count(SeriesCounter::kRejected, 50);
  s.count(SeriesCounter::kCompleted, 60, 49);
  const SloSummary slo = slo_summary(cfg, s);
  EXPECT_EQ(slo.total, 100u);
  EXPECT_EQ(slo.errors, 1u);
  EXPECT_DOUBLE_EQ(slo.availability, 0.99);
  // 1 error / (0.01 * 100 allowed) = exactly the whole budget.
  EXPECT_NEAR(slo.error_budget_consumed, 1.0, 1e-9);
  // One window holds everything: its burn is the cumulative burn.
  EXPECT_NEAR(slo.max_window_burn, 1.0, 1e-9);
}

TEST(Slo, LatencyObjectiveCountsViolations) {
  // 1% of completions may exceed the threshold.
  ASSERT_EQ(SloConfig::kLatencyObjective, 0.99);
  SloConfig cfg;
  cfg.latency_us = 10.0;  // threshold: 10 us = 100 cycles at 10 cycles/us
  EXPECT_FALSE(cfg.latency_violated(100, 10.0));
  EXPECT_TRUE(cfg.latency_violated(101, 10.0));
  // The runtime counts each violating completion in the series.
  WindowedSeries s(1000);
  s.count(SeriesCounter::kCompleted, 0, 100);
  s.count(SeriesCounter::kLatencyViolations, 99);
  const SloSummary slo = slo_summary(cfg, s);
  EXPECT_EQ(slo.latency_violations, 1u);
  // 1 violation / (0.01 * 100 completions) = whole latency budget.
  EXPECT_NEAR(slo.latency_budget_consumed, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(
      slo_to_json(cfg, s).at("latency_objective_fraction").as_number(), 0.99);
  // No availability objective: error budget off even with bad outcomes.
  s.count(SeriesCounter::kFailed, 100);
  EXPECT_DOUBLE_EQ(slo_summary(cfg, s).error_budget_consumed, 0.0);
}

TEST(Slo, SubCycleLatencyObjectiveIsOn) {
  // 0.0005 us is under one 1.1 ns cycle: the threshold truncates to 0
  // cycles, and every completion that takes a cycle misses it.
  SloConfig cfg;
  cfg.latency_us = 0.0005;
  const double cycles_per_us = runtime::ServingConfig::cycles_per_us();
  EXPECT_FALSE(cfg.latency_violated(0, cycles_per_us));
  EXPECT_TRUE(cfg.latency_violated(1, cycles_per_us));
}

TEST(Slo, PerWindowBurnIsolatesTheBadWindow) {
  SloConfig cfg;
  cfg.availability = 0.9;  // allowed error rate 0.1
  WindowedSeries s(100);
  // Window 0: clean. Window 1: half the traffic fails (burn 5x), and
  // every bad outcome counts as an error.
  s.count(SeriesCounter::kCompleted, 0, 10);
  s.count(SeriesCounter::kCompleted, 100, 5);
  s.count(SeriesCounter::kRejected, 105, 2);
  s.count(SeriesCounter::kShed, 106);
  s.count(SeriesCounter::kTimedOut, 107);
  s.count(SeriesCounter::kFailed, 108);
  EXPECT_NEAR(slo_summary(cfg, s).max_window_burn, 5.0, 1e-9);
  const Json j = slo_to_json(cfg, s);
  EXPECT_EQ(j.at("schema").as_string(), "slo/1");
  ASSERT_EQ(j.at("windows").size(), 2u);
  EXPECT_NEAR(j.at("windows")[0].at("burn").as_number(), 0.0, 1e-9);
  EXPECT_NEAR(j.at("windows")[1].at("burn").as_number(), 5.0, 1e-9);
  EXPECT_EQ(j.at("summary").at("errors").as_u64(), 5u);
}

TEST(Slo, WindowsAreTheSeriesWindowsWithAnOutcome) {
  SloConfig cfg;
  cfg.availability = 0.999;
  WindowedSeries s(100);
  s.count(SeriesCounter::kSubmitted, 0);  // no outcome: not an SLO window
  s.count(SeriesCounter::kCompleted, 150, 3);
  s.count(SeriesCounter::kDispatched, 250);
  s.count(SeriesCounter::kShed, 420);
  const Json j = slo_to_json(cfg, s);
  EXPECT_EQ(j.at("window_cycles").as_u64(), 100u);
  ASSERT_EQ(j.at("windows").size(), 2u);
  EXPECT_EQ(j.at("windows")[0].at("start").as_u64(), 100u);
  EXPECT_EQ(j.at("windows")[0].at("total").as_u64(), 3u);
  EXPECT_EQ(j.at("windows")[1].at("start").as_u64(), 400u);
  EXPECT_EQ(j.at("windows")[1].at("errors").as_u64(), 1u);
}

TEST(Slo, SummaryStaysExactAfterEviction) {
  // One rejection in window 0, then a completion in each of kCapacity + 6
  // windows: the series keeps the last kCapacity, the summary the run.
  constexpr std::uint64_t kCap = WindowedSeries::kCapacity;
  SloConfig cfg;
  cfg.availability = 0.99;
  WindowedSeries s(10);
  s.count(SeriesCounter::kRejected, 0);
  for (std::uint64_t c = 0; c < (kCap + 6) * 10; c += 10) {
    s.count(SeriesCounter::kCompleted, c);
  }
  ASSERT_EQ(s.evicted_windows(), 6u);
  const SloSummary slo = slo_summary(cfg, s);
  EXPECT_EQ(slo.total, kCap + 7);
  EXPECT_EQ(slo.errors, 1u);
  EXPECT_EQ(slo_to_json(cfg, s).at("windows").size(), kCap);
}

TEST(Slo, WorstWindowBurnSurvivesEviction) {
  // Window 0 holds 1 error in 2 outcomes, window 1 holds 2 in 8, and
  // each later window one completion, until both bad windows are
  // evicted. The worst-window burn stays window 0's: (1/2) / (1 - 0.99).
  constexpr std::uint64_t kCap = WindowedSeries::kCapacity;
  SloConfig cfg;
  cfg.availability = 0.99;
  WindowedSeries s(10);
  s.count(SeriesCounter::kShed, 0);
  s.count(SeriesCounter::kCompleted, 0);
  s.count(SeriesCounter::kTimedOut, 10, 2);
  s.count(SeriesCounter::kCompleted, 10, 6);
  for (std::uint64_t c = 20; c < (kCap + 2) * 10; c += 10) {
    s.count(SeriesCounter::kCompleted, c);
  }
  ASSERT_EQ(s.evicted_windows(), 2u);
  EXPECT_EQ(s.worst_evicted().bad, 1u);
  EXPECT_EQ(s.worst_evicted().total, 2u);
  const double burn = 0.5 / (1.0 - 0.99);
  EXPECT_DOUBLE_EQ(slo_summary(cfg, s).max_window_burn, burn);
  EXPECT_DOUBLE_EQ(
      slo_to_json(cfg, s).at("summary").at("max_window_burn").as_number(),
      burn);
}

TEST(Slo, DisabledObjectivesAreInert) {
  const SloConfig off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.latency_violated(1u << 30, 909.0));
  const SloSummary slo = slo_summary(off, WindowedSeries(100));
  EXPECT_EQ(slo.total, 0u);
  EXPECT_DOUBLE_EQ(slo.availability, 1.0);
  EXPECT_DOUBLE_EQ(slo.error_budget_consumed, 0.0);
  // A report with no objectives carries no slo section.
  EXPECT_FALSE(runtime::ServingReport().to_json().contains("slo"));
}

// ------------------------------------------------------------- EventLog --

TEST(EventLog, JsonlHasHeaderAndOneRecordPerLine) {
  const std::string path = ::testing::TempDir() + "/event_log_unit.jsonl";
  EventLog log;
  log.open_stream(path, /*line_buffered=*/false);
  EXPECT_TRUE(log.enabled());
  Json a = Json::object();
  a.set("ev", "admitted");
  a.set("cycle", 10);
  log.log(std::move(a));
  Json b = Json::object();
  b.set("ev", "completed");
  b.set("cycle", 20);
  log.log(std::move(b));
  log.close_stream();

  std::ifstream is(path);
  std::string line;
  std::vector<Json> lines;
  while (std::getline(is, line)) {
    const auto r = parse_json(line);
    ASSERT_TRUE(r.ok) << r.error;
    lines.push_back(r.value);
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].at("schema").as_string(), "serve-events/2");
  EXPECT_TRUE(lines[0].at("streamed").as_bool());
  EXPECT_EQ(lines[1].at("ev").as_string(), "admitted");
  EXPECT_EQ(lines[2].at("ev").as_string(), "completed");
  EXPECT_EQ(log.size(), 2u);  // the count of records logged to the stream
  std::remove(path.c_str());
}

TEST(EventLog, SecondOpenStreamStartsAFreshLog) {
  const std::string first = ::testing::TempDir() + "/event_log_first.jsonl";
  const std::string second = ::testing::TempDir() + "/event_log_second.jsonl";
  EventLog log;
  log.open_stream(first, /*line_buffered=*/false);
  for (int cycle : {1, 2, 3}) {
    Json rec = Json::object();
    rec.set("ev", "admitted");
    rec.set("cycle", cycle);
    log.log(std::move(rec));
  }
  ASSERT_EQ(log.size(), 3u);
  ASSERT_EQ(log.records().size(), 3u);

  // No close_stream() in between: the second open closes the first.
  log.open_stream(second, /*line_buffered=*/false);
  Json rec = Json::object();
  rec.set("ev", "completed");
  rec.set("cycle", 9);
  log.log(std::move(rec));
  log.close_stream();
  EXPECT_EQ(log.size(), 1u);
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].at("ev").as_string(), "completed");
  EXPECT_EQ(log.records()[0].at("cycle").as_u64(), 9u);
  std::ifstream is(first);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, 4u);  // the first stream's header and its three records
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(EventLog, RecordsReadsBackTheOpenStream) {
  const std::string path = ::testing::TempDir() + "/event_log_open.jsonl";
  EventLog log;
  log.open_stream(path, /*line_buffered=*/false);
  // Request records (with a "trace") are not flushed as they land.
  std::vector<std::string> logged;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    Json rec = Json::object();
    rec.set("ev", "dispatched");
    rec.set("cycle", 10 * id);
    rec.set("trace", id);
    rec.set("share", 0.1 * static_cast<double>(id));
    logged.push_back(rec.dump());
    log.log(std::move(rec));
  }
  const std::vector<Json>& records = log.records();
  ASSERT_TRUE(log.enabled());  // still open: records() only flushed

  std::ifstream is(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1 + logged.size());
  ASSERT_EQ(records.size(), logged.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(lines[i + 1], logged[i]) << "record " << i;
    EXPECT_EQ(records[i].dump(), logged[i]) << "record " << i;
  }
  log.close_stream();
  std::remove(path.c_str());
}

TEST(EventLog, RecordsThrowsWhenTheFileIsMissingOrShort) {
  const std::string path = ::testing::TempDir() + "/event_log_lost.jsonl";
  EventLog log;
  log.open_stream(path, /*line_buffered=*/false);
  for (int cycle : {1, 2}) {
    Json rec = Json::object();
    rec.set("ev", "admitted");
    rec.set("cycle", cycle);
    log.log(std::move(rec));
  }
  log.close_stream();
  ASSERT_EQ(log.size(), 2u);

  // Cut the last record: records() must not return fewer than size().
  std::ostringstream read;
  read << std::ifstream(path, std::ios::binary).rdbuf();
  const std::string text = read.str();
  const std::size_t last = text.rfind('\n', text.size() - 2);
  ASSERT_NE(last, std::string::npos);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text.substr(0, last + 1);
  }
  EXPECT_THROW(log.records(), std::runtime_error);

  std::remove(path.c_str());
  EXPECT_THROW(log.records(), std::runtime_error);
}

TEST(EventLog, DisabledLogDropsRecords) {
  EventLog log;
  ASSERT_FALSE(log.enabled());
  Json rec = Json::object();
  rec.set("ev", "x");
  log.log(std::move(rec));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_THROW(log.open_stream(::testing::TempDir() + "/no-such-dir/x.jsonl",
                               /*line_buffered=*/false),
               std::runtime_error);
  EXPECT_FALSE(log.enabled());  // a stream that failed to open enables nothing
}

// ------------------------------------------------------ Tracer flows --

TEST(Tracer, FlowEventsExportAsChromeFlowArrows) {
  Tracer t;
  t.set_enabled(true);
  t.emit(1, "req 7", "runtime", 0, 100);
  t.emit(2, "req 7 retry", "runtime", 150, 100);
  t.flow('s', 7, 1, "req 7", "flow", 0);
  t.flow('t', 7, 2, "req 7", "flow", 150);
  t.flow('f', 7, 2, "req 7", "flow", 250);

  std::ostringstream os;
  t.write_chrome_trace(os);
  const auto doc = parse_json(os.str());
  ASSERT_TRUE(doc.ok) << doc.error;
  int starts = 0, steps = 0, ends = 0;
  for (const auto& e : doc.value.at("traceEvents").items()) {
    const auto& ph = e.at("ph").as_string();
    if (ph == "s") {
      ++starts;
      EXPECT_EQ(e.at("id").as_u64(), 7u);
      EXPECT_FALSE(e.contains("bp"));  // start opens the chain
    } else if (ph == "t") {
      ++steps;
      EXPECT_EQ(e.at("bp").as_string(), "e");  // binds to enclosing slice
    } else if (ph == "f") {
      ++ends;
      EXPECT_EQ(e.at("id").as_u64(), 7u);
      EXPECT_EQ(e.at("ts").as_u64(), 250u);
      EXPECT_EQ(e.at("bp").as_string(), "e");
    }
  }
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(steps, 1);
  EXPECT_EQ(ends, 1);
}

// ----------------------------------------------- serving observability --

namespace serving_obs {

runtime::ServingConfig chaos_config() {
  runtime::ServingConfig cfg;
  cfg.workload.mix = {{256, 2.0}, {1024, 1.0}};
  cfg.workload.tenants = 2;
  cfg.workload.seed = 21;
  cfg.arrival_rate_per_s = 30000.0;
  cfg.duration_us = 3000.0;
  cfg.resilience = runtime::ResilienceConfig::chaos_preset(21);
  cfg.slo.availability = 0.999;
  cfg.slo.latency_us = 500.0;
  return cfg;
}

}  // namespace serving_obs

TEST(ServingObs, WindowedTotalsMatchCumulativeCounters) {
  const auto r = runtime::ServingRuntime(serving_obs::chaos_config()).run();
  const auto& s = r.series;
  ASSERT_TRUE(s.enabled());
  // The Σ-invariant: with no window evicted, the per-window counts must
  // reproduce the cumulative report counters exactly.
  ASSERT_EQ(s.evicted_windows(), 0u);
  const auto total = [&s](SeriesCounter c) {
    std::uint64_t sum = 0;
    for (std::size_t w = 0; w < s.window_count(); ++w) {
      sum += s.counter_at(w, c);
    }
    return sum;
  };
  EXPECT_EQ(total(SeriesCounter::kSubmitted), r.submitted);
  EXPECT_EQ(total(SeriesCounter::kAdmitted), r.admitted);
  EXPECT_EQ(total(SeriesCounter::kCompleted), r.completed);
  EXPECT_EQ(total(SeriesCounter::kRejected),
            r.rejected + r.rejected_unservable +
                r.resilience.rejected_deadline);
  EXPECT_EQ(total(SeriesCounter::kShed), r.resilience.shed);
  EXPECT_EQ(total(SeriesCounter::kRetries), r.resilience.retries);
  EXPECT_EQ(total(SeriesCounter::kHedges), r.resilience.hedges);
  std::uint64_t latencies = 0;
  for (std::size_t w = 0; w < s.window_count(); ++w) {
    latencies +=
        s.histogram_at(w, SeriesHistogram::kLatencyCycles).count();
  }
  EXPECT_EQ(latencies, r.completed);
  // Every terminal outcome is accounted good or bad exactly once.
  const SloSummary slo = slo_summary(r.slo, s);
  EXPECT_EQ(slo.total,
            r.completed + r.rejected + r.rejected_unservable +
                r.resilience.rejected_deadline + r.resilience.shed +
                r.resilience.timed_out + r.resilience.failed);
  EXPECT_GT(slo.total, 0u);
}

TEST(ServingObs, EventLogAndReportAreByteDeterministic) {
  const auto cfg = serving_obs::chaos_config();
  EventLog log_a, log_b;
  log_a.open_stream(::testing::TempDir() + "/serving_obs_det_a.jsonl",
                    /*line_buffered=*/false);
  log_b.open_stream(::testing::TempDir() + "/serving_obs_det_b.jsonl",
                    /*line_buffered=*/false);
  runtime::ServingRuntime rt_a(cfg);
  rt_a.set_event_log(&log_a);
  const auto rep_a = rt_a.run();
  runtime::ServingRuntime rt_b(cfg);
  rt_b.set_event_log(&log_b);
  const auto rep_b = rt_b.run();

  EXPECT_GT(log_a.size(), 0u);
  ASSERT_EQ(log_a.size(), log_b.size());
  for (std::size_t i = 0; i < log_a.size(); ++i) {
    ASSERT_EQ(log_a.records()[i].dump(), log_b.records()[i].dump())
        << "record " << i;
  }
  EXPECT_EQ(rep_a.to_json().dump(), rep_b.to_json().dump());
}

TEST(ServingObs, EventLogCausalChainsAreComplete) {
  const auto cfg = serving_obs::chaos_config();
  EventLog log;
  log.open_stream(::testing::TempDir() + "/serving_obs_chains.jsonl",
                  /*line_buffered=*/false);
  runtime::ServingRuntime rt(cfg);
  rt.set_event_log(&log);
  const auto rep = rt.run();

  struct Chain {
    bool admitted = false;
    std::uint64_t dispatched = 0;
    std::uint64_t completed = 0;
    std::uint64_t last_cycle = 0;
    unsigned max_attempt = 0;
  };
  std::map<std::uint64_t, Chain> chains;
  std::uint64_t completions = 0;
  std::uint64_t prev_cycle = 0;
  for (const Json& rec : log.records()) {
    const auto& ev = rec.at("ev").as_string();
    const std::uint64_t cycle = rec.at("cycle").as_u64();
    // Records are in event-clock order (the log is append-only and the
    // clock is monotonic).
    EXPECT_GE(cycle, prev_cycle);
    prev_cycle = cycle;
    if (!rec.contains("trace")) continue;  // control records
    Chain& c = chains[rec.at("trace").as_u64()];
    EXPECT_GE(cycle, c.last_cycle);  // per-chain causal order
    c.last_cycle = cycle;
    if (ev == "admitted") c.admitted = true;
    if (ev == "dispatched") {
      c.dispatched += 1;
      if (rec.contains("attempt")) {
        const auto att = static_cast<unsigned>(rec.at("attempt").as_u64());
        EXPECT_GT(att, 0u);
        c.max_attempt = std::max(c.max_attempt, att);
      }
    }
    if (ev == "retry") {
      // A retry always follows a dispatch of the same chain.
      EXPECT_GT(c.dispatched, 0u);
    }
    if (ev == "hedge") {
      EXPECT_GT(rec.at("parent").as_u64(), 0u);
      EXPECT_GT(c.dispatched, 0u);
    }
    if (ev == "completed") {
      c.completed += 1;
      ++completions;
      EXPECT_TRUE(c.admitted);
      EXPECT_GT(c.dispatched, 0u);
    }
  }
  // The log's completions are the report's, and no chain delivered twice.
  EXPECT_EQ(completions, rep.completed);
  for (const auto& [trace, c] : chains) {
    EXPECT_LE(c.completed, 1u) << "trace " << trace << " delivered twice";
    if (c.dispatched > 0) {
      EXPECT_TRUE(c.admitted) << "trace " << trace << " dispatched unadmitted";
    }
  }
}

// -------------------------------------------------- simulator integration --

TEST(TraceIntegration, PipelineSpansSumToWallCycles) {
  const auto p = ntt::NttParams::for_degree(256);
  sim::CryptoPimSimulator simu(p);
  Tracer local;
  local.set_enabled(true);
  simu.set_tracer(&local);

  Xoshiro256 rng(11);
  const auto a = ntt::sample_uniform(p.n, p.q, rng);
  const auto b = ntt::sample_uniform(p.n, p.q, rng);
  simu.multiply(a, b);
  const auto& rep = simu.report();

  std::uint64_t pipeline_sum = 0, pipeline_spans = 0;
  for (const auto& e : local.events()) {
    if (e.track == sim::CryptoPimSimulator::kPipelineTrack) {
      pipeline_sum += e.dur;
      ++pipeline_spans;
    }
  }
  EXPECT_EQ(pipeline_spans, rep.stage_cycles.size());
  EXPECT_EQ(pipeline_sum, rep.wall_cycles);

  // Per-bank and softbank tracks both carried events.
  bool saw_bank = false, saw_softbank = false, saw_circuit = false;
  for (const auto& e : local.events()) {
    saw_bank |= e.track < sim::CryptoPimSimulator::kSoftbankTrackBase;
    saw_softbank |=
        e.track >= sim::CryptoPimSimulator::kSoftbankTrackBase &&
        e.track < sim::CryptoPimSimulator::kPipelineTrack;
    saw_circuit |= e.cat == "circuit";
  }
  EXPECT_TRUE(saw_bank);
  EXPECT_TRUE(saw_softbank);
  EXPECT_TRUE(saw_circuit);
}

TEST(TraceIntegration, DisabledCustomTracerStaysEmpty) {
  const auto p = ntt::NttParams::for_degree(64);
  sim::CryptoPimSimulator simu(p);
  Tracer local;  // never enabled
  simu.set_tracer(&local);
  Xoshiro256 rng(5);
  const auto a = ntt::sample_uniform(p.n, p.q, rng);
  const auto b = ntt::sample_uniform(p.n, p.q, rng);
  simu.multiply(a, b);
  EXPECT_TRUE(local.events().empty());
}

}  // namespace
}  // namespace cryptopim::obs
