// Tests of the benchmark's own building blocks: the step classifier and
// the exact latency quantiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "layers.h"
#include "runtime/serving.h"

namespace {

namespace rt = cryptopim::runtime;
using perfbench::StepClass;
using perfbench::StepCounters;

rt::ServingConfig small_config(std::uint64_t seed) {
  rt::ServingConfig c;
  c.backend = "word";
  c.arrival_rate_per_s = 2e6;
  c.duration_us = 300;
  c.workload.tenants = 4;
  c.workload.seed = seed;
  c.workload.mix = {{256, 4.0}, {1024, 2.0}, {4096, 1.0}};
  c.workload.verify_every = 4;
  return c;
}

/// Steps a runtime to the end, counting steps per class.
std::array<std::uint64_t, perfbench::kStepClasses> classify_run(
    rt::ServingRuntime& chip) {
  std::array<std::uint64_t, perfbench::kStepClasses> counts{};
  chip.prime();
  StepCounters before = perfbench::step_counters(chip.live());
  while (chip.has_events()) {
    chip.step();
    const StepCounters after = perfbench::step_counters(chip.live());
    counts[static_cast<std::size_t>(perfbench::classify_step(before, after))] += 1;
    before = after;
  }
  return counts;
}

constexpr std::size_t idx(StepClass c) { return static_cast<std::size_t>(c); }

TEST(StepClassifier, MostSpecificCounterWins) {
  const StepCounters base{10, 5, 2};
  EXPECT_EQ(perfbench::classify_step(base, base), StepClass::kOther);
  EXPECT_EQ(perfbench::classify_step(base, {11, 5, 2}), StepClass::kArrival);
  EXPECT_EQ(perfbench::classify_step(base, {10, 6, 2}), StepClass::kCompletion);
  EXPECT_EQ(perfbench::classify_step(base, {10, 6, 3}), StepClass::kChecked);
  EXPECT_EQ(perfbench::classify_step(base, {11, 6, 3}), StepClass::kChecked);
  EXPECT_EQ(perfbench::classify_step(base, {11, 6, 2}), StepClass::kCompletion);
}

TEST(StepClassifier, CountersReadTheLiveReport) {
  rt::ServingReport r;
  r.submitted = 7;
  r.completed = 5;
  r.verified = 2;
  r.verify_failures = 1;
  r.protocol.requests = 3;
  r.protocol.joins = 4;
  const StepCounters c = perfbench::step_counters(r);
  EXPECT_EQ(c.submitted, 10u);
  EXPECT_EQ(c.completed, 5u);
  EXPECT_EQ(c.checked, 7u);
}

TEST(StepClassifier, RawRunStepsMatchTheReport) {
  rt::ServingRuntime chip(small_config(3));
  const auto counts = classify_run(chip);
  const rt::ServingReport rep = chip.seal();
  ASSERT_GT(rep.submitted, 100u);
  ASSERT_GT(rep.verified, 10u);
  // One arrival event submits exactly one request; every completion
  // either verifies (checked) or not (completion).
  EXPECT_EQ(counts[idx(StepClass::kArrival)], rep.submitted);
  EXPECT_EQ(counts[idx(StepClass::kChecked)], rep.verified);
  EXPECT_EQ(counts[idx(StepClass::kCompletion)] + counts[idx(StepClass::kChecked)],
            rep.completed);
  EXPECT_GT(counts[idx(StepClass::kOther)], 0u);  // wake-up scans
}

TEST(StepClassifier, ProtocolJoinsAreChecked) {
  rt::ServingConfig c = small_config(5);
  c.protocol.kind = rt::ProtocolKind::kKem;
  c.workload.mix = {{rt::kKemDegree, 1.0}};
  c.arrival_rate_per_s = 4e5;
  c.duration_us = 500;
  rt::ServingRuntime chip(c);
  const auto counts = classify_run(chip);
  const rt::ServingReport rep = chip.seal();
  ASSERT_GT(rep.protocol.joins, 0u);
  EXPECT_EQ(counts[idx(StepClass::kArrival)], rep.protocol.requests);
  EXPECT_EQ(counts[idx(StepClass::kChecked)], rep.protocol.joins);
}

TEST(ExactQuantile, NearestRank) {
  const std::vector<std::uint64_t> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(perfbench::exact_quantile(v, 0.5), 5u);
  EXPECT_EQ(perfbench::exact_quantile(v, 0.99), 10u);
  EXPECT_EQ(perfbench::exact_quantile(v, 0.0), 1u);
  EXPECT_EQ(perfbench::exact_quantile({}, 0.5), 0u);
  EXPECT_EQ(perfbench::samples_beyond(10, 0.5), 5u);
  EXPECT_EQ(perfbench::samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(perfbench::samples_beyond(10010, 0.999), 10u);
  EXPECT_EQ(perfbench::samples_beyond(0, 0.5), 0u);
}

TEST(ExactQuantile, Pow2BucketMatchesHistogram) {
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1000ull, 65535ull,
                                65536ull}) {
    cryptopim::obs::Histogram h;
    h.add(v);
    EXPECT_EQ(h.bucket(perfbench::pow2_bucket(v)), 1u) << v;
  }
}

// The benchmark reports exact quantiles from per-request completions; the
// runtime's report names only the pow2 bucket. Each exact quantile must
// lie inside that bucket, so a finer histogram moves no benchmark number.
TEST(ExactQuantile, FallsInsideTheReportsPow2Bucket) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    rt::ServingConfig c = small_config(seed);
    c.arrival_rate_per_s = 4e6;  // queueing spreads the latencies
    c.duration_us = 2000;
    rt::ServingRuntime chip(c);
    std::vector<std::uint64_t> lat;
    chip.set_outcome_sink(
        [&lat](const rt::Request& r, rt::Outcome o, std::uint64_t cycle) {
          if (o == rt::Outcome::kCompleted) lat.push_back(cycle - r.arrival_cycle);
        });
    const rt::ServingReport rep = chip.run();
    ASSERT_EQ(lat.size(), rep.latency_cycles.count());
    std::sort(lat.begin(), lat.end());
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      const std::uint64_t exact = perfbench::exact_quantile(lat, q);
      const std::uint64_t bucketed = rep.latency_cycles.quantile(q);
      EXPECT_LE(exact, bucketed) << "seed " << seed << " q " << q;
      EXPECT_EQ(perfbench::pow2_bucket(exact), perfbench::pow2_bucket(bucketed))
          << "seed " << seed << " q " << q;
    }
  }
}

TEST(SpanLog, GroupsDurationsByNameAndArg) {
  perfbench::SpanLog s;
  s.add("step", 0, 0, 10);
  s.add("step", 1, 10, 40);
  const std::int32_t parent = s.add("replay", 256, 40, 100);
  s.add("sample", 256, 40, 50, parent);
  EXPECT_EQ(s.durations("step", 1), std::vector<std::int64_t>{30});
  EXPECT_EQ(s.total_ns("step", 0, /*any_arg=*/true), 40);
  EXPECT_EQ(s.spans().back().parent, parent);
  EXPECT_EQ(perfbench::duration_quantile({5, 1, 3}, 0.5), 3);
}

}  // namespace
