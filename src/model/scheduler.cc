#include "model/scheduler.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace cryptopim::model {

LaneTiming lane_timing(const arch::ChipConfig& chip, std::uint32_t degree,
                       unsigned failed_banks) {
  const auto plan = chip.plan_for_degree(degree, failed_banks);
  // The stage timing evaluates the paper_latency formulas, depends on n
  // alone and costs microseconds per call, so it is memoized (a fleet
  // primes the same degrees on every chip).
  thread_local std::map<std::uint32_t, PipelinePerf> memo;
  const std::uint32_t n = std::min(degree, chip.design_max_n);
  auto it = memo.find(n);
  if (it == memo.end()) it = memo.emplace(n, cryptopim_pipelined(n)).first;
  const PipelinePerf& perf = it->second;
  LaneTiming t;
  t.superbanks = plan.superbanks;
  t.banks = plan.banks_per_superbank;
  t.segments = plan.segments;
  t.beat = perf.slowest_stage_cycles;
  t.fill = static_cast<std::uint64_t>(perf.depth) * perf.slowest_stage_cycles;
  return t;
}

double class_capacity_per_s(const arch::ChipConfig& chip, std::uint32_t degree,
                            unsigned failed_banks, double cycle_ns) {
  const LaneTiming t = lane_timing(chip, degree, failed_banks);
  const double cycles_per_s = 1e9 / cycle_ns;
  return t.superbanks * cycles_per_s / static_cast<double>(t.occupancy());
}

ScheduleResult ChipScheduler::schedule(std::span<const Job> jobs) const {
  // Group by degree; largest degree first (the most constrained classes
  // get scheduled while the rest of the list is still pending).
  std::map<std::uint32_t, std::uint64_t, std::greater<>> by_degree;
  for (const Job& j : jobs) {
    if (j.count == 0) continue;
    by_degree[j.degree] += j.count;
  }

  ScheduleResult result;
  double clock_us = 0;
  double busy_bank_us = 0;
  for (const auto& [degree, count] : by_degree) {
    const auto plan = chip_.plan_for_degree(degree, failed_banks_);
    const auto perf = cryptopim_pipelined(std::min(degree, chip_.design_max_n));

    ScheduleBatch batch;
    batch.degree = degree;
    batch.superbanks = plan.superbanks;
    batch.segments = plan.segments;
    batch.multiplications = count;

    // Each superbank streams its share; degrees above the design point
    // pass each multiplication through the hardware `segments` times.
    const std::uint64_t per_pipe =
        (count + plan.superbanks - 1) / plan.superbanks;
    const std::uint64_t beats = per_pipe * plan.segments;
    const double beat_us = 1e6 / perf.throughput_per_s;
    batch.fill_us = perf.latency_us;
    batch.duration_us =
        perf.latency_us + (beats > 0 ? (beats - 1) * beat_us : 0);
    // Busy time: every active pipeline occupies its banks for the batch.
    const unsigned pipes_used = static_cast<unsigned>(std::min<std::uint64_t>(
        plan.superbanks, count));
    batch.bank_busy_us =
        batch.duration_us * pipes_used * plan.banks_per_superbank;

    if (!result.batches.empty()) {
      clock_us += repartition_us_;
      ++result.repartitions;
    }
    clock_us += batch.duration_us;
    busy_bank_us += batch.bank_busy_us;
    result.total_multiplications += count;
    result.batches.push_back(batch);
  }

  result.makespan_us = clock_us;
  if (clock_us > 0) {
    result.utilization = busy_bank_us / (chip_.total_banks * clock_us);
    result.throughput_per_s =
        result.total_multiplications / (clock_us * 1e-6);
  }
  return result;
}

}  // namespace cryptopim::model
