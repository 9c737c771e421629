// Chip-level job scheduler for the configurable architecture (Section
// III-D.2): a stream of polynomial multiplications of mixed degrees is
// mapped onto the chip by re-partitioning the 128 banks into superbanks
// per degree class, streaming each class through its pipelines, and
// accounting fill latency, steady-state beats and utilization.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/chip.h"
#include "model/performance.h"

namespace cryptopim::model {

/// A batch of identical multiplications.
struct Job {
  std::uint32_t degree = 0;
  std::uint64_t count = 1;
};

/// One configured interval of the schedule: the chip is partitioned for a
/// single degree class and streams its jobs.
struct ScheduleBatch {
  std::uint32_t degree = 0;
  unsigned superbanks = 0;      ///< parallel pipelines in this interval
  unsigned segments = 1;        ///< >1 for degrees above the design point
  std::uint64_t multiplications = 0;
  double fill_us = 0;           ///< pipeline fill (one traversal)
  double duration_us = 0;       ///< fill + steady-state beats
  double bank_busy_us = 0;      ///< busy bank-time (for utilization)
};

struct ScheduleResult {
  std::vector<ScheduleBatch> batches;
  double makespan_us = 0;
  std::uint64_t total_multiplications = 0;
  unsigned repartitions = 0;  ///< superbank reconfigurations performed
  double utilization = 0;     ///< busy bank-time / (banks * makespan)
  double throughput_per_s = 0;
};

/// The timing law of one degree class's superbank lanes on `chip`: how
/// many lanes fit and their bank footprint and segment count
/// (plan_for_degree, degraded by `failed_banks`), and the pipeline's beat
/// and fill (cryptopim_pipelined at min(degree, design_max_n)). A lane
/// accepts one request per `occupancy()` cycles and delivers it
/// `service()` cycles after it entered. The serving runtime's lanes and
/// class_capacity_per_s both run on it. Throws (from plan_for_degree)
/// when the chip cannot host a single lane of the class.
struct LaneTiming {
  unsigned superbanks = 0;  ///< lanes that fit the chip
  unsigned banks = 0;       ///< banks per superbank
  unsigned segments = 1;    ///< >1 for degrees above the design point
  std::uint64_t beat = 0;   ///< slowest-stage cycles
  std::uint64_t fill = 0;   ///< depth * beat
  std::uint64_t service() const noexcept {
    return fill + (segments - 1) * beat;
  }
  std::uint64_t occupancy() const noexcept { return segments * beat; }
};
LaneTiming lane_timing(const arch::ChipConfig& chip, std::uint32_t degree,
                       unsigned failed_banks = 0);

/// Bank-limited steady-state service capacity of one degree class, in
/// requests per second: live superbank lanes divided by the lane
/// occupancy (`segments * slowest-stage beat`). `failed_banks` prices a
/// degraded chip — spares absorb failures one-for-one, further failures
/// shrink the lane count exactly as plan_for_degree does — which is what
/// the serving runtime's admission and the capacity-relative benches
/// need to stay honest after mid-stream bank losses. Throws (from
/// plan_for_degree) when the degraded chip cannot host a single lane.
double class_capacity_per_s(const arch::ChipConfig& chip, std::uint32_t degree,
                            unsigned failed_banks = 0, double cycle_ns = 1.1);

class ChipScheduler {
 public:
  /// `failed_banks` schedules on a degraded chip: spares absorb failures
  /// one-for-one, failures beyond the spare pool shrink every batch's
  /// superbank count (arch::ChipConfig::plan_for_degree(n, failed)).
  explicit ChipScheduler(arch::ChipConfig chip = arch::ChipConfig::paper_chip(),
                         double repartition_us = 0.0,
                         unsigned failed_banks = 0)
      : chip_(chip),
        repartition_us_(repartition_us),
        failed_banks_(failed_banks) {}

  const arch::ChipConfig& chip() const noexcept { return chip_; }
  unsigned failed_banks() const noexcept { return failed_banks_; }

  /// Schedule a mixed-degree job list: jobs are grouped by degree
  /// (largest first, so expensive classes reveal the critical path early)
  /// and each class streams through a dedicated chip partition. Throws
  /// (from plan_for_degree) when a degree is invalid or the degraded
  /// chip cannot host a single superbank for it.
  ScheduleResult schedule(std::span<const Job> jobs) const;

 private:
  arch::ChipConfig chip_;
  double repartition_us_;
  unsigned failed_banks_ = 0;
};

}  // namespace cryptopim::model
