// Seeded, deterministic fault model for the ReRAM crossbars.
//
// The paper validates the device statistically (Section IV-A: 5000
// Monte-Carlo trials, ±10% variation) but assumes fault-free crossbars
// functionally. Real ReRAM wears out: the dominant endurance failure is a
// cell stuck at 0 or 1, and inter-block transfers can suffer transient
// bit flips. This module plants both, deterministically from a seed, so a
// fault campaign is bit-reproducible:
//
//  * endurance (stuck-at) faults are a pure function of
//    (seed, physical block id) — re-planting the same block always yields
//    the same cells, which is what makes retry-without-repair useless
//    against them and repair-then-retry effective;
//  * transient flips are drawn from a separate sequential stream, so a
//    retried transfer sees fresh draws (retry works);
//  * per-column wear counters model write endurance: once a column of a
//    physical block crosses the configured limit, it grows a deterministic
//    stuck-at fault that future plant() calls include.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "pim/block.h"

namespace cryptopim::reliability {

struct FaultConfig {
  /// Per-cell probability of an endurance (stuck-at) failure. The number
  /// of faults per 512x512 block is Poisson(rate * 512 * 512), sampled
  /// deterministically per physical block.
  double stuck_rate = 0.0;
  /// Per transferred column-row bit, probability of an in-flight flip on
  /// a switch transfer. Caught by the parity column (odd flips) or by the
  /// end-of-run Freivalds check.
  double transient_rate = 0.0;
  /// Writes a column survives before wearing out (0 = unlimited).
  std::uint64_t endurance_limit = 0;
  std::uint64_t seed = 1;
};

/// A stuck cell of one physical block.
struct PlantedFault {
  std::uint32_t block_id = 0;
  pim::Col col = 0;
  std::uint16_t row = 0;
  bool value = false;
};

class FaultModel {
 public:
  explicit FaultModel(FaultConfig cfg);

  const FaultConfig& config() const noexcept { return cfg_; }

  /// The endurance faults of physical block `block_id`: rate faults
  /// (pure function of seed and id), targeted faults, and wear-out
  /// faults accumulated so far, in that order.
  std::vector<PlantedFault> faults_for_block(std::uint32_t block_id) const;

  /// Targeted injection for tests and campaigns: always planted, in
  /// addition to the rate-derived faults.
  void add_stuck_at(std::uint32_t block_id, pim::Col col, std::size_t row,
                    bool value);

  /// Plant every fault of `block_id` into `blk` (they re-assert on each
  /// mutation via MemoryBlock::enforce_faults). Replaces the block's
  /// fault list. Returns the number planted.
  unsigned plant(std::uint32_t block_id, pim::MemoryBlock& blk) const;

  /// One draw from the transient stream: true with probability
  /// `transient_rate`. Sequential — retries consume fresh randomness.
  bool transient_flip();

  // -- wear ------------------------------------------------------------------
  /// Record `writes` write events on a column. Once the column's counter
  /// crosses `endurance_limit`, a deterministic stuck-at fault appears in
  /// faults_for_block(). Returns true on the crossing event.
  bool note_wear(std::uint32_t block_id, pim::Col col,
                 std::uint64_t writes = 1);
  std::uint64_t wear(std::uint32_t block_id, pim::Col col) const;

  /// Totals for reporting.
  std::uint64_t wear_failures() const noexcept {
    return static_cast<std::uint64_t>(wear_faults_.size());
  }

 private:
  FaultConfig cfg_;
  Xoshiro256 transient_rng_;
  std::map<std::uint32_t, std::vector<PlantedFault>> targeted_;
  std::map<std::uint32_t, std::vector<PlantedFault>> wear_faults_;
  std::map<std::pair<std::uint32_t, pim::Col>, std::uint64_t> wear_;
};

}  // namespace cryptopim::reliability
