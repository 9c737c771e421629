#include "reliability/fault_model.h"

#include <cmath>
#include <stdexcept>

namespace cryptopim::reliability {

namespace {

// Dedicated per-block RNG: hashing the block id into the seed keeps every
// block's fault set independent of the order blocks are planted in.
Xoshiro256 block_rng(std::uint64_t seed, std::uint32_t block_id) {
  return Xoshiro256(seed ^ (0x9e3779b97f4a7c15ull * (block_id + 1)));
}

// Deterministic Poisson(mean) draw. Knuth inversion for small means, a
// clamped normal approximation above (fault campaigns never need exact
// tail shape there, only determinism).
std::uint64_t poisson(Xoshiro256& rng, double mean) {
  if (mean <= 0) return 0;
  if (mean < 64) {
    const double limit = std::exp(-mean);
    double p = 1.0;
    std::uint64_t k = 0;
    do {
      ++k;
      p *= static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    } while (p > limit);
    return k - 1;
  }
  // Box-Muller from two uniform draws.
  const double u1 = (static_cast<double>(rng.next() >> 11) + 0.5) * 0x1.0p-53;
  const double u2 = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  const double gauss =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double v = mean + std::sqrt(mean) * gauss;
  return v <= 0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

}  // namespace

FaultModel::FaultModel(FaultConfig cfg)
    : cfg_(cfg), transient_rng_(cfg.seed ^ 0xd1b54a32d192ed03ull) {
  if (cfg.stuck_rate < 0 || cfg.stuck_rate > 1 || cfg.transient_rate < 0 ||
      cfg.transient_rate > 1) {
    throw std::invalid_argument("fault rates must lie in [0, 1]");
  }
}

std::vector<PlantedFault> FaultModel::faults_for_block(
    std::uint32_t block_id) const {
  std::vector<PlantedFault> out;
  if (cfg_.stuck_rate > 0) {
    auto rng = block_rng(cfg_.seed, block_id);
    const double cells =
        static_cast<double>(pim::kBlockRows) * pim::kBlockCols;
    const std::uint64_t count = poisson(rng, cfg_.stuck_rate * cells);
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      PlantedFault f;
      f.block_id = block_id;
      f.col = static_cast<pim::Col>(rng.next_below(pim::kBlockCols));
      f.row = static_cast<std::uint16_t>(rng.next_below(pim::kBlockRows));
      f.value = (rng.next() & 1) != 0;
      out.push_back(f);
    }
  }
  if (const auto it = targeted_.find(block_id); it != targeted_.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  if (const auto it = wear_faults_.find(block_id); it != wear_faults_.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

void FaultModel::add_stuck_at(std::uint32_t block_id, pim::Col col,
                              std::size_t row, bool value) {
  if (col >= pim::kBlockCols || row >= pim::kBlockRows) {
    throw std::invalid_argument("stuck-at coordinates out of range");
  }
  targeted_[block_id].push_back(PlantedFault{
      block_id, col, static_cast<std::uint16_t>(row), value});
}

unsigned FaultModel::plant(std::uint32_t block_id,
                           pim::MemoryBlock& blk) const {
  blk.clear_faults();
  const auto faults = faults_for_block(block_id);
  for (const auto& f : faults) {
    blk.inject_stuck_at(f.col, f.row, f.value);
  }
  return static_cast<unsigned>(faults.size());
}

bool FaultModel::transient_flip() {
  if (cfg_.transient_rate <= 0) return false;
  const double u =
      static_cast<double>(transient_rng_.next() >> 11) * 0x1.0p-53;
  return u < cfg_.transient_rate;
}

bool FaultModel::note_wear(std::uint32_t block_id, pim::Col col,
                           std::uint64_t writes) {
  if (cfg_.endurance_limit == 0) return false;
  auto& counter = wear_[{block_id, col}];
  const bool was_below = counter < cfg_.endurance_limit;
  counter += writes;
  if (!was_below || counter < cfg_.endurance_limit) return false;
  // Worn out: the cell that fails (and the value it freezes at) is a pure
  // function of the coordinates, keeping campaigns reproducible.
  auto rng = block_rng(cfg_.seed ^ 0xa5a5a5a5ull, block_id * 1024u + col);
  wear_faults_[block_id].push_back(PlantedFault{
      block_id, col, static_cast<std::uint16_t>(rng.next_below(pim::kBlockRows)),
      (rng.next() & 1) != 0});
  return true;
}

std::uint64_t FaultModel::wear(std::uint32_t block_id, pim::Col col) const {
  const auto it = wear_.find({block_id, col});
  return it == wear_.end() ? 0 : it->second;
}

}  // namespace cryptopim::reliability
