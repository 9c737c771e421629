#include "runtime/resilience.h"

#include <algorithm>
#include <cmath>

namespace cryptopim::runtime {

ResilienceConfig ResilienceConfig::chaos_preset(std::uint64_t seed) {
  ResilienceConfig r;
  r.max_retries = 2;
  r.retry_budget_ratio = 0.2;
  r.hedge = true;          // p99-derived delay
  r.breaker_k = 4;
  r.wear_limit = 4096;
  r.codel_target_us = 500.0;
  r.chaos.enabled = true;
  r.chaos.seed = seed;
  return r;
}

// -- RetryBudget --------------------------------------------------------------

namespace {
/// Tokens a fresh bucket starts with: a cold-start reserve so the very
/// first failures of a run can still retry before any accrual (the
/// long-run retry rate stays governed by `ratio`).
constexpr double kColdStartTokens = 2.0;
}  // namespace

RetryBudget::RetryBudget(std::uint32_t tenants, double ratio, double cap)
    : tokens_(tenants, std::min(cap, kColdStartTokens)),
      ratio_(ratio),
      cap_(cap) {}

void RetryBudget::on_admitted(std::uint32_t tenant) {
  if (tenant >= tokens_.size()) return;
  tokens_[tenant] = std::min(cap_, tokens_[tenant] + ratio_);
}

bool RetryBudget::try_spend(std::uint32_t tenant) {
  if (tenant >= tokens_.size()) return false;
  if (tokens_[tenant] < 1.0) return false;
  tokens_[tenant] -= 1.0;
  return true;
}

double RetryBudget::tokens(std::uint32_t tenant) const {
  return tenant < tokens_.size() ? tokens_[tenant] : 0.0;
}

std::uint64_t retry_backoff(std::uint64_t base, std::uint64_t cap,
                            unsigned attempt) {
  std::uint64_t b = base;
  for (unsigned i = 1; i < attempt && b < cap; ++i) b <<= 1;
  return std::min(b, cap);
}

// -- hedging ------------------------------------------------------------------

std::uint64_t hedge_delay(double fixed_us, double cycles_per_us,
                          const obs::Histogram& service,
                          std::uint64_t min_samples) {
  if (fixed_us > 0) return static_cast<std::uint64_t>(fixed_us * cycles_per_us);
  if (service.count() < min_samples) return 0;
  return service.quantile(0.99);
}

// -- CircuitBreaker -----------------------------------------------------------

bool CircuitBreaker::can_accept(std::uint64_t now) const {
  if (k_ == 0) return true;
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      return now >= open_until_;  // probe becomes possible
    case State::kHalfOpen:
      return !probe_in_flight_;
  }
  return true;
}

bool CircuitBreaker::note_dispatch(std::uint64_t now) {
  if (k_ == 0) return false;
  if (state_ == State::kOpen && now >= open_until_) {
    state_ = State::kHalfOpen;
    probe_in_flight_ = false;
  }
  if (state_ == State::kHalfOpen) {
    probe_in_flight_ = true;
    return true;
  }
  return false;
}

bool CircuitBreaker::record(bool success, std::uint64_t now) {
  if (k_ == 0) return false;
  if (success) {
    failures_ = 0;
    state_ = State::kClosed;
    probe_in_flight_ = false;
    return false;
  }
  failures_ += 1;
  probe_in_flight_ = false;
  // A half-open probe failure re-opens immediately; a closed lane opens
  // only after K consecutive failures.
  if (state_ == State::kHalfOpen || failures_ >= k_) {
    const bool was_open = state_ == State::kOpen;
    state_ = State::kOpen;
    open_until_ = now + open_cycles_;
    return !was_open;
  }
  return false;
}

void CircuitBreaker::note_cancelled(std::uint64_t now) {
  if (k_ == 0) return;
  if (state_ == State::kHalfOpen && probe_in_flight_) {
    probe_in_flight_ = false;
    state_ = State::kOpen;
    open_until_ = now + open_cycles_;
  }
}

// -- CoDelShedder -------------------------------------------------------------

std::uint64_t CoDelShedder::next_drop_interval() const {
  // CoDel control law: successive drops tighten as interval / sqrt(count).
  const double denom = std::sqrt(static_cast<double>(
      drop_count_ == 0 ? 1 : drop_count_));
  const auto iv = static_cast<std::uint64_t>(
      static_cast<double>(interval_) / denom);
  return iv == 0 ? 1 : iv;
}

bool CoDelShedder::should_drop(std::uint64_t sojourn, std::uint64_t now) {
  if (target_ == 0) return false;
  if (sojourn < target_) {
    // Sojourn dipped below target: leave the dropping phase entirely.
    first_above_ = 0;
    dropping_ = false;
    drop_count_ = 0;
    return false;
  }
  if (!dropping_) {
    if (first_above_ == 0) {
      // First sample above target: give the queue one interval to drain.
      first_above_ = now + interval_;
      return false;
    }
    if (now < first_above_) return false;
    dropping_ = true;
    drop_count_ = 1;
    drop_next_ = now + next_drop_interval();
    return true;  // drop the head request that kept us above target
  }
  if (now < drop_next_) return false;
  drop_count_ += 1;
  drop_next_ = now + next_drop_interval();
  return true;
}

// -- HealthMonitor ------------------------------------------------------------

namespace {
/// FaultModel block ids for lane wear: one id per (lane, remap epoch) so
/// a remap onto fresh banks restarts the wear counter. Disjoint epochs
/// per lane; 256 remaps per lane is far beyond any simulated run.
constexpr std::uint32_t kEpochsPerLane = 256;
/// Exponential decay applied to the failure score per recorded verify.
constexpr double kFailureDecay = 0.9;
/// Health-score weight of one decayed failure.
constexpr double kFailureWeight = 0.25;
}  // namespace

HealthMonitor::HealthMonitor(const ResilienceConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      wear_model_([&] {
        reliability::FaultConfig fc;
        fc.endurance_limit = cfg.wear_limit;
        fc.seed = seed;
        return fc;
      }()) {}

std::uint32_t HealthMonitor::block_id(std::size_t lane) const {
  const auto& h = lanes_[lane];
  return static_cast<std::uint32_t>(lane) * kEpochsPerLane + h.epoch;
}

HealthMonitor::LaneHealth& HealthMonitor::state(std::size_t lane) {
  if (lane >= lanes_.size()) lanes_.resize(lane + 1);
  return lanes_[lane];
}

bool HealthMonitor::note_dispatch(std::size_t lane) {
  state(lane);
  if (cfg_.wear_limit == 0) return false;
  return wear_model_.note_wear(block_id(lane), /*col=*/0);
}

void HealthMonitor::record_verify(std::size_t lane, bool ok) {
  LaneHealth& h = state(lane);
  h.verifies += 1;
  h.failure_score = h.failure_score * kFailureDecay + (ok ? 0.0 : 1.0);
}

void HealthMonitor::on_remap(std::size_t lane) {
  LaneHealth& h = state(lane);
  h.epoch += 1;
  h.failure_score = 0.0;
}

void HealthMonitor::on_scrub(std::size_t lane) {
  state(lane).failure_score = 0.0;
}

std::uint64_t HealthMonitor::wear_writes(std::size_t lane) const {
  if (lane >= lanes_.size() || cfg_.wear_limit == 0) return 0;
  return wear_model_.wear(block_id(lane), /*col=*/0);
}

double HealthMonitor::wear_fraction(std::size_t lane) const {
  if (cfg_.wear_limit == 0) return 0.0;
  return static_cast<double>(wear_writes(lane)) /
         static_cast<double>(cfg_.wear_limit);
}

bool HealthMonitor::wants_drain(std::size_t lane) const {
  if (cfg_.wear_limit == 0 || lane >= lanes_.size()) return false;
  return wear_fraction(lane) >= cfg_.drain_fraction;
}

double HealthMonitor::score(std::size_t lane) const {
  if (lane >= lanes_.size()) return 1.0;
  const double burden = wear_fraction(lane) +
                        kFailureWeight * lanes_[lane].failure_score;
  return std::clamp(1.0 - burden, 0.0, 1.0);
}

bool HealthMonitor::wants_scrub(std::size_t lane) const {
  if (lane >= lanes_.size()) return false;
  // Scrubbing re-programs cells: it forgives transient failure history
  // but cannot un-wear a column, so pure wear burden never triggers it.
  return lanes_[lane].failure_score * kFailureWeight >
         1.0 - cfg_.scrub_threshold;
}

// -- ResilienceStats ----------------------------------------------------------

obs::Json ResilienceStats::to_json() const {
  obs::Json j = obs::Json::object();
  j.set("rejected_deadline", rejected_deadline);
  j.set("timed_out", timed_out);
  j.set("shed", shed);
  j.set("retries", retries);
  j.set("retry_budget_denied", retry_budget_denied);
  j.set("failed", failed);
  j.set("hedges", hedges);
  j.set("hedge_wins", hedge_wins);
  j.set("hedge_cancelled", hedge_cancelled);
  j.set("breaker_opens", breaker_opens);
  j.set("breaker_probes", breaker_probes);
  j.set("breaker_closes", breaker_closes);
  j.set("scrubs", scrubs);
  j.set("proactive_remaps", proactive_remaps);
  j.set("wear_corruptions", wear_corruptions);
  j.set("chaos_episodes", chaos_episodes);
  j.set("detected_corruptions", detected_corruptions);
  j.set("wrong_accepted", wrong_accepted);
  return j;
}

}  // namespace cryptopim::runtime
