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

RetryBudget::RetryBudget(std::uint32_t tenants, double ratio)
    : tokens_(tenants, kColdStartTokens), ratio_(ratio) {}

void RetryBudget::on_admitted(std::uint32_t tenant) {
  if (tenant >= tokens_.size()) return;
  tokens_[tenant] = std::min(kCap, tokens_[tenant] + ratio_);
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

std::uint64_t duration_cycles(double us, double cycles_per_us) {
  if (!(us > 0)) return 0;
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(us * cycles_per_us));
}

std::uint64_t hedge_delay(double fixed_us, double cycles_per_us,
                          const obs::Histogram& service,
                          std::uint64_t min_samples) {
  if (fixed_us > 0) return duration_cycles(fixed_us, cycles_per_us);
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
    open_until_ = now + kOpenCycles;
    return !was_open;
  }
  return false;
}

void CircuitBreaker::note_cancelled(std::uint64_t now) {
  if (k_ == 0) return;
  if (state_ == State::kHalfOpen && probe_in_flight_) {
    probe_in_flight_ = false;
    state_ = State::kOpen;
    open_until_ = now + kOpenCycles;
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

// -- LaneHealth ---------------------------------------------------------------

namespace {
/// Exponential decay applied to the failure score per recorded outcome.
constexpr double kFailureDecay = 0.9;
/// Weight of one decayed failure against the scrub threshold.
constexpr double kFailureWeight = 0.25;
}  // namespace

bool LaneHealth::note_dispatch() {
  if (wear_limit_ == 0) return false;
  return ++wear_ == wear_limit_;
}

void LaneHealth::record(bool ok) {
  failure_score_ = failure_score_ * kFailureDecay + (ok ? 0.0 : 1.0);
}

bool LaneHealth::wants_drain() const {
  if (wear_limit_ == 0) return false;
  return static_cast<double>(wear_) / static_cast<double>(wear_limit_) >=
         kDrainFraction;
}

bool LaneHealth::wants_scrub() const {
  return failure_score_ * kFailureWeight > 1.0 - kScrubThreshold;
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
