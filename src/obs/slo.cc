#include "obs/slo.h"

#include <cassert>

namespace cryptopim::obs {

namespace {

/// Burn rate of one window: observed error rate over allowed error rate.
/// An objective of 1.0 allows zero errors; any error is infinite burn,
/// reported as a large sentinel (JSON has no infinity).
constexpr double kInfiniteBurn = 1e9;

double burn_rate(std::uint64_t bad, std::uint64_t total, double objective) {
  if (objective <= 0.0 || total == 0) return 0.0;
  const double allowed = 1.0 - objective;
  const double rate = static_cast<double>(bad) / static_cast<double>(total);
  if (allowed <= 0.0) return bad == 0 ? 0.0 : kInfiniteBurn;
  return rate / allowed;
}

double budget_consumed(std::uint64_t bad, std::uint64_t total,
                       double objective) {
  // Identical formula — cumulative burn is budget consumption.
  return burn_rate(bad, total, objective);
}

}  // namespace

SloAccountant::SloAccountant(SloConfig cfg, std::uint64_t window_cycles,
                             double cycles_per_us)
    : cfg_(cfg), window_cycles_(window_cycles ? window_cycles : 1) {
  if (cfg_.latency_us > 0.0 && cycles_per_us > 0.0) {
    latency_cycles_limit_ =
        static_cast<std::uint64_t>(cfg_.latency_us * cycles_per_us);
  }
}

SloAccountant::Window& SloAccountant::window_for(std::uint64_t cycle) {
  const std::uint64_t idx = cycle / window_cycles_;
  if (!windows_.empty() && windows_.back().index == idx) {
    return windows_.back();
  }
  // The runtime scores every outcome at its monotonic event clock.
  assert(windows_.empty() || idx > windows_.back().index);
  windows_.push_back(Window{idx});
  return windows_.back();
}

void SloAccountant::record_good(std::uint64_t cycle,
                                std::uint64_t latency_cycles) {
  if (!enabled()) return;
  Window& w = window_for(cycle);
  w.good += 1;
  good_ += 1;
  if (latency_cycles_limit_ > 0 && latency_cycles > latency_cycles_limit_) {
    w.lat_viol += 1;
    lat_viol_ += 1;
  }
}

void SloAccountant::record_bad(std::uint64_t cycle) {
  if (!enabled()) return;
  window_for(cycle).bad += 1;
  bad_ += 1;
}

double SloAccountant::availability() const noexcept {
  const std::uint64_t t = total();
  return t == 0 ? 1.0 : static_cast<double>(good_) / static_cast<double>(t);
}

double SloAccountant::error_budget_consumed() const noexcept {
  return budget_consumed(bad_, total(), cfg_.availability);
}

double SloAccountant::latency_budget_consumed() const noexcept {
  // Latency violations are measured against completions only.
  return budget_consumed(lat_viol_, good_, SloConfig::kLatencyObjective);
}

double SloAccountant::max_window_burn() const noexcept {
  double max_burn = 0.0;
  for (const Window& w : windows_) {
    const double b = burn_rate(w.bad, w.good + w.bad, cfg_.availability);
    if (b > max_burn) max_burn = b;
  }
  return max_burn;
}

Json SloAccountant::to_json() const {
  Json doc = Json::object();
  doc.set("schema", "slo/1");
  doc.set("availability_objective", cfg_.availability);
  doc.set("latency_objective_us", cfg_.latency_us);
  doc.set("latency_objective_fraction", SloConfig::kLatencyObjective);
  doc.set("window_cycles", window_cycles_);

  Json summary = Json::object();
  summary.set("total", total());
  summary.set("errors", errors());
  summary.set("availability", availability());
  summary.set("error_budget_consumed", error_budget_consumed());
  summary.set("latency_violations", latency_violations());
  summary.set("latency_budget_consumed", latency_budget_consumed());
  summary.set("max_window_burn", max_window_burn());
  doc.set("summary", std::move(summary));

  Json windows = Json::array();
  for (const Window& w : windows_) {
    Json wj = Json::object();
    wj.set("start", w.index * window_cycles_);
    wj.set("total", w.good + w.bad);
    wj.set("errors", w.bad);
    wj.set("burn", burn_rate(w.bad, w.good + w.bad, cfg_.availability));
    wj.set("latency_violations", w.lat_viol);
    wj.set("latency_burn",
           burn_rate(w.lat_viol, w.good,
                     cfg_.latency_us > 0.0 ? SloConfig::kLatencyObjective
                                           : 0.0));
    windows.push_back(std::move(wj));
  }
  doc.set("windows", std::move(windows));
  return doc;
}

}  // namespace cryptopim::obs
