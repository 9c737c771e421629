#include "obs/slo.h"

#include <algorithm>

namespace cryptopim::obs {

namespace {

/// Burn rate of one window: observed error rate over allowed error rate.
/// An objective of 1.0 allows zero errors; any error is infinite burn,
/// reported as a large sentinel (JSON has no infinity). Over a whole
/// run the same ratio is the budget consumed.
constexpr double kInfiniteBurn = 1e9;

double burn_rate(std::uint64_t bad, std::uint64_t total, double objective) {
  if (objective <= 0.0 || total == 0) return 0.0;
  const double allowed = 1.0 - objective;
  const double rate = static_cast<double>(bad) / static_cast<double>(total);
  if (allowed <= 0.0) return bad == 0 ? 0.0 : kInfiniteBurn;
  return rate / allowed;
}

/// One window's (or the run's) outcomes, each counter read through `n`.
struct Outcomes {
  std::uint64_t good, bad, latency_violations;
};

template <typename Count>
Outcomes outcomes(Count n) {
  Outcomes o{0, 0, n(SeriesCounter::kLatencyViolations)};
  for (const SeriesCounter c : kGoodOutcomes) o.good += n(c);
  for (const SeriesCounter c : kBadOutcomes) o.bad += n(c);
  return o;
}

Outcomes window_outcomes(const WindowedSeries& series, std::size_t w) {
  return outcomes([&](SeriesCounter c) { return series.counter_at(w, c); });
}

}  // namespace

SloSummary slo_summary(const SloConfig& cfg, const WindowedSeries& series) {
  const Outcomes run =
      outcomes([&](SeriesCounter c) { return series.total(c); });
  SloSummary s;
  s.total = run.good + run.bad;
  s.errors = run.bad;
  s.latency_violations = run.latency_violations;
  if (s.total != 0) {
    s.availability =
        static_cast<double>(run.good) / static_cast<double>(s.total);
  }
  s.error_budget_consumed = burn_rate(run.bad, s.total, cfg.availability);
  // Latency violations are measured against completions only.
  s.latency_budget_consumed = burn_rate(run.latency_violations, run.good,
                                        SloConfig::kLatencyObjective);
  // Burn rises with bad/total, so the worst evicted window stands for
  // every evicted one.
  const WindowedSeries::OutcomeShare evicted = series.worst_evicted();
  s.max_window_burn = burn_rate(evicted.bad, evicted.total, cfg.availability);
  for (std::size_t w = 0; w < series.window_count(); ++w) {
    const Outcomes o = window_outcomes(series, w);
    s.max_window_burn = std::max(
        s.max_window_burn, burn_rate(o.bad, o.good + o.bad, cfg.availability));
  }
  return s;
}

Json slo_to_json(const SloConfig& cfg, const WindowedSeries& series) {
  Json doc = Json::object();
  doc.set("schema", "slo/1");
  doc.set("availability_objective", cfg.availability);
  doc.set("latency_objective_us", cfg.latency_us);
  doc.set("latency_objective_fraction", SloConfig::kLatencyObjective);
  doc.set("window_cycles", series.window_cycles());

  const SloSummary s = slo_summary(cfg, series);
  Json summary = Json::object();
  summary.set("total", s.total);
  summary.set("errors", s.errors);
  summary.set("availability", s.availability);
  summary.set("error_budget_consumed", s.error_budget_consumed);
  summary.set("latency_violations", s.latency_violations);
  summary.set("latency_budget_consumed", s.latency_budget_consumed);
  summary.set("max_window_burn", s.max_window_burn);
  doc.set("summary", std::move(summary));

  const double latency_objective =
      cfg.latency_us > 0.0 ? SloConfig::kLatencyObjective : 0.0;
  Json windows = Json::array();
  for (std::size_t w = 0; w < series.window_count(); ++w) {
    const Outcomes o = window_outcomes(series, w);
    if (o.good + o.bad == 0) continue;  // no outcome in this window
    Json wj = Json::object();
    wj.set("start", series.window_start(w));
    wj.set("total", o.good + o.bad);
    wj.set("errors", o.bad);
    wj.set("burn", burn_rate(o.bad, o.good + o.bad, cfg.availability));
    wj.set("latency_violations", o.latency_violations);
    wj.set("latency_burn",
           burn_rate(o.latency_violations, o.good, latency_objective));
    windows.push_back(std::move(wj));
  }
  doc.set("windows", std::move(windows));
  return doc;
}

}  // namespace cryptopim::obs
