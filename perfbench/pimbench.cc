// pimbench: one pass of one repository-benchmark workload.
//
//   pimbench --workload W --seed S --pass timed|traced|journal
//            --work-dir DIR [--trace-out FILE]
//
// Passes:
//   timed   the workload with tracing off: set-up and loop wall time, peak
//           RSS at the end of the loop, and the run's simulated counters;
//   traced  the same run with a host-clock span around every call into a
//           layer (construct, prime, each step, seal, report), followed by
//           replays that time the layers the runtime calls internally
//           (operand sampling, backend execute, Freivalds verifier,
//           workload generator, routers, event log, journal) and the
//           gate-vs-model cycle gap;
//   journal fleet-64 only: the run with its write-ahead journal, whose
//           admission and completion records give exact per-request
//           latencies.
//
// Prints one JSON line {"host", "sim", "layers", "failures"}. Simulated
// counters are exact and repeat for a seed; `failures` lists every broken
// correctness gate. perfbench/run.py runs the passes, cross-checks them
// and prints the benchmark result.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.h"
#include "ntt/ntt.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "reliability/verifier.h"
#include "runtime/backend.h"
#include "runtime/fleet.h"
#include "runtime/journal.h"
#include "runtime/serving.h"
#include "runtime/workload.h"
#include "sim/simulator.h"

namespace {

namespace rt = cryptopim::runtime;
namespace obs = cryptopim::obs;
namespace ntt = cryptopim::ntt;
using cryptopim::Xoshiro256;
using perfbench::SpanLog;
using perfbench::StepClass;

/// Degrees the per-degree metrics are reported for (the default mix).
constexpr std::uint32_t kDegrees[] = {256, 1024, 4096};
constexpr double kQuantiles[] = {0.5, 0.99, 0.999};
constexpr const char* kQuantileNames[] = {"p50", "p99", "p999"};
constexpr const char* kRouters[] = {"hash", "least", "affinity"};
/// Event-log records re-logged by the traced pass (bounds its memory).
constexpr std::size_t kEventLogReplay = 50000;

using Failures = std::vector<std::string>;

struct Options {
  std::string workload;
  std::string pass;
  std::string work_dir;
  std::string trace_out;
  std::uint64_t seed = 1;
};

bool is_fleet(const std::string& w) { return w == "fleet-64"; }
bool is_durable(const std::string& w) { return w == "kem-durable"; }

/// The pinned workloads. Every one is open-loop Poisson on the word
/// backend with 4 tenants; see perfbench/README.md for why each exists.
rt::ServingConfig chip_config(const std::string& workload,
                              std::uint64_t seed) {
  rt::ServingConfig c;
  c.backend = "word";
  c.workload.tenants = 4;
  c.workload.seed = seed;
  c.workload.mix = {{256, 4.0}, {1024, 2.0}, {4096, 1.0}};
  c.workload.verify_every = 64;
  if (workload == "verify-heavy") {
    c.policy = "fifo";
    c.arrival_rate_per_s = 2e6;
    c.duration_us = 10000;
    c.workload.verify_every = 8;
  } else if (workload == "overload") {
    // One degree class and fifo: with the three-class mix the saturated
    // chip settles into one of several lane partitions depending on the
    // seed (2.3M, 3.1M or 4.0M req/s), and under wfq the latency tail
    // moves by +-18% with the seed. Both are too unsteady to gate on.
    c.policy = "fifo";
    c.arrival_rate_per_s = 1.5e6;
    c.duration_us = 10000;
    c.workload.mix = {{4096, 1.0}};
    c.workload.verify_every = 1024;
  } else if (workload == "kem-durable") {
    c.protocol.kind = rt::ProtocolKind::kKem;
    c.workload.mix = {{rt::kKemDegree, 1.0}};
    c.arrival_rate_per_s = 4e5;
    c.duration_us = 30000;
  } else if (workload == "fleet-64") {
    c.arrival_rate_per_s = 2e7;
    c.duration_us = 16000;
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return c;
}

rt::FleetConfig fleet_config(std::uint64_t seed) {
  rt::FleetConfig fc;
  fc.chips = 64;
  fc.router = "hash";
  fc.replicas = 2;
  fc.chip = chip_config("fleet-64", seed);
  return fc;
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss survives exec, so it would report the launcher's peak when
/// that is larger.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:   1234 kB"
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : n;
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string deg_key(const char* prefix, std::uint32_t n) {
  return std::string(prefix) + ".n" + std::to_string(n);
}

/// Exact latency quantiles with their sample count, cross-checked against
/// the report's pow2 histogram: each exact quantile must fall inside the
/// bucket the report names, and a quantile needs ten samples beyond it.
void latency_block(obs::Json& sim, std::vector<std::uint64_t> lat,
                   const obs::Histogram& hist, Failures& f) {
  std::sort(lat.begin(), lat.end());
  if (hist.count() != lat.size()) {
    f.push_back("latency samples (" + std::to_string(lat.size()) +
                ") != report histogram count (" +
                std::to_string(hist.count()) + ")");
  }
  double sum = 0;
  for (const std::uint64_t v : lat) sum += static_cast<double>(v);
  sim.set("latency_samples", std::uint64_t{lat.size()});
  sim.set("latency_mean_cycles", ratio(sum, static_cast<double>(lat.size())));
  for (std::size_t i = 0; i < std::size(kQuantiles); ++i) {
    const double q = kQuantiles[i];
    const std::uint64_t v = perfbench::exact_quantile(lat, q);
    sim.set(std::string("latency_") + kQuantileNames[i] + "_cycles", v);
    if (perfbench::samples_beyond(lat.size(), q) < 10) {
      f.push_back(std::string("fewer than 10 samples beyond ") +
                  kQuantileNames[i]);
    }
    if (perfbench::pow2_bucket(v) != perfbench::pow2_bucket(hist.quantile(q))) {
      f.push_back(std::string("exact ") + kQuantileNames[i] +
                  " outside the report's pow2 bucket");
    }
  }
}

// -- single chip ----------------------------------------------------------------

/// What the outcome sink saw: one terminal fate per request.
struct Ledger {
  std::uint64_t fates[5] = {};
  std::vector<std::uint64_t> latencies;  ///< completed: cycle - arrival
  std::vector<rt::Request> verified;     ///< completed raw data carriers
};

struct ChipPass {
  rt::ServingConfig cfg;
  rt::ServingReport report;
  Ledger ledger;
  obs::EventLog elog;  ///< kem-durable: the streamed lifecycle log
  SpanLog spans;
  std::int64_t setup_ns = 0;  ///< construct + prime, cold (first in process)
  std::int64_t loop_ns = 0;
  double peak_rss_mb = 0;     ///< read right after seal()
};

/// kem-durable's durability: the write-ahead journal and the streamed
/// lifecycle event log, both under `dir`.
void attach_durability(const std::string& dir, rt::ServingRuntime& chip,
                       obs::EventLog& elog) {
  rt::DurabilityOptions d;
  d.dir = dir + "/journal";
  chip.enable_durability(d);
  elog.open_stream(dir + "/events.jsonl", /*line_buffered=*/false);
  chip.set_event_log(&elog);
}

/// Runs the workload through the stepping API (run() == prime; step*;
/// seal). With `traced`, every step is timed and classified.
void run_chip(const Options& o, bool traced, ChipPass& p) {
  p.cfg = chip_config(o.workload, o.seed);
  const bool durable = is_durable(o.workload);
  const bool keep_verified = traced && !p.cfg.protocol.enabled();
  SpanLog& s = p.spans;

  const std::int64_t t_construct = s.now_ns();
  rt::ServingRuntime chip(p.cfg);
  if (durable) attach_durability(o.work_dir, chip, p.elog);
  Ledger& l = p.ledger;
  chip.set_outcome_sink([&l, keep_verified](const rt::Request& r,
                                            rt::Outcome outcome,
                                            std::uint64_t cycle) {
    l.fates[static_cast<unsigned>(outcome)] += 1;
    if (outcome != rt::Outcome::kCompleted) return;
    l.latencies.push_back(cycle - r.arrival_cycle);
    if (keep_verified && r.verify) l.verified.push_back(r);
  });
  const std::int64_t t_prime = s.now_ns();
  s.add("construct", 0, t_construct, t_prime);
  chip.prime();
  const std::int64_t t_loop = s.now_ns();
  s.add("prime", 0, t_prime, t_loop);

  if (traced) {
    perfbench::StepCounters before = perfbench::step_counters(chip.live());
    while (chip.has_events()) {
      const std::int64_t t0 = s.now_ns();
      chip.step();
      const std::int64_t t1 = s.now_ns();
      const perfbench::StepCounters after = perfbench::step_counters(chip.live());
      s.add("step", static_cast<std::uint32_t>(perfbench::classify_step(before, after)),
            t0, t1);
      before = after;
    }
  } else {
    while (chip.has_events()) chip.step();
  }

  const std::int64_t t_seal = s.now_ns();
  p.report = chip.seal();
  if (durable) p.elog.close_stream();
  const std::int64_t t_end = s.now_ns();
  s.add("seal", 0, t_seal, t_end);
  p.peak_rss_mb = peak_rss_mb();
  p.setup_ns = t_loop - t_construct;
  p.loop_ns = t_end - t_prime;
  if (traced) {
    const std::int64_t t0 = s.now_ns();
    const std::string doc = p.report.to_json().dump();
    s.add("report_json", 0, t0, s.now_ns());
  }
}

obs::Json chip_sim(const ChipPass& p, Failures& f) {
  const rt::ServingReport& r = p.report;
  const Ledger& l = p.ledger;
  const bool proto = p.cfg.protocol.enabled();
  const std::uint64_t submitted = proto ? r.protocol.requests : r.submitted;
  const std::uint64_t completed = proto ? r.protocol.completed : r.completed;
  const std::uint64_t rejected =
      proto ? r.protocol.rejected
            : r.rejected + r.rejected_unservable +
                  r.resilience.rejected_deadline;
  const std::uint64_t queued = proto ? 0 : r.queued + r.in_flight;
  std::uint64_t fated = 0;
  for (const std::uint64_t n : l.fates) fated += n;

  // Fate conservation: every submitted request has exactly one fate, and
  // the sink's ledger agrees with the report's counters.
  if (submitted != fated + queued) {
    f.push_back("fate conservation: submitted " + std::to_string(submitted) +
                " != fated " + std::to_string(fated) + " + queued " +
                std::to_string(queued));
  }
  if (l.fates[static_cast<unsigned>(rt::Outcome::kCompleted)] != completed ||
      l.fates[static_cast<unsigned>(rt::Outcome::kRejected)] != rejected) {
    f.push_back("outcome sink disagrees with the report's counters");
  }
  if (r.verify_failures != 0) {
    f.push_back(std::to_string(r.verify_failures) + " verify failures");
  }
  if (r.resilience.wrong_accepted != 0) {
    f.push_back(std::to_string(r.resilience.wrong_accepted) +
                " wrong-accepted results");
  }
  if (r.protocol.join_mismatches != 0) {
    f.push_back(std::to_string(r.protocol.join_mismatches) +
                " protocol join mismatches");
  }

  const double drain_s =
      static_cast<double>(r.drain_cycle) * p.cfg.cycle_ns * 1e-9;
  obs::Json sim = obs::Json::object();
  sim.set("submitted", submitted);
  sim.set("completed", completed);
  sim.set("rejected", l.fates[static_cast<unsigned>(rt::Outcome::kRejected)]);
  sim.set("shed", l.fates[static_cast<unsigned>(rt::Outcome::kShed)]);
  sim.set("timed_out", l.fates[static_cast<unsigned>(rt::Outcome::kTimedOut)]);
  sim.set("failed", l.fates[static_cast<unsigned>(rt::Outcome::kFailed)]);
  sim.set("queued", queued);
  sim.set("ops_submitted", r.submitted);
  sim.set("ops_completed", r.completed);
  sim.set("drain_cycle", r.drain_cycle);
  sim.set("throughput_per_s", ratio(static_cast<double>(completed), drain_s));
  sim.set("goodput_frac", ratio(static_cast<double>(completed),
                                static_cast<double>(submitted)));
  sim.set("utilization", r.utilization);
  sim.set("repartitions", r.repartitions);
  sim.set("queue_depth_max", r.queue_depth.max());
  sim.set("verified", r.verified);
  sim.set("bad_results", r.verify_failures + r.resilience.wrong_accepted +
                             r.protocol.join_mismatches);
  sim.set("joins", r.protocol.joins);
  sim.set("host_ops", r.protocol.host_ops);
  sim.set("ops_per_request", std::uint64_t{r.protocol.ops_per_request});
  latency_block(sim, l.latencies,
                proto ? r.protocol.latency_cycles : r.latency_cycles, f);
  return sim;
}

// -- replays (traced pass) ------------------------------------------------------

/// Regenerates the run's arrival stream with the same generator and seed;
/// one span for the whole stream (a single call is below clock resolution).
std::vector<rt::Request> replay_workload(const rt::ServingConfig& cfg,
                                         SpanLog& s) {
  const double rate_per_cycle = cfg.arrival_rate_per_s / (1e9 / cfg.cycle_ns);
  const auto horizon =
      static_cast<std::uint64_t>(cfg.duration_us * cfg.cycles_per_us());
  std::vector<rt::Request> out;
  out.reserve(static_cast<std::size_t>(
      1.2 * rate_per_cycle * static_cast<double>(horizon) + 16));
  const std::int64_t t0 = s.now_ns();
  rt::OpenLoopPoisson gen(cfg.workload, rate_per_cycle, horizon);
  for (const rt::Arrival& first : gen.initial()) {
    rt::Arrival a = first;
    for (;;) {
      out.push_back(a.request);
      auto next = gen.next_after_arrival(a);
      if (!next) break;
      a = *next;
    }
  }
  s.add("workload.generate", 0, t0, s.now_ns());
  return out;
}

/// Times Router::pick over the regenerated stream for every router, with
/// a two-chip placement per degree class (the fleet's replicas = 2).
void replay_routers(const rt::ServingConfig& cfg,
                    const std::vector<rt::Request>& arrivals, SpanLog& s) {
  for (std::uint32_t i = 0; i < std::size(kRouters); ++i) {
    const auto router = rt::make_router(kRouters[i]);
    std::vector<rt::ChipView> cands(2);
    const std::int64_t t0 = s.now_ns();
    for (const rt::Request& r : arrivals) {
      std::uint32_t cls = 0;
      while (cls + 1 < cfg.workload.mix.size() &&
             cfg.workload.mix[cls].degree != r.degree) {
        ++cls;
      }
      cands[0] = rt::ChipView{2 * cls, r.id % 7, r.id % 3};
      cands[1] = rt::ChipView{2 * cls + 1, (r.id / 7) % 7, (r.id / 3) % 3};
      router->pick(r, cands);
    }
    s.add("router.pick", i, t0, s.now_ns());
  }
}

/// Re-executes every verified request of the run through the public calls
/// ServingRuntime::verify_result makes: operand sampling from the
/// request's data seed, the backend multiply, verifier set-up and the
/// Freivalds check. Each product is also compared with the GsNttEngine
/// oracle.
void replay_verified(const rt::ServingConfig& cfg,
                     const std::vector<rt::Request>& reqs, SpanLog& s,
                     Failures& f) {
  const auto backend = rt::make_backend(cfg.backend);
  std::map<std::uint32_t, ntt::NttParams> params;
  std::map<std::uint32_t, std::unique_ptr<ntt::GsNttEngine>> oracles;
  for (const rt::Request& r : reqs) {
    auto it = params.find(r.degree);
    if (it == params.end()) {
      it = params.emplace(r.degree, ntt::NttParams::for_degree(r.degree)).first;
      oracles.emplace(r.degree, std::make_unique<ntt::GsNttEngine>(it->second));
    }
    const ntt::NttParams& np = it->second;
    const std::int64_t t0 = s.now_ns();
    Xoshiro256 rng(r.data_seed);
    const ntt::Poly a = ntt::sample_uniform(np.n, np.q, rng);
    const ntt::Poly b = ntt::sample_uniform(np.n, np.q, rng);
    const std::int64_t t1 = s.now_ns();
    const rt::BackendResult res = backend->execute(np, a, b);
    const std::int64_t t2 = s.now_ns();
    cryptopim::reliability::VerifyConfig vc;
    vc.points = cfg.verify_points;
    vc.seed = r.data_seed ^ 0x5eed5eedULL;  // as verify_result derives it
    cryptopim::reliability::ResultVerifier verifier(np, vc);
    const std::int64_t t3 = s.now_ns();
    const bool ok = verifier.check(a, b, res.product);
    const std::int64_t t4 = s.now_ns();
    const std::int32_t parent = s.add("replay.verify", r.degree, t0, t4);
    s.add("ntt.sample", r.degree, t0, t1, parent);
    s.add("backend.execute", r.degree, t1, t2, parent);
    s.add("verifier.setup", r.degree, t2, t3, parent);
    s.add("verifier.check", r.degree, t3, t4, parent);
    if (!ok) {
      f.push_back("replayed Freivalds check failed for request " +
                  std::to_string(r.id));
    }
    if (res.product != oracles.at(r.degree)->negacyclic_multiply(a, b)) {
      f.push_back("replayed product differs from the GsNttEngine oracle for "
                  "request " + std::to_string(r.id));
    }
  }
}

/// Re-logs the run's lifecycle records into a fresh streamed log and
/// replays the run's journal: load it back, then record every payload
/// into a fresh journal. Both time one call per record.
void replay_durability(const Options& o, const obs::EventLog& elog,
                       obs::Json& layers, SpanLog& s, Failures& f) {
  const std::string events_path = o.work_dir + "/events.jsonl";
  const std::string journal_path = o.work_dir + "/journal/journal.log";
  layers.set("event_log.records", std::uint64_t{elog.size()});
  layers.set("event_log.bytes", file_bytes(events_path));
  {
    obs::EventLog replay;
    replay.open_stream(o.work_dir + "/replay-events.jsonl", false);
    const std::size_t n = std::min(elog.size(), kEventLogReplay);
    for (std::size_t i = 0; i < n; ++i) {
      obs::Json rec = elog.records()[i];
      const std::int64_t t0 = s.now_ns();
      replay.log(std::move(rec));
      s.add("event_log.log", 0, t0, s.now_ns());
    }
    replay.close_stream();
  }

  const std::int64_t t0 = s.now_ns();
  const rt::Journal::LoadResult loaded = rt::Journal::load(journal_path);
  s.add("journal.load", 0, t0, s.now_ns());
  if (!loaded.ok || !loaded.sealed || loaded.payloads.empty()) {
    f.push_back("journal did not load back sealed: " + loaded.error);
    return;
  }
  layers.set("journal.records", std::uint64_t{loaded.payloads.size()});
  layers.set("journal.bytes", file_bytes(journal_path));
  rt::Journal replay;
  replay.open(o.work_dir + "/replay-journal.log", loaded.payloads.front(),
              /*recover=*/false);
  for (std::size_t i = 1; i < loaded.payloads.size(); ++i) {
    const std::int64_t t1 = s.now_ns();
    replay.record(loaded.payloads[i]);
    s.add("journal.record", 0, t1, s.now_ns());
  }
}

/// The gate-vs-model cycle gap per degree: the gate-level simulator's
/// measured wall cycles for one multiply against the analytic model's
/// charge (what the word backend and the serving runtime account). The
/// gate product is checked against the GsNttEngine oracle too.
void model_gap(std::uint64_t seed, obs::Json& layers, Failures& f) {
  for (const std::uint32_t n : kDegrees) {
    const ntt::NttParams np = ntt::NttParams::for_degree(n);
    Xoshiro256 rng(seed ^ n);
    const ntt::Poly a = ntt::sample_uniform(np.n, np.q, rng);
    const ntt::Poly b = ntt::sample_uniform(np.n, np.q, rng);
    cryptopim::sim::CryptoPimSimulator gate(np);
    const ntt::Poly c = gate.multiply(a, b);
    if (c != ntt::GsNttEngine(np).negacyclic_multiply(a, b)) {
      f.push_back("gate-level product differs from the GsNttEngine oracle at n=" +
                  std::to_string(n));
    }
    const std::uint64_t gate_cycles = gate.report().wall_cycles;
    const std::uint64_t model_cycles = rt::analytic_accounting(n).sim_cycles;
    layers.set(deg_key("model.service_cycles", n), model_cycles);
    layers.set(deg_key("sim.gate_cycles", n), gate_cycles);
    layers.set(deg_key("sim.gate_over_model", n),
               ratio(static_cast<double>(gate_cycles),
                     static_cast<double>(model_cycles)));
  }
}

/// Replays that every workload gets: the arrival generator (checked
/// against the run's submissions), the routers and the cycle gap.
void common_layers(const Options& o, const rt::ServingConfig& cfg,
                   std::uint64_t submitted, obs::Json& layers, SpanLog& s,
                   Failures& f) {
  const std::vector<rt::Request> arrivals = replay_workload(cfg, s);
  if (arrivals.size() != submitted) {
    f.push_back("regenerated arrival stream (" +
                std::to_string(arrivals.size()) +
                ") != the run's submissions (" + std::to_string(submitted) +
                ")");
  }
  const double n = static_cast<double>(arrivals.size());
  layers.set("workload.arrivals", std::uint64_t{arrivals.size()});
  layers.set("workload.gen_ns",
             ratio(static_cast<double>(s.total_ns("workload.generate", 0)), n));
  replay_routers(cfg, arrivals, s);
  for (std::uint32_t i = 0; i < std::size(kRouters); ++i) {
    layers.set(std::string("fleet.router_pick_ns.") + kRouters[i],
               ratio(static_cast<double>(s.total_ns("router.pick", i)), n));
  }
  model_gap(o.seed, layers, f);
}

obs::Json chip_layers(const Options& o, ChipPass& p, const obs::Json& sim,
                      Failures& f) {
  SpanLog& s = p.spans;
  const rt::ServingReport& r = p.report;
  obs::Json layers = obs::Json::object();

  // runtime/serving, bench-driven step loop.
  const std::vector<std::int64_t> steps = s.durations("step", 0, true);
  const std::int64_t step_total = s.total_ns("step", 0, true);
  const std::uint64_t requests = sim.at("submitted").as_u64();
  layers.set("serving.events", std::uint64_t{steps.size()});
  layers.set("serving.events_per_request",
             ratio(static_cast<double>(steps.size()),
                   static_cast<double>(requests)));
  layers.set("serving.ns_per_event",
             ratio(static_cast<double>(step_total),
                   static_cast<double>(steps.size())));
  for (std::size_t c = 0; c < perfbench::kStepClasses; ++c) {
    const auto cls = static_cast<std::uint32_t>(c);
    const std::string base = std::string("serving.step_ns.") +
                             perfbench::step_class_name(StepClass(c));
    const std::vector<std::int64_t> d = s.durations("step", cls);
    layers.set(base + ".p50", perfbench::duration_quantile(d, 0.5));
    layers.set(base + ".p99", perfbench::duration_quantile(d, 0.99));
    layers.set(std::string("serving.busy_share.") +
                   perfbench::step_class_name(StepClass(c)),
               ratio(static_cast<double>(s.total_ns("step", cls)),
                     static_cast<double>(step_total)));
  }
  const std::int64_t prime_ns = s.total_ns("prime", 0);
  const std::int64_t seal_ns = s.total_ns("seal", 0);
  layers.set("serving.prime_s", seconds(prime_ns));
  layers.set("serving.seal_s", seconds(seal_ns));
  layers.set("serving.report_json_s", seconds(s.total_ns("report_json", 0, true)));
  layers.set("trace.coverage",
             ratio(static_cast<double>(prime_ns + step_total + seal_ns),
                   static_cast<double>(p.loop_ns)));

  // runtime/serving, simulated.
  layers.set("serving.utilization", r.utilization);
  layers.set("serving.repartitions", r.repartitions);
  layers.set("serving.rejected", sim.at("rejected").as_u64());
  layers.set("serving.queue_depth_max", r.queue_depth.max());

  // runtime/protocol.
  if (p.cfg.protocol.enabled()) {
    layers.set("protocol.requests", r.protocol.requests);
    layers.set("protocol.ops_per_request",
               std::uint64_t{r.protocol.ops_per_request});
    layers.set("protocol.host_ops", r.protocol.host_ops);
    layers.set("protocol.joins", r.protocol.joins);
  }

  // ntt, runtime/backend, reliability: replay of the verified requests.
  replay_verified(p.cfg, p.ledger.verified, s, f);
  if (!p.cfg.protocol.enabled() && p.ledger.verified.size() != r.verified) {
    f.push_back("replayed " + std::to_string(p.ledger.verified.size()) +
                " verified requests, the run verified " +
                std::to_string(r.verified));
  }
  for (const std::uint32_t n : kDegrees) {
    const double count = static_cast<double>(s.durations("replay.verify", n).size());
    if (count == 0) continue;
    layers.set(deg_key("verify.count", n), static_cast<std::uint64_t>(count));
    layers.set(deg_key("ntt.sample_ns", n),
               static_cast<double>(s.total_ns("ntt.sample", n)) / count);
    layers.set(deg_key("backend.execute_ns", n),
               static_cast<double>(s.total_ns("backend.execute", n)) / count);
    layers.set(deg_key("verifier.setup_ns", n),
               static_cast<double>(s.total_ns("verifier.setup", n)) / count);
    layers.set(deg_key("verifier.check_ns", n),
               static_cast<double>(s.total_ns("verifier.check", n)) / count);
  }
  const std::int64_t checked_ns =
      s.total_ns("step", static_cast<std::uint32_t>(StepClass::kChecked));
  if (!p.ledger.verified.empty()) {
    layers.set("verify.replay_share",
               ratio(static_cast<double>(s.total_ns("replay.verify", 0, true)),
                     static_cast<double>(checked_ns)));
  }

  // obs/event_log, runtime/journal.
  if (is_durable(o.workload)) {
    replay_durability(o, p.elog, layers, s, f);
    const auto per_call = [&s](const char* name) {
      const std::vector<std::int64_t> d = s.durations(name, 0);
      return ratio(static_cast<double>(s.total_ns(name, 0)),
                   static_cast<double>(d.size()));
    };
    layers.set("event_log.log_ns", per_call("event_log.log"));
    layers.set("journal.record_ns", per_call("journal.record"));
    layers.set("journal.load_s", seconds(s.total_ns("journal.load", 0)));
  }

  common_layers(o, p.cfg, requests, layers, s, f);
  return layers;
}

// -- fleet ----------------------------------------------------------------------

obs::Json fleet_sim(const rt::FleetConfig& fc, const rt::FleetReport& r,
                    Failures& f) {
  std::uint64_t verified = 0, verify_failures = 0, wrong_accepted = 0,
                repartitions = 0, idle = 0, max_completed = 0, chip_completed = 0;
  std::uint64_t queue_depth_max = 0;
  double utilization = 0;
  for (const rt::ServingReport& c : r.chip_reports) {
    verified += c.verified;
    verify_failures += c.verify_failures;
    wrong_accepted += c.resilience.wrong_accepted;
    repartitions += c.repartitions;
    idle += c.submitted == 0;
    max_completed = std::max(max_completed, c.completed);
    chip_completed += c.completed;
    queue_depth_max = std::max(queue_depth_max, c.queue_depth.max());
    utilization += c.utilization;
  }
  if (r.submitted !=
      r.completed + r.rejected + r.shed + r.timed_out + r.failed + r.queued) {
    f.push_back("fleet fate conservation broken");
  }
  if (verify_failures != 0) {
    f.push_back(std::to_string(verify_failures) + " verify failures");
  }
  if (wrong_accepted != 0) {
    f.push_back(std::to_string(wrong_accepted) + " wrong-accepted results");
  }
  const double drain_s =
      static_cast<double>(r.drain_cycle) * fc.chip.cycle_ns * 1e-9;
  obs::Json sim = obs::Json::object();
  sim.set("submitted", r.submitted);
  sim.set("completed", r.completed);
  sim.set("rejected", r.rejected);
  sim.set("shed", r.shed);
  sim.set("timed_out", r.timed_out);
  sim.set("failed", r.failed);
  sim.set("queued", r.queued);
  sim.set("drain_cycle", r.drain_cycle);
  sim.set("throughput_per_s", ratio(static_cast<double>(r.completed), drain_s));
  sim.set("goodput_frac", ratio(static_cast<double>(r.completed),
                                static_cast<double>(r.submitted)));
  sim.set("routed", r.routed);
  sim.set("parked", r.parked);
  sim.set("drains", r.drains);
  sim.set("migrated", r.migrated);
  sim.set("cross_retries", r.cross_retries);
  sim.set("retry_budget_denied", r.retry_budget_denied);
  sim.set("reshards", r.reshards);
  sim.set("verified", verified);
  sim.set("bad_results", verify_failures + wrong_accepted);
  sim.set("repartitions", repartitions);
  sim.set("idle_chips", idle);
  sim.set("max_chip_share", ratio(static_cast<double>(max_completed),
                                  static_cast<double>(chip_completed)));
  sim.set("queue_depth_max", queue_depth_max);
  sim.set("utilization",
          ratio(utilization, static_cast<double>(r.chip_reports.size())));
  return sim;
}

/// Exact per-request fleet latencies from the fleet journal: each
/// request's admission carries its arrival cycle and its completion
/// commitment the cycle it completed (hedging is off, so a request
/// completes at most once). The journal streams to disk; an event log
/// would hold ~1 kB per record in memory.
std::vector<std::uint64_t> fleet_latencies(const std::string& path,
                                           Failures& f) {
  const rt::Journal::LoadResult loaded = rt::Journal::load(path);
  if (!loaded.ok || !loaded.sealed) {
    f.push_back("fleet journal did not load back sealed: " + loaded.error);
    return {};
  }
  std::map<std::uint64_t, std::uint64_t> arrival;
  std::vector<std::uint64_t> lat;
  for (const std::string& payload : loaded.payloads) {
    const obs::JsonParseResult rec = obs::parse_json(payload);
    if (!rec.ok) {
      f.push_back("unparseable fleet journal record: " + rec.error);
      return {};
    }
    const std::string& type = rec.value.at("t").as_string();
    if (type == "admit") {
      arrival[rec.value.at("id").as_u64()] = rec.value.at("ac").as_u64();
    } else if (type == "out" && rec.value.at("o").as_string() == "completed") {
      lat.push_back(rec.value.at("c").as_u64() -
                    arrival.at(rec.value.at("id").as_u64()));
    }
  }
  return lat;
}

obs::Json fleet_layers(const Options& o, const rt::FleetConfig& fc,
                       const obs::Json& sim, SpanLog& s, Failures& f) {
  obs::Json layers = obs::Json::object();
  // The fleet steps its chips inside run(), so host time is end to end
  // only and trace.coverage is not measured (it reads 0).
  layers.set("serving.utilization", sim.at("utilization").as_number());
  layers.set("serving.repartitions", sim.at("repartitions").as_u64());
  layers.set("serving.rejected", sim.at("rejected").as_u64());
  layers.set("serving.queue_depth_max", sim.at("queue_depth_max").as_u64());
  for (const char* k : {"idle_chips", "drains", "migrated", "cross_retries",
                        "retry_budget_denied", "reshards"}) {
    layers.set(std::string("fleet.") + k, sim.at(k).as_u64());
  }
  layers.set("fleet.max_chip_share", sim.at("max_chip_share").as_number());
  common_layers(o, fc.chip, sim.at("submitted").as_u64(), layers, s, f);
  return layers;
}

// -- main -----------------------------------------------------------------------

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") o.workload = val;
    else if (key == "--pass") o.pass = val;
    else if (key == "--work-dir") o.work_dir = val;
    else if (key == "--trace-out") o.trace_out = val;
    else if (key == "--seed") o.seed = std::stoull(val);
    else throw std::invalid_argument("unknown argument: " + key);
  }
  if (argc % 2 == 0) throw std::invalid_argument("flags take one value each");
  if (o.workload.empty() || o.work_dir.empty() ||
      (o.pass != "timed" && o.pass != "traced" && o.pass != "journal")) {
    throw std::invalid_argument(
        "usage: pimbench --workload W --seed S --pass timed|traced|journal "
        "--work-dir DIR [--trace-out FILE]");
  }
  chip_config(o.workload, o.seed);  // rejects an unknown workload
  if (o.pass == "journal" && !is_fleet(o.workload)) {
    throw std::invalid_argument("the journal pass is for fleet-64 only");
  }
  return o;
}

obs::Json run_pass(const Options& o) {
  const bool traced = o.pass == "traced";
  Failures f;
  obs::Json host = obs::Json::object();
  obs::Json out = obs::Json::object();
  SpanLog fleet_spans;
  SpanLog* spans = &fleet_spans;
  std::unique_ptr<ChipPass> chip;

  if (is_fleet(o.workload)) {
    const rt::FleetConfig fc = fleet_config(o.seed);
    if (o.pass == "journal") {
      rt::FleetRuntime fleet(fc);
      rt::DurabilityOptions d;
      d.dir = o.work_dir + "/journal";
      fleet.enable_durability(d);
      const rt::FleetReport rep = fleet.run();
      obs::Json sim = fleet_sim(fc, rep, f);
      latency_block(sim, fleet_latencies(d.dir + "/fleet.log", f),
                    rep.latency_cycles, f);
      out.set("sim", std::move(sim));
    } else {
      if (!traced) {
        // Set-up: the fleet's construction and prime() run inside run(),
        // so a run with no arrivals measures them (64 chips primed,
        // sealed). It runs first, so it is the process's cold set-up.
        rt::FleetConfig empty = fc;
        empty.chip.duration_us = 0;
        const std::int64_t t = spans->now_ns();
        rt::FleetRuntime(empty).run();
        host.set("setup_s", seconds(spans->now_ns() - t));
      }
      const std::int64_t t0 = spans->now_ns();
      rt::FleetRuntime fleet(fc);
      const rt::FleetReport rep = fleet.run();
      const std::int64_t t1 = spans->now_ns();
      host.set("peak_rss_mb", peak_rss_mb());
      spans->add("fleet.run", 0, t0, t1);
      host.set("loop_s", seconds(t1 - t0));
      obs::Json sim = fleet_sim(fc, rep, f);
      if (traced) out.set("layers", fleet_layers(o, fc, sim, *spans, f));
      out.set("sim", std::move(sim));
    }
  } else {
    chip = std::make_unique<ChipPass>();
    run_chip(o, traced, *chip);
    spans = &chip->spans;
    host.set("setup_s", seconds(chip->setup_ns));
    host.set("loop_s", seconds(chip->loop_ns));
    host.set("peak_rss_mb", chip->peak_rss_mb);
    obs::Json sim = chip_sim(*chip, f);
    if (traced) out.set("layers", chip_layers(o, *chip, sim, f));
    out.set("sim", std::move(sim));
  }
  out.set("host", std::move(host));
  obs::Json failures = obs::Json::array();
  for (const std::string& msg : f) failures.push_back(msg);
  out.set("failures", std::move(failures));
  if (traced && !o.trace_out.empty()) spans->write_chrome_trace(o.trace_out);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    run_pass(o).write(std::cout);
    std::cout << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pimbench: " << e.what() << "\n";
    return 2;
  }
}
