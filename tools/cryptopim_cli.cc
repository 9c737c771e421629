// cryptopim — command-line front end to the library.
//
//   cryptopim multiply --degree N [--seed S]   run one multiplication in
//             [--fault-rate R] [--fault-seed F] simulated crossbars, verify,
//             [--verify T]                      report cycles/energy; with a
//                                              fault rate, run under the
//                                              reliability layer (inject,
//                                              detect, retry/remap)
//   cryptopim report [--degree N]              modelled hardware numbers
//                                              (one degree or the Table II
//                                              sweep)
//   cryptopim schedule <deg:count>...          map a mixed workload onto
//                                              the 128-bank chip
//   cryptopim kem [--seed S]                   run a full KEM handshake on
//                                              the accelerator
//   cryptopim serve [--arrival-rate R] ...     online serving: discrete-event
//                                              multi-tenant scheduling of a
//                                              request stream over superbank
//                                              lanes; with --fleet N, across
//                                              N chips behind one front-end
//                                              (see `serve --help`)
//
// Global flags:
//   --json           machine-readable output (one JSON document on stdout)
//   --trace=FILE     record the run as Chrome-trace JSON (open the file in
//                    https://ui.perfetto.dev; 1 trace us = 1 cycle)
//   --version        print the git describe string and exit
//   --help, -h       print usage and exit (after `serve`: serve's flags)
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/cryptopim.h"
#include "crypto/kem.h"
#include "runtime/fleet.h"
#include "obs/bench_report.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace cp = cryptopim;

namespace {

struct Options {
  bool json = false;
  std::string trace_path;                ///< empty = no tracing
  std::vector<std::string> args;         ///< command arguments, flags included
};

#ifndef CRYPTOPIM_GIT_VERSION
#define CRYPTOPIM_GIT_VERSION "unknown"
#endif

void print_usage(std::ostream& os) {
  os << "usage:\n"
        "  cryptopim multiply --degree N [--seed S] [--fault-rate R]\n"
        "                     [--fault-seed F] [--verify T]\n"
        "  cryptopim report [--degree N]\n"
        "  cryptopim schedule <degree:count> [<degree:count> ...]\n"
        "  cryptopim kem [--seed S]\n"
        "  cryptopim serve [--arrival-rate R] [--policy P] [--duration US]\n"
        "                  [--deadline US] [--chaos] [--fleet N]\n"
        "                  [--protocol kem|bgv-mul|threshold] [...]\n"
        "                                  (see `cryptopim serve --help`)\n"
        "global flags: --json, --trace=FILE, --version, --help\n";
}

int usage() {
  print_usage(std::cerr);
  return 2;
}

/// `--help` or `-h` among a command's arguments.
bool wants_help(const std::vector<std::string>& args) {
  for (const auto& a : args) {
    if (a == "--help" || a == "-h") return true;
  }
  return false;
}

/// `cryptopim --help`, and `<command> --help` for every command but
/// `serve`: the global usage on stdout, exit 0.
int help() {
  print_usage(std::cout);
  return 0;
}

int serve_help() {
  std::cout
      << "usage: cryptopim serve [flags]\n"
         "\n"
         "Simulate online serving of a polynomial-multiplication request\n"
         "stream on the 128-bank chip: a discrete-event clock (in crossbar\n"
         "cycles) admits requests through a bounded queue, carves superbank\n"
         "lanes per degree class, and dispatches by the chosen policy.\n"
         "\n"
         "workload:\n"
         "  --arrival-rate R     open-loop Poisson arrivals, requests/s\n"
         "                       (default 20000)\n"
         "  --closed-loop N      N closed-loop clients instead (think time\n"
         "                       between requests; overrides --arrival-rate)\n"
         "  --think US           closed-loop mean think time, us (default 100)\n"
         "  --duration US        arrival horizon in simulated us (default\n"
         "                       2000); the runtime then drains\n"
         "  --degrees SPEC       degree mix as deg:weight[,deg:weight...]\n"
         "                       (default 256:4,1024:2,4096:1)\n"
         "  --tenants T          number of tenants (default 4)\n"
         "  --seed S             workload RNG seed (default 1)\n"
         "\n"
         "scheduling:\n"
         "  --policy P           fifo | sjf | edf | wfq (default fifo)\n"
         "  --backend B          execution backend for verified requests:\n"
         "                       gate | word (default word).\n"
         "                       gate = crossbar simulation (golden, slow),\n"
         "                       word = host-speed flat-word NTT (bit-exact\n"
         "                       vs gate). Cycles come from the model either\n"
         "                       way; an accounting-only run is\n"
         "                       --verify-every 0\n"
         "  --queue-capacity C   admission queue bound; arrivals beyond it\n"
         "                       are rejected (default 1024)\n"
         "  --deadline-slack F   deadline = arrival + F x service estimate;\n"
         "                       0 = no deadlines (default 4 for edf, else 0)\n"
         "\n"
         "reliability:\n"
         "  --fail-bank-at US    inject a bank failure at this simulated us\n"
         "                       (0 = none; at most --duration); triggers a\n"
         "                       repartition\n"
         "  --verify-every K     every Kth request carries data and its\n"
         "                       result is Freivalds-verified (default 64;\n"
         "                       0 = off)\n"
         "\n"
         "resilience (all off by default):\n"
         "  --deadline US        hard per-request deadline: infeasible\n"
         "                       arrivals are rejected at admission, queued\n"
         "                       requests are cancelled when it passes\n"
         "  --retries N          retry detected-bad results up to N times\n"
         "                       with capped exponential backoff\n"
         "  --retry-budget F     retry tokens a tenant earns per admitted\n"
         "                       request (default 0.1); a dry bucket drops\n"
         "                       the retry instead of amplifying\n"
         "  --hedge              duplicate stragglers onto a second lane\n"
         "                       (first result wins; delay = observed p99)\n"
         "  --hedge-delay US     fixed hedge delay (implies --hedge)\n"
         "  --codel-target US    CoDel load shedding: drop when the minimum\n"
         "                       queue sojourn stays above this target\n"
         "  --codel-interval US  CoDel control interval (default 100)\n"
         "  --breaker K          per-lane circuit breaker: open after K\n"
         "                       consecutive failures, half-open probe\n"
         "  --wear-limit N       lane endurance budget in dispatches: a\n"
         "                       lane near it drains and remaps before it\n"
         "                       corrupts traffic\n"
         "  --chaos              seeded lane fault episodes (slowdowns and\n"
         "                       corrupting windows) + the full mitigation\n"
         "                       stack; individual flags still override\n"
         "  --chaos-seed S       chaos episode RNG seed (default: --seed)\n"
         "\n"
         "fleet (multi-chip; the flags below require --fleet):\n"
         "  --fleet N            serve across N independent chips behind one\n"
         "                       deterministic front-end: requests shard by\n"
         "                       degree class onto primary + replica chips,\n"
         "                       unhealthy chips drain (queued work migrates,\n"
         "                       the shard map rebuilds) and rejoin after a\n"
         "                       scrub. The report becomes a fleet/1\n"
         "                       aggregate with per-chip serving/3 reports.\n"
         "                       --retries / --retry-budget also apply at\n"
         "                       fleet granularity (cross-chip re-dispatch)\n"
         "                       when given explicitly; --hedge and\n"
         "                       --hedge-delay hedge on each chip's lanes\n"
         "  --router P           front-end policy: hash (consistent, by\n"
         "                       tenant) | least (least loaded) | affinity\n"
         "                       (degree-class primary) (default hash)\n"
         "  --replicas R         placement width per degree class (default\n"
         "                       2, clamped to the fleet size)\n"
         "  --fleet-chaos        seeded whole-chip episodes (crash,\n"
         "                       brownout, corruption storm) exercising the\n"
         "                       drain/re-shard machinery; seed from\n"
         "                       --chaos-seed\n"
         "  --kill-chip-at US    deterministically crash one chip at this\n"
         "                       simulated us (0 = off; at most --duration)\n"
         "  --kill-chip I        which chip --kill-chip-at crashes\n"
         "                       (default 0; requires --kill-chip-at)\n"
         "\n"
         "protocol (DAG-shaped requests instead of raw polymuls):\n"
         "  --protocol P         kem | bgv-mul | threshold: each arrival is\n"
         "                       a protocol request compiled into a DAG of\n"
         "                       primitive ops (polymul / ntt-limb / sample\n"
         "                       / aggregate) with dependency-aware\n"
         "                       dispatch; fan-out ops land on distinct\n"
         "                       lanes, joins recombine host-side and are\n"
         "                       checked against the pure-host reference\n"
         "                       when the request carries --verify-every\n"
         "                       data. Overrides --degrees with the\n"
         "                       protocol's ring degree\n"
         "  --shares K           threshold share-holder count, 2..62\n"
         "                       (default 3; requires --protocol threshold)\n"
         "\n"
         "durability (crash recovery; the flags below require --journal):\n"
         "  --journal DIR        write-ahead journal under DIR: every\n"
         "                       admission and terminal outcome is a\n"
         "                       CRC-framed, flushed record, so a killed run\n"
         "                       loses at most a torn final line\n"
         "  --snapshot-every N   journal the CRC of the full state every N\n"
         "                       global events (cross-checked as recovery\n"
         "                       replays past them; 0 = none)\n"
         "  --recover            recover from DIR: deterministically replay\n"
         "                       the journaled prefix (each commitment is\n"
         "                       matched, not re-delivered — exactly-once),\n"
         "                       then resume serving live. Requires the\n"
         "                       run's original flags\n"
         "  --kill-at-event N    crash-campaign hook: raise SIGKILL before\n"
         "                       processing global event N (0 = off)\n"
         "\n"
         "observability:\n"
         "  --events PATH        stream the request-lifecycle event log as\n"
         "                       JSONL (one record per transition: admitted,\n"
         "                       dispatched, retry, hedge, completed, ...),\n"
         "                       written as the run progresses; control\n"
         "                       records flush immediately, so a crashed\n"
         "                       run's log is a parseable prefix\n"
         "  --events-line-buffered\n"
         "                       flush the event-log stream after every\n"
         "                       record, not just control records (slower,\n"
         "                       fully crash-synced; requires --events)\n"
         "  --slo A:LAT          SLO objectives: availability fraction and\n"
         "                       latency threshold in us (e.g. 0.999:50);\n"
         "                       the report gains per-window error-budget\n"
         "                       burn accounting\n"
         "  --window-us US       rolling-telemetry window width (default:\n"
         "                       auto, ~64 windows across the horizon)\n"
         "\n"
         "global flags: --json (serving report as JSON), --trace=FILE\n"
         "(per-request spans and flow arrows; the trace holds every span\n"
         "in memory until exit, ~140 B per event: a 100k-request serve\n"
         "writes 300k events and peaks at 56 MB, where --events streams\n"
         "the same lifecycle at bounded memory)\n";
  return 0;
}

int bad_argument(const std::string& arg) {
  std::cerr << "error: unknown argument: " << arg << "\n";
  return usage();
}

/// A malformed command line. main() prints the message and exits 2 (the
/// usage exit code), distinct from runtime failures (exit 1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Strict full-token unsigned parse: rejects empty strings, signs,
/// whitespace, trailing garbage ("12abc") and out-of-range values —
/// std::stoull would accept the first three and wrap the fourth.
std::uint64_t parse_u64(const std::string& name, const std::string& text) {
  std::uint64_t v = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [p, ec] = std::from_chars(begin, end, v);
  if (text.empty() || ec != std::errc{} || p != end) {
    throw UsageError(name + " expects an unsigned integer, got '" + text +
                     "'");
  }
  return v;
}

/// Removes `--name <value>` or `--name=<value>` from args and returns the
/// raw value, or nullopt when the flag is absent.
std::optional<std::string> take_value(std::vector<std::string>& args,
                                      const std::string& name) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == name) {
      if (i + 1 >= args.size()) {
        throw UsageError(name + " requires a value");
      }
      std::string v = args[i + 1];
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      return v;
    }
    if (args[i].size() > name.size() + 1 && args[i].starts_with(name) &&
        args[i][name.size()] == '=') {
      std::string v = args[i].substr(name.size() + 1);
      args.erase(args.begin() + static_cast<long>(i));
      return v;
    }
  }
  return std::nullopt;
}

/// `--name` as an unsigned integer in [min, max]; `fallback` when absent.
std::uint64_t take_u64(std::vector<std::string>& args, const std::string& name,
                       std::uint64_t fallback, std::uint64_t min = 0,
                       std::uint64_t max = ~std::uint64_t{0}) {
  const auto v = take_value(args, name);
  if (!v) return fallback;
  const std::uint64_t parsed = parse_u64(name, *v);
  if (parsed < min || parsed > max) {
    throw UsageError(name + " must be in [" + std::to_string(min) + ", " +
                     std::to_string(max) + "], got " + std::to_string(parsed));
  }
  return parsed;
}

/// Strict full-token double parse (same contract as parse_u64).
double parse_double(const std::string& name, const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (text.empty() || end != begin + text.size()) {
    throw UsageError(name + " expects a number, got '" + text + "'");
  }
  return parsed;
}

/// `--name` as a probability in [0, 1]; `fallback` when absent.
double take_rate(std::vector<std::string>& args, const std::string& name,
                 double fallback) {
  const auto v = take_value(args, name);
  if (!v) return fallback;
  const double parsed = parse_double(name, *v);
  if (!(parsed >= 0.0 && parsed <= 1.0)) {
    throw UsageError(name + " must be in [0, 1], got '" + *v + "'");
  }
  return parsed;
}

/// `--name` as a double in [min, max]; `fallback` when absent.
double take_double(std::vector<std::string>& args, const std::string& name,
                   double fallback, double min, double max) {
  const auto v = take_value(args, name);
  if (!v) return fallback;
  const double parsed = parse_double(name, *v);
  if (!(parsed >= min && parsed <= max)) {
    throw UsageError(name + " must be in [" + std::to_string(min) + ", " +
                     std::to_string(max) + "], got '" + *v + "'");
  }
  return parsed;
}

/// Removes a bare boolean `--name` from args; true when present.
bool take_flag(std::vector<std::string>& args, const std::string& name) {
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == name) {
      args.erase(it);
      return true;
    }
  }
  return false;
}

/// After a command consumed everything it understands, anything left is
/// an error. Returns nonzero (the process exit code) if so.
int reject_leftovers(const std::vector<std::string>& args) {
  if (args.empty()) return 0;
  return bad_argument(args.front());
}

cp::obs::Json report_json(const cp::sim::SimReport& r) {
  cp::obs::Json j = cp::obs::Json::object();
  j.set("wall_cycles", r.wall_cycles);
  j.set("latency_us", r.latency_us);
  j.set("energy_uj", r.energy_uj);
  j.set("stages", std::uint64_t{r.stages});
  j.set("micro_ops", r.totals.micro_ops);
  j.set("cell_events", r.totals.cell_events);
  j.set("transfer_bits", r.totals.transfer_bits);
  cp::obs::Json stages = cp::obs::Json::array();
  for (std::size_t i = 0; i < r.stage_cycles.size(); ++i) {
    cp::obs::Json s = cp::obs::Json::object();
    s.set("name", i < r.stage_names.size() ? r.stage_names[i] : "?");
    s.set("cycles", r.stage_cycles[i]);
    stages.push_back(std::move(s));
  }
  j.set("stage_cycles", std::move(stages));
  return j;
}

cp::obs::Json reliability_json(const cp::reliability::RelStats& s) {
  cp::obs::Json j = cp::obs::Json::object();
  j.set("verified", s.verified);
  j.set("attempts", std::uint64_t{s.attempts});
  j.set("faults_planted", s.faults_planted);
  j.set("transient_flips", s.transient_flips);
  j.set("parity_mismatches", s.parity_mismatches);
  j.set("write_verify_failures", s.write_verify_failures);
  j.set("verify_checks", s.verify_checks);
  j.set("verify_failures", s.verify_failures);
  j.set("columns_remapped", s.columns_remapped);
  j.set("banks_remapped", s.banks_remapped);
  j.set("verify_cycles", s.verify_cycles);
  j.set("repair_cycles", s.repair_cycles);
  j.set("retry_cycles", s.retry_cycles);
  j.set("overhead_cycles", s.overhead_cycles());
  return j;
}

int cmd_multiply(const Options& opt) {
  if (wants_help(opt.args)) return help();
  auto args = opt.args;
  const auto n = static_cast<std::uint32_t>(
      take_u64(args, "--degree", 256, 4, 1u << 16));
  if ((n & (n - 1)) != 0) {
    throw UsageError("--degree must be a power of two, got " +
                     std::to_string(n));
  }
  const auto seed = take_u64(args, "--seed", 1);
  const double fault_rate = take_rate(args, "--fault-rate", 0.0);
  const auto fault_seed = take_u64(args, "--fault-seed", 1);
  const auto verify_tok = take_value(args, "--verify");
  if (const int rc = reject_leftovers(args)) return rc;
  const bool reliable = fault_rate > 0.0 || verify_tok.has_value();
  unsigned verify_points = 2;
  if (verify_tok) {
    verify_points = static_cast<unsigned>(parse_u64("--verify", *verify_tok));
    if (verify_points > 64) {
      throw UsageError("--verify must be in [0, 64], got " + *verify_tok);
    }
  }

  cp::Accelerator acc(n);
  const auto& p = acc.params();
  std::optional<cp::reliability::ReliabilityManager> rm;
  if (reliable) {
    cp::reliability::ReliabilityConfig rc;
    rc.fault.stuck_rate = fault_rate;
    rc.fault.seed = fault_seed;
    rc.verify.points = verify_points;
    rc.verify.seed = fault_seed ^ 0x5eed5eedULL;
    rm.emplace(rc, p);
    acc.set_reliability(&*rm);
  }
  cp::Xoshiro256 rng(seed);
  const auto a = cp::ntt::sample_uniform(n, p.q, rng);
  const auto b = cp::ntt::sample_uniform(n, p.q, rng);
  cp::ntt::Poly c;
  try {
    c = acc.multiply(a, b);
  } catch (const cp::reliability::UnrecoverableFault& e) {
    std::cerr << "error: " << e.what() << " ("
              << e.stats.banks_remapped << " banks failed; replan with "
              << "ChipConfig::plan_for_degree(n, failed_banks))\n";
    return 1;
  }
  const bool ok = c == acc.multiply_software(a, b);
  const auto& r = acc.last_report();
  if (opt.json) {
    cp::obs::Json j = cp::obs::Json::object();
    j.set("command", "multiply");
    j.set("n", std::uint64_t{n});
    j.set("q", std::uint64_t{p.q});
    j.set("seed", seed);
    j.set("bit_exact", ok);
    if (reliable) {
      j.set("fault_rate", fault_rate);
      j.set("fault_seed", fault_seed);
      j.set("reliability", reliability_json(r.reliability));
    }
    j.set("report", report_json(r));
    j.write(std::cout);
    std::cout << "\n";
  } else {
    std::cout << "n=" << n << " q=" << p.q << " seed=" << seed << "\n"
              << "result:   " << (ok ? "bit-exact vs software NTT" : "MISMATCH")
              << "\ncycles:   " << cp::fmt_i(r.wall_cycles) << " ("
              << cp::fmt_f(r.latency_us) << " us)\nenergy:   "
              << cp::fmt_f(r.energy_uj) << " uJ\nstages:   " << r.stages
              << "\nmicroops: " << cp::fmt_i(r.totals.micro_ops) << "\n";
    if (reliable) {
      const auto& s = r.reliability;
      std::cout << "reliability: " << (s.verified ? "verified" : "UNVERIFIED")
                << " in " << s.attempts << " attempt(s), "
                << s.faults_planted << " faults planted, "
                << s.write_verify_failures << " write-verify + "
                << s.parity_mismatches << " parity + "
                << s.verify_failures << " freivalds detections, "
                << s.columns_remapped << " columns / " << s.banks_remapped
                << " banks remapped, " << cp::fmt_i(s.overhead_cycles())
                << " overhead cycles\n";
    }
  }
  return ok ? 0 : 1;
}

void report_row(cp::Table& t, cp::obs::Json& rows, std::uint32_t n) {
  const auto perf = cp::model::cryptopim_pipelined(n);
  const auto np = cp::model::cryptopim_non_pipelined(n);
  const auto plan = cp::arch::ChipConfig::paper_chip().plan_for_degree(n);
  t.add_row({std::to_string(n),
             std::to_string(cp::ntt::paper_modulus_for_degree(n)),
             cp::fmt_f(perf.latency_us), cp::fmt_f(np.latency_us),
             cp::fmt_i(static_cast<std::uint64_t>(perf.throughput_per_s)),
             cp::fmt_f(perf.energy_uj), std::to_string(plan.superbanks)});
  cp::obs::Json j = cp::obs::Json::object();
  j.set("n", std::uint64_t{n});
  j.set("q", std::uint64_t{cp::ntt::paper_modulus_for_degree(n)});
  j.set("pipelined_latency_us", perf.latency_us);
  j.set("non_pipelined_latency_us", np.latency_us);
  j.set("pipelined_throughput_per_s", perf.throughput_per_s);
  j.set("pipelined_energy_uj", perf.energy_uj);
  j.set("superbanks", std::uint64_t{plan.superbanks});
  rows.push_back(std::move(j));
}

int cmd_report(const Options& opt) {
  if (wants_help(opt.args)) return help();
  auto args = opt.args;
  const auto n = static_cast<std::uint32_t>(
      take_u64(args, "--degree", 0, 0, 1u << 16));
  if (n != 0 && (n & (n - 1)) != 0) {
    throw UsageError("--degree must be a power of two, got " +
                     std::to_string(n));
  }
  if (const int rc = reject_leftovers(args)) return rc;

  cp::Table t({"n", "q", "P lat (us)", "NP lat (us)", "P thr (/s)",
               "P energy (uJ)", "superbanks"});
  cp::obs::Json rows = cp::obs::Json::array();
  if (n != 0) {
    report_row(t, rows, n);
  } else {
    for (const auto d : cp::ntt::paper_degrees()) report_row(t, rows, d);
  }
  if (opt.json) {
    cp::obs::Json j = cp::obs::Json::object();
    j.set("command", "report");
    j.set("rows", std::move(rows));
    j.write(std::cout);
    std::cout << "\n";
  } else {
    t.print(std::cout);
  }
  return 0;
}

int cmd_schedule(const Options& opt) {
  if (wants_help(opt.args)) return help();
  std::vector<cp::model::Job> jobs;
  for (const std::string& spec : opt.args) {
    const auto colon = spec.find(':');
    if (spec.starts_with("--") || colon == std::string::npos) {
      return bad_argument(spec);
    }
    const std::uint64_t deg =
        parse_u64("schedule spec degree", spec.substr(0, colon));
    const std::uint64_t count =
        parse_u64("schedule spec count", spec.substr(colon + 1));
    // plan_for_degree rejects non-power-of-two degrees; surface that as a
    // usage error (exit 2) rather than a runtime failure.
    if (deg < 4 || deg > (1u << 16) || (deg & (deg - 1)) != 0) {
      throw UsageError(
          "schedule spec degree must be a power of two in [4, 65536], got '" +
          spec + "'");
    }
    jobs.push_back(cp::model::Job{static_cast<std::uint32_t>(deg), count});
  }
  if (jobs.empty()) return usage();
  const cp::model::ChipScheduler sched;
  const auto res = sched.schedule(jobs);
  if (opt.json) {
    cp::obs::Json j = cp::obs::Json::object();
    j.set("command", "schedule");
    cp::obs::Json batches = cp::obs::Json::array();
    for (const auto& b : res.batches) {
      cp::obs::Json bj = cp::obs::Json::object();
      bj.set("degree", std::uint64_t{b.degree});
      bj.set("multiplications", b.multiplications);
      bj.set("superbanks", std::uint64_t{b.superbanks});
      bj.set("segments", std::uint64_t{b.segments});
      bj.set("duration_us", b.duration_us);
      batches.push_back(std::move(bj));
    }
    j.set("batches", std::move(batches));
    j.set("makespan_us", res.makespan_us);
    j.set("utilization", res.utilization);
    j.set("throughput_per_s", res.throughput_per_s);
    j.write(std::cout);
    std::cout << "\n";
    return 0;
  }
  cp::Table t({"degree", "mults", "superbanks", "segments", "batch (us)"});
  for (const auto& b : res.batches) {
    t.add_row({std::to_string(b.degree), cp::fmt_i(b.multiplications),
               std::to_string(b.superbanks), std::to_string(b.segments),
               cp::fmt_f(b.duration_us)});
  }
  t.print(std::cout);
  std::cout << "makespan: " << cp::fmt_f(res.makespan_us) << " us, "
            << "utilization " << cp::fmt_f(res.utilization * 100, 1)
            << "%, aggregate "
            << cp::fmt_i(static_cast<std::uint64_t>(res.throughput_per_s))
            << " mults/s\n";
  return 0;
}

/// Parse "deg:weight[,deg:weight...]" into a degree mix.
std::vector<cp::runtime::DegreeShare> parse_mix(const std::string& spec) {
  std::vector<cp::runtime::DegreeShare> mix;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const auto colon = item.find(':');
    if (colon == std::string::npos) {
      throw UsageError("--degrees expects deg:weight[,deg:weight...], got '" +
                       spec + "'");
    }
    cp::runtime::DegreeShare share;
    const std::uint64_t deg =
        parse_u64("--degrees degree", item.substr(0, colon));
    if (deg < 4 || deg > (1u << 16) || (deg & (deg - 1)) != 0) {
      throw UsageError("--degrees degree must be a power of two in "
                       "[4, 65536], got '" + item + "'");
    }
    share.degree = static_cast<std::uint32_t>(deg);
    share.weight = parse_double("--degrees weight", item.substr(colon + 1));
    if (!(share.weight > 0)) {
      throw UsageError("--degrees weight must be positive, got '" + item +
                       "'");
    }
    mix.push_back(share);
    pos = comma + 1;
  }
  if (mix.empty()) throw UsageError("--degrees must not be empty");
  return mix;
}

/// An absolute ratio as an unsigned percentage ("99.900%"); fmt_pct is
/// the signed-delta formatter ("+29.0%").
std::string ratio_pct(double fraction, int digits) {
  return cp::fmt_f(fraction * 100.0, digits) + "%";
}

int cmd_serve(const Options& opt) {
  if (wants_help(opt.args)) return serve_help();
  auto args = opt.args;
  cp::runtime::ServingConfig cfg;
  cfg.policy = take_value(args, "--policy").value_or("fifo");
  cfg.backend = take_value(args, "--backend").value_or("word");
  cfg.arrival_rate_per_s =
      take_double(args, "--arrival-rate", 20000.0, 1e-3, 1e12);
  cfg.closed_loop_clients = static_cast<std::uint32_t>(
      take_u64(args, "--closed-loop", 0, 0, 1u << 20));
  cfg.think_time_us = take_double(args, "--think", 100.0, 0.0, 1e12);
  cfg.duration_us = take_double(args, "--duration", 2000.0, 0.001, 1e9);
  cfg.queue_capacity = take_u64(args, "--queue-capacity", 1024, 1, 1u << 24);
  cfg.deadline_slack = take_double(args, "--deadline-slack",
                                   cfg.policy == "edf" ? 4.0 : 0.0, 0.0, 1e6);
  cfg.fail_bank_at_us = take_double(args, "--fail-bank-at", 0.0, 0.0, 1e9);
  // A fault past the arrival horizon would stretch the run's clock to it.
  if (cfg.fail_bank_at_us > cfg.duration_us) {
    throw UsageError("--fail-bank-at must not exceed --duration");
  }
  cfg.workload.tenants =
      static_cast<std::uint32_t>(take_u64(args, "--tenants", 4, 1, 1u << 16));
  cfg.workload.seed = take_u64(args, "--seed", 1);
  cfg.workload.verify_every = static_cast<std::uint32_t>(
      take_u64(args, "--verify-every", 64, 0, 1u << 30));
  cfg.workload.mix =
      parse_mix(take_value(args, "--degrees").value_or("256:4,1024:2,4096:1"));

  // Whether the retry flags were given explicitly (vs preset or default)
  // — in fleet mode they then also configure the cross-chip layer, before
  // the resilience parse below consumes them.
  const auto flag_present = [&args](const std::string& name) {
    for (const auto& a : args) {
      if (a == name || (a.starts_with(name) && a.size() > name.size() &&
                        a[name.size()] == '=')) {
        return true;
      }
    }
    return false;
  };

  // -- protocol: DAG-shaped requests replace raw polymuls ---------------------
  const auto protocol_name = take_value(args, "--protocol");
  const bool shares_given = flag_present("--shares");
  const auto shares = take_u64(args, "--shares", 3, cp::runtime::kMinShares,
                               cp::runtime::kMaxShares);
  if (protocol_name) {
    const auto kind = cp::runtime::parse_protocol(*protocol_name);
    if (!kind) {
      throw UsageError("unknown protocol '" + *protocol_name +
                       "' (expected one of: kem, bgv-mul, threshold)");
    }
    cfg.protocol.kind = *kind;
    cfg.protocol.shares = static_cast<std::uint32_t>(shares);
    if (shares_given && *kind != cp::runtime::ProtocolKind::kThreshold) {
      throw UsageError("--shares requires --protocol threshold");
    }
    // Every lane op in a protocol DAG runs at the protocol's ring
    // degree; the degree mix collapses to that one class.
    cfg.workload.mix = {
        {*kind == cp::runtime::ProtocolKind::kKem ? cp::runtime::kKemDegree
                                                  : cp::runtime::kBgvDegree,
         1.0}};
  } else if (shares_given) {
    throw UsageError("--shares requires --protocol threshold");
  }

  const bool retries_given = flag_present("--retries");
  const bool retry_budget_given = flag_present("--retry-budget");

  // -- resilience: --chaos selects the preset, explicit flags override --------
  const bool chaos = take_flag(args, "--chaos");
  const auto chaos_seed = take_u64(args, "--chaos-seed", cfg.workload.seed);
  if (chaos) {
    cfg.resilience = cp::runtime::ResilienceConfig::chaos_preset(chaos_seed);
  }
  auto& res = cfg.resilience;
  res.deadline_us = take_double(args, "--deadline", res.deadline_us, 0.0, 1e9);
  res.max_retries = static_cast<unsigned>(
      take_u64(args, "--retries", res.max_retries, 0, 64));
  res.retry_budget_ratio =
      take_double(args, "--retry-budget", res.retry_budget_ratio, 0.0, 64.0);
  if (take_flag(args, "--hedge")) res.hedge = true;
  res.hedge_delay_us =
      take_double(args, "--hedge-delay", res.hedge_delay_us, 0.0, 1e9);
  if (res.hedge_delay_us > 0) res.hedge = true;
  res.codel_target_us =
      take_double(args, "--codel-target", res.codel_target_us, 0.0, 1e9);
  res.codel_interval_us =
      take_double(args, "--codel-interval", res.codel_interval_us, 0.001, 1e9);
  res.breaker_k = static_cast<unsigned>(
      take_u64(args, "--breaker", res.breaker_k, 0, 1u << 20));
  res.wear_limit = take_u64(args, "--wear-limit", res.wear_limit);

  // -- durability -------------------------------------------------------------
  cp::runtime::DurabilityOptions durab;
  const bool journal_given = flag_present("--journal");
  durab.dir = take_value(args, "--journal").value_or("");
  if (journal_given && durab.dir.empty()) {
    throw UsageError("--journal requires a non-empty directory");
  }
  durab.snapshot_every = take_u64(args, "--snapshot-every", 0, 0, 1ull << 40);
  durab.recover = take_flag(args, "--recover");
  durab.kill_at_event = take_u64(args, "--kill-at-event", 0, 0, ~0ull >> 1);
  if (!durab.enabled() &&
      (durab.snapshot_every > 0 || durab.recover || durab.kill_at_event > 0)) {
    throw UsageError(
        "durability flags (--snapshot-every/--recover/--kill-at-event) "
        "require --journal DIR");
  }

  // -- observability ----------------------------------------------------------
  const auto events_path = take_value(args, "--events");
  if (events_path && events_path->empty()) {
    throw UsageError("--events requires a non-empty path");
  }
  const bool events_line_buffered = take_flag(args, "--events-line-buffered");
  if (events_line_buffered && !events_path) {
    throw UsageError("--events-line-buffered requires --events PATH");
  }
  cfg.window_cycles = cp::runtime::duration_cycles(
      take_double(args, "--window-us", 0.0, 0.0, 1e9), cfg.cycles_per_us());
  if (const auto slo = take_value(args, "--slo")) {
    // AVAIL:LATENCY_US, e.g. 0.999:50 = "99.9% served, 99% of them
    // within 50 us". Both halves strict full-token parses.
    const auto colon = slo->find(':');
    if (colon == std::string::npos) {
      throw UsageError("--slo expects AVAILABILITY:LATENCY_US, got '" + *slo +
                       "'");
    }
    cfg.slo.availability =
        parse_double("--slo availability", slo->substr(0, colon));
    cfg.slo.latency_us = parse_double("--slo latency", slo->substr(colon + 1));
    if (!(cfg.slo.availability >= 0.0 && cfg.slo.availability <= 1.0)) {
      throw UsageError("--slo availability must be in [0, 1], got '" +
                       slo->substr(0, colon) + "'");
    }
    if (!(cfg.slo.latency_us >= 0.0)) {
      throw UsageError("--slo latency must be >= 0, got '" +
                       slo->substr(colon + 1) + "'");
    }
  }

  // -- fleet ------------------------------------------------------------------
  const auto fleet_n = take_u64(args, "--fleet", 0, 0, 1024);
  const auto router_name = take_value(args, "--router");
  const bool replicas_given = flag_present("--replicas");
  const auto replicas = take_u64(args, "--replicas", 2, 1, 1024);
  const bool fleet_chaos = take_flag(args, "--fleet-chaos");
  const auto kill_chip_at = take_double(args, "--kill-chip-at", 0.0, 0.0, 1e9);
  const bool kill_chip_given = flag_present("--kill-chip");
  const auto kill_chip = take_u64(args, "--kill-chip", 0, 0, 1023);
  if (fleet_n == 0 &&
      (router_name || replicas_given || fleet_chaos || kill_chip_at > 0 ||
       kill_chip_given)) {
    throw UsageError(
        "fleet flags (--router/--replicas/--fleet-chaos/--kill-chip-at/"
        "--kill-chip) require --fleet N");
  }
  if (kill_chip_given && kill_chip_at == 0) {
    throw UsageError("--kill-chip requires --kill-chip-at US");
  }
  if (kill_chip_at > cfg.duration_us) {
    throw UsageError("--kill-chip-at must not exceed --duration");
  }
  if (kill_chip_given && kill_chip >= fleet_n) {
    throw UsageError("--kill-chip " + std::to_string(kill_chip) +
                     " is not a chip of --fleet " + std::to_string(fleet_n));
  }

  if (const int rc = reject_leftovers(args)) return rc;
  if (!cp::runtime::parse_policy(cfg.policy)) {
    throw UsageError("unknown policy '" + cfg.policy + "' (expected one of: "
                     "fifo, sjf, edf, wfq)");
  }
  if (!cp::runtime::make_backend(cfg.backend)) {
    throw UsageError("unknown backend '" + cfg.backend +
                     "' (expected one of: gate, word)");
  }

  if (fleet_n > 0) {
    if (cfg.closed_loop_clients > 0) {
      throw UsageError(
          "--fleet drives open-loop arrivals only (drop --closed-loop)");
    }
    cp::runtime::FleetConfig fc;
    fc.chips = static_cast<std::uint32_t>(fleet_n);
    fc.router = router_name.value_or("hash");
    fc.replicas = static_cast<std::uint32_t>(replicas);
    fc.chip = cfg;
    // The per-lane retry flags double at fleet granularity when given
    // explicitly: lane retries fight corruption inside a chip, cross-chip
    // retries re-route work a whole chip gave up on.
    if (retries_given) fc.max_retries = res.max_retries;
    if (retry_budget_given) fc.retry_budget_ratio = res.retry_budget_ratio;
    fc.chaos.enabled = fleet_chaos;
    fc.chaos.seed = chaos_seed;
    fc.kill_chip_at_us = kill_chip_at;
    fc.kill_chip = static_cast<std::uint32_t>(kill_chip);
    if (!cp::runtime::make_router(fc.router)) {
      throw UsageError("unknown router '" + fc.router +
                       "' (expected one of: hash, least, affinity)");
    }

    cp::runtime::FleetRuntime fleet(std::move(fc));
    if (durab.enabled()) fleet.enable_durability(durab);
    cp::obs::EventLog fleet_elog;
    if (events_path) {
      fleet_elog.open_stream(*events_path, events_line_buffered);
      fleet.set_event_log(&fleet_elog);
    }
    const auto rep = fleet.run();
    if (events_path) {
      fleet_elog.close_stream();
      std::cerr << "[events: " << *events_path << ", " << fleet_elog.size()
                << " records]\n";
    }
    std::uint64_t verified = 0, verify_failures = 0, wrong_accepted = 0;
    for (const auto& c : rep.chip_reports) {
      verified += c.verified;
      verify_failures += c.verify_failures;
      wrong_accepted += c.resilience.wrong_accepted;
    }
    if (opt.json) {
      cp::obs::Json j = cp::obs::Json::object();
      j.set("command", "serve");
      j.set("seed", cfg.workload.seed);
      j.set("fleet", std::uint64_t{rep.chips});
      j.set("arrival_rate_per_s", cfg.arrival_rate_per_s);
      j.set("duration_us", cfg.duration_us);
      j.set("report", rep.to_json());
      j.write(std::cout);
      std::cout << "\n";
    } else {
      const auto lat_us = [&rep](double q) {
        return rep.latency_cycles.quantile(q) / rep.cycles_per_us;
      };
      std::cout << "fleet:       " << rep.chips << " chips, router "
                << rep.router << ", replicas " << rep.replicas << "\n"
                << "policy:      " << cfg.policy << "\n"
                << "backend:     " << cfg.backend << "\n"
                << "horizon:     " << cp::fmt_f(cfg.duration_us) << " us ("
                << cp::fmt_i(rep.duration_cycles) << " cycles)\n"
                << "submitted:   " << cp::fmt_i(rep.submitted) << " ("
                << cp::fmt_i(static_cast<std::uint64_t>(rep.offered_per_s))
                << " req/s offered)\n"
                << "completed:   " << cp::fmt_i(rep.completed) << " ("
                << cp::fmt_i(static_cast<std::uint64_t>(rep.throughput_per_s))
                << " req/s)\n"
                << "fates:       " << cp::fmt_i(rep.rejected) << " rejected, "
                << cp::fmt_i(rep.shed) << " shed, "
                << cp::fmt_i(rep.timed_out) << " timed out, "
                << cp::fmt_i(rep.failed) << " failed, "
                << cp::fmt_i(rep.queued) << " queued at drain\n"
                << "latency:     mean "
                << cp::fmt_f(rep.latency_cycles.mean() / rep.cycles_per_us)
                << " us, p50 " << cp::fmt_f(lat_us(0.5)) << " us, p99 "
                << cp::fmt_f(lat_us(0.99)) << " us, p999 "
                << cp::fmt_f(lat_us(0.999)) << " us\n"
                << "routing:     " << cp::fmt_i(rep.routed) << " routed, "
                << cp::fmt_i(rep.parked) << " parked, "
                << cp::fmt_i(rep.reshards) << " reshards\n"
                << "cross-chip:  " << cp::fmt_i(rep.cross_retries)
                << " retries (" << cp::fmt_i(rep.retry_budget_denied)
                << " budget-denied)\n"
                << "domains:     " << cp::fmt_i(rep.drains) << " drains, "
                << cp::fmt_i(rep.crashes) << " crashes, "
                << cp::fmt_i(rep.brownouts) << " brownouts, "
                << cp::fmt_i(rep.corruption_storms) << " storms, "
                << cp::fmt_i(rep.rejoins) << " rejoins\n"
                << "migration:   " << cp::fmt_i(rep.migrated)
                << " migrated, " << cp::fmt_i(rep.redispatched)
                << " redispatched\n"
                << "verified:    " << cp::fmt_i(verified) << " ok, "
                << cp::fmt_i(verify_failures) << " failed, "
                << cp::fmt_i(wrong_accepted) << " wrong-accepted\n";
      cp::Table t({"chip", "submitted", "completed", "rejected", "failed",
                   "migrated", "p99 (us)"});
      for (const auto& c : rep.chip_reports) {
        t.add_row({std::to_string(c.chip_id), cp::fmt_i(c.submitted),
                   cp::fmt_i(c.completed), cp::fmt_i(c.rejected),
                   cp::fmt_i(c.resilience.failed + c.chip_failed),
                   cp::fmt_i(c.migrated), cp::fmt_f(c.latency_us(0.99))});
      }
      t.print(std::cout);
    }
    // Same contract as single-chip serve: a corrupt result delivered as
    // good anywhere in the fleet is the one unforgivable outcome.
    return verify_failures == 0 && wrong_accepted == 0 ? 0 : 1;
  }

  cp::runtime::ServingRuntime rt(cfg);
  if (durab.enabled()) rt.enable_durability(durab);
  cp::obs::EventLog elog;
  if (events_path) {
    elog.open_stream(*events_path, events_line_buffered);
    rt.set_event_log(&elog);
  }
  const auto rep = rt.run();
  if (events_path) {
    elog.close_stream();
    std::cerr << "[events: " << *events_path << ", " << elog.size()
              << " records]\n";
  }
  if (opt.json) {
    cp::obs::Json j = cp::obs::Json::object();
    j.set("command", "serve");
    j.set("seed", cfg.workload.seed);
    j.set("arrival_rate_per_s", cfg.arrival_rate_per_s);
    j.set("closed_loop_clients", std::uint64_t{cfg.closed_loop_clients});
    j.set("duration_us", cfg.duration_us);
    j.set("report", rep.to_json());
    j.write(std::cout);
    std::cout << "\n";
  } else {
    std::cout << "policy:      " << rep.policy << "\n"
              << "backend:     " << rep.backend << "\n"
              << "horizon:     " << cp::fmt_f(cfg.duration_us) << " us ("
              << cp::fmt_i(rep.duration_cycles) << " cycles)\n"
              << "submitted:   " << cp::fmt_i(rep.submitted) << " ("
              << cp::fmt_i(static_cast<std::uint64_t>(rep.offered_per_s))
              << " req/s offered)\n"
              << "admitted:    " << cp::fmt_i(rep.admitted) << "\n"
              << "rejected:    " << cp::fmt_i(rep.rejected)
              << " backpressure + " << cp::fmt_i(rep.rejected_unservable)
              << " unservable\n"
              << "completed:   " << cp::fmt_i(rep.completed) << " ("
              << cp::fmt_i(static_cast<std::uint64_t>(rep.throughput_per_s))
              << " req/s)\n"
              << "latency:     mean "
              << cp::fmt_f(rep.latency_cycles.mean() / rep.cycles_per_us)
              << " us, p50 " << cp::fmt_f(rep.latency_us(0.5))
              << " us, p99 " << cp::fmt_f(rep.latency_us(0.99))
              << " us, p999 " << cp::fmt_f(rep.latency_us(0.999)) << " us\n"
              << "utilization: " << ratio_pct(rep.utilization, 1) << "\n"
              << "repartitions " << cp::fmt_i(rep.repartitions)
              << ", bank failures " << cp::fmt_i(rep.bank_failures)
              << ", retried " << cp::fmt_i(rep.retried) << "\n"
              << "deadlines:   " << cp::fmt_i(rep.deadline_misses)
              << " missed\n"
              << "verified:    " << cp::fmt_i(rep.verified) << " ok, "
              << cp::fmt_i(rep.verify_failures) << " failed\n";
    if (rep.slo.enabled()) {
      const auto slo = cp::obs::slo_summary(rep.slo, rep.series);
      std::cout << "slo:         availability "
                << ratio_pct(slo.availability, 3) << " (objective "
                << ratio_pct(rep.slo.availability, 3) << "), "
                << "error budget " << ratio_pct(slo.error_budget_consumed, 1)
                << " consumed\n"
                << "  latency:   " << cp::fmt_i(slo.latency_violations)
                << " violations, budget "
                << ratio_pct(slo.latency_budget_consumed, 1)
                << " consumed, max window burn "
                << cp::fmt_f(slo.max_window_burn) << "x\n";
    }
    const auto& rs = rep.resilience;
    std::cout << "resilience:  " << cp::fmt_i(rs.rejected_deadline)
              << " rejected@deadline, " << cp::fmt_i(rs.timed_out)
              << " timed out, " << cp::fmt_i(rs.shed) << " shed, "
              << cp::fmt_i(rs.failed) << " failed\n"
              << "  retries:   " << cp::fmt_i(rs.retries) << " ("
              << cp::fmt_i(rs.retry_budget_denied) << " budget-denied)"
              << ", hedges " << cp::fmt_i(rs.hedges) << " ("
              << cp::fmt_i(rs.hedge_wins) << " won)\n"
              << "  breaker:   " << cp::fmt_i(rs.breaker_opens)
              << " opens, " << cp::fmt_i(rs.breaker_probes) << " probes, "
              << cp::fmt_i(rs.breaker_closes) << " closes\n"
              << "  health:    " << cp::fmt_i(rs.scrubs) << " scrubs, "
              << cp::fmt_i(rs.proactive_remaps) << " proactive remaps, "
              << cp::fmt_i(rs.wear_corruptions) << " wear corruptions\n"
              << "  chaos:     " << cp::fmt_i(rs.chaos_episodes)
              << " episodes, " << cp::fmt_i(rs.detected_corruptions)
              << " corruptions detected, " << cp::fmt_i(rs.wrong_accepted)
              << " wrong accepted\n";
    if (cfg.protocol.enabled()) {
      const auto& ps = rep.protocol;
      std::cout << "protocol:    " << ps.kind;
      if (ps.shares > 0) std::cout << " (" << ps.shares << " shares)";
      std::cout << ", " << ps.ops_per_request << " ops/request\n"
                << "  requests:  " << cp::fmt_i(ps.requests) << " ("
                << cp::fmt_i(ps.completed) << " completed, "
                << cp::fmt_i(ps.failed) << " failed, "
                << cp::fmt_i(ps.rejected) << " rejected)\n"
                << "  ops:       " << cp::fmt_i(ps.ops_completed)
                << " completed, " << cp::fmt_i(ps.ops_cancelled)
                << " cancelled, " << cp::fmt_i(ps.host_ops)
                << " host-side\n"
                << "  joins:     " << cp::fmt_i(ps.joins) << " checked, "
                << cp::fmt_i(ps.join_mismatches) << " mismatched\n"
                << "  latency:   p50 "
                << cp::fmt_i(static_cast<std::uint64_t>(
                       ps.latency_cycles.quantile(0.5)))
                << " cyc, p99 "
                << cp::fmt_i(static_cast<std::uint64_t>(
                       ps.latency_cycles.quantile(0.99)))
                << " cyc\n";
    }
    cp::Table t({"tenant", "admitted", "completed", "bank-cycles",
                 "p50 (cyc)", "p99 (cyc)"});
    for (const auto& [id, ts] : rep.tenants) {
      t.add_row({std::to_string(id), cp::fmt_i(ts.admitted),
                 cp::fmt_i(ts.completed), cp::fmt_i(ts.bank_cycles),
                 cp::fmt_i(ts.latency_cycles.quantile(0.5)),
                 cp::fmt_i(ts.latency_cycles.quantile(0.99))});
    }
    t.print(std::cout);
  }
  // A corrupt result delivered as good is the one unforgivable outcome.
  return rep.verify_failures == 0 && rep.resilience.wrong_accepted == 0 ? 0
                                                                        : 1;
}

int cmd_kem(const Options& opt) {
  if (wants_help(opt.args)) return help();
  auto args = opt.args;
  const auto seed_v = take_u64(args, "--seed", 7);
  if (const int rc = reject_leftovers(args)) return rc;

  cp::crypto::KemScheme kem;
  cp::sim::CryptoPimSimulator simu(
      cp::ntt::NttParams::for_degree(kem.pke().params().n));
  std::uint64_t accelerator_cycles = 0;
  kem.pke().set_multiplier(
      [&simu, &accelerator_cycles](const cp::ntt::Poly& a,
                                   const cp::ntt::Poly& b) {
        cp::ntt::Poly c = simu.multiply(a, b);
        accelerator_cycles += simu.report().wall_cycles;
        return c;
      });
  cp::crypto::Seed ks{}, es{};
  ks.fill(static_cast<std::uint8_t>(seed_v));
  es.fill(static_cast<std::uint8_t>(seed_v + 1));
  const auto [pk, sk] = kem.keygen(ks);
  const auto [ct, key_enc] = kem.encapsulate(pk, es);
  const auto key_dec = kem.decapsulate(sk, ct);
  const bool ok = key_enc == key_dec;
  if (opt.json) {
    cp::obs::Json j = cp::obs::Json::object();
    j.set("command", "kem");
    j.set("seed", seed_v);
    j.set("shared_secret_agreed", ok);
    j.set("ring_multiplications", kem.pke().multiplications());
    j.set("accelerator_cycles", accelerator_cycles);
    j.write(std::cout);
    std::cout << "\n";
  } else {
    std::cout << "KEM handshake: " << (ok ? "shared secret agreed" : "FAILED")
              << " (" << kem.pke().multiplications()
              << " ring multiplications on the accelerator)\n";
  }
  return ok ? 0 : 1;
}

int write_trace(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: cannot open trace file " << path << "\n";
    return 1;
  }
  cp::obs::tracer().write_chrome_trace(os);
  os.flush();
  if (!os) {
    std::cerr << "error: cannot write trace file " << path << "\n";
    return 1;
  }
  std::cerr << "[trace: " << path << ", "
            << cp::obs::tracer().events().size() << " events]\n";
  return 0;
}

/// Runs the command line; main() then checks that stdout was written.
int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "--version") {
    std::cout << "cryptopim " << CRYPTOPIM_GIT_VERSION << "\n";
    return 0;
  }
  if (cmd == "--help" || cmd == "-h" || cmd == "help") return help();
  Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      opt.json = true;
    } else if (a.starts_with("--trace=")) {
      opt.trace_path = a.substr(8);
      if (opt.trace_path.empty()) return bad_argument(a);
    } else {
      opt.args.push_back(a);
    }
  }
  if (!opt.trace_path.empty()) {
    cp::obs::tracer().clear();
    cp::obs::tracer().set_enabled(true);
  }
  try {
    int rc;
    if (cmd == "multiply") rc = cmd_multiply(opt);
    else if (cmd == "report") rc = cmd_report(opt);
    else if (cmd == "schedule") rc = cmd_schedule(opt);
    else if (cmd == "kem") rc = cmd_kem(opt);
    else if (cmd == "serve") rc = cmd_serve(opt);
    else {
      std::cerr << "error: unknown command: " << cmd << "\n";
      return usage();
    }
    if (!opt.trace_path.empty()) {
      const int trc = write_trace(opt.trace_path);
      if (rc == 0) rc = trc;
    }
    return rc;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = run(argc, argv);
  // Reports and summaries go to stdout: a run whose output was lost
  // fails, as one whose trace, journal or event log was lost does.
  std::cout.flush();
  if (!std::cout) {
    std::cerr << "error: cannot write standard output\n";
    return 1;
  }
  return rc;
}
