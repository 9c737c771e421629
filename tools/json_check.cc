// json_check — validates observability output files.
//
// Default mode: each argument file must parse as one JSON document.
// Used by tools/run_benches.sh (and the bench_smoke ctest) to assert
// that every bench emitted a well-formed bench_<name>.json.
//
// --events: arguments are serve-events JSONL logs. Every line must
// parse; the first must be the {"schema":"serve-events/2","streamed":true}
// header (a streamed log is written live and may be a crash's prefix,
// so it declares no record count); every record needs "ev", "cycle" and
// "chip"; request-scoped records (everything but the control set: carve,
// bank_failure, and the fleet chip_crash / chip_brownout /
// chip_corruption_storm / chip_drain / chip_rejoin / reshard) also need
// "trace" and "tenant". A record carrying "op" (an op of a protocol
// request) must name its request: its trace needs an earlier
// "admitted" record on the same chip whose "ops" exceeds the op.
//
// --journal: arguments are journal/1 write-ahead journals
// (runtime/journal.h), read with runtime::Journal::load, the loader
// `serve --recover` uses: every line is "<crc32 hex8> <payload>" with
// the CRC over the payload bytes; a torn tail — one invalid final line,
// the residue of a crash mid-write — is tolerated and reported, and an
// invalid line *followed by valid ones* is mid-file corruption and
// rejected. The first record must be a journal/1 "hdr", and each record
// type must carry its required fields (admit: the request field set;
// out: id + fate; snap: index + state crc; seal: counters).
//
// --serving: arguments are `serve --json` reports. The document must
// carry report.schema "serving/3" and that schema's one shape: a
// "backend" provenance field (gate | word), the "resilience" ledger,
// the fleet context (chip, migrated, lost_in_flight, chip_corruptions,
// chip_failed), the "protocol" block (kind none | kem | bgv-mul |
// threshold), "rejected_deadline" on every tenant, and the windowed
// "series" section (schema "timeseries/1"). With no series
// window evicted, the windows must sum to the report's totals (see
// series_sum_error). The optional "slo" section, when present, must be
// schema "slo/1" and a view of the series (see slo_view_error): the
// same window width, one window per series window that holds an
// outcome, with that window's outcomes, and with nothing evicted a
// summary that sums its windows.
//
// --fleet: arguments are `serve --fleet --json` reports (schema
// "fleet/1"): the "chips" array length must match the "fleet" count,
// every per-chip entry must pass the --serving checks and carry its own
// "chip" id, and two ledgers must balance. Final fates:
// submitted == completed + rejected + shed + timed_out + failed + queued.
// Dispatches: the chips' submitted (protocol.requests on a protocol
// chip) sum to routed + cross_retries + redispatched.
//
// --trace: arguments are Chrome-trace documents (`--trace=FILE`):
// "traceEvents" is an array and "displayTimeUnit" is "ns". Every event
// has a string "name", a "ph" among M, X, s, t, f and a numeric "pid";
// all but the process_name metadata event (which names the process,
// not a track) carry a numeric "tid". X spans carry "ts" and "dur";
// flow points (s, t, f) carry "id" and "ts", and t/f points bind to
// their enclosing slice with "bp":"e". M events are process_name or
// thread_name metadata with a string args.name.
//
// Exit 0 iff every file validates.
#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "runtime/journal.h"

using cryptopim::obs::Json;
using cryptopim::obs::parse_json;

namespace {

bool fail(const std::string& path, const std::string& why) {
  std::cerr << "json_check: " << path << ": " << why << "\n";
  return false;
}

bool check_plain(const std::string& path, const std::string& text) {
  const auto r = parse_json(text);
  if (!r.ok) return fail(path, r.error);
  std::cout << "ok " << path << " (" << text.size() << " bytes)\n";
  return true;
}

bool check_events(const std::string& path, const std::string& text) {
  // Control records describe a chip (or the fleet), not one request, so
  // they carry no trace id.
  static const std::set<std::string> kControl = {
      "carve",          "bank_failure", "chip_crash",
      "chip_brownout",  "chip_corruption_storm",
      "chip_drain",     "chip_rejoin",  "reshard"};
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  std::uint64_t records = 0;
  // (chip, trace) -> "ops" of the trace's latest admission on the chip.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> ops;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto r = parse_json(line);
    if (!r.ok) {
      return fail(path, "line " + std::to_string(lineno) + ": " + r.error);
    }
    const Json& j = r.value;
    if (!j.is_object()) {
      return fail(path, "line " + std::to_string(lineno) + ": not an object");
    }
    if (lineno == 1) {
      const std::string schema =
          j.contains("schema") ? j.at("schema").as_string() : "";
      if (schema != "serve-events/2" || !j.contains("streamed") ||
          !j.at("streamed").as_bool()) {
        return fail(path, "missing streamed serve-events/2 header");
      }
      continue;
    }
    ++records;
    if (!j.contains("ev") || !j.contains("cycle") || !j.contains("chip")) {
      return fail(path, "line " + std::to_string(lineno) +
                            ": record lacks ev/cycle/chip");
    }
    const std::string ev = j.at("ev").as_string();
    if (!kControl.contains(ev) &&
        (!j.contains("trace") || !j.contains("tenant"))) {
      return fail(path, "line " + std::to_string(lineno) + ": '" + ev +
                            "' record lacks trace/tenant");
    }
    // A protocol request's join verdict on its host-side recombination.
    if (ev == "join" && (!j.contains("ok") || !j.contains("ops"))) {
      return fail(path, "line " + std::to_string(lineno) +
                            ": join record lacks ok/ops");
    }
    if (!j.contains("trace")) continue;
    std::uint64_t& n = ops[{j.at("chip").as_u64(), j.at("trace").as_u64()}];
    if (ev == "admitted") n = j.contains("ops") ? j.at("ops").as_u64() : 0;
    if (j.contains("op") && n <= j.at("op").as_u64()) {
      return fail(path, "line " + std::to_string(lineno) + ": '" + ev +
                            "' record's op names no admitted request");
    }
  }
  if (lineno == 0) return fail(path, "empty event log");
  std::cout << "ok " << path << " (" << records
            << " events, serve-events/2, streamed)\n";
  return true;
}

bool check_journal(const std::string& path) {
  // Framing, CRCs and the torn-tail rule are Journal::load's, the loader
  // --recover uses, so this accepts exactly the journals recovery does.
  const auto loaded = cryptopim::runtime::Journal::load(path);
  if (!loaded.ok) {
    std::cerr << "json_check: " << loaded.error << "\n";
    return false;
  }
  bool sealed = false;
  std::size_t lineno = 0;
  for (const std::string& payload : loaded.payloads) {
    // Load rejects an invalid line followed by valid ones, so the i-th
    // payload is line i.
    ++lineno;
    const auto r = parse_json(payload);
    if (!r.ok) {
      return fail(path, "line " + std::to_string(lineno) +
                            ": payload does not parse: " + r.error);
    }
    const Json& j = r.value;
    if (!j.is_object() || !j.contains("t")) {
      return fail(path, "line " + std::to_string(lineno) +
                            ": payload lacks 't'");
    }
    const std::string t = j.at("t").as_string();
    if (lineno == 1) {
      if (t != "hdr" || !j.contains("schema") ||
          j.at("schema").as_string() != "journal/1") {
        return fail(path, "first record is not a journal/1 header");
      }
      for (const char* f : {"mode", "chip", "seed", "config"}) {
        if (!j.contains(f)) {
          return fail(path, std::string("header lacks '") + f + "'");
        }
      }
    } else if (t == "hdr") {
      return fail(path, "line " + std::to_string(lineno) +
                            ": duplicate header");
    } else if (t == "admit") {
      for (const char* f : {"i", "c", "id", "tn", "deg", "ac", "sv", "ds"}) {
        if (!j.contains(f)) {
          return fail(path, "line " + std::to_string(lineno) +
                                ": admit record lacks '" + f + "'");
        }
      }
    } else if (t == "out") {
      for (const char* f : {"i", "c", "id", "o"}) {
        if (!j.contains(f)) {
          return fail(path, "line " + std::to_string(lineno) +
                                ": out record lacks '" + f + "'");
        }
      }
      const std::string o = j.at("o").as_string();
      if (o != "completed" && o != "rejected" && o != "shed" &&
          o != "timed_out" && o != "failed") {
        return fail(path, "line " + std::to_string(lineno) +
                              ": unknown outcome '" + o + "'");
      }
    } else if (t == "snap") {
      for (const char* f : {"i", "crc"}) {
        if (!j.contains(f)) {
          return fail(path, "line " + std::to_string(lineno) +
                                ": snap record lacks '" + f + "'");
        }
      }
    } else if (t == "seal") {
      if (sealed) {
        return fail(path, "line " + std::to_string(lineno) +
                              ": duplicate seal");
      }
      if (!j.contains("i") || !j.contains("c")) {
        return fail(path, "line " + std::to_string(lineno) +
                              ": seal record lacks i/c");
      }
      sealed = true;
    } else {
      return fail(path, "line " + std::to_string(lineno) +
                            ": unknown record type '" + t + "'");
    }
    if (sealed && t != "seal") {
      return fail(path, "line " + std::to_string(lineno) +
                            ": record after the seal");
    }
  }
  if (lineno == 0) return fail(path, "no valid journal header");
  std::cout << "ok " << path << " (journal/1, " << lineno << " records"
            << (sealed ? ", sealed" : "")
            << (loaded.torn_tail ? ", torn tail dropped" : "") << ")\n";
  return true;
}

/// Returns the first problem with Chrome-trace event `e`, or "".
std::string trace_event_error(const Json& e) {
  const auto is = [&](const char* f, Json::Kind k) {
    return e.contains(f) && e.at(f).kind() == k;
  };
  if (!e.is_object()) return "event is not an object";
  if (!is("name", Json::Kind::kString)) return "event lacks a string 'name'";
  const std::string name = e.at("name").as_string();
  // as_string() of a missing or non-string member reads "".
  const std::string ph = e.contains("ph") ? e.at("ph").as_string() : "";
  if (ph != "M" && ph != "X" && ph != "s" && ph != "t" && ph != "f") {
    return "'" + name + "' has no known ph";
  }
  const bool process_meta = ph == "M" && name == "process_name";
  if (!is("pid", Json::Kind::kNumber) ||
      (!process_meta && !is("tid", Json::Kind::kNumber))) {
    return "'" + name + "' lacks a numeric pid/tid";
  }
  if (ph == "M") {
    if (!process_meta && name != "thread_name") {
      return "unknown metadata event '" + name + "'";
    }
    if (!e.contains("args") || !e.at("args").is_object() ||
        !e.at("args").contains("name") ||
        e.at("args").at("name").kind() != Json::Kind::kString) {
      return "'" + name + "' metadata lacks args.name";
    }
  } else if (ph == "X") {
    if (!is("ts", Json::Kind::kNumber) || !is("dur", Json::Kind::kNumber)) {
      return "span '" + name + "' lacks ts/dur";
    }
  } else {
    if (!is("id", Json::Kind::kNumber) || !is("ts", Json::Kind::kNumber)) {
      return "flow point '" + name + "' lacks id/ts";
    }
    if (ph != "s" && !(e.contains("bp") && e.at("bp").as_string() == "e")) {
      return "flow point '" + name + "' lacks \"bp\":\"e\"";
    }
  }
  return "";
}

bool check_trace(const std::string& path, const std::string& text) {
  const auto r = parse_json(text);
  if (!r.ok) return fail(path, r.error);
  const Json& doc = r.value;
  if (!doc.is_object() || !doc.contains("traceEvents") ||
      !doc.at("traceEvents").is_array()) {
    return fail(path, "'traceEvents' is not an array");
  }
  if (!doc.contains("displayTimeUnit") ||
      doc.at("displayTimeUnit").as_string() != "ns") {
    return fail(path, "displayTimeUnit is not \"ns\"");
  }
  const Json& events = doc.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (const std::string err = trace_event_error(events[i]); !err.empty()) {
      return fail(path, "event " + std::to_string(i) + ": " + err);
    }
  }
  std::cout << "ok " << path << " (" << events.size()
            << " trace events)\n";
  return true;
}

/// With no window evicted, the windowed series must sum to the report's
/// totals, which pins each series counter to the ledger it mirrors. Both
/// count ops, so a refused protocol request counts each of its ops.
/// Returns the first mismatch, or "".
std::string series_sum_error(const Json& rep) {
  const Json& series = rep.at("series");
  if (series.at("evicted_windows").as_u64() != 0) return "";
  std::map<std::string, std::uint64_t> sums;
  std::uint64_t latencies = 0;
  for (const Json& w : series.at("windows").items()) {
    if (!w.contains("counters")) return "series window lacks 'counters'";
    for (const auto& [name, v] : w.at("counters").members()) {
      sums[name] += v.as_u64();
    }
    if (w.contains("histograms") &&
        w.at("histograms").contains("latency_cycles")) {
      const Json& lat = w.at("histograms").at("latency_cycles");
      if (!lat.contains("count")) return "series histogram lacks 'count'";
      latencies += lat.at("count").as_u64();
    }
  }
  const auto u64 = [](const Json& j, const char* f) {
    return j.at(f).as_u64();
  };
  const Json& res = rep.at("resilience");
  const std::pair<const char*, std::uint64_t> totals[] = {
      {"submitted", u64(rep, "submitted")},
      {"admitted", u64(rep, "admitted")},
      {"completed", u64(rep, "completed")},
      {"bank_failures", u64(rep, "bank_failures")},
      {"shed", u64(res, "shed")},
      {"timed_out", u64(res, "timed_out")},
      {"hedges", u64(res, "hedges")},
      {"failed", u64(res, "failed") + u64(rep, "chip_failed")},
      {"rejected", u64(rep, "rejected") + u64(rep, "rejected_unservable") +
                       u64(res, "rejected_deadline")},
  };
  for (const auto& [name, total] : totals) {
    if (sums[name] != total) {
      return std::string("series windows count ") +
             std::to_string(sums[name]) + " '" + name + "', the report " +
             std::to_string(total);
    }
  }
  if (latencies != u64(rep, "completed")) {
    return "series latency_cycles counts " + std::to_string(latencies) +
           " samples, the report completed " +
           std::to_string(u64(rep, "completed"));
  }
  return "";
}

/// The slo/1 section is a view of the series (obs/slo.h): the same
/// window width, and one window per series window that holds an outcome,
/// at its start, with its total (completed + bad), errors (bad: rejected
/// + shed + timed_out + failed) and latency_violations. With no series
/// window evicted, the summary's totals are the windows' sums. Returns
/// the first mismatch, or "".
std::string slo_view_error(const Json& slo, const Json& series) {
  // A member as an integer; a missing one reads ~0, which no view holds.
  const auto u64 = [](const Json& j, const char* f) {
    return j.contains(f) ? j.at(f).as_u64() : ~std::uint64_t{0};
  };
  if (!slo.contains("schema") || slo.at("schema").as_string() != "slo/1" ||
      !slo.contains("summary") || !slo.contains("windows")) {
    return "slo is not a slo/1 document";
  }
  if (u64(slo, "window_cycles") != u64(series, "window_cycles")) {
    return "slo window_cycles differs from the series'";
  }
  using Row = std::array<std::uint64_t, 4>;  // start, total, errors, viol.
  std::vector<Row> want, got;
  for (const Json& w : series.at("windows").items()) {
    const auto n = [&w](const char* f) -> std::uint64_t {
      if (!w.contains("counters") || !w.at("counters").contains(f)) return 0;
      return w.at("counters").at(f).as_u64();
    };
    const std::uint64_t bad =
        n("rejected") + n("shed") + n("timed_out") + n("failed");
    if (n("completed") + bad == 0) continue;
    want.push_back({u64(w, "start"), n("completed") + bad, bad,
                    n("latency_violations")});
  }
  for (const Json& w : slo.at("windows").items()) {
    got.push_back({u64(w, "start"), u64(w, "total"), u64(w, "errors"),
                   u64(w, "latency_violations")});
  }
  const auto [g, v] =
      std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  if (g != got.end() || v != want.end()) {
    return "slo window " + std::to_string(g - got.begin()) +
           " is not the series' next window with an outcome";
  }
  if (series.at("evicted_windows").as_u64() != 0) return "";
  Row sums{};
  for (const Row& r : got) {
    for (std::size_t i = 1; i < sums.size(); ++i) sums[i] += r[i];
  }
  const Json& summary = slo.at("summary");
  if (sums != Row{0, u64(summary, "total"), u64(summary, "errors"),
                  u64(summary, "latency_violations")}) {
    return "slo summary totals differ from its windows' sums";
  }
  return "";
}

/// The serving/3 report checks shared by --serving and --fleet. Returns
/// the first problem found, or "" for a valid report.
std::string serving_report_error(const Json& rep) {
  if (!rep.is_object() || !rep.contains("schema") ||
      rep.at("schema").as_string() != "serving/3") {
    return "not a serving/3 report";
  }
  // Backend provenance: which execution tier produced (and verified)
  // the products this report describes.
  if (!rep.contains("backend")) return "missing 'backend' field";
  const std::string backend = rep.at("backend").as_string();
  if (backend != "gate" && backend != "word") {
    return "unknown backend '" + backend + "'";
  }
  for (const char* f : {"submitted", "admitted", "rejected",
                        "rejected_unservable", "completed", "bank_failures",
                        "chip", "migrated", "lost_in_flight",
                        "chip_corruptions", "chip_failed"}) {
    if (!rep.contains(f)) return std::string("missing '") + f + "' field";
  }
  if (!rep.contains("resilience") || !rep.at("resilience").is_object()) {
    return "missing 'resilience' section";
  }
  const Json& res = rep.at("resilience");
  for (const char* f :
       {"rejected_deadline", "timed_out", "shed", "retries",
        "retry_budget_denied", "failed", "hedges", "hedge_wins",
        "hedge_cancelled", "breaker_opens", "breaker_probes",
        "breaker_closes", "scrubs", "proactive_remaps", "wear_corruptions",
        "chaos_episodes", "detected_corruptions", "wrong_accepted"}) {
    if (!res.contains(f)) return std::string("resilience lacks '") + f + "'";
  }
  if (!rep.contains("tenants") || !rep.at("tenants").is_array()) {
    return "missing 'tenants' array";
  }
  for (const Json& t : rep.at("tenants").items()) {
    if (!t.contains("rejected_deadline")) {
      return "tenant entry lacks 'rejected_deadline'";
    }
  }
  if (!rep.contains("series")) return "missing 'series' section";
  const Json& series = rep.at("series");
  if (!series.contains("schema") ||
      series.at("schema").as_string() != "timeseries/1" ||
      !series.contains("evicted_windows") || !series.contains("windows")) {
    return "series is not a timeseries/1 document";
  }
  if (!rep.contains("rolling")) return "missing 'rolling' rates";
  if (rep.contains("slo")) {
    if (const std::string err = slo_view_error(rep.at("slo"), series);
        !err.empty()) {
      return err;
    }
  }
  // Protocol block: DAG-granularity request accounting over the
  // op-granularity main counters (kind "none" and all zero for raw runs).
  if (!rep.contains("protocol") || !rep.at("protocol").is_object()) {
    return "missing 'protocol' section";
  }
  const Json& proto = rep.at("protocol");
  if (!proto.contains("kind")) return "protocol lacks 'kind'";
  const std::string kind = proto.at("kind").as_string();
  if (kind != "none" && kind != "kem" && kind != "bgv-mul" &&
      kind != "threshold") {
    return "unknown protocol kind '" + kind + "'";
  }
  for (const char* f :
       {"shares", "ops_per_request", "requests", "completed", "failed",
        "rejected", "ops_completed", "ops_cancelled", "host_ops", "joins",
        "join_mismatches"}) {
    if (!proto.contains(f)) return std::string("protocol lacks '") + f + "'";
  }
  if (!proto.contains("latency") || !proto.at("latency").is_object()) {
    return "protocol lacks a 'latency' histogram";
  }
  if (!proto.contains("op_classes") || !proto.at("op_classes").is_array()) {
    return "protocol lacks an 'op_classes' array";
  }
  for (const Json& row : proto.at("op_classes").items()) {
    if (!row.contains("cls")) return "protocol op_classes entry lacks 'cls'";
  }
  return series_sum_error(rep);
}

bool check_serving(const std::string& path, const std::string& text) {
  const auto r = parse_json(text);
  if (!r.ok) return fail(path, r.error);
  const Json& doc = r.value;
  // Accept both the bare report and the CLI envelope {"report": {...}}.
  const Json& rep = doc.is_object() && doc.contains("report")
                        ? doc.at("report")
                        : doc;
  if (const std::string err = serving_report_error(rep); !err.empty()) {
    return fail(path, err);
  }
  std::cout << "ok " << path << " (serving/3, "
            << rep.at("series").at("windows").size() << " windows)\n";
  return true;
}

bool check_fleet(const std::string& path, const std::string& text) {
  const auto r = parse_json(text);
  if (!r.ok) return fail(path, r.error);
  const Json& doc = r.value;
  // Accept both the bare report and the CLI envelope {"report": {...}}.
  const Json& rep = doc.is_object() && doc.contains("report")
                        ? doc.at("report")
                        : doc;
  if (!rep.is_object() || !rep.contains("schema") ||
      rep.at("schema").as_string() != "fleet/1") {
    return fail(path, "not a fleet/1 report");
  }
  for (const char* field :
       {"fleet", "router", "replicas", "submitted", "completed", "rejected",
        "shed", "timed_out", "failed", "queued", "routed", "cross_retries",
        "reshards", "migrated", "redispatched", "chips"}) {
    if (!rep.contains(field)) {
      return fail(path, std::string("missing '") + field + "' field");
    }
  }
  const std::uint64_t chips = rep.at("fleet").as_u64();
  const Json& per_chip = rep.at("chips");
  if (per_chip.size() != chips) {
    return fail(path, "fleet declares " + std::to_string(chips) +
                          " chips, 'chips' array has " +
                          std::to_string(per_chip.size()));
  }
  std::uint64_t chip_submitted = 0;
  for (std::size_t i = 0; i < per_chip.size(); ++i) {
    const Json& c = per_chip[i];
    if (const std::string err = serving_report_error(c); !err.empty()) {
      return fail(path, "chip " + std::to_string(i) + ": " + err);
    }
    if (c.at("chip").as_u64() != i) {
      return fail(path, "chip " + std::to_string(i) +
                            " report misnumbers its chip id");
    }
    // A protocol chip's `submitted` counts DAG ops; the fleet routes
    // whole requests.
    const Json& proto = c.at("protocol");
    chip_submitted += proto.at("kind").as_string() == "none"
                          ? c.at("submitted").as_u64()
                          : proto.at("requests").as_u64();
  }
  // Dispatch ledger: every request that landed on a chip was a first
  // route, a cross-chip retry or a re-dispatch of migrated, lost or
  // parked work.
  const std::uint64_t dispatches = rep.at("routed").as_u64() +
                                   rep.at("cross_retries").as_u64() +
                                   rep.at("redispatched").as_u64();
  if (chip_submitted != dispatches) {
    return fail(path, "chips were submitted " +
                          std::to_string(chip_submitted) +
                          " requests, routed + cross_retries + "
                          "redispatched is " +
                          std::to_string(dispatches));
  }
  // Final-fate conservation: every submitted request is counted exactly
  // once by its terminal category.
  const std::uint64_t fates =
      rep.at("completed").as_u64() + rep.at("rejected").as_u64() +
      rep.at("shed").as_u64() + rep.at("timed_out").as_u64() +
      rep.at("failed").as_u64() + rep.at("queued").as_u64();
  if (fates != rep.at("submitted").as_u64()) {
    return fail(path, "fates sum to " + std::to_string(fates) +
                          ", submitted is " +
                          std::to_string(rep.at("submitted").as_u64()));
  }
  std::cout << "ok " << path << " (fleet/1, " << chips << " chips)\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kPlain, kEvents, kServing, kFleet, kJournal, kTrace };
  Mode mode = Mode::kPlain;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--events") mode = Mode::kEvents;
    else if (a == "--serving") mode = Mode::kServing;
    else if (a == "--fleet") mode = Mode::kFleet;
    else if (a == "--journal") mode = Mode::kJournal;
    else if (a == "--trace") mode = Mode::kTrace;
    else files.push_back(a);
  }
  if (files.empty()) {
    std::cerr << "usage: json_check "
                 "[--events|--serving|--fleet|--journal|--trace] "
                 "<file> [<file> ...]\n";
    return 2;
  }
  int failures = 0;
  for (const auto& path : files) {
    std::ifstream is(path);
    if (!is) {
      std::cerr << "json_check: cannot read " << path << "\n";
      ++failures;
      continue;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();
    bool ok = false;
    switch (mode) {
      case Mode::kPlain: ok = check_plain(path, text); break;
      case Mode::kEvents: ok = check_events(path, text); break;
      case Mode::kServing: ok = check_serving(path, text); break;
      case Mode::kFleet: ok = check_fleet(path, text); break;
      case Mode::kJournal: ok = check_journal(path); break;
      case Mode::kTrace: ok = check_trace(path, text); break;
    }
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
