// json_check — validates observability output files.
//
// Default mode: each argument file must parse as one JSON document.
// Used by tools/run_benches.sh (and the bench_smoke ctest) to assert
// that every bench emitted a well-formed bench_<name>.json, and by the
// CLI smoke tests on --trace output.
//
// --events: arguments are serve-events JSONL logs. Every line must
// parse; the first must be the {"schema":"serve-events/2","streamed":true}
// header (a streamed log is written live and may be a crash's prefix,
// so it declares no record count); every record needs "ev", "cycle" and
// "chip"; request-scoped records (everything but the control set: carve,
// bank_failure, and the fleet chip_crash / chip_brownout /
// chip_corruption_storm / chip_drain / chip_rejoin / reshard) also need
// "trace" and "tenant".
//
// --journal: arguments are journal/1 write-ahead journals
// (runtime/journal.h). Every line is "<crc32 hex8> <payload>"; the CRC
// must match the payload bytes, the first record must be a journal/1
// "hdr", and each record type must carry its required fields (admit:
// the request field set; out: id + fate; snap: file + state crc; seal:
// counters). A torn tail — one invalid final line, the residue of a
// crash mid-write — is tolerated and reported; an invalid line
// *followed by valid ones* is mid-file corruption and rejected.
//
// --serving: arguments are `serve --json` reports. The document must
// carry report.schema "serving/3" and that schema's one shape: a
// "backend" provenance field (gate | word | analytic), the "resilience"
// ledger, the fleet context (chip, migrated, lost_in_flight,
// chip_corruptions, chip_failed), the "protocol" block (kind none | kem
// | bgv-mul | threshold), "rejected_deadline" on every tenant, and the
// windowed "series" section (schema "timeseries/1"). The optional "slo"
// section, when present, must be schema "slo/1" with summary + windows.
//
// --fleet: arguments are `serve --fleet --json` reports (schema
// "fleet/1"): the "chips" array length must match the "fleet" count,
// every per-chip entry must pass the --serving checks and carry its own
// "chip" id, and the final-fate counters must conserve:
// submitted == completed + rejected + shed + timed_out + failed + queued.
//
// Exit 0 iff every file validates.
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/crc32.h"
#include "obs/json.h"

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
    // Protocol DAG records: per-op identity on protocol_op, join verdict
    // on the request's host-side recombination.
    if (ev == "protocol_op" &&
        (!j.contains("proto") || !j.contains("op") || !j.contains("cls"))) {
      return fail(path, "line " + std::to_string(lineno) +
                            ": protocol_op record lacks proto/op/cls");
    }
    if (ev == "join" && (!j.contains("ok") || !j.contains("ops"))) {
      return fail(path, "line " + std::to_string(lineno) +
                            ": join record lacks ok/ops");
    }
  }
  if (lineno == 0) return fail(path, "empty event log");
  std::cout << "ok " << path << " (" << records
            << " events, serve-events/2, streamed)\n";
  return true;
}

bool check_journal(const std::string& path, const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  std::uint64_t records = 0;
  bool sealed = false;
  // Torn-tail discipline (mirrors runtime/journal.h Journal::load): the
  // line that fails framing is held pending — tolerated if nothing valid
  // follows (a crash tore the final write), fatal otherwise (mid-file
  // corruption).
  std::size_t pending_bad = 0;
  std::string pending_why;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto bad = [&](const std::string& why) {
      pending_bad = lineno;
      pending_why = why;
    };
    if (pending_bad != 0) {
      return fail(path, "line " + std::to_string(pending_bad) + ": " +
                            pending_why + " (followed by more records: "
                            "mid-file corruption, not a torn tail)");
    }
    const auto sp = line.find(' ');
    if (sp != 8) {
      bad("malformed frame (want '<crc32 hex8> <payload>')");
      continue;
    }
    std::uint32_t crc = 0;
    bool hex_ok = true;
    for (std::size_t i = 0; i < 8; ++i) {
      const char c = line[i];
      int digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else { hex_ok = false; break; }
      crc = (crc << 4) | static_cast<std::uint32_t>(digit);
    }
    if (!hex_ok) {
      bad("malformed crc");
      continue;
    }
    const std::string payload = line.substr(9);
    if (cryptopim::obs::crc32(payload) != crc) {
      bad("crc mismatch");
      continue;
    }
    const auto r = parse_json(payload);
    if (!r.ok) {
      bad("payload does not parse: " + r.error);
      continue;
    }
    const Json& j = r.value;
    if (!j.is_object() || !j.contains("t")) {
      bad("payload lacks 't'");
      continue;
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
      for (const char* f : {"i", "file", "crc"}) {
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
    ++records;
  }
  if (records == 0) return fail(path, "no valid journal header");
  std::cout << "ok " << path << " (journal/1, " << records << " records"
            << (sealed ? ", sealed" : "")
            << (pending_bad != 0 ? ", torn tail dropped" : "") << ")\n";
  return true;
}

/// The serving/3 report checks shared by --serving and --fleet. Returns
/// the first problem found, or "" for a valid report.
std::string serving_report_error(const Json& rep) {
  if (!rep.is_object() || !rep.contains("schema") ||
      rep.at("schema").as_string() != "serving/3") {
    return "not a serving/3 report";
  }
  // Backend provenance: which execution tier produced (and verified)
  // the functional results this report describes.
  if (!rep.contains("backend")) return "missing 'backend' field";
  const std::string backend = rep.at("backend").as_string();
  if (backend != "gate" && backend != "word" && backend != "analytic") {
    return "unknown backend '" + backend + "'";
  }
  for (const char* f : {"chip", "migrated", "lost_in_flight",
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
      !series.contains("windows")) {
    return "series is not a timeseries/1 document";
  }
  if (!rep.contains("rolling")) return "missing 'rolling' rates";
  if (rep.contains("slo")) {
    const Json& slo = rep.at("slo");
    if (!slo.contains("schema") || slo.at("schema").as_string() != "slo/1" ||
        !slo.contains("summary") || !slo.contains("windows")) {
      return "slo is not a slo/1 document";
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
  return "";
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
        "hedges_launched", "reshards", "migrated", "redispatched", "chips"}) {
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
  for (std::size_t i = 0; i < per_chip.size(); ++i) {
    const Json& c = per_chip[i];
    if (const std::string err = serving_report_error(c); !err.empty()) {
      return fail(path, "chip " + std::to_string(i) + ": " + err);
    }
    if (c.at("chip").as_u64() != i) {
      return fail(path, "chip " + std::to_string(i) +
                            " report misnumbers its chip id");
    }
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
  enum class Mode { kPlain, kEvents, kServing, kFleet, kJournal } mode =
      Mode::kPlain;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--events") mode = Mode::kEvents;
    else if (a == "--serving") mode = Mode::kServing;
    else if (a == "--fleet") mode = Mode::kFleet;
    else if (a == "--journal") mode = Mode::kJournal;
    else files.push_back(a);
  }
  if (files.empty()) {
    std::cerr << "usage: json_check [--events|--serving|--fleet|--journal] "
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
      case Mode::kJournal: ok = check_journal(path, text); break;
    }
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
