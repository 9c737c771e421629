#include "runtime/journal.h"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "obs/crc32.h"
#include "obs/json.h"
#include "runtime/fleet.h"
#include "runtime/serving.h"

namespace cryptopim::runtime {

namespace {

std::string frame(const std::string& payload) {
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", obs::crc32(payload));
  std::string line(crc);
  line += ' ';
  line += payload;
  line += '\n';
  return line;
}

/// Splits a framed line into (crc, payload); false on malformed framing.
bool unframe(const std::string& line, std::uint32_t& crc,
             std::string& payload) {
  if (line.size() < 10 || line[8] != ' ') return false;
  std::uint32_t c = 0;
  for (int i = 0; i < 8; ++i) {
    const char ch = line[static_cast<std::size_t>(i)];
    std::uint32_t nibble;
    if (ch >= '0' && ch <= '9') nibble = static_cast<std::uint32_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f')
      nibble = static_cast<std::uint32_t>(ch - 'a' + 10);
    else return false;
    c = (c << 4) | nibble;
  }
  crc = c;
  payload = line.substr(9);
  return true;
}

}  // namespace

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kCompleted: return "completed";
    case Outcome::kRejected: return "rejected";
    case Outcome::kShed: return "shed";
    case Outcome::kTimedOut: return "timed_out";
    case Outcome::kFailed: return "failed";
  }
  return "unknown";
}

obs::Json serving_config_to_json(const ServingConfig& cfg) {
  obs::Json j = obs::Json::object();
  j.set("chip_id", std::uint64_t{cfg.chip_id});
  j.set("policy", cfg.policy);
  j.set("backend", cfg.backend);
  obs::Json chip = obs::Json::object();
  chip.set("design_max_n", std::uint64_t{cfg.chip.design_max_n});
  chip.set("blocks_per_bank", std::uint64_t{cfg.chip.blocks_per_bank});
  chip.set("total_banks", std::uint64_t{cfg.chip.total_banks});
  chip.set("spare_banks", std::uint64_t{cfg.chip.spare_banks});
  j.set("chip", std::move(chip));
  obs::Json wl = obs::Json::object();
  obs::Json mix = obs::Json::array();
  for (const auto& share : cfg.workload.mix) {
    obs::Json m = obs::Json::object();
    m.set("degree", std::uint64_t{share.degree});
    m.set("weight", share.weight);
    mix.push_back(std::move(m));
  }
  wl.set("mix", std::move(mix));
  wl.set("tenants", std::uint64_t{cfg.workload.tenants});
  wl.set("verify_every", std::uint64_t{cfg.workload.verify_every});
  wl.set("seed", cfg.workload.seed);
  j.set("workload", std::move(wl));
  j.set("arrival_rate_per_s", cfg.arrival_rate_per_s);
  j.set("closed_loop_clients", std::uint64_t{cfg.closed_loop_clients});
  j.set("think_time_us", cfg.think_time_us);
  j.set("duration_us", cfg.duration_us);
  j.set("deadline_slack", cfg.deadline_slack);
  obs::Json proto = obs::Json::object();
  proto.set("kind", protocol_name(cfg.protocol.kind));
  proto.set("shares", std::uint64_t{cfg.protocol.shares});
  j.set("protocol", std::move(proto));
  j.set("queue_capacity", std::uint64_t{cfg.queue_capacity});
  j.set("fail_bank_at_us", cfg.fail_bank_at_us);
  const auto& res = cfg.resilience;
  obs::Json r = obs::Json::object();
  r.set("deadline_us", res.deadline_us);
  r.set("max_retries", std::uint64_t{res.max_retries});
  r.set("retry_budget_ratio", res.retry_budget_ratio);
  r.set("hedge", res.hedge);
  r.set("hedge_delay_us", res.hedge_delay_us);
  r.set("codel_target_us", res.codel_target_us);
  r.set("codel_interval_us", res.codel_interval_us);
  r.set("breaker_k", std::uint64_t{res.breaker_k});
  r.set("wear_limit", res.wear_limit);
  obs::Json chaos = obs::Json::object();
  chaos.set("enabled", res.chaos.enabled);
  chaos.set("seed", res.chaos.seed);
  r.set("chaos", std::move(chaos));
  r.set("chaos_detect", res.chaos_detect);
  j.set("resilience", std::move(r));
  j.set("window_cycles", cfg.window_cycles);
  obs::Json slo = obs::Json::object();
  slo.set("availability", cfg.slo.availability);
  slo.set("latency_us", cfg.slo.latency_us);
  j.set("slo", std::move(slo));
  return j;
}

obs::Json fleet_config_to_json(const FleetConfig& cfg) {
  obs::Json j = obs::Json::object();
  j.set("chips", std::uint64_t{cfg.chips});
  j.set("router", cfg.router);
  j.set("replicas", std::uint64_t{cfg.replicas});
  j.set("chip", serving_config_to_json(cfg.chip));
  j.set("max_retries", std::uint64_t{cfg.max_retries});
  j.set("retry_budget_ratio", cfg.retry_budget_ratio);
  obs::Json chaos = obs::Json::object();
  chaos.set("enabled", cfg.chaos.enabled);
  chaos.set("seed", cfg.chaos.seed);
  chaos.set("mean_interval_us", cfg.chaos.mean_interval_us);
  chaos.set("mean_duration_us", cfg.chaos.mean_duration_us);
  j.set("chaos", std::move(chaos));
  j.set("kill_chip_at_us", cfg.kill_chip_at_us);
  j.set("kill_chip", std::uint64_t{cfg.kill_chip});
  return j;
}

// -- load ---------------------------------------------------------------------

Journal::LoadResult Journal::load(const std::string& path) {
  LoadResult out;
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    out.ok = true;  // nothing journaled yet: a fresh start
    return out;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();

  std::size_t pos = 0;
  std::uint64_t lineno = 0;
  // A pending invalid line: tolerated iff nothing valid follows it.
  bool pending_bad = false;
  std::string pending_error;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const bool complete = nl != std::string::npos;
    const std::string line =
        text.substr(pos, complete ? nl - pos : std::string::npos);
    ++lineno;
    std::uint32_t crc = 0;
    std::string payload;
    const bool valid =
        complete && unframe(line, crc, payload) && obs::crc32(payload) == crc;
    if (!valid) {
      if (pending_bad) {
        out.error = pending_error;  // two bad records: not a torn tail
        return out;
      }
      pending_bad = true;
      pending_error = path + ": line " + std::to_string(lineno) +
                      ": bad record framing/CRC";
      pos = complete ? nl + 1 : text.size();
      continue;
    }
    if (pending_bad) {
      // A valid record after an invalid one: mid-file corruption.
      out.error = pending_error + " (followed by valid records)";
      return out;
    }
    out.payloads.push_back(std::move(payload));
    pos = nl + 1;
    out.valid_bytes = pos;
  }
  out.torn_tail = pending_bad;
  if (!out.payloads.empty()) {
    const std::string& last = out.payloads.back();
    out.sealed = last.find("\"t\":\"seal\"") != std::string::npos;
  }
  out.ok = true;
  return out;
}

void Journal::open(const std::string& path, const std::string& header_payload,
                   bool recover) {
  path_ = path;
  loaded_.clear();
  cursor_ = 0;
  matched_ = 0;
  appended_ = 0;
  torn_ = false;
  if (recover) {
    LoadResult r = load(path);
    if (!r.ok) throw std::runtime_error("journal: " + r.error);
    torn_ = r.torn_tail;
    if (!r.payloads.empty() && r.payloads.front() != header_payload) {
      throw std::runtime_error(
          "journal: header mismatch in " + path +
          " — recover with the run's original flags (config fingerprint "
          "changed)");
    }
    loaded_ = std::move(r.payloads);
    // Drop the torn tail on disk so the resumed file is a clean prefix.
    if (std::filesystem::exists(path)) {
      std::filesystem::resize_file(path, r.valid_bytes);
    }
    out_.open(path, std::ios::binary | std::ios::app);
    if (!out_) throw std::runtime_error("journal: cannot append to " + path);
    if (loaded_.empty()) {
      // Crash before (or while) writing the header: start fresh.
      append(header_payload);
    } else {
      cursor_ = 1;  // header consumed
      matched_ += 1;
    }
    return;
  }
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) throw std::runtime_error("journal: cannot open " + path);
  append(header_payload);
}

void Journal::record(const std::string& payload) {
  if (!active()) return;
  if (cursor_ < loaded_.size()) {
    if (loaded_[cursor_] != payload) {
      throw std::runtime_error(
          "journal: replay diverged from " + path_ + " at record " +
          std::to_string(cursor_) + "\n  journaled: " + loaded_[cursor_] +
          "\n  replayed:  " + payload);
    }
    ++cursor_;
    ++matched_;
    return;
  }
  append(payload);
}

void Journal::append(const std::string& payload) {
  out_ << frame(payload);
  out_.flush();
  if (!out_) throw std::runtime_error("journal: write failed: " + path_);
  ++appended_;
}

std::unique_ptr<Journal> open_journal(const DurabilityOptions& opts,
                                      const std::string& file,
                                      const char* mode, std::uint32_t chip_id,
                                      std::uint64_t seed,
                                      const obs::Json& config) {
  std::filesystem::create_directories(opts.dir);
  auto j = std::make_unique<Journal>();
  j->open(opts.dir + "/" + file,
          Journal::header_payload(mode, chip_id, seed, config), opts.recover);
  return j;
}

// -- payload builders ---------------------------------------------------------

std::string Journal::header_payload(const char* mode, std::uint32_t chip_id,
                                    std::uint64_t seed,
                                    const obs::Json& config) {
  char fp[16];
  std::snprintf(fp, sizeof fp, "%08x", obs::crc32(config.dump()));
  return obs::JsonLine()
      .str("t", "hdr").str("schema", "journal/1").str("mode", mode)
      .u64("chip", chip_id).u64("seed", seed).str("config", fp)
      .dump();
}

std::string Journal::admit_payload(std::uint64_t index, std::uint64_t cycle,
                                   const Request& r) {
  return obs::JsonLine()
      .str("t", "admit").u64("i", index).u64("c", cycle).u64("id", r.id)
      .u64("tn", r.tenant).u64("deg", r.degree).u64("cl", r.client)
      .u64("ac", r.arrival_cycle).u64("dl", r.deadline_cycle)
      .u64("sv", r.service_cycles).u64("vf", r.verify ? 1 : 0)
      .u64("ds", r.data_seed).u64("at", r.attempts).u64("pid", r.proto_id)
      .u64("oi", r.op_index).u64("ocl", static_cast<std::uint64_t>(r.op_class))
      .u64("fg", r.fanout_group).u64("pm", r.parent_mask)
      .dump();
}

std::string Journal::outcome_payload(std::uint64_t index, std::uint64_t cycle,
                                     std::uint64_t id, Outcome o) {
  return obs::JsonLine()
      .str("t", "out").u64("i", index).u64("c", cycle).u64("id", id)
      .str("o", outcome_name(o))
      .dump();
}

std::string Journal::snap_payload(std::uint64_t index,
                                  const obs::Json& state) {
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", obs::crc32(state.dump()));
  return obs::JsonLine()
      .str("t", "snap").u64("i", index).str("crc", crc)
      .dump();
}

std::string Journal::seal_payload(
    std::uint64_t index, std::uint64_t cycle,
    std::initializer_list<std::pair<const char*, std::uint64_t>> counters) {
  obs::JsonLine s;
  s.str("t", "seal").u64("i", index).u64("c", cycle);
  for (const auto& [name, value] : counters) s.u64(name, value);
  return s.dump();
}

}  // namespace cryptopim::runtime
