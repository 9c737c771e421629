// Write-ahead journal for durable serving (schema "journal/1").
//
// The serving runtime's event clock is a strict total order: a fixed
// (config, seed) re-executes bit-identically. The journal exploits that
// for crash recovery *by deterministic replay*: instead of serializing
// the runtime's full machine state, it records the externally-visible
// commitments — every admitted request and every terminal outcome — and
// recovery re-executes the run from its origin, *matching* each
// commitment against the journaled record at the same global event
// index. A record that matches was already delivered before the crash
// (exactly-once: it is not re-appended and a fleet would not re-ack it);
// the first record past the journal's valid prefix flips the journal
// back to live append mode and the run simply continues. Snapshots ride
// the same mechanism as periodic cross-checks: a snapshot is the CRC of
// the runtime's full state dump, journaled in a `snap` record, and the
// replay that passes the same index must rebuild the same CRC.
//
// On-disk format — one CRC-framed record per line:
//
//   <crc32 hex8> <compact JSON payload>\n
//
// with the CRC taken over the payload bytes. Record types ("t" field):
//   hdr   — first line; schema tag, run mode, chip id, workload seed and
//           a CRC fingerprint of the full serialized config. `--recover`
//           revalidates the fingerprint, so recovering with drifted
//           flags fails loudly instead of replaying garbage.
//   admit — an admission commitment: global event index, cycle, and the
//           admitted request's fields (a protocol request's origin).
//   out   — a terminal outcome commitment (index, cycle, id, fate).
//   snap  — a snapshot at this index: the CRC of the state dump.
//   seal  — clean end of run, carrying the final conservation counters.
//
// Every record is flushed to the OS as it is written (the durability
// model is process death — SIGKILL, OOM, a panic — not media failure),
// so after a crash the journal is a valid prefix plus at most one torn
// final record. Journal::load tolerates exactly that: an unparseable or
// CRC-failing *last* line is dropped (torn tail), while a bad record
// followed by valid ones is rejected as corruption.
//
// Payloads are written field by field with obs::JsonLine, the flat-record
// writer the event log and the trace share: each is one flat object with
// its fields in a fixed order and 64-bit fields such as data_seed
// written exactly, so replay matching can compare raw payload strings
// byte-for-byte.
#pragma once

#include <csignal>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/request.h"

namespace cryptopim::obs {
class Json;
}

namespace cryptopim::runtime {

enum class Outcome : std::uint8_t;
struct ServingConfig;
struct FleetConfig;

/// Stable name of a terminal outcome ("completed", "rejected", ...).
const char* outcome_name(Outcome o);

/// Full serialization of the determinism-relevant config (everything the
/// replay needs to re-execute the run). Only settable values are config:
/// the runtime's constants (cycle time, repartition cost, backoff, chaos
/// mix, ...) are part of the code. Fingerprinted into the journal header;
/// also usable for offline inspection.
obs::Json serving_config_to_json(const ServingConfig& cfg);
obs::Json fleet_config_to_json(const FleetConfig& cfg);

/// Durability knobs threaded from the CLI into the runtimes.
struct DurabilityOptions {
  /// Journal directory; empty = durability off.
  std::string dir;
  /// Journal a snapshot (the state dump's CRC) every N global events
  /// (0 = none).
  std::uint64_t snapshot_every = 0;
  /// Recover: load the journal, replay-match its prefix, resume live.
  bool recover = false;
  /// Crash-campaign hook: raise SIGKILL (a real, uncatchable kill — no
  /// destructors, no flushes) before processing this global event index.
  /// 0 = off.
  std::uint64_t kill_at_event = 0;

  bool enabled() const noexcept { return !dir.empty(); }
};

class Journal {
 public:
  /// Result of reading a journal file back.
  struct LoadResult {
    bool ok = false;        ///< false: mid-file corruption / no header
    std::string error;
    std::vector<std::string> payloads;  ///< valid records, in order
    std::uint64_t valid_bytes = 0;      ///< length of the valid prefix
    bool torn_tail = false;             ///< a partial final record was dropped
    bool sealed = false;                ///< last record is a seal
  };
  /// Parses `path`. A missing or empty file is ok with zero records.
  static LoadResult load(const std::string& path);

  Journal() = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Live mode (`recover` false): truncate/create `path` and write the
  /// header record. Recovery mode: load `path`, verify its header equals
  /// `header_payload` (config-fingerprint check), truncate any torn
  /// tail, and start the replay cursor past the header. Throws
  /// std::runtime_error on corruption, a header mismatch or a failed
  /// write.
  void open(const std::string& path, const std::string& header_payload,
            bool recover);

  /// Record one commitment. While replaying, the payload must equal the
  /// journaled record at the cursor (byte-for-byte; a mismatch throws —
  /// the replay diverged, i.e. config drift or lost determinism); past
  /// the journal end it is appended and flushed (a failed write throws).
  void record(const std::string& payload);

  bool active() const noexcept { return !path_.empty(); }
  /// Still matching against pre-crash records?
  bool replaying() const noexcept { return cursor_ < loaded_.size(); }
  bool torn_tail() const noexcept { return torn_; }
  std::uint64_t matched() const noexcept { return matched_; }
  std::uint64_t appended() const noexcept { return appended_; }
  const std::string& path() const noexcept { return path_; }

  // -- payload builders (deterministic flat JSON objects) ---------------------
  static std::string header_payload(const char* mode, std::uint32_t chip_id,
                                    std::uint64_t seed,
                                    const obs::Json& config);
  static std::string admit_payload(std::uint64_t index, std::uint64_t cycle,
                                   const Request& r);
  static std::string outcome_payload(std::uint64_t index, std::uint64_t cycle,
                                     std::uint64_t id, Outcome o);
  /// The snapshot of global event `index`: the CRC of `state.dump()`.
  static std::string snap_payload(std::uint64_t index, const obs::Json& state);
  static std::string seal_payload(
      std::uint64_t index, std::uint64_t cycle,
      std::initializer_list<std::pair<const char*, std::uint64_t>> counters);

 private:
  /// Frames, writes and flushes one record; throws std::runtime_error
  /// when the write fails.
  void append(const std::string& payload);

  std::ofstream out_;
  std::string path_;
  std::vector<std::string> loaded_;
  std::size_t cursor_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t appended_ = 0;
  bool torn_ = false;
};

/// Opens `opts.dir`/`file` — creating the directory — as Journal::open
/// does, recovering it under opts.recover; the header carries `mode`,
/// `chip_id`, `seed` and the fingerprint of `config`. Every journal of a
/// run (a single chip's journal.log, a fleet's fleet.log and each
/// chip-<i>.log) is opened here.
std::unique_ptr<Journal> open_journal(const DurabilityOptions& opts,
                                      const std::string& file,
                                      const char* mode, std::uint32_t chip_id,
                                      std::uint64_t seed,
                                      const obs::Json& config);

/// The durability boundary before global event `index`, where the
/// runtime's state is consistent; the single-chip and the fleet loop
/// both cross it before every event. A snapshot taken here (of
/// `state()`, called only when one is due) is exactly reproducible by a
/// replay that handled the same number of events, and the crash
/// campaign's SIGKILL lands between events, so the journal's only
/// possible damage is the torn tail the loader already tolerates. With
/// nothing due it costs two comparisons.
template <typename StateFn>
void durability_boundary(const DurabilityOptions& opts, std::uint64_t index,
                         Journal& journal, StateFn&& state) {
  if (opts.snapshot_every > 0 && index > 0 &&
      index % opts.snapshot_every == 0) {
    journal.record(Journal::snap_payload(index, state()));
  }
  if (opts.kill_at_event > 0 && index + 1 == opts.kill_at_event) {
    std::raise(SIGKILL);
  }
}

}  // namespace cryptopim::runtime
