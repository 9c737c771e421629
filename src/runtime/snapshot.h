// Periodic state snapshots for durable serving (schema "snapshot/1").
//
// Recovery in this repo is replay-based (see runtime/journal.h): the
// deterministic event clock re-executes the run from its origin and the
// journal pins the externally-visible commitments. Snapshots ride that
// mechanism as periodic *cross-checks* rather than cold-restore images:
// every `--snapshot-every N` global events the runtime serializes its
// full state (lane geometry, wear counters, breaker and shard-map state,
// RNG cursors, WFQ ledgers) into `snap-<index>.json` and journals the
// state's CRC in a `snap` record. A recovering run rebuilds the same dump
// as its replay passes the same index, and the journal's byte-compare of
// that `snap` record is the cross-check: a divergence means the replay
// is not reproducing the pre-crash run and recovery fails loudly instead
// of silently double-serving. Nothing reads the documents back; they are
// the human-readable state behind each journaled CRC.
//
// Document shape:
//
//   {"schema":"snapshot/1","index":<u64>,"crc":"<hex8>","state":{...}}
//
// with `crc` = crc32 of the compact serialization of `state`. Writes go
// through a temp file + rename so a crash mid-snapshot never leaves a
// half-written document under the canonical name.
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.h"

namespace cryptopim::runtime {

/// Atomically persists `state` as `<dir>/snap-<index>.json`. Returns the
/// file's basename; also outputs the CRC of the state serialization so
/// the caller can journal it.
std::string write_snapshot(const std::string& dir, std::uint64_t index,
                           const obs::Json& state, std::uint32_t* state_crc);

}  // namespace cryptopim::runtime
