// Durability subsystem tests (src/runtime/journal.*, and the recovery
// path through ServingRuntime / FleetRuntime): CRC framing, torn-tail
// discipline, replay matching, snapshot records, RNG digests, event-log
// streaming, and in-process crash/recover fidelity —
// including the --protocol x --fleet matrix (op-ledger conservation and
// exactly-once protocol teardown when a chip dies mid-DAG).
#include "runtime/journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/crc32.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "runtime/fleet.h"
#include "runtime/protocol.h"
#include "runtime/protocol_ops.h"
#include "runtime/serving.h"

namespace cryptopim::runtime {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory (deterministic name, wiped first).
std::string scratch_dir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("cryptopim_test_journal_" + name))
          .string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

ServingConfig small_config(std::uint64_t seed) {
  ServingConfig cfg;
  cfg.workload.mix = {{1024, 1.0}};
  cfg.workload.tenants = 2;
  cfg.workload.seed = seed;
  cfg.arrival_rate_per_s = 40000;
  cfg.duration_us = 2000;
  return cfg;
}

// ------------------------------------------------------------- crc32 --

TEST(Crc32, MatchesCheckValue) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(obs::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(obs::crc32(""), 0x00000000u);
  EXPECT_NE(obs::crc32("a"), obs::crc32("b"));
}

// ----------------------------------------------------- journal frame --

TEST(Journal, RoundTripsRecordsThroughLoad) {
  const std::string dir = scratch_dir("roundtrip");
  const std::string path = dir + "/journal.log";
  const std::string hdr = "{\"t\":\"hdr\",\"schema\":\"journal/1\"}";
  {
    Journal j;
    j.open(path, hdr, /*recover=*/false);
    j.record("{\"t\":\"admit\",\"i\":1}");
    j.record("{\"t\":\"out\",\"i\":2}");
    EXPECT_TRUE(j.active());
    EXPECT_EQ(j.appended(), 3u);
  }
  const auto r = Journal::load(path);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.payloads.size(), 3u);
  EXPECT_EQ(r.payloads[0], hdr);
  EXPECT_EQ(r.payloads[2], "{\"t\":\"out\",\"i\":2}");
  EXPECT_FALSE(r.torn_tail);
  EXPECT_FALSE(r.sealed);
}

TEST(Journal, MissingFileLoadsEmpty) {
  const auto r = Journal::load(scratch_dir("missing") + "/nope.log");
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.payloads.empty());
}

TEST(Journal, FailedHeaderWriteThrows) {
  // /dev/full opens, then fails every write with ENOSPC: nothing is
  // journaled, so the run must not go on as if it were durable.
  Journal j;
  EXPECT_THROW(j.open("/dev/full", "{\"t\":\"hdr\"}", false),
               std::runtime_error);
}

TEST(Journal, TornTailIsDroppedButMidFileCorruptionIsFatal) {
  const std::string dir = scratch_dir("torn");
  const std::string path = dir + "/journal.log";
  {
    Journal j;
    j.open(path, "{\"t\":\"hdr\"}", false);
    j.record("{\"t\":\"admit\",\"i\":1}");
    j.record("{\"t\":\"out\",\"i\":2}");
  }
  const std::string full = slurp(path);
  // Chop mid-record: the final line loses its newline and some bytes.
  spit(path, full.substr(0, full.size() - 9));
  auto r = Journal::load(path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.payloads.size(), 2u);

  // Corrupt the *middle* record instead: valid lines follow, so this is
  // not a torn tail and the load must fail.
  std::string bad = full;
  bad[full.find("admit") + 1] ^= 0x20;
  spit(path, bad);
  r = Journal::load(path);
  EXPECT_FALSE(r.ok);
}

TEST(Journal, ReplayMatchesThenAppends) {
  const std::string dir = scratch_dir("replay");
  const std::string path = dir + "/journal.log";
  const std::string hdr = "{\"t\":\"hdr\"}";
  {
    Journal j;
    j.open(path, hdr, false);
    j.record("{\"t\":\"admit\",\"i\":1}");
  }
  Journal j;
  j.open(path, hdr, /*recover=*/true);
  EXPECT_TRUE(j.replaying());
  j.record("{\"t\":\"admit\",\"i\":1}");  // matches the journaled record
  EXPECT_FALSE(j.replaying());
  EXPECT_EQ(j.matched(), 2u);  // header + admit
  j.record("{\"t\":\"out\",\"i\":2}");  // past the prefix: appended live
  EXPECT_EQ(j.appended(), 1u);
  const auto r = Journal::load(path);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.payloads.size(), 3u);
}

TEST(Journal, ReplayDivergenceThrows) {
  const std::string dir = scratch_dir("diverge");
  const std::string path = dir + "/journal.log";
  const std::string hdr = "{\"t\":\"hdr\"}";
  {
    Journal j;
    j.open(path, hdr, false);
    j.record("{\"t\":\"admit\",\"i\":1}");
  }
  Journal j;
  j.open(path, hdr, true);
  EXPECT_THROW(j.record("{\"t\":\"admit\",\"i\":99}"), std::runtime_error);
}

TEST(Journal, RecoverRejectsHeaderMismatch) {
  const std::string dir = scratch_dir("hdrmismatch");
  const std::string path = dir + "/journal.log";
  {
    Journal j;
    j.open(path, "{\"t\":\"hdr\",\"config\":\"aaaaaaaa\"}", false);
  }
  Journal j;
  EXPECT_THROW(j.open(path, "{\"t\":\"hdr\",\"config\":\"bbbbbbbb\"}", true),
               std::runtime_error);
}

// ---------------------------------------------------------- snapshot --

TEST(Snapshot, JournalsTheStateCrcAndWritesNoDocument) {
  obs::Json state = obs::Json::object();
  state.set("cycle", std::uint64_t{12345});
  state.set("note", "hello");
  char crc[9];
  std::snprintf(crc, sizeof crc, "%08x", obs::crc32(state.dump()));
  EXPECT_EQ(Journal::snap_payload(42, state),
            std::string("{\"t\":\"snap\",\"i\":42,\"crc\":\"") + crc + "\"}");

  // A run with snapshots on journals only snap records: every one
  // carries t, i and crc, and the directory holds the journal alone.
  const std::string dir = scratch_dir("snap");
  DurabilityOptions durab;
  durab.dir = dir;
  durab.snapshot_every = 128;
  ServingRuntime rt(small_config(11));
  rt.enable_durability(durab);
  rt.run();
  const auto loaded = Journal::load(dir + "/journal.log");
  ASSERT_TRUE(loaded.ok) << loaded.error;
  std::uint64_t snaps = 0;
  for (const std::string& payload : loaded.payloads) {
    const auto r = obs::parse_json(payload);
    ASSERT_TRUE(r.ok) << r.error;
    if (r.value.at("t").as_string() != "snap") continue;
    snaps += 1;
    ASSERT_EQ(r.value.size(), 3u) << payload;
    EXPECT_EQ(r.value.at("i").as_u64() % durab.snapshot_every, 0u);
    EXPECT_EQ(r.value.at("crc").as_string().size(), 8u);
  }
  EXPECT_GT(snaps, 0u);
  std::vector<std::string> files;
  for (const auto& ent : fs::directory_iterator(dir)) {
    files.push_back(ent.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"journal.log"});
}

// -------------------------------------------------------- rng digest --

TEST(RngDigest, NonAdvancingAndPositionSensitive) {
  Xoshiro256 a(7), b(7);
  EXPECT_EQ(a.digest(), b.digest());
  const std::uint64_t before = a.digest();
  EXPECT_EQ(a.digest(), before);  // digest() must not advance the stream
  a.next();
  EXPECT_NE(a.digest(), before);
  b.next();
  EXPECT_EQ(a.digest(), b.digest());  // same prefix -> same digest
  EXPECT_NE(Xoshiro256(8).digest(), before);
}

// ------------------------------------------------ event log streaming --

TEST(EventLogStream, StreamedFileMirrorsBufferedRecords) {
  const std::string dir = scratch_dir("elog");
  const std::string path = dir + "/events.jsonl";
  obs::EventLog log;
  log.open_stream(path, /*line_buffered=*/false);
  EXPECT_TRUE(log.enabled());
  obs::Json traced = obs::Json::object();
  traced.set("ev", "dispatched");
  traced.set("trace", std::uint64_t{1});
  obs::Json control = obs::Json::object();
  control.set("ev", "bank_failure");
  log.log(traced);
  log.log(control);  // control record: flushed immediately
  // The control record must already be on disk, pre-close: that is the
  // crash-durability contract for cluster-transition records.
  {
    std::istringstream in(slurp(path));
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_GE(lines.size(), 1u);
    EXPECT_NE(slurp(path).find("bank_failure"), std::string::npos);
  }
  log.close_stream();
  // Streamed file = streamed header + exactly the logged records, which
  // records() reads back from that same file.
  std::istringstream in(slurp(path));
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(log.size(), 2u);
  ASSERT_EQ(lines.size(), 1 + log.records().size());
  EXPECT_NE(lines[0].find("\"streamed\":true"), std::string::npos);
  EXPECT_EQ(lines[1], traced.dump());
  EXPECT_EQ(lines[2], control.dump());
  for (std::size_t i = 0; i < log.records().size(); ++i) {
    EXPECT_EQ(lines[i + 1], log.records()[i].dump());
  }
}

TEST(EventLogStream, LineBufferedFlushesEveryRecord) {
  const std::string dir = scratch_dir("elogline");
  const std::string path = dir + "/events.jsonl";
  obs::EventLog log;
  log.open_stream(path, /*line_buffered=*/true);
  obs::Json traced = obs::Json::object();
  traced.set("ev", "dispatched");
  traced.set("trace", std::uint64_t{9});
  log.log(traced);
  // No close, no explicit flush: the record must still be on disk.
  EXPECT_NE(slurp(path).find("dispatched"), std::string::npos);
}

// ------------------------------------------- in-process crash/recover --

// Truncates the journal to its first `keep` complete records.
void truncate_records(const std::string& path, std::uint64_t keep) {
  const std::string text = slurp(path);
  std::uint64_t lines = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\n') continue;
    if (++lines == keep) {
      fs::resize_file(path, i + 1);
      return;
    }
  }
}

TEST(Recovery, TruncatedJournalReplaysToIdenticalReport) {
  const std::string dir = scratch_dir("recover");
  DurabilityOptions durab;
  durab.dir = dir;
  durab.snapshot_every = 128;

  ServingRuntime full(small_config(11));
  full.enable_durability(durab);
  const ServingReport want = full.run();
  const std::string want_journal = slurp(dir + "/journal.log");

  // Synthetic crash: drop the back half of the journal, then recover.
  std::uint64_t lines = 0;
  for (char c : want_journal)
    if (c == '\n') ++lines;
  ASSERT_GT(lines, 4u);
  truncate_records(dir + "/journal.log", lines / 2);

  durab.recover = true;
  ServingRuntime again(small_config(11));
  again.enable_durability(durab);
  const ServingReport got = again.run();

  EXPECT_EQ(got.submitted, want.submitted);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.throughput_per_s, want.throughput_per_s);
  // The recovered journal converges byte-identically to the
  // uninterrupted run's (same flags -> same records, same snap cadence).
  EXPECT_EQ(slurp(dir + "/journal.log"), want_journal);
}

TEST(Recovery, SealedJournalReplaysWithoutAppending) {
  const std::string dir = scratch_dir("sealed");
  DurabilityOptions durab;
  durab.dir = dir;
  ServingRuntime full(small_config(3));
  full.enable_durability(durab);
  full.run();
  const std::string want_journal = slurp(dir + "/journal.log");

  durab.recover = true;
  ServingRuntime again(small_config(3));
  again.enable_durability(durab);
  again.run();
  EXPECT_EQ(slurp(dir + "/journal.log"), want_journal);
}

TEST(Recovery, AlteredSnapshotCrcDivergesTheReplay) {
  // A snap record whose state CRC differs from the one the replay
  // rebuilds, framed with a valid record CRC so the loader accepts it:
  // recovery must stop at it instead of resuming.
  const std::string dir = scratch_dir("snapdiverge");
  DurabilityOptions durab;
  durab.dir = dir;
  durab.snapshot_every = 128;
  ServingRuntime full(small_config(11));
  full.enable_durability(durab);
  full.run();

  const std::string path = dir + "/journal.log";
  std::istringstream in(slurp(path));
  std::string text;
  bool altered = false;
  for (std::string line; std::getline(in, line);) {
    std::string payload = line.substr(9);
    if (!altered && payload.find("\"t\":\"snap\"") != std::string::npos) {
      char& digit = payload[payload.find("\"crc\":\"") + 7];
      digit = digit == '0' ? '1' : '0';
      char frame[10];
      std::snprintf(frame, sizeof frame, "%08x ", obs::crc32(payload));
      line = frame + payload;
      altered = true;
    }
    text += line + "\n";
  }
  ASSERT_TRUE(altered);
  spit(path, text);
  ASSERT_TRUE(Journal::load(path).ok);

  durab.recover = true;
  ServingRuntime again(small_config(11));
  again.enable_durability(durab);
  try {
    again.run();
    ADD_FAILURE() << "recovery replayed past an altered snapshot CRC";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("replay diverged"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------- protocol x fleet matrix (S3) --

FleetConfig proto_fleet_config(ProtocolKind kind, std::uint64_t seed) {
  FleetConfig fc;
  fc.chips = 3;
  fc.replicas = 2;
  fc.chip.protocol.kind = kind;
  fc.chip.protocol.shares = 3;
  fc.chip.workload.mix = {
      {kind == ProtocolKind::kKem ? kKemDegree : kBgvDegree, 1.0}};
  fc.chip.workload.tenants = 4;
  fc.chip.workload.seed = seed;
  fc.chip.workload.verify_every = 32;
  fc.chip.arrival_rate_per_s = 20000;
  fc.chip.duration_us = 1500;
  return fc;
}

// Every protocol kind, served by a fleet with a chip dying mid-DAG:
// the fleet request ledger must stay conserved and each chip's op
// ledger must close through the cancelled-by-teardown counter.
class ProtocolFleetMatrix : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ProtocolFleetMatrix, OpLedgerConservesThroughChipKill) {
  FleetConfig fc = proto_fleet_config(GetParam(), 17);
  fc.kill_chip_at_us = 500.0;
  fc.kill_chip = 1;
  const auto rep = FleetRuntime(std::move(fc)).run();
  EXPECT_EQ(rep.crashes, 1u);
  EXPECT_GT(rep.completed, 0u);
  // Fleet request ledger: every submitted request gets exactly one fate.
  EXPECT_EQ(rep.submitted, rep.completed + rep.rejected + rep.shed +
                               rep.timed_out + rep.failed + rep.queued);
  for (const auto& c : rep.chip_reports) {
    // Chip op ledger: admission side...
    EXPECT_EQ(c.submitted,
              c.admitted + c.rejected + c.rejected_unservable +
                  c.resilience.rejected_deadline)
        << "chip " << c.chip_id;
    // ...and every admitted op reaches one terminal fate, counting ops
    // cancelled by exactly-once protocol teardown (chip death tears the
    // whole DAG down at most once per protocol request).
    EXPECT_EQ(c.admitted, c.completed + c.resilience.shed +
                              c.resilience.timed_out +
                              c.resilience.failed + c.queued +
                              c.in_flight + c.protocol.ops_cancelled +
                              c.chip_failed + c.migrated + c.lost_in_flight)
        << "chip " << c.chip_id;
    EXPECT_EQ(c.protocol.join_mismatches, 0u) << "chip " << c.chip_id;
  }
}

// The same matrix under durability: the journaled fleet run must admit
// every request exactly once (no duplicate ids in any chip journal) and
// recover byte-identically after losing the journal tail.
TEST_P(ProtocolFleetMatrix, JournaledRunRecoversByteIdentically) {
  const std::string dir =
      scratch_dir(std::string("pf_") + protocol_name(GetParam()));
  DurabilityOptions durab;
  durab.dir = dir;

  FleetConfig fc = proto_fleet_config(GetParam(), 21);
  fc.kill_chip_at_us = 400.0;
  fc.kill_chip = 2;
  FleetRuntime fleet(std::move(fc));
  fleet.enable_durability(durab);
  fleet.run();

  std::vector<std::string> files = {"fleet.log", "chip-0.log", "chip-1.log",
                                    "chip-2.log"};
  std::map<std::string, std::string> want;
  for (const auto& f : files) {
    want[f] = slurp(dir + "/" + f);
    ASSERT_FALSE(want[f].empty()) << f;
  }

  // Exactly-once admission: no chip journal may admit the same op id
  // twice (dedup across re-dispatch is per chip; a cross-chip retry is
  // a *new* admission on the other chip by design).
  for (const auto& f : files) {
    std::set<std::string> ids;
    std::istringstream in(want[f]);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"t\":\"admit\"") == std::string::npos) continue;
      const std::size_t at = line.find("\"id\":");
      ASSERT_NE(at, std::string::npos);
      const std::string id = line.substr(at, line.find(',', at) - at);
      EXPECT_TRUE(ids.insert(id).second) << f << " duplicate " << id;
    }
  }

  // Crash: drop the tail of the fleet journal, then recover; every
  // journal file must converge back to the uninterrupted bytes.
  std::uint64_t lines = 0;
  for (char c : want["fleet.log"])
    if (c == '\n') ++lines;
  ASSERT_GT(lines, 4u);
  truncate_records(dir + "/fleet.log", lines / 2);

  durab.recover = true;
  FleetConfig fc2 = proto_fleet_config(GetParam(), 21);
  fc2.kill_chip_at_us = 400.0;
  fc2.kill_chip = 2;
  FleetRuntime again(std::move(fc2));
  again.enable_durability(durab);
  again.run();
  for (const auto& f : files) {
    EXPECT_EQ(slurp(dir + "/" + f), want[f]) << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ProtocolFleetMatrix,
                         ::testing::Values(ProtocolKind::kKem,
                                           ProtocolKind::kBgvMul,
                                           ProtocolKind::kThreshold),
                         [](const auto& info) {
                           std::string n = protocol_name(info.param);
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

}  // namespace
}  // namespace cryptopim::runtime
