// Crash-at-any-event recovery campaign.
//
// Proves the durability subsystem's core claim — a serve run SIGKILLed
// before processing *any* global event recovers to a byte-identical end
// state — by actually doing it, at scale, against the real CLI binary:
//
//   1. Reference: run `cryptopim serve <flags> --journal <dir>/ref`
//      uninterrupted; its seal record pins the total event count and the
//      expected journal/report bytes.
//   2. For each sampled kill point k in [1, total]:
//        a. crash   — fresh run with --kill-at-event k; the runtime
//           raises a real SIGKILL (no destructors, no flushes), so the
//           driver requires the child to die by that signal;
//        b. tear    — every --tear-every'th point additionally chops
//           bytes off the journal tail, simulating a write torn by the
//           kill landing mid-record;
//        c. recover — re-run with --recover; must exit 0;
//        d. verify  — the recovered stdout report and every journal
//           file must be byte-equal to the reference's, the seal's
//           conservation identity must close, and the admitted-id set
//           must match the reference exactly once each (no duplicate,
//           no lost, no invented admissions).
//
// Any deviation is a violation; the campaign prints per-category counts
// and exits non-zero if any occurred. Used both as a ctest smoke (a few
// points) and as the full >=1000-point acceptance sweep.
//
// Usage:
//   run_crash_campaign --cli BIN --dir DIR [--points N] [--tear-every M]
//                      -- <serve flags...>
#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "obs/json.h"
#include "runtime/journal.h"

namespace fs = std::filesystem;
using cryptopim::obs::Json;
using cryptopim::obs::parse_json;

namespace {

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "run_crash_campaign: " << msg << "\n";
  std::exit(2);
}

// Forks and execs `argv`, redirecting the child's stdout to
// `stdout_path` (or /dev/null when empty) and stderr to /dev/null
// unless `keep_stderr`. Returns the raw wait() status.
int run_child(const std::vector<std::string>& argv,
              const std::string& stdout_path, bool keep_stderr) {
  pid_t pid = fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    const char* out = stdout_path.empty() ? "/dev/null" : stdout_path.c_str();
    int fd = ::open(out, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) _exit(126);
    dup2(fd, STDOUT_FILENO);
    ::close(fd);
    if (!keep_stderr) {
      int nul = ::open("/dev/null", O_WRONLY);
      if (nul >= 0) {
        dup2(nul, STDERR_FILENO);
        ::close(nul);
      }
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) < 0) die("waitpid failed");
  return status;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// One journal file, read through runtime::Journal::load (the loader
// --recover uses: CRC framing, torn-tail rule) and parsed just far
// enough for the campaign's semantic checks (byte comparison is the
// primary oracle; this is the independent cross-check).
struct JournalScan {
  std::string error;                  // empty when the journal read
  bool fleet = false;
  Json seal;                          // seal record (null if unsealed)
  std::vector<std::uint64_t> admits;  // admit record ids, in order
};

JournalScan scan_journal(const std::string& path) {
  JournalScan s;
  const auto failed = [&s](std::string why) {
    s.error = std::move(why);
    return s;
  };
  const auto loaded = cryptopim::runtime::Journal::load(path);
  if (!loaded.ok) return failed(loaded.error);
  if (loaded.payloads.empty()) {
    return failed("empty or missing journal: " + path);
  }
  for (std::size_t i = 0; i < loaded.payloads.size(); ++i) {
    const auto r = parse_json(loaded.payloads[i]);
    const Json& j = r.value;
    if (!r.ok || !j.is_object() || !j.contains("t")) {
      return failed("unparseable record " + std::to_string(i + 1) + " in " +
                    path);
    }
    const std::string& t = j.at("t").as_string();
    if (i == 0) {
      if (t != "hdr") return failed("first record is not a header in " + path);
      s.fleet = j.contains("mode") && j.at("mode").as_string() == "fleet";
    } else if (t == "admit") {
      if (!j.contains("id")) return failed("admit without id in " + path);
      s.admits.push_back(j.at("id").as_u64());
    } else if (t == "seal") {
      s.seal = j;
    }
  }
  return s;
}

// The named seal counter, 0 when absent.
std::uint64_t counter(const Json& seal, const char* key) {
  return seal.contains(key) ? seal.at(key).as_u64() : 0;
}

// Sum of the named seal counters.
std::uint64_t sum_fields(const Json& seal,
                         std::initializer_list<const char*> keys) {
  std::uint64_t total = 0;
  for (const char* k : keys) total += counter(seal, k);
  return total;
}

// Checks the conservation identities on a seal record. Returns an
// empty string when everything closes.
std::string check_conservation(const JournalScan& s) {
  if (!s.seal.is_object()) return "journal is not sealed";
  const Json& seal = s.seal;
  if (!seal.contains("sub")) return "seal missing sub";
  const std::uint64_t sub = seal.at("sub").as_u64();
  if (s.fleet) {
    // Fleet ledger: every submitted request reaches exactly one
    // fleet-terminal fate.
    std::uint64_t fated =
        sum_fields(seal, {"cmp", "rej", "shd", "tmo", "fld", "que"});
    if (sub != fated)
      return "fleet conservation: sub " + std::to_string(sub) +
             " != fated " + std::to_string(fated);
    return {};
  }
  if (!seal.contains("adm")) return "seal missing adm";
  const std::uint64_t adm = seal.at("adm").as_u64();
  const std::uint64_t rej = counter(seal, "rej");
  if (sub != adm + rej)
    return "admission conservation: sub " + std::to_string(sub) + " != adm " +
           std::to_string(adm) + " + rej " + std::to_string(rej);
  // Op ledger: every admitted op reaches exactly one terminal fate or is
  // cancelled by exactly-once protocol teardown.
  std::uint64_t fated =
      sum_fields(seal, {"cmp", "shd", "tmo", "fld", "que", "inf", "cnl"});
  if (adm != fated)
    return "op conservation: adm " + std::to_string(adm) + " != fated " +
           std::to_string(fated);
  // A corrupt result delivered as correct is never acceptable, crashed
  // or not.
  if (const std::uint64_t wra = counter(seal, "wra"); wra != 0)
    return "wrong-accepted: " + std::to_string(wra);
  return {};
}

// Admitted-id multiset as (id -> count); exactly-once means every count
// is 1 and the sets match the reference.
std::string check_admits(const std::vector<std::uint64_t>& got,
                         const std::vector<std::uint64_t>& want) {
  std::multiset<std::uint64_t> g(got.begin(), got.end());
  std::multiset<std::uint64_t> w(want.begin(), want.end());
  for (std::uint64_t id : g)
    if (g.count(id) > 1) return "duplicate admission id " + std::to_string(id);
  if (g != w)
    return "admission set mismatch: " + std::to_string(g.size()) +
           " recovered vs " + std::to_string(w.size()) + " reference";
  return {};
}

struct Args {
  std::string cli;
  std::string dir;
  std::uint64_t points = 1000;
  std::uint64_t tear_every = 10;  // 0 = never tear
  bool verbose = false;
  std::vector<std::string> serve_flags;
};

// A whole unsigned decimal, as the CLI's flags take them: "2x", "-1" or
// an out-of-range value is a usage error, never a prefix or a wrap.
std::uint64_t parse_count(const char* flag, const std::string& text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || p != end) {
    die(std::string(flag) + " expects an unsigned integer, got '" + text +
        "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  int i = 1;
  for (; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) die(std::string(flag) + " requires a value");
      return argv[++i];
    };
    if (arg == "--cli") {
      a.cli = next("--cli");
    } else if (arg == "--dir") {
      a.dir = next("--dir");
    } else if (arg == "--points") {
      a.points = parse_count("--points", next("--points"));
    } else if (arg == "--tear-every") {
      a.tear_every = parse_count("--tear-every", next("--tear-every"));
    } else if (arg == "--verbose") {
      a.verbose = true;
    } else if (arg == "--") {
      ++i;
      break;
    } else {
      die("unknown flag " + arg +
          " (usage: run_crash_campaign --cli BIN --dir DIR [--points N] "
          "[--tear-every M] -- <serve flags...>)");
    }
  }
  for (; i < argc; ++i) a.serve_flags.push_back(argv[i]);
  if (a.cli.empty() || a.dir.empty()) die("--cli and --dir are required");
  if (a.points == 0) die("--points must be > 0");
  return a;
}

std::vector<std::string> serve_argv(const Args& a, const std::string& jdir,
                                    std::vector<std::string> extra) {
  std::vector<std::string> v{a.cli, "serve"};
  for (const std::string& f : a.serve_flags) v.push_back(f);
  v.push_back("--json");
  v.push_back("--journal");
  v.push_back(jdir);
  for (std::string& e : extra) v.push_back(std::move(e));
  return v;
}

// The journal files a run directory is expected to contain, primary
// (seal-bearing, tearable) file first.
std::vector<std::string> journal_files(const std::string& dir) {
  std::vector<std::string> files;
  if (fs::exists(dir + "/fleet.log")) {
    files.push_back("fleet.log");
    std::vector<std::string> chips;
    for (const auto& ent : fs::directory_iterator(dir)) {
      std::string name = ent.path().filename().string();
      if (name.rfind("chip-", 0) == 0 && name.size() > 9 &&
          name.substr(name.size() - 4) == ".log")
        chips.push_back(name);
    }
    std::sort(chips.begin(), chips.end());
    for (std::string& c : chips) files.push_back(std::move(c));
  } else {
    files.push_back("journal.log");
  }
  return files;
}

// Chops `n` bytes off the file's tail if it has at least two complete
// records (never tears into the header line). Returns true if torn.
bool tear_tail(const std::string& path, std::uint64_t n) {
  std::string text = slurp(path);
  std::size_t lines = 0;
  for (char c : text)
    if (c == '\n') ++lines;
  if (lines < 2 || text.size() <= n + 12) return false;
  std::error_code ec;
  fs::resize_file(path, text.size() - n, ec);
  return !ec;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parse_args(argc, argv);

  std::error_code ec;
  fs::remove_all(a.dir, ec);
  fs::create_directories(a.dir);
  std::string ref_dir = a.dir + "/ref";
  std::string run_dir = a.dir + "/run";
  std::string ref_stdout = a.dir + "/ref.stdout";
  std::string run_stdout = a.dir + "/run.stdout";

  // -- reference run ----------------------------------------------------------
  int status = run_child(serve_argv(a, ref_dir, {}), ref_stdout, true);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    die("reference run failed (status " + std::to_string(status) + ")");
  std::vector<std::string> files = journal_files(ref_dir);
  JournalScan ref = scan_journal(ref_dir + "/" + files[0]);
  if (!ref.error.empty()) die("reference journal: " + ref.error);
  std::string cons = check_conservation(ref);
  if (!cons.empty()) die("reference run: " + cons);
  const std::uint64_t total = counter(ref.seal, "i");
  if (total == 0) die("reference seal has no event count");
  std::string ref_report = slurp(ref_stdout);
  std::vector<std::string> ref_journals;
  for (const std::string& f : files) ref_journals.push_back(slurp(ref_dir + "/" + f));

  std::uint64_t points = a.points < total ? a.points : total;
  std::cout << "crash campaign: " << total << " events, " << points
            << " kill points, mode " << (ref.fleet ? "fleet" : "single")
            << "\n";

  // -- campaign ---------------------------------------------------------------
  std::uint64_t crash_bad = 0, recover_bad = 0, report_bad = 0;
  std::uint64_t journal_bad = 0, conserve_bad = 0, admit_bad = 0;
  std::uint64_t torn_points = 0;
  for (std::uint64_t p = 0; p < points; ++p) {
    // Stride sample: evenly spaced, always includes event 1, ends near
    // the final event; distinct by construction when points <= total.
    std::uint64_t k = 1 + (p * (total - 1)) / (points > 1 ? points - 1 : 1);
    fs::remove_all(run_dir, ec);

    // Counts one violation at this kill point; --verbose says why.
    const auto violated = [&](std::uint64_t& counter, const std::string& why) {
      ++counter;
      if (a.verbose) std::cout << "  k=" << k << " " << why << "\n";
    };
    int cs = run_child(
        serve_argv(a, run_dir, {"--kill-at-event", std::to_string(k)}),
        "", false);
    if (!WIFSIGNALED(cs) || WTERMSIG(cs) != SIGKILL) {
      violated(crash_bad, "crash run did not die by SIGKILL (status " +
                              std::to_string(cs) + ")");
      continue;
    }

    if (a.tear_every > 0 && (p + 1) % a.tear_every == 0) {
      if (tear_tail(run_dir + "/" + files[0], 7)) ++torn_points;
    }

    int rs = run_child(serve_argv(a, run_dir, {"--recover"}), run_stdout, false);
    if (!WIFEXITED(rs) || WEXITSTATUS(rs) != 0) {
      violated(recover_bad,
               "recover failed (status " + std::to_string(rs) + ")");
      continue;
    }

    if (slurp(run_stdout) != ref_report) {
      violated(report_bad, "recovered report differs");
    }
    bool jbad = false;
    for (std::size_t f = 0; f < files.size(); ++f) {
      if (slurp(run_dir + "/" + files[f]) != ref_journals[f]) jbad = true;
    }
    if (jbad) violated(journal_bad, "recovered journal differs");
    const JournalScan rec = scan_journal(run_dir + "/" + files[0]);
    const std::string err =
        rec.error.empty() ? check_conservation(rec) : rec.error;
    if (!err.empty()) violated(conserve_bad, err);
    const std::string admits =
        rec.error.empty() ? check_admits(rec.admits, ref.admits) : "";
    if (!admits.empty()) violated(admit_bad, admits);
  }

  std::uint64_t violations = crash_bad + recover_bad + report_bad +
                             journal_bad + conserve_bad + admit_bad;
  std::cout << "crash campaign: " << points << " points (" << torn_points
            << " torn), violations: crash " << crash_bad << ", recover "
            << recover_bad << ", report " << report_bad << ", journal "
            << journal_bad << ", conservation " << conserve_bad
            << ", admission " << admit_bad << "\n";
  if (violations != 0) {
    std::cout << "FAIL: " << violations << " violation(s)\n";
    return 1;
  }
  std::cout << "PASS: recovery byte-identical at every kill point\n";
  return 0;
}
