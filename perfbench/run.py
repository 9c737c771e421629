#!/usr/bin/env python3
"""Repository benchmark for the CryptoPIM serving stack.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/pimbench from the checkout (into .bench_build/perfbench),
then runs workload W, whose inputs come from seed N, for about S seconds:
one pimbench process per repetition, so every repetition pays the
process's cold set-up as a `cryptopim serve` run does.

--trace 0 repeats the untraced pass and reports the end-to-end metrics
(host_req_per_s and setup_s are the best repetition, peak_rss_mb the
median over the repetitions; simulated figures are exact and repeat for
a seed). --trace 1 alternates untraced and traced
passes and reports the per-layer metrics; the traced pass writes its
spans to .bench_build/perfbench-traces/.

Every pass is checked: verify failures, wrong-accepted results, join
mismatches, broken fate conservation, replayed products that differ from
the GsNttEngine oracle, and simulated counters that differ between passes
all make the run incorrect (exit code 1). The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and the metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
# Compiler and pass temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))
BINARY = os.path.join(BUILD, "pimbench")
WORKLOADS = ("verify-heavy", "overload", "fleet-64", "kem-durable")
SINGLE_CHIP = ("verify-heavy", "overload", "kem-durable")
MIN_REPS = 3
PASS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ beside perfbench/: run from the root of a CryptoPIM "
            "checkout")
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "pimbench",
                  "--parallel", "4"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=ENV, timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step {cmd[:2]} failed: {e}")
        if rc != 0:
            die(f"build step {' '.join(cmd[:2])} exited {rc}")


def run_pass(workload, seed, kind, trace_out=None):
    work = os.path.join(WORK, f"{os.getpid()}-{kind}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--pass",
           kind, "--work-dir", work]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        # On timeout subprocess.run kills the pass and waits for it.
        p = subprocess.run(cmd, capture_output=True, text=True, env=ENV,
                           timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{kind} pass of {workload} timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if p.returncode != 0:
        die(f"{kind} pass of {workload} exited {p.returncode}: "
            f"{p.stderr.strip()}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_same_sim(passes, journal, failures):
    """Simulated counters must repeat exactly across every pass."""
    first = passes[0]["sim"]
    for p in passes[1:]:
        if p["sim"] != first:
            diff = sorted(k for k in first if p["sim"].get(k) != first[k])
            failures.append(f"simulated counters differ between passes: {diff}")
            break
    if journal is not None:
        diff = sorted(k for k in first if journal["sim"].get(k) != first[k])
        if diff:
            failures.append(
                f"simulated counters differ in the journal pass: {diff}")


def end_to_end(timed, sim):
    # Host times are the best repetition: on a shared host the same pass
    # varies by +-30% between processes, and the fastest is the least
    # disturbed. Each repetition's set-up is its process's first, so cold.
    # Simulated figures are exact.
    return {
        "host_req_per_s": sim["completed"] / min(p["host"]["loop_s"]
                                                 for p in timed),
        "setup_s": min(p["host"]["setup_s"] for p in timed),
        "peak_rss_mb": median([p["host"]["peak_rss_mb"] for p in timed]),
        "sim_throughput_per_s": sim["throughput_per_s"],
        "sim_latency_p50_cycles": sim["latency_p50_cycles"],
        "sim_latency_p99_cycles": sim["latency_p99_cycles"],
        "sim_latency_p999_cycles": sim["latency_p999_cycles"],
        "goodput_frac": sim["goodput_frac"],
    }


def per_layer(workload, timed, traced, sim, names, failures):
    values = {}
    for name in names:
        got = [p["layers"][name] for p in traced if name in p["layers"]]
        # A layer the workload does not exercise reads 0 (README.md).
        values[name] = median(got) if got else 0
    values["sim.latency_samples"] = sim["latency_samples"]
    values["trace.overhead"] = (
        median([p["host"]["loop_s"] for p in traced])
        / median([p["host"]["loop_s"] for p in timed]))
    if workload in SINGLE_CHIP and values["trace.coverage"] < 0.95:
        failures.append(f"trace.coverage {values['trace.coverage']:.3f} "
                        "< 0.95")
    if workload == "verify-heavy" and values["verify.replay_share"] < 0.8:
        failures.append(f"verify.replay_share "
                        f"{values['verify.replay_share']:.3f} < 0.8")
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    os.makedirs(TRACES, exist_ok=True)
    trace_out = os.path.join(TRACES, f"{args.workload}.trace.json")
    start = time.monotonic()
    timed, traced = [], []
    while (len(timed) < MIN_REPS
           or time.monotonic() - start < args.seconds):
        timed.append(run_pass(args.workload, args.seed, "timed"))
        if args.trace:
            traced.append(run_pass(args.workload, args.seed, "traced",
                                   trace_out))
    # The fleet's exact latencies come from a pass with its journal on.
    journal = (run_pass(args.workload, args.seed, "journal")
               if args.workload == "fleet-64" else None)

    passes = timed + traced
    failures = [f for p in passes + ([journal] if journal else [])
                for f in p["failures"]]
    check_same_sim(passes, journal, failures)
    sim = dict(timed[0]["sim"])
    if journal is not None:
        sim.update(journal["sim"])

    if args.trace:
        values = per_layer(args.workload, timed, traced, sim, list(units),
                           failures)
    else:
        values = end_to_end(timed, sim)

    print(f"perfbench {args.workload} seed {args.seed}: "
          f"{len(timed)} untraced + {len(traced)} traced passes, "
          f"{sim['submitted']} requests each, "
          f"{sim['latency_samples']} latency samples")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:>18.6g} {unit}")
    for msg in failures:
        print(f"  FAILED: {msg}")

    result = {
        "correct": not failures,
        "attempted": sum(p["sim"]["submitted"] for p in passes),
        "failed": sum(p["sim"]["bad_results"] for p in passes),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
