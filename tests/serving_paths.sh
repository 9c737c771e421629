#!/bin/sh
# Byte pin of the serving runtime's request paths: runs a fixed list of
# `cryptopim serve` commands and checks the sha256 of every output (the
# report JSON, the event log, and the journal of the --journal runs)
# against a committed manifest.
#
# Together the runs emit every lifecycle record the runtime writes:
# `rejected` for each reason the CLI can reach (queue_full,
# deadline_infeasible), `shed`, `timed_out`, `retry`, `hedge`,
# `cancelled`, `torn_down`, `corruption_detected`,
# `chip_corruption_detected`, `failed`, `protocol_op`, `join` and
# `proto_failed`. (`rejected` with reason `unservable` needs more failed
# banks than the chip has spares, which no CLI flag can inject; the
# TerminalPaths matrix in test_serving_paths.cc drives it instead.)
# Protocol runs carry no --deadline.
#
# usage: serving_paths.sh CLI MANIFEST [--write]
#   --write regenerates MANIFEST from this CLI's outputs.
set -eu

cli=$1
manifest=$2
out=serving_paths_out

rm -rf "$out"
mkdir "$out"
cd "$out"

serve() {
  name=$1
  shift
  "$cli" serve "$@" --events "$name.events.jsonl" --json > "$name.json" \
      2> /dev/null
}

# -- raw polymul --------------------------------------------------------------
serve raw_resilience --chaos --deadline 300 --arrival-rate 6000000 \
  --duration 400 --seed 5 --retries 1 --fail-bank-at 150
serve raw_overload --degrees 4096:1 --arrival-rate 8000000 --duration 300 \
  --queue-capacity 32 --codel-target 2 --seed 3
serve raw_timeout --wear-limit 50 --degrees 4096:1 --deadline 800 \
  --arrival-rate 6000000 --duration 300 --seed 3
serve raw_closed_loop --closed-loop 16 --chaos --duration 1500 --seed 4 \
  --retries 0
serve raw_edf --policy edf --arrival-rate 2000000 --duration 500 --seed 2

# -- protocol DAGs ------------------------------------------------------------
serve kem --protocol kem --chaos --retries 0 --arrival-rate 300000 \
  --queue-capacity 64 --codel-target 20 --duration 1500 --seed 7 \
  --verify-every 8 --fail-bank-at 400
serve bgv_mul --protocol bgv-mul --arrival-rate 200000 --duration 600 \
  --seed 5 --verify-every 16 --fail-bank-at 200
serve threshold --protocol threshold --shares 4 --chaos --retries 0 \
  --arrival-rate 200000 --duration 1500 --seed 3 --policy wfq \
  --verify-every 8

# -- fleet ----------------------------------------------------------------------
serve fleet_kill --fleet 4 --arrival-rate 300000 --duration 5000 --seed 1 \
  --fleet-chaos --kill-chip-at 400 --kill-chip 1
serve fleet_chaos --fleet 3 --fleet-chaos --chaos --retries 1 \
  --arrival-rate 200000 --duration 3000 --seed 1
serve fleet_kem_kill --protocol kem --fleet 3 --kill-chip-at 400 \
  --kill-chip 1 --duration 1200 --seed 5 --verify-every 16
serve fleet_threshold --protocol threshold --fleet 3 --fleet-chaos \
  --arrival-rate 100000 --duration 3000 --seed 4

# -- durability -----------------------------------------------------------------
serve journal_raw --chaos --deadline 300 --arrival-rate 600000 \
  --duration 800 --seed 6 --journal journal_raw --snapshot-every 100
serve journal_kem --protocol kem --chaos --retries 1 --arrival-rate 200000 \
  --duration 800 --seed 6 --journal journal_kem

if [ "${3:-}" = "--write" ]; then
  sha256sum ./*.json ./*.jsonl ./*/journal.log > "$manifest"
else
  sha256sum -c "$manifest"
fi
