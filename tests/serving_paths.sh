#!/bin/sh
# Byte pin of the serving runtime's request paths: runs a fixed list of
# `cryptopim serve` commands, validates every output with json_check (the
# report JSON as serving/3 or fleet/1, the event log as serve-events/2,
# and every journal of the --journal runs as journal/1: a single chip's
# journal.log, a fleet's fleet.log and chip-<i>.log), then checks the
# sha256 of each against a committed manifest. Validating first means a
# --write regeneration cannot pin an invalid document.
#
# Together the runs emit every lifecycle record the runtime writes:
# `rejected` for each reason the CLI can reach (queue_full,
# deadline_infeasible), `shed`, `timed_out`, `retry`, `hedge`,
# `cancelled`, `torn_down`, `corruption_detected`,
# `chip_corruption_detected`, `failed`, `join` and `proto_failed`, and
# the fleet's `fleet_retry` and `migrate`. (`rejected` with reason
# `unservable` needs more failed banks than the chip has spares, which
# no CLI flag can inject; the TerminalPaths matrix in
# test_serving_paths.cc drives it instead.)
# kem_wear_teardown is the protocol run with a --deadline: with a low
# wear limit and no retries, timed-out and failed ops tear their KEM
# requests down while sibling ops still run on lanes that wear has set
# draining. raw_bank_wear fails a bank while a low wear limit has set
# lanes draining, so the failure tears down a draining lane and re-forms
# it on a spare.
# kem_deep and threshold_deep keep deep DAG queues: over a thousand KEM
# ops and two hundred threshold ops wait at the peak, most of them on a
# parent still in flight, and queued timeouts strike ops that wait.
# kem_deep journals a snapshot every 200 events, so its snap CRCs cover
# the queue depth with waiting ops counted in it.
#
# Every scheduling policy orders a queue here: fifo (the default), edf
# (raw_edf), sjf (raw_sjf) and wfq (raw_wfq, and over DAG ops in
# threshold). raw_sjf and raw_wfq keep requests of all three degree
# classes queued, so their outputs differ from the same run under fifo.
#
# usage: serving_paths.sh CLI JSON_CHECK MANIFEST [--write]
#   --write regenerates MANIFEST from this CLI's outputs.
set -eu

cli=$1
check=$2
manifest=$3
out=serving_paths_out

rm -rf "$out"
mkdir "$out"
cd "$out"

serve() {
  name=$1
  shift
  "$cli" serve "$@" --events "$name.events.jsonl" --json > "$name.json" \
      2> /dev/null
  case $name in
    fleet_*) "$check" --fleet "$name.json" > /dev/null ;;
    *) "$check" --serving "$name.json" > /dev/null ;;
  esac
  "$check" --events "$name.events.jsonl" > /dev/null
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
serve raw_sjf --policy sjf --arrival-rate 4000000 --duration 300 --seed 2
serve raw_wfq --policy wfq --arrival-rate 4000000 --duration 300 --seed 2
serve raw_bank_wear --degrees 4096:1 --arrival-rate 2000000 --duration 600 \
  --wear-limit 50 --fail-bank-at 400 --seed 1 --verify-every 0

# -- SLO accounting -------------------------------------------------------------
# raw_slo scores a chaos overload with errors and latency violations in
# most windows; raw_slo_evicted opens more windows than the series keeps,
# so the series evicts its oldest ones.
serve raw_slo --chaos --retries 0 --arrival-rate 4000000 --duration 400 \
  --seed 5 --queue-capacity 16 --slo 0.999:100
serve raw_slo_evicted --arrival-rate 2000000 --duration 3000 --seed 1 \
  --window-us 0.5 --queue-capacity 4 --slo 0.99:100

# -- protocol DAGs ------------------------------------------------------------
serve kem --protocol kem --chaos --retries 0 --arrival-rate 300000 \
  --queue-capacity 64 --codel-target 20 --duration 1500 --seed 7 \
  --verify-every 8 --fail-bank-at 400
serve bgv_mul --protocol bgv-mul --arrival-rate 200000 --duration 600 \
  --seed 5 --verify-every 16 --fail-bank-at 200
serve threshold --protocol threshold --shares 4 --chaos --retries 0 \
  --arrival-rate 200000 --duration 1500 --seed 3 --policy wfq \
  --verify-every 8
serve kem_wear_teardown --protocol kem --chaos --retries 0 \
  --arrival-rate 600000 --duration 1000 --seed 3 --wear-limit 100 \
  --deadline 300 --breaker 1
serve kem_deep --protocol kem --deadline 400 --chaos --retries 1 \
  --arrival-rate 1200000 --duration 600 --seed 2 --queue-capacity 4096 \
  --journal kem_deep --snapshot-every 200
serve threshold_deep --protocol threshold --shares 8 --policy edf \
  --deadline 250 --chaos --retries 1 --arrival-rate 2000000 --duration 400 \
  --seed 4 --queue-capacity 4096

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
serve fleet_journal --fleet 3 --fleet-chaos --chaos --retries 1 \
  --arrival-rate 200000 --duration 3000 --seed 1 --journal fleet_journal \
  --snapshot-every 500

"$check" --journal ./*/*.log > /dev/null

if [ "${4:-}" = "--write" ]; then
  sha256sum ./*.json ./*.jsonl ./*/*.log > "$manifest"
else
  sha256sum -c "$manifest"
fi
