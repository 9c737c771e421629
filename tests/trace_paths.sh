#!/bin/sh
# Byte pin of the Chrome traces `--trace=FILE` writes: runs a fixed list
# of `cryptopim` commands, validates each trace with `json_check --trace`,
# then checks the sha256 of each against a committed manifest.
#
# serve_chaos is the cli_serve_trace run: runtime lane tracks, request
# flow arrows, and the bank-failure and wear-remap spans. multiply_256
# traces one gate-level multiplication on the bank, softbank and
# pipeline tracks.
#
# usage: trace_paths.sh CLI JSON_CHECK MANIFEST [--write]
#   --write regenerates MANIFEST from this CLI's outputs.
set -eu

cli=$1
check=$2
manifest=$3
out=trace_paths_out

rm -rf "$out"
mkdir "$out"
cd "$out"

trace() {
  name=$1
  shift
  "$cli" "$@" --trace="$name.trace.json" > /dev/null 2>&1
  "$check" --trace "$name.trace.json" > /dev/null
}

trace serve_chaos serve --chaos --wear-limit 50 --fail-bank-at 150 \
  --arrival-rate 2000000 --duration 400 --seed 5
trace multiply_256 multiply --degree 256

if [ "${4:-}" = "--write" ]; then
  sha256sum ./*.trace.json > "$manifest"
else
  sha256sum -c "$manifest"
fi
