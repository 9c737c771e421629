#!/usr/bin/env python3
"""Byte evidence for keying protocol records by their request.

Runs tests/serving_paths.sh with an old and a new `cryptopim` CLI (each
with its own json_check) and compares every output pair:

  * identical files are counted;
  * a differing event log must equal the old log once each op record
    (every record of a protocol run with a trace, apart from the
    request-level admitted/rejected/join/proto_failed and the fleet's
    migrate/fleet_retry) has trace t -> t >> 6, gains "op" = t & 63
    right after "trace" and loses "proto" -- and join/proto_failed lose
    "proto";
  * a differing journal must differ only in its admit lines, each the
    old payload without pid/oi/ocl/fg/pm (all 0) under a valid frame
    CRC.

Anything else that differs fails the comparison (exit 1).

usage: serving_paths_compare.py OLD_CLI OLD_JSON_CHECK NEW_CLI NEW_JSON_CHECK
                                WORKDIR
"""
import json
import os
import subprocess
import sys
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
REQUEST_EVENTS = {"admitted", "rejected", "join", "proto_failed", "migrate",
                  "fleet_retry"}
DAG_MEMBERS = ("pid", "oi", "ocl", "fg", "pm")


def run_pin(cli, check, workdir):
    os.makedirs(workdir, exist_ok=True)
    subprocess.run(["sh", os.path.join(HERE, "serving_paths.sh"), cli, check,
                    os.path.join(workdir, "manifest.sha256"), "--write"],
                   cwd=workdir, check=True, stdout=subprocess.DEVNULL)
    root = os.path.join(workdir, "serving_paths_out")
    files = []
    for d, _, names in os.walk(root):
        files += [os.path.relpath(os.path.join(d, n), root) for n in names]
    return root, sorted(files)


def records(path):
    with open(path) as f:
        return [json.loads(line, object_pairs_hook=list) for line in f]


def rekeyed(rec):
    """The old record as this change writes it."""
    fields = dict(rec)
    ev = fields.get("ev")
    out = []
    for key, value in rec:
        if key == "proto" or (key == "op" and ev not in REQUEST_EVENTS):
            continue
        if key == "trace" and ev not in REQUEST_EVENTS:
            out += [("trace", value >> 6), ("op", value & 63)]
        else:
            out.append((key, value))
    return out


def compare_log(old, new):
    """Number of op records moved, or None when the logs differ otherwise."""
    a, b = records(old), records(new)
    if len(a) != len(b) or a[0] != b[0]:
        return None
    moved = 0
    for x, y in zip(a[1:], b[1:]):
        want = rekeyed(x) if dict(x).get("trace") is not None else x
        if want != y:
            return None
        moved += dict(y).get("op") is not None
    return moved


def unframe(line):
    crc, payload = line.rstrip("\n").split(" ", 1)
    assert int(crc, 16) == zlib.crc32(payload.encode()), line
    return payload


def compare_journal(old, new):
    """Number of admit lines moved, or None when the journals differ
    otherwise."""
    with open(old) as f:
        a = f.readlines()
    with open(new) as f:
        b = f.readlines()
    if len(a) != len(b):
        return None
    moved = 0
    for x, y in zip(a, b):
        if x == y:
            continue
        px = json.loads(unframe(x), object_pairs_hook=list)
        py = json.loads(unframe(y), object_pairs_hook=list)
        if dict(px).get("t") != "admit" or any(
                dict(px).get(k) != 0 for k in DAG_MEMBERS):
            return None
        if [kv for kv in px if kv[0] not in DAG_MEMBERS] != py:
            return None
        moved += 1
    return moved


def main(argv):
    if len(argv) != 6:
        sys.exit(__doc__)
    old_cli, old_check, new_cli, new_check, work = argv[1:]
    old_root, old_files = run_pin(old_cli, old_check, os.path.join(work, "old"))
    new_root, new_files = run_pin(new_cli, new_check, os.path.join(work, "new"))
    if old_files != new_files:
        sys.exit("output sets differ: %s" %
                 sorted(set(old_files) ^ set(new_files)))
    same, ok = 0, True
    for name in old_files:
        old, new = os.path.join(old_root, name), os.path.join(new_root, name)
        with open(old, "rb") as f, open(new, "rb") as g:
            if f.read() == g.read():
                same += 1
                continue
        if name.endswith(".events.jsonl"):
            moved, what = compare_log(old, new), "op records rekeyed"
        elif name.endswith(".log"):
            moved, what = compare_journal(old, new), "admit lines"
        else:
            moved, what = None, ""
        if moved is None:
            ok = False
            print("DIFFERS OTHERWISE: %s" % name)
        else:
            print("moved: %s (%d %s)" % (name, moved, what))
    print("%d of %d outputs byte-identical" % (same, len(old_files)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
