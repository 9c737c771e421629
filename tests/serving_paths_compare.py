#!/usr/bin/env python3
"""Byte evidence for counting a torn-down protocol request's ops once.

Runs tests/serving_paths.sh with an old and a new `cryptopim` CLI (each
with its own json_check) and compares every output pair:

  * identical files are counted;
  * a differing report may differ only in `ops_cancelled` values;
  * a differing event log may differ only in the `ops_cancelled` of its
    `proto_failed` records.

Journals must be byte-identical. Anything else that differs fails the
comparison (exit 1).

usage: serving_paths_compare.py OLD_CLI OLD_JSON_CHECK NEW_CLI NEW_JSON_CHECK
                                WORKDIR
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MOVABLE = "ops_cancelled"


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


def without_cancelled(rec):
    return [kv for kv in rec if kv[0] != MOVABLE]


def compare_log(old, new):
    """(records moved, net change of their ops_cancelled), or None when
    the logs differ otherwise."""
    a, b = records(old), records(new)
    if len(a) != len(b):
        return None
    moved, delta = 0, 0
    for x, y in zip(a, b):
        if x == y:
            continue
        if dict(x).get("ev") != "proto_failed" or \
                without_cancelled(x) != without_cancelled(y):
            return None
        moved += 1
        delta += dict(y)[MOVABLE] - dict(x)[MOVABLE]
    return moved, delta


def diff_paths(a, b, path=""):
    """Paths of the leaves where two JSON documents differ."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [p for k in a for p in diff_paths(a[k], b[k], path + "/" + k)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in diff_paths(x, y, "%s/%d" % (path, i))]
    return [] if a == b else [path]


def compare_report(old, new):
    """(values moved, net change), or None when the reports differ
    otherwise."""
    with open(old) as f, open(new) as g:
        a, b = json.load(f), json.load(g)
    paths = diff_paths(a, b)
    if not all(p.endswith("/" + MOVABLE) for p in paths):
        return None
    delta = 0
    for p in paths:
        x, y = a, b
        for k in p.split("/")[1:]:
            x, y = (x[int(k)], y[int(k)]) if isinstance(x, list) else \
                (x[k], y[k])
        delta += y - x
    return len(paths), delta


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
            moved, what = compare_log(old, new), "proto_failed records"
        elif name.endswith(".json"):
            moved, what = compare_report(old, new), "ops_cancelled values"
        else:
            moved, what = None, ""
        if moved is None:
            ok = False
            print("DIFFERS OTHERWISE: %s" % name)
        else:
            print("moved: %s (%d %s, net %+d)" % (name, moved[0], what,
                                                   moved[1]))
    print("%d of %d outputs byte-identical" % (same, len(old_files)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
