#!/usr/bin/env python3
"""Pins the report digests the benchmark checks every run against.

    python3 perfbench/pin.py [--seeds 0-15]

Run from the root of the repository. For each workload and seed, runs each
replication once and records the SHA-256 of its report JSON in
`perfbench/digests.json`, keeping the file's reference and held-out
seeds. Re-pin only for a change that is meant to alter the simulated
model; a change that only makes the simulator faster must leave every
digest as it is.
"""

import argparse
import json
import sys

import run


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-15"))
    args = ap.parse_args()
    path = run.BENCH / "digests.json"
    pins = json.loads(path.read_text())
    binary = run.build()
    digests = {}
    for w in run.workloads():
        digests[w] = {}
        for seed in args.seeds:
            # Zero seconds: each replication runs exactly once.
            result = run.child(binary, ["timed", w, str(seed), "0"], run.TIMED_SLACK_S)
            if result is None or result["failed"]:
                print(f"{w} seed {seed}: run failed", file=sys.stderr)
                return 1
            reports = sorted(result["reports"], key=lambda r: r["replication"])
            digests[w][str(seed)] = [run.digest(r["json"]) for r in reports]
        print(f"{w}: pinned {len(digests[w])} seeds")
    pins["digests"] = digests
    path.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
