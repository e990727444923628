#!/usr/bin/env python3
"""Benchmark of the HolDCSim-RS simulator: one workload, one seed.

    python3 perfbench/run.py --workload farm --seed 1 --seconds 10 --trace 0

Run from the root of the repository. Builds the `perfbench` package in
this directory (release profile, into $CARGO_TARGET_DIR or `.bench_build`),
runs the workload, checks every run's report and prints the metrics, one
per line with its unit, then one JSON object as the last line:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

`--trace 0` gives the end-to-end metrics (host time of a run, set-up time,
peak memory, and the simulated p95 latency and energy); `--trace 1` a
separate traced invocation giving the per-layer metrics. A run fails if it
panics, passes its time cap, breaks a report invariant or the steadiness
guard, or its report digest differs from the one pinned in `digests.json`
for that workload and seed (for an unpinned seed: from the invocation's
first report). The exit code is 0 only when every run passed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Host seconds of one pass of the speed probe (src/calib.rs) on the
# reference host; timings are reported scaled to that speed.
NOMINAL_PROBE_S = 0.080

# Host-second caps on each child process, inside the 180 s a run may take.
BUILD_TIMEOUT_S = 900
RSS_TIMEOUT_S = 60
TIMED_SLACK_S = 90
TRACED_SLACK_S = 120


class Failure(Exception):
    """The benchmark could not run at all: no result line is printed."""


def build():
    """Builds the benchmark binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Failure(f"build failed: {e}") from e
    if done.returncode != 0:
        raise Failure(f"build failed with exit code {done.returncode}")
    return target.resolve() / "release" / "perfbench"


def child(binary, args, timeout):
    """Runs the benchmark binary; its last stdout line parsed, or None if
    it timed out or printed nothing usable."""
    try:
        done = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def digest(report_json):
    return hashlib.sha256(report_json.encode()).hexdigest()


def pinned_digests(workload, seed):
    """The pinned report digest of each replication, by index."""
    pins = json.loads((BENCH / "digests.json").read_text())
    return dict(enumerate(pins["digests"].get(workload, {}).get(str(seed), [])))


class Checks:
    """Attempted and failed runs across the child processes."""

    def __init__(self, workload, seed):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.expected = pinned_digests(workload, seed)

    def lost(self, what):
        """A child that timed out or crashed: one failed run."""
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{what}: no result (crashed or over its time cap)")

    def add(self, what, result):
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += [f"{what}: {f}" for f in result["failures"]]
        for report in result["reports"]:
            k, d = report["replication"], digest(report["json"])
            expected = self.expected.setdefault(k, d)
            if d != expected:
                self.failed += report["runs"]
                self.failures.append(
                    f"{what}: replication {k} report digest {d[:16]} != "
                    f"expected {expected[:16]} ({report['runs']} runs)")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def scaled(seconds, probe_before, probe_after):
    """`seconds` scaled to the reference host's speed by the probe passes
    timed just before and after."""
    return seconds * NOMINAL_PROBE_S / ((probe_before + probe_after) / 2)


def end_to_end(binary, args, checks):
    """Runs the untraced invocation; returns [(name, value, note)]."""
    w, seed, seconds = args.workload, str(args.seed), str(args.seconds)
    rss = child(binary, ["rss", w, seed], RSS_TIMEOUT_S)
    if rss is None:
        checks.lost("peak-memory run")
    timed = child(binary, ["timed", w, seed, seconds], args.seconds + TIMED_SLACK_S)
    if timed is None:
        checks.lost("timed runs")
        return []
    checks.add("timed runs", timed)
    if rss is not None:
        checks.add("peak-memory run", rss)
    rows = []
    raw, probe = timed["run_s"], timed["probe_s"]
    runs = [scaled(r, probe[i], probe[i + 1]) for i, r in enumerate(raw)]
    q1, med, q3 = quartiles(runs)
    rows.append(("run_s", med,
                 f"median of {len(runs)} runs, quartiles {q1:.4f}-{q3:.4f}; "
                 f"unscaled median {statistics.median(raw):.4f}"))
    setup = [scaled(t, p, p) for t, p in zip(timed["setup_s"], timed["setup_probe_s"])]
    q1, med, q3 = quartiles(setup)
    rows.append(("setup_s", med,
                 f"median of {len(setup)} constructions, quartiles {q1:.6f}-{q3:.6f}"))
    if rss is not None and rss["vm_hwm_kib"] is not None:
        rows.append(("peak_rss_mib", rss["vm_hwm_kib"] / 1024,
                     "VmHWM of a process that ran one run"))
    p95, energy = timed["sim_p95_ms"], timed["sim_energy_kj"]
    rows.append(("sim_p95_ms", statistics.fmean(p95),
                 f"mean over {len(p95)} replications of the simulated job-latency p95"))
    rows.append(("sim_energy_kj", statistics.fmean(energy),
                 f"mean over {len(energy)} replications of the simulated energy"))
    return rows


def per_layer(binary, args, checks):
    """Runs the traced invocation; returns [(name, value, note)]."""
    w, seed, seconds = args.workload, str(args.seed), str(args.seconds)
    traced = child(binary, ["traced", w, seed, seconds], args.seconds + TRACED_SLACK_S)
    if traced is None:
        checks.lost("traced runs")
        return []
    checks.add("traced runs", traced)
    print(f"{'event kind':<18} {'count':>10} {'host ns/event':>14} {'share of wall':>14}")
    for k in sorted(traced["kinds"], key=lambda k: -(k["share"] or 0)):
        share = 100 * (k["share"] or 0)
        print(f"{k['kind']:<18} {k['count']:>10.0f} {k['ns']:>14.1f} {share:>13.1f}%")
    return [(name, value, "") for name, value in traced["metrics"].items()]


def spec():
    """BENCHMARK.json: the workloads and the metrics each mode reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workloads():
    return [w["name"] for w in spec()["workloads"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads())
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        declared = [(m["name"], m["unit"])
                    for m in spec()["per_layer" if args.trace else "end_to_end"]]
        binary = build()
        checks = Checks(args.workload, args.seed)
        rows = (per_layer if args.trace else end_to_end)(binary, args, checks)
    except (Failure, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    measured = {name: (value, note) for name, value, note in rows}
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    metrics = {}
    for name, unit in declared:
        value, note = measured.get(name, (None, ""))
        if value is None:
            checks.failures.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<32} {value:>16.6g} {unit:<6} {note}")
    fail_rate = checks.failed / max(checks.attempted, 1)
    print(f"  {'fail_rate':<32} {fail_rate:>16.6g} {'ratio':<6} "
          f"{checks.failed} failed of {checks.attempted} runs")
    for f in checks.failures:
        print(f"  FAILED {f}")
    correct = checks.failed == 0 and not checks.failures
    result = {
        "correct": correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
