"""Benchmark of the upqgrowth CLI on seeded workloads, with output checks.

    python3 perfbench/run.py --workload shapes|density|sweeps --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. The load is a closed loop from one
caller: one worker process at a time runs one pass over the workload's
commands (workloads.py) through upqgrowth.cli.run and exits, and passes
repeat until S seconds of passes have run, at least MIN_PASSES times.
After each pass every command's output is checked against brute force
(checks.py) in this process, outside the measured one.

Times are scaled to a reference CPU speed (speed.py), and a command's time
is its median over the passes. With --trace 0 the last line of stdout is a
JSON object with the end-to-end metrics: ops_per_s, latency_p50_ms,
latency_p90_ms, setup_s and peak_rss_mb. With --trace 1 one untraced pass
is followed by traced passes (spans.py), and the metrics are the per-layer
calls, self_ms and distinct_ratio; the tracing overhead is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads
from workloads import ROOT

WORKER = ROOT / "perfbench" / "worker.py"
# workers that only import the CLI, so that setup_s is a median over several
PROBES = 10
# a command's time is its median over at least this many passes
MIN_PASSES = 3
# seconds that speed.probe() takes at the CPU speed all times are scaled to
CAL_REF = 3.0e-4
# no pass starts later than this many seconds into the run
DEADLINE = 120
# a worker still running after this many seconds is killed and the run fails
PASS_TIMEOUT = 150


def run_worker(commands, work_dir, tag: str, trace: bool = False) -> dict:
    """Run one worker to its end; add its set-up time and wall time."""
    job = work_dir / f"job-{tag}.json"
    result = work_dir / f"result-{tag}.json"
    job.write_text(
        json.dumps(
            {
                "commands": commands,
                "trace_path": str(work_dir / "spans.csv.gz") if trace else None,
            }
        )
    )
    env = dict(os.environ)
    env.pop("UPQGROWTH_SWEEP_CAP", None)
    started = time.monotonic()
    proc = subprocess.run(
        # -S: no site hooks, so setup_s is the interpreter plus upqgrowth
        [sys.executable, "-S", str(WORKER), str(job), str(result)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT,
    )
    wall = time.monotonic() - started
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(result.read_text())
    report["setup_s"] = (report["ready"] - started) * CAL_REF / report["setup_cal"]
    report["wall_s"] = wall
    return report


class Checker:
    """Checks each distinct (command, output) once and keeps every problem."""

    def __init__(self, cmds):
        self.cmds = cmds
        self.done = {}
        self.problems = []
        self.failures = []

    def add_pass(self, results) -> None:
        for cmd, res in zip(self.cmds, results):
            if res["error"] is not None:
                self.failures.append(f"{' '.join(cmd['argv'])}: {res['error']}")
                continue
            key = (tuple(cmd["argv"]), res["code"], res["stdout"])
            if key not in self.done:
                self.done[key] = checks.check(cmd, res)
                self.problems += [f"{' '.join(cmd['argv'])}: {p}" for p in self.done[key]]


def run_passes(cmds, work_dir, seconds, checker, min_passes=1, trace=False) -> list:
    """Whole passes until `seconds` of pass wall time have run, and min_passes."""
    argvs = [c["argv"] for c in cmds]
    reports, measured, begun = [], 0.0, time.monotonic()
    while len(reports) < min_passes or (
        measured < seconds and time.monotonic() - begun + reports[-1]["wall_s"] < DEADLINE
    ):
        report = run_worker(argvs, work_dir, f"{len(reports)}", trace)
        measured += report["wall_s"]
        checker.add_pass(report["results"])
        reports.append(report)
    return reports


def scaled(result) -> float:
    """A command's wall time at the reference CPU speed."""
    return result["seconds"] * CAL_REF / result["cal"]


def command_times(reports) -> list:
    """Each command's median scaled time over the passes; failed commands left out."""
    per_cmd = zip(*(rep["results"] for rep in reports))
    return [
        statistics.median(scaled(r) for r in runs)
        for runs in per_cmd
        if all(r["error"] is None for r in runs)
    ]


def ops_per_s(times) -> float:
    return len(times) / sum(times)


def end_to_end(reports, setups) -> dict:
    times = command_times(reports)
    return {
        "ops_per_s": (ops_per_s(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(times, n=10, method="inclusive")[-1] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_kb"] for rep in reports) / 1024, "MB"),
    }


def scaled_self_s(report) -> list:
    """Each traced function's self time over a pass, at the reference CPU speed."""
    per_cmd = zip(report["trace"]["self_s_by_command"], report["results"])
    return [sum(col) for col in zip(*([s * CAL_REF / r["cal"] for s in row] for row, r in per_cmd))]


def per_layer(reports) -> dict:
    first = reports[0]["trace"]
    self_s = [scaled_self_s(rep) for rep in reports]
    out = {}
    for i, name in enumerate(spans.NAMES):
        calls = first["calls"][name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_ms"] = (statistics.median(s[i] for s in self_s) * 1e3, "ms")
        if name in spans.DISTINCT:
            ratio = first["distinct"][name] / calls if calls else 1.0
            out[f"{name}.distinct_ratio"] = (ratio, "ratio")
    return out


def class_table(cmds, reports) -> dict:
    """Per command class: count per pass, median scaled ms, scaled seconds per pass."""
    by_cls = {}
    for rep in reports:
        for cmd, res in zip(cmds, rep["results"]):
            if res["error"] is None:
                by_cls.setdefault(cmd["cls"], []).append(scaled(res))
    return {
        cls: {
            "count": len(ts) // len(reports),
            "median_ms": round(statistics.median(ts) * 1e3, 2),
            "s_per_pass": round(sum(ts) / len(reports), 3),
        }
        for cls, ts in sorted(by_cls.items())
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "upqgrowth" / "cli.py").is_file():
        print(f"no upqgrowth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cmds, work_dir = workloads.generate(args.workload, args.seed)
    checker = Checker(cmds)
    setups = []
    if args.trace:
        base = run_passes(cmds, work_dir, 0, checker)
        traced = run_passes(cmds, work_dir, args.seconds, checker, trace=True)
        metrics = per_layer(traced)
        overhead = ops_per_s(command_times(base)) / ops_per_s(command_times(traced))
        reports = base + traced
        extra = {"trace_overhead": overhead, "spans": traced[0]["trace"]["spans"]}
    else:
        setups = [run_worker([], work_dir, f"probe{i}")["setup_s"] for i in range(PROBES)]
        reports = run_passes(cmds, work_dir, args.seconds, checker, MIN_PASSES)
        setups += [rep["setup_s"] for rep in reports]
        metrics = end_to_end(reports, setups)
        extra = {"classes": class_table(cmds, reports)}

    attempted = sum(len(rep["results"]) for rep in reports)
    summary = {
        "correct": not checker.problems,
        "attempted": attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work_dir.parent / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(summary, passes=len(reports), **extra,
                        problems=checker.problems, failures=checker.failures,
                        setups=setups,
                        times=[[r["seconds"] for r in rep["results"]] for rep in reports],
                        cals=[[r["cal"] for r in rep["results"]] for rep in reports]),
                   indent=1)
    )
    print(f"{args.workload} seed {args.seed}: {len(reports)} passes, "
          f"{attempted} commands attempted, {len(checker.failures)} failed")
    for line in (checker.failures + checker.problems)[:20]:
        print(f"  {line}")
    for key, value in extra.items():
        print(f"{key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
