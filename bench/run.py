"""Benchmark of the qcss command line: family-n10, report-n7 and sweep-lowm.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is one workload or ``all``.  Each iteration is a fresh process
(bench/worker.py) that sets up, runs the workload once and checks its
outputs; iterations repeat until S seconds have passed (at least one).  With
``--trace 0`` the end-to-end metrics are the medians over iterations, and
``setup_s`` the median over SETUP_SAMPLES or more set-ups.  With
``--trace 1`` untraced and traced iterations alternate and the per-layer
metrics are the medians over traced ones; ``trace.overhead_s`` is traced
minus untraced median ``wall_s``.  ``--smoke`` runs the same harness and
checks at n <= 5 in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when no result
could be produced (for example without the package sources).  The full
record, with the environment, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COMPUTED, LAYERS, NAMED_FUNCTIONS
from worker import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170.0  # one workload's run must end well within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) for every per-layer metric."""
    out = {}
    for prefix in LAYERS + NAMED_FUNCTIONS:
        out[f"{prefix}.calls"] = ("count", "lower")
        out[f"{prefix}.s"] = ("s", "lower")
        out[f"{prefix}.self_s"] = ("s", "lower")
    for name, unit in COMPUTED.items():
        out[name] = (unit, "lower")
    out.update({
        "analysis.cells": ("count", "lower"),
        "cli.out_bytes": ("B", "lower"),
        "cli.cache_hits": ("count", "higher"),
        "cli.cache_misses": ("count", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "trace.wall_s": ("s", "lower"),
        "trace.top_level_share": ("ratio", "higher"),
        "trace.spans": ("count", "lower"),
    })
    return out


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, smoke: bool, deadline: float, *flags: str) -> dict:
    """Run one worker process to completion and return its JSON record."""
    env = dict(os.environ)
    env.pop("QCSS_CACHE_DIR", None)
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), *flags]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"{workload}: worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = ROOT / ".bench_out"
    tag = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    plain, traced, setups, longest = [], [], [], 0.0

    def probe_setup():
        setups.append(spawn(name, seed, smoke, deadline, "--setup-only")["setup_s"])

    # The machine's speed drifts while a run lasts, so half the set-up probes
    # run before the iterations and the rest after them.
    for _ in range(0 if trace else SETUP_SAMPLES // 2):
        probe_setup()
    start = time.monotonic()
    while True:
        began = time.monotonic()
        plain.append(spawn(name, seed, smoke, deadline))
        setups.append(plain[-1]["setup_s"])
        if trace:
            spans = out_dir / f"spans-{tag}-{len(traced)}.json"
            traced.append(spawn(name, seed, smoke, deadline, "--trace", "--spans", str(spans)))
        now = time.monotonic()
        longest = max(longest, now - began)
        if now - start >= seconds or now + longest > deadline:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        probe_setup()

    iterations = plain + traced
    if trace:
        metrics = {key: statistics.median(r["layers"].get(key, 0) for r in traced)
                   for key in per_layer_metrics() if key != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        units = {key: unit for key, (unit, _) in per_layer_metrics().items()}
    else:
        metrics = {"setup_s": statistics.median(setups)}
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = statistics.median(r[key] for r in plain)
        units = END_TO_END
    record = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "env": plain[0]["env"],
        "argv": plain[0]["argv"],
        "attempted": sum(r["attempted"] for r in iterations),
        "failed": sum(r["failed"] for r in iterations),
        "iterations": len(plain),
        "setup_samples": setups,
        "wall_s_samples": [r["wall_s"] for r in plain],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    name = record["workload"]
    print(f"{name}: argv {' '.join(record['argv'])}")
    print(f"{name}: env {json.dumps(record['env'], sort_keys=True)}")
    print(f"{name}: {record['iterations']} iteration(s), "
          f"{len(record['setup_samples'])} set-up sample(s)")
    for key, m in record["metrics"].items():
        print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    print(f"{name}: fail_ratio = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} checks)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs (n <= 5)")
    args = p.parse_args(argv)

    missing = [path for path in (ROOT / "src" / "qcss" / "__init__.py", BENCH / "pins.json")
               if not path.is_file()]
    if missing:
        print(f"error: {missing[0]} not found; run from a qcss checkout", file=sys.stderr)
        return 2
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        args.smoke))
            report(records[-1])
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{key}": m for r in records for key, m in r["metrics"].items()}
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
