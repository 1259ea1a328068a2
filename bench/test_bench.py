"""Tests of the benchmark harness, run through its smoke mode (n <= 5)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(*args: str, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args], cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    return proc.returncode, proc.stdout.strip().splitlines()


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_all_workloads_pass_their_checks():
    rc, lines = run_bench("--workload", "all", "--seed", "0", "--seconds", "0", "--trace", "0",
                          "--smoke")
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    names = {w["name"] for w in spec()["workloads"]}
    want = {f"{w}.{m['name']}" for w in names for m in spec()["end_to_end"]}
    assert set(result["metrics"]) == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for w in names:
        assert any(line.startswith(f"{w}: fail_ratio = 0 ") for line in lines)


def test_smoke_trace_reports_every_per_layer_metric():
    rc, lines = run_bench("--workload", "report-n7", "--seed", "1", "--seconds", "0",
                          "--trace", "1", "--smoke")
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"]
    per_layer = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.top_level_share"] >= 0.95
    assert metrics["cli.cache_hits"] == 2 and metrics["cli.cache_misses"] == 0
    # K = 32, M = 13, N = 31 at n = 5
    assert metrics["correlation.entries"] == 32 * 13 * 31
    assert metrics["correlation.tensor_bytes"] == 16 * 31 * 32 * 32

    spans_file = ROOT / ".bench_out" / "spans-report-n7-seed1-trace1-smoke-0.json"
    doc = json.loads(spans_file.read_text())
    spans = {s[0]: s for s in doc["spans"]}
    parents = {spans[s[1]][2] for s in doc["spans"]
               if s[2] == "diffsets.exp_sum_profile" and s[1] is not None}
    # correlation binds exp_sum_profile by name; its calls must still be seen
    assert parents == {"correlation.tolerances"}
    for sid, parent, name, start, end in doc["spans"]:
        assert end >= start
        if parent is not None:
            assert parent < sid and spans[parent][3] <= start and end <= spans[parent][4]


def _shift_per_shift_max(pins):
    pins["report-n7"]["singer"]["perShiftMax"][3] += 1e-6


def _shift_alpha_max(pins):
    pins["family-n10"]["alpha_max"] += 1e-6


# seed 3 picks another polynomial than the table entry the pin was made with
@pytest.mark.parametrize("workload, seed, perturb", [
    ("report-n7", "0", _shift_per_shift_max),
    ("family-n10", "3", _shift_alpha_max),
])
def test_wrong_output_fails_the_run(tmp_path, workload, seed, perturb):
    shutil.copytree(ROOT / "src" / "qcss", tmp_path / "src" / "qcss")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    pins_path = tmp_path / "bench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    perturb(pins["smoke"])
    pins_path.write_text(json.dumps(pins))
    rc, lines = run_bench("--workload", workload, "--seed", seed, "--seconds", "0",
                          "--trace", "0", "--smoke", root=tmp_path)
    result = json.loads(lines[-1])
    assert rc == 1 and not result["correct"] and result["failed"] == 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    rc, lines = run_bench("--workload", "sweep-lowm", "--seed", "0", "--seconds", "1",
                          "--trace", "0", root=tmp_path)
    assert rc != 0 and lines == []
