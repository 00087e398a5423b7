#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny job lists.

    python3 bench/smoke.py            (or: python3 -m pytest bench/smoke.py)

Runs `run.py --scale smoke` on every workload, untraced and traced, and
checks the result contract: every metric of BENCHMARK.json is present with
its unit, `fail_ratio` is 0, a corrupted digest counts as a failure, the
untraced process never had spans installed, and a directory without the
fences sources makes the benchmark exit non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=180,
    )


def _run(workload: str, trace: int, *extra: str, seed: int = 0) -> tuple[dict, dict]:
    proc = _bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--scale", "smoke", *extra,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = RESULTS / f"{workload}-smoke-seed{seed}-trace{trace}.json"
    return result, json.loads(path.read_text())


def _check_contract(result: dict, trace: int) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_untraced_runs() -> None:
    for workload in WORKLOADS:
        result, record = _run(workload, 0)
        _check_contract(result, 0)
        assert result["correct"] and result["failed"] == 0, record["passes"]
        assert record["metrics"]["fail_ratio"] == {"value": 0.0, "unit": "ratio"}
        assert record["checks"]["wrapped_attributes"] == 0
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_runs() -> None:
    for workload in WORKLOADS:
        result, record = _run(workload, 1)
        _check_contract(result, 1)
        assert result["correct"] and result["failed"] == 0, record["checks"]
        checks = record["checks"]
        assert checks["wrapped_attributes_installed"] > 0
        assert checks["wrapped_attributes_left"] == 0
        assert checks["members_match_count_ideals"] and checks["unattributed_ok"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["fail_ratio"] == 0
        self_times = sum(
            v for k, v in metrics.items()
            if k.endswith("_s") and not k.startswith("trace.")
        )
        assert abs(metrics["trace.wall_s"] - metrics["trace.unattributed_s"] - self_times) < 1e-6
        if workload == "toggles":
            idle = [k for k in metrics if k.startswith("tiling.")] + ["harness.profiles_s"]
            assert all(metrics[k] == 0 for k in idle), {k: metrics[k] for k in idle}
        else:
            assert metrics["toggles.base_graph_s"] == 0


def test_corrupted_digest_fails() -> None:
    result, record = _run("big-fence", 0, "--corrupt-digest")
    assert not result["correct"] and result["failed"] >= 1
    assert record["metrics"]["fail_ratio"]["value"] > 0


def test_other_seed_checks_repeats() -> None:
    result, _ = _run("toggles", 0, seed=7)
    assert result["correct"] and result["failed"] == 0


def test_bare_directory_fails() -> None:
    bare = RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench(
            "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
            cwd=bare,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok  {name}")
