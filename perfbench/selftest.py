"""Smoke-scale self-test of the benchmark itself.

Runs every workload with tiny inputs, untraced and traced, and checks
that each run exits 0, answers correctly and emits every metric named in
``BENCHMARK.json`` with its unit; then checks that a tree holding only
the benchmark (no ``src/repro``) exits non-zero without a result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _check_result(proc: subprocess.CompletedProcess, expected: list, what: str) -> None:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
        raise AssertionError(f"{what}: {result['correct']=} {result['attempted']=} {result['failed']=}")
    got = {name: (m["unit"], m["value"]) for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        raise AssertionError(f"{what}: metrics differ: {sorted(set(got) ^ set(want))}")
    for name, (unit, value) in got.items():
        if unit != want[name] or not math.isfinite(value):
            raise AssertionError(f"{what}: {name} = {value} {unit}, expected unit {want[name]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # usp-search is not in BENCHMARK.json but runs the same way.
    for workload in ["usp-search"] + [w["name"] for w in spec["workloads"]]:
        _check_result(_run(ROOT, workload, 0), spec["end_to_end"], f"{workload} --trace 0")
        print(f"ok  {workload} --trace 0")
    # The traced run covers every workload, whichever one it is given.
    _check_result(_run(ROOT, spec["workloads"][0]["name"], 1), spec["per_layer"], "--trace 1")
    print("ok  --trace 1")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError(f"benchmark without the program: exit {proc.returncode}\n{proc.stdout}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  no program -> non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
