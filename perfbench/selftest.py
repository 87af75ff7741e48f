"""Smoke-size self-test of the benchmark.

Runs every workload tiny (``--smoke``), untraced and traced, and asserts
that each run

* prints every metric ``BENCHMARK.json`` names, with its unit;
* passes its output checks (``correct`` is true, nothing failed);
* in the traced run, answered identically through the tracing proxies.

Usage::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise AssertionError(
            f"{workload} trace={trace} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        1: {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    for workload in (w["name"] for w in manifest["workloads"]):
        for trace in (0, 1):
            record, result = run_once(workload, trace)
            label = f"{workload} trace={trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] is True, (label, record["problems"])
            assert result["failed"] == 0 and result["attempted"] >= 1, label
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], (label, units)
            assert all(
                isinstance(m["value"], float) for m in result["metrics"].values()
            ), label
            assert all(record["checks"].values()), (label, record["checks"])
            if trace:
                assert record["checks"]["trace_identical"] is True, label
            for fact in ("cores", "python", "numpy", "scipy", "loadavg_1m"):
                assert fact in record["host"], (label, fact)
            assert record["seed"] == 5, label
            print(f"ok  {label}  ({result['attempted']} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
