"""Smoke test of the benchmark itself, at a tiny fixed size.

Runs ``run.py --smoke`` on every workload declared in BENCHMARK.json,
untraced and traced, and fails unless

* every end-to-end (``--trace 0``) and per-layer (``--trace 1``) metric
  named in BENCHMARK.json is printed, with its declared unit and a finite
  value, and nothing else is;
* the correctness checks pass (``correct`` true, ``failed`` 0);
* a simulated cell's metrics digest repeats across two runs.

Usage::

    python3 perfbench/smoke_check.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload: str, trace: int) -> tuple[dict, dict]:
    """One smoke run; returns (result line, info line)."""
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(SEED),
            "--seconds", "3", "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next(line for line in lines if line.startswith("perfbench: info "))
    return json.loads(lines[-1]), json.loads(info[len("perfbench: info "):])


def check(result: dict, declared: list[dict], label: str) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(expected), (
        f"{label}: missing {sorted(set(expected) - set(got))}, "
        f"extra {sorted(set(got) - set(expected))}"
    )
    for name, entry in got.items():
        assert entry["unit"] == expected[name], (label, name, entry)
        assert isinstance(entry["value"], (int, float)), (label, name)
        assert math.isfinite(entry["value"]), (label, name, entry)
    assert result["correct"] is True, f"{label}: correctness checks failed"
    assert result["failed"] == 0 and result["attempted"] >= 1, (label, result)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        result, info = run(workload, 0)
        check(result, spec["end_to_end"], f"{workload} --trace 0")
        traced, traced_info = run(workload, 1)
        check(traced, spec["per_layer"], f"{workload} --trace 1")
        for cell, digest in traced_info.get("digests", {}).items():
            assert info["digests"][cell] == digest, (
                f"{workload}: {cell} digest differs between runs"
            )
        print(f"smoke ok: {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
