"""The traced run's work counts repeat exactly across runs and across seeds,
and its guard catches a binding left unwrapped.

    python3 -m pytest bench/test_counts.py -q

Each traced run also checks that every pass inside it gives the same counts.
Later changes may therefore cite these counts as counts.  The tests take
about two minutes: three short traced runs per workload.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
EXACT_UNITS = ("count",)


def traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in EXACT_UNITS or name.endswith(".hit_ratio")}


@pytest.mark.parametrize("workload", ["suite", "analyze", "fusion-large"])
def test_counts_repeat_across_runs_and_seeds(workload):
    first = traced_counts(workload, 1)
    assert first["groups.closure_indices.calls"] > 0
    assert traced_counts(workload, 1) == first
    assert traced_counts(workload, 2) == first


def test_guard_reports_a_binding_left_unwrapped():
    sys.path[:0] = [SRC, BENCH]
    import fusionsys.verify
    import tracer

    t = tracer.Tracer()
    t.install()
    assert t.guard() == []
    verify = fusionsys.verify
    verify.classify_group = verify.classify_group.__wrapped__
    assert t.guard() == ["fusionsys.verify.classify_group"]
