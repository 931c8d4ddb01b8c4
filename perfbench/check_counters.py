"""The traced run's counters repeat exactly from run to run.

    python3 -m pytest perfbench/check_counters.py

The file name does not match ``test_*.py``, so the repository's own test run
does not collect it; it starts two short traced runs of every workload
(about two minutes in all).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def traced_counters(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {name: result["metrics"][name]["value"] for name in tracing.COUNTERS}


@pytest.mark.parametrize("workload", sorted(run.NOMINAL_PASS_S))
def test_counters_repeat_exactly(workload):
    first = traced_counters(workload, 3)
    second = traced_counters(workload, 3)
    assert first == second
    assert first["trace.spans"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NOMINAL_PASS_S)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.METRICS
