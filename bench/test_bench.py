"""Self-checks of the benchmark.

    python3 -m pytest bench/test_bench.py

Runs each workload once untraced and once traced at the shortest run
length, about two minutes on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def test_benchmark_json_matches_the_benchmark():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]
    for m in doc["per_layer"]:   # quality numbers rise, times and counts fall
        assert m["better"] == ("higher" if m["unit"] in ("ratio", "dB") else "lower"), m


def bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    return last, json.loads((run.WORK / f"{workload}.json").read_text())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_covers_layers_and_reproduces_untraced(workload):
    untraced, untraced_doc = bench(workload, 0)
    traced, traced_doc = bench(workload, 1)
    assert set(untraced["metrics"]) == {m[0] for m in run.END_TO_END}
    assert set(traced["metrics"]) == {m[0] for m in run.PER_LAYER}

    # every span or count of a layer this workload exercises was recorded;
    # a rebinding the tracer missed would read zero here
    for name, unit, workloads in run.PER_LAYER:
        if workload in workloads and unit in ("s", "count"):
            assert traced["metrics"][name]["value"] > 0, name

    # tracing changes neither the artifacts nor the quality numbers
    assert traced_doc["traced"]["digests"] == untraced_doc["trials"][0]["digests"]
    for key, value in untraced_doc["quality"].items():
        assert traced_doc["quality"][key] == value, key
