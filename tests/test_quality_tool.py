"""``tools/quality.py``: the CPU split of side-by-side seeds, the seed
ranges and the gate on the committed QUALITY files."""

import importlib.util
import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("quality", ROOT / "tools" / "quality.py")
quality = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(quality)

AFFINITY_PROBE = """
import json, os
from cosep import workers
print(json.dumps([sorted(os.sched_getaffinity(0)), workers.worker_count(8)]))
"""


class TestCpuSplit:
    @pytest.mark.parametrize("cpus,expected", [
        ({0, 1}, [0, 1]),
        ({5, 2, 7}, [2, 5]),
        ({3}, [3, 3]),          # one CPU: both seeds share it
    ])
    def test_each_seed_gets_a_cpu_of_its_own(self, monkeypatch, cpus, expected):
        monkeypatch.setattr(quality.os, "sched_getaffinity", lambda pid: set(cpus))
        assert quality.JOBS == 2 and quality.seed_cpus() == expected

    def test_pinned_child_sees_one_cpu_and_one_worker(self):
        """A child started by ``run_pinned`` has one CPU, so with one BLAS
        thread its convolutions run on W = 1; this process keeps its CPUs."""
        cpus = sorted(os.sched_getaffinity(0))
        src = str(ROOT / "src")
        env = {**os.environ, **quality.BLAS_THREADS,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = quality.run_pinned([sys.executable, "-c", AFFINITY_PROBE], cpus[-1], env=env,
                                 capture_output=True, text=True, timeout=60).stdout
        assert json.loads(out) == [[cpus[-1]], 1]
        assert sorted(os.sched_getaffinity(0)) == cpus

    def test_running_seeds_never_share_a_cpu(self, monkeypatch, tmp_path):
        monkeypatch.setattr(quality, "seed_cpus", lambda: [4, 6])
        lock, running, seen = threading.Lock(), {}, []

        def fake_run_seed(seed, work, src, cpu):
            with lock:
                assert cpu not in running.values()
                running[seed] = cpu
                seen.append((seed, cpu))
            time.sleep(0.02 * (seed % 3))
            with lock:
                del running[seed]
            return {"seed": seed}

        monkeypatch.setattr(quality, "run_seed", fake_run_seed)
        results = quality.run_side_by_side(list(range(7)), tmp_path, tmp_path)
        assert results == [{"seed": s} for s in range(7)]
        assert sorted(s for s, _ in seen) == list(range(7))
        assert {cpu for _, cpu in seen} == {4, 6}


class TestParseSeeds:
    @pytest.mark.parametrize("text,seeds", [("0-4", [0, 1, 2, 3, 4]), ("3", [3]), ("5-6", [5, 6]), ("2-2", [2])])
    def test_ranges(self, text, seeds):
        assert quality.parse_seeds(text) == seeds

    def test_not_a_number(self):
        with pytest.raises(ValueError):
            quality.parse_seeds("a-b")


def quality_doc(n: int) -> dict:
    return json.loads((ROOT / f"QUALITY_{n}.json").read_text())


class TestGate:
    def test_gain_rule_reproduces_the_recorded_iou_claim(self):
        doc = quality_doc(20)
        result = quality.gate(doc["change"], doc["parent"], claim="IoU")
        assert result == doc["gate_result"]
        assert all(r["passes"] for r in result.values()) and doc["passes"]

    def test_gain_rule_rejects_a_mean_inside_the_parent_range(self):
        doc = quality_doc(20)
        result = quality.gate(doc["change"], doc["parent"], claim="SDR")
        assert result["SDR"]["verdict"] == "NOT ABOVE" and not result["SDR"]["passes"]

    @pytest.mark.parametrize("n", [17, 18, 19])
    def test_no_gain_rule_reproduces_the_recorded_verdicts(self, n):
        doc = quality_doc(n)
        result = quality.gate(doc["change"], doc["parent"])
        assert {m: r["passes"] for m, r in result.items()} == \
            {m: r["inside"] for m, r in doc["gate_result"].items()}
        assert all(r["verdict"] == "inside" for r in result.values())

    def test_no_gain_rule_flags_a_mean_outside(self):
        doc = quality_doc(20)
        result = quality.gate(doc["change"], doc["parent"])
        assert result["IoU"] == {"change_mean": doc["change"]["mean"]["IoU"],
                                 "parent_range": doc["parent"]["range"]["IoU"],
                                 "verdict": "OUTSIDE", "passes": False}
