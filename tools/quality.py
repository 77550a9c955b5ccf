"""Quality gate over seeds for the default config.

For each ``model.seed`` (default 0-4; ``schedule.seed`` stays 0) it runs
``make-data``, ``train``, ``assign`` and ``eval`` of the default config in
its own directory, at one BLAS thread, two seeds at a time.  Each seed's
child processes are pinned to one CPU of their own (``os.sched_setaffinity``),
so W (``cosep.workers.worker_count``) is 1 in them and two seeds never run
more compute threads than they have CPUs.  It
writes the per-seed, mean and range of sparsity, accuracy, SDR, SIR and
IoU (the network row of ``report.csv``), the channels used and the final
training loss to ``--out``.

With ``--parent`` (a QUALITY file of the parent change), the parent's seeds
are that file's ``change`` side, and one of two gates runs against their
range.  The no-gain rule: every mean of this run lies inside the parent's
seed range.  With ``--claim METRIC``, the gain rule: that metric's mean
lies above the parent's range, and no other mean lies below it.  It
prints each metric's verdict and exits 1 if the gate fails.
``--parent-rerun`` names a run of this script at the parent's source
(``--src``, ``--seeds 0``); its seed 0 is recorded beside the parent's.

    python3 tools/quality.py --out QUALITY_new.json --parent QUALITY_old.json \\
        --parent-rerun parent_seed0.json [--claim IoU]
    python3 tools/quality.py --src ../parent/src --seeds 0 --out parent_seed0.json

A seed takes about three minutes on one core; two run side by side, one
per core of a 2-core machine.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import queue
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("sparsity", "accuracy", "SDR", "SIR", "IoU")
COMMANDS = ("make-data", "train", "assign", "eval")
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
JOBS = 2   # seeds run side by side

# distinct argmax(v) channels over the test frames, printed by a child
# that imports cosep from the source tree under test
CHANNELS_USED = """
import numpy as np
from pathlib import Path
from cosep import avnets, toyworld
bundle, _ = avnets.ModelBundle.load(Path("artifacts/checkpoint_final.ckpt"))
dataset, _ = toyworld.Dataset.load(Path("data/manifest.json"))
frames = np.stack([clip.frame for clip in toyworld.load_split(dataset, "test")])
_, v = avnets.infer_images(frames, bundle)
print(len(np.unique(v.argmax(axis=1))))
"""


def seed_cpus() -> list[int]:
    """A CPU of this process for each of the ``JOBS`` side-by-side seeds,
    distinct while there are enough CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    return [cpus[k % len(cpus)] for k in range(JOBS)]


def run_pinned(argv: list, cpu: int, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run(argv, check=True, **kwargs)`` with the child
    pinned to ``cpu`` before it starts.  The pin is one C call in the
    forked child, so no Python code runs between fork and exec."""
    return subprocess.run(argv, preexec_fn=functools.partial(os.sched_setaffinity, 0, {cpu}),
                          check=True, **kwargs)


def run_seed(seed: int, work: Path, src: Path, cpu: int) -> dict:
    """The metrics of one default-config run with ``model.seed`` = ``seed``,
    every command pinned to ``cpu``."""
    run_dir = work / f"seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "cosep.json").write_text(json.dumps({"model": {"seed": seed}}) + "\n")
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(src)}
    for command in COMMANDS:
        with open(run_dir / f"{command}.log", "w") as log:
            run_pinned([sys.executable, "-m", "cosep.cli", command, "-c", "cosep.json"], cpu,
                       cwd=run_dir, env=env, stdout=log, stderr=subprocess.STDOUT)
    with open(run_dir / "artifacts" / "report.csv") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    network = dict(zip(rows[0], rows[1]))
    with open(run_dir / "artifacts" / "train_log.csv") as fh:
        final_loss = float(list(csv.DictReader(fh))[-1]["loss"])
    used = run_pinned([sys.executable, "-c", CHANNELS_USED], cpu, cwd=run_dir, env=env,
                      capture_output=True, text=True).stdout
    return {**{m: float(network[m]) for m in METRICS}, "channels_used": int(used),
            "final_loss": final_loss}


def run_side_by_side(seeds: list[int], work: Path, src: Path) -> list[dict]:
    """``run_seed`` for each seed, in order, ``JOBS`` at a time; a running
    seed holds one CPU of ``seed_cpus()`` that no other running seed has."""
    free = queue.SimpleQueue()
    for cpu in seed_cpus():
        free.put(cpu)

    def run(seed):
        cpu = free.get()
        try:
            return run_seed(seed, work, src, cpu)
        finally:
            free.put(cpu)

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(run, seeds))


def summarize(seeds: dict) -> dict:
    keys = METRICS + ("channels_used",)
    return {
        "seeds": seeds,
        "mean": {k: round(sum(s[k] for s in seeds.values()) / len(seeds), 7) for k in keys},
        "range": {k: [min(s[k] for s in seeds.values()), max(s[k] for s in seeds.values())] for k in keys},
    }


def gate(change: dict, parent: dict, claim: str | None = None) -> dict:
    """Each change mean against the parent's seed range: the no-gain rule
    (inside it), or, for a ``claim``ed metric, the gain rule (the claimed
    mean above it, no other mean below it)."""
    result = {}
    for m in METRICS:
        lo, hi = parent["range"][m]
        mean = change["mean"][m]
        if claim is None:
            verdict, passes = ("inside", True) if lo <= mean <= hi else ("OUTSIDE", False)
        elif m == claim:
            verdict, passes = ("above", True) if mean > hi else ("NOT ABOVE", False)
        else:
            verdict, passes = ("not below", True) if mean >= lo else ("BELOW", False)
        result[m] = {"change_mean": mean, "parent_range": [lo, hi], "verdict": verdict, "passes": passes}
    return result


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="QUALITY JSON to write")
    p.add_argument("--parent", help="the parent's QUALITY JSON; its change side is the parent")
    p.add_argument("--claim", choices=METRICS, help="the metric a gain is claimed on (gain rule)")
    p.add_argument("--parent-rerun", help="this script's JSON from a seed-0 run at the parent's source")
    p.add_argument("--seeds", default="0-4", help="model seeds, 'a-b' or one seed (default 0-4)")
    p.add_argument("--src", default=str(ROOT / "src"), help="source tree holding the cosep package")
    p.add_argument("--work", default=str(ROOT / ".quality_work"), help="directory of the runs")
    args = p.parse_args(argv)
    if args.claim and not args.parent:
        p.error("--claim needs --parent")

    seeds = parse_seeds(args.seeds)
    work, src = Path(args.work).resolve(), Path(args.src).resolve()
    results = run_side_by_side(seeds, work, src)
    change = summarize({str(s): r for s, r in zip(seeds, results)})
    doc = {
        "protocol": f"default config (toy-E schedule, dataset seed 7), model.seed {args.seeds}, "
                    f"schedule.seed 0; one make-data, train, assign and eval per seed; "
                    f"OPENBLAS/OMP/MKL threads 1, {JOBS} seeds side by side, each pinned to one CPU",
    }
    if args.parent:
        parent = json.loads(Path(args.parent).read_text())["change"]
        doc["gate"] = (f"gain rule on {args.claim}: its change mean lies above the parent's seed range, "
                       f"and no other change mean lies below it" if args.claim else
                       "no-gain rule: every change mean lies inside the parent's seed range")
        doc["parent_source"] = f"the change side of {Path(args.parent).name}"
        if args.parent_rerun:
            rerun = json.loads(Path(args.parent_rerun).read_text())["change"]["seeds"]["0"]
            doc["parent_seed0_rerun"] = rerun
            doc["parent_seed0_reproduced"] = rerun == parent["seeds"]["0"]
        doc["parent"] = parent
    doc["change"] = change
    if args.parent:
        doc["gate_result"] = gate(change, parent, args.claim)
        doc["passes"] = all(r["passes"] for r in doc["gate_result"].values())
    doc["definitions"] = {"channels_used": "distinct argmax(v) channels over the test frames",
                          "final_loss": "last loss of train_log.csv"}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")

    for s, r in change["seeds"].items():
        print(f"seed {s}: " + "  ".join(f"{k} {v}" for k, v in r.items()))
    for m in METRICS:
        line = f"{m:9s} mean {change['mean'][m]:.6f}"
        if args.parent:
            r = doc["gate_result"][m]
            lo, hi = r["parent_range"]
            line += f"  parent range {lo:.6f}..{hi:.6f}  {r['verdict']}"
        print(line)
    return 0 if doc.get("passes", True) else 1


if __name__ == "__main__":
    sys.exit(main())
