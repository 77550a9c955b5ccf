"""cosep benchmark: the CLI pipeline on three seeded workloads.

    python3 bench/run.py --workload {train,infer,nmf,all} --seed N --seconds S --trace {0,1}

Every workload runs the user pipeline ``make-data -> train -> assign ->
eval`` through the ``cosep`` CLI, each command in a fresh process.  The
workload fixes the sizes and which commands are timed (see README.md).
One trial is setup plus the timed commands in a freshly emptied
directory; trials repeat until ``--seconds`` have passed, and the
metrics are medians over trials.  Times are scaled to a fixed machine
speed, measured by timing ``reference()`` after every command.  Every
command's exit status, stderr and outputs are checked, and every trial
must reproduce the first trial's artifacts byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` adds one
trial whose timed commands run under ``tracer.py`` and reports the
per-layer metrics, the tracing overhead and the quality numbers; the
traced trial must reproduce the untraced artifacts byte for byte.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit and workload, and the environment.  The exit code
is 0 only when every check passed.  BLAS is pinned to one thread, since
the trained numbers depend on the thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK = ROOT / ".bench_work"

THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CATEGORIES = 8
CHANNELS = 16          # model.channels default
MIN_TRIALS = 2
DEADLINE_S = 170.0     # a run ends within 180 s
REF_REPS = 3
REF_NOMINAL_S = 0.1    # one reference() on an idle 2-core x86 VM
REPORT_COLUMNS = ["model", "sparsity", "accuracy", "SDR", "SIR", "IoU"]
DIGESTED = ("train_log.csv", "checkpoint_final.ckpt", "assignment.json", "report.csv")


@dataclass(frozen=True)
class Workload:
    why: str
    train: int
    val: int
    test: int
    epochs: tuple          # (sigmoid, softmax); the temperature halves once
    n_mixtures: int
    nmf: bool              # eval includes the NMF baseline
    setup: tuple           # commands before the timed ones
    timed: tuple


WORKLOADS = {
    "train": Workload(
        why="training steps: conv forward and backward, graph walk and Adam; no NMF, iSTFT or SDR",
        train=48, val=16, test=16, epochs=(2, 2), n_mixtures=16, nmf=False,
        setup=("make-data",), timed=("train",)),
    "infer": Workload(
        why="batch-1 no_grad inference: assignment, segmentation, separation, iSTFT and SDR; no backward, no NMF",
        train=16, val=160, test=160, epochs=(1, 1), n_mixtures=320, nmf=False,
        setup=("make-data", "train"), timed=("assign", "eval")),
    "nmf": Workload(
        why="NMF baseline: float64 multiplicative updates and KL history dominate; network work is small",
        train=24, val=16, test=24, epochs=(1, 1), n_mixtures=32, nmf=True,
        setup=("make-data", "train", "assign"), timed=("eval",)),
}

# name, unit, direction, bound: reported by --trace 0 on every workload
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("train_loss", "nats", "lower", 0.02),
)

CONV_BLOCKS = ("img.s0", "img.s1", "img.s2", "img.s3", "img.head", "aud.stem",
               "aud.d0", "aud.d1", "aud.d2", "aud.d3", "aud.u0", "aud.u1", "aud.u2", "aud.u3",
               "aud.head")
ELEMENTWISE = ("add", "mul", "relu", "sigmoid", "softmax_T", "reshape", "concat", "tsum")

ALL = ("train", "infer", "nmf")
TRAIN, INFER, NMF, EVAL = ("train",), ("infer",), ("nmf",), ("infer", "nmf")

# name, unit, workloads that exercise it (whose run_s it should move)
PER_LAYER = (
    ("tensor.conv2d.fwd_s", "s", ALL),
    ("tensor.conv2d.bwd_s", "s", TRAIN),
    *((f"tensor.conv2d.{b}.{d}_s", "s", ALL if d == "fwd" else TRAIN)
      for b in CONV_BLOCKS for d in ("fwd", "bwd")),
    ("tensor.elementwise.fwd_s", "s", ALL),
    ("tensor.elementwise.bwd_s", "s", TRAIN),
    ("tensor.upsample_bilinear.s", "s", ALL),
    ("tensor.spatial_max_pool.s", "s", ALL),
    ("tensor.bce_loss.s", "s", TRAIN),
    ("tensor.backward.self_s", "s", TRAIN),
    ("tensor.Adam.step_s", "s", TRAIN),
    ("tensor.graph_nodes_per_step", "count", TRAIN),
    ("avnets.image_forward.calls_per_step", "count", TRAIN),
    ("avnets.audio_forward.s", "s", ALL),
    ("avnets.synthesize_mask.s", "s", TRAIN),
    ("trainer.prepare_split.s", "s", TRAIN),
    ("trainer.mean_val_sparsity.s", "s", TRAIN),
    ("checkpoint.save_tensors.s", "s", ("train", "nmf")),
    ("checkpoint.save_tensors.calls", "count", ("train", "nmf")),
    ("disentangle.build_table.s", "s", INFER),
    ("disentangle.classification_accuracy.s", "s", EVAL),
    ("disentangle.assign.s", "s", INFER),
    ("avnets.image_passes_per_clip", "count", ALL),
    ("toyworld.load_clip.calls_per_clip", "count", ALL),
    ("avnets.segment.s", "s", EVAL),
    ("metrics.separate.s", "s", EVAL),
    ("dsp.stft.s", "s", ALL),
    ("dsp.istft.s", "s", EVAL),
    ("dsp.log_unwarp.s", "s", EVAL),
    ("metrics.sdr_sir.s", "s", EVAL),
    ("checkpoint.load_tensors.s", "s", EVAL),
    ("nmf.fit_category_bases.s", "s", NMF),
    ("nmf.nmf_fit.s", "s", NMF),
    ("nmf.nmf_separate.s", "s", NMF),
    ("nmf.kl_divergence.s", "s", NMF),
    ("nmf.kl_divergence.calls", "count", NMF),
    ("metrics.evaluate_nmf.s", "s", NMF),
    ("metrics.evaluate_network.s", "s", EVAL),
    *((f"{layer}.self_s", "s", {"trainer": TRAIN, "metrics": EVAL, "nmf": NMF}.get(layer, ALL))
      for layer in LAYERS),
    ("trace_overhead_pct", "%", ALL),
    # quality of the final artifacts; at benchmark scale they vary too much
    # between seeds to carry a bound (see README.md)
    ("val_sparsity", "ratio", ALL),
    ("iou", "ratio", ALL),
    ("sparsity", "ratio", ALL),
    ("accuracy", "ratio", ALL),
    ("sdr_db", "dB", ALL),
    ("sir_db", "dB", ALL),
    ("nmf_sdr_db", "dB", ALL),
    ("nmf_sir_db", "dB", ALL),
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


# ---------------------------------------------------------------------
# running CLI commands
# ---------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def config(w: Workload, seed: int, nmf: bool) -> dict:
    sig, soft = w.epochs
    return {
        "dataset": {"seed": seed, "categories": CATEGORIES, "train": w.train, "val": w.val,
                    "test": w.test, "dir": "data", "artifacts_dir": "artifacts"},
        "stft": {"preset": "toy"},
        "model": {"seed": seed},
        "schedule": {"preset": None, "sigmoid_epochs": sig, "softmax_epochs": soft,
                     "initial_T": 1.0, "decay_rate": 0.5, "decay_epochs": [soft],
                     "seed": seed, "batch_pairs": 8, "symmetric": True},
        "eval": {"pair_seed": seed, "n_mixtures": w.n_mixtures, "include_nmf": nmf},
    }


class Runner:
    """Runs CLI commands in one work directory and checks each one."""

    def __init__(self, w: Workload, seed: int, workdir: Path, deadline: float):
        self.w, self.seed, self.dir, self.deadline = w, seed, workdir, deadline
        self.env = child_env()
        self.attempted = 0
        self.failures: list = []
        self.n = 0
        self.refs: list = []   # reference_times() between commands

    def fresh(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "logs").mkdir(parents=True)
        for name, nmf in (("cosep.json", self.w.nmf), ("cosep_nmf.json", True)):
            (self.dir / name).write_text(json.dumps(config(self.w, self.seed, nmf), indent=1))

    def run(self, cmd: str, nmf: bool = False, spans: Path | None = None) -> tuple:
        """Run one command, with the NMF baseline in ``eval`` if ``nmf`` or
        the workload asks for it; returns (wall seconds, max RSS MB, ok)."""
        argv = [cmd, "-c", "cosep_nmf.json" if nmf else "cosep.json"]
        prog = [sys.executable, "-m", "cosep.cli"] if spans is None else [sys.executable, str(TRACER), str(spans)]
        self.n += 1
        self.attempted += 1
        out = self.dir / "logs" / f"{self.n:02d}-{cmd}"
        with open(f"{out}.out", "wb") as so, open(f"{out}.err", "wb") as se:
            start = perf_counter()
            proc = subprocess.Popen(prog + argv, cwd=self.dir, env=self.env, stdout=so, stderr=se)
            timer = threading.Timer(max(1.0, self.deadline - perf_counter()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err = Path(f"{out}.err").read_text(errors="replace")
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
        problems += [line for line in err.splitlines() if line.startswith("E_")]
        if not problems:
            problems = check_outputs(cmd, self.dir / "artifacts", self.w)
        if problems:
            self.failures.append(f"{cmd}: {'; '.join(problems)}")
            print(f"[{cmd} stderr]\n{err[-2000:]}", file=sys.stderr)
        return wall, usage.ru_maxrss / 1024.0, not problems

    def run_all(self, cmds, spans_dir: Path | None = None) -> tuple:
        """Run commands in order, timing ``reference()`` after each one;
        returns (wall seconds, max RSS MB, ok)."""
        if not self.refs:
            self.refs += reference_times()
        wall, rss = 0.0, 0.0
        for i, cmd in enumerate(cmds):
            spans = None if spans_dir is None else spans_dir / f"{i}-{cmd}.json"
            t, r, ok = self.run(cmd, spans=spans)
            self.refs += reference_times()
            wall += t
            rss = max(rss, r)
            if not ok:
                return wall, rss, False
        return wall, rss, True


# ---------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------

def reference() -> None:
    """Fixed work that no commit of cosep changes, in the mix the workloads
    run: float64 NMF-style updates on small matrices, float32 im2col copies
    and matmuls, and an interpreter loop."""
    import numpy as np
    rng = np.random.default_rng(0)
    v = rng.uniform(0.1, 1.0, (64, 200))
    w = rng.uniform(0.1, 1.0, (64, 16))
    h = rng.uniform(0.1, 1.0, (16, 200))
    for _ in range(400):
        h = h * (w.T @ (v / (w @ h + 1e-12))) / (w.T.sum(axis=1, keepdims=True) + 1e-12)
        float(np.sum(np.where(v > 0, v * np.log((v + 1e-12) / (w @ h + 1e-12)), 0.0)))
    x = rng.standard_normal((8, 16, 34, 34)).astype(np.float32)
    k = rng.standard_normal((16, 144)).astype(np.float32)
    for _ in range(20):
        cols = np.empty((16, 3, 3, 8, 32, 32), np.float32)
        for iy in range(3):
            for ix in range(3):
                cols[:, iy, ix] = x[:, :, iy:iy + 32, ix:ix + 32].transpose(1, 0, 2, 3)
        y = k @ cols.reshape(144, -1)
        k -= 1e-6 * (y @ cols.reshape(144, -1).T)
    acc = {}
    for i in range(60000):
        acc[i % 97] = acc.get(i % 97, 0) + i


def reference_times() -> list:
    """Seconds each of REF_REPS runs of ``reference()`` takes now."""
    times = []
    for _ in range(REF_REPS):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    return times


# ---------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------

def read_csv(path: Path) -> list:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines]


def check_outputs(cmd: str, art: Path, w: Workload) -> list:
    """Problems with the artifacts ``cmd`` writes; empty when all is well."""
    try:
        if cmd == "train":
            return check_train(art, w)
        if cmd == "assign":
            return check_assignment(art)
        if cmd == "eval":
            return check_report(art, w)
    except Exception as exc:  # a check that cannot read the outputs fails them
        return [f"{type(exc).__name__}: {exc}"]
    return []


def check_train(art: Path, w: Workload) -> list:
    rows = read_csv(art / "train_log.csv")
    problems = []
    if len(rows) - 1 != sum(w.epochs):
        problems.append(f"train_log.csv has {len(rows) - 1} rows, expected {sum(w.epochs)}")
    if not all(math.isfinite(float(r[rows[0].index("loss")])) for r in rows[1:]):
        problems.append("train_log.csv has a non-finite loss")
    from cosep.avnets import ModelBundle
    ModelBundle.load(art / "checkpoint_final.ckpt")
    return problems


def check_assignment(art: Path) -> list:
    doc = json.loads((art / "assignment.json").read_text())
    chans = doc["category_to_channel"]
    if len(chans) != CATEGORIES or len(doc["assignment"]) != CATEGORIES:
        return [f"assignment covers {len(chans)} of {CATEGORIES} categories"]
    if len(set(chans)) != len(chans) or not all(0 <= c < CHANNELS for c in chans):
        return [f"assignment is not an injective map into {CHANNELS} channels: {chans}"]
    return []


def report_rows(art: Path) -> dict:
    rows = read_csv(art / "report.csv")
    if rows[0] != REPORT_COLUMNS:
        raise ValueError(f"report.csv columns {rows[0]}")
    return {("nmf" if r[0] == "nmf" else "model"): dict(zip(REPORT_COLUMNS, r)) for r in rows[1:]}


def check_report(art: Path, w: Workload) -> list:
    rows = report_rows(art)
    problems = []
    model = rows.get("model")
    if model is None:
        return ["report.csv has no model row"]
    for col in ("accuracy", "IoU"):
        if not 0.0 <= float(model[col]) <= 1.0:
            problems.append(f"report.csv {col} {model[col]} outside [0, 1]")
    checked = [model] + ([rows["nmf"]] if "nmf" in rows else [])
    if w.nmf and "nmf" not in rows:
        problems.append("report.csv has no nmf row")
    for row in checked:
        for col in ("SDR", "SIR"):
            if not math.isfinite(float(row[col])):
                problems.append(f"report.csv {row['model']} {col} is not finite")
    return problems


def digests(art: Path) -> dict:
    return {name: hashlib.sha256((art / name).read_bytes()).hexdigest()
            for name in DIGESTED if (art / name).exists()}


def quality(art: Path) -> dict:
    out = {}
    log = read_csv(art / "train_log.csv")
    last = dict(zip(log[0], log[-1]))
    out["train_loss"] = float(last["loss"])
    out["val_sparsity"] = float(last["sparsity"])
    if (art / "report.csv").exists():
        rows = report_rows(art)
        m = rows["model"]
        out.update(iou=float(m["IoU"]), accuracy=float(m["accuracy"]), sparsity=float(m["sparsity"]),
                   sdr_db=float(m["SDR"]), sir_db=float(m["SIR"]))
        if "nmf" in rows:
            out.update(nmf_sdr_db=float(rows["nmf"]["SDR"]), nmf_sir_db=float(rows["nmf"]["SIR"]))
    return out


# ---------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------

def span_stats(traces: list) -> tuple:
    """(total seconds, self seconds, calls) by span name over the spans of
    several traced commands; self time excludes direct children."""
    total, self_s, calls = {}, {}, {}
    for doc in traces:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            total[name] = total.get(name, 0.0) + end - start
            self_s[name] = self_s.get(name, 0.0) + end - start - child[i]
            calls[name] = calls.get(name, 0) + 1
    return total, self_s, calls


def layer_metrics(traces: list, w: Workload) -> dict:
    total, self_s, calls = span_stats(traces)
    counts = {}
    for doc in traces:
        for k, v in doc["counts"].items():
            counts[k] = counts.get(k, 0) + v

    def t(name):
        return total.get(name, 0.0)

    def op(name):  # forward and backward of one autograd op
        return t(f"tensor.{name}") + t(f"tensor.{name}/bwd")

    steps = calls.get("tensor.backward", 0)
    eval_clips = w.val + w.test
    out = {
        "tensor.conv2d.fwd_s": sum((v for k, v in total.items()
                                    if k.startswith("tensor.conv2d/") and not k.endswith("/bwd")), 0.0),
        "tensor.conv2d.bwd_s": sum((v for k, v in total.items()
                                    if k.startswith("tensor.conv2d/") and k.endswith("/bwd")), 0.0),
    }
    for b in CONV_BLOCKS:
        out[f"tensor.conv2d.{b}.fwd_s"] = t(f"tensor.conv2d/{b}")
        out[f"tensor.conv2d.{b}.bwd_s"] = t(f"tensor.conv2d/{b}/bwd")
    out.update({
        "tensor.elementwise.fwd_s": sum(t(f"tensor.{e}") for e in ELEMENTWISE),
        "tensor.elementwise.bwd_s": sum(t(f"tensor.{e}/bwd") for e in ELEMENTWISE),
        "tensor.upsample_bilinear.s": op("upsample_bilinear"),
        "tensor.spatial_max_pool.s": op("spatial_max_pool"),
        "tensor.bce_loss.s": op("bce_loss"),
        "tensor.backward.self_s": self_s.get("tensor.backward", 0.0),
        "tensor.Adam.step_s": t("tensor.Adam.step"),
        "tensor.graph_nodes_per_step": counts["graph_nodes"] / steps if steps else 0.0,
        "avnets.image_forward.calls_per_step": counts["image_forward_graph"] / steps if steps else 0.0,
        "avnets.image_passes_per_clip": counts["image_frames_nograd"] / eval_clips,
        "toyworld.load_clip.calls_per_clip": calls.get("toyworld.load_clip", 0) / eval_clips,
        "checkpoint.save_tensors.calls": calls.get("checkpoint.save_tensors", 0),
        "nmf.kl_divergence.calls": calls.get("nmf.kl_divergence", 0),
    })
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s") and name not in out:
            layer = name.split(".", 1)[0]
            out[name] = sum((v for k, v in self_s.items() if k.split(".", 1)[0] == layer), 0.0)
        elif name.endswith(".s") and name not in out:
            out[name] = t(name[:-2])
    return out


# ---------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"seed": seed, "threads": int(THREADS), "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    start = perf_counter()
    runner = Runner(w, seed, WORK / name, start + DEADLINE_S)
    art = runner.dir / "artifacts"
    trials = []
    while len(trials) < MIN_TRIALS or perf_counter() - start < seconds:
        runner.fresh()
        setup_s, _, ok = runner.run_all(w.setup)
        if ok:
            run_s, rss, ok = runner.run_all(w.timed)
        if not ok:
            break
        trials.append({"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": rss,
                       "digests": digests(art)})

    traced = None
    if trials and trace:
        runner.fresh()
        spans_dir = WORK / f"{name}-spans"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        _, _, ok = runner.run_all(w.setup)
        if ok:
            run_s, _, ok = runner.run_all(w.timed, spans_dir=spans_dir)
        if ok:
            traces = [json.loads(p.read_text()) for p in sorted(spans_dir.glob("*.json"))]
            traced = {"run_s": run_s, "digests": digests(art), "layers": layer_metrics(traces, w)}

    if traced is not None and not runner.failures:
        # complete the pipeline, with the NMF baseline, for the quality numbers
        done = w.setup + w.timed
        for cmd in ("assign", "eval"):
            if (cmd not in done or cmd == "eval" and not w.nmf) and not runner.run(cmd, nmf=True)[2]:
                break
    for i, tr in enumerate(trials[1:], 2):
        if tr["digests"] != trials[0]["digests"]:
            runner.failures.append(f"trial {i} artifacts differ from trial 1: {tr['digests']}")
    if traced is not None and traced["digests"] != trials[0]["digests"]:
        runner.failures.append(f"traced artifacts differ from untraced: {traced['digests']}")

    result = {"workload": name, "env": environment(seed), "trials": trials,
              "reference_s": statistics.median(runner.refs) if runner.refs else None,
              "attempted": runner.attempted, "failures": runner.failures}
    if traced is not None:
        result["traced"] = {"run_s": traced["run_s"], "digests": traced["digests"]}
    if not runner.failures:
        q = quality(art)
        if trace:
            m = dict(traced["layers"])
            m["trace_overhead_pct"] = 100.0 * (traced["run_s"] / med(trials, "run_s") - 1.0)
            m.update((k, q[k]) for k in q if k in PER_LAYER_UNITS)
            metrics = {k: {"value": m[k], "unit": PER_LAYER_UNITS[k]} for k, _, _ in PER_LAYER}
        else:
            scale = REF_NOMINAL_S / result["reference_s"]
            m = {"setup_s": scale * med(trials, "setup_s"), "run_s": scale * med(trials, "run_s"),
                 "peak_rss_mb": max(tr["peak_rss_mb"] for tr in trials), **q}
            metrics = {k: {"value": m[k], "unit": u} for k, u, _, _ in END_TO_END}
        result["metrics"] = metrics
        result["quality"] = q
    (WORK / f"{name}.json").write_text(json.dumps(result, indent=1))
    return result


def med(trials: list, key: str) -> float:
    return statistics.median(tr[key] for tr in trials)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "cosep" / "cli.py").is_file():
        print(f"bench: no cosep sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:   # before numpy is first imported, here or in a child
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]

    metrics, attempted, failed = {}, 0, 0
    for r in results:
        print(f"workload {r['workload']}: {len(r['trials'])} trials, "
              f"{r['attempted']} commands, {len(r['failures'])} failed")
        if r["trials"]:
            print(f"  wall time, median over trials: set-up {med(r['trials'], 'setup_s'):.4g} s, "
                  f"timed {med(r['trials'], 'run_s'):.4g} s; reference() median {r['reference_s']:.4g} s, "
                  f"{REF_NOMINAL_S} s nominal")
        for f in r["failures"]:
            print(f"  FAILED {f}")
        for k, m in r.get("metrics", {}).items():
            print(f"  {r['workload']:<6} {k:<40} {m['value']:.6g} {m['unit']}")
            metrics[k if len(results) == 1 else f"{r['workload']}.{k}"] = m
        attempted += r["attempted"]
        failed += len(r["failures"])
    print("env " + json.dumps(results[0]["env"], sort_keys=True))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
