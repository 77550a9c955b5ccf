"""Command-line surface: dataset generation, training, assignment,
separation, segmentation, evaluation, reporting.

Configuration is one JSON file with a closed schema (unknown fields are
rejected; run ``cosep --help`` for the full field list).  Every artifact
records a hash over the config sections it depends on.  Commands read
their upstream artifacts through one gate, ``_require``, driven by the
``ARTIFACTS`` table (file, hashed sections, writing command, loader).
Failures exit nonzero with a single machine-parsable line on stderr:
``E_CONFIG`` (bad config or input file, exit 2), ``E_MISSING_ARTIFACT``
(run the named upstream command first, exit 3), ``E_CONFIG_DRIFT``
(artifact built under a different config, exit 4), ``E_CORRUPT_ARTIFACT``
(an artifact or dataset clip file that cannot be read or parsed, or a
model checkpoint holding a NaN or infinite weight or finite weights whose
forward pass overflows to one, exit 5; run the command that writes it
again), ``E_IO`` (``E_IO: <path>: <reason>``
for a file that could not be written, exit 6), ``E_WORKER`` (a worker
process of ``eval`` could not start or ended without its results, exit
7), ``E_DIVERGED`` (``train``'s loss or validation maps went non-finite;
the line dumps the schedule state, exit 8).  Checkpoints, JSON and CSV
artifacts are written atomically, so an interrupted write leaves the
previous file in place; ``manifest.json``
has one writer, ``toyworld.generate``, so a failed ``make-data`` leaves
none.  A command reads ``run_manifest.json`` before it writes.  An
unreadable ``nmf.ckpt`` is refitted like a stale one; ``eval`` scores
with the bases read back from it, so a first ``eval`` and a later one
agree.

``eval`` writes the report CSVs, the per-item scores in
``eval_details.json`` and the figures under ``figures/``; ``report``
reads only ``report.csv`` (checked against the config) and prints the
table beside it, so it needs neither the model nor the dataset.

The config resolves once, when it loads (``normalize_config``).  The
``stft`` and ``schedule`` sections each name a preset of ``PRESETS`` or
null, by one rule: a preset pins some fields of its section (``stft``:
``sample_rate``, ``window_size``, ``hop``; ``schedule``: the fine-tune
fields, and in some presets ``sigmoid_epochs``), a pinned field given in
the file is ``E_CONFIG``, and the others keep their values.  The STFT,
the two net configs and the schedule are built there, once; their
constructors' checks are the validation.  The audio grid is
``stft.warp_bins``, at most the STFT's bin count; it is also each clip's
frame count, since training feeds the audio net square planes.  So a
config that cannot train fails every command with one ``E_CONFIG`` line
before any file is written.  Artifact hashes cover the sections as given,
not the resolved values; the dataset gate also compares the image size
the frames were rendered at, which its hash leaves out.

``train --resume PATH`` restarts the fine-tune stage from the
stage-boundary checkpoint at PATH, read through the same gate, and counts
the epochs it ran.  It keeps the sigmoid-stage rows of ``train_log.csv``
and rewrites the rest.  A schedule without fine-tune epochs, a finished
run's final checkpoint, or a log that lacks those rows is ``E_CONFIG``;
each is checked before any file is written.  On glibc, ``train`` keeps
freed heap memory for reuse instead of handing it back to the kernel
after every step (``mallopt``); the other commands keep the allocator's
defaults.

Trained numbers depend on the BLAS thread count, which the environment
sets (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``); ``run_manifest.json``
records both, as each command saw them, under ``threads``.  W follows
``tensor``'s W rule (``tensor.worker_count``, spelled out in that
module's docstring).  ``eval`` scores its mixtures, and fits the NMF
bases, on W worker processes (``checkpoint.map_ordered``), and every
convolution splits its samples over W threads.  Every output is the
same at any W; ``threads.report`` records the W of the mixture loop
under ``workers``, and ``threads.checkpoint`` that of the image net's
convolutions on a training batch's 2 * ``batch_pairs`` frames, the most
samples any convolution of a step has.

``run_manifest.json`` also records, under ``resources``, what each
command cost: its wall seconds from start to the manifest write
(``wall_s``), the peak resident set of its process (``peak_rss_mb``,
``RUSAGE_SELF``) and the largest peak of the worker processes it forked
and waited for (``workers_peak_rss_mb``, ``RUSAGE_CHILDREN``).  Both are
the kernel's figures for the process's whole life; a process that forked
no worker still reads a few MB under ``RUSAGE_CHILDREN`` on Linux.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, avnets, disentangle, dsp, metrics, nmf, toyworld, trainer
from .checkpoint import WorkerError, write_atomic
from .tensor import BLAS_THREAD_VARS, worker_count

EXIT_CODES = {"E_CONFIG": 2, "E_MISSING_ARTIFACT": 3, "E_CONFIG_DRIFT": 4, "E_CORRUPT_ARTIFACT": 5, "E_IO": 6,
              "E_WORKER": 7, "E_DIVERGED": 8}

# closed config schema: section -> field -> (default, help)
SCHEMA = {
    "dataset": {
        "seed": (7, "dataset generator seed"),
        "categories": (8, "number of categories C, 2 to 12 (C < model.channels)"),
        "train": (400, "train split clip count (at least C)"),
        "val": (80, "validation split clip count (at least C)"),
        "test": (80, "test split clip count (at least C)"),
        "dir": ("data", "dataset directory (created by make-data)"),
        "artifacts_dir": ("artifacts", "checkpoints/reports directory"),
    },
    "stft": {
        "preset": ("toy", "'toy' pins sample_rate 8000, window_size 510, hop 128; null to give the three "
                          "(the paper's STFT is 11025, 1022, 256)"),
        "sample_rate": (None, "sample rate in Hz (when preset is null)"),
        "window_size": (None, "even analysis window length in samples"),
        "hop": (None, "hop length in samples"),
        "warp_bins": (64, "log-frequency grid rows and spectrogram frames per clip (fixes clip length): "
                          "the audio net's square grid, at most the STFT's bins"),
    },
    "model": {
        "channels": (16, "shared channel count K"),
        "image_size": (64, "image side in pixels; make-data renders frames at this size"),
        "audio_depth": (4, "down/up convolution pairs in the audio net"),
        "audio_widths": (None, "channel widths, stem first (null: defaults for the depth)"),
        "seed": (0, "weight initialization seed"),
    },
    "schedule": {
        "preset": ("toy-E", "named schedule preset (A-E, softmax-only, sigmoid-only, toy-E, toy-sigmoid-only): pins "
                            "softmax_epochs, initial_T, decay_rate, decay_epochs, and sigmoid_epochs in softmax-only "
                            "and toy-*; null to give explicit fields"),
        "sigmoid_epochs": (None, "sigmoid-stage epochs when the preset does not pin it (null: 15, or 0 with no preset)"),
        "softmax_epochs": (None, "fine-tune epochs (explicit schedules only)"),
        "initial_T": (None, "softmax temperature at fine-tune start"),
        "decay_rate": (None, "temperature decay multiplier in (0,1)"),
        "decay_epochs": (None, "fine-tune epochs at which T decays"),
        "lr": (1e-3, "base learning rate (divided by lr_finetune_divisor at fine-tune)"),
        "lr_finetune_divisor": (5.0, "fine-tune learning-rate divisor"),
        "seed": (0, "pair-sampling seed"),
        "batch_pairs": (8, "pairs per optimizer step"),
        "symmetric": (True, "must be true: every step scores both clips of each pair "
                            "(kept so configs that set it load)"),
        "distinct_pairs": (False, "forbid same-category pairs"),
    },
    "eval": {
        "tau": (0.5, "segmentation threshold, fraction of the channel map's range above its minimum"),
        "pair_seed": (1, "seed of the test mixture schedule"),
        "n_mixtures": (40, "evaluation mixtures"),
        "include_nmf": (True, "also fit and evaluate the NMF baseline"),
        "nmf_rank": (8, "NMF bases per category"),
        "nmf_iters": (150, "NMF multiplicative updates at separation time"),
        "figure_items": (4, "mixtures/frames eval renders under figures/ (separation figures: at most n_mixtures)"),
    },
}

# section -> preset -> the fields it pins.  A pinned field given in the file
# (present and not null) conflicts with the preset; the others keep their
# values.  The schedule presets fix the fine-tune stage; final temperatures
# follow in closed form (A 0.625, B 0.4746->0.475, C 0.090, D 0.0081->0.008,
# E 0.125, softmax-only 0.090).  The toy-* presets shrink the epoch budget
# for desk-scale runs while keeping E's annealing endpoint.
PRESETS = {
    "stft": {"toy": {"sample_rate": 8000, "window_size": 510, "hop": 128}},
    "schedule": {
        "A": {"softmax_epochs": 20, "initial_T": 10.0, "decay_rate": 0.5, "decay_epochs": (4, 8, 12, 16)},
        "B": {"softmax_epochs": 20, "initial_T": 1.5, "decay_rate": 0.75, "decay_epochs": (4, 8, 12, 16)},
        "C": {"softmax_epochs": 25, "initial_T": 1.0, "decay_rate": 0.3, "decay_epochs": (4, 8)},
        "D": {"softmax_epochs": 25, "initial_T": 1.0, "decay_rate": 0.3, "decay_epochs": (3, 6, 9, 12)},
        "E": {"softmax_epochs": 25, "initial_T": 1.0, "decay_rate": 0.5, "decay_epochs": (5, 10, 15)},
        "softmax-only": {"softmax_epochs": 25, "initial_T": 1.0, "decay_rate": 0.3,
                         "decay_epochs": (10, 20), "sigmoid_epochs": 0},
        "sigmoid-only": {"softmax_epochs": 0, "initial_T": 1.0, "decay_rate": 0.5, "decay_epochs": ()},
        "toy-E": {"softmax_epochs": 20, "initial_T": 1.0, "decay_rate": 0.5,
                  "decay_epochs": (5, 10, 15), "sigmoid_epochs": 12},
        "toy-sigmoid-only": {"softmax_epochs": 0, "initial_T": 1.0, "decay_rate": 0.5,
                             "decay_epochs": (), "sigmoid_epochs": 16},
    },
}


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------

class Resolved(NamedTuple):
    """The objects a config resolves to; commands read these."""
    stft: dsp.StftConfig
    image: avnets.ImageNetCfg
    audio: avnets.AudioNetCfg
    schedule: trainer.ScheduleConfig


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise CliError("E_CONFIG", f"config file {path} not found")
    except json.JSONDecodeError as exc:
        raise CliError("E_CONFIG", f"config {path} line {exc.lineno}: {exc.msg}")
    except OSError as exc:   # a directory, a file it may not read
        raise CliError("E_CONFIG", f"config {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise CliError("E_CONFIG", f"config {path}: {exc}")
    return normalize_config(raw)


def normalize_config(raw: dict) -> dict:
    """The config with every default filled in, plus under ``"resolved"``
    the objects it resolves to (``Resolved``), each built and checked once.
    Artifact hashes cover the sections as given, not the resolved values."""
    if not isinstance(raw, dict):
        raise CliError("E_CONFIG", "config root must be a JSON object")
    cfg: dict = {}
    pinned: dict = {}   # section -> its values with the preset's pins laid over them
    for section, fields in SCHEMA.items():
        given = raw.get(section, {})
        if not isinstance(given, dict):
            raise CliError("E_CONFIG", f"section {section} must be an object")
        unknown = set(given) - set(fields)
        if unknown:
            raise CliError("E_CONFIG", f"unknown field {section}.{sorted(unknown)[0]}")
        cfg[section] = {name: given.get(name, default) for name, (default, _) in fields.items()}
        pinned[section] = _pin(section, given, cfg[section]) if "preset" in fields else cfg[section]
    unknown_sections = set(raw) - set(SCHEMA)
    if unknown_sections:
        raise CliError("E_CONFIG", f"unknown section {sorted(unknown_sections)[0]}")

    # directories are hashed as normalized paths, so "./data/" and "data"
    # name the same artifacts; absolute and relative spellings still differ
    for f in ("dir", "artifacts_dir"):
        d = cfg["dataset"][f]
        if not isinstance(d, str) or not d:
            raise CliError("E_CONFIG", f"dataset.{f} must be a non-empty path string, got {d!r}")
        cfg["dataset"][f] = os.path.normpath(d)

    # warp_bins >= 2: the log-frequency warp needs a bottom and a top row
    for section, f, least in (("model", "channels", 1), ("model", "image_size", 1),
                              ("model", "audio_depth", 1), ("model", "seed", 0),
                              ("stft", "sample_rate", 1), ("stft", "window_size", 1),
                              ("stft", "hop", 1), ("stft", "warp_bins", 2),
                              ("schedule", "batch_pairs", 1), ("dataset", "seed", 0),
                              ("schedule", "seed", 0), ("eval", "pair_seed", 0)):
        _check_int(pinned[section][f], f"{section}.{f}", least)
    s, m, sched = pinned["stft"], pinned["model"], pinned["schedule"]
    stft = _build("stft", dsp.StftConfig, s["sample_rate"], s["window_size"], s["hop"])
    if s["warp_bins"] > stft.n_bins:
        raise CliError("E_CONFIG", f"stft.warp_bins {s['warp_bins']} exceeds the {stft.n_bins} bins of the STFT")
    image = _build("model", avnets.ImageNetCfg, m["image_size"], m["channels"])
    audio = _build("model", avnets.AudioNetCfg, s["warp_bins"], m["audio_depth"], m["channels"],
                   m["audio_widths"])
    sig = sched["sigmoid_epochs"]
    if sig is None:   # a preset that leaves it open runs 15 sigmoid epochs, an explicit schedule none
        sig = 0 if sched["preset"] is None else 15
    schedule = _build("schedule", trainer.ScheduleConfig, sig, sched["softmax_epochs"], sched["initial_T"],
                      sched["decay_rate"], sched["decay_epochs"], sched["lr"], sched["lr_finetune_divisor"])

    # clip i has category i mod C, so a split of at least C clips holds
    # every category: evaluation and distinct-pair sampling need two
    d = cfg["dataset"]
    _check_int(d["categories"], "dataset.categories", 2, len(toyworld.COLORS))
    if d["categories"] >= image.channels:
        raise CliError("E_CONFIG", "dataset.categories must be smaller than model.channels")
    for split in ("train", "val", "test"):
        _check_int(d[split], f"dataset.{split}", d["categories"])
    if cfg["schedule"]["symmetric"] is not True:   # the one training rule scores both clips
        raise CliError("E_CONFIG", f"schedule.symmetric must be true, got {cfg['schedule']['symmetric']!r}")
    for section, f in (("schedule", "distinct_pairs"), ("eval", "include_nmf")):
        if not isinstance(cfg[section][f], bool):
            raise CliError("E_CONFIG", f"{section}.{f} must be true or false, got {cfg[section][f]!r}")
    _check_tau(cfg["eval"]["tau"], "eval.tau")
    for f, least in (("n_mixtures", 1), ("figure_items", 0), ("nmf_rank", 1), ("nmf_iters", 1)):
        _check_int(cfg["eval"][f], f"eval.{f}", least)
    cfg["resolved"] = Resolved(stft, image, audio, schedule)
    return cfg


def _pin(section: str, given: dict, values: dict) -> dict:
    """``values`` of ``section`` with the fields its preset pins laid over them."""
    name, presets = values["preset"], PRESETS[section]
    if name is None:
        return values
    if not isinstance(name, str) or name not in presets:
        raise CliError("E_CONFIG", f"{section}.preset {name!r} unknown; choose from {sorted(presets)} or null")
    clash = [f for f in presets[name] if given.get(f) is not None]
    if clash:
        raise CliError("E_CONFIG", f"{section}.preset {name!r} conflicts with explicit {section}.{clash[0]}")
    return {**values, **presets[name]}


def _build(section: str, make, *args):
    """``make(*args)``; a value its constructor rejects is one E_CONFIG line."""
    try:
        return make(*args)
    except (TypeError, ValueError) as exc:
        raise CliError("E_CONFIG", f"{section}: {exc}")


def _check_int(value, name: str, least: int, most: int | None = None) -> None:
    if (isinstance(value, bool) or not isinstance(value, int) or value < least
            or (most is not None and value > most)):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise CliError("E_CONFIG", f"{name} must be an integer {bound}, got {value!r}")


def _check_tau(tau, name: str) -> None:
    if isinstance(tau, bool) or not isinstance(tau, (int, float)) or not 0 < tau < 1:
        raise CliError("E_CONFIG", f"{name} must lie in (0, 1), got {tau!r}")


def section_hash(cfg: dict, sections) -> str:
    doc = {s: cfg[s] for s in sections}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------

def _load_report(path: Path):
    """The table ``eval`` wrote beside ``report.csv``, and as meta the
    config hash on the first line of ``report.csv``."""
    lines = path.read_text().split("\n")
    if not lines[0].startswith("# config "):
        raise ValueError("no '# config' line")
    columns = metrics.REPORT_COLUMNS
    if (lines[1:2] != [",".join(columns)] or lines[-1]
            or any(len(line.split(",")) != len(columns) for line in lines[2:-1])):
        raise ValueError("incomplete report table")
    return (path.parent / "report_table.txt").read_text(), {"config_hash": lines[0][len("# config "):]}


class Artifact(NamedTuple):
    dir_field: str   # the directory is dataset.<dir_field>
    name: str
    sections: tuple  # the config sections its recorded hash covers
    writer: str      # the command that writes it
    load: Callable   # path -> (object, meta with the recorded config_hash); raises on a bad file


MODEL_SECTIONS = ("dataset", "stft", "model", "schedule")

ARTIFACTS = {
    "dataset": Artifact("dir", "manifest.json", ("dataset", "stft"), "make-data", toyworld.Dataset.load),
    "checkpoint": Artifact("artifacts_dir", "checkpoint_final.ckpt", MODEL_SECTIONS, "train",
                           avnets.ModelBundle.load),
    "assignment": Artifact("artifacts_dir", "assignment.json", MODEL_SECTIONS, "assign",
                           disentangle.Assignment.load),
    "nmf": Artifact("artifacts_dir", "nmf.ckpt", ("dataset", "stft"), "eval", nmf.NmfModel.load),
    "report": Artifact("artifacts_dir", "report.csv", MODEL_SECTIONS + ("eval",), "eval", _load_report),
}

# what reading or parsing a bad file raises: OS errors, bad JSON or
# checkpoint bytes (ValueError), JSON of the wrong shape (KeyError, TypeError, AttributeError)
UNREADABLE = (OSError, ValueError, KeyError, TypeError, AttributeError)


def _artifacts(cfg: dict, name: str = "") -> Path:
    return Path(cfg["dataset"]["artifacts_dir"]) / name


def artifact_path(cfg: dict, kind: str) -> Path:
    a = ARTIFACTS[kind]
    return Path(cfg["dataset"][a.dir_field]) / a.name


def artifact_hash(cfg: dict, kind: str) -> str:
    return section_hash(cfg, ARTIFACTS[kind].sections)


def _unreadable(path: Path, exc: Exception, remedy: str) -> CliError:
    return CliError("E_CORRUPT_ARTIFACT", f"{path} is unreadable ({type(exc).__name__}: {exc}); {remedy}")


def _require(cfg: dict, kind: str, path=None):
    """The one artifact gate: load ``kind`` from ``path`` (default: its
    file in ``ARTIFACTS``) and check it against ``cfg``.  A missing file is
    E_MISSING_ARTIFACT, an unreadable one E_CORRUPT_ARTIFACT, one written
    under another config E_CONFIG_DRIFT."""
    a = ARTIFACTS[kind]
    path = artifact_path(cfg, kind) if path is None else Path(path)
    if not path.exists():
        raise CliError("E_MISSING_ARTIFACT", f"{path} missing; run {a.writer}")
    try:
        obj, meta = a.load(path)
    except UNREADABLE as exc:
        raise _unreadable(path, exc, f"run {a.writer} again")
    if meta.get("config_hash") != artifact_hash(cfg, kind):
        raise CliError("E_CONFIG_DRIFT", f"{path} was written under a different "
                                         f"{'/'.join(a.sections)} config; run {a.writer} again")
    # frames are rendered at the model's image size, which the dataset hash leaves out
    if kind == "dataset" and obj.image_size != (size := cfg["resolved"].image.input_size):
        raise CliError("E_CONFIG_DRIFT", f"{path} holds {obj.image_size}-pixel frames, but "
                                         f"model.image_size resolves to {size}; run {a.writer} again")
    return obj


def _read_run_manifest(cfg: dict) -> dict:
    """``run_manifest.json``, or an empty one; a command that records its
    artifact there reads it before it writes anything."""
    path = _artifacts(cfg, "run_manifest.json")
    sections = ("artifacts", "hashes", "timestamps", "threads", "resources")
    doc = {"version": __version__, **{k: {} for k in sections}}
    try:
        if path.exists():
            doc.update(json.loads(path.read_text()))
        if not all(isinstance(doc[k], dict) for k in sections):
            raise TypeError(f"{', '.join(sections)} must be objects")
    except UNREADABLE as exc:
        raise _unreadable(path, exc, "delete it")
    return doc


def _update_run_manifest(cfg: dict, kind: str, doc: dict, started: float,
                         workers: int | None = None) -> None:
    """Record ``kind`` in ``doc`` (from ``_read_run_manifest``) and write it;
    ``started`` is the ``time.monotonic()`` at which the command started,
    and ``workers`` the W its ordered map or convolutions ran on, if it
    ran either."""
    doc["version"] = __version__
    doc["artifacts"][kind] = str(artifact_path(cfg, kind))
    doc["hashes"][kind] = artifact_hash(cfg, kind)
    doc["timestamps"][kind] = time.strftime("%Y-%m-%dT%H:%M:%S")
    doc["threads"][kind] = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    if workers is not None:
        doc["threads"][kind]["workers"] = workers
    peak, workers_peak = (resource.getrusage(who).ru_maxrss / 1024   # KiB on Linux
                          for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    doc["resources"][kind] = {"wall_s": round(time.monotonic() - started, 3), "peak_rss_mb": round(peak, 3),
                              "workers_peak_rss_mb": round(workers_peak, 3)}
    path = _artifacts(cfg, "run_manifest.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps(doc, sort_keys=True, indent=1))


def _category_ids(dataset: toyworld.Dataset, names) -> list[int]:
    cats = {c.name: c.id for c in dataset.categories}
    ids = []
    for name in names:
        if name in cats:
            ids.append(cats[name])
        elif name.isdigit() and int(name) < len(cats):
            ids.append(int(name))
        else:
            raise CliError("E_CONFIG", f"unknown category {name!r}; have {sorted(cats)}")
    return ids


# ---------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------

def cmd_make_data(cfg: dict, args) -> int:
    d = cfg["dataset"]
    run, r = _read_run_manifest(cfg), cfg["resolved"]
    try:
        dataset = toyworld.generate(d["dir"], seed=d["seed"], n_categories=d["categories"],
                                    counts={"train": d["train"], "val": d["val"], "test": d["test"]},
                                    image_size=r.image.input_size, stft_cfg=r.stft,
                                    n_frames=cfg["stft"]["warp_bins"],
                                    config_hash=artifact_hash(cfg, "dataset"))
    except ValueError as exc:   # a model.image_size too small to render the masks
        raise CliError("E_CONFIG", f"model.image_size: {exc}")
    _update_run_manifest(cfg, "dataset", run, args.started)
    print(f"dataset: {sum(map(len, dataset.splits.values()))} clips, {d['categories']} categories -> {d['dir']}")
    return 0


# glibc mallopt parameters
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    """Have glibc serve large blocks from the heap and keep freed heap
    memory: every training step frees and reallocates the same full-size
    temporaries, which by default go back to the kernel and are faulted
    in again on the next step.  A no-op where libc.so.6 cannot be loaded."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):   # no glibc here
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # 32 MiB (the ceiling of glibc's own dynamic threshold on 64-bit, and
    # the most older versions accept) is above every temporary of a
    # toy-model step; a free heap top under 1 GiB is never handed back
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 1 << 30)


def cmd_train(cfg: dict, args) -> int:
    _keep_freed_heap()
    dataset = _require(cfg, "dataset")
    r = cfg["resolved"]
    log_path, head = _artifacts(cfg, "train_log.csv"), None
    if not args.resume:
        bundle, start = avnets.ModelBundle(r.image, r.audio, seed=cfg["model"]["seed"]), None
    elif r.schedule.softmax_epochs == 0:
        raise CliError("E_CONFIG", "--resume: the schedule has no fine-tune epochs to resume")
    else:
        bundle, start = _require(cfg, "checkpoint", args.resume), r.schedule.sigmoid_epochs
        if bundle.trained:   # set on checkpoint_final.ckpt only
            raise CliError("E_CONFIG", f"--resume: {args.resume} is a finished run; "
                                       "resume from checkpoint_sigmoid.ckpt")
        try:
            head = trainer.read_log_head(log_path, start)
        except ValueError as exc:
            raise CliError("E_CONFIG", f"--resume keeps the sigmoid stage's log rows: {exc}")
    run = _read_run_manifest(cfg)
    state = trainer.run_schedule(
        r.schedule, dataset, bundle, out_dir=_artifacts(cfg),
        seed=cfg["schedule"]["seed"], batch_pairs=cfg["schedule"]["batch_pairs"],
        distinct_pairs=cfg["schedule"]["distinct_pairs"],
        log_path=log_path, start_epoch=start, log_head=head,
        config_hash=artifact_hash(cfg, "checkpoint"), quiet=not args.verbose)
    _update_run_manifest(cfg, "checkpoint", run, args.started,
                         workers=worker_count(2 * cfg["schedule"]["batch_pairs"]))
    final_t = bundle.temperature if bundle.mode == "softmax" else None
    print(f"trained {len(state.loss_history)} epochs; final loss {state.loss_history[-1]:.4f}"
          + (f"; final temperature {final_t:g}" if final_t is not None else ""))
    return 0


def cmd_assign(cfg: dict, args) -> int:
    dataset = _require(cfg, "dataset")
    bundle = _require(cfg, "checkpoint")
    run = _read_run_manifest(cfg)
    clips = toyworld.load_split(dataset, "val")
    cats = [c.category for c in clips]
    _, v = avnets.infer_images([c.frame for c in clips], bundle)
    table = disentangle.build_table(v, cats, [c.name for c in dataset.categories])
    asg = disentangle.assign(table)
    table_hash = hashlib.sha256(np.ascontiguousarray(table.values).tobytes()).hexdigest()[:16]
    asg.save(artifact_path(cfg, "assignment"),
             extra={"config_hash": artifact_hash(cfg, "assignment"), "table_hash": table_hash})
    _update_run_manifest(cfg, "assignment", run, args.started)
    acc = disentangle.classification_accuracy(v, cats, asg)
    pairs = ", ".join(f"{n}->{c}" for n, c in zip(asg.categories, asg.category_to_channel))
    print(f"assignment: {pairs}")
    print(f"validation accuracy {acc:.3f}, profit {asg.total_profit:.4f}")
    return 0


def cmd_separate(cfg: dict, args) -> int:
    dataset = _require(cfg, "dataset")
    bundle = _require(cfg, "checkpoint")
    asg = _require(cfg, "assignment")
    if args.wav:
        try:
            wave, _ = dsp.read_wav(args.wav, expected_rate=dataset.stft.sample_rate)
        except (OSError, ValueError) as exc:
            raise CliError("E_CONFIG", f"--wav {args.wav}: {exc}")
        if wave.size < dataset.stft.window_size:
            raise CliError("E_CONFIG", f"--wav {args.wav}: {wave.size} samples, "
                                       f"fewer than one window ({dataset.stft.window_size})")
        stem = Path(args.wav)
        names = [n.strip() for n in args.categories.split(",")]
    elif args.clips:
        ids = [c.strip() for c in args.clips.split(",")]
        if len(ids) != 2:
            raise CliError("E_CONFIG", f"--clips needs exactly two clip ids, got {len(ids)}")
        records = {r.id: r for split in dataset.splits.values() for r in split}
        missing = [c for c in ids if c not in records]
        if missing:
            raise CliError("E_CONFIG", f"unknown clip id {missing[0]}")
        clips = [toyworld.load_clip(dataset, records[c]) for c in ids]
        wave = toyworld.mix_waves(clips[0].wave, clips[1].wave)
        names = [dataset.categories[c.category].name for c in clips]
        stem = _artifacts(cfg, f"mix_{ids[0]}_{ids[1]}.wav")
        dsp.write_wav(stem, wave, dataset.stft.sample_rate)
    else:
        raise CliError("E_CONFIG", "separate needs --wav FILE --categories a,b or --clips id1,id2")
    if len(names) != 2:
        raise CliError("E_CONFIG", "separate needs exactly two categories")
    cat_ids = _category_ids(dataset, names)
    estimates = metrics.separate(wave, cat_ids, bundle, asg, dataset.stft)
    for name, est in zip(names, estimates):
        out = Path(f"{stem}.{name}.wav")
        dsp.write_wav(out, est, dataset.stft.sample_rate)
        print(f"wrote {out}")
    return 0


def cmd_segment(cfg: dict, args) -> int:
    dataset = _require(cfg, "dataset")
    bundle = _require(cfg, "checkpoint")
    asg = _require(cfg, "assignment")
    if not args.image or not args.category:
        raise CliError("E_CONFIG", "segment needs --image FILE.ppm --category NAME")
    try:
        frame = toyworld.read_ppm(args.image)
    except (OSError, ValueError) as exc:
        raise CliError("E_CONFIG", f"--image {args.image}: {exc}")
    size = bundle.image_cfg.input_size
    if frame.shape[:2] != (size, size):
        raise CliError("E_CONFIG", f"image must be {size}x{size}, got {frame.shape[1]}x{frame.shape[0]}")
    cat = _category_ids(dataset, [args.category])[0]
    if args.tau is not None:
        _check_tau(args.tau, "--tau")
    tau = cfg["eval"]["tau"] if args.tau is None else args.tau
    maps, _ = avnets.infer_images(frame, bundle)
    mask = avnets.segment(maps, bundle, [asg.channel_for(cat)], tau=tau)[0]
    out = Path(f"{args.image}.{args.category}.pgm")
    toyworld.write_pgm(out, mask)
    print(f"wrote {out} ({mask.mean():.1%} coverage)")
    return 0


def _fit_or_load_nmf(cfg: dict, dataset: toyworld.Dataset) -> nmf.NmfModel:
    try:
        model = _require(cfg, "nmf")
        if model.rank == cfg["eval"]["nmf_rank"]:
            return model
    except CliError:
        pass   # missing, unreadable or stale: refit
    model = nmf.fit_category_bases(dataset, rank=cfg["eval"]["nmf_rank"],
                                   iters=200, seed=cfg["dataset"]["seed"])
    model.save(artifact_path(cfg, "nmf"), extra_meta={"config_hash": artifact_hash(cfg, "nmf")})
    return _require(cfg, "nmf")   # the float32 bases the file holds, which a later eval scores with


def cmd_eval(cfg: dict, args) -> int:
    dataset = _require(cfg, "dataset")
    bundle = _require(cfg, "checkpoint")
    asg = _require(cfg, "assignment")
    run = _read_run_manifest(cfg)
    e = cfg["eval"]
    name = cfg["schedule"]["preset"] or "custom"
    clips = toyworld.load_split(dataset, "test")
    nmf_model = _fit_or_load_nmf(cfg, dataset) if e["include_nmf"] else None
    rows, named_extras, named_details, figures = metrics.evaluate_network(
        bundle, asg, clips, dataset.stft, pair_seed=e["pair_seed"],
        n_mixtures=e["n_mixtures"], tau=e["tau"], model_name=name, figure_items=e["figure_items"],
        nmf_model=nmf_model, nmf_iters=e["nmf_iters"])
    _write_figures(_artifacts(cfg, "figures"), clips, figures, dataset.stft)
    write_atomic(_artifacts(cfg, "eval_details.json"),
                 json.dumps(named_details, sort_keys=True, indent=1))
    metrics.write_extras_csv(_artifacts(cfg, "report_extras.csv"), named_extras)
    table = metrics.format_table(rows)
    write_atomic(_artifacts(cfg, "report_table.txt"), table + "\n")
    # report.csv last: its hash line is what ``report`` checks
    metrics.write_summary_csv(artifact_path(cfg, "report"), rows,
                              header_comment=f"config {artifact_hash(cfg, 'report')}")
    _update_run_manifest(cfg, "report", run, args.started, workers=worker_count(e["n_mixtures"]))
    print(table)
    print(f"mean SDR improvement over mixture: {named_extras[name]['mean_sdr_improvement']:.2f} dB")
    return 0


def cmd_report(cfg: dict, args) -> int:
    print(_require(cfg, "report"))
    print(f"figures -> {_artifacts(cfg, 'figures')}")
    return 0


def _write_figures(out: Path, clips: list, figures: dict, stft_cfg: dsp.StftConfig) -> None:
    """Spectrogram triptychs (mixture | estimate A | estimate B) of the
    first evaluated mixtures and frame / predicted-mask overlays of the
    first test clips.  The figures of an earlier ``eval`` are removed first."""
    out.mkdir(parents=True, exist_ok=True)
    for old in [*out.glob("separation_*.pgm"), *out.glob("segmentation_*.ppm")]:
        old.unlink()
    for i, waves in enumerate(figures["separation"]):
        panels = [dsp.stft(w, stft_cfg).magnitude for w in waves]
        toyworld.write_pgm(out / f"separation_{i:02d}.pgm", _spectrogram_strip(panels))
    for i, (clip, pred) in enumerate(zip(clips, figures["segmentation"])):
        toyworld.write_ppm(out / f"segmentation_{i:02d}.ppm", _overlay(clip.frame, pred, clip.gt_mask))


def _spectrogram_strip(panels) -> np.ndarray:
    """Log-magnitude panels side by side as one 8-bit image (low rows at
    the bottom), separated by white columns."""
    imgs = []
    for mag in panels:
        z = np.log1p(mag.astype(np.float64))
        z = z / max(z.max(), 1e-9)
        imgs.append((z[::-1] * 255).astype(np.uint8))
    sep = np.full((imgs[0].shape[0], 2), 255, dtype=np.uint8)
    strip = [imgs[0]]
    for img in imgs[1:]:
        strip.extend((sep, img))
    return np.concatenate(strip, axis=1)


def _overlay(frame: np.ndarray, pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Predicted mask tinted red, ground-truth boundary drawn in white."""
    out = frame.astype(np.float64)
    out[pred] = 0.55 * out[pred] + 0.45 * np.array([255.0, 32.0, 32.0])
    edge = gt ^ (np.roll(gt, 1, 0) & np.roll(gt, -1, 0) & np.roll(gt, 1, 1) & np.roll(gt, -1, 1) & gt)
    out[edge] = 255.0
    return np.clip(out, 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

def _schema_help() -> str:
    lines = ["config fields (JSON, closed schema):"]
    for section, fields in SCHEMA.items():
        for name, (default, doc) in fields.items():
            lines.append(f"  {section}.{name:<20} default {default!r}: {doc}")
    return "\n".join(lines)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosep",
        description="Audio-visual co-segmentation: train on synthetic mixtures, "
                    "assign categories to channels, then segment images and "
                    "separate audio independently.",
        epilog=_schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"cosep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", default="cosep.json", help="config JSON path")
        p.set_defaults(fn=fn)
        return p

    add("make-data", cmd_make_data, "generate the synthetic dataset")
    p_train = add("train", cmd_train, "run the two-stage training schedule")
    p_train.add_argument("--resume", help="resume from the stage-boundary checkpoint")
    p_train.add_argument("--verbose", action="store_true", help="per-epoch progress lines")
    add("assign", cmd_assign, "assign categories to channels on the validation split")
    p_sep = add("separate", cmd_separate, "audio-only source separation")
    p_sep.add_argument("--wav", help="input mixture WAV")
    p_sep.add_argument("--categories", default="", help="two category names, comma separated")
    p_sep.add_argument("--clips", help="two dataset clip ids to mix and separate")
    p_seg = add("segment", cmd_segment, "image-only segmentation")
    p_seg.add_argument("--image", help="input PPM frame")
    p_seg.add_argument("--category", help="category name to segment")
    p_seg.add_argument("--tau", type=float, default=None,
                       help="threshold override: fraction of the channel map's range above its minimum")
    add("eval", cmd_eval, "evaluate on the test split; write report CSVs, eval_details.json and figures")
    add("report", cmd_report, "print the table eval wrote, after checking report.csv against the config")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    args.started = time.monotonic()
    try:
        cfg = load_config(args.config)
        try:
            return args.fn(cfg, args)
        except avnets.NonFiniteOutput as exc:   # finite weights whose forward pass overflows
            raise CliError("E_CORRUPT_ARTIFACT", f"{artifact_path(cfg, 'checkpoint')}: {exc}; "
                                                 f"run {ARTIFACTS['checkpoint'].writer} again") from exc
        except toyworld.ClipReadError as exc:  # a clip file of the dataset artifact
            raise _unreadable(exc.path, exc.__cause__, f"run {ARTIFACTS['dataset'].writer} again") from exc
        except OSError as exc:   # a file that could not be written
            raise CliError("E_IO", f"{exc.filename}: {exc.strerror}") from exc
        except WorkerError as exc:
            raise CliError("E_WORKER", str(exc)) from exc
        except trainer.TrainingDiverged as exc:
            raise CliError("E_DIVERGED", str(exc)) from exc
    except CliError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.code, 1)


if __name__ == "__main__":
    sys.exit(main())
