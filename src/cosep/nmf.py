"""Supervised-bases NMF separation baseline.

Per-category spectral bases are learned from solo training clips with
multiplicative generalized-KL updates (columns L1-normalized after each
sweep, with the scale folded into the activations so the divergence is
untouched).  Separation fixes the concatenated bases, fits activations
on the mixture magnitude, and emits Wiener-style ratio masks.  Neither
fit computes its divergence; the tests evaluate it on the iterates.

Both updates use the quotient V / (WH + eps), a full [bins, frames]
float64 plane.  Each fit allocates it once and every update recomputes
it in place (matmul, add, divide into the one C-ordered buffer), with
the operands and evaluation order of the plain expressions, so the
results are bit-identical to them.  V is copied to C order once too:
STFT magnitudes come F-ordered, and a divide across the two orders cost
more than the rest of a sweep.

``fit_category_bases`` fits the categories as the items of
``workers.map_ordered``, on W worker processes (the rule for W is in
the ``workers`` docstring).  Each item loads only its own category's
clips and fits with its own seed, so the bases are the same bits at any
W, and each worker holds the magnitudes of one category at a time.
"""

from __future__ import annotations

import numpy as np

from . import dsp, toyworld
from .checkpoint import load_tensors, save_tensors
from .workers import map_ordered

EPS = 1e-12


def _quotient(v, w, h, q):
    """V / (WH + eps) computed into the [bins, frames] buffer ``q``."""
    np.matmul(w, h, out=q)
    np.add(q, EPS, out=q)
    return np.divide(v, q, out=q)


def _basis_norm(w):
    """The activation update's denominator: column sums of W, plus eps."""
    return w.T.sum(axis=1, keepdims=True) + EPS


def _mu_update_h(v, w, h, q, w_norm):
    """Activation update; ``w_norm`` is ``_basis_norm(w)``, ``q`` the buffer."""
    return h * (w.T @ _quotient(v, w, h, q)) / w_norm


def _mu_update_w(v, w, h, q):
    return w * (_quotient(v, w, h, q) @ h.T) / (h.sum(axis=1, keepdims=True).T + EPS)


def _fit_iterates(v, rank: int, iters: int, seed: int):
    """The seeded initial (W, H), then (W, H) after each update sweep."""
    rng = np.random.default_rng(np.random.SeedSequence([0x4E4D46, seed]))
    w = rng.uniform(0.1, 1.1, size=(v.shape[0], rank))
    h = rng.uniform(0.1, 1.1, size=(rank, v.shape[1]))
    yield w, h
    q = np.empty(v.shape)
    for _ in range(iters):
        h = _mu_update_h(v, w, h, q, _basis_norm(w))
        w = _mu_update_w(v, w, h, q)
        scale = w.sum(axis=0)
        w /= scale + EPS
        h *= scale[:, None]
        yield w, h


def nmf_fit(magnitudes, rank: int, iters: int = 200, seed: int = 0) -> np.ndarray:
    """Factor stacked category magnitudes; returns the bases W.

    ``magnitudes`` is one [bins, frames] array or a list of them
    (concatenated along time).  Columns of W are L1-normalized.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if isinstance(magnitudes, (list, tuple)):
        magnitudes = np.concatenate([np.asarray(m, dtype=np.float64) for m in magnitudes], axis=1)
    v = np.ascontiguousarray(magnitudes, dtype=np.float64)
    if np.any(v < 0):
        raise ValueError("magnitudes must be non-negative")
    if not np.any(v > 0):
        raise ValueError("cannot factor an all-zero spectrogram")
    for w, _ in _fit_iterates(v, rank, iters, seed):
        pass
    return w


def nmf_separate(mixture_mag: np.ndarray, w_a: np.ndarray, w_b: np.ndarray,
                 iters: int = 150, seed: int = 0, init_h: np.ndarray | None = None):
    """Fixed-bases activation fit on the mixture; returns the Wiener ratio
    masks (mask_a, mask_b)."""
    v = np.ascontiguousarray(mixture_mag, dtype=np.float64)
    w = np.concatenate([w_a, w_b], axis=1)
    if w.shape[0] != v.shape[0]:
        raise ValueError(f"bases have {w.shape[0]} bins but mixture has {v.shape[0]}")
    r_a = w_a.shape[1]
    if init_h is None:
        rng = np.random.default_rng(np.random.SeedSequence([0x534550, seed]))
        h = rng.uniform(0.1, 1.1, size=(w.shape[1], v.shape[1]))
    else:
        h = np.asarray(init_h, dtype=np.float64).copy()
    q = np.empty(v.shape)
    w_norm = _basis_norm(w)
    for _ in range(iters):
        h = _mu_update_h(v, w, h, q, w_norm)
    va = w[:, :r_a] @ h[:r_a]
    vb = w[:, r_a:] @ h[r_a:]
    total = va + vb + EPS
    return (np.clip(va / total, 0, 1).astype(np.float32),
            np.clip(vb / total, 0, 1).astype(np.float32))


class NmfModel:
    """Per-category bases plus the shared rank; persisted in the common
    checkpoint format under names nmf/W_<category>."""

    def __init__(self, rank: int, bases: dict | None = None):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.bases = dict(bases or {})

    def save(self, path, extra_meta: dict | None = None):
        meta = {"kind": "nmf", "rank": self.rank,
                "categories": sorted(self.bases)}
        if extra_meta:
            meta.update(extra_meta)
        save_tensors(path, {f"nmf/W_{c}": w for c, w in self.bases.items()}, meta)

    @classmethod
    def load(cls, path) -> tuple["NmfModel", dict]:
        arrays, meta = load_tensors(path)
        if meta.get("kind") != "nmf":
            raise ValueError(f"{path}: not an NMF checkpoint")
        bases = {int(name.split("_", 1)[1]): arr.astype(np.float64)
                 for name, arr in arrays.items() if name.startswith("nmf/W_")}
        if sorted(bases) != meta.get("categories"):
            raise ValueError(f"{path}: bases {sorted(bases)} differ from the recorded categories")
        return cls(meta["rank"], bases), meta


def fit_category_bases(dataset: toyworld.Dataset, rank: int = 8, iters: int = 200,
                       seed: int = 0) -> NmfModel:
    """One basis matrix per category from that category's solo training
    clips.  Each category is one item of ``map_ordered``: it loads its
    clips, in split order, and runs its own seeded fit."""
    by_cat: dict = {}
    for rec in dataset.splits["train"]:
        by_cat.setdefault(rec.category, []).append(rec)

    def fit(cat):
        mags = [dsp.stft(toyworld.load_clip(dataset, rec).wave, dataset.stft).magnitude for rec in by_cat[cat]]
        return nmf_fit(mags, rank, iters=iters, seed=seed + cat)
    cats = sorted(by_cat)
    return NmfModel(rank, dict(zip(cats, map_ordered(fit, cats))))
