"""Separation and segmentation metrics, and the audio-only / image-only
inference pipelines built on top of them.

SDR/SIR follow the bss_eval energy-ratio decomposition with zero-lag
(filter length 1) projections: the estimate is split into the component
along the target reference, the rest of its projection onto the span of
all references (interference), and the out-of-span remainder (artifacts).
All projection algebra runs in float64; infinite ratios are reported as
a 120 dB sentinel.  ``sdr_sir`` rejects a silent (zero-energy) estimate;
the evaluation loop scores one as SDR = SIR = -120 dB, mirroring the
cap, so a channel that masks everything away is a score, not a crash.

Evaluation takes its clips as one loaded list.  The image-only metrics
(IoU, sparsity, accuracy) come from one ``avnets.infer_images`` pass over
their frames.
The audio-only metrics come from one mixture loop, one pass for the
network and, when asked, the NMF baseline: it mixes test clips pairwise
on a seeded schedule and asks each model's mask function
``(spec, cat_a, cat_b)`` for two masks on the linear STFT grid of the
mixture ``spec``, one per source.  Per mixture, what no model changes is
built once: the mix and its STFT, the ``References`` (float64 stack and
Gram matrix) and the mixture SDR.  One ``dsp.istft`` call applies every
model's masks to the mixture spectrum and inverts them together; each
estimate is padded or trimmed to the mixture length and scored.  Each
mixture is one item of ``checkpoint.map_ordered``: W worker processes
(the rule for W is in the ``checkpoint`` docstring) score whole mixtures
side by side, and the scores come back in schedule order.  A mixture's
scores are computed from that mixture alone, by the same calls in the
same order whichever process runs it, so reports are reproducible byte
for byte and independent of W.
"""

from __future__ import annotations

import numpy as np

from . import avnets, dsp, nmf as nmf_mod, toyworld
from .checkpoint import map_ordered, write_atomic
from .disentangle import Assignment, classification_accuracy, sparsity
from .tensor import Tensor, no_grad

DB_CAP = 120.0

REPORT_COLUMNS = ("model", "sparsity", "accuracy", "SDR", "SIR", "IoU")


def _db_ratio(num: float, den: float) -> float:
    if den <= 0.0:
        return DB_CAP
    return min(10.0 * np.log10(num / den), DB_CAP)


class References:
    """Clean source waveforms (linearly independent, equal lengths) set up
    once for scoring any number of estimates: the float64 stack, its Gram
    matrix and each source's energy."""

    def __init__(self, references):
        self.refs = np.stack([np.asarray(r, dtype=np.float64).reshape(-1) for r in references])
        if np.any(np.sum(self.refs * self.refs, axis=1) == 0.0):
            raise ValueError("a reference has zero energy")
        self.gram = self.refs @ self.refs.T
        self.energy = [float(t @ t) for t in self.refs]


def sdr_sir(estimate: np.ndarray, references, target_index: int) -> tuple[float, float]:
    """Zero-lag bss_eval-style SDR and SIR of ``estimate`` for one source.

    ``references`` are the clean source waveforms (linearly independent,
    same length as the estimate), or ``References`` built from them once.
    Returns (SDR dB, SIR dB), both capped at 120 dB.
    """
    if not isinstance(references, References):
        references = References(references)
    refs = references.refs
    est = np.asarray(estimate, dtype=np.float64).reshape(-1)
    if refs.shape[1] != est.size:
        raise ValueError(f"estimate length {est.size} differs from references {refs.shape[1]}")
    if not 0 <= target_index < refs.shape[0]:
        raise ValueError(f"target index {target_index} out of range")
    if np.sum(est * est) == 0.0:
        raise ValueError("estimate has zero energy")

    target = refs[target_index]
    s_target = (est @ target / references.energy[target_index]) * target
    try:
        coeffs = np.linalg.solve(references.gram, refs @ est)
    except np.linalg.LinAlgError as exc:
        raise ValueError("references are not linearly independent") from exc
    e_proj = coeffs @ refs

    e_interf = e_proj - s_target
    e_artif = est - e_proj
    num = float(s_target @ s_target)
    sdr = _db_ratio(num, float(np.sum((e_interf + e_artif) ** 2)))
    sir = _db_ratio(num, float(e_interf @ e_interf))
    return sdr, sir


def iou(pred_mask: np.ndarray, gt_mask: np.ndarray) -> float:
    """Intersection over union of two binary masks; the ground truth must
    be non-empty."""
    pred = np.asarray(pred_mask).astype(bool)
    gt = np.asarray(gt_mask).astype(bool)
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    if not gt.any():
        raise ValueError("ground-truth mask is empty")
    inter = np.logical_and(pred, gt).sum()
    union = np.logical_or(pred, gt).sum()
    return float(inter / union)


# ---------------------------------------------------------------------
# audio-only separation pipeline
# ---------------------------------------------------------------------

def _chunked_feats(warped: np.ndarray, bundle) -> np.ndarray:
    """Audio-net features for a [G, F] warped magnitude plane of any
    frame count; time is processed in non-overlapping G-frame windows
    (zero-padded at the end).  A NaN or infinite feature is
    ``avnets.NonFiniteOutput``, and the overflow warnings on the way to it
    are silenced."""
    g = bundle.audio_cfg.grid
    bins, frames = warped.shape
    if bins != g:
        raise ValueError(f"warped grid has {bins} bins but the audio net expects {g}")
    out = np.zeros((bundle.channels, g, frames), dtype=np.float32)
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, frames, g):
            chunk = warped[:, lo:lo + g]
            pad = g - chunk.shape[1]
            if pad:
                chunk = np.pad(chunk, ((0, 0), (0, pad)))
            feats = avnets.audio_forward(Tensor(chunk[None, None]), bundle)
            out[:, :, lo:lo + g] = feats.data[0][:, :, :g - pad if pad else g]
    return avnets._finite(out, "audio features")


def network_masks(bundle, assignment: Assignment):
    """Mask function of the network: log warp -> audio net -> sigmoid of
    each category's assigned channel -> unwarp to the linear grid."""
    def masks(spec: dsp.Spectrogram, cat_a: int, cat_b: int):
        for c in (cat_a, cat_b):
            if not 0 <= c < len(assignment.category_to_channel):
                raise ValueError(f"category {c} missing from assignment")
        feats = _chunked_feats(dsp.log_warp(spec.magnitude, bundle.audio_cfg.grid), bundle)
        channels = [assignment.channel_for(cat_a), assignment.channel_for(cat_b)]
        return [dsp.log_unwarp(m, spec.config) for m in avnets.audio_only_masks(feats, channels)]
    return masks


def nmf_masks(model: "nmf_mod.NmfModel", iters: int, seed: int):
    """Mask function of the NMF baseline: fixed-bases activation fit on the
    mixture magnitude, then each category's Wiener ratio mask."""
    def masks(spec: dsp.Spectrogram, cat_a: int, cat_b: int):
        return nmf_mod.nmf_separate(spec.magnitude, model.bases[cat_a], model.bases[cat_b],
                                    iters=iters, seed=seed)
    return masks


def _estimates(spec: dsp.Spectrogram, masks, n_samples: int) -> np.ndarray:
    """[E, n_samples] float64: each mask applied to the mixture ``spec`` and
    inverted, padded or trimmed to ``n_samples``."""
    est = dsp.istft(spec, masks)
    if est.shape[1] < n_samples:
        est = np.pad(est, ((0, 0), (0, n_samples - est.shape[1])))
    return est[:, :n_samples]


def separate(mixture_wave: np.ndarray, categories, bundle, assignment: Assignment,
             stft_cfg: dsp.StftConfig) -> list[np.ndarray]:
    """Audio-only source separation for the two given category ids;
    returns the two float32 waveforms, mixture length."""
    mixture_wave = np.asarray(mixture_wave, dtype=np.float32)
    spec = dsp.stft(mixture_wave, stft_cfg)
    masks = network_masks(bundle, assignment)(spec, *categories)
    return list(_estimates(spec, masks, mixture_wave.size).astype(np.float32))


# ---------------------------------------------------------------------
# evaluation suite
# ---------------------------------------------------------------------

def sample_mixture_pairs(clips, seed: int, n_mixtures: int):
    """Seeded schedule of distinct-category pairs of ``clips`` for evaluation."""
    if len({clip.category for clip in clips}) < 2:
        raise ValueError("evaluation needs clips of two categories to mix")
    rng = np.random.default_rng(np.random.SeedSequence([0x4D49, seed]))
    pairs = []
    while len(pairs) < n_mixtures:
        i, j = rng.integers(0, len(clips), size=2)
        if clips[i].category != clips[j].category:
            pairs.append((clips[i], clips[j]))
    return pairs


def _score_mixtures(pairs, cfg: dsp.StftConfig, models: dict, keep: int = 0) -> dict:
    """The mixture loop: separate every scheduled pair of clips with each
    model's mask function and score the estimates against the half-gain
    sources.  ``models`` maps a name to (mask function, estimate dtype).
    The mix, its STFT, the references and the mixture SDR are built once
    per mixture, and one ``istft`` call inverts every model's masks.  The
    mixtures are independent, so ``map_ordered`` scores them in forked
    workers on the idle CPUs; results come back in schedule order.
    Returns, per name, the SDR/SIR means for the summary row, the medians
    and mean SDR improvement, per-mixture details, and (mixture,
    estimate A, estimate B) of the first ``keep`` mixtures."""
    def score(job):
        index, (a, b) = job
        mix = toyworld.mix_waves(a.wave, b.wave)
        refs = References([toyworld.MIX_GAIN * a.wave, toyworld.MIX_GAIN * b.wave])
        spec = dsp.stft(mix, cfg)
        masks = [m for fn, _ in models.values() for m in fn(spec, a.category, b.category)]
        waves = _estimates(spec, masks, mix.size).reshape(len(models), 2, mix.size)
        mixture_sdr = [float(sdr_sir(mix, refs, i)[0]) for i in range(2)]
        out = {}
        for (name, (_, dtype)), ests in zip(models.items(), waves):
            ests = ests.astype(dtype)
            scores = [sdr_sir(est, refs, i) if np.any(est) else (-DB_CAP, -DB_CAP)
                      for i, est in enumerate(ests)]
            detail = {"clips": [a.clip_id, b.clip_id], "sdr": [float(s) for s, _ in scores],
                      "sir": [float(r) for _, r in scores], "mixture_sdr": mixture_sdr}
            out[name] = (detail, (mix, *ests) if index < keep else None)
        return out

    scored = map_ordered(score, enumerate(pairs))
    result = {}
    for name in models:
        details = [s[name][0] for s in scored]
        kept = [s[name][1] for s in scored[:keep]]
        result[name] = (*_summarize(details), details, kept)
    return result


def _summarize(details) -> tuple[dict, dict]:
    """The SDR/SIR means, and the medians and mean SDR improvement, of
    per-mixture details."""
    sdrs = [s for d in details for s in d["sdr"]]
    sirs = [r for d in details for r in d["sir"]]
    improvements = [s - m for d in details for s, m in zip(d["sdr"], d["mixture_sdr"])]
    means = {"SDR": float(np.mean(sdrs)), "SIR": float(np.mean(sirs))}
    extras = {"median_SDR": float(np.median(sdrs)), "median_SIR": float(np.median(sirs)),
              "mean_sdr_improvement": float(np.mean(improvements))}
    return means, extras


def evaluate_network(bundle, assignment: Assignment, clips, stft_cfg: dsp.StftConfig,
                     pair_seed: int = 0, n_mixtures: int = 40, tau: float = 0.5,
                     model_name: str = "model", figure_items: int = 0,
                     nmf_model: "nmf_mod.NmfModel | None" = None, nmf_iters: int = 150):
    """Full image-only + audio-only evaluation on ``clips`` (``toyworld.AVClip``).
    With ``nmf_model``, the NMF baseline is scored in the same mixture pass,
    on the same seeded schedule (separation only: its sparsity, accuracy and
    IoU are blank).  Returns the summary rows (the network's first), the
    extras and the per-item details by model name, and figure data: the
    masks of the first ``figure_items`` clips ("segmentation") and the
    mixture and two float32 network estimates of the first ``figure_items``
    mixtures ("separation")."""
    pairs = sample_mixture_pairs(clips, pair_seed, n_mixtures)

    # image-only: segmentation + channel sparsity + classification
    cats = [c.category for c in clips]
    maps, v = avnets.infer_images([c.frame for c in clips], bundle)
    accuracy = classification_accuracy(v, cats, assignment)
    preds = avnets.segment(maps, bundle, [assignment.channel_for(c) for c in cats], tau=tau)
    seg_details = [{"clip": clip.clip_id, "category": clip.category, "iou": iou(pred, clip.gt_mask)}
                   for pred, clip in zip(preds, clips)]
    ious = [d["iou"] for d in seg_details]

    # audio-only: seeded pairwise mixtures
    models = {model_name: (network_masks(bundle, assignment), np.float32)}
    if nmf_model is not None:
        models["nmf"] = (nmf_masks(nmf_model, nmf_iters, pair_seed), np.float64)
    scored = _score_mixtures(pairs, stft_cfg, models, keep=figure_items)

    means, extras, sep_details, kept = scored[model_name]
    rows = [{"model": model_name, "sparsity": float(np.mean([sparsity(r) for r in v])),
             "accuracy": float(accuracy), **means, "IoU": float(np.mean(ious))}]
    extras["median_IoU"] = float(np.median(ious))
    # the trivial row: a model below it has learned no localization
    extras["all_foreground_IoU"] = float(np.mean([iou(np.ones_like(c.gt_mask), c.gt_mask) for c in clips]))
    named_extras = {model_name: extras}
    named_details = {model_name: {"segmentation": seg_details, "separation": sep_details}}
    if nmf_model is not None:
        nmeans, named_extras["nmf"], ndetails, _ = scored["nmf"]
        rows.append({"model": "nmf", "sparsity": None, "accuracy": None, **nmeans, "IoU": None})
        named_details["nmf"] = {"separation": ndetails}
    return rows, named_extras, named_details, {"segmentation": preds[:figure_items], "separation": kept}


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.6f}"


def write_summary_csv(path, rows, header_comment: str = "") -> None:
    """Summary report with exactly the model/sparsity/accuracy/SDR/SIR/IoU
    columns."""
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append(",".join(REPORT_COLUMNS))
    for row in rows:
        lines.append(",".join([str(row["model"])] + [_fmt(row[c]) for c in REPORT_COLUMNS[1:]]))
    write_atomic(path, "\n".join(lines) + "\n")


def write_extras_csv(path, named_extras: dict) -> None:
    """Per-model medians and improvement deltas (one row per model)."""
    keys = sorted({k for ex in named_extras.values() for k in ex})
    lines = [",".join(["model"] + keys)]
    for name in sorted(named_extras):
        lines.append(",".join([name] + [_fmt(named_extras[name].get(k)) for k in keys]))
    write_atomic(path, "\n".join(lines) + "\n")


def format_table(rows) -> str:
    """Human-readable fixed-width rendition of the summary rows."""
    widths = [max(len(c), 10) for c in REPORT_COLUMNS]
    def fmt_row(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    out = [fmt_row(REPORT_COLUMNS), fmt_row(["-" * w for w in widths])]
    for row in rows:
        cells = [row["model"]] + ["" if row[c] is None else f"{row[c]:.3f}" for c in REPORT_COLUMNS[1:]]
        out.append(fmt_row(cells))
    return "\n".join(out)
