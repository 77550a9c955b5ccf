"""Mix-and-Separate self-supervised training with the two-stage
activation schedule.

Stage one trains with a sigmoid head at the base learning rate; stage
two switches to temperature softmax, divides the learning rate by the
fine-tune divisor, and decays the temperature at the configured epochs,
pushing the pooled visual vector toward one-hot and sparsifying the
shared channels.  ``epoch_plan`` spells the schedule out as one
(stage, mode, temperature, lr) row per epoch, and ``run_schedule`` runs
every epoch in one loop over that plan; a resumed run enters the same
loop at the epoch it is given.

Each train clip is prepared once: the complex spectrum of its STFT,
kept as complex64, and its magnitude on the warped grid
(``dsp.log_warp``).  A pair's mixture spectrum is the gain-scaled sum of
the two clips' spectra, and its magnitude is warped the same way.  The
target of each side is ``dsp.ideal_binary_mask`` of its clip against the
other clip on the warped grid.

An epoch is one pass over N uniformly sampled clip pairs, N being the
train-clip count.  Pairs are consumed in fixed order in small batches,
so runs with identical seeds are bit-identical.  By default the loss is
symmetric: the frames of both clips of every pair go through the image
net as one 2N batch, each scored against the shared mixture features,
and the mean binary cross entropy over all 2N masks equals the average
of the two one-sided losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import avnets, dsp, toyworld
from . import tensor as tc
from .checkpoint import write_atomic
from .disentangle import sparsity
from .tensor import Adam, Tensor


class TrainingDiverged(RuntimeError):
    """Raised when the loss or the validation maps stop being finite;
    carries a state dump.  ``cli.main`` ends it as one ``E_DIVERGED`` line."""


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ScheduleConfig:
    sigmoid_epochs: int
    softmax_epochs: int
    initial_T: float = 1.0
    decay_rate: float = 0.5
    decay_epochs: tuple = ()
    lr: float = 1e-3
    lr_finetune_divisor: float = 5.0

    def __post_init__(self):
        epochs = (self.sigmoid_epochs, self.softmax_epochs)
        if any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in epochs):
            raise ValueError(f"epoch counts must be non-negative integers, got {epochs}")
        if sum(epochs) == 0:
            raise ValueError("the schedule needs at least one epoch")
        if not (_number(self.initial_T) and self.initial_T > 0):
            raise ValueError(f"initial temperature must be a positive number, got {self.initial_T!r}")
        if not (_number(self.decay_rate) and 0 < self.decay_rate < 1):
            raise ValueError(f"decay rate must lie in (0, 1), got {self.decay_rate!r}")
        for name in ("lr", "lr_finetune_divisor"):
            value = getattr(self, name)
            if not (_number(value) and 0 < value < math.inf):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if not isinstance(self.decay_epochs, (list, tuple)):
            raise ValueError(f"decay epochs must be a list, got {self.decay_epochs!r}")
        decays = tuple(self.decay_epochs)
        if list(decays) != sorted(decays):
            raise ValueError("decay epochs must be sorted")
        if any(not 1 <= e <= self.softmax_epochs for e in decays):
            raise ValueError(
                f"decay epochs {decays} must lie within [1, {self.softmax_epochs}]")
        object.__setattr__(self, "decay_epochs", decays)

    def to_json(self) -> dict:
        d = asdict(self)
        d["decay_epochs"] = list(self.decay_epochs)
        return d


def temperature_at(cfg: ScheduleConfig, finetune_epoch: int) -> float:
    """Temperature after the decays scheduled up to ``finetune_epoch``
    (1-based, relative to the fine-tune stage start)."""
    if finetune_epoch < 0:
        raise ValueError("epoch must be non-negative")
    n = sum(1 for e in cfg.decay_epochs if e <= finetune_epoch)
    return cfg.initial_T * cfg.decay_rate ** n


def epoch_plan(cfg: ScheduleConfig) -> list[tuple[str, str, float | None, float]]:
    """(stage, mode, temperature, lr) of every epoch in order.  Sigmoid
    epochs carry no temperature; fine-tune epoch e (1-based) runs at
    ``temperature_at(cfg, e)`` and the divided learning rate."""
    fine_lr = cfg.lr / cfg.lr_finetune_divisor
    return ([("training", "sigmoid", None, cfg.lr)] * cfg.sigmoid_epochs
            + [("finetune", "softmax", temperature_at(cfg, e), fine_lr)
               for e in range(1, cfg.softmax_epochs + 1)])


@dataclass
class TrainState:
    seed: int
    epoch: int = 0
    stage: str = "training"
    temperature: float | None = None
    loss_history: list = field(default_factory=list)
    sparsity_history: list = field(default_factory=list)

    def dump(self) -> dict:
        return {"seed": self.seed, "epoch": self.epoch, "stage": self.stage,
                "temperature": self.temperature,
                "recent_losses": self.loss_history[-5:]}


# ---------------------------------------------------------------------
# clip preparation
# ---------------------------------------------------------------------

@dataclass
class PreparedClip:
    frame: np.ndarray        # [S, S, 3] uint8
    spec: np.ndarray         # complex64 [bins, frames]: the STFT's values, linear grid
    warped_mag: np.ndarray   # [G, frames] float32
    category: int


def prepare_clip(clip: toyworld.AVClip, cfg: dsp.StftConfig, warp_bins: int) -> PreparedClip:
    spec = dsp.stft(clip.wave, cfg)
    return PreparedClip(clip.frame, spec.values.astype(np.complex64),
                        dsp.log_warp(spec.magnitude, warp_bins), clip.category)


def prepare_split(dataset: toyworld.Dataset, split: str, warp_bins: int) -> list[PreparedClip]:
    return [prepare_clip(toyworld.load_clip(dataset, rec), dataset.stft, warp_bins)
            for rec in dataset.splits[split]]


def _mix_warped(a: PreparedClip, b: PreparedClip) -> np.ndarray:
    mix = toyworld.MIX_GAIN * (a.spec.astype(np.complex128) + b.spec.astype(np.complex128))
    return dsp.log_warp(np.abs(mix).astype(np.float32), a.warped_mag.shape[0])


def _batch_arrays(pairs: list):
    """Mixture magnitudes [N, 1, G, T], frames [2N, 3, S, S] and binary
    targets [2N, 1, G, T]; rows N.. of the last two hold the second clip
    of each pair."""
    mix = np.stack([_mix_warped(a, b) for a, b in pairs])[:, None]
    sides = list(pairs) + [(b, a) for a, b in pairs]
    frames = avnets.frames_to_tensor(np.stack([a.frame for a, _ in sides])).data
    targets = np.stack([dsp.ideal_binary_mask(a.warped_mag, b.warped_mag) for a, b in sides])[:, None]
    return mix, frames, targets


def _step_batch(batch, bundle: avnets.ModelBundle, opt: Adam, symmetric: bool) -> float:
    """One optimizer step; without ``symmetric`` only the first clip of
    each pair is scored.  Overflow and invalid-value warnings are silenced:
    the caller's non-finite-loss check replaces them."""
    mix, frames, targets = batch
    with np.errstate(over="ignore", invalid="ignore"):
        feats = avnets.audio_forward(Tensor(mix), bundle)
        n = 2 * len(mix) if symmetric else len(mix)
        _, _, v = avnets.image_forward(Tensor(frames[:n]), bundle)
        loss = tc.bce_loss(avnets.synthesize_mask(v, feats, bundle), Tensor(targets[:n]))
        opt.zero_grad()
        tc.backward(loss)
        opt.step()
    return loss.item()


# ---------------------------------------------------------------------
# schedule runner
# ---------------------------------------------------------------------

def _val_sparsity(bundle: avnets.ModelBundle, val_frames: np.ndarray, state: TrainState) -> float:
    try:
        _, v = avnets.infer_images(val_frames, bundle)
    except avnets.NonFiniteOutput as exc:
        raise TrainingDiverged(f"{exc} at state {state.dump()}") from exc
    return float(np.mean([sparsity(row) for row in v]))


def _run_epoch(prepared, pair_idx, bundle, opt, state, batch_pairs: int, symmetric: bool) -> float:
    losses = []
    for lo in range(0, len(pair_idx), batch_pairs):
        chunk = pair_idx[lo:lo + batch_pairs]
        pairs = [(prepared[i], prepared[j]) for i, j in chunk]
        loss = _step_batch(_batch_arrays(pairs), bundle, opt, symmetric)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss at state {state.dump()}, batch_pairs {batch_pairs}")
        losses.append(loss)
    return float(np.mean(losses))


def _sample_pairs(rng, n_clips: int, n_pairs: int, categories, distinct: bool) -> np.ndarray:
    idx = rng.integers(0, n_clips, size=(n_pairs, 2))
    if distinct:
        if len(set(categories)) < 2:
            raise ValueError("distinct pairs need clips of two categories")
        for row in idx:
            while categories[row[0]] == categories[row[1]]:
                row[1] = rng.integers(0, n_clips)
    return idx


def run_schedule(cfg: ScheduleConfig, dataset: toyworld.Dataset, bundle: avnets.ModelBundle,
                 out_dir=None, seed: int = 0, batch_pairs: int = 8, symmetric: bool = True,
                 distinct_pairs: bool = False, log_path=None,
                 start_epoch: int | None = None, config_hash: str = "",
                 quiet: bool = True) -> TrainState:
    """Run the two-stage schedule on ``bundle``; returns the final TrainState.

    Checkpoints are written at the stage boundary and at the end when
    ``out_dir`` is given.  ``start_epoch`` resumes a run at that row of
    ``epoch_plan(cfg)`` with the weights ``bundle`` holds, and writes no
    stage-boundary checkpoint; the caller checks what it loaded.
    """
    state = TrainState(seed=seed, epoch=start_epoch or 0)
    prepared = prepare_split(dataset, "train", bundle.audio_cfg.grid)
    categories = [p.category for p in prepared]
    val_frames = np.stack([clip.frame for clip in toyworld.load_split(dataset, "val")])
    n = len(prepared)
    rng = np.random.default_rng(np.random.SeedSequence([0x7241, seed]))
    opt = Adam(bundle.param_list(), lr=cfg.lr)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    log_rows = [("epoch", "stage", "T", "lr", "loss", "sparsity")]

    def save(name, stage):
        if out_dir is not None:
            bundle.save(out_dir / name, extra_meta={"schedule": cfg.to_json(), "config_hash": config_hash,
                                                    "completed_stage": stage})

    # One pass per row of the plan.  The boundary checkpoint is taken once
    # the sigmoid stage is complete: before the first fine-tune epoch, or
    # at the end of a sigmoid-only schedule; it is recorded in sigmoid mode.
    plan = epoch_plan(cfg)
    bundle.set_mode("sigmoid")
    while True:
        if state.epoch == cfg.sigmoid_epochs and start_epoch is None:
            save("checkpoint_sigmoid.ckpt", "training")
        if state.epoch == len(plan):
            break
        state.stage, mode, state.temperature, opt.lr = plan[state.epoch]
        bundle.set_mode(mode, state.temperature)
        pair_idx = _sample_pairs(rng, n, n, categories, distinct_pairs)
        loss = _run_epoch(prepared, pair_idx, bundle, opt, state, batch_pairs, symmetric)
        spars = _val_sparsity(bundle, val_frames, state)
        state.loss_history.append(loss)
        state.sparsity_history.append(spars)
        state.epoch += 1
        temp = state.temperature
        log_rows.append((str(state.epoch), state.stage, "" if temp is None else f"{temp:.6g}",
                         f"{opt.lr:.6g}", f"{loss:.6f}", f"{spars:.6f}"))
        if not quiet:
            print(f"epoch {state.epoch:3d} [{state.stage}] T={temp} lr={opt.lr:.2e} "
                  f"loss={loss:.4f} sparsity={spars:.4f}")
        if log_path is not None:
            write_atomic(log_path, "\n".join(",".join(r) for r in log_rows) + "\n")

    bundle.trained = True
    save("checkpoint_final.ckpt", state.stage)
    return state
