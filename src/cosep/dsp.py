"""Waveform/spectrogram conversions, log-frequency warping, masks, WAV I/O.

Conventions.  The STFT keeps the full non-negative-frequency grid of
window_size/2 + 1 rows (DC through Nyquist), so inversion is exact; the
log-frequency warp used for mask learning samples rows 1..window_size/2
on a geometric grid, leaving DC out of the masking path.  A
``Spectrogram`` holds the complex128 spectrum that ``np.fft.rfft``
returns, and its float32 magnitude, derived once when it is built.

A ``Spectrogram`` is exactly what ``stft`` returns and ``istft`` inverts.
Everything else is a plain array.  ``log_warp`` maps a [bins, frames]
magnitude onto the warped grid, and masks are float32 arrays in [0, 1]
with the shape of the plane they mask: ``ideal_binary_mask`` is the
training target on the warped grid, and ``log_unwarp`` brings a warped
mask back to the linear grid.

One builder, ``interp_rows``, makes every resampling table of the
package: ``warp_matrix``, ``unwarp_matrix`` and ``tensor``'s bilinear
upsampling.  Those tables and the overlap-add envelope are built once per
argument tuple (``functools.cache``) and handed out read-only.

``istft(spec, masks)`` inverts a whole stack of linear-grid masks applied
to one spectrogram: each mask scales the complex spectrum, one ``irfft``
call inverts every product, and the frames are overlap-added as
``ceil(window/hop)`` shifted block adds, in frame order, then divided by
the window-square envelope of (STFT config, frame count).  Each output
sample sees the same float64 operations in the same order as a
frame-by-frame loop, so the result is bit-identical to one.
"""

from __future__ import annotations

import functools
import wave as _wavemod
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StftConfig",
    "Spectrogram",
    "stft",
    "istft",
    "log_warp",
    "log_unwarp",
    "warp_positions",
    "interp_rows",
    "warp_matrix",
    "unwarp_matrix",
    "ideal_binary_mask",
    "write_wav",
    "read_wav",
]

OLA_EPS = 1e-8


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters; the FFT size equals the (even) window size."""

    sample_rate: int
    window_size: int
    hop: int
    window: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.window_size < 4 or self.window_size % 2:
            raise ValueError(f"window_size must be even and >= 4, got {self.window_size}")
        if not 1 <= self.hop <= self.window_size:
            raise ValueError(f"hop must lie in [1, window_size], got {self.hop}")
        # symmetric Hann; palindromic, values in [0, 1]
        object.__setattr__(self, "window", np.hanning(self.window_size))

    @property
    def fft_size(self) -> int:
        return self.window_size

    @property
    def n_bins(self) -> int:
        """Rows of the linear grid: DC through Nyquist inclusive."""
        return self.window_size // 2 + 1

    def sample_count(self, n_frames: int) -> int:
        return self.window_size + (n_frames - 1) * self.hop


@dataclass
class Spectrogram:
    """The complex linear-grid spectrum [bins, frames] that ``stft`` returns
    and ``istft`` inverts, and its magnitude."""

    values: np.ndarray
    config: StftConfig
    magnitude: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 2:
            raise ValueError("spectrogram values must be 2-d [bins, frames]")
        self.magnitude = np.abs(self.values).astype(np.float32)

    @property
    def bins(self) -> int:
        return self.values.shape[0]

    @property
    def frames(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------
# STFT / iSTFT
# ---------------------------------------------------------------------

def stft(wave: np.ndarray, cfg: StftConfig) -> Spectrogram:
    """Hann-windowed STFT onto the full linear grid (DC..Nyquist)."""
    wave = np.asarray(wave, dtype=np.float64).reshape(-1)
    if wave.size < cfg.window_size:
        raise ValueError(
            f"waveform has {wave.size} samples, needs at least one window ({cfg.window_size})")
    frames = np.lib.stride_tricks.sliding_window_view(wave, cfg.window_size)[::cfg.hop]
    return Spectrogram(np.fft.rfft(frames * cfg.window, axis=1).T, cfg)  # [bins, frames]


def istft(spec: Spectrogram, masks=None) -> np.ndarray:
    """Overlap-add inversion with window-square normalization.

    Without ``masks``, the waveform of ``spec``.  With an [E, bins, frames]
    stack of linear-grid masks, the [E, samples] waveforms of ``spec``'s
    complex spectrum scaled by each mask.
    """
    cfg = spec.config
    if spec.bins != cfg.n_bins:
        raise ValueError(f"expected {cfg.n_bins} linear bins, got {spec.bins}")
    if masks is None:
        values = spec.values[None]
    else:
        masks = np.asarray(masks)
        if masks.shape[1:] != spec.values.shape:
            raise ValueError(
                f"mask grid {masks.shape[1:]} does not match spectrogram "
                f"{spec.values.shape}; log_unwarp warped masks first")
        if np.any(masks < 0):
            raise ValueError("masked magnitude must be non-negative")
        values = masks * spec.values
    frames = np.fft.irfft(values.transpose(0, 2, 1), n=cfg.fft_size, axis=2)
    frames *= cfg.window                                        # [E, frames, window]
    out = _overlap_add(frames, cfg.hop)
    out /= _ola_denominator(cfg, frames.shape[1])
    return out[0] if masks is None else out


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum [..., F, W] frames spaced ``hop`` apart into [..., W + (F-1)·hop]
    samples.  Block r (samples r·hop onwards) of frame f lands in output
    block f + r; looping r downwards adds each sample's frames in frame order."""
    *lead, n_frames, width = frames.shape
    n_blocks = -(-width // hop)
    out = np.zeros((*lead, n_frames + n_blocks - 1, hop))
    for r in reversed(range(n_blocks)):
        part = frames[..., r * hop:(r + 1) * hop]
        out[..., r:r + n_frames, :part.shape[-1]] += part
    return out.reshape(*lead, -1)[..., :width + (n_frames - 1) * hop]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.cache
def _ola_denominator(cfg: StftConfig, n_frames: int) -> np.ndarray:
    """The window-square envelope of ``n_frames`` frames, floored relative to
    its peak: an absolute epsilon would blow up masked (non-consistent)
    spectra at the partially covered edges."""
    w2 = cfg.window * cfg.window
    norm = _overlap_add(np.broadcast_to(w2, (n_frames, cfg.window_size)), cfg.hop)
    return _read_only(np.maximum(norm, max(OLA_EPS, 1e-2 * norm.max())))


# ---------------------------------------------------------------------
# log-frequency warping
# ---------------------------------------------------------------------

def warp_positions(n_bins: int, out_bins: int) -> np.ndarray:
    """Geometric source row positions in [1, n_bins-1] for each warped bin."""
    top = n_bins - 1
    return np.exp(np.linspace(0.0, np.log(top), out_bins))


def interp_rows(positions: np.ndarray, n_src: int, dtype=np.float32) -> np.ndarray:
    """[len(positions), n_src] two-tap rows: row i weights source rows
    ``lo = min(floor(pos), n_src - 2)`` and ``lo + 1`` by ``1 - frac`` and
    ``frac``, capped at 1: rounding can put a top position past the last
    row, and a weight above 1 would leave a tiny negative one beside it."""
    lo = np.minimum(positions.astype(np.int64), n_src - 2)
    frac = np.minimum(positions - lo, 1.0)
    rows = np.arange(len(positions))
    m = np.zeros((len(positions), n_src), dtype=dtype)
    m[rows, lo] = 1 - frac
    m[rows, lo + 1] = frac
    return m


@functools.cache
def warp_matrix(n_bins: int, out_bins: int) -> np.ndarray:
    """[out_bins, n_bins] linear-interpolation rows at geometric positions."""
    return _read_only(interp_rows(warp_positions(n_bins, out_bins), n_bins))


@functools.cache
def unwarp_matrix(n_bins: int, out_bins: int) -> np.ndarray:
    """[n_bins, out_bins] inverse interpolation; DC, at position 0, copies
    the lowest warped bin."""
    b = (out_bins - 1) * np.log(np.arange(1, n_bins)) / np.log(n_bins - 1)
    return _read_only(interp_rows(np.concatenate([[0.0], b]), out_bins))


def log_warp(magnitude: np.ndarray, out_bins: int) -> np.ndarray:
    """Resample the rows of a [bins, frames] linear-grid plane onto
    ``out_bins`` geometrically spaced rows."""
    bins = magnitude.shape[0]
    if out_bins > bins:
        raise ValueError(f"out_bins {out_bins} exceeds source bins {bins}")
    if out_bins < 2:
        raise ValueError("out_bins must be >= 2")
    return warp_matrix(bins, out_bins) @ magnitude


def log_unwarp(mask: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Bring a [G, frames] mask on the warped grid back onto the full
    linear grid of ``cfg``, clipped to [0, 1]."""
    return np.clip(unwarp_matrix(cfg.n_bins, mask.shape[0]) @ mask, 0.0, 1.0)


# ---------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------

def ideal_binary_mask(target_mag: np.ndarray, other_mag: np.ndarray) -> np.ndarray:
    """1 where the target's magnitude dominates (ties go to the target)."""
    if target_mag.shape != other_mag.shape:
        raise ValueError("ideal_binary_mask requires magnitudes on the same grid")
    return (target_mag >= other_mag).astype(np.float32)


# ---------------------------------------------------------------------
# WAV I/O (PCM 16-bit little-endian mono)
# ---------------------------------------------------------------------

def write_wav(path, wave_data: np.ndarray, sample_rate: int) -> None:
    samples = np.clip(np.asarray(wave_data, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(samples * 32767.0).astype("<i2")
    with _wavemod.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())


def read_wav(path, expected_rate: int | None = None) -> tuple[np.ndarray, int]:
    """16-bit mono PCM samples as float32 in [-1, 1], and the sample rate.
    A file that is not such a WAV raises ``ValueError``."""
    try:
        with _wavemod.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit mono PCM")
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except (_wavemod.Error, EOFError) as exc:
        raise ValueError(f"{path}: not a WAV file ({exc})") from exc
    if expected_rate is not None and rate != expected_rate:
        raise ValueError(f"{path}: sample rate {rate} does not match configured {expected_rate}")
    wave_data = np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32767.0
    return wave_data, rate
