"""Deterministic synthetic audio-visual dataset.

Each category owns a shape, a saturated color, a fundamental frequency
sitting exactly on an STFT bin center, a harmonic profile, and an
amplitude-modulation rate.  A clip renders its shape at a random
position and scale over a textured gray background and synthesizes its
tone with per-clip pitch, phase, amplitude-modulation-phase and onset
jitter.  All per-clip randomness derives from (seed, clip_id), so
generation is order-independent and regeneration is bit-identical.  So
``generate`` makes each clip one item of ``workers.map_ordered``: W
worker processes write the same bytes as one.

Files on disk: binary PPM frames, binary PGM ground-truth masks, 16-bit
PCM WAV audio, and a JSON manifest tying them together.  ``Dataset`` is
the manifest's only reader and writer: ``generate`` writes it once, in
the caller, after every worker has written its clip files, and
``Dataset.load`` reads it; other modules take the object.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .checkpoint import write_atomic
from .dsp import StftConfig, write_wav, read_wav
from .workers import map_ordered

SHAPES = ("circle", "square", "triangle", "cross", "ring", "diamond", "bars", "wedge")

COLORS = (
    (220, 40, 40), (40, 200, 60), (60, 90, 235), (235, 220, 50),
    (220, 60, 220), (60, 220, 220), (240, 150, 40), (140, 60, 220),
    (40, 140, 130), (250, 130, 180), (160, 220, 60), (150, 100, 50),
)

HARMONIC_PROFILES = (
    ((1, 1.0), (2, 0.30), (3, 0.15)),
    ((1, 1.0), (3, 0.30)),
    ((1, 1.0), (2, 0.25), (4, 0.12)),
    ((1, 1.0), (2, 0.18), (3, 0.25)),
)

PITCH_JITTER_HZ = 9.0  # < 0.6 linear bins at the toy grid
MIX_GAIN = 0.5
SPLITS = ("train", "val", "test")   # the splits every manifest holds
PEAK_AMPLITUDE = 0.8


@dataclass(frozen=True)
class CategorySpec:
    id: int
    name: str
    shape: str
    color: tuple
    fundamental: float
    harmonics: tuple
    am_rate: float
    fm_rate: float   # vibrato rate in Hz
    fm_dev: float    # vibrato peak deviation in Hz

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "shape": self.shape,
                "color": list(self.color), "fundamental": self.fundamental,
                "harmonics": [list(h) for h in self.harmonics], "am_rate": self.am_rate,
                "fm_rate": self.fm_rate, "fm_dev": self.fm_dev}

    @staticmethod
    def from_json(d: dict) -> "CategorySpec":
        return CategorySpec(d["id"], d["name"], d["shape"], tuple(d["color"]),
                            d["fundamental"], tuple(tuple(h) for h in d["harmonics"]),
                            d["am_rate"], d["fm_rate"], d["fm_dev"])


@dataclass
class AVClip:
    clip_id: str
    category: int
    frame: np.ndarray      # uint8 [S, S, 3]
    wave: np.ndarray       # float32, PEAK_AMPLITUDE headroom
    gt_mask: np.ndarray    # bool [S, S]


def default_categories(n: int, cfg: StftConfig) -> list[CategorySpec]:
    """Category table with fundamentals on bin centers, geometrically
    spread between bins 14 and 158 of the toy grid."""
    if n < 2:
        raise ValueError("need at least 2 categories")
    if n > len(COLORS):
        raise ValueError(f"at most {len(COLORS)} categories supported")
    ks = np.round(14.0 * (158.0 / 14.0) ** (np.arange(n) / max(n - 1, 1))).astype(int)
    if len(set(ks.tolist())) != n:
        raise ValueError("fundamental bins collide; reduce category count")
    hz_per_bin = cfg.sample_rate / cfg.fft_size
    cats = []
    for i in range(n):
        shape = SHAPES[i % len(SHAPES)]
        cats.append(CategorySpec(
            id=i,
            name=f"{shape}{i}" if i >= len(SHAPES) else shape,
            shape=shape,
            color=COLORS[i],
            fundamental=float(ks[i] * hz_per_bin),
            harmonics=HARMONIC_PROFILES[i % len(HARMONIC_PROFILES)],
            am_rate=2.0 + 0.9 * i,
            fm_rate=0.8 + 0.35 * i,
            fm_dev=7.0 + 0.4 * i,
        ))
    return cats


# ---------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------

def _shape_mask(shape: str, size: int, cx: float, cy: float, r: float) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    dx = xx - cx
    dy = yy - cy
    if shape == "circle":
        return dx * dx + dy * dy <= r * r
    if shape == "square":
        return (np.abs(dx) <= r * 0.85) & (np.abs(dy) <= r * 0.85)
    if shape == "triangle":
        return (dy >= -r) & (dy <= r * 0.8) & (np.abs(dx) <= (dy + r) * 0.55)
    if shape == "cross":
        arm = r * 0.38
        return ((np.abs(dx) <= arm) & (np.abs(dy) <= r)) | ((np.abs(dy) <= arm) & (np.abs(dx) <= r))
    if shape == "ring":
        d2 = dx * dx + dy * dy
        return (d2 <= r * r) & (d2 >= (0.45 * r) ** 2)
    if shape == "diamond":
        return np.abs(dx) + np.abs(dy) <= r * 1.1
    if shape == "bars":
        bar = r * 0.3
        return (np.abs(dy) <= r) & ((np.abs(dx - r * 0.55) <= bar) | (np.abs(dx + r * 0.55) <= bar))
    if shape == "wedge":
        return (dx >= -r * 0.9) & (dy >= -r * 0.9) & (dx + dy <= r * 0.35)
    raise ValueError(f"unknown shape {shape!r}")


def render_frame(cat: CategorySpec, size: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Textured background plus the category shape; returns (frame, mask)."""
    base = rng.uniform(0.30, 0.50)
    frame = np.clip(base + rng.uniform(-0.09, 0.09, size=(size, size, 3)), 0, 1)
    cx = rng.uniform(0.25 * size, 0.75 * size)
    cy = rng.uniform(0.25 * size, 0.75 * size)
    r = rng.uniform(0.20 * size, 0.34 * size)
    mask = _shape_mask(cat.shape, size, cx, cy, r)
    color = np.array(cat.color, dtype=np.float64) / 255.0
    brightness = rng.uniform(0.85, 1.0)
    tint = np.clip(color * brightness + rng.uniform(-0.03, 0.03, size=(mask.sum(), 3)), 0, 1)
    frame[mask] = tint
    return (frame * 255).round().astype(np.uint8), mask


def synth_wave(cat: CategorySpec, n_samples: int, sample_rate: int, rng) -> np.ndarray:
    """Harmonic tone with AM envelope, vibrato, pitch/phase/onset jitter,
    fixed peak.  Vibrato sweeps the whole comb, which keeps static
    spectral templates from memorizing exact bin positions."""
    f0 = cat.fundamental + rng.uniform(-PITCH_JITTER_HZ, PITCH_JITTER_HZ)
    t = np.arange(n_samples) / sample_rate
    dev = cat.fm_dev * rng.uniform(0.7, 1.0)
    inst_freq = f0 + dev * np.sin(2 * np.pi * cat.fm_rate * t + rng.uniform(0, 2 * np.pi))
    base_phase = 2 * np.pi * np.cumsum(inst_freq) / sample_rate
    tone = np.zeros(n_samples)
    nyq = 0.49 * sample_rate
    for partial, amp in cat.harmonics:
        if partial * (f0 + cat.fm_dev) < nyq:
            tone += amp * np.sin(partial * base_phase + rng.uniform(0, 2 * np.pi))
    depth = 0.45
    env = 1.0 - 0.5 * depth * (1.0 + np.sin(2 * np.pi * cat.am_rate * t + rng.uniform(0, 2 * np.pi)))
    tone *= env
    onset = int(rng.uniform(0, 0.05) * sample_rate)
    if onset:
        ramp = np.zeros(n_samples)
        fade = min(int(0.01 * sample_rate), n_samples - onset)
        ramp[onset + fade:] = 1.0
        ramp[onset:onset + fade] = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
        tone *= ramp
    peak = np.max(np.abs(tone))
    if peak > 0:
        tone *= PEAK_AMPLITUDE / peak
    return tone.astype(np.float32)


# ---------------------------------------------------------------------
# PPM / PGM
# ---------------------------------------------------------------------

def write_ppm(path, img_u8: np.ndarray) -> None:
    h, w, c = img_u8.shape
    assert c == 3
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(img_u8, dtype=np.uint8).tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    header, img = _parse_pnm(data, b"P6")
    w, h = header
    return np.frombuffer(img, dtype=np.uint8, count=w * h * 3).reshape(h, w, 3).copy()


def write_pgm(path, mask: np.ndarray) -> None:
    arr = (np.asarray(mask).astype(np.uint8) * 255) if mask.dtype == bool else np.asarray(mask, dtype=np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(arr).tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    header, img = _parse_pnm(data, b"P5")
    w, h = header
    return np.frombuffer(img, dtype=np.uint8, count=w * h).reshape(h, w).copy()


def _parse_pnm(data: bytes, magic: bytes):
    if not data.startswith(magic):
        raise ValueError(f"not a {magic.decode()} file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError("only 8-bit PNM supported")
    return (w, h), data[pos:]


# ---------------------------------------------------------------------
# generation / the dataset handle
# ---------------------------------------------------------------------

def _clip_rng(seed: int, clip_id: str):
    digest = hashlib.sha256(f"{seed}:{clip_id}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class ClipRecord(NamedTuple):
    """One clip of a split: its id, category and files under the dataset root."""
    id: str
    category: int
    frame: str
    mask: str
    wav: str


@dataclass(frozen=True)
class Dataset:
    """A generated dataset: directory, rendering, categories and clip records
    by split.  ``to_json`` and ``load`` alone know ``manifest.json``'s layout."""
    root: Path
    seed: int
    image_size: int
    n_frames: int
    clip_samples: int
    stft: StftConfig
    categories: tuple   # CategorySpec
    splits: dict        # split -> list of ClipRecord, in clip order
    config_hash: str = ""

    def to_json(self) -> dict:
        stft = {"sample_rate": self.stft.sample_rate, "window_size": self.stft.window_size, "hop": self.stft.hop}
        return {"seed": self.seed, "image_size": self.image_size, "n_frames": self.n_frames,
                "clip_samples": self.clip_samples, "config_hash": self.config_hash, "stft": stft,
                "categories": [c.to_json() for c in self.categories],
                "splits": {split: [r._asdict() for r in recs] for split, recs in self.splits.items()}}

    @classmethod
    def load(cls, path: Path) -> tuple["Dataset", dict]:
        """The dataset and JSON of the manifest at ``path``; a manifest of the
        wrong shape raises KeyError, TypeError, ValueError or AttributeError,
        and one without all of ``SPLITS``, or with a split that lacks a
        category, raises ValueError."""
        doc = json.loads(path.read_text())
        missing = [split for split in SPLITS if split not in doc["splits"]]
        if missing:
            raise ValueError(f"no {'/'.join(missing)} split")
        dataset = cls(path.parent, doc["seed"], doc["image_size"], doc["n_frames"], doc["clip_samples"],
                      StftConfig(**doc["stft"]),
                      tuple(CategorySpec.from_json(c) for c in doc["categories"]),
                      {split: [ClipRecord(**r) for r in recs] for split, recs in doc["splits"].items()},
                      doc["config_hash"])
        for split in SPLITS:
            held = {r.category for r in dataset.splits[split]}
            lacking = [c.name for c in dataset.categories if c.id not in held]
            if lacking:
                raise ValueError(f"the {split} split has no clip of {', '.join(lacking)}")
        return dataset, doc


def generate(root, seed: int, stft_cfg: StftConfig, n_categories: int = 8,
             counts: dict | None = None, image_size: int = 64,
             n_frames: int = 64, config_hash: str = "") -> Dataset:
    """Write the dataset under ``root`` and return it.  Any earlier manifest
    goes first and the new one is written last, atomically, so a failed
    generation leaves none.  Each clip is rendered, synthesized and written
    by one item of ``map_ordered``, so the first failing clip in clip order
    raises: a mask covering under 1% or over 60% of its frame,
    ``ValueError``; a failed clip write, ``OSError`` naming the file."""
    cats = default_categories(n_categories, stft_cfg)
    counts = counts or {"train": 400, "val": 80, "test": 80}
    root = Path(root)
    (root / "clips").mkdir(parents=True, exist_ok=True)
    (root / "manifest.json").unlink(missing_ok=True)
    n_samples = stft_cfg.sample_count(n_frames)

    def write_clip(item) -> ClipRecord:
        split, i = item
        clip_id = f"{split}_{i:04d}"
        category = i % n_categories
        rng = _clip_rng(seed, clip_id)
        frame, mask = render_frame(cats[category], image_size, rng)
        if not 0.01 <= (coverage := mask.mean()) <= 0.60:
            raise ValueError(f"{clip_id}: mask coverage {coverage:.3f} lies outside [0.01, 0.60] "
                             f"at image size {image_size}")
        wave = synth_wave(cats[category], n_samples, stft_cfg.sample_rate, rng)
        rec = ClipRecord(clip_id, category, f"clips/{clip_id}.ppm", f"clips/{clip_id}_mask.pgm",
                         f"clips/{clip_id}.wav")
        path = root / rec.frame
        try:
            write_ppm(path, frame)
            write_pgm(path := root / rec.mask, mask)
            write_wav(path := root / rec.wav, wave, stft_cfg.sample_rate)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
        return rec

    records = iter(map_ordered(write_clip, [(split, i) for split, count in counts.items() for i in range(count)]))
    splits = {split: [next(records) for _ in range(count)] for split, count in counts.items()}
    dataset = Dataset(root, seed, image_size, n_frames, n_samples, stft_cfg, tuple(cats), splits, config_hash)
    write_atomic(root / "manifest.json", json.dumps(dataset.to_json(), sort_keys=True, indent=1))
    return dataset


class ClipReadError(Exception):
    """A clip file of the dataset could not be read; ``path`` names it.
    Its arguments are the path and the error, so it pickles."""

    def __init__(self, path: Path, exc: Exception):
        super().__init__(path, exc)
        self.path = path

    def __str__(self) -> str:
        path, exc = self.args
        return f"{path}: {type(exc).__name__}: {exc}"


def load_clip(dataset: Dataset, record: ClipRecord) -> AVClip:
    """One clip's frame, mask and waveform; a file that is missing or
    cannot be parsed raises ``ClipReadError``."""
    path = dataset.root / record.frame
    try:
        frame = read_ppm(path)
        path = dataset.root / record.mask
        mask = read_pgm(path) > 127
        path = dataset.root / record.wav
        wave, _ = read_wav(path, expected_rate=dataset.stft.sample_rate)
        if wave.size != dataset.clip_samples:
            raise ValueError(f"{wave.size} samples, the dataset has {dataset.clip_samples} per clip")
    except (OSError, ValueError) as exc:
        raise ClipReadError(path, exc) from exc
    return AVClip(record.id, record.category, frame, wave, mask)


def load_split(dataset: Dataset, split: str) -> list[AVClip]:
    """Every clip of one split, in clip order."""
    return [load_clip(dataset, rec) for rec in dataset.splits[split]]


def mix_waves(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half-gain sum; clips peak at ``PEAK_AMPLITUDE`` < 1, so the sum never clips."""
    mix = MIX_GAIN * a.astype(np.float64) + MIX_GAIN * b.astype(np.float64)
    return np.clip(mix, -1.0, 1.0).astype(np.float32)
