"""The three networks: image analysis, audio analysis, mask synthesizer.

The image net is a small dilated convolutional stack (stride-2 stages
followed by a dilated stage) that emits K pre-activation channel maps;
spatial max pooling turns them into the K-vector that the activation
head (sigmoid, or temperature softmax) squashes.  The audio net is a
skip-connected encoder-decoder over the warped spectrogram grid emitting
K same-resolution feature planes.  The synthesizer is a single linear
layer over the visually weighted audio channels.

The paper's networks, after Zhao et al. 2018, put batch norm after each
convolution.  Here every conv block is ``relu(conv + b)``: no batch
statistics, so a forward pass does not depend on the batch and is
bit-reproducible.  Batch norm's per-channel scale and shift exist to undo
its normalization; without one they would only reparameterize the conv,
so they are absent too.  Each block is one ``tensor.conv2d`` node, with
the bias and the ReLU applied inside its sample ranges; a decoder block
takes the upsampled input and its skip as two parts of that node, so the
U-Net's skip concatenation is never a tensor of its own.

Inference runs the image net once per frame: ``infer_images`` is the only
no-grad image pass, and its maps and vectors feed segmentation, sparsity,
classification accuracy and the assignment table alike.  Its outputs do
not depend on how frames are grouped into batches, so ``INFER_BATCH``
(16) sets only the memory a pass holds: at 32 the conv buffers of a
batch pushed the peak RSS of ``assign`` and ``eval`` up by about 2.5 MB
(glibc heap placement; the traced Python peak was unchanged), and at 16
both fall below what they were.  Segmentation reads
the raw maps.  The only kernel inference runs in float64 is
``tensor._sigmoid`` (training runs it in float32), for the audio-only
masks.  Finite weights can still overflow; an inference pass that gives
a NaN or infinite value raises ``NonFiniteOutput``.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as tc
from .checkpoint import load_tensors, save_tensors
from .tensor import Tensor

MODES = ("sigmoid", "softmax")
INFER_BATCH = 16   # frames per no-grad image pass; see the module docstring


@dataclass(frozen=True)
class ImageNetCfg:
    """Stages are (width, stride, dilation) triples applied in order; a
    1x1 head then maps to the shared channel count."""

    input_size: int = 64
    channels: int = 16
    stages: tuple = ((12, 2, 1), (24, 2, 1), (48, 2, 1), (48, 1, 2))

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(tuple(s) for s in self.stages))


@dataclass(frozen=True)
class AudioNetCfg:
    """widths[0] is the full-resolution stem; widths[1:] the encoder
    stages (grid halves at each).  No widths: the defaults for the depth."""

    grid: int = 64
    depth: int = 4
    channels: int = 16
    widths: tuple | None = None

    def __post_init__(self):
        widths = self.widths
        if widths is None:
            widths = (8, 16, 24, 32, 48) if self.depth == 4 else [min(8 * 2**i, 64) for i in range(self.depth + 1)]
        if (not isinstance(widths, (list, tuple)) or len(widths) != self.depth + 1
                or any(isinstance(w, bool) or not isinstance(w, int) or w < 1 for w in widths)):
            raise ValueError(f"audio_widths must be null or {self.depth + 1} positive integers "
                             f"(depth + 1), got {widths!r}")
        object.__setattr__(self, "widths", tuple(widths))
        if self.grid % (1 << self.depth):
            raise ValueError(f"grid {self.grid} not divisible by 2^{self.depth}")


def _he_conv(rng, f, c, k, scale=1.0):
    std = scale * float(np.sqrt(2.0 / (c * k * k)))
    return Tensor((rng.standard_normal((f, c, k, k)) * std).astype(np.float32), requires_grad=True)


class _ConvBlock:
    """relu(conv + b), with "same" padding for the dilation, as one
    ``tensor.conv2d(..., relu=True)`` node.  Called with a list of
    tensors, it convolves their channel concatenation without building
    it (the decoder's ``[upsampled, skip]``).

    No per-channel scale and shift follow the conv: with no normalization
    in between, s * (W * x + b) + t equals (s W) * x + (s b + t), a conv
    with other weights, so they would add parameters and no function."""

    def __init__(self, rng, c_in, c_out, stride=1, dilation=1, kernel=3):
        self.stride = stride
        self.dilation = dilation
        self.padding = dilation * (kernel - 1) // 2
        self.w = _he_conv(rng, c_out, c_in, kernel)
        self.b = Tensor(np.zeros(c_out, dtype=np.float32), requires_grad=True)

    def __call__(self, x):
        return tc.conv2d(x, self.w, self.b, stride=self.stride, padding=self.padding,
                         dilation=self.dilation, relu=True)

    def params(self, prefix):
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class ImageNet:
    def __init__(self, cfg: ImageNetCfg, rng):
        self.cfg = cfg
        self.blocks = []
        c_in = 3
        for width, stride, dilation in cfg.stages:
            self.blocks.append(_ConvBlock(rng, c_in, width, stride=stride, dilation=dilation))
            c_in = width
        self.head_w = _he_conv(rng, cfg.channels, c_in, 1, scale=0.25)
        self.head_b = Tensor(np.zeros(cfg.channels, dtype=np.float32), requires_grad=True)

    def maps(self, frames: Tensor) -> Tensor:
        """Pre-activation K channel maps for NCHW float frames in [0,1]."""
        n, c, h, w = frames.shape
        if c != 3 or h != self.cfg.input_size or w != self.cfg.input_size:
            raise ValueError(
                f"image net expects Nx3x{self.cfg.input_size}x{self.cfg.input_size}, got {frames.shape}")
        x = frames
        for block in self.blocks:
            x = block(x)
        return tc.conv2d(x, self.head_w, self.head_b)

    def params(self):
        out = {}
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"img.s{i}"))
        out["img.head.w"] = self.head_w
        out["img.head.b"] = self.head_b
        return out


class AudioNet:
    def __init__(self, cfg: AudioNetCfg, rng):
        self.cfg = cfg
        w = cfg.widths
        self.stem = _ConvBlock(rng, 1, w[0])
        self.down = [_ConvBlock(rng, w[i], w[i + 1], stride=2) for i in range(cfg.depth)]
        self.up = [_ConvBlock(rng, w[i + 1] + w[i], w[i]) for i in range(cfg.depth)]
        self.head_w = _he_conv(rng, cfg.channels, w[0], 1, scale=0.25)
        self.head_b = Tensor(np.zeros(cfg.channels, dtype=np.float32), requires_grad=True)

    def feats(self, spec: Tensor) -> Tensor:
        """K pre-activation feature planes; input magnitudes are
        log-compressed on entry."""
        n, c, g, g2 = spec.shape
        if c != 1 or g != self.cfg.grid or g2 != self.cfg.grid:
            raise ValueError(
                f"audio net expects Nx1x{self.cfg.grid}x{self.cfg.grid}, got {spec.shape}")
        x = Tensor(np.log1p(np.maximum(spec.data, 0)))
        skips = [self.stem(x)]
        for block in self.down:
            skips.append(block(skips[-1]))
        y = skips[-1]
        for i in range(self.cfg.depth - 1, -1, -1):
            size = skips[i].shape[2]
            y = self.up[i]([tc.upsample_bilinear(y, size, size), skips[i]])
        return tc.conv2d(y, self.head_w, self.head_b)

    def params(self):
        out = self.stem.params("aud.stem")
        for i, block in enumerate(self.down):
            out.update(block.params(f"aud.d{i}"))
        for i, block in enumerate(self.up):
            out.update(block.params(f"aud.u{i}"))
        out["aud.head.w"] = self.head_w
        out["aud.head.b"] = self.head_b
        return out


class ModelBundle:
    """Parameters and hyperparameters of all three networks plus the
    active activation head (mode + temperature)."""

    def __init__(self, image_cfg: ImageNetCfg, audio_cfg: AudioNetCfg, seed: int = 0,
                 mode: str = "sigmoid", temperature: float = 1.0):
        if image_cfg.channels != audio_cfg.channels:
            raise ValueError(
                f"image net K={image_cfg.channels} differs from audio net K={audio_cfg.channels}")
        self.image_cfg = image_cfg
        self.audio_cfg = audio_cfg
        self.seed = seed
        rng = np.random.default_rng(np.random.SeedSequence([0x5EED, seed]))
        self.image = ImageNet(image_cfg, rng)
        self.audio = AudioNet(audio_cfg, rng)
        k = image_cfg.channels
        self.synth_w = Tensor(np.full(k, 1.0 / k, dtype=np.float32), requires_grad=True)
        self.synth_b = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        self.trained = False
        self.set_mode(mode, temperature)

    @property
    def channels(self) -> int:
        return self.image_cfg.channels

    def set_mode(self, mode: str, temperature: float | None = None):
        if mode not in MODES:
            raise ValueError(f"unknown activation mode {mode!r}")
        if temperature is not None:
            if mode == "softmax" and not temperature > 0:
                raise ValueError("softmax temperature must be positive")
            self.temperature = float(temperature)
        self.mode = mode

    def activate(self, phi: Tensor) -> Tensor:
        if self.mode == "sigmoid":
            return tc.sigmoid(phi)
        return tc.softmax_T(phi, self.temperature)

    def params(self) -> dict:
        out = self.image.params()
        out.update(self.audio.params())
        out["synth.w"] = self.synth_w
        out["synth.b"] = self.synth_b
        return out

    def param_list(self) -> list:
        named = self.params()
        return [named[k] for k in sorted(named)]

    # -- persistence ---------------------------------------------------

    def save(self, path, extra_meta: dict | None = None):
        meta = {
            "kind": "bundle",
            "image_cfg": asdict(self.image_cfg),
            "audio_cfg": asdict(self.audio_cfg),
            "mode": self.mode,
            "temperature": self.temperature,
            "seed": self.seed,
            "trained": self.trained,
        }
        if extra_meta:
            meta.update(extra_meta)
        save_tensors(path, self.params(), meta)

    @classmethod
    def load(cls, path) -> tuple["ModelBundle", dict]:
        """The bundle saved at ``path`` and its meta.  A missing, unexpected,
        misshapen or non-finite (NaN, inf) tensor is a ``ValueError``."""
        arrays, meta = load_tensors(path)
        if meta.get("kind") != "bundle":
            raise ValueError(f"{path}: not a model bundle checkpoint")
        bundle = cls(ImageNetCfg(**meta["image_cfg"]), AudioNetCfg(**meta["audio_cfg"]),
                     seed=meta["seed"], mode=meta["mode"], temperature=meta["temperature"])
        named = bundle.params()
        missing = set(named) - set(arrays)
        if missing:
            raise ValueError(f"{path}: checkpoint missing tensors {sorted(missing)}")
        unexpected = set(arrays) - set(named)
        if unexpected:
            raise ValueError(f"{path}: unexpected tensors {sorted(unexpected)}")
        for name, param in named.items():
            if arrays[name].shape != param.data.shape:
                raise ValueError(f"{path}: shape mismatch for {name}")
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"{path}: non-finite values in {name}")
            param.data[...] = arrays[name]
        bundle.trained = bool(meta["trained"])
        return bundle, meta


# ---------------------------------------------------------------------
# functional surface
# ---------------------------------------------------------------------

def image_forward(frames: Tensor, bundle: ModelBundle):
    """Channel maps, pooled feature vector phi, and activated vector v."""
    maps = bundle.image.maps(frames)
    phi = tc.spatial_max_pool(maps)
    return maps, phi, bundle.activate(phi)


def audio_forward(spec: Tensor, bundle: ModelBundle) -> Tensor:
    return bundle.audio.feats(spec)


def synthesize_mask(v: Tensor, feats: Tensor, bundle: ModelBundle) -> Tensor:
    """sigmoid(sum_k w_k * v[m, k] * feats[m mod N, k] + b): one mask plane
    per row m of the [M, K] ``v``, from the [N, K, G, T] ``feats``, where N
    divides M.  Row m uses the features of mixture m mod N, so the
    symmetric step scores both clips of a pair against one feature pass."""
    k = v.shape[1]
    if k != bundle.channels or feats.shape[1] != bundle.channels:
        raise ValueError(
            f"channel mismatch: v has {k}, feats {feats.shape[1]}, bundle {bundle.channels}")
    return tc.sigmoid(tc.weighted_channel_sum(v, feats, bundle.synth_w, bundle.synth_b))


def audio_only_masks(feats: np.ndarray, channels) -> list[np.ndarray]:
    """Per selected channel of [K, G, T] feature planes, sigmoid(feats_k)
    as a float32 ratio mask on the warped grid."""
    k = feats.shape[0]
    masks = []
    for ch in channels:
        if not 0 <= ch < k:
            raise ValueError(f"channel {ch} out of range for {k} channels")
        masks.append(tc._sigmoid(feats[ch].astype(np.float64)).astype(np.float32))
    return masks


def frames_to_tensor(frames_u8: np.ndarray) -> Tensor:
    """uint8 HWC frame(s) -> float32 NCHW in [0, 1]."""
    arr = np.asarray(frames_u8)
    if arr.ndim == 3:
        arr = arr[None]
    return Tensor(arr.astype(np.float32).transpose(0, 3, 1, 2) / 255.0)


class NonFiniteOutput(ArithmeticError):
    """An inference pass gave a NaN or infinite value: finite weights whose
    forward pass overflows.  Its one argument is the message, so it
    pickles, and ``eval``'s worker processes can send it back."""


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr``, or ``NonFiniteOutput`` naming ``what`` if any value of it
    is NaN or infinite."""
    if not np.isfinite(arr).all():
        raise NonFiniteOutput(f"the forward pass gives non-finite {what}")
    return arr


def infer_images(frames_u8: np.ndarray, bundle: ModelBundle) -> tuple[np.ndarray, np.ndarray]:
    """The no-grad image pass: pre-activation maps [N, K, h, w] float32 and
    activated vectors v [N, K] float64 for one uint8 HWC frame or a
    sequence of them, run in batches of INFER_BATCH.  A NaN or infinite
    map or vector value is ``NonFiniteOutput``, and the overflow warnings
    on the way to it are silenced."""
    frames_u8 = np.asarray(frames_u8)
    if frames_u8.ndim == 3:
        frames_u8 = frames_u8[None]
    maps, vs = [], []
    with tc.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(frames_u8), INFER_BATCH):
            m, _, v = image_forward(frames_to_tensor(frames_u8[lo:lo + INFER_BATCH]), bundle)
            maps.append(m.data)
            vs.append(v.data.astype(np.float64))
    return _finite(np.concatenate(maps), "image maps"), _finite(np.concatenate(vs), "image vectors")


def segment(maps: np.ndarray, bundle: ModelBundle, channels, tau: float = 0.5) -> np.ndarray:
    """Image-only segmentation of [N, K, h, w] maps from ``infer_images``,
    one channel per sample: upsample the selected raw map to the input
    size and keep the pixels tau of its range or more above its minimum
    (all of a constant map).  Returns bool masks [N, S, S]."""
    if not 0 < tau < 1:
        raise ValueError(f"threshold tau must lie in (0, 1), got {tau}")
    channels = np.asarray(channels, dtype=np.int64).reshape(-1)
    if len(channels) != len(maps):
        raise ValueError(f"{len(channels)} channels for {len(maps)} maps")
    if np.any((channels < 0) | (channels >= bundle.channels)):
        raise ValueError(f"channel out of range for {bundle.channels} channels")
    if not bundle.trained:
        warnings.warn("segmenting with an untrained bundle", stacklevel=2)
    picked = maps[np.arange(len(channels)), channels][:, None].astype(np.float32)
    size = bundle.image_cfg.input_size
    with tc.no_grad():
        planes = tc.upsample_bilinear(Tensor(picked), size, size).data[:, 0]
    lo = planes.min(axis=(1, 2), keepdims=True)
    hi = planes.max(axis=(1, 2), keepdims=True)
    return planes - lo >= tau * (hi - lo)
