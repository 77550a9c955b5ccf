"""Dense tensors with reverse-mode automatic differentiation.

Float32 is the working precision for all training; float64 tensors are
supported so numerical checks can run at full precision.  The networks
use 2-d convolution with stride and dilation (with its bias, and
optionally a ReLU and a multi-part input, in one node), align-corners
bilinear upsampling, global spatial max pooling, sigmoid / temperature
softmax, the synthesizer's ``weighted_channel_sum`` and binary cross
entropy, and those are the only ops here.  The elementary nodes that the
fused ones are checked against, bit for bit, are the reference chain in
``tests/oracles.py``.

``conv2d`` picks one of two lowerings from the operand shapes alone.  A
stride-1 convolution with a wider kernel that narrows the channels
(F < C) expands the kernel offsets on the F-wide output side: one GEMM
of the stacked kernels against the padded input, then shifted
slice-adds; its input gradient is the transposed convolution of the
output gradient (Dumoulin & Visin 2016).  Every other convolution is
im2col: it gathers a C-wide buffer of every kernel offset, except that a
1x1 kernel at stride 1, whose one offset spans the padded input, reads
that input in place as [N, C, H*W], with no gather and no scatter.

A conv block is one ``conv2d`` node.  Its input may be a list of parts,
read as their channel concatenation: each part is copied into its
channel slice of the zero-padded buffer the lowering reads anyway, and
each gets its own crop of the padded-input gradient, so the
concatenation never exists as a tensor.  With ``relu`` the ReLU is an
epilogue: ``max(y, 0)`` in place after the bias add, and the mask
``g * (y > 0)`` in place on the output gradient (a buffer the node owns,
see below) before the lowering's backward reads it.  This is
bit-identical to ``relu(conv2d(concat(parts)))`` built from nodes of
their own: the padded buffer holds the same values, so every GEMM sees
the same operands; ``max(y, 0) > 0`` exactly where ``y > 0``, so the
mask and the masked gradient are the same; and each part's gradient is
the same crop, copied once.  A block keeps one activation instead of
three.

The per-sample work of a lowering (padding copies, gathers, GEMMs,
scatters, the bias add and the ReLU or its mask) runs in the W ranges of
``workers.over_samples``, and the result is the same bits at any W:
``np.matmul`` over an [N, ...] stack is one BLAS call per sample, the
same call on a slice, and the sums across samples (the kernel and bias
gradients) run on the caller after every range, in the order of W = 1.

``weighted_channel_sum`` is the synthesizer's linear layer as one node,
``sum_k w_k v[m, k] feats[m mod N, k] + b``: the M rows of ``v`` share N
feature planes, so the symmetric training step never copies the audio
features, and no [M, K, G, T] product is kept for the backward pass.  It
is bit-identical to the chain of elementary ops it replaces
(``synthesizer_chain`` in ``tests/oracles.py``).

A computation graph is recorded only while at least one input has
``requires_grad`` set and grad mode is enabled (see ``no_grad``).  Grad
mode is one module-level flag: a ``no_grad`` block switches recording
off for the whole process and restores the previous state on leaving.
``backward`` walks the recorded nodes once, in reverse topological
order, which makes repeated runs bit-identical on the same machine.
One rule keeps gradient buffers apart: every op hands each input a
gradient array that it allocated for that input alone, in the input's
shape and dtype, and ``_acc(g)`` keeps a first gradient as it is (the
node's ``grad``) and adds later ones into it.  The one place an op holds
a view instead is ``conv2d``'s crop of a padded or multi-part input
gradient; ``conv2d`` copies each crop itself.  So no two tensors' grads
share memory, and later accumulation into one never reaches another.
The walk releases what it has passed: after a node's backward has run,
an interior node drops its grad, its closure (with the buffers it saved)
and its inputs, while leaves keep their grads for the optimizer.  One
graph backs one backward; a second walk over a released graph raises.

Each activation is one numpy kernel, ``_sigmoid`` or ``_softmax``,
computed in its input's dtype.  ``sigmoid`` and ``softmax_T`` run them in
the tensor's dtype (float32 in training).  ``avnets`` runs ``_sigmoid`` in
float64 for the audio-only masks; ``_softmax`` serves ``softmax_T`` alone.
"""

from __future__ import annotations

import functools
import itertools
import warnings

import numpy as np

from .dsp import interp_rows
from .workers import over_samples

__all__ = [
    "Tensor",
    "no_grad",
    "sigmoid",
    "softmax_T",
    "weighted_channel_sum",
    "conv2d",
    "upsample_bilinear",
    "spatial_max_pool",
    "bce_loss",
    "backward",
    "Adam",
]

BCE_EPS = 1e-7


_grad_enabled = True

# bumped once per backward() call; Adam uses it to detect stale grads
_backward_counter = 0


class no_grad:
    """Context manager that suspends graph recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev


class Tensor:
    """N-dimensional array with an optional gradient buffer.

    ``data`` is contiguous and row-major.  A leaf's ``grad`` exists iff
    ``requires_grad``; an interior node's exists from its first gradient
    in ``backward`` until the walk releases the node.  A ``grad`` always
    matches ``data``'s shape and dtype.
    """

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None:
            # float64 survives so numerical oracles can run at full precision;
            # everything else lands in the float32 working precision
            dtype = np.float64 if (isinstance(data, (np.ndarray, np.generic)) and data.dtype == np.float64) else np.float32
        self.data = np.ascontiguousarray(np.asarray(data, dtype=dtype))
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._prev: tuple = ()
        self._backward = None

    # -- introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0

    def _acc(self, g):
        """Add ``g`` into ``grad``.  A first gradient is kept as it is: the
        op hands over an array it allocated for this input alone (see the
        module docstring), so it must match ``data``'s shape and dtype."""
        if self.grad is not None:
            self.grad += g
        elif g.shape != self.data.shape or g.dtype != self.data.dtype:
            raise ValueError(f"first gradient {g.shape} {g.dtype} does not match "
                             f"data {self.data.shape} {self.data.dtype}")
        else:
            self.grad = g


def _make_node(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    """Attach a graph node to ``out`` if recording is active.

    Interior nodes allocate their grad buffer lazily on first
    accumulation during backward; user-constructed leaves keep the eager
    buffer from __init__."""
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.grad = None
        out._prev = inputs
        out._backward = backward_fn
    return out


# ---------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in the dtype of ``x``.  Where exp(-x) overflows
    to inf the value is exactly 0, as it should be; the overflow warning
    is silenced."""
    with np.errstate(over="ignore"):
        return 1 / (1 + np.exp(-x))


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    out = Tensor(y)

    def _bw(g):
        if a.requires_grad:
            a._acc(g * (y * (1 - y)))

    return _make_node(out, (a,), _bw)


def _softmax(x: np.ndarray, T: float) -> np.ndarray:
    """exp(x / T) normalized over the last axis, max-subtracted for
    stability, in the dtype of ``x``."""
    z = x / x.dtype.type(T)
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_T(a: Tensor, T: float) -> Tensor:
    """Temperature softmax over the last axis."""
    if not T > 0:
        raise ValueError(f"softmax temperature must be positive, got {T}")
    y = _softmax(a.data, T)
    out = Tensor(y)

    def _bw(g):
        if a.requires_grad:
            dot = (g * y).sum(axis=-1, keepdims=True)
            a._acc((y * (g - dot) / T).astype(a.dtype, copy=False))

    return _make_node(out, (a,), _bw)


def weighted_channel_sum(v: Tensor, feats: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``sum_k w[k] * v[m, k] * feats[m mod N, k] + b`` as one node.

    ``v`` is [M, K], ``feats`` [N, K, G, T] with N dividing M, ``w`` [K]
    and ``b`` [1]; the result is [M, 1, G, T], so M rows of ``v`` share N
    feature planes without a copy.  The value and all four gradients use
    the float32 products and summation orders of the elementary chain
    ``concat -> reshape -> mul -> mul -> tsum -> add``, so they are
    bit-identical to it: the channels are summed in order, and each
    (row, channel) gradient of ``v`` and ``w`` is numpy's sum over one
    contiguous [G*T] plane.
    """
    M, K = v.data.shape
    N, Kf, G, T = feats.data.shape
    if Kf != K or w.data.shape != (K,) or b.data.shape != (1,) or M % N:
        raise ValueError(f"weighted_channel_sum: v {v.data.shape}, feats {feats.data.shape}, "
                         f"w {w.data.shape}, b {b.data.shape}")
    R = M // N
    fd = feats.data
    coef = (v.data * w.data).reshape(R, N, K)
    y = np.empty((M, 1, G, T), dtype=np.result_type(coef, fd, b.data))
    yr = y.reshape(R, N, G, T)
    term = np.empty_like(yr)
    np.multiply(coef[:, :, 0, None, None], fd[:, 0], out=yr)
    for k in range(1, K):
        np.multiply(coef[:, :, k, None, None], fd[:, k], out=term)
        yr += term
    yr += b.data
    out = Tensor(y)

    def _bw(g):
        gr = g.reshape(R, N, G * T)
        if b.requires_grad:
            b._acc(g.sum(axis=(0, 2, 3)).astype(b.dtype, copy=False))
        if v.requires_grad or w.requires_grad:
            gcoef = np.empty((R, N, K), dtype=y.dtype)
            prod = np.empty_like(gr)
            for k in range(K):
                np.multiply(gr, fd[:, k].reshape(N, G * T), out=prod)
                gcoef[:, :, k] = prod.sum(axis=2)
            gcoef = gcoef.reshape(M, K)
            if v.requires_grad:
                v._acc((gcoef * w.data).astype(v.dtype, copy=False))
            if w.requires_grad:
                w._acc((gcoef * v.data).sum(axis=0).astype(w.dtype, copy=False))
        if feats.requires_grad:
            # Channels innermost, the layout of the chain's gradient (a copy
            # of a channel-broadcast plane): the feature net's last conv
            # reduces this buffer, and its float32 sums follow the layout.
            # It is written in that (N, G, T, K) order and handed over as
            # the [N, K, G, T] view.
            gf = np.empty((N, G, T, K), dtype=y.dtype)
            g5 = g.reshape(R, N, G, T, 1)
            np.multiply(g5[0], coef[0, :, None, None, :], out=gf)
            for r in range(1, R):
                gf += g5[r] * coef[r, :, None, None, :]
            feats._acc(gf.transpose(0, 3, 1, 2).astype(feats.dtype, copy=False))

    return _make_node(out, (v, feats, w, b), _bw)


# ---------------------------------------------------------------------
# spatial ops
# ---------------------------------------------------------------------

def _taps(kh: int, kw: int, dilation: int, stride: int, out_h: int, out_w: int):
    """Kernel offsets in row-major order, each as the (rows, cols) slices
    of the padded input that the offset reads for every output position."""
    return [(slice(iy * dilation, iy * dilation + 1 + stride * (out_h - 1), stride),
             slice(ix * dilation, ix * dilation + 1 + stride * (out_w - 1), stride))
            for iy in range(kh) for ix in range(kw)]


def _conv_im2col(xp, wd, taps, out_h, out_w):
    """C-wide lowering: gather every offset of the padded input into one
    [C*k*k, L] matrix per sample and multiply by the flattened kernels.
    When the one offset spans the whole padded input (a 1x1 kernel at
    stride 1), that matrix is ``xp`` itself, read in place, and the
    input gradient is the buffer of its GEMM, with no scatter.

    Returns the output buffer [N, F, out_h, out_w], a function that fills
    samples [lo, hi) of it from the same samples of ``xp``, and a function
    that takes its gradient and returns ``(run, finish)``: ``run(lo, hi)``
    does the backward work of samples [lo, hi), and ``finish()``, called
    once every range has run, returns (padded-input gradient or None,
    kernel gradient or None).  Every buffer is allocated before any range
    runs; the kernel gradient is the sum over the per-sample GEMM stack,
    taken in ``finish``.  ``run`` reads the gradient's samples [lo, hi)
    only when it runs, so the caller may rewrite them first.
    """
    N, C, Hp, Wp = xp.shape
    F, K, L = wd.shape[0], len(taps), out_h * out_w
    in_place = K == 1 and (out_h, out_w) == (Hp, Wp)
    cols = None if in_place else np.empty((N, C, K, out_h, out_w), dtype=xp.dtype)
    cols_mat = (xp if in_place else cols).reshape(N, C * K, L)
    w_mat = wd.reshape(F, C * K)
    y = np.empty((N, F, L), dtype=np.result_type(w_mat, cols_mat))

    def fill(lo, hi):
        if not in_place:
            cr, xr = cols[lo:hi], xp[lo:hi]
            for t, (sy, sx) in enumerate(taps):
                cr[:, :, t] = xr[:, :, sy, sx]
        np.matmul(w_mat, cols_mat[lo:hi], out=y[lo:hi])

    def grads(g, want_x, want_w):
        g_mat = g.reshape(N, F, L)
        gw = np.empty((N, F, C * K), dtype=np.result_type(g_mat, cols_mat)) if want_w else None
        gcols = np.empty((N, C * K, L), dtype=np.result_type(w_mat, g_mat)) if want_x else None
        # in place, gcols is the input gradient; a scatter would copy it, turning -0.0 into +0.0
        gxp = np.empty((N, C, Hp, Wp), dtype=xp.dtype) if want_x and not in_place else None

        def backward(lo, hi):
            if want_w:
                # batched sgemm with a strided transpose avoids tensordot's copies
                np.matmul(g_mat[lo:hi], cols_mat[lo:hi].transpose(0, 2, 1), out=gw[lo:hi])
            if want_x:
                np.matmul(w_mat.T, g_mat[lo:hi], out=gcols[lo:hi])
            if gxp is not None:
                gc, gxr = gcols[lo:hi].reshape(hi - lo, C, K, out_h, out_w), gxp[lo:hi]
                gxr[...] = 0
                for t, (sy, sx) in enumerate(taps):
                    gxr[:, :, sy, sx] += gc[:, :, t]

        def finish():
            gx = gcols.reshape(N, C, Hp, Wp) if in_place and want_x else gxp
            return gx, None if gw is None else gw.sum(axis=0).reshape(wd.shape)

        return backward, finish

    return y.reshape(N, F, out_h, out_w), fill, grads


def _conv_narrow(xp, wd, taps, out_h, out_w):
    """F-wide lowering for stride 1: one GEMM of the k*k stacked [F, C]
    kernels against the padded input gives each offset's contribution at
    every padded position; shifted slice-adds sum them into the output.

    The backward places the output gradient at each offset in one
    [N, k*k*F, Hp*Wp] buffer; one GEMM against the padded input gives the
    kernel gradient and one with the stacked kernels transposed gives the
    padded-input gradient (a transposed convolution).  Same return
    contract as ``_conv_im2col``.
    """
    N, C, Hp, Wp = xp.shape
    F, K = wd.shape[0], len(taps)
    xp_mat = xp.reshape(N, C, Hp * Wp)
    w_stk = wd.reshape(F, C, K).transpose(2, 0, 1).reshape(K * F, C)
    z = np.empty((N, K * F, Hp * Wp), dtype=np.result_type(w_stk, xp_mat))
    z5 = z.reshape(N, K, F, Hp, Wp)
    y = np.empty((N, F, out_h, out_w), dtype=z.dtype)

    def fill(lo, hi):
        np.matmul(w_stk, xp_mat[lo:hi], out=z[lo:hi])
        zr, yr = z5[lo:hi], y[lo:hi]
        yr[...] = zr[:, 0, :, taps[0][0], taps[0][1]]
        for t in range(1, K):
            yr += zr[:, t, :, taps[t][0], taps[t][1]]

    def grads(g, want_x, want_w):
        gz = np.empty((N, K, F, Hp, Wp), dtype=xp.dtype)
        gz_mat = gz.reshape(N, K * F, Hp * Wp)
        gw = np.empty((N, K * F, C), dtype=np.result_type(gz_mat, xp_mat)) if want_w else None
        gxp = np.empty((N, C, Hp * Wp), dtype=np.result_type(w_stk, gz_mat)) if want_x else None

        def backward(lo, hi):
            gzr, gr = gz[lo:hi], g[lo:hi]
            gzr[...] = 0
            for t, (sy, sx) in enumerate(taps):
                gzr[:, t, :, sy, sx] = gr
            if want_w:
                np.matmul(gz_mat[lo:hi], xp_mat[lo:hi].transpose(0, 2, 1), out=gw[lo:hi])
            if want_x:
                np.matmul(w_stk.T, gz_mat[lo:hi], out=gxp[lo:hi])

        def finish():
            gw_k = None if gw is None else (
                gw.sum(axis=0).reshape(K, F, C).transpose(1, 2, 0).reshape(wd.shape))   # [K*F, C] -> FCkk
            return None if gxp is None else gxp.reshape(N, C, Hp, Wp), gw_k

        return backward, finish

    return y, fill, grads


def conv2d(x: Tensor | list[Tensor], w: Tensor, b: Tensor, stride: int = 1, padding: int = 0,
           dilation: int = 1, relu: bool = False) -> Tensor:
    """Cross-correlation of NCHW input with FCkk kernels, plus the [F]
    bias ``b``, and ``max(., 0)`` of that if ``relu``.

    ``x`` is one tensor or a sequence of tensors with the same N, H and
    W, read as their concatenation along the channels: each part is
    copied into its channel slice of the padded buffer, and each gets its
    own crop of the padded-input gradient.  Odd kernels only.  Output size
    follows the usual (H + 2p - d*(k-1) - 1)/s + 1 arithmetic and must
    come out a positive integer.  The operand shapes pick the lowering,
    and the samples run as ranges of ``workers.over_samples`` (see the
    module docstring).
    """
    parts = (x,) if isinstance(x, Tensor) else tuple(x)
    if not parts or any(p.data.ndim != 4 or p.data.shape[0] != parts[0].data.shape[0]
                        or p.data.shape[2:] != parts[0].data.shape[2:] for p in parts):
        raise ValueError(f"conv2d: inputs must be NCHW with equal N, H and W, got "
                         f"{[p.data.shape for p in parts]}")
    N, _, H, W = parts[0].data.shape
    bounds = list(itertools.accumulate((p.data.shape[1] for p in parts), initial=0))   # channel slices
    C = bounds[-1]
    F, Cw, kh, kw = w.data.shape
    if Cw != C:
        raise ValueError(f"conv2d: input has {C} channels but kernel expects {Cw}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel dims must be odd, got {kh}x{kw}")
    if stride < 1 or dilation < 1:
        raise ValueError("conv2d: stride and dilation must be >= 1")
    span_h = dilation * (kh - 1) + 1
    span_w = dilation * (kw - 1) + 1
    num_h = H + 2 * padding - span_h
    num_w = W + 2 * padding - span_w
    if num_h < 0 or num_w < 0:
        raise ValueError(
            f"conv2d: non-positive output size for input {H}x{W}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}, dilation {dilation}")
    out_h = num_h // stride + 1
    out_w = num_w // stride + 1

    # one unpadded input is the lowering's operand as it stands
    whole = len(parts) == 1 and not padding
    if whole:
        xp = parts[0].data
    else:
        shape, dtype = (N, C, H + 2 * padding, W + 2 * padding), np.result_type(*(p.data for p in parts))
        xp = np.zeros(shape, dtype=dtype) if padding else np.empty(shape, dtype=dtype)
    lower = _conv_narrow if stride == 1 and F < C and kh * kw > 1 else _conv_im2col
    y, fill, grads = lower(xp, w.data, _taps(kh, kw, dilation, stride, out_h, out_w), out_h, out_w)
    bias = b.data.reshape(1, F, 1, 1)

    def forward(lo, hi):
        if not whole:
            for part, c0, c1 in zip(parts, bounds[:-1], bounds[1:]):
                xp[lo:hi, c0:c1, padding:padding + H, padding:padding + W] = part.data[lo:hi]
        fill(lo, hi)
        yr = y[lo:hi]
        yr += bias
        if relu:
            np.maximum(yr, 0, out=yr)

    over_samples(forward, N)
    out = Tensor(y)

    def _bw(g):
        if relu:
            # the ranges mask g in place, through the lowering's views of
            # it; the lowering would copy a non-contiguous g before that
            g = np.ascontiguousarray(g)
        run, finish = grads(g, any(p.requires_grad for p in parts), w.requires_grad)

        def backward(lo, hi):
            if relu:
                gr = g[lo:hi]
                np.multiply(gr, y[lo:hi] > 0, out=gr)
            run(lo, hi)

        over_samples(backward, N)
        if b.requires_grad:
            b._acc(g.reshape(N, F, -1).sum(axis=(0, 2)).astype(b.dtype, copy=False))
        gxp, gw = finish()
        if gw is not None:
            w._acc(gw.astype(w.dtype, copy=False))
        if gxp is not None:
            # a crop of a padded or shared buffer is copied, so the part's
            # grad owns its memory
            for part, c0, c1 in zip(parts, bounds[:-1], bounds[1:]):
                if part.requires_grad:
                    crop = gxp[:, c0:c1, padding:padding + H, padding:padding + W]
                    part._acc(crop.astype(part.dtype, copy=not whole))

    return _make_node(out, (*parts, w, b), _bw)


@functools.cache
def _lerp_matrix(src: int, dst: int, dtype) -> np.ndarray:
    """Dense read-only [dst, src] align-corners linear interpolation matrix."""
    if dst == 1 or src == 1:
        m = np.zeros((dst, src), dtype=dtype)
        m[:, 0] = 1
    else:
        m = interp_rows(np.arange(dst) * (src - 1) / (dst - 1), src, dtype)
    m.setflags(write=False)
    return m


def upsample_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Align-corners bilinear upsampling of NCHW input: one read-only
    ``dsp.interp_rows`` table per axis, cached per (size, target, dtype)."""
    N, C, h, w = x.data.shape
    if out_h < h or out_w < w:
        raise ValueError(f"upsample_bilinear: target {out_h}x{out_w} smaller than input {h}x{w}")
    My = _lerp_matrix(h, out_h, x.dtype)
    Mx = _lerp_matrix(w, out_w, x.dtype)
    out = Tensor(np.matmul(np.matmul(My, x.data), Mx.T))

    def _bw(g):
        if x.requires_grad:
            x._acc(np.matmul(np.matmul(My.T, g), Mx))

    return _make_node(out, (x,), _bw)


def spatial_max_pool(x: Tensor) -> Tensor:
    """Global per-channel max over H,W; gradient goes to the first
    (row-major) argmax position only."""
    N, K, h, w = x.data.shape
    flat = x.data.reshape(N, K, h * w)
    idx = flat.argmax(axis=2)  # first occurrence in row-major order
    out = Tensor(np.take_along_axis(flat, idx[:, :, None], axis=2)[:, :, 0])

    def _bw(g):
        if x.requires_grad:
            gflat = np.zeros((N, K, h * w), dtype=x.dtype)
            np.put_along_axis(gflat, idx[:, :, None], g[:, :, None], axis=2)
            x._acc(gflat.reshape(N, K, h, w))

    return _make_node(out, (x,), _bw)


# ---------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------

def bce_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross entropy; predictions clamped to [eps, 1-eps].
    The target is a constant: one that requires grad raises."""
    if pred.data.shape != target.data.shape:
        raise ValueError(f"bce_loss: shape mismatch {pred.data.shape} vs {target.data.shape}")
    if target.requires_grad:
        raise ValueError("bce_loss: the target must not require grad")
    eps = pred.dtype.type(BCE_EPS)
    p = np.clip(pred.data, eps, 1 - eps)
    t = target.data
    loss = -(t * np.log(p) + (1 - t) * np.log1p(-p)).mean()
    out = Tensor(np.asarray(loss, dtype=pred.dtype))
    n = pred.data.size

    def _bw(g):
        if pred.requires_grad:
            inside = (pred.data >= eps) & (pred.data <= 1 - eps)
            gp = np.where(inside, (p - t) / (p * (1 - p)), 0) * (g / n)
            pred._acc(gp.astype(pred.dtype, copy=False))

    return _make_node(out, (pred,), _bw)


# ---------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate grads of every requires_grad leaf reachable from ``loss``.

    ``loss`` must hold a single element.  Nodes are visited exactly once,
    in reverse topological order, and the walk releases the graph as it
    goes: once a node's backward has run, every node with inputs drops
    its ``grad``, its backward closure and its inputs, so an activation,
    its gradient and the buffers its closure saved are freed as the walk
    passes them.  Leaves keep their ``grad``.  A graph backs one
    backward: walking a released node again raises ``RuntimeError``, and
    a fresh forward pass records a new graph.
    """
    global _backward_counter
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node.requires_grad and node.grad is None and not node._prev:
            raise RuntimeError("backward: this graph was released by an earlier backward; "
                               "run the forward pass again")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in seen:
                stack.append((p, False))
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad[...] = 1
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._prev:
            # release the node: its consumers have all run, so nothing
            # reads its grad again, and its closure's buffers go with it
            node.grad = node._backward = None
            node._prev = ()
    _backward_counter += 1


# ---------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------

class Adam:
    """Adam with bias correction; moments kept in the parameter dtype.
    ``b1`` and ``b2`` are the decay rates of the two moments.  A ``step``
    with no backward pass since the previous one warns and leaves the
    parameters alone."""

    def __init__(self, params, lr: float = 1e-3, b1: float = 0.9,
                 b2: float = 0.999, eps: float = 1e-8):
        if not lr > 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = float(lr)
        self.step_count = 0
        self._last_backward = _backward_counter
        self.b1, self.b2, self.eps = b1, b2, eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        if _backward_counter == self._last_backward:
            warnings.warn("optimizer step before any new backward pass; skipping", stacklevel=2)
            return
        self._last_backward = _backward_counter
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.b1, self.b2
        c1 = 1 - b1 ** t
        c2 = 1 - b2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * (p.grad * p.grad)
            p.data -= (self.lr / c1) * m / (np.sqrt(v / c2) + self.eps)
