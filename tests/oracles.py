"""Shared independent oracles for the test suite.

The gradient checker here never looks at backward rules: it re-evaluates
the forward pass under central finite differences in float64 and compares
coordinate by coordinate against whatever backward produced.  The
per-clip image metrics compute evaluation's IoU, sparsity and accuracy one
clip and one forward at a time; the batched evaluation must equal them
exactly.  ``synthesizer_chain`` is the synthesizer as the graph of
elementary ops it was built from before ``tensor.weighted_channel_sum``
fused it; the fused node must equal it bit for bit.  ``relu`` and
``concat`` are the ReLU and channel concatenation as graph nodes of their
own; ``relu(conv2d(concat(parts)))`` is the conv block that
``tensor.conv2d(parts, ..., relu=True)`` fuses into one node, and the
fused node must equal it bit for bit.  The NMF references
run the multiplicative updates as plain one-expression formulas, each
step a fresh array; the buffered updates in ``nmf`` must equal them bit
for bit; ``kl_divergence`` is the divergence their tests check for
monotone descent.  ``interp_table`` and its three position rules
rebuild the resampling tables of ``dsp`` and ``tensor`` one row at a
time from plain floats; the vectorized builder must equal them bit for
bit.
``sigmoid64`` is the float64 sigmoid written out as one expression; the
sigmoid paths of ``avnets`` must equal it bit for bit.
``deadline`` turns a call that would loop forever into a failure.
``backward_checking_grad_owners`` runs a backward pass and checks, at
every node's backward call, that no two live gradient buffers share
memory, since the walk releases interior grads as it passes them.
"""

import contextlib
import math
import signal

import numpy as np

from cosep import avnets, tensor as tc
from cosep.disentangle import sparsity
from cosep.dsp import OLA_EPS
from cosep.metrics import DB_CAP, iou
from cosep.nmf import EPS


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def check_gradients(build_loss, leaves, rng, probes=100, h=1e-3, rtol=1e-3):
    """Compare analytic grads of ``build_loss(leaves)`` with central differences.

    ``leaves`` are float64 Tensors with requires_grad set.  ``build_loss``
    must rebuild the graph from the leaves on every call (the perturbed
    forwards reuse it).  Returns the worst relative error seen.
    """
    for leaf in leaves:
        assert leaf.dtype == np.float64, "gradient checks run in float64"
        leaf.zero_grad()
    loss = build_loss()
    tc.backward(loss)
    analytic = [leaf.grad.copy() for leaf in leaves]

    coords = []
    for li, leaf in enumerate(leaves):
        for flat in range(leaf.size):
            coords.append((li, flat))
    take = min(probes, len(coords))
    picked = [coords[i] for i in rng.choice(len(coords), size=take, replace=False)]

    worst = 0.0
    for li, flat in picked:
        leaf = leaves[li]
        base = leaf.data.reshape(-1)[flat]
        leaf.data.reshape(-1)[flat] = base + h
        up = build_loss().item()
        leaf.data.reshape(-1)[flat] = base - h
        down = build_loss().item()
        leaf.data.reshape(-1)[flat] = base
        numeric = (up - down) / (2 * h)
        err = rel_err(analytic[li].reshape(-1)[flat], numeric)
        worst = max(worst, float(err))
        assert err <= rtol, (
            f"gradient mismatch at leaf {li} coord {flat}: "
            f"analytic {analytic[li].reshape(-1)[flat]:.8g} vs numeric {numeric:.8g}")
    return worst


def relu(a):
    """``max(a, 0)`` as its own node; its gradient is ``g * (a > 0)``."""
    out = tc.Tensor(np.maximum(a.data, 0))

    def _bw(g):
        if a.requires_grad:
            a._acc(g * (a.data > 0), fresh=True)

    return tc._make_node(out, (a,), _bw)


def concat(tensors, axis=1):
    """``tensors`` joined along ``axis`` as one node; each input's gradient
    is its slice of the output gradient."""
    tensors = tuple(tensors)
    out = tc.Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def _bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._acc(g[tuple(idx)])

    return tc._make_node(out, tensors, _bw)


def synthesizer_chain(v, feats, w, b):
    """``sum_k w[k] * v[m, k] * feats[m mod N, k] + b`` for [M, K] ``v``
    and [N, K, G, T] ``feats`` Tensors, from elementary ops: ``feats``
    concatenated M/N times along the batch, then reshape, mul, mul, tsum
    and add."""
    (M, K), N = v.shape, feats.shape[0]
    stacked = concat([feats] * (M // N), axis=0)
    coef = tc.mul(tc.reshape(v, (M, K, 1, 1)), tc.reshape(w, (1, K, 1, 1)))
    return tc.add(tc.tsum(tc.mul(coef, stacked), axis=1, keepdims=True),
                  tc.reshape(b, (1, 1, 1, 1)))


def graph_of(loss) -> list:
    """Every tensor reachable from ``loss`` through recorded inputs, once."""
    graph, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in graph:
            graph[id(t)] = t
            stack.extend(t._prev)
    return list(graph.values())


def backward_checking_grad_owners(loss, walk=tc.backward) -> int:
    """Run ``walk(loss)`` and check that no two live grads of the graph
    share memory: before and after each node's backward (after it, the
    node's own grad and those it handed on are all live, since the walk
    releases the node only then) and after the walk.  Also check that
    every tensor of the graph that requires a grad got one: an interior
    node when its backward is called, a leaf after the walk.  Returns how
    many tensors of the graph require a grad."""
    nodes = graph_of(loss)
    leaves = [t for t in nodes if t.requires_grad and not t._prev]
    interior = sum(bool(t._prev) for t in nodes)
    called = []

    def check_unshared():
        live = [t.grad for t in nodes if t.grad is not None]
        for i, a in enumerate(live):
            for b in live[i + 1:]:
                assert not np.shares_memory(a, b)

    def checking(fn):
        def run(g):
            check_unshared()
            called.append(1)
            fn(g)
            check_unshared()
        return run

    for t in nodes:
        if t._backward is not None:
            t._backward = checking(t._backward)
    walk(loss)
    check_unshared()
    assert len(called) == interior and all(t.grad is not None for t in leaves)
    return interior + len(leaves)


def direct_conv2d(x, w, b, stride, padding, dilation):
    """Float64 cross-correlation plus the [F] bias ``b``, by explicit loops
    over output positions."""
    N, C, H, W = x.shape
    F, _, kh, kw = w.shape
    xp = np.pad(np.asarray(x, dtype=np.float64),
                ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    span_h = dilation * (kh - 1) + 1
    span_w = dilation * (kw - 1) + 1
    out_h = (H + 2 * padding - span_h) // stride + 1
    out_w = (W + 2 * padding - span_w) // stride + 1
    y = np.zeros((N, F, out_h, out_w))
    for n in range(N):
        for oy in range(out_h):
            for ox in range(out_w):
                y0, x0 = oy * stride, ox * stride
                patch = xp[n, :, y0:y0 + span_h:dilation, x0:x0 + span_w:dilation]
                for f in range(F):
                    y[n, f, oy, ox] = np.sum(w[f] * patch) + b[f]
    return y


def inflate_kernel(w, dilation):
    """Zero-inflate a kernel so dilation-d conv equals dilation-1 conv."""
    F, C, kh, kw = w.shape
    nh = dilation * (kh - 1) + 1
    nw = dilation * (kw - 1) + 1
    out = np.zeros((F, C, nh, nw), dtype=w.dtype)
    out[:, :, ::dilation, ::dilation] = w
    return out


def brute_force_assignment(profit):
    """Exhaustive best injective rows->cols map; returns (best_map, best_profit)."""
    from itertools import permutations

    C, K = profit.shape
    best = None
    best_p = -np.inf
    for perm in permutations(range(K), C):
        p = sum(profit[c, perm[c]] for c in range(C))
        if p > best_p:
            best_p = p
            best = perm
    return list(best), best_p


def per_clip_image_metrics(bundle, assignment, clips, tau):
    """Image-only metrics one clip at a time, as evaluation computed them
    before the batched pass: mean IoU of a batch-1 segmentation, mean
    sparsity of a batch-1 ``image_forward`` and argmax accuracy.  Returns
    (IoU, sparsity, accuracy)."""
    ious, spars, hits = [], [], 0
    size = bundle.image_cfg.input_size
    for clip in clips:
        channel = assignment.channel_for(clip.category)
        with tc.no_grad():
            maps, _, v = avnets.image_forward(avnets.frames_to_tensor(clip.frame), bundle)
        with tc.no_grad():
            up = tc.upsample_bilinear(tc.Tensor(maps.data[:, channel:channel + 1]), size, size)
        plane = up.data[0, 0]
        lo, hi = plane.min(), plane.max()
        ious.append(iou(plane - lo >= tau * (hi - lo), clip.gt_mask))
        spars.append(sparsity(v.data[0]))
        hits += int(np.argmax(v.data[0])) == channel
    return float(np.mean(ious)), float(np.mean(spars)), hits / len(clips)


def sigmoid64(x):
    """1 / (1 + exp(-x)) in float64, the overflow warning silenced."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x.astype(np.float64)))


def kl_divergence(v, wh):
    """Generalized KL divergence D(V || WH), with 0*log(0) treated as 0."""
    term = np.where(v > 0, v * np.log((v + EPS) / (wh + EPS)), 0.0)
    return float(np.sum(term - v + wh))


def nmf_fit_reference(v, rank, iters, seed):
    """``nmf.nmf_fit``'s bases from the plain update expressions."""
    rng = np.random.default_rng(np.random.SeedSequence([0x4E4D46, seed]))
    w = rng.uniform(0.1, 1.1, size=(v.shape[0], rank))
    h = rng.uniform(0.1, 1.1, size=(rank, v.shape[1]))
    for _ in range(iters):
        h = h * (w.T @ (v / (w @ h + EPS))) / (w.T.sum(axis=1, keepdims=True) + EPS)
        w = w * ((v / (w @ h + EPS)) @ h.T) / (h.sum(axis=1, keepdims=True).T + EPS)
        scale = w.sum(axis=0)
        w /= scale + EPS
        h *= scale[:, None]
    return w


def nmf_separate_reference(v, w_a, w_b, iters, seed=0, init_h=None):
    """``nmf.nmf_separate``'s masks from the plain update expression."""
    w = np.concatenate([w_a, w_b], axis=1)
    if init_h is None:
        rng = np.random.default_rng(np.random.SeedSequence([0x534550, seed]))
        h = rng.uniform(0.1, 1.1, size=(w.shape[1], v.shape[1]))
    else:
        h = np.array(init_h, dtype=np.float64)
    for _ in range(iters):
        h = h * (w.T @ (v / (w @ h + EPS))) / (w.T.sum(axis=1, keepdims=True) + EPS)
    r_a = w_a.shape[1]
    va = w[:, :r_a] @ h[:r_a]
    vb = w[:, r_a:] @ h[r_a:]
    total = va + vb + EPS
    return (np.clip(va / total, 0, 1).astype(np.float32),
            np.clip(vb / total, 0, 1).astype(np.float32))


def istft_frame_loop(spec):
    """Overlap-add inversion of one ``dsp.Spectrogram``, one frame at a time."""
    cfg = spec.config
    frames_t = np.fft.irfft(spec.values.T, n=cfg.fft_size, axis=1)  # [frames, window]
    n_frames = frames_t.shape[0]
    out_len = cfg.sample_count(n_frames)
    out = np.zeros(out_len)
    norm = np.zeros(out_len)
    w = cfg.window
    w2 = w * w
    for f in range(n_frames):
        lo = f * cfg.hop
        out[lo:lo + cfg.window_size] += frames_t[f] * w
        norm[lo:lo + cfg.window_size] += w2
    return out / np.maximum(norm, max(OLA_EPS, 1e-2 * norm.max()))


def sdr_sir_reference(estimate, references, target_index):
    """Zero-lag SDR and SIR of one estimate, every projection built anew."""
    est = np.asarray(estimate, dtype=np.float64).reshape(-1)
    refs = np.stack([np.asarray(r, dtype=np.float64).reshape(-1) for r in references])
    target = refs[target_index]
    s_target = (est @ target / (target @ target)) * target
    e_proj = np.linalg.solve(refs @ refs.T, refs @ est) @ refs
    e_interf = e_proj - s_target
    e_artif = est - e_proj
    num = float(s_target @ s_target)

    def db(den):
        return DB_CAP if den <= 0.0 else min(10.0 * np.log10(num / den), DB_CAP)
    return db(float(np.sum((e_interf + e_artif) ** 2))), db(float(e_interf @ e_interf))


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def interp_table(positions, n_src, dtype=np.float32):
    """Two-tap interpolation rows, one at a time: row i puts ``1 - frac``
    on source row ``lo = min(floor(pos), n_src - 2)`` and ``frac`` on
    ``lo + 1``, where ``frac = min(pos - lo, 1)``."""
    table = np.zeros((len(positions), n_src), dtype=dtype)
    for i, pos in enumerate(map(float, positions)):
        lo = min(math.floor(pos), n_src - 2)
        frac = min(pos - lo, 1.0)
        table[i, lo], table[i, lo + 1] = 1.0 - frac, frac
    return table


def warp_table(n_bins, out_bins):
    """``dsp.warp_matrix``: warped row j reads linear position
    (n_bins - 1) ** (j / (out_bins - 1))."""
    return interp_table(np.exp(np.linspace(0.0, np.log(n_bins - 1), out_bins)), n_bins)


def unwarp_table(n_bins, out_bins):
    """``dsp.unwarp_matrix``: linear row r >= 1 reads warped position
    (out_bins - 1) log r / log(n_bins - 1); the DC row copies warped row 0."""
    dc = np.zeros((1, out_bins), dtype=np.float32)
    dc[0, 0] = 1.0
    rows = (out_bins - 1) * np.log(np.arange(1, n_bins)) / np.log(n_bins - 1)
    return np.concatenate([dc, interp_table(rows, out_bins)])


def lerp_table(src, dst, dtype):
    """``tensor._lerp_matrix``: target pixel i reads source position
    i (src - 1) / (dst - 1) (align corners); a one-pixel source or target
    reads pixel 0."""
    if src == 1 or dst == 1:
        table = np.zeros((dst, src), dtype=dtype)
        table[:, 0] = 1
        return table
    return interp_table([i * (src - 1) / (dst - 1) for i in range(dst)], src, dtype)
