"""NMF baseline: update monotonicity, exact rank-1 recovery, Wiener masks,
and the buffered updates against the plain expressions."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cosep import dsp, nmf, toyworld as tw
from cosep.metrics import sdr_sir

from oracles import kl_divergence, nmf_fit_reference, nmf_separate_reference


def fit_history(v, rank, iters, seed):
    """Divergence after each sweep of the fit nmf_fit runs, and its W."""
    history = []
    for w, h in nmf._fit_iterates(v, rank, iters, seed):
        history.append(kl_divergence(v, w @ h))
    assert np.array_equal(w, nmf.nmf_fit(v, rank, iters=iters, seed=seed))
    return history[1:]


class TestFit:
    def test_rank_one_exact_recovery(self):
        rng = np.random.default_rng(1)
        w = rng.random(64) + 0.1
        h = rng.random(40) + 0.1
        v = np.outer(w, h)
        history = fit_history(v, rank=1, iters=200, seed=0)
        assert history[-1] <= 1e-6

    def test_divergence_monotone_on_random_data(self):
        rng = np.random.default_rng(2)
        v = rng.random((48, 60)) * 3
        history = fit_history(v, rank=5, iters=120, seed=1)
        assert len(history) == 120
        for a, b in zip(history, history[1:]):
            assert b <= a + 1e-9 * (1 + abs(a))

    def test_zero_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            nmf.nmf_fit(np.ones((4, 4)), rank=0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            nmf.nmf_fit(np.zeros((4, 4)), rank=2)

    def test_factors_nonnegative_and_normalized(self):
        rng = np.random.default_rng(3)
        w = nmf.nmf_fit(rng.random((32, 50)), rank=4, iters=60, seed=2)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-6)


class TestSeparate:
    def test_divergence_monotone(self):
        rng = np.random.default_rng(4)
        v = rng.random((32, 40)) * 2
        w_a = rng.random((32, 3))
        w_b = rng.random((32, 3))
        w = np.concatenate([w_a, w_b], axis=1)
        h0 = rng.uniform(0.1, 1.1, size=(6, 40))
        h = h0
        q = np.empty(v.shape)
        history = []
        for _ in range(80):  # the activation update nmf_separate iterates
            h = nmf._mu_update_h(v, w, h, q, nmf._basis_norm(w))
            history.append(kl_divergence(v, w @ h))
        for a, b in zip(history, history[1:]):
            assert b <= a + 1e-9 * (1 + abs(a))
        m_a, _ = nmf.nmf_separate(v, w_a, w_b, iters=80, init_h=h0)
        va, vb = w[:, :3] @ h[:3], w[:, 3:] @ h[3:]
        assert np.array_equal(m_a, np.clip(va / (va + vb + nmf.EPS), 0, 1).astype(np.float32))

    def test_masks_sum_to_one_where_energy(self):
        rng = np.random.default_rng(5)
        v = rng.random((32, 40)) + 0.05
        w_a = rng.random((32, 4))
        w_b = rng.random((32, 4))
        m_a, m_b = nmf.nmf_separate(v, w_a, w_b, iters=50, seed=4)
        total = m_a.astype(np.float64) + m_b.astype(np.float64)
        # reconstruction energy far above the epsilon guard
        assert np.all(np.abs(total - 1.0) <= 1e-3)
        assert np.all(m_a >= 0) and np.all(m_b >= 0)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            nmf.nmf_separate(np.ones((16, 4)), np.ones((8, 2)), np.ones((8, 2)))

    def test_mask_scale_invariance_at_convergence(self):
        rng = np.random.default_rng(6)
        v = rng.random((24, 30)) + 0.1
        w_a = rng.random((24, 3))
        w_b = rng.random((24, 3))
        h0 = rng.uniform(0.1, 1.1, size=(6, 30))
        m1, _ = nmf.nmf_separate(v, w_a, w_b, iters=200, init_h=h0)
        m2, _ = nmf.nmf_separate(2 * v, w_a, w_b, iters=200, init_h=2 * h0)
        assert np.max(np.abs(m1 - m2)) <= 1e-6


@st.composite
def nmf_problems(draw):
    """(bins, frames, rank, iters, seed, F-ordered V): a non-negative V
    with zeros; STFT magnitudes come F-ordered."""
    return (draw(st.integers(2, 300)), draw(st.integers(1, 300)), draw(st.integers(1, 8)),
            draw(st.integers(1, 5)), draw(st.integers(0, 2 ** 32 - 1)), draw(st.booleans()))


class TestBufferedUpdates:
    """The updates computed into one reused quotient buffer equal the
    plain one-expression updates, bit for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(nmf_problems())
    @example((256, 192, 8, 10, 0, True))  # the toy basis fit: 3 clips of 64 frames, rank 8
    @example((256, 64, 8, 10, 1, True))   # the toy separation: two rank-8 bases, rank 16 in all
    def test_equal_to_plain_expressions(self, problem):
        bins, frames, rank, iters, seed, fortran = problem
        rng = np.random.default_rng(seed)
        v = rng.random((bins, frames)) * 3
        v[rng.random(v.shape) < 0.2] = 0.0
        v[0, 0] = 1.0
        if fortran:
            v = np.asfortranarray(v)
        w = nmf.nmf_fit(v, rank, iters=iters, seed=seed)
        assert w.tobytes() == nmf_fit_reference(v, rank, iters, seed).tobytes()

        w_a, w_b = rng.random((bins, rank)), rng.random((bins, rank))
        h0 = rng.uniform(0.1, 1.1, size=(2 * rank, frames))
        for init_h in (None, h0):
            masks = nmf.nmf_separate(v, w_a, w_b, iters=iters, seed=seed, init_h=init_h)
            expected = nmf_separate_reference(v, w_a, w_b, iters, seed=seed, init_h=init_h)
            assert [m.tobytes() for m in masks] == [m.tobytes() for m in expected]


class TestToySeparation:
    def test_solo_mixture_separation(self, tmp_path):
        dataset = tw.generate(tmp_path, seed=21, stft_cfg=dsp.StftConfig(8000, 510, 128),
                              n_categories=4, counts={"train": 16, "val": 8, "test": 4}, n_frames=32)
        model = nmf.fit_category_bases(dataset, rank=4, iters=150, seed=0)
        cfg = dataset.stft
        val = dataset.splits["val"]
        a = tw.load_clip(dataset, val[0])
        b = tw.load_clip(dataset, val[1])
        assert a.category != b.category
        mix = tw.mix_waves(a.wave, b.wave)
        spec = dsp.stft(mix, cfg)
        m_a, m_b = nmf.nmf_separate(spec.magnitude, model.bases[a.category],
                                       model.bases[b.category], iters=150, seed=1)
        refs = [0.5 * a.wave, 0.5 * b.wave]
        for idx, mask in enumerate([m_a, m_b]):
            est = dsp.istft(spec, mask[None])[0]
            sdr, _ = sdr_sir(est, refs, idx)
            assert sdr >= 5, f"source {idx}: SDR {sdr:.2f}"

    def test_model_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        model = nmf.NmfModel(3, {0: rng.random((16, 3)), 1: rng.random((16, 3))})
        path = tmp_path / "nmf.ckpt"
        model.save(path, extra_meta={"config_hash": "00"})
        loaded, meta = nmf.NmfModel.load(path)
        assert loaded.rank == 3
        assert meta["config_hash"] == "00"
        np.testing.assert_allclose(loaded.bases[0], model.bases[0], atol=1e-6)
