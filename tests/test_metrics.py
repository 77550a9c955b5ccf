"""SDR/SIR projection algebra, IoU and the failure path of the mixture loop."""

import threading

import numpy as np
import pytest

from cosep import checkpoint, dsp
from cosep.metrics import DB_CAP, References, _score_mixtures, iou, sample_mixture_pairs, sdr_sir
from cosep.toyworld import AVClip

from oracles import deadline, sdr_sir_reference


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def orthogonalize(v, against):
    v = v - (v @ against) / (against @ against) * against
    return v


class TestSdrSir:
    def test_perfect_estimate_hits_cap(self, rng):
        a = rng.standard_normal(4000)
        b = rng.standard_normal(4000)
        sdr, sir = sdr_sir(a, [a, b], 0)
        assert sdr == DB_CAP and sir == DB_CAP

    def test_orthogonal_noise_ten_to_one(self, rng):
        a = rng.standard_normal(8000)
        b = rng.standard_normal(8000)
        noise = rng.standard_normal(8000)
        noise = orthogonalize(orthogonalize(noise, a), b)
        noise = orthogonalize(noise, a)  # re-project: numerical cleanliness
        noise *= np.linalg.norm(a) / (np.linalg.norm(noise) * np.sqrt(10))
        est = a + noise
        sdr, sir = sdr_sir(est, [a, b], 0)
        assert abs(sdr - 10.0) <= 0.1
        assert sir == DB_CAP

    def test_pure_interference(self, rng):
        a = rng.standard_normal(4000)
        b = orthogonalize(rng.standard_normal(4000), a)
        sdr, sir = sdr_sir(b, [a, b], 0)
        # estimate has no target component at all
        assert sir <= 0
        assert sdr <= sir

    def test_mixture_as_estimate_gives_zero_sir(self, rng):
        a = rng.standard_normal(6000)
        b = orthogonalize(rng.standard_normal(6000), a)
        b *= np.linalg.norm(a) / np.linalg.norm(b)  # equal energy
        mix = a + b
        _, sir = sdr_sir(mix, [a, b], 0)
        assert abs(sir) < 0.2

    def test_sir_at_least_sdr(self, rng):
        for _ in range(25):
            refs = rng.standard_normal((2, 2000))
            est = rng.standard_normal(2000)
            sdr, sir = sdr_sir(est, refs, int(rng.integers(2)))
            assert sir >= sdr - 1e-9

    def test_scale_invariance(self, rng):
        refs = rng.standard_normal((2, 3000))
        est = refs[0] + 0.3 * refs[1] + 0.1 * rng.standard_normal(3000)
        base = sdr_sir(est, refs, 0)
        for alpha in (0.01, 3.0, 250.0):
            scaled = sdr_sir(alpha * est, refs, 0)
            assert abs(scaled[0] - base[0]) <= 1e-6
            assert abs(scaled[1] - base[1]) <= 1e-6

    def test_zero_energy_rejected(self, rng):
        a = rng.standard_normal(100)
        with pytest.raises(ValueError, match="zero energy"):
            sdr_sir(np.zeros(100), [a], 0)
        with pytest.raises(ValueError, match="zero energy"):
            sdr_sir(a, [np.zeros(100)], 0)

    def test_dependent_references_rejected(self, rng):
        a = rng.standard_normal(100)
        with pytest.raises(ValueError, match="independent"):
            sdr_sir(a, [a, 2 * a], 0)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="length"):
            sdr_sir(rng.standard_normal(10), [rng.standard_normal(11)], 0)


class TestSharedReferences:
    def test_one_setup_scores_like_a_fresh_one(self, rng):
        """One ``References`` across many estimates, float32 and float64,
        gives each the scores of a from-scratch computation, bit for bit."""
        for n in (100, 8574):
            a, b = rng.standard_normal((2, n)).astype(np.float32) * 0.5
            refs = [a, b]
            shared = References(refs)
            for trial in range(6):
                mix = rng.random(2)
                est = mix[0] * a + mix[1] * b + 0.2 * rng.standard_normal(n)
                for e in (est, est.astype(np.float32)):
                    for i in range(2):
                        assert sdr_sir(e, shared, i) == sdr_sir_reference(e, refs, i)
                        assert sdr_sir(e, refs, i) == sdr_sir_reference(e, refs, i)

    def test_shared_references_keep_the_checks(self, rng):
        a = rng.standard_normal(100)
        shared = References([a, rng.standard_normal(100)])
        with pytest.raises(ValueError, match="length"):
            sdr_sir(rng.standard_normal(99), shared, 0)
        with pytest.raises(ValueError, match="out of range"):
            sdr_sir(a, shared, 2)
        with pytest.raises(ValueError, match="zero energy"):
            sdr_sir(np.zeros(100), shared, 0)
        with pytest.raises(ValueError, match="zero energy"):
            References([a, np.zeros(100)])


class TestIoU:
    def test_identical_masks(self):
        m = np.zeros((8, 8), dtype=bool)
        m[2:5, 3:6] = True
        assert iou(m, m) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((8, 8), dtype=bool)
        b = np.zeros((8, 8), dtype=bool)
        a[0, 0] = True
        b[7, 7] = True
        assert iou(a, b) == 0.0

    def test_half_overlap(self):
        gt = np.ones((10, 10), dtype=bool)
        pred = np.zeros((10, 10), dtype=bool)
        pred[:, :5] = True
        assert iou(pred, gt) == 0.5

    def test_symmetry_and_growth(self):
        rng = np.random.default_rng(3)
        gt = rng.random((12, 12)) > 0.6
        pred = rng.random((12, 12)) > 0.6
        if not gt.any():
            gt[0, 0] = True
        assert iou(pred, gt) == iou(gt, pred)
        grown = np.logical_or(pred, gt)
        assert iou(grown, gt) >= iou(pred, gt)

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            iou(np.ones((4, 4), dtype=bool), np.zeros((4, 4), dtype=bool))


def test_one_category_split_rejected_by_pair_sampling():
    clips = [AVClip(f"test_{i:04d}", 2, None, None, None) for i in range(2)]
    with deadline(10), pytest.raises(ValueError, match="two categories"):
        sample_mixture_pairs(clips, seed=0, n_mixtures=1)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_failing_mask_function_raises_like_the_serial_loop(monkeypatch, rng, cpus):
    """A mask function that fails from the third pair on raises the third
    pair's exception at every worker count, and leaves no thread behind."""
    monkeypatch.setattr(checkpoint.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    # clip i has category i, so pair k's first category is 2k
    clips = [AVClip(f"test_{i:04d}", i, None, (0.4 * rng.standard_normal(2048)).astype(np.float32), None)
             for i in range(12)]
    pairs = [(clips[2 * k], clips[2 * k + 1]) for k in range(6)]

    def masks(spec, cat_a, cat_b):
        if cat_a >= 4:
            raise RuntimeError(f"pair {cat_a // 2}")
        return [np.full(spec.magnitude.shape, 0.5, np.float32)] * 2
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="pair 2"):
        _score_mixtures(pairs, dsp.StftConfig(8000, 510, 128), {"half": (masks, np.float32)})
    assert threading.active_count() == before
