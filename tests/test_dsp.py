"""STFT round trips, log-frequency warping, masks, WAV files."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cosep import dsp, tensor as tc
from cosep.metrics import sdr_sir

from oracles import istft_frame_loop, lerp_table, unwarp_table, warp_table


def snr_db(reference, estimate):
    err = reference - estimate
    return 10 * np.log10(np.sum(reference**2) / np.sum(err**2))


def sine(freq, cfg, n_samples, amp=0.8, phase=0.0):
    t = np.arange(n_samples) / cfg.sample_rate
    return amp * np.sin(2 * np.pi * freq * t + phase)


@pytest.fixture
def toy():
    return dsp.StftConfig(8000, 510, 128)


class TestStftConfig:
    def test_window_is_symmetric_unit_range(self, toy):
        w = toy.window
        assert np.allclose(w, w[::-1])
        assert w.min() >= 0 and w.max() <= 1

    def test_odd_window_rejected(self):
        with pytest.raises(ValueError, match="even"):
            dsp.StftConfig(8000, 511, 128)

    def test_oversized_hop_rejected(self):
        with pytest.raises(ValueError, match="hop"):
            dsp.StftConfig(8000, 510, 511)


class TestStft:
    def test_zero_signal_gives_zero_magnitudes(self, toy):
        spec = dsp.stft(np.zeros(4000), toy)
        assert np.all(spec.magnitude == 0)

    def test_short_wave_rejected(self, toy):
        with pytest.raises(ValueError, match="window"):
            dsp.stft(np.zeros(100), toy)

    def test_bin_centered_sine_dominates_its_row(self, toy):
        k = 40
        freq = k * toy.sample_rate / toy.fft_size
        spec = dsp.stft(sine(freq, toy, 8574), toy)
        row_means = spec.magnitude.mean(axis=1)
        peak = np.argmax(row_means)
        assert peak == k
        others = np.delete(row_means, peak)
        assert row_means[peak] >= 10 * others.mean()

    def test_paper_scale_grid(self):
        cfg = dsp.StftConfig(11025, 1022, 256)
        wave = np.random.default_rng(0).standard_normal(6 * cfg.sample_rate) * 0.1
        spec = dsp.stft(wave, cfg)
        assert spec.bins == 512  # 1022-sample window: DC..Nyquist
        assert 250 <= spec.frames <= 260  # ~256 frames for 6 s at 11025 Hz

    def test_parseval_energy_within_one_percent(self, toy):
        rng = np.random.default_rng(7)
        wave = rng.standard_normal(6000) * 0.3
        spec = dsp.stft(wave, toy)
        weights = np.full(spec.bins, 2.0)
        weights[0] = weights[-1] = 1.0
        spec_energy = np.sum(weights[:, None] * spec.magnitude.astype(np.float64) ** 2) / toy.fft_size
        frames = np.lib.stride_tricks.sliding_window_view(wave, toy.window_size)[::toy.hop]
        time_energy = np.sum((frames * toy.window) ** 2)
        assert abs(spec_energy - time_energy) / time_energy < 0.01


class TestIstft:
    def test_roundtrip_white_noise_interior_snr(self, toy):
        rng = np.random.default_rng(3)
        wave = rng.standard_normal(8574) * 0.5
        recon = dsp.istft(dsp.stft(wave, toy))
        w = toy.window_size
        assert snr_db(wave[w:-w], recon[w:-w]) >= 50

    def test_roundtrip_other_cola_configs(self):
        rng = np.random.default_rng(4)
        for cfg in (dsp.StftConfig(8000, 64, 16), dsp.StftConfig(8000, 256, 64)):
            wave = rng.standard_normal(4096) * 0.5
            recon = dsp.istft(dsp.stft(wave, cfg))
            w = cfg.window_size
            assert snr_db(wave[w:-w], recon[w:-w]) >= 50

    def test_zero_spectrogram_gives_zero_wave(self, toy):
        spec = dsp.Spectrogram(np.zeros((toy.n_bins, 10)), np.zeros((toy.n_bins, 10)), toy)
        assert np.all(dsp.istft(spec) == 0)

    def test_oracle_magnitude_with_mixture_phase_beats_mixture(self, toy):
        n = 8574
        a = sine(40 * toy.sample_rate / toy.fft_size, toy, n)
        b = sine(90 * toy.sample_rate / toy.fft_size, toy, n)
        mix = 0.5 * a + 0.5 * b
        spec_mix = dsp.stft(mix, toy)
        spec_a = dsp.stft(0.5 * a, toy)
        hybrid = dsp.Spectrogram(spec_a.magnitude, spec_mix.phase, toy)
        est = dsp.istft(hybrid)
        sdr_est, _ = sdr_sir(est, [0.5 * a, 0.5 * b], 0)
        sdr_mix, _ = sdr_sir(mix, [0.5 * a, 0.5 * b], 0)
        assert sdr_est > sdr_mix


@st.composite
def inversions(draw):
    """(window, hop, frames, masks, seed): an even window from 4 to 64 and
    any hop up to it, dividing the window or not."""
    window = 2 * draw(st.integers(2, 32))
    return (window, draw(st.integers(1, window)), draw(st.integers(1, 12)),
            draw(st.integers(1, 3)), draw(st.integers(0, 99)))


class TestStackedIstft:
    """One ``istft`` call over a stack of masks equals inverting each masked
    spectrogram frame by frame, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(inversions())
    @example((510, 128, 64, 4, 0))   # the toy STFT: two models' masks of one mixture
    @example((64, 64, 3, 1, 1))      # hop equal to the window: no overlap
    @example((64, 1, 9, 2, 2))       # hop 1: one block per sample
    @example((6, 4, 5, 2, 3))        # hop that does not divide the window
    def test_matches_frame_loop(self, case):
        window, hop, frames, n_masks, seed = case
        cfg = dsp.StftConfig(8000, window, hop)
        rng = np.random.default_rng(seed)
        shape = (cfg.n_bins, frames)
        spec = dsp.Spectrogram(rng.random(shape) * 3, rng.uniform(-np.pi, np.pi, shape), cfg)
        pick = rng.integers(0, 3, (n_masks,) + shape)   # exact 0s and 1s among fractions
        masks = np.where(pick == 0, 0.0, np.where(pick == 1, 1.0, rng.random(pick.shape))).astype(np.float32)
        got = dsp.istft(spec, masks)
        assert got.shape == (n_masks, cfg.sample_count(frames))
        for mask, wave in zip(masks, got):
            want = istft_frame_loop(dsp.Spectrogram(spec.magnitude * mask, spec.phase, cfg))
            np.testing.assert_array_equal(wave.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(dsp.istft(spec).view(np.uint64), istft_frame_loop(spec).view(np.uint64))


class TestLogWarp:
    def test_constant_roundtrip(self, toy):
        mag = np.full((toy.n_bins, 8), 3.0, dtype=np.float32)
        back = dsp.unwarp_matrix(toy.n_bins, 64) @ dsp.log_warp(mag, 64)
        np.testing.assert_allclose(back, 3.0, atol=1e-5)

    def test_paper_scale_bin_counts(self):
        cfg = dsp.StftConfig(11025, 1022, 256)
        warped = dsp.log_warp(np.ones((cfg.n_bins, 4), dtype=np.float32), 256)
        assert warped.shape == (256, 4)

    def test_geometric_spacing_ratio_constant(self):
        pos = dsp.warp_positions(256, 64)
        ratios = pos[1:] / pos[:-1]
        assert np.max(np.abs(ratios - ratios[0])) < 1e-9

    def test_excess_out_bins_rejected(self, toy):
        with pytest.raises(ValueError, match="exceeds"):
            dsp.log_warp(np.ones((toy.n_bins, 4), dtype=np.float32), toy.n_bins + 1)

    def test_smooth_spectrum_roundtrip_error(self, toy):
        rows = np.arange(toy.n_bins, dtype=np.float64)
        smooth = (np.exp(-((rows - 60) / 50.0) ** 2) + 0.6 * np.exp(-((rows - 170) / 60.0) ** 2))
        mag = np.tile(smooth[:, None], (1, 16)) * np.linspace(0.5, 1.5, 16)[None, :]
        back = dsp.unwarp_matrix(toy.n_bins, 64) @ dsp.log_warp(mag.astype(np.float32), 64)
        rel = np.linalg.norm(back - mag.astype(np.float32)) / np.linalg.norm(mag)
        assert rel <= 0.15


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestInterpolationTables:
    """Every resampling table comes from ``dsp.interp_rows``, equals a
    row-by-row oracle bit for bit, and is built once and read-only."""

    @pytest.mark.parametrize("n_bins,out_bins", [(256, 64), (256, 32), (512, 256)])
    def test_warp_pair_matches_oracle(self, n_bins, out_bins):
        assert_same_bits(dsp.warp_matrix(n_bins, out_bins), warp_table(n_bins, out_bins))
        assert_same_bits(dsp.unwarp_matrix(n_bins, out_bins), unwarp_table(n_bins, out_bins))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("src,dst", [(4, 8), (8, 16), (16, 32), (32, 64), (1, 1), (1, 8), (1, 64)])
    def test_lerp_matches_oracle(self, src, dst, dtype):
        assert_same_bits(tc._lerp_matrix(src, dst, np.dtype(dtype)), lerp_table(src, dst, dtype))

    @pytest.mark.parametrize("table,args", [
        (dsp.warp_matrix, (256, 64)),
        (dsp.unwarp_matrix, (256, 64)),
        (tc._lerp_matrix, (4, 8, np.dtype(np.float32))),
        (dsp._ola_denominator, (dsp.StftConfig(8000, 510, 128), 64)),
    ], ids=["warp", "unwarp", "lerp", "ola"])
    def test_cached_tables_are_shared_and_read_only(self, table, args):
        first = table(*args)
        assert table(*args) is first
        with pytest.raises(ValueError):
            first[0, ...] = 0.5
        with pytest.raises(ValueError):
            first += 1


@st.composite
def warp_grids(draw):
    """(n_bins, out_bins, frames, seed) for an even window size."""
    n_bins = draw(st.integers(2, 600)) + 1   # window size 2 * (n_bins - 1) >= 4
    return n_bins, draw(st.integers(2, n_bins)), draw(st.integers(1, 5)), draw(st.integers(0, 99))


class TestWarpProperties:
    """The warp pair on any grid: interpolation rows, a constant round
    trip, and unwarped masks staying masks."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(warp_grids())
    @example((256, 64, 3, 0))     # the toy grid
    @example((256, 32, 3, 1))     # a rounding corner: the top row overshot
    @example((512, 256, 2, 2))    # the paper grid
    def test_warp_pair(self, grid):
        n_bins, out_bins, frames, seed = grid
        cfg = dsp.StftConfig(8000, 2 * (n_bins - 1), 1)
        for m in (dsp.warp_matrix(n_bins, out_bins), dsp.unwarp_matrix(n_bins, out_bins)):
            assert np.all(m >= 0)
            np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-6)
            for row in m:
                nz = np.flatnonzero(row)
                assert len(nz) <= 2 and (len(nz) < 2 or nz[1] == nz[0] + 1)

        rng = np.random.default_rng(seed)
        c = np.float32(rng.random())
        const = np.full((n_bins, frames), c, dtype=np.float32)
        np.testing.assert_allclose(dsp.log_unwarp(dsp.log_warp(const, out_bins), cfg), c, atol=1e-6)

        mask = rng.random((out_bins, frames)).astype(np.float32)
        mask[rng.random(mask.shape) < 0.3] = rng.integers(0, 2)
        back = dsp.log_unwarp(mask, cfg)
        assert back.shape == (n_bins, frames)
        assert np.all((back >= 0) & (back <= 1))


class TestMasks:
    def test_dominance_rule(self, toy):
        mask = dsp.ideal_binary_mask(np.array([[3.0], [1.0]]), np.array([[2.0], [4.0]]))
        assert mask.dtype == np.float32
        np.testing.assert_array_equal(mask, [[1.0], [0.0]])

    def test_tie_goes_to_target(self, toy):
        t = np.full((2, 2), 2.0, dtype=np.float32)
        mask = dsp.ideal_binary_mask(t, t)
        assert np.all(mask == 1)

    def test_masks_cover_every_bin(self, toy):
        rng = np.random.default_rng(5)
        a = rng.random((16, 8)).astype(np.float32)
        b = rng.random((16, 8)).astype(np.float32)
        total = dsp.ideal_binary_mask(a, b) + dsp.ideal_binary_mask(b, a)
        assert np.all(total >= 1)

    def test_disjoint_sines_give_complementary_masks(self, toy):
        n = 8574
        a = dsp.stft(sine(30 * toy.sample_rate / toy.fft_size, toy, n), toy)
        b = dsp.stft(sine(100 * toy.sample_rate / toy.fft_size, toy, n), toy)
        ma = dsp.ideal_binary_mask(a.magnitude, b.magnitude)
        mb = dsp.ideal_binary_mask(b.magnitude, a.magnitude)
        active = (a.magnitude > 1e-4) | (b.magnitude > 1e-4)
        assert np.all((ma + mb)[active] == 1)

    def test_identity_and_zero_masks(self, toy):
        spec = dsp.stft(sine(500, toy, 4000), toy)
        ones = np.ones(spec.magnitude.shape, dtype=np.float32)
        zeros = np.zeros(spec.magnitude.shape, dtype=np.float32)
        kept, silenced = dsp.istft(spec, [ones, zeros])
        np.testing.assert_array_equal(kept, dsp.istft(spec))
        assert np.all(silenced == 0)

    def test_negative_mask_rejected(self, toy):
        spec = dsp.stft(sine(500, toy, 4000), toy)
        mask = np.full((1,) + spec.magnitude.shape, -0.5, dtype=np.float32)
        with pytest.raises(ValueError, match="non-negative"):
            dsp.istft(spec, mask)

    def test_grid_mismatch_mentions_unwarp(self, toy):
        spec = dsp.stft(np.zeros(2000), toy)
        mask = np.ones((1, 64, spec.frames), dtype=np.float32)
        with pytest.raises(ValueError, match="unwarp"):
            dsp.istft(spec, mask)

    def test_ideal_mask_separation_of_disjoint_sines(self, toy):
        n = 8574
        a = sine(30 * toy.sample_rate / toy.fft_size, toy, n)
        b = sine(100 * toy.sample_rate / toy.fft_size, toy, n)
        mix = 0.5 * a + 0.5 * b
        spec_mix = dsp.stft(mix, toy)
        spec_a = dsp.stft(0.5 * a, toy)
        spec_b = dsp.stft(0.5 * b, toy)
        refs = [0.5 * a, 0.5 * b]
        for idx, (tgt, oth) in enumerate([(spec_a, spec_b), (spec_b, spec_a)]):
            mask = dsp.ideal_binary_mask(tgt.magnitude, oth.magnitude)
            est = dsp.istft(spec_mix, mask[None])[0]
            sdr, _ = sdr_sir(est, refs, idx)
            assert sdr >= 20, f"source {idx}: SDR {sdr:.2f} dB"


class TestWav:
    def test_roundtrip(self, tmp_path, toy):
        wave = sine(440, toy, 4000, amp=0.7)
        path = tmp_path / "t.wav"
        dsp.write_wav(path, wave, toy.sample_rate)
        back, rate = dsp.read_wav(path, expected_rate=toy.sample_rate)
        assert rate == toy.sample_rate
        assert np.max(np.abs(back - wave)) <= 1.01 / 32767

    def test_rate_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        dsp.write_wav(path, np.zeros(100), 8000)
        with pytest.raises(ValueError, match="sample rate"):
            dsp.read_wav(path, expected_rate=11025)
