"""Network shape contracts, synthesizer algebra, segmentation, checkpoints."""

import pickle
import warnings

import numpy as np
import pytest

from cosep import avnets, checkpoint, cli, tensor as tc
from cosep.avnets import (AudioNetCfg, ImageNetCfg, ModelBundle, audio_forward,
                          audio_only_masks, image_forward, infer_images, segment,
                          synthesize_mask)
from cosep.tensor import Tensor

from oracles import sigmoid64

# the paper's STFT and nets at full size
PAPER_STFT = {"preset": None, "sample_rate": 11025, "window_size": 1022, "hop": 256, "warp_bins": 256}
PAPER_MODEL = {"image_size": 224, "channels": 32, "audio_depth": 7,
               "audio_widths": [16, 32, 64, 128, 256, 512, 512, 512]}
PAPER_IMAGE_STAGES = ((64, 2, 1), (128, 2, 1), (256, 2, 1), (512, 2, 1), (512, 1, 2))


@pytest.fixture(scope="module")
def bundle():
    return ModelBundle(ImageNetCfg(), AudioNetCfg(), seed=3)


def toy_frames(rng, n=2, size=64):
    return Tensor(rng.random((n, 3, size, size)).astype(np.float32))


def toy_specs(rng, n=2, grid=64):
    return Tensor((rng.random((n, 1, grid, grid)) * 5).astype(np.float32))


class TestShapes:
    def test_toy_image_shapes(self, bundle):
        rng = np.random.default_rng(0)
        maps, phi, v = image_forward(toy_frames(rng), bundle)
        assert maps.shape == (2, 16, 8, 8)
        assert phi.shape == (2, 16)
        assert v.shape == (2, 16)

    def test_toy_audio_shapes(self, bundle):
        rng = np.random.default_rng(1)
        feats = audio_forward(toy_specs(rng), bundle)
        assert feats.shape == (2, 16, 64, 64)

    def test_paper_preset_shapes(self):
        """The paper's nets: its STFT and audio net given explicitly in a
        config, its five image stages (224 -> 14) given to ``ImageNetCfg``."""
        r = cli.normalize_config({"stft": PAPER_STFT, "model": PAPER_MODEL})["resolved"]
        b = ModelBundle(ImageNetCfg(224, 32, PAPER_IMAGE_STAGES), r.audio, seed=0)
        rng = np.random.default_rng(2)
        maps, phi, v = image_forward(Tensor(rng.random((1, 3, 224, 224)).astype(np.float32)), b)
        assert maps.shape == (1, 32, 14, 14)
        feats = audio_forward(Tensor(rng.random((1, 1, 256, 256)).astype(np.float32)), b)
        assert feats.shape == (1, 32, 256, 256)

    def test_size_mismatch_rejected(self, bundle):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="image net expects"):
            image_forward(Tensor(rng.random((1, 3, 32, 32)).astype(np.float32)), bundle)
        with pytest.raises(ValueError, match="audio net expects"):
            audio_forward(Tensor(rng.random((1, 1, 32, 32)).astype(np.float32)), bundle)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="K="):
            ModelBundle(ImageNetCfg(channels=16), AudioNetCfg(channels=8))

    def test_zero_input_stays_finite(self, bundle):
        feats = audio_forward(Tensor(np.zeros((1, 1, 64, 64), dtype=np.float32)), bundle)
        assert np.all(np.isfinite(feats.data))


class TestActivationHead:
    def test_softmax_mode_sums_to_one(self, bundle):
        rng = np.random.default_rng(4)
        bundle.set_mode("softmax", 0.5)
        try:
            _, _, v = image_forward(toy_frames(rng), bundle)
            np.testing.assert_allclose(v.data.sum(axis=1), 1.0, atol=1e-6)
        finally:
            bundle.set_mode("sigmoid")

    def test_permutation_equivariance(self, bundle):
        rng = np.random.default_rng(5)
        frames = toy_frames(rng, n=1)
        _, phi, _ = image_forward(frames, bundle)
        perm = rng.permutation(16)
        w = bundle.image.head_w.data.copy()
        b = bundle.image.head_b.data.copy()
        try:
            bundle.image.head_w.data[...] = w[perm]
            bundle.image.head_b.data[...] = b[perm]
            _, phi_p, _ = image_forward(frames, bundle)
            np.testing.assert_allclose(phi_p.data[0], phi.data[0][perm], atol=1e-6)
        finally:
            bundle.image.head_w.data[...] = w
            bundle.image.head_b.data[...] = b

    def test_invalid_mode_rejected(self, bundle):
        with pytest.raises(ValueError, match="mode"):
            bundle.set_mode("tanh")


class TestSynthesizer:
    def test_one_hot_v_isolates_channel(self, bundle):
        rng = np.random.default_rng(6)
        feats = Tensor(rng.standard_normal((1, 16, 8, 8)).astype(np.float32), requires_grad=True)
        v = np.zeros((1, 16), dtype=np.float32)
        v[0, 5] = 1.0
        mask = synthesize_mask(Tensor(v), feats, bundle)
        tc.backward(tc.tsum(mask))
        grad_by_channel = np.abs(feats.grad[0]).sum(axis=(1, 2))
        assert grad_by_channel[5] > 0
        others = np.delete(grad_by_channel, 5)
        assert np.all(others == 0)

    def test_zero_weights_give_half_mask(self):
        b = ModelBundle(ImageNetCfg(), AudioNetCfg(), seed=1)
        b.synth_w.data[...] = 0
        b.synth_b.data[...] = 0
        rng = np.random.default_rng(7)
        feats = Tensor(rng.standard_normal((2, 16, 8, 8)).astype(np.float32))
        v = Tensor(rng.random((2, 16)).astype(np.float32))
        mask = synthesize_mask(v, feats, b)
        np.testing.assert_allclose(mask.data, 0.5, atol=1e-7)

    def test_bilinearity(self, bundle):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((1, 16, 8, 8)).astype(np.float32)
        v = rng.random((1, 16)).astype(np.float32)
        a = synthesize_mask(Tensor(2 * v), Tensor(0.5 * feats), bundle)
        b = synthesize_mask(Tensor(v), Tensor(feats), bundle)
        np.testing.assert_allclose(a.data, b.data, atol=1e-5)

    def test_output_interval_and_finite_bce(self, bundle):
        rng = np.random.default_rng(9)
        feats = Tensor((rng.standard_normal((1, 16, 8, 8)) * 0.5).astype(np.float32))
        v = Tensor(rng.random((1, 16)).astype(np.float32))
        mask = synthesize_mask(v, feats, bundle)
        assert np.all(mask.data > 0) and np.all(mask.data < 1)
        # extreme features saturate float32 sigmoid; BCE must stay finite anyway
        extreme = synthesize_mask(v, Tensor((rng.standard_normal((1, 16, 8, 8)) * 80).astype(np.float32)), bundle)
        target = Tensor((rng.random((1, 1, 8, 8)) > 0.5).astype(np.float32))
        assert np.isfinite(tc.bce_loss(extreme, target).item())

    def test_channel_mismatch(self, bundle):
        with pytest.raises(ValueError, match="channel"):
            synthesize_mask(Tensor(np.zeros((1, 8), dtype=np.float32)),
                            Tensor(np.zeros((1, 16, 4, 4), dtype=np.float32)), bundle)


class TestAudioOnlyMasks:
    def test_zero_feats_give_half_ratio(self):
        feats = np.zeros((4, 8, 8), dtype=np.float32)
        ratio = audio_only_masks(feats, [1])[0]
        assert ratio.dtype == np.float32 and ratio.shape == (8, 8)
        np.testing.assert_allclose(ratio, 0.5, atol=1e-7)

    def test_saturating_feats(self):
        feats = np.full((2, 4, 4), 80.0, dtype=np.float32)
        mask = audio_only_masks(feats, [0])[0]
        np.testing.assert_allclose(mask, 1.0, atol=1e-6)

    def test_out_of_range_channel(self):
        with pytest.raises(ValueError, match="out of range"):
            audio_only_masks(np.zeros((4, 4, 4)), [4])

    def test_very_negative_feats_give_zero_without_warnings(self):
        feats = np.full((2, 4, 4), -1000.0, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = audio_only_masks(feats, [1])[0]
        assert np.all(mask == 0)


class TestInferenceSigmoid:
    """Inference's sigmoid (``audio_only_masks``) is the float64 expression
    of the oracle, bit for bit."""

    def test_equals_oracle_bit_for_bit(self):
        x = (np.random.default_rng(5).standard_normal((3, 4, 8, 8)) * 40).astype(np.float32)
        x[0, 0, 0, :4] = [0.0, -0.0, 800.0, -800.0]
        masks = audio_only_masks(x[0], range(4))
        ref = [sigmoid64(x[0, ch]).astype(np.float32) for ch in range(4)]
        assert all(m.dtype == np.float32 and m.tobytes() == r.tobytes() for m, r in zip(masks, ref))


class TestInferImages:
    @pytest.mark.parametrize("mode", ["sigmoid", "softmax"])
    def test_batch_one_equals_full_batch(self, bundle, monkeypatch, mode):
        frames = np.random.default_rng(12).integers(0, 256, size=(40, 64, 64, 3), dtype=np.uint8)
        bundle.set_mode(mode, 0.5)
        try:
            maps, v = infer_images(frames, bundle)
            assert maps.dtype == np.float32 and maps.shape == (40, 16, 8, 8)
            assert v.dtype == np.float64 and v.shape == (40, 16)
            one = [infer_images(f, bundle) for f in frames]
            assert np.array_equal(np.concatenate([m for m, _ in one]), maps)
            assert np.array_equal(np.concatenate([x for _, x in one]), v)
            # batches of 3 (13 of them, then 1), of 16 (16, 16, 8), of 32 (32, 8)
            for size in (3, 16, 32):
                monkeypatch.setattr(avnets, "INFER_BATCH", size)
                chunked = infer_images(frames, bundle)
                assert chunked[0].tobytes() == maps.tobytes() and chunked[1].tobytes() == v.tobytes()
            with tc.no_grad():
                _, _, ref = image_forward(avnets.frames_to_tensor(frames), bundle)
            assert np.array_equal(v, ref.data.astype(np.float64))
        finally:
            bundle.set_mode("sigmoid")

    def test_overflowing_weights_raise_a_picklable_error(self):
        """Finite weights scaled by 1e30 overflow in the forward pass: one
        ``NonFiniteOutput``, no numpy warning, and it survives pickling."""
        big = ModelBundle(ImageNetCfg(), AudioNetCfg(), seed=4)
        for p in big.params().values():
            p.data *= np.float32(1e30)
        frames = np.random.default_rng(13).integers(0, 256, size=(2, 64, 64, 3), dtype=np.uint8)
        with pytest.raises(avnets.NonFiniteOutput, match="non-finite image maps") as info:
            infer_images(frames, big)
        copy = pickle.loads(pickle.dumps(info.value))
        assert type(copy) is avnets.NonFiniteOutput and str(copy) == str(info.value)


class TestSegment:
    def test_constant_map_gives_full_mask(self):
        b = ModelBundle(ImageNetCfg(), AudioNetCfg(), seed=2)
        for p in b.image.params().values():
            p.data[...] = 0
        b.image.head_b.data[...] = 1.0
        b.trained = True
        frame = np.random.default_rng(10).integers(0, 255, size=(64, 64, 3), dtype=np.uint8)
        maps, _ = infer_images(frame, b)
        for tau in (0.25, 0.5, 0.9):
            assert segment(maps, b, [3], tau=tau).all()

    def test_gaussian_bump_gives_connected_region(self, bundle, monkeypatch):
        yy, xx = np.mgrid[0:8, 0:8]
        bump = np.exp(-((yy - 3.0) ** 2 + (xx - 4.0) ** 2) / 2.0).astype(np.float32)
        maps = np.zeros((2, 16, 8, 8), dtype=np.float32)
        maps[0, 2] = 8 * bump - 4  # negative background, positive peak
        maps[1, 5] = (8 * bump - 4).T
        monkeypatch.setattr(bundle, "trained", True)
        masks = segment(maps, bundle, [2, 5], tau=0.5)
        assert masks.shape == (2, 64, 64) and masks.dtype == bool
        mask = masks[0]
        assert mask[int(3 / 7 * 63), int(4 / 7 * 63)]
        assert 0 < mask.mean() < 0.6
        rows = np.nonzero(mask.any(axis=1))[0]
        assert np.all(np.diff(rows) == 1)  # vertically contiguous blob
        # each sample uses its own channel, as when segmented alone
        assert np.array_equal(masks[1], segment(maps[1:], bundle, [5], tau=0.5)[0])
        assert not np.array_equal(masks[1], mask)

    def test_negative_map_with_one_bump_gives_a_mask_around_it(self, bundle, monkeypatch):
        """A fixed 8x8 map below zero everywhere, with one bump: the mask is
        one 4-connected region around the bump.  A threshold at tau times
        the maximum would keep no pixel of it, as every value lies below."""
        yy, xx = np.mgrid[0:8, 0:8]
        maps = np.zeros((1, 16, 8, 8), dtype=np.float32)
        maps[0, 7] = 3 * np.exp(-((yy - 5.0) ** 2 + (xx - 2.0) ** 2) / 2.0) - 10
        monkeypatch.setattr(bundle, "trained", True)
        mask = segment(maps, bundle, [7], tau=0.5)[0]
        peak = (45, 18)   # (5, 2) of the 8x8 grid on the 64x64 frame
        assert mask[peak] and 0 < mask.mean() < 0.5
        region = np.zeros_like(mask)
        region[peak] = True
        while True:   # flood fill from the peak, inside the mask
            grown = region.copy()
            grown[1:] |= region[:-1]
            grown[:-1] |= region[1:]
            grown[:, 1:] |= region[:, :-1]
            grown[:, :-1] |= region[:, 1:]
            grown &= mask
            if np.array_equal(grown, region):
                break
            region = grown
        assert np.array_equal(region, mask)

    def test_mask_is_invariant_to_scaling_the_map_by_powers_of_two(self, bundle, monkeypatch):
        maps = np.random.default_rng(21).standard_normal((3, 16, 8, 8)).astype(np.float32)
        monkeypatch.setattr(bundle, "trained", True)
        ref = segment(maps, bundle, [0, 7, 15], tau=0.5)
        assert 0 < ref.mean() < 1
        for k in range(-3, 4):
            assert np.array_equal(segment(maps * np.float32(2.0 ** k), bundle, [0, 7, 15], tau=0.5), ref)

    def test_untrained_warns(self, bundle):
        maps = np.zeros((1, 16, 8, 8), dtype=np.float32)
        with pytest.warns(UserWarning, match="untrained"):
            segment(maps, bundle, [0], tau=0.5)

    def test_invalid_tau(self, bundle):
        maps = np.zeros((1, 16, 8, 8), dtype=np.float32)
        for tau in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="tau"):
                segment(maps, bundle, [0], tau=tau)

    def test_invalid_channels(self, bundle):
        maps = np.zeros((2, 16, 8, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="out of range"):
            segment(maps, bundle, [0, 16], tau=0.5)
        with pytest.raises(ValueError, match="1 channels for 2 maps"):
            segment(maps, bundle, [0], tau=0.5)


class TestCheckpoint:
    def test_default_bundle_tensor_names(self, bundle):
        """A weight and a bias per conv: 4 image stages and the image head,
        the audio stem, 4 down, 4 up blocks and the audio head, and the
        synthesizer."""
        blocks = ([f"img.s{i}" for i in range(4)] + ["img.head", "aud.stem"]
                  + [f"aud.{side}{i}" for side in "du" for i in range(4)] + ["aud.head", "synth"])
        assert sorted(bundle.params()) == sorted(f"{blk}.{p}" for blk in blocks for p in "wb")
        assert len(bundle.params()) == 32

    def test_roundtrip_forward_bit_identical(self, bundle, tmp_path):
        rng = np.random.default_rng(11)
        frames = toy_frames(rng)
        specs = toy_specs(rng)
        _, _, v0 = image_forward(frames, bundle)
        f0 = audio_forward(specs, bundle)
        path = tmp_path / "bundle.ckpt"
        bundle.save(path, extra_meta={"config_hash": "cafe"})
        loaded, meta = ModelBundle.load(path)
        assert meta["config_hash"] == "cafe"
        assert loaded.mode == bundle.mode
        _, _, v1 = image_forward(frames, loaded)
        f1 = audio_forward(specs, loaded)
        assert np.array_equal(v0.data, v1.data)
        assert np.array_equal(f0.data, f1.data)

    def test_save_is_deterministic(self, bundle, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        bundle.save(p1)
        bundle.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def tiny_bundle():
        return ModelBundle(ImageNetCfg(input_size=8, channels=2, stages=((2, 2, 1),)),
                           AudioNetCfg(grid=4, depth=1, channels=2, widths=(2, 2)), seed=0)

    def test_every_truncation_names_the_file(self, tmp_path):
        path = tmp_path / "tiny.ckpt"
        self.tiny_bundle().save(path, extra_meta={"config_hash": "cafe"})
        blob = path.read_bytes()
        assert 1000 < len(blob) < 8000
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(ValueError, match="cut.ckpt"):
                ModelBundle.load(cut)

    def test_meta_holds_the_net_configs(self, tmp_path):
        bundle = self.tiny_bundle()
        path, again = tmp_path / "tiny.ckpt", tmp_path / "again.ckpt"
        bundle.save(path)
        _, meta = checkpoint.load_tensors(path)
        assert meta["image_cfg"] == {"input_size": 8, "channels": 2, "stages": [[2, 2, 1]]}
        assert meta["audio_cfg"] == {"grid": 4, "depth": 1, "channels": 2, "widths": [2, 2]}
        loaded, _ = ModelBundle.load(path)
        assert (loaded.image_cfg, loaded.audio_cfg) == (bundle.image_cfg, bundle.audio_cfg)
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_failed_save_leaves_old_file(self, tmp_path):
        path = tmp_path / "tiny.ckpt"
        bundle = self.tiny_bundle()
        bundle.save(path)
        before = path.read_bytes()
        tensors = {**bundle.params(), "zz.bad": "not a number"}   # fails after the others
        with pytest.raises(ValueError):
            checkpoint.save_tensors(path, tensors)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["tiny.ckpt"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, value):
        bundle = self.tiny_bundle()
        bundle.audio.params()["aud.head.w"].data.reshape(-1)[0] = value
        path = tmp_path / "tiny.ckpt"
        bundle.save(path)
        with pytest.raises(ValueError, match="tiny.ckpt: non-finite values in aud.head.w"):
            ModelBundle.load(path)

    def test_unexpected_tensor_rejected(self, tmp_path):
        bundle = self.tiny_bundle()
        path = tmp_path / "tiny.ckpt"
        bundle.save(path)
        arrays, meta = checkpoint.load_tensors(path)
        arrays["img.s0.g"] = np.ones((1, 2, 1, 1), dtype=np.float32)
        checkpoint.save_tensors(path, arrays, meta)
        with pytest.raises(ValueError, match=r"tiny.ckpt: unexpected tensors \['img.s0.g'\]"):
            ModelBundle.load(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            ModelBundle.load(path)
