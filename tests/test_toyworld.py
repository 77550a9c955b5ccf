"""Dataset generation: determinism, separability, file formats."""

import errno
import filecmp
import os

import numpy as np
import pytest

from cosep import dsp, toyworld as tw

TOY = dsp.StftConfig(8000, 510, 128)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("toyset")
    return tw.generate(root, seed=11, stft_cfg=TOY, n_categories=8,
                       counts={"train": 48, "val": 24, "test": 8})


class TestGenerate:
    def test_regeneration_is_bit_identical(self, tmp_path, dataset):
        other = tmp_path / "again"
        tw.generate(other, seed=11, stft_cfg=TOY, n_categories=8,
                    counts={"train": 48, "val": 24, "test": 8})
        root = dataset.root
        for rec in dataset.splits["val"][:6] + dataset.splits["train"][:6]:
            for name in (rec.frame, rec.mask, rec.wav):
                assert filecmp.cmp(root / name, other / name, shallow=False), name
        assert filecmp.cmp(f"{root}/manifest.json", other / "manifest.json", shallow=False)

    def test_split_ids_disjoint(self, dataset):
        ids = [r.id for split in dataset.splits.values() for r in split]
        assert len(ids) == len(set(ids))

    def test_mask_coverage_in_range(self, dataset):
        for rec in dataset.splits["train"]:
            clip = tw.load_clip(dataset, rec)
            cov = clip.gt_mask.mean()
            assert 0.01 <= cov <= 0.60, f"{rec.id}: coverage {cov:.3f}"

    def test_wave_peak_headroom(self, dataset):
        for rec in dataset.splits["train"][:16]:
            clip = tw.load_clip(dataset, rec)
            assert np.max(np.abs(clip.wave)) <= 0.9

    def test_clip_length_matches_stft_grid(self, dataset):
        clip = tw.load_clip(dataset, dataset.splits["train"][0])
        assert clip.wave.size == dataset.clip_samples
        assert dataset.stft.frame_count(clip.wave.size) == dataset.n_frames

    def test_too_few_categories_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least 2"):
            tw.generate(tmp_path / "x", seed=0, stft_cfg=TOY, n_categories=1)


class TestDatasetHandle:
    """``Dataset`` is the manifest's one reader and writer."""

    def test_load_equals_generated(self, dataset):
        loaded, doc = tw.Dataset.load(dataset.root / "manifest.json")
        assert loaded == dataset
        assert doc == dataset.to_json()

    def test_failed_clip_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        counts = {"train": 2, "val": 2, "test": 2}
        tw.generate(tmp_path, seed=1, stft_cfg=TOY, n_categories=2, counts=counts)
        real, calls = tw.write_pgm, []

        def write_pgm(path, mask):
            calls.append(path)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            real(path, mask)

        monkeypatch.setattr(tw, "write_pgm", write_pgm)
        with pytest.raises(OSError) as info:
            tw.generate(tmp_path, seed=2, stft_cfg=TOY, n_categories=2, counts=counts)
        assert info.value.errno == errno.ENOSPC
        assert info.value.filename == str(tmp_path / "clips" / "val_0000_mask.pgm")
        assert not (tmp_path / "manifest.json").exists()


class TestSpectralStructure:
    def test_energy_concentrates_at_fundamental(self, dataset):
        cfg, cats = dataset.stft, dataset.categories
        hz_per_bin = cfg.sample_rate / cfg.fft_size
        for rec in dataset.splits["val"]:
            clip = tw.load_clip(dataset, rec)
            spec = dsp.stft(clip.wave, cfg)
            energy = (spec.magnitude.astype(np.float64) ** 2).sum(axis=1)
            k = round(cats[clip.category].fundamental / hz_per_bin)
            inside = energy[max(k - 2, 0):k + 3].sum()
            outside = energy.sum() - inside
            assert inside >= 5 * outside, f"{rec.id}: ratio {inside / outside:.2f}"

    def test_fundamental_bin_identifies_category(self, dataset):
        cfg, cats = dataset.stft, dataset.categories
        hz_per_bin = cfg.sample_rate / cfg.fft_size
        cat_bins = np.array([c.fundamental / hz_per_bin for c in cats])
        hits = total = 0
        for split in ("train", "val"):
            for rec in dataset.splits[split]:
                clip = tw.load_clip(dataset, rec)
                spec = dsp.stft(clip.wave, cfg)
                peak = np.argmax(spec.magnitude.mean(axis=1))
                total += 1
                hits += int(np.argmin(np.abs(cat_bins - peak)) == clip.category)
        assert hits / total >= 0.95

    def test_fundamentals_separated_on_warped_grid(self, dataset):
        cfg, cats = dataset.stft, dataset.categories
        hz_per_bin = cfg.sample_rate / cfg.fft_size
        top = cfg.n_bins - 1
        out_bins = 64
        warped = [(out_bins - 1) * np.log(c.fundamental / hz_per_bin) / np.log(top) for c in cats]
        gaps = np.diff(sorted(warped))
        assert np.all(gaps >= 1.0)


class TestVisualSeparability:
    @staticmethod
    def features(clip):
        rgb = clip.frame.astype(np.float64)
        spread = rgb.max(axis=2) - rgb.min(axis=2)
        saturated = spread > 60
        if not saturated.any():
            return rgb.reshape(-1, 3).mean(axis=0)
        return rgb[saturated].mean(axis=0)

    def test_color_centroid_classifier(self, dataset):
        n_cat = len(dataset.categories)
        sums = np.zeros((n_cat, 3))
        counts = np.zeros(n_cat)
        for rec in dataset.splits["train"]:
            clip = tw.load_clip(dataset, rec)
            sums[clip.category] += self.features(clip)
            counts[clip.category] += 1
        centroids = sums / counts[:, None]
        hits = total = 0
        for rec in dataset.splits["val"]:
            clip = tw.load_clip(dataset, rec)
            pred = np.argmin(np.linalg.norm(centroids - self.features(clip), axis=1))
            hits += int(pred == clip.category)
            total += 1
        assert hits / total >= 0.95


class TestPairsAndMixing:
    def test_pair_sampling_uniform(self, dataset):
        rng = np.random.default_rng(17)
        records = dataset.splits["val"]
        n = len(records)
        counts = np.zeros(n)
        draws = 5000
        for _ in range(draws):
            i, j = rng.integers(0, n, size=2)
            counts[i] += 1
            counts[j] += 1
        expectation = 2 * draws / n
        sigma = np.sqrt(2 * draws * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expectation) <= 3 * sigma)

    def test_mixture_linearity_without_clipping(self, dataset):
        records = dataset.splits["train"]
        i, j = np.random.default_rng(31).integers(0, len(records), size=2)
        a, b = tw.load_clip(dataset, records[i]), tw.load_clip(dataset, records[j])
        mix = tw.mix_waves(a.wave, b.wave)
        expected = 0.5 * a.wave.astype(np.float64) + 0.5 * b.wave.astype(np.float64)
        assert np.max(np.abs(expected)) < 1.0  # headroom means no clipping
        np.testing.assert_allclose(mix, expected.astype(np.float32), atol=1e-7)


class TestPnmFiles:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(32, 48, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        tw.write_ppm(path, img)
        np.testing.assert_array_equal(tw.read_ppm(path), img)

    def test_pgm_roundtrip(self, tmp_path):
        mask = np.random.default_rng(3).random((16, 16)) > 0.5
        path = tmp_path / "m.pgm"
        tw.write_pgm(path, mask)
        np.testing.assert_array_equal(tw.read_pgm(path) > 127, mask)
