"""CLI pipeline on a miniature config: happy path, error categories,
artifact hashing."""

import errno
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import wave
from pathlib import Path

import numpy as np
import pytest

from cosep import avnets, checkpoint, cli, disentangle, dsp, metrics, trainer, toyworld as tw

from oracles import per_clip_image_metrics


def tiny_config(tmp_path, **schedule_overrides):
    schedule = {
        "preset": None, "sigmoid_epochs": 1, "softmax_epochs": 2,
        "initial_T": 1.0, "decay_rate": 0.5, "decay_epochs": [1, 2],
        "lr": 2e-3, "seed": 0, "batch_pairs": 4,
    }
    schedule.update(schedule_overrides)
    return {
        "dataset": {"seed": 3, "categories": 4, "train": 24, "val": 8, "test": 6,
                    "dir": str(tmp_path / "data"), "artifacts_dir": str(tmp_path / "artifacts")},
        "stft": {"preset": "toy", "warp_bins": 32},
        "model": {"channels": 8, "audio_depth": 2, "audio_widths": [6, 10, 14], "seed": 1},
        "schedule": schedule,
        "eval": {"pair_seed": 2, "n_mixtures": 4, "nmf_rank": 2, "nmf_iters": 40,
                 "figure_items": 2},
    }


def dataset_at(tmp_path):
    """The dataset ``make-data`` wrote under ``tmp_path/data``."""
    return tw.Dataset.load(tmp_path / "data" / "manifest.json")[0]


def write_config(tmp_path, cfg):
    path = tmp_path / "cosep.json"
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """make-data -> train -> assign once for the whole module."""
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg_path = write_config(tmp_path, tiny_config(tmp_path))
    for cmd in ("make-data", "train", "assign"):
        assert cli.main([cmd, "-c", cfg_path]) == 0
    return tmp_path, cfg_path


def bad_field_values():
    """(section, field, value): every field but the two paths given a
    string, and every integer field of the tiny config given -1 and 1.5."""
    tiny = tiny_config(Path("."))
    for section, fields in cli.SCHEMA.items():
        for field, (default, _) in fields.items():
            if field in ("dir", "artifacts_dir"):
                continue
            yield section, field, "x"
            if type(tiny[section].get(field, default)) is int:
                yield section, field, -1
                yield section, field, 1.5


class TestConfigValidation:
    @pytest.mark.parametrize("section,field,value", list(bad_field_values()))
    def test_every_field_rejects_a_bad_value(self, tmp_path, capsys, section, field, value):
        cfg = tiny_config(tmp_path)
        cfg[section][field] = value
        assert cli.main(["make-data", "-c", write_config(tmp_path, cfg)]) == 2
        assert one_error_line(capsys, "E_CONFIG").startswith(f"E_CONFIG: {section}")
        assert not (tmp_path / "data").exists() and not (tmp_path / "artifacts").exists()

    @pytest.mark.parametrize("section,field,value", [
        ("dataset", "bogus", 1),
        # fields of earlier versions: the model preset, its image-stage pin and the frame count
        ("model", "preset", "paper"),
        ("model", "image_stages", [[12, 2, 1]]),
        ("stft", "n_frames", 32),
    ])
    def test_unknown_field_rejected(self, tmp_path, capsys, section, field, value):
        cfg = tiny_config(tmp_path)
        cfg[section][field] = value
        rc = cli.main(["make-data", "-c", write_config(tmp_path, cfg)])
        assert rc == cli.EXIT_CODES["E_CONFIG"]
        assert one_error_line(capsys, "E_CONFIG") == f"E_CONFIG: unknown field {section}.{field}\n"
        assert not (tmp_path / "data").exists() and not (tmp_path / "artifacts").exists()

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        cfg["extra"] = {}
        assert cli.main(["make-data", "-c", write_config(tmp_path, cfg)]) == 2
        assert "unknown section" in capsys.readouterr().err

    def test_preset_field_collision_rejected(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, preset="E", softmax_epochs=25)
        assert cli.main(["make-data", "-c", write_config(tmp_path, cfg)]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_too_many_categories_rejected(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        cfg["dataset"]["categories"] = 8
        assert cli.main(["make-data", "-c", write_config(tmp_path, cfg)]) == 2
        assert "channels" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["make-data", "-c", str(tmp_path / "none.json")]) == 2
        capsys.readouterr()
        not_utf8 = tmp_path / "latin.json"
        not_utf8.write_bytes(b"\xff\xfe{}")
        for command, path in (("train", tmp_path), ("make-data", not_utf8)):
            assert cli.main([command, "-c", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"E_CONFIG: config {path}: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("tau", [1.5, 0, "half"])
    def test_eval_tau_outside_unit_interval_rejected(self, tmp_path, capsys, tau):
        cfg = tiny_config(tmp_path)
        cfg["eval"]["tau"] = tau
        assert cli.main(["eval", "-c", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:") and "eval.tau" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["make-data", "train", "eval"])
    @pytest.mark.parametrize("overrides", [
        {"decay_rate": 1.5},
        {"decay_epochs": [1, 5]},
        {"sigmoid_epochs": -1},
        {"lr": 0},
        {"batch_pairs": 0},
        {"sigmoid_epochs": 0, "softmax_epochs": 0, "decay_epochs": []},
    ], ids=["decay_rate", "decay_epoch", "sigmoid_epochs", "lr", "batch_pairs", "no_epochs"])
    def test_bad_schedule_rejected_on_load(self, tmp_path, capsys, command, overrides):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path, **overrides))
        assert cli.main([command, "-c", cfg_path]) == cli.EXIT_CODES["E_CONFIG"]
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG: schedule") and len(err.splitlines()) == 1
        assert not (tmp_path / "data").exists() and not (tmp_path / "artifacts").exists()

    @pytest.mark.parametrize("command", ["make-data", "eval", "report"])
    @pytest.mark.parametrize("field,value", [
        ("n_mixtures", 0), ("n_mixtures", True), ("figure_items", -1), ("figure_items", "two"),
        ("nmf_rank", 0), ("nmf_iters", -1), ("nmf_iters", 1.5),
    ])
    def test_bad_eval_rejected_on_load(self, tmp_path, capsys, command, field, value):
        cfg = tiny_config(tmp_path)
        cfg["eval"][field] = value
        assert cli.main([command, "-c", write_config(tmp_path, cfg)]) == cli.EXIT_CODES["E_CONFIG"]
        err = capsys.readouterr().err
        assert err.startswith(f"E_CONFIG: eval.{field}") and len(err.splitlines()) == 1
        assert not (tmp_path / "data").exists() and not (tmp_path / "artifacts").exists()

    @pytest.mark.parametrize("section,field,value", [
        ("dataset", "categories", 1),
        ("dataset", "categories", 13),
        ("dataset", "categories", "4"),
        ("dataset", "train", 3),
        ("dataset", "val", 2),
        ("dataset", "test", 1),
        ("dataset", "test", 6.0),
        ("stft", "preset", "paper"),   # a preset of earlier versions
        ("stft", "preset", ["toy"]),
        ("schedule", "preset", ["E"]),
        ("stft", "preset", "tiny"),
        ("model", "channels", "16"),
        ("model", "channels", 0),
        ("model", "image_size", 0),
        ("model", "audio_depth", 0),
        ("model", "seed", -1),
        ("stft", "warp_bins", 1),
        ("stft", "warp_bins", "x"),
        ("schedule", "symmetric", "no"),
        ("schedule", "symmetric", False),
        ("schedule", "distinct_pairs", "no"),
        ("eval", "include_nmf", "no"),
        ("eval", "include_nmf", 1),
    ])
    def test_bad_dataset_model_or_flag_rejected_on_load(self, tmp_path, capsys, section, field, value):
        cfg = tiny_config(tmp_path)
        cfg["model"]["channels"] = 16  # above every category count drawn here
        cfg[section][field] = value
        assert cli.main(["make-data", "-c", write_config(tmp_path, cfg)]) == 2
        assert one_error_line(capsys, "E_CONFIG").startswith(f"E_CONFIG: {section}.{field} ")
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("section,field,value", [
        ("model", "audio_widths", -1),
        ("model", "audio_widths", {"stem": 6}),
        ("model", "audio_widths", [6, 10, 0]),
        ("schedule", "lr", "x"),
        ("schedule", "lr", -1),
        ("schedule", "lr", float("inf")),
        ("schedule", "lr_finetune_divisor", -1),
        ("schedule", "lr_finetune_divisor", True),
    ])
    def test_bad_value_names_its_field(self, tmp_path, capsys, section, field, value):
        cfg = tiny_config(tmp_path)
        cfg[section][field] = value
        assert cli.main(["make-data", "-c", write_config(tmp_path, cfg)]) == cli.EXIT_CODES["E_CONFIG"]
        err = one_error_line(capsys, "E_CONFIG")
        assert err.startswith(f"E_CONFIG: {section}: {field} must be ") and err.rstrip().endswith(f"got {value!r}")
        assert not (tmp_path / "data").exists()

    def test_help_enumerates_config_fields(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = capsys.readouterr().out
        for field in ("dataset.seed", "stft.warp_bins", "model.channels",
                      "schedule.preset", "eval.tau", "eval.pair_seed"):
            assert field in out


def resolve(**sections):
    return cli.normalize_config(sections)["resolved"]


# the paper's STFT and model, given explicitly
PAPER_STFT = {"preset": None, "sample_rate": 11025, "window_size": 1022, "hop": 256, "warp_bins": 256}
PAPER_MODEL = {"image_size": 224, "channels": 32, "audio_depth": 7,
               "audio_widths": [16, 32, 64, 128, 256, 512, 512, 512]}


class TestConfigResolution:
    """Each config resolves once, at load: one preset rule for ``stft``
    and ``schedule``, each derived object built and checked there."""

    def test_default_config_hashes_are_pinned(self):
        cfg = cli.normalize_config({})
        assert {kind: cli.artifact_hash(cfg, kind) for kind in cli.ARTIFACTS} == {
            "dataset": "ceb93b710913518b", "nmf": "ceb93b710913518b",
            "checkpoint": "9682b39fbfe76dc6", "assignment": "9682b39fbfe76dc6",
            "report": "94d028f0f3421dee"}

    def test_resolved_values_stay_out_of_the_hashed_sections(self):
        raw = {"stft": {"preset": "toy"}, "model": {"seed": 2}, "schedule": {"preset": "E"}}
        cfg = cli.normalize_config(raw)
        assert cfg["stft"]["sample_rate"] is None and cfg["model"]["audio_widths"] is None
        assert cfg["schedule"]["softmax_epochs"] is None and cfg["schedule"]["sigmoid_epochs"] is None

    def test_every_section_and_preset_is_covered(self):
        assert sorted(cli.PRESETS) == ["schedule", "stft"] and sorted(cli.PRESETS["stft"]) == ["toy"]
        assert [s for s in cli.SCHEMA if "preset" in cli.SCHEMA[s]] == ["stft", "schedule"]

    def test_stft_presets(self):
        assert resolve(stft={"preset": "toy"}).stft == dsp.StftConfig(8000, 510, 128)
        # the paper's STFT, given explicitly
        assert resolve(stft={"preset": None, "sample_rate": 11025, "window_size": 1022,
                             "hop": 256}).stft == dsp.StftConfig(11025, 1022, 256)
        assert resolve(stft={"preset": None, "sample_rate": 16000, "window_size": 256,
                             "hop": 64}).stft == dsp.StftConfig(16000, 256, 64)

    def test_default_model(self):
        r = resolve()
        assert r.image == avnets.ImageNetCfg() and r.audio == avnets.AudioNetCfg()
        r = resolve(model={"audio_depth": 2}, stft={"warp_bins": 32})
        assert r.audio == avnets.AudioNetCfg(grid=32, depth=2, widths=(8, 16, 32))

    def test_paper_model(self):
        r = resolve(stft=PAPER_STFT, model={**PAPER_MODEL, "seed": 4})
        assert r.image == avnets.ImageNetCfg(224, 32)
        assert r.audio == avnets.AudioNetCfg(256, 7, 32, (16, 32, 64, 128, 256, 512, 512, 512))
        assert r.stft == dsp.StftConfig(11025, 1022, 256)

    @pytest.mark.parametrize("name", sorted(cli.PRESETS["schedule"]))
    def test_schedule_presets(self, name):
        pins = cli.PRESETS["schedule"][name]
        assert resolve(schedule={"preset": name}).schedule == trainer.ScheduleConfig(
            **{"sigmoid_epochs": 15, **pins})
        # unpinned fields keep their values
        given = {"lr": 4e-3, "lr_finetune_divisor": 3.0}
        if "sigmoid_epochs" not in pins:
            given["sigmoid_epochs"] = 2
        sched = resolve(schedule={"preset": name, **given}).schedule
        assert {f: getattr(sched, f) for f in given} == given

    def test_explicit_schedule_defaults_to_no_sigmoid_epochs(self):
        sched = resolve(schedule={"preset": None, "softmax_epochs": 2, "initial_T": 1.0,
                                  "decay_rate": 0.5, "decay_epochs": [1]}).schedule
        assert sched == trainer.ScheduleConfig(0, 2, 1.0, 0.5, (1,))

    @pytest.mark.parametrize("section,preset,field,value", [
        ("stft", "toy", "sample_rate", 16000),
        ("schedule", "E", "softmax_epochs", 25),
        ("schedule", "toy-E", "sigmoid_epochs", 12),
    ])
    def test_pinned_field_given_is_a_conflict(self, tmp_path, capsys, section, preset, field, value):
        cfg = {section: {"preset": preset, field: value}}
        assert cli.main(["make-data", "-c", write_config(tmp_path, cfg)]) == 2
        err = one_error_line(capsys, "E_CONFIG")
        assert err.startswith(f"E_CONFIG: {section}.preset {preset!r} conflicts with explicit {section}.{field}")
        # an explicit null is no conflict
        cfg[section][field] = None
        cli.normalize_config(cfg)

    @pytest.mark.parametrize("command", ["make-data", "train", "eval"])
    @pytest.mark.parametrize("stft,model,prefix", [
        ({"preset": None, "sample_rate": 8000, "window_size": 7, "hop": 4}, {}, "stft: window_size"),
        ({"preset": None, "sample_rate": "x", "window_size": 510, "hop": 128}, {}, "stft.sample_rate"),
        ({"preset": None, "window_size": 510, "hop": 128}, {}, "stft.sample_rate"),
        ({"preset": "toy", "sample_rate": 16000}, {}, "stft.preset 'toy' conflicts"),
        ({}, PAPER_MODEL, "model: grid 32 not divisible"),
        ({"warp_bins": 48}, {"audio_depth": 5, "audio_widths": None},
         "model: grid 48 not divisible"),
        ({}, {"audio_widths": [6, 10]}, "model: audio_widths must be null or 3 positive integers"),
        ({}, {"audio_widths": [6, 10, "x"]}, "model: audio_widths must be null or 3 positive integers"),
        ({"warp_bins": 512}, {}, "stft.warp_bins 512 exceeds the 256 bins"),
    ], ids=["odd_window", "sample_rate_x", "no_sample_rate", "toy_with_rate", "paper_model_toy_stft",
            "depth5_grid48", "widths_length", "widths_type", "bins_above_stft"])
    def test_config_that_cannot_train_is_one_error_line(self, tmp_path, capsys, command, stft, model, prefix):
        cfg = tiny_config(tmp_path)
        cfg["stft"].update(stft)
        cfg["model"].update(model)
        assert cli.main([command, "-c", write_config(tmp_path, cfg)]) == cli.EXIT_CODES["E_CONFIG"]
        assert one_error_line(capsys, "E_CONFIG").startswith(f"E_CONFIG: {prefix}")
        assert not (tmp_path / "data").exists() and not (tmp_path / "artifacts").exists()

    def test_paper_model_on_default_stft_is_rejected(self, tmp_path, capsys):
        cfg = {"dataset": {"dir": str(tmp_path / "data")}, "model": PAPER_MODEL}
        assert cli.main(["make-data", "-c", write_config(tmp_path, cfg)]) == 2
        assert one_error_line(capsys, "E_CONFIG").startswith("E_CONFIG: model: grid 64 not divisible by 2^7")
        assert not (tmp_path / "data").exists()


class TestMissingArtifacts:
    def test_train_without_dataset(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path))
        rc = cli.main(["train", "-c", cfg_path])
        assert rc == cli.EXIT_CODES["E_MISSING_ARTIFACT"]
        assert capsys.readouterr().err.startswith("E_MISSING_ARTIFACT:")

    def test_eval_without_checkpoint(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path))
        assert cli.main(["make-data", "-c", cfg_path]) == 0
        rc = cli.main(["eval", "-c", cfg_path])
        assert rc == cli.EXIT_CODES["E_MISSING_ARTIFACT"]
        assert "train" in capsys.readouterr().err


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        tmp_path, _ = pipeline
        art = tmp_path / "artifacts"
        assert (art / "checkpoint_final.ckpt").exists()
        assert (art / "checkpoint_sigmoid.ckpt").exists()
        assert (art / "train_log.csv").exists()
        assert (art / "assignment.json").exists()
        assert (art / "run_manifest.json").exists()

    def test_assignment_json_contents(self, pipeline):
        tmp_path, _ = pipeline
        doc = json.loads((tmp_path / "artifacts" / "assignment.json").read_text())
        assert set(doc) >= {"assignment", "total_profit", "table_hash", "config_hash"}
        assert len(doc["assignment"]) == 4

    def test_eval_writes_reports(self, pipeline, capsys):
        tmp_path, cfg_path = pipeline
        assert cli.main(["eval", "-c", cfg_path]) == 0
        out = capsys.readouterr().out
        report = (tmp_path / "artifacts" / "report.csv").read_text().splitlines()
        header = report[0] if not report[0].startswith("#") else report[1]
        assert header == "model,sparsity,accuracy,SDR,SIR,IoU"
        assert any(line.startswith("nmf,") for line in report)
        assert "SDR" in out

    def test_report_renders_figures(self, pipeline, capsys):
        tmp_path, cfg_path = pipeline
        if not (tmp_path / "artifacts" / "report.csv").exists():
            assert cli.main(["eval", "-c", cfg_path]) == 0
        assert cli.main(["report", "-c", cfg_path]) == 0
        figs = sorted((tmp_path / "artifacts" / "figures").iterdir())
        names = [f.name for f in figs]
        assert "separation_00.pgm" in names
        assert "segmentation_00.ppm" in names
        img = tw.read_pgm(tmp_path / "artifacts" / "figures" / "separation_00.pgm")
        assert img.ndim == 2 and img.shape[1] > 3 * 32

    def test_separate_clips_emits_wavs(self, pipeline, capsys):
        tmp_path, cfg_path = pipeline
        recs = dataset_at(tmp_path).splits["test"]
        pair = (recs[0].id, recs[1].id)
        assert cli.main(["separate", "-c", cfg_path, "--clips", ",".join(pair)]) == 0
        out = capsys.readouterr().out
        assert out.count("wrote") == 2

    def test_separate_user_wav_names_outputs_by_category(self, pipeline):
        tmp_path, cfg_path = pipeline
        dataset = dataset_at(tmp_path)
        cats = dataset.categories
        recs = dataset.splits["test"]
        a = tw.load_clip(dataset, recs[0])
        b = tw.load_clip(dataset, recs[1])
        wav_in = tmp_path / "user_mix.wav"
        dsp.write_wav(wav_in, tw.mix_waves(a.wave, b.wave), 8000)
        names = f"{cats[a.category].name},{cats[b.category].name}"
        assert cli.main(["separate", "-c", cfg_path, "--wav", str(wav_in),
                         "--categories", names]) == 0
        for name in names.split(","):
            out = tmp_path / f"user_mix.wav.{name}.wav"
            assert out.exists()
            wave, rate = dsp.read_wav(out)
            assert rate == 8000 and wave.size == a.wave.size

    def test_segment_emits_mask(self, pipeline, capsys):
        tmp_path, cfg_path = pipeline
        dataset = dataset_at(tmp_path)
        rec = dataset.splits["test"][0]
        image = tmp_path / "data" / rec.frame
        name = dataset.categories[rec.category].name
        assert cli.main(["segment", "-c", cfg_path, "--image", str(image),
                         "--category", name]) == 0
        mask = tw.read_pgm(f"{image}.{name}.pgm")
        assert mask.shape == (64, 64)

    def test_config_drift_detected(self, pipeline, tmp_path, capsys):
        src_tmp, _ = pipeline
        cfg = tiny_config(src_tmp)
        cfg["dataset"]["seed"] = 99  # same artifacts, different config
        rc = cli.main(["assign", "-c", write_config(tmp_path, cfg)])
        assert rc == cli.EXIT_CODES["E_CONFIG_DRIFT"]
        assert capsys.readouterr().err.startswith("E_CONFIG_DRIFT:")

    def test_unknown_clip_rejected(self, pipeline, capsys):
        _, cfg_path = pipeline
        assert cli.main(["separate", "-c", cfg_path, "--clips", "nope_0001,nope_0002"]) == 2

    def test_separate_needs_two_clip_ids(self, pipeline, capsys):
        tmp_path, cfg_path = pipeline
        recs = dataset_at(tmp_path).splits["test"]
        for ids in ([recs[0].id], [r.id for r in recs[:3]]):
            assert cli.main(["separate", "-c", cfg_path, "--clips", ",".join(ids)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("E_CONFIG:") and "two clip ids" in err
            assert len(err.splitlines()) == 1

    def test_segment_tau_outside_unit_interval_rejected(self, pipeline, capsys):
        tmp_path, cfg_path = pipeline
        dataset = dataset_at(tmp_path)
        rec = dataset.splits["test"][0]
        name = dataset.categories[rec.category].name
        image = tmp_path / "data" / rec.frame
        assert cli.main(["segment", "-c", cfg_path, "--image", str(image),
                         "--category", name, "--tau", "1.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG:") and "--tau" in err and len(err.splitlines()) == 1


class TestResumeErrors:
    """``train --resume`` failures end as one E_* line and leave every
    artifact as it was."""

    @staticmethod
    def artifacts(tmp_path):
        return {f.name: f.read_bytes() for f in (tmp_path / "artifacts").iterdir() if f.is_file()}

    @pytest.mark.parametrize("case,code", [
        ("missing", "E_MISSING_ARTIFACT"),
        ("not_a_checkpoint", "E_CORRUPT_ARTIFACT"),
        ("truncated", "E_CORRUPT_ARTIFACT"),
        ("no_image_cfg", "E_CORRUPT_ARTIFACT"),
        ("nan_weight", "E_CORRUPT_ARTIFACT"),
        ("schedule_drift", "E_CONFIG_DRIFT"),
        ("no_finetune", "E_CONFIG"),
    ])
    def test_bad_resume(self, pipeline, tmp_path, capsys, case, code):
        src_tmp, cfg_path = pipeline
        resume = src_tmp / "artifacts" / "checkpoint_sigmoid.ckpt"
        if case == "missing":
            resume = tmp_path / "none.ckpt"
        elif case == "not_a_checkpoint":
            resume = tmp_path / "notes.txt"
            resume.write_text("not a checkpoint\n")
        elif case == "truncated":
            good, resume = resume.read_bytes(), tmp_path / "cut.ckpt"
            resume.write_bytes(good[:len(good) // 2])
        elif case == "no_image_cfg":
            arrays, meta = checkpoint.load_tensors(resume)
            del meta["image_cfg"]
            resume = tmp_path / "no_image_cfg.ckpt"
            checkpoint.save_tensors(resume, arrays, meta)
        elif case == "nan_weight":
            arrays, meta = checkpoint.load_tensors(resume)
            arrays["img.s0.w"].reshape(-1)[0] = np.nan
            resume = tmp_path / "nan_weight.ckpt"
            checkpoint.save_tensors(resume, arrays, meta)
        elif case == "schedule_drift":
            cfg_path = write_config(tmp_path, tiny_config(src_tmp, lr=5e-3))
        else:
            cfg_path = write_config(tmp_path, tiny_config(src_tmp, softmax_epochs=0, decay_epochs=[]))
        before = self.artifacts(src_tmp)
        assert cli.main(["train", "-c", cfg_path, "--resume", str(resume)]) == cli.EXIT_CODES[code]
        err = capsys.readouterr().err
        assert err.startswith(f"{code}:") and len(err.splitlines()) == 1
        if code != "E_CONFIG":
            assert str(resume) in err
        assert self.artifacts(src_tmp) == before

    @pytest.mark.parametrize("keep", [None, 1])
    def test_log_without_the_sigmoid_rows_is_rejected(self, run_copy, capsys, keep):
        """A missing log (``keep`` None), or one that keeps only its header,
        lacks the sigmoid epoch's row that a resumed run keeps."""
        log = run_copy / "artifacts" / "train_log.csv"
        if keep is None:
            log.unlink()
        else:
            log.write_text("".join(log.read_text().splitlines(keepends=True)[:keep]))
        before = self.artifacts(run_copy)
        argv = ["train", "-c", "cosep.json", "--resume", "artifacts/checkpoint_sigmoid.ckpt"]
        assert cli.main(argv) == cli.EXIT_CODES["E_CONFIG"]
        assert "train_log.csv" in one_error_line(capsys, "E_CONFIG")
        assert self.artifacts(run_copy) == before

    def test_finished_checkpoint_is_rejected(self, pipeline, tmp_path, capsys):
        src_tmp, cfg_path = pipeline
        resume = tmp_path / "final.ckpt"
        shutil.copy(src_tmp / "artifacts" / "checkpoint_final.ckpt", resume)
        before = self.artifacts(src_tmp)
        assert cli.main(["train", "-c", cfg_path, "--resume", str(resume)]) == cli.EXIT_CODES["E_CONFIG"]
        err = one_error_line(capsys, "E_CONFIG")
        assert str(resume) in err and "checkpoint_sigmoid.ckpt" in err
        assert self.artifacts(src_tmp) == before


class TestCorruptArtifacts:
    def test_truncated_checkpoint_is_one_error_line(self, pipeline, capsys):
        tmp_path, cfg_path = pipeline
        art = tmp_path / "artifacts"
        ckpt = art / "checkpoint_final.ckpt"
        good, assignment = ckpt.read_bytes(), (art / "assignment.json").read_bytes()
        try:
            ckpt.write_bytes(good[:3000])
            assert cli.main(["assign", "-c", cfg_path]) == cli.EXIT_CODES["E_CORRUPT_ARTIFACT"] == 5
        finally:
            ckpt.write_bytes(good)
        err = capsys.readouterr().err
        assert err.startswith("E_CORRUPT_ARTIFACT:") and len(err.splitlines()) == 1
        assert "checkpoint_final.ckpt" in err
        assert (art / "assignment.json").read_bytes() == assignment

    def test_unreadable_nmf_checkpoint_is_refitted(self, pipeline):
        tmp_path, cfg_path = pipeline
        art = tmp_path / "artifacts"
        assert cli.main(["eval", "-c", cfg_path]) == 0
        good, report = (art / "nmf.ckpt").read_bytes(), (art / "report.csv").read_bytes()
        (art / "nmf.ckpt").write_bytes(good[:len(good) // 2])
        assert cli.main(["eval", "-c", cfg_path]) == 0
        assert (art / "nmf.ckpt").read_bytes() == good
        assert (art / "report.csv").read_bytes() == report


class TestDirectorySpelling:
    def test_normalized_spelling_reaches_the_same_artifacts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tiny_config(tmp_path)
        cfg["dataset"].update(dir="data", artifacts_dir="artifacts")
        for cmd in ("make-data", "train"):
            assert cli.main([cmd, "-c", write_config(tmp_path, cfg)]) == 0
        cfg["dataset"].update(dir="./data/", artifacts_dir="artifacts/")
        for cmd in ("assign", "eval"):
            assert cli.main([cmd, "-c", write_config(tmp_path, cfg)]) == 0
        assert (tmp_path / "artifacts" / "report.csv").exists()
        # an absolute spelling of the same directory is another config
        cfg["dataset"].update(dir=str(tmp_path / "data"), artifacts_dir=str(tmp_path / "artifacts"))
        assert cli.main(["assign", "-c", write_config(tmp_path, cfg)]) == cli.EXIT_CODES["E_CONFIG_DRIFT"]

    @pytest.mark.parametrize("field,value", [("dir", 5), ("dir", ""), ("artifacts_dir", None),
                                             ("artifacts_dir", ["artifacts"])])
    def test_non_string_directory_rejected(self, tmp_path, capsys, field, value):
        cfg = tiny_config(tmp_path)
        cfg["dataset"][field] = value
        assert cli.main(["make-data", "-c", write_config(tmp_path, cfg)]) == cli.EXIT_CODES["E_CONFIG"]
        err = capsys.readouterr().err
        assert err.startswith(f"E_CONFIG: dataset.{field}") and len(err.splitlines()) == 1


class TestEvalLoadsTestSplitOnce:
    def test_each_test_clip_loaded_once(self, pipeline, monkeypatch):
        tmp_path, cfg_path = pipeline
        test_ids = {r.id for r in dataset_at(tmp_path).splits["test"]}
        loaded = []
        real = tw.load_clip

        def load_clip(dataset, rec):
            loaded.append(rec.id)
            return real(dataset, rec)

        monkeypatch.setattr(tw, "load_clip", load_clip)
        assert cli.main(["eval", "-c", cfg_path]) == 0
        assert sorted(i for i in loaded if i in test_ids) == sorted(test_ids)


class TestDeterminism:
    """The premise of every byte-identity check: the same config run twice
    from fresh directories gives the same artifacts, byte for byte."""

    def test_pipeline_artifacts_are_byte_identical(self, tmp_path, monkeypatch, capsys):
        digests = []
        for run in ("one", "two"):
            cwd = tmp_path / run
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            cfg = tiny_config(cwd)
            cfg["dataset"].update(dir="data", artifacts_dir="artifacts")
            cfg_path = write_config(cwd, cfg)
            for cmd in ("make-data", "train", "assign", "eval"):
                assert cli.main([cmd, "-c", cfg_path]) == 0
            art = cwd / "artifacts"
            digests.append({name: (art / name).read_bytes()
                            for name in ("train_log.csv", "checkpoint_final.ckpt",
                                         "assignment.json", "report.csv", "eval_details.json",
                                         "nmf.ckpt", "report_extras.csv")})
            digests[-1].update({f.name: f.read_bytes() for f in (art / "figures").iterdir()})
        assert "separation_00.pgm" in digests[0] and "segmentation_00.ppm" in digests[0]
        assert digests[0] == digests[1]


def frames_through_maps(monkeypatch):
    """Record the frames each no-grad ImageNet.maps call receives."""
    seen = []
    real = avnets.ImageNet.maps

    def maps(self, frames):
        out = real(self, frames)
        if not out.requires_grad:
            seen.append(frames.data.copy())
        return out

    monkeypatch.setattr(avnets.ImageNet, "maps", maps)
    return seen


class TestOneImagePass:
    @staticmethod
    def loaded(tmp_path, cfg_path):
        cfg = cli.load_config(cfg_path)
        clips = tw.load_split(dataset_at(tmp_path), "test")
        bundle, _ = avnets.ModelBundle.load(tmp_path / "artifacts" / "checkpoint_final.ckpt")
        asg, _ = disentangle.Assignment.load(tmp_path / "artifacts" / "assignment.json")
        return cfg, clips, bundle, asg

    def test_batched_metrics_equal_per_clip_reference(self, pipeline):
        cfg, clips, bundle, asg = self.loaded(*pipeline)
        tau = cfg["eval"]["tau"]
        (row,), _, _, _ = metrics.evaluate_network(bundle, asg, clips, cfg["resolved"].stft, pair_seed=2,
                                                   n_mixtures=1, tau=tau)
        ref_iou, ref_sparsity, ref_accuracy = per_clip_image_metrics(bundle, asg, clips, tau)
        assert row["IoU"] == ref_iou
        assert row["sparsity"] == ref_sparsity
        assert row["accuracy"] == ref_accuracy

    def test_all_foreground_iou_is_the_mean_object_coverage(self, pipeline):
        """An all-true mask's IoU is the share of the frame the object covers."""
        cfg, clips, bundle, asg = self.loaded(*pipeline)
        _, extras, _, _ = metrics.evaluate_network(bundle, asg, clips, cfg["resolved"].stft, pair_seed=2,
                                                   n_mixtures=1)
        coverage = np.mean([clip.gt_mask.mean() for clip in clips])
        assert extras["model"]["all_foreground_IoU"] == pytest.approx(coverage, rel=1e-12)

    def test_evaluation_forwards_each_test_frame_once(self, pipeline, monkeypatch):
        cfg, clips, bundle, asg = self.loaded(*pipeline)
        seen = frames_through_maps(monkeypatch)
        metrics.evaluate_network(bundle, asg, clips, cfg["resolved"].stft, pair_seed=2, n_mixtures=2)
        frames = np.stack([c.frame for c in clips])
        assert np.array_equal(np.concatenate(seen), avnets.frames_to_tensor(frames).data)

    def test_assign_forwards_val_split_once(self, pipeline, monkeypatch):
        tmp_path, cfg_path = pipeline
        before = (tmp_path / "artifacts" / "assignment.json").read_text()
        seen = frames_through_maps(monkeypatch)
        assert cli.main(["assign", "-c", cfg_path]) == 0
        frames = np.stack([c.frame for c in tw.load_split(dataset_at(tmp_path), "val")])
        assert np.array_equal(np.concatenate(seen), avnets.frames_to_tensor(frames).data)
        assert (tmp_path / "artifacts" / "assignment.json").read_text() == before


def one_error_line(capsys, code: str) -> str:
    err = capsys.readouterr().err
    assert err.startswith(f"{code}:") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    return err


class TestBadInputFiles:
    """A bad ``separate --wav`` or ``segment --image`` file is one E_CONFIG
    line, not a traceback."""

    @staticmethod
    def write_pcm(path, samples, rate=8000, channels=1, width=2):
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(channels)
            fh.setsampwidth(width)
            fh.setframerate(rate)
            fh.writeframes(b"\x00" * width * channels * samples)

    @pytest.mark.parametrize("case", ["missing", "not_wav", "stereo", "8_bit", "rate", "short"])
    def test_bad_wav(self, pipeline, tmp_path, capsys, case):
        _, cfg_path = pipeline
        path = tmp_path / "in.wav"
        if case == "not_wav":
            path.write_text("not a wav\n")
        elif case == "stereo":
            self.write_pcm(path, 4096, channels=2)
        elif case == "8_bit":
            self.write_pcm(path, 4096, width=1)
        elif case == "rate":
            self.write_pcm(path, 4096, rate=16000)
        elif case == "short":
            self.write_pcm(path, 100)
        rc = cli.main(["separate", "-c", cfg_path, "--wav", str(path), "--categories", "0,1"])
        assert rc == cli.EXIT_CODES["E_CONFIG"]
        assert str(path) in one_error_line(capsys, "E_CONFIG")

    @pytest.mark.parametrize("case", ["missing", "not_p6", "truncated", "truncated_header"])
    def test_bad_image(self, pipeline, tmp_path, capsys, case):
        src_tmp, cfg_path = pipeline
        rec = dataset_at(src_tmp).splits["test"][0]
        path = tmp_path / "in.ppm"
        if case == "not_p6":
            shutil.copy(src_tmp / "data" / rec.mask, path)
        elif case == "truncated":
            good = (src_tmp / "data" / rec.frame).read_bytes()
            path.write_bytes(good[:len(good) // 2])
        elif case == "truncated_header":
            path.write_bytes(b"P6\n64 64\n# cut")
        rc = cli.main(["segment", "-c", cfg_path, "--image", str(path), "--category", "0"])
        assert rc == cli.EXIT_CODES["E_CONFIG"]
        assert str(path) in one_error_line(capsys, "E_CONFIG")


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """make-data -> train -> assign -> eval once, with directories relative
    to the run directory, so that a copy of it is a run of its own."""
    base = tmp_path_factory.mktemp("run")
    cfg = tiny_config(base)
    cfg["dataset"].update(dir="data", artifacts_dir="artifacts")
    write_config(base, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(base)
        for cmd in ("make-data", "train", "assign", "eval"):
            assert cli.main([cmd, "-c", "cosep.json"]) == 0
    return base


@pytest.fixture
def run_copy(finished_run, tmp_path, monkeypatch, capsys):
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    monkeypatch.chdir(run)
    capsys.readouterr()
    return run


def record_other_config(path):
    """Rewrite the artifact at ``path`` as if written under another config."""
    other = "0" * 16
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "config_hash": other}))
    elif path.suffix == ".ckpt":
        bundle, _ = avnets.ModelBundle.load(path)
        bundle.save(path, extra_meta={"config_hash": other})
    else:
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join([f"# config {other}\n"] + lines[1:]))


GATED = {  # artifact -> (the command that writes it, a command that reads it)
    "data/manifest.json": ("make-data", "eval"),
    "artifacts/checkpoint_final.ckpt": ("train", "eval"),
    "artifacts/assignment.json": ("assign", "eval"),
    "artifacts/report.csv": ("eval", "report"),
}
CODES = {"missing": "E_MISSING_ARTIFACT", "empty_object": "E_CORRUPT_ARTIFACT",
         "cut_in_half": "E_CORRUPT_ARTIFACT", "no_config_line": "E_CORRUPT_ARTIFACT",
         "other_config": "E_CONFIG_DRIFT"}


class TestArtifactGate:
    @pytest.mark.parametrize("name,case", [
        *[(name, case) for name in GATED
          for case in ("missing", "empty_object", "cut_in_half", "other_config")],
        ("artifacts/report.csv", "no_config_line"),
    ])
    def test_bad_artifact_is_one_error_line(self, run_copy, capsys, name, case):
        path = run_copy / name
        good = path.read_bytes()
        if case == "missing":
            path.unlink()
        elif case == "empty_object":
            path.write_text("{}")
        elif case == "cut_in_half":
            path.write_bytes(good[:len(good) // 2])
        elif case == "no_config_line":
            path.write_bytes(good.split(b"\n", 1)[1])
        else:
            record_other_config(path)
        writer, command = GATED[name]
        report = run_copy / "artifacts" / "report.csv"
        before = report.read_bytes() if report.exists() else None
        assert cli.main([command, "-c", "cosep.json"]) == cli.EXIT_CODES[CODES[case]]
        err = one_error_line(capsys, CODES[case])
        assert name in err and f"run {writer}" in err
        assert (report.read_bytes() if report.exists() else None) == before

    def test_manifest_splits_of_the_wrong_shape_are_corrupt(self, run_copy, capsys):
        path = run_copy / "data" / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "splits": []}))
        assert cli.main(["train", "-c", "cosep.json"]) == cli.EXIT_CODES["E_CORRUPT_ARTIFACT"]
        assert "data/manifest.json is unreadable" in one_error_line(capsys, "E_CORRUPT_ARTIFACT")

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_manifest_without_a_split_is_corrupt(self, run_copy, capsys, split):
        path = run_copy / "data" / "manifest.json"
        doc = json.loads(path.read_text())
        del doc["splits"][split]
        path.write_text(json.dumps(doc))
        assert cli.main(["train", "-c", "cosep.json"]) == cli.EXIT_CODES["E_CORRUPT_ARTIFACT"]
        err = one_error_line(capsys, "E_CORRUPT_ARTIFACT")
        assert "data/manifest.json is unreadable" in err and f"no {split} split" in err

    @pytest.mark.parametrize("split,keep,command", [("train", 2, "train"), ("val", 3, "assign"),
                                                    ("test", 1, "eval")])
    def test_split_lacking_a_category_is_corrupt(self, run_copy, capsys, split, keep, command):
        path = run_copy / "data" / "manifest.json"
        doc = json.loads(path.read_text())
        doc["splits"][split] = doc["splits"][split][:keep]
        path.write_text(json.dumps(doc))
        art = run_copy / "artifacts"
        before = {f: f.read_bytes() for f in art.iterdir() if f.is_file()}
        assert cli.main([command, "-c", "cosep.json"]) == cli.EXIT_CODES["E_CORRUPT_ARTIFACT"]
        err = one_error_line(capsys, "E_CORRUPT_ARTIFACT")
        assert "data/manifest.json is unreadable" in err and f"the {split} split has no clip of" in err
        assert {f: f.read_bytes() for f in art.iterdir() if f.is_file()} == before

    def test_report_reads_only_the_report(self, run_copy, capsys):
        art = run_copy / "artifacts"
        for name in ("checkpoint_final.ckpt", "checkpoint_sigmoid.ckpt", "assignment.json"):
            (art / name).unlink()
        shutil.rmtree(run_copy / "data")
        assert cli.main(["report", "-c", "cosep.json"]) == 0
        out = capsys.readouterr().out
        assert out == (art / "report_table.txt").read_text() + "\nfigures -> artifacts/figures\n"

    def test_report_after_eval_config_change_is_drift(self, run_copy, capsys):
        cfg = json.loads((run_copy / "cosep.json").read_text())
        cfg["eval"]["tau"] = 0.4
        write_config(run_copy, cfg)
        assert cli.main(["report", "-c", "cosep.json"]) == cli.EXIT_CODES["E_CONFIG_DRIFT"]
        assert "report.csv" in one_error_line(capsys, "E_CONFIG_DRIFT")

    def test_corrupt_run_manifest_is_one_error_line(self, run_copy, capsys):
        (run_copy / "artifacts" / "run_manifest.json").write_text('{"artifacts": ')
        assignment = run_copy / "artifacts" / "assignment.json"
        before = (assignment.read_bytes(), assignment.stat().st_ino)
        assert cli.main(["assign", "-c", "cosep.json"]) == cli.EXIT_CODES["E_CORRUPT_ARTIFACT"]
        assert "run_manifest.json" in one_error_line(capsys, "E_CORRUPT_ARTIFACT")
        assert (assignment.read_bytes(), assignment.stat().st_ino) == before  # not replaced

    def test_resume_reads_the_boundary_checkpoint(self, run_copy, capsys):
        """The resumed run keeps the first run's sigmoid-stage log rows,
        byte for byte, and logs every fine-tune epoch after them."""
        art = run_copy / "artifacts"
        boundary = (art / "checkpoint_sigmoid.ckpt").read_bytes()
        first = (art / "train_log.csv").read_text().splitlines()
        argv = ["train", "-c", "cosep.json", "--resume", "artifacts/checkpoint_sigmoid.ckpt"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("trained 2 epochs;")   # the epochs this run trained
        assert (art / "checkpoint_sigmoid.ckpt").read_bytes() == boundary
        lines = (art / "train_log.csv").read_text().splitlines()
        assert lines[:2] == first[:2]   # the header and the one sigmoid epoch
        assert [r.split(",")[:2] for r in lines[1:]] == [["1", "training"], ["2", "finetune"], ["3", "finetune"]]
        assert cli.main(["assign", "-c", "cosep.json"]) == 0


class TestDatasetImageSize:
    """Frames are rendered at the resolved image size, which the dataset
    hash leaves out; the dataset gate compares it with the manifest."""

    def test_changed_image_size_is_drift(self, run_copy, capsys):
        cfg = json.loads((run_copy / "cosep.json").read_text())
        cfg["model"]["image_size"] = 32
        write_config(run_copy, cfg)
        before = {f: f.read_bytes() for f in run_copy.rglob("*") if f.is_file()}
        for command in ("train", "assign", "eval"):
            assert cli.main([command, "-c", "cosep.json"]) == cli.EXIT_CODES["E_CONFIG_DRIFT"]
            err = one_error_line(capsys, "E_CONFIG_DRIFT")
            assert err.startswith("E_CONFIG_DRIFT: data/manifest.json holds 64-pixel frames")
            assert "resolves to 32" in err and err.rstrip().endswith("run make-data again")
        assert {f: f.read_bytes() for f in run_copy.rglob("*") if f.is_file()} == before

    def test_model_seed_keeps_the_dataset(self, run_copy):
        cfg = json.loads((run_copy / "cosep.json").read_text())
        cfg["model"]["seed"] = 9
        dataset = cli._require(cli.normalize_config(cfg), "dataset")
        assert dataset.image_size == 64


class TestEvalOutputs:
    def test_details_cover_every_item(self, finished_run):
        cfg = json.loads((finished_run / "cosep.json").read_text())
        details = json.loads((finished_run / "artifacts" / "eval_details.json").read_text())
        assert sorted(details) == ["custom", "nmf"]
        test_ids = [r.id for r in dataset_at(finished_run).splits["test"]]
        assert [d["clip"] for d in details["custom"]["segmentation"]] == test_ids
        for model in ("custom", "nmf"):
            mixtures = details[model]["separation"]
            assert len(mixtures) == cfg["eval"]["n_mixtures"]
            assert all(set(m) == {"clips", "sdr", "sir", "mixture_sdr"} for m in mixtures)

    def test_eval_renders_the_figures(self, finished_run):
        n = json.loads((finished_run / "cosep.json").read_text())["eval"]["figure_items"]
        names = sorted(f.name for f in (finished_run / "artifacts" / "figures").iterdir())
        assert names == sorted([f"segmentation_{i:02d}.ppm" for i in range(n)]
                               + [f"separation_{i:02d}.pgm" for i in range(n)])


    def test_second_eval_is_byte_identical(self, run_copy):
        """The first eval fits the NMF bases and scores with what nmf.ckpt
        holds, as every later eval does."""
        art = run_copy / "artifacts"
        names = ("eval_details.json", "report.csv", "report_extras.csv", "nmf.ckpt")
        first = {n: (art / n).read_bytes() for n in names}
        assert cli.main(["eval", "-c", "cosep.json"]) == 0
        assert {n: (art / n).read_bytes() for n in names} == first

    def test_nmf_leaves_the_network_scores_alone(self, run_copy):
        """The NMF baseline shares the network's mixture pass; the network's
        details and report row are those of an eval without it."""
        art = run_copy / "artifacts"
        with_nmf = json.loads((art / "eval_details.json").read_text())
        row = (art / "report.csv").read_text().splitlines()[2]
        cfg = json.loads((run_copy / "cosep.json").read_text())
        cfg["eval"]["include_nmf"] = False
        write_config(run_copy, cfg)
        assert cli.main(["eval", "-c", "cosep.json"]) == 0
        without = json.loads((art / "eval_details.json").read_text())
        assert sorted(without) == ["custom"]
        assert without["custom"] == with_nmf["custom"]
        assert (art / "report.csv").read_text().splitlines()[2:] == [row]

    def test_run_manifest_records_blas_threads(self, run_copy, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert cli.main(["assign", "-c", "cosep.json"]) == 0
        doc = json.loads((run_copy / "artifacts" / "run_manifest.json").read_text())
        assert doc["threads"]["assignment"] == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None}
        assert set(doc["threads"]) == set(doc["hashes"])

    @pytest.mark.parametrize("blas,workers", [(None, 1), ("1", 2)])
    def test_run_manifest_records_train_and_eval_workers(self, run_copy, monkeypatch, blas, workers):
        monkeypatch.setattr(checkpoint.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        if blas is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
        for cmd in ("train", "eval"):
            assert cli.main([cmd, "-c", "cosep.json"]) == 0
        doc = json.loads((run_copy / "artifacts" / "run_manifest.json").read_text())
        for kind in ("checkpoint", "report"):
            assert doc["threads"][kind] == {"OPENBLAS_NUM_THREADS": blas, "OMP_NUM_THREADS": None,
                                            "workers": workers}

    @pytest.mark.parametrize("blas,workers", [("2", 1), ("1", 2)])
    def test_run_manifest_records_resources(self, run_copy, blas, workers):
        """``eval`` in a process of its own records its wall seconds, its
        peak RSS and its forked workers': a forked worker is a copy of
        the command's process, while without one the kernel's figure stays
        at a few MB.  A manifest written before ``resources`` existed is
        read."""
        manifest = run_copy / "artifacts" / "run_manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["resources"]
        manifest.write_text(json.dumps(doc))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": blas,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("OMP_NUM_THREADS", None)
        started = time.monotonic()
        subprocess.run([sys.executable, "-c", EVAL_ON_TWO_CPUS], cwd=run_copy, env=env,
                       capture_output=True, check=True)
        took = time.monotonic() - started
        doc = json.loads(manifest.read_text())
        assert doc["threads"]["report"]["workers"] == workers
        assert list(doc["resources"]) == ["report"]
        spent = doc["resources"]["report"]
        assert set(spent) == {"wall_s", "peak_rss_mb", "workers_peak_rss_mb"}
        assert 0 < spent["wall_s"] < took
        assert spent["peak_rss_mb"] > 10
        assert (spent["workers_peak_rss_mb"] > 10) == (workers == 2)

    def test_run_manifest_resources_must_be_an_object(self, run_copy, capsys):
        manifest = run_copy / "artifacts" / "run_manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "resources": []}))
        assert cli.main(["assign", "-c", "cosep.json"]) == cli.EXIT_CODES["E_CORRUPT_ARTIFACT"]
        assert "run_manifest.json" in one_error_line(capsys, "E_CORRUPT_ARTIFACT")

    def test_eval_removes_earlier_figures(self, run_copy):
        cfg = json.loads((run_copy / "cosep.json").read_text())
        assert cfg["eval"]["figure_items"] == 2
        cfg["eval"]["figure_items"] = 1
        write_config(run_copy, cfg)
        assert cli.main(["eval", "-c", "cosep.json"]) == 0
        names = sorted(f.name for f in (run_copy / "artifacts" / "figures").iterdir())
        assert names == ["segmentation_00.ppm", "separation_00.pgm"]


WORKERS_PROBE = """
import hashlib, json, os, sys
import numpy as np
from cosep import checkpoint, cli, metrics, nmf, toyworld

cfg = cli.load_config("cosep.json")
dataset, bundle, asg = (cli._require(cfg, kind) for kind in ("dataset", "checkpoint", "assignment"))
clips = toyworld.load_split(dataset, "test")
e = cfg["eval"]

def digest(obj):
    h = hashlib.sha256()
    def walk(x):
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(x.tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for y in x:
                walk(y)
            h.update(b"]")
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(repr(k).encode())
                walk(x[k])
        else:
            h.update(repr(x).encode())   # repr round-trips floats exactly
    walk(obj)
    return h.hexdigest()

forks = []
fork = os.fork
os.fork = lambda: (forks.append(1), fork())[1]
blas = os.environ.pop("OPENBLAS_NUM_THREADS")
out = {}
for name, cpus, env in (("unset", 2, None), ("w1", 1, blas), ("w2", 2, blas), ("w3", 3, blas)):
    os.sched_getaffinity = lambda pid, n=cpus: set(range(n))
    if env is not None:
        os.environ["OPENBLAS_NUM_THREADS"] = env
    forks[:] = []
    model = nmf.fit_category_bases(dataset, rank=e["nmf_rank"], iters=200, seed=cfg["dataset"]["seed"])
    rows, extras, details, figures = metrics.evaluate_network(
        bundle, asg, clips, dataset.stft, pair_seed=e["pair_seed"], n_mixtures=e["n_mixtures"],
        tau=e["tau"], figure_items=e["figure_items"], nmf_model=model, nmf_iters=e["nmf_iters"])
    try:
        left = os.waitpid(-1, os.WNOHANG) != (0, 0)
    except ChildProcessError:
        left = False
    out[name] = {"workers": checkpoint.worker_count(e["n_mixtures"]), "forks": len(forks),
                 "children_left": left, "bases": digest(model.bases),
                 "rows": digest(rows), "extras": digest(extras), "details": digest(details),
                 "figures": digest(figures)}
print(json.dumps(out))
"""


class TestWorkerCountIndependence:
    """``eval``'s mixture loop and the NMF fits give the same bits at any
    worker count W, W = 1 forks nothing, and no worker process is left."""

    def test_eval_and_bases_equal_at_every_worker_count(self, finished_run):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("OMP_NUM_THREADS", None)
        out = subprocess.run([sys.executable, "-c", WORKERS_PROBE], cwd=finished_run, env=env,
                             capture_output=True, text=True, check=True).stdout
        runs = json.loads(out.splitlines()[-1])
        assert {n: r["workers"] for n, r in runs.items()} == {"unset": 1, "w1": 1, "w2": 2, "w3": 3}
        # one ordered map for the fits and one for the mixtures, each forking W - 1 workers
        assert {n: r["forks"] for n, r in runs.items()} == {"unset": 0, "w1": 0, "w2": 2, "w3": 4}
        assert not any(r["children_left"] for r in runs.values())
        outputs = [{k: v for k, v in r.items() if k not in ("workers", "forks")}
                   for r in runs.values()]
        assert all(o == outputs[0] for o in outputs)

    @staticmethod
    def check_train_probe(run):
        """Train ``run`` at one and two CPUs: each manifest's W is the count of
        threads the convolutions ran on, and the files are equal."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("OMP_NUM_THREADS", None)
        out = subprocess.run([sys.executable, "-c", TRAIN_PROBE], cwd=run, env=env,
                             capture_output=True, text=True, check=True).stdout
        runs = json.loads(out.splitlines()[-1])
        assert {n: (r["workers"], r["helpers"]) for n, r in runs.items()} == {"1": (1, 0), "2": (2, 1)}
        assert runs["1"]["files"] == runs["2"]["files"]

    def test_train_equal_at_one_and_two_workers(self, run_copy):
        self.check_train_probe(run_copy)

    def test_train_manifest_counts_the_image_nets_frames(self, run_copy):
        """At one pair per step the image net's convolutions still run 2
        frames, on 2 threads at 2 CPUs; the manifest records that W."""
        cfg = json.loads((run_copy / "cosep.json").read_text())
        cfg["schedule"]["batch_pairs"] = 1
        write_config(run_copy, cfg)
        self.check_train_probe(run_copy)


EVAL_ON_TWO_CPUS = """
import os
from cosep import cli

os.sched_getaffinity = lambda pid: {0, 1}
assert cli.main(["eval", "-c", "cosep.json"]) == 0
"""


TRAIN_PROBE = """
import hashlib, json, os, threading
from cosep import cli

out = {}
for cpus in (1, 2):
    os.sched_getaffinity = lambda pid, n=cpus: set(range(n))
    assert cli.main(["train", "-c", "cosep.json"]) == 0
    doc = json.load(open("artifacts/run_manifest.json"))
    out[cpus] = {"workers": doc["threads"]["checkpoint"]["workers"],
                 "helpers": sum(t.name.startswith("cosep-samples") for t in threading.enumerate()),
                 "files": {name: hashlib.sha256(open(f"artifacts/{name}", "rb").read()).hexdigest()
                           for name in ("train_log.csv", "checkpoint_final.ckpt")}}
print(json.dumps(out))
"""


NO_SCIPY_PIPELINE = """
import json, sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is refused here: {name}")
        return None


sys.meta_path.insert(0, RefuseScipy())
from cosep import avnets, cli
for cmd in ("make-data", "train", "assign", "eval"):
    assert cli.main([cmd, "-c", "cosep.json"]) == 0, cmd
bundle, _ = avnets.ModelBundle.load("artifacts/checkpoint_final.ckpt")
print(json.dumps({"mode": bundle.mode, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


class TestNoScipy:
    """The package needs no scipy: the whole pipeline runs in an
    interpreter that refuses every scipy import."""

    def test_pipeline_runs_with_scipy_refused(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cfg["dataset"].update(dir="data", artifacts_dir="artifacts")
        write_config(tmp_path, cfg)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", NO_SCIPY_PIPELINE], cwd=tmp_path, env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        # training ran both stages (sigmoid, then softmax), and eval fitted the NMF bases
        assert json.loads(run.stdout.splitlines()[-1]) == {"mode": "softmax", "scipy": []}
        for name in ("data/manifest.json", "artifacts/checkpoint_sigmoid.ckpt", "artifacts/nmf.ckpt",
                     "artifacts/assignment.json", "artifacts/report.csv"):
            assert (tmp_path / name).exists(), name


class TestHeapReuse:
    """Only ``train`` tunes glibc's allocator, and where libc.so.6 cannot
    be loaded it trains as before."""

    def test_train_runs_without_libc(self, run_copy, monkeypatch, capsys):
        opened = []

        def no_libc(name, *args, **kwargs):
            opened.append(name)
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
        log = run_copy / "artifacts" / "train_log.csv"
        trained = log.read_bytes()
        for cmd in ("assign", "report"):
            assert cli.main([cmd, "-c", "cosep.json"]) == 0
        assert opened == []
        assert cli.main(["train", "-c", "cosep.json"]) == 0
        assert opened == ["libc.so.6"]
        assert log.read_bytes() == trained
        assert capsys.readouterr().err == ""


class TestCorruptClips:
    """A dataset clip file that cannot be read is one E_CORRUPT_ARTIFACT
    line naming it, before the command writes anything."""

    @pytest.mark.parametrize("command,clip", [("train", "train_0001"), ("eval", "test_0001")])
    @pytest.mark.parametrize("case", ["missing_wav", "truncated_frame", "short_wav"])
    def test_bad_clip_is_one_error_line(self, run_copy, capsys, command, clip, case):
        clips = run_copy / "data" / "clips"
        if case == "missing_wav":
            name = f"{clip}.wav"
            (clips / name).unlink()
        elif case == "truncated_frame":
            name = f"{clip}.ppm"
            (clips / name).write_bytes(b"P6\n")
        else:
            name = f"{clip}.wav"
            wave, rate = dsp.read_wav(clips / name)
            dsp.write_wav(clips / name, wave[:1000], rate)
        art = run_copy / "artifacts"
        before = {f: f.read_bytes() for f in art.rglob("*") if f.is_file()}
        assert cli.main([command, "-c", "cosep.json"]) == cli.EXIT_CODES["E_CORRUPT_ARTIFACT"]
        err = one_error_line(capsys, "E_CORRUPT_ARTIFACT")
        assert f"data/clips/{name} is unreadable" in err and err.endswith("run make-data again\n")
        assert {f: f.read_bytes() for f in art.rglob("*") if f.is_file()} == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bad_train_clip_in_nmf_fit_is_one_error_line(self, run_copy, monkeypatch, capsys, cpus):
        """``eval`` refits the NMF bases, one category per item of the
        ordered map; the broken clip's category is worker 1's at W = 2, so
        its error crosses from a child with its path and cause."""
        set_workers(monkeypatch, cpus)
        (run_copy / "artifacts" / "nmf.ckpt").unlink()
        dataset = dataset_at(run_copy)
        second = sorted({rec.category for rec in dataset.splits["train"]})[1]
        clip = next(rec for rec in dataset.splits["train"] if rec.category == second)
        (run_copy / "data" / clip.wav).unlink()
        art = run_copy / "artifacts"
        before = {f: f.read_bytes() for f in art.rglob("*") if f.is_file()}
        assert cli.main(["eval", "-c", "cosep.json"]) == cli.EXIT_CODES["E_CORRUPT_ARTIFACT"]
        err = one_error_line(capsys, "E_CORRUPT_ARTIFACT")
        assert f"data/{clip.wav} is unreadable (FileNotFoundError: [Errno 2] No such file or directory" in err
        assert err.endswith("run make-data again\n")
        assert {f: f.read_bytes() for f in art.rglob("*") if f.is_file()} == before


class TestDegenerateCheckpoints:
    """A trained checkpoint pushed to an extreme either scores, with every
    report cell finite, or is refused with one E_* line: ``assign`` and
    ``eval`` never end in a traceback or print a numpy warning."""

    # case -> (the commands that refuse the checkpoint, what their error line names)
    REFUSED = {"one_nan": (("assign", "eval"), "non-finite values in aud.head.w"),
               "extra_tensor": (("assign", "eval"), "unexpected tensors ['img.s0.g']"),
               "times_1e30": (("assign", "eval"), "non-finite image maps"),
               "audio_times_1e30": (("eval",), "non-finite audio features")}

    @pytest.mark.parametrize("case", ["head_bias_up", "head_bias_down", "all_zero", "one_nan", "extra_tensor",
                                      "times_1e30", "audio_times_1e30"])
    def test_assign_and_eval(self, run_copy, capsys, monkeypatch, case):
        path = run_copy / "artifacts" / "checkpoint_final.ckpt"
        arrays, meta = checkpoint.load_tensors(path)
        # the assigned channel of a category in the first scored mixture
        e = tiny_config(run_copy)["eval"]
        first = metrics.sample_mixture_pairs(tw.load_split(dataset_at(run_copy), "test"),
                                             e["pair_seed"], e["n_mixtures"])[0][0]
        assignment = json.loads((run_copy / "artifacts" / "assignment.json").read_text())
        channel = assignment["category_to_channel"][first.category]
        if case == "head_bias_up":
            arrays["aud.head.b"][channel] = 1e4
        elif case == "head_bias_down":
            arrays["aud.head.b"][channel] = -1e4
        elif case == "all_zero":
            arrays = {name: np.zeros_like(arr) for name, arr in arrays.items()}
        elif case == "one_nan":
            arrays["aud.head.w"].reshape(-1)[0] = np.nan
        elif case == "extra_tensor":   # a tensor the bundle does not hold
            arrays["img.s0.g"] = np.ones((1, arrays["img.s0.b"].size, 1, 1), dtype=np.float32)
        else:
            # finite in float32, but the forward pass overflows; the audio
            # net alone overflows only in eval's mixture loop, on two workers
            scaled = [n for n in arrays if case == "times_1e30" or n.startswith("aud.")]
            arrays.update({n: arrays[n] * np.float32(1e30) for n in scaled})
            assert all(np.isfinite(arr).all() for arr in arrays.values())
            set_workers(monkeypatch, 2)
        checkpoint.save_tensors(path, arrays, meta)
        capsys.readouterr()
        refusing, reason = self.REFUSED.get(case, ((), ""))
        for command in ("assign", "eval"):
            rc = cli.main([command, "-c", "cosep.json"])
            if command in refusing:
                assert rc == cli.EXIT_CODES["E_CORRUPT_ARTIFACT"]
                err = one_error_line(capsys, "E_CORRUPT_ARTIFACT")
                assert "checkpoint_final.ckpt" in err and reason in err
            else:
                assert rc == 0
                assert "Traceback" not in capsys.readouterr().err
        if refusing:
            return
        rows = (run_copy / "artifacts" / "report.csv").read_text().splitlines()[2:]
        cells = [float(c) for row in rows for c in row.split(",")[1:] if c]
        assert len(cells) == 7 and np.all(np.isfinite(cells))
        details = json.loads((run_copy / "artifacts" / "eval_details.json").read_text())
        sdrs = [s for d in details["custom"]["separation"] for s in d["sdr"]]
        assert (-metrics.DB_CAP in sdrs) == (case == "head_bias_down")


class TestTrainingDivergence:
    def test_diverging_train_is_one_error_line(self, tmp_path, capsys):
        """A learning rate of 1e6 drives the loss non-finite: one E_DIVERGED
        line with the state dump, no numpy warning, no final checkpoint."""
        cfg_path = write_config(tmp_path, tiny_config(tmp_path, lr=1e6))
        assert cli.main(["make-data", "-c", cfg_path]) == 0
        capsys.readouterr()
        assert cli.main(["train", "-c", cfg_path]) == 8
        err = one_error_line(capsys, "E_DIVERGED")
        assert "non-finite loss at state {'seed': 0, 'epoch': 0" in err
        assert not (tmp_path / "artifacts" / "checkpoint_final.ckpt").exists()


def set_workers(monkeypatch, cpus: int):
    """W = ``cpus`` for the ordered maps of ``eval``."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(checkpoint.os, "sched_getaffinity", lambda pid: set(range(cpus)))


class TestDeadWorker:
    @pytest.mark.parametrize("end,message", [("kill", "was killed by SIGKILL"), ("exit", "ended with exit code 3")])
    def test_eval_worker_ending_without_results_is_one_error_line(self, run_copy, monkeypatch, capsys,
                                                                  end, message):
        set_workers(monkeypatch, 2)
        caller, mix_waves = os.getpid(), tw.mix_waves

        def dying_mix(a, b):
            if os.getpid() != caller:
                if end == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(3)
            return mix_waves(a, b)
        monkeypatch.setattr(tw, "mix_waves", dying_mix)
        art = run_copy / "artifacts"
        before = {f: f.read_bytes() for f in art.rglob("*") if f.is_file()}
        assert cli.main(["eval", "-c", "cosep.json"]) == cli.EXIT_CODES["E_WORKER"]
        err = one_error_line(capsys, "E_WORKER")
        assert re.fullmatch(rf"E_WORKER: worker 1 \(pid \d+\) {message} before returning item 1\n", err), err
        assert {f: f.read_bytes() for f in art.rglob("*") if f.is_file()} == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", ["write_atomic", "assignment", "summary_csv"])
    def test_failed_write_leaves_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "artifact"
        path.write_bytes(b"old\n")

        def fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint.os, "fsync", fsync)
        with pytest.raises(OSError, match="disk full"):
            if writer == "write_atomic":
                checkpoint.write_atomic(path, "new\n")
            elif writer == "assignment":
                disentangle.Assignment([0], [1.0], 1.0, ["a"]).save(path)
            else:
                metrics.write_summary_csv(path, [])
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


class TestMakeDataFailures:
    """A failed ``make-data`` is one E_* line and leaves no manifest, so the
    next command asks for ``make-data`` again."""

    @staticmethod
    def disk_full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    @pytest.mark.parametrize("target,module,name", [("clips/train_0000.wav", tw, "write_wav"),
                                                    ("manifest.json", checkpoint.os, "fsync")])
    def test_failed_write_is_one_io_line(self, tmp_path, monkeypatch, capsys, target, module, name):
        cfg_path = write_config(tmp_path, tiny_config(tmp_path))
        with monkeypatch.context() as m:
            m.setattr(module, name, self.disk_full)
            assert cli.main(["make-data", "-c", cfg_path]) == cli.EXIT_CODES["E_IO"]
        err = one_error_line(capsys, "E_IO")
        assert err == f"E_IO: {tmp_path / 'data' / target}: No space left on device\n"
        assert not (tmp_path / "data" / "manifest.json").exists()
        assert cli.main(["train", "-c", cfg_path]) == cli.EXIT_CODES["E_MISSING_ARTIFACT"]
        assert "manifest.json missing; run make-data" in one_error_line(capsys, "E_MISSING_ARTIFACT")

    def test_image_size_too_small_is_config_error(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        cfg["model"]["image_size"] = 2
        assert cli.main(["make-data", "-c", write_config(tmp_path, cfg)]) == cli.EXIT_CODES["E_CONFIG"]
        err = one_error_line(capsys, "E_CONFIG")
        assert err.startswith("E_CONFIG: model.image_size: train_") and "mask coverage 0.000" in err
        assert not (tmp_path / "data" / "manifest.json").exists()

    def test_manifest_has_one_writer(self, tmp_path, monkeypatch):
        writes = []

        def recording(module):
            real = module.write_atomic

            def write_atomic(path, data):
                writes.append((module.__name__, str(path)))
                real(path, data)
            return write_atomic

        for module in (tw, cli):
            monkeypatch.setattr(module, "write_atomic", recording(module))
        assert cli.main(["make-data", "-c", write_config(tmp_path, tiny_config(tmp_path))]) == 0
        manifest = str(tmp_path / "data" / "manifest.json")
        assert [w for w in writes if w[1] == manifest] == [("cosep.toyworld", manifest)]
