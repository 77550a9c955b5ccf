"""Schedule arithmetic (Table-style presets) and the training loop on a
miniature dataset."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosep import avnets, cli, dsp
from cosep import checkpoint
from cosep import tensor as tc
from cosep import toyworld as tw
from cosep import trainer as tr
from cosep.avnets import AudioNetCfg, ImageNetCfg, ModelBundle
from cosep.tensor import Adam, Tensor

from oracles import backward_checking_grad_owners, deadline, graph_of


def preset_schedule(name, **fields):
    """The schedule a config with ``schedule.preset`` ``name`` resolves to."""
    return cli.normalize_config({"schedule": {"preset": name, **fields}})["resolved"].schedule


MINI_WARP = 32


@pytest.fixture(scope="module")
def mini_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("miniset")
    return tw.generate(root, seed=5, stft_cfg=dsp.StftConfig(8000, 510, 128), n_categories=4,
                       counts={"train": 16, "val": 8, "test": 4}, n_frames=32)


def mini_bundle(seed=0):
    return ModelBundle(
        ImageNetCfg(input_size=64, channels=8, stages=((8, 2, 1), (12, 2, 1), (16, 2, 1), (16, 1, 2))),
        AudioNetCfg(grid=MINI_WARP, depth=2, channels=8, widths=(6, 10, 14)),
        seed=seed)


def mini_schedule(**overrides):
    fields = dict(sigmoid_epochs=2, softmax_epochs=3, initial_T=1.0,
                  decay_rate=0.5, decay_epochs=(1, 2), lr=2e-3)
    fields.update(overrides)
    return tr.ScheduleConfig(**fields)


class TestTemperatureSchedule:
    def test_closed_form_final_temperatures(self):
        # schedule rows: (initial, rate, decays, exact/closed, 3-decimal display)
        rows = {
            "A": (10.0, 0.5, (4, 8, 12, 16), 0.625),
            "B": (1.5, 0.75, (4, 8, 12, 16), 0.475),
            "C": (1.0, 0.3, (4, 8), 0.090),
            "D": (1.0, 0.3, (3, 6, 9, 12), 0.008),
            "E": (1.0, 0.5, (5, 10, 15), 0.125),
            "softmax-only": (1.0, 0.3, (10, 20), 0.090),
        }
        for name, (t0, rate, decays, display) in rows.items():
            cfg = preset_schedule(name)
            assert cfg.initial_T == t0 and cfg.decay_rate == rate
            assert cfg.decay_epochs == decays
            final = tr.temperature_at(cfg, cfg.softmax_epochs)
            assert final == t0 * rate ** len(decays)  # closed form, zero tolerance
            assert round(final, 3) == display

    def test_model_e_epoch_twenty(self):
        cfg = preset_schedule("E")
        assert tr.temperature_at(cfg, 20) == 0.125

    def test_model_c_epoch_twenty_five(self):
        cfg = preset_schedule("C")
        assert abs(tr.temperature_at(cfg, 25) - 0.090) < 1e-12

    def test_model_d_closed_form(self):
        cfg = preset_schedule("D")
        final = tr.temperature_at(cfg, cfg.softmax_epochs)
        assert final == 1.0 * 0.3 ** 4
        assert round(final, 3) == 0.008

    def test_non_increasing_in_epoch(self):
        cfg = preset_schedule("B")
        temps = [tr.temperature_at(cfg, e) for e in range(cfg.softmax_epochs + 1)]
        assert all(b <= a for a, b in zip(temps, temps[1:]))

    def test_partial_decay_counting(self):
        cfg = preset_schedule("E")
        assert tr.temperature_at(cfg, 4) == 1.0
        assert tr.temperature_at(cfg, 5) == 0.5
        assert tr.temperature_at(cfg, 14) == 0.25

    def test_validation(self):
        with pytest.raises(ValueError, match="decay epochs"):
            tr.ScheduleConfig(2, 3, decay_epochs=(5,))
        with pytest.raises(ValueError, match="decay rate"):
            tr.ScheduleConfig(2, 3, decay_rate=1.5)
        with pytest.raises(ValueError, match="temperature"):
            tr.ScheduleConfig(2, 3, initial_T=0.0)
        with pytest.raises(ValueError, match="at least one epoch"):
            tr.ScheduleConfig(0, 0)
        with pytest.raises(cli.CliError, match="schedule.preset 'Z' unknown"):
            preset_schedule("Z")


@st.composite
def schedules(draw):
    sigmoid = draw(st.integers(0, 6))
    softmax = draw(st.integers(0 if sigmoid else 1, 8))
    decays = draw(st.lists(st.integers(1, softmax), max_size=4).map(sorted)) if softmax else []
    return tr.ScheduleConfig(
        sigmoid, softmax, initial_T=draw(st.floats(0.05, 20.0)),
        decay_rate=draw(st.floats(0.05, 0.95)), decay_epochs=tuple(decays),
        lr=draw(st.floats(1e-5, 1e-1)), lr_finetune_divisor=draw(st.floats(0.5, 10.0)))


class TestEpochPlan:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(schedules())
    def test_plan_rows_follow_the_schedule(self, cfg):
        plan = tr.epoch_plan(cfg)
        assert len(plan) == cfg.sigmoid_epochs + cfg.softmax_epochs
        for stage, mode, temp, lr in plan[:cfg.sigmoid_epochs]:
            assert (stage, mode, temp, lr) == ("training", "sigmoid", None, cfg.lr)
        for e, (stage, mode, temp, lr) in enumerate(plan[cfg.sigmoid_epochs:], start=1):
            assert (stage, mode) == ("finetune", "softmax")
            assert temp == tr.temperature_at(cfg, e)
            assert lr == cfg.lr / cfg.lr_finetune_divisor

    def test_preset_passes_rates_through(self):
        cfg = preset_schedule("toy-sigmoid-only", lr=4e-3, lr_finetune_divisor=3.0)
        assert (cfg.sigmoid_epochs, cfg.lr, cfg.lr_finetune_divisor) == (16, 4e-3, 3.0)
        assert preset_schedule("E").sigmoid_epochs == 15
        assert preset_schedule("E", sigmoid_epochs=1).sigmoid_epochs == 1


class TestSamplePairs:
    @staticmethod
    def categories(dataset):
        return [rec.category for rec in dataset.splits["train"]]

    def test_pair_sampling_reproducible(self, mini_dataset):
        cats = self.categories(mini_dataset)
        draws = [tr._sample_pairs(np.random.default_rng(5), len(cats), 40, cats, distinct)
                 for distinct in (False, False, True, True)]
        assert draws[0].shape == (40, 2)
        assert np.array_equal(draws[0], draws[1]) and np.array_equal(draws[2], draws[3])

    def test_distinct_category_flag(self, mini_dataset):
        cats = np.array(self.categories(mini_dataset))
        pairs = tr._sample_pairs(np.random.default_rng(23), len(cats), 200, cats, False)
        assert np.any(cats[pairs[:, 0]] == cats[pairs[:, 1]])  # the flag has work to do
        pairs = tr._sample_pairs(np.random.default_rng(23), len(cats), 200, cats, True)
        assert np.all(cats[pairs[:, 0]] != cats[pairs[:, 1]])

    def test_distinct_pairs_of_one_category_rejected(self):
        with deadline(10), pytest.raises(ValueError, match="two categories"):
            tr._sample_pairs(np.random.default_rng(0), 3, 4, [1, 1, 1], True)


class TestTrainStep:
    @staticmethod
    def one_pair(dataset, seed):
        prepared = tr.prepare_split(dataset, "train", MINI_WARP)
        cats = [p.category for p in prepared]
        pair_idx = tr._sample_pairs(np.random.default_rng(seed), len(prepared), 1, cats, False)
        return prepared, pair_idx

    def test_initial_loss_near_ln2(self, mini_dataset):
        bundle = mini_bundle(seed=1)
        opt = Adam(bundle.param_list(), lr=1e-3)
        prepared, ((i, j),) = self.one_pair(mini_dataset, 2)
        batch = tr._batch_arrays([(prepared[i], prepared[j])])
        loss = tr._step_batch(batch, bundle, opt)
        assert abs(loss - math.log(2)) <= 0.15

    def test_nan_aborts_with_state_dump(self, mini_dataset):
        bundle = mini_bundle(seed=2)
        bundle.synth_w.data[0] = np.nan
        opt = Adam(bundle.param_list(), lr=1e-3)
        state = tr.TrainState(seed=0)
        prepared, pair_idx = self.one_pair(mini_dataset, 3)
        with pytest.raises(tr.TrainingDiverged, match="stage.*batch_pairs 8"):
            tr._run_epoch(prepared, pair_idx, bundle, opt, state, batch_pairs=8)

    def test_overflowing_image_maps_abort_with_state_dump(self, mini_dataset):
        """Image maps that overflow stop training at the validation pass
        with the state dump, as a non-finite loss does."""
        bundle = mini_bundle(seed=2)
        for name, p in bundle.params().items():
            if name.startswith("img."):
                p.data *= np.float32(1e30)
        frames = np.stack([c.frame for c in tw.load_split(mini_dataset, "val")])
        with pytest.raises(tr.TrainingDiverged, match="non-finite image maps at state .*'epoch': 3") as info:
            tr._val_sparsity(bundle, frames, tr.TrainState(seed=0, epoch=3))
        assert isinstance(info.value.__cause__, avnets.NonFiniteOutput)


class TestStepBatch:
    """One step at the default architecture on synthetic arrays."""

    @staticmethod
    def batch(n_pairs=2, seed=0):
        rng = np.random.default_rng(seed)
        mix = rng.random((n_pairs, 1, 64, 64)).astype(np.float32)
        frames = rng.random((2 * n_pairs, 3, 64, 64)).astype(np.float32)
        targets = (rng.random((2 * n_pairs, 1, 64, 64)) > 0.5).astype(np.float32)
        return mix, frames, targets

    @staticmethod
    def side_losses(bundle, batch):
        mix, frames, targets = batch
        n = len(mix)
        with tc.no_grad():
            feats = avnets.audio_forward(Tensor(mix), bundle)
            out = []
            for half in (slice(0, n), slice(n, 2 * n)):
                _, _, v = avnets.image_forward(Tensor(frames[half]), bundle)
                mask = avnets.synthesize_mask(v, feats, bundle)
                out.append(tc.bce_loss(mask, Tensor(targets[half])).item())
        return out

    def test_symmetric_step_is_one_image_pass(self, monkeypatch):
        bundle = ModelBundle(ImageNetCfg(), AudioNetCfg(), seed=3)
        batch = self.batch()
        loss_a, loss_b = self.side_losses(bundle, batch)
        calls, nodes = [], []
        real_forward, real_make_node = avnets.image_forward, tc._make_node

        def counting_forward(*args):
            calls.append(args[0].shape[0])
            return real_forward(*args)

        def counting_make_node(out, inputs, fn):
            out = real_make_node(out, inputs, fn)
            nodes.append(out._backward is not None)
            return out

        monkeypatch.setattr(avnets, "image_forward", counting_forward)
        monkeypatch.setattr(tc, "_make_node", counting_make_node)
        loss = tr._step_batch(batch, bundle, Adam(bundle.param_list(), lr=1e-3))
        assert calls == [4]
        assert abs(loss - 0.5 * (loss_a + loss_b)) <= 1e-6
        # audio 14 (stem, 4 down, 4 up x 2 (upsample, conv block), head),
        # image 7 (4 conv blocks, head, pool, sigmoid), synthesizer 2
        # (weighted channel sum, sigmoid), loss 1
        assert sum(nodes) == 24

    def test_no_two_graph_tensors_share_a_grad_buffer(self, monkeypatch):
        """Ops hand over gradient buffers they allocated, and ``conv2d``
        copies its crops of a padded or multi-part input gradient; at every
        node's backward call of one step, no live grad is a view of
        another."""
        counts, real_backward = [], tc.backward
        monkeypatch.setattr(tc, "backward",
                            lambda loss: counts.append(backward_checking_grad_owners(loss, real_backward)))
        bundle = mini_bundle(seed=2)
        tr._step_batch(self.mini_batch(), bundle, Adam(bundle.param_list(), lr=1e-3))
        assert len(counts) == 1 and counts[0] > len(bundle.param_list())

    @staticmethod
    def mini_batch(seed=2):
        rng = np.random.default_rng(seed)
        return (rng.random((2, 1, MINI_WARP, MINI_WARP)).astype(np.float32),
                rng.random((4, 3, 64, 64)).astype(np.float32),
                (rng.random((4, 1, MINI_WARP, MINI_WARP)) > 0.5).astype(np.float32))

    def test_step_releases_the_graph_as_it_walks(self, monkeypatch):
        """The synthesized mask, recorded just before the loss, and the
        audio features the weighted channel sum read are freed by the time
        the step's first op runs its backward; the loss keeps no graph
        afterwards."""
        made, losses, alive, feats = [], [], [], []
        real_make_node, real_backward = tc._make_node, tc.backward

        def recording_make_node(out, inputs, fn):
            if not made:
                def first_backward(g):
                    alive.append((made[-2]() is not None, feats[0]() is not None))
                    fn(g)
                out = real_make_node(out, inputs, first_backward)
            else:
                out = real_make_node(out, inputs, fn)
            if fn.__qualname__.startswith("weighted_channel_sum."):
                feats.append(weakref.ref(inputs[1].data))
            made.append(weakref.ref(out.data))
            return out

        def recording_backward(loss):
            losses.append(loss)
            real_backward(loss)

        monkeypatch.setattr(tc, "_make_node", recording_make_node)
        monkeypatch.setattr(tc, "backward", recording_backward)
        bundle = mini_bundle(seed=2)
        tr._step_batch(self.mini_batch(), bundle, Adam(bundle.param_list(), lr=1e-3))
        assert len(feats) == 1 and alive == [(False, False)]
        assert losses[0]._prev == () and losses[0]._backward is None

    def test_backward_peak_is_below_forward_plus_interior_grads(self, monkeypatch):
        """The walk frees grads and activations as it passes them, so its
        peak stays below what the forward left live plus every interior
        grad at once."""
        seen, real_backward = {}, tc.backward

        def measured_backward(loss):
            seen["grads"] = sum(t.data.nbytes for t in graph_of(loss) if t._prev)
            seen["forward"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            real_backward(loss)
            seen["peak"] = tracemalloc.get_traced_memory()[1]

        monkeypatch.setattr(tc, "backward", measured_backward)
        bundle = mini_bundle(seed=2)
        opt = Adam(bundle.param_list(), lr=1e-3)
        tracemalloc.start()
        try:
            tr._step_batch(self.mini_batch(), bundle, opt)
        finally:
            tracemalloc.stop()
        assert seen["peak"] < seen["forward"] + seen["grads"]

    # Traced peak of one mini-bundle step (numpy 2, W = 1): 2.94 MB with
    # each conv block one node, 3.46 MB when ReLU and the skip concat were
    # nodes of their own, each with its own activation copy.
    STEP_PEAK_BYTES = 3_200_000

    def test_step_peak_is_pinned(self, monkeypatch):
        """The traced peak of a steady-state training step: a conv block
        that keeps a second full-size activation, or a gradient buffer the
        walk no longer frees, crosses the bound."""
        for var in tc.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)   # W = 1
        bundle, batch = mini_bundle(seed=2), self.mini_batch()
        opt = Adam(bundle.param_list(), lr=1e-3)
        tr._step_batch(batch, bundle, opt)   # caches and lazy buffers
        tracemalloc.start()
        try:
            tr._step_batch(batch, bundle, opt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.STEP_PEAK_BYTES


class TestRunSchedule:
    def test_stages_temperatures_logs_checkpoints(self, mini_dataset, tmp_path):
        cfg = mini_schedule()
        bundle = mini_bundle(seed=3)
        log = tmp_path / "train.csv"
        state = tr.run_schedule(cfg, mini_dataset, bundle, out_dir=tmp_path, seed=7,
                                batch_pairs=4, log_path=log)
        assert state.epoch == 5
        assert len(state.loss_history) == 5
        assert all(np.isfinite(state.loss_history))
        assert bundle.mode == "softmax" and bundle.trained
        assert bundle.temperature == tr.temperature_at(cfg, 3) == 0.25
        assert (tmp_path / "checkpoint_sigmoid.ckpt").exists()
        assert (tmp_path / "checkpoint_final.ckpt").exists()
        rows = log.read_text().strip().split("\n")
        assert rows[0] == "epoch,stage,T,lr,loss,sparsity"
        assert len(rows) == 6
        stages = [r.split(",")[1] for r in rows[1:]]
        assert stages == ["training"] * 2 + ["finetune"] * 3
        # fine-tune lr is the base lr divided by five
        lrs = [float(r.split(",")[3]) for r in rows[1:]]
        assert lrs[0] == pytest.approx(cfg.lr)
        assert lrs[-1] == pytest.approx(cfg.lr / 5)

    def test_seeded_runs_are_identical(self, mini_dataset):
        cfg = mini_schedule()
        s1 = tr.run_schedule(cfg, mini_dataset, mini_bundle(seed=4), seed=11,
                             batch_pairs=4)
        s2 = tr.run_schedule(cfg, mini_dataset, mini_bundle(seed=4), seed=11,
                             batch_pairs=4)
        assert s1.loss_history == s2.loss_history
        assert s1.sparsity_history == s2.sparsity_history

    def test_softmax_only_skips_sigmoid_stage(self, mini_dataset):
        cfg = mini_schedule(sigmoid_epochs=0)
        bundle = mini_bundle(seed=5)
        state = tr.run_schedule(cfg, mini_dataset, bundle, seed=1,
                                batch_pairs=4)
        assert state.epoch == 3
        assert state.stage == "finetune"

    def test_sigmoid_only_never_switches(self, mini_dataset):
        cfg = mini_schedule(softmax_epochs=0, decay_epochs=())
        bundle = mini_bundle(seed=6)
        state = tr.run_schedule(cfg, mini_dataset, bundle, seed=1,
                                batch_pairs=4)
        assert bundle.mode == "sigmoid"
        assert state.stage == "training"

    def test_finetune_raises_sparsity_for_c_and_e_analogs(self, mini_dataset):
        for rate, decays in ((0.3, (1, 2)), (0.5, (1, 2, 3))):  # C-like, E-like
            cfg = mini_schedule(softmax_epochs=3, decay_rate=rate, decay_epochs=decays)
            bundle = mini_bundle(seed=8)
            state = tr.run_schedule(cfg, mini_dataset, bundle, seed=2,
                                    batch_pairs=4)
            after_sigmoid = state.sparsity_history[cfg.sigmoid_epochs - 1]
            after_finetune = state.sparsity_history[-1]
            assert after_finetune > after_sigmoid

    def test_resume_from_stage_boundary(self, mini_dataset, tmp_path):
        cfg = mini_schedule()
        tr.run_schedule(cfg, mini_dataset, mini_bundle(seed=10), out_dir=tmp_path, seed=4,
                        batch_pairs=4)
        bundle, _ = ModelBundle.load(tmp_path / "checkpoint_sigmoid.ckpt")
        log = tmp_path / "resumed.csv"
        state = tr.run_schedule(cfg, mini_dataset, bundle, seed=4,
                                batch_pairs=4, log_path=log, start_epoch=cfg.sigmoid_epochs)
        assert state.stage == "finetune"
        assert bundle.trained
        assert state.epoch == 5 and len(state.loss_history) == 3
        rows = [r.split(",")[:2] for r in log.read_text().strip().split("\n")[1:]]
        assert rows == [["3", "finetune"], ["4", "finetune"], ["5", "finetune"]]

    @pytest.mark.parametrize("sigmoid_epochs", [0, 1])
    def test_resume_writes_no_boundary_checkpoint(self, mini_dataset, tmp_path, sigmoid_epochs):
        cfg = mini_schedule(sigmoid_epochs=sigmoid_epochs, softmax_epochs=1, decay_epochs=())
        tr.run_schedule(cfg, mini_dataset, mini_bundle(seed=12), out_dir=tmp_path / "first",
                        seed=6, batch_pairs=8)
        bundle, _ = ModelBundle.load(tmp_path / "first" / "checkpoint_sigmoid.ckpt")
        tr.run_schedule(cfg, mini_dataset, bundle, out_dir=tmp_path / "resumed", seed=6,
                        batch_pairs=8, start_epoch=sigmoid_epochs)
        assert [p.name for p in (tmp_path / "resumed").iterdir()] == ["checkpoint_final.ckpt"]

    @pytest.mark.parametrize("sigmoid_epochs,softmax_epochs", [(0, 2), (2, 0), (2, 2)])
    def test_boundary_checkpoint_and_log_follow_the_plan(self, mini_dataset, tmp_path,
                                                         sigmoid_epochs, softmax_epochs):
        cfg = mini_schedule(sigmoid_epochs=sigmoid_epochs, softmax_epochs=softmax_epochs,
                            decay_epochs=(1,) if softmax_epochs else ())
        bundle = mini_bundle(seed=11)
        initial = {k: p.data.copy() for k, p in bundle.params().items()}
        log = tmp_path / "train.csv"
        tr.run_schedule(cfg, mini_dataset, bundle, out_dir=tmp_path, seed=5,
                        batch_pairs=8, log_path=log)
        rows = [r.split(",") for r in log.read_text().strip().split("\n")[1:]]
        expected = [[str(i), stage, "" if t is None else f"{t:.6g}", f"{lr:.6g}"]
                    for i, (stage, _, t, lr) in enumerate(tr.epoch_plan(cfg), start=1)]
        assert [r[:4] for r in rows] == expected

        boundary, meta = checkpoint.load_tensors(tmp_path / "checkpoint_sigmoid.ckpt")
        assert meta["completed_stage"] == "training" and meta["mode"] == "sigmoid"
        assert meta["trained"] is False
        final, _ = checkpoint.load_tensors(tmp_path / "checkpoint_final.ckpt")
        if sigmoid_epochs == 0:
            reference = initial       # taken before the first epoch
        elif softmax_epochs == 0:
            reference = final         # taken after the last epoch
        else:                         # taken after the sigmoid stage of the same run
            sigmoid_only = mini_bundle(seed=11)
            tr.run_schedule(mini_schedule(sigmoid_epochs=sigmoid_epochs, softmax_epochs=0,
                                          decay_epochs=()),
                            mini_dataset, sigmoid_only, seed=5, batch_pairs=8)
            reference = {k: p.data for k, p in sigmoid_only.params().items()}
            assert any(not np.array_equal(final[k], boundary[k]) for k in final)
        assert set(boundary) == set(reference)
        assert all(np.array_equal(boundary[k], reference[k]) for k in boundary)
