"""Optimizer arithmetic, loss composition, the training loop, and metrics.

The zero-lam equivalence test is load-bearing: the penalty variant must be
bit-identical to the full variant when lam == 0, otherwise penalty sweeps are
not comparable against the full baseline.
"""

import dataclasses
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import odegate.training
from odegate.autodiff import Tape, Tensor, mean_abs_error
from odegate.data import (ForecastDataset, Scaler, ShockEvent, ShockScenario,
                          WindowSet, build_dataset, default_graph,
                          generate_shock_series)
from odegate.errors import ContractError, NumericError, ValidationError
from odegate.graph import normalize_adjacency
from odegate.model import ModelConfig, forward, init_params, tape_peak_bytes
from odegate.training import (VARIANTS, AdamState, EvalReport, TrainConfig,
                              adam_step, batch_loss, check_finite_grads,
                              clip_gradients, config_for_variant, evaluate,
                              mask_report, predict, shock_cell_matrix, train)


def tiny_dataset(seed=0):
    scenario = ShockScenario(n_nodes=4, total_t=140, seed=seed)
    graph = default_graph(4, seed=seed)
    series, events = generate_shock_series(scenario, graph)
    return build_dataset(series, events, graph, window=4, horizon=3)


TINY_MODEL = ModelConfig(n_nodes=4, window=4, horizon=3,
                         proj_dim=4, embed_dim=2, steps=2)


class TestVariants:
    def test_mapping(self):
        assert VARIANTS == {"full": "lte", "no_lte": "learned",
                            "no_compensation": "off", "no_mask": "uniform_one",
                            "manifold_penalty": "lte"}

    def test_config_for_variant(self):
        cfg = config_for_variant(TINY_MODEL, "no_compensation")
        assert cfg.mask_mode == "off"
        assert cfg.n_nodes == TINY_MODEL.n_nodes
        with pytest.raises(ValidationError):
            config_for_variant(TINY_MODEL, "dropout")


class TestTrainConfig:
    def test_lam_requires_penalty_variant(self):
        with pytest.raises(ValidationError, match="manifold_penalty"):
            TrainConfig(variant="full", lam=0.1)
        TrainConfig(variant="manifold_penalty", lam=0.1)
        TrainConfig(variant="manifold_penalty", lam=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"variant": "bogus"}, {"lr": 0.0}, {"epochs": 0},
        {"batch_size": 0}, {"patience": 0}, {"clip_norm": 0.0},
        {"lr": math.nan}, {"clip_norm": math.nan}, {"clip_norm": math.inf},
        {"variant": "manifold_penalty", "lam": math.nan},
        {"variant": "manifold_penalty", "lam": -1.0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            TrainConfig(**kwargs)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # bias correction makes m_hat = g and v_hat = g*g at t = 1, so the
        # update is lr * g / (|g| + eps) regardless of gradient scale
        p = Tensor(np.array([[2.0, -3.0]]), requires_grad=True)
        p.grad = np.array([[10.0, -0.001]])
        state = AdamState()
        adam_step({"p": p}, state, lr=0.5)
        expected = np.array([[2.0, -3.0]]) - 0.5 * np.array([[10.0, -0.001]]) / (
            np.array([[10.0, 0.001]]) + 1e-8)
        assert np.allclose(p.data, expected, atol=1e-12)
        assert state.t == 1

    def test_repeated_gradient_keeps_step_size(self):
        p = Tensor(np.array([[0.0]]), requires_grad=True)
        state = AdamState()
        deltas = []
        for _ in range(3):
            before = p.data.copy()
            p.grad = np.array([[4.0]])
            adam_step({"p": p}, state, lr=0.1)
            deltas.append(float((before - p.data)[0, 0]))
        for d in deltas:
            assert d == pytest.approx(0.1, rel=1e-6)

    def test_missing_grad_treated_as_zero(self):
        p = Tensor(np.array([[1.0]]), requires_grad=True)
        p.grad = None
        adam_step({"p": p}, AdamState(), lr=0.1)
        assert p.data[0, 0] == 1.0


class TestClip:
    def test_scales_to_max_norm(self):
        a = Tensor(np.zeros((1, 2)), requires_grad=True)
        b = Tensor(np.zeros((1, 1)), requires_grad=True)
        a.grad = np.array([[3.0, 0.0]])
        b.grad = np.array([[4.0]])
        norm = clip_gradients({"a": a, "b": b}, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(a.grad, [[0.6, 0.0]])
        assert np.allclose(b.grad, [[0.8]])

    def test_below_threshold_untouched(self):
        a = Tensor(np.zeros((1, 1)), requires_grad=True)
        a.grad = np.array([[0.5]])
        norm = clip_gradients({"a": a}, max_norm=2.0)
        assert norm == pytest.approx(0.5)
        assert a.grad[0, 0] == 0.5

    def test_finite_check_names_parameter(self):
        a = Tensor(np.zeros((1, 1)), requires_grad=True)
        a.grad = np.array([[np.nan]])
        with pytest.raises(NumericError, match="'readout'"):
            check_finite_grads({"readout": a})


class TestBatchLoss:
    def make_result(self, tape):
        y_hat = Tensor(np.array([[[1.0, 2.0]]]), requires_grad=True)
        e1 = Tensor(np.array([[[0.2, 0.4]]]), requires_grad=True)
        e2 = Tensor(np.array([[[0.6, 0.8]]]), requires_grad=True)
        return SimpleNamespace(y_hat=y_hat, lte=[e1, e2])

    def test_zero_lam_is_plain_mae(self):
        tape = Tape()
        res = self.make_result(tape)
        y = Tensor(np.array([[[0.0, 0.0]]]))
        loss = batch_loss(res, y, lam=0.0, tape=tape)
        assert loss.item() == pytest.approx(1.5)
        ref = Tape()
        mean_abs_error(res.y_hat, y, ref)
        assert len(tape) == len(ref)   # no penalty nodes were recorded

    def test_penalty_arithmetic(self):
        tape = Tape()
        res = self.make_result(tape)
        y = Tensor(np.array([[[0.0, 0.0]]]))
        loss = batch_loss(res, y, lam=0.5, tape=tape)
        # mae 1.5 plus 0.5/2 * (mean(e1) + mean(e2)) = 1.5 + 0.25 * (0.3 + 0.7)
        assert loss.item() == pytest.approx(1.75, rel=1e-12)

    def test_penalty_needs_collected_errors(self):
        tape = Tape()
        res = self.make_result(tape)
        res.lte = None
        y = Tensor(np.array([[[0.0, 0.0]]]))
        assert batch_loss(res, y, lam=0.0, tape=tape).item() == 1.5
        with pytest.raises(ContractError, match="collect_lte"):
            batch_loss(res, y, lam=0.5, tape=tape)

    def test_penalty_is_the_mean_over_errors(self):
        # one error tensor per step per stream: the penalty is their mean, so
        # neither the step count nor a third stream rescales lam
        y = Tensor(np.array([[[0.0, 0.0]]]))
        static, adaptive, third = (Tensor(np.full((1, 1, 2), m)) for m in (0.3, 0.7, 0.2))

        def penalty(lte):
            res = SimpleNamespace(y_hat=Tensor(np.array([[[1.0, 2.0]]])), lte=lte)
            return batch_loss(res, y, lam=1.0, tape=Tape()).item() - 1.5

        assert penalty([static, adaptive]) == pytest.approx(0.5, rel=1e-12)
        assert penalty([static] * 4 + [adaptive] * 4) == pytest.approx(0.5, rel=1e-12)
        assert penalty([static] * 4 + [adaptive] * 4 + [third] * 4) == pytest.approx(
            0.4, rel=1e-12)


class TestTrainLoop:
    def test_variant_mode_mismatch_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(ContractError, match="mask_mode"):
            train(ds, TINY_MODEL, TrainConfig(variant="no_compensation", epochs=1))

    def test_loss_decreases_and_best_tracked(self):
        ds = tiny_dataset()
        result = train(ds, TINY_MODEL, TrainConfig(epochs=3, batch_size=16))
        assert len(result.history) == 3
        assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]
        vals = [h["val_mae"] for h in result.history]
        assert result.best_val_mae == min(vals)
        assert result.best_epoch == int(np.argmin(vals))
        for h in result.history:
            assert 0.5 <= h["m_mean"] < 1.0

    def test_deterministic(self):
        ds = tiny_dataset()
        cfg = TrainConfig(epochs=2, batch_size=16)
        r1 = train(ds, TINY_MODEL, cfg)
        r2 = train(ds, TINY_MODEL, cfg)
        assert r1.history == r2.history
        for (n1, p1), (n2, p2) in zip(r1.params.named().items(),
                                      r2.params.named().items()):
            assert n1 == n2 and np.array_equal(p1.data, p2.data)

    def test_zero_lam_penalty_matches_full_bitwise(self):
        ds = tiny_dataset()
        r_full = train(ds, TINY_MODEL, TrainConfig(variant="full", epochs=2,
                                                   batch_size=16))
        r_pen = train(ds, TINY_MODEL,
                      TrainConfig(variant="manifold_penalty", lam=0.0,
                                  epochs=2, batch_size=16))
        assert r_full.history == r_pen.history
        for (_, p1), (_, p2) in zip(r_full.params.named().items(),
                                    r_pen.params.named().items()):
            assert np.array_equal(p1.data, p2.data)

    def test_default_batch_tapes_no_error(self, monkeypatch):
        # a default training batch (4 steps, lam 0): 4 nodes per step and
        # stream, 3 encoder, 3 graph build, 2 readout and the loss
        tapes = []
        real_backward = odegate.training.backward

        def counting(loss, tape):
            tapes.append(Counter(name for name, _ in tape.nodes))
            real_backward(loss, tape)

        monkeypatch.setattr(odegate.training, "backward", counting)
        config = dataclasses.replace(TINY_MODEL, steps=4)
        train(tiny_dataset(), config, TrainConfig(epochs=1, batch_size=16))
        assert tapes
        for ops in tapes:
            assert "abs_diff" not in ops
            assert sum(ops.values()) == 41

    def test_parameter_gradients_share_no_memory(self, monkeypatch):
        # backward hands gradients on; clipping scales each in place, so no
        # two parameters may hold one buffer
        grads = []
        real_check = odegate.training.check_finite_grads

        def keeping(named):
            grads.append({name: p.grad for name, p in named.items()})
            real_check(named)

        monkeypatch.setattr(odegate.training, "check_finite_grads", keeping)
        train(tiny_dataset(), TINY_MODEL, TrainConfig(epochs=1, batch_size=16))
        assert grads
        for batch in grads:
            arrays = [g for g in batch.values() if g is not None]
            assert len(arrays) == len(batch)
            for i, g in enumerate(arrays):
                assert not any(np.shares_memory(g, h) for h in arrays[i + 1:])

    def test_zero_lam_collecting_errors_matches_bitwise(self, monkeypatch):
        ds = tiny_dataset()
        cfg = TrainConfig(epochs=2, batch_size=16)
        plain = train(ds, TINY_MODEL, cfg)
        real_forward = odegate.training.forward

        def forward_collecting(*args, **kwargs):
            kwargs["collect_lte"] = True
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(odegate.training, "forward", forward_collecting)
        collected = train(ds, TINY_MODEL, cfg)
        assert collected.history == plain.history
        for (_, p1), (_, p2) in zip(plain.params.named().items(),
                                    collected.params.named().items()):
            assert np.array_equal(p1.data, p2.data)

    def test_early_stopping_cuts_epochs(self):
        # deliberately oversized lr so validation stops improving quickly
        ds = tiny_dataset()
        result = train(ds, TINY_MODEL,
                       TrainConfig(epochs=40, batch_size=16, patience=2, lr=0.3))
        assert len(result.history) < 40
        last = result.history[-1]["epoch"]
        assert last - result.best_epoch >= 2

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_empty_split_rejected(self, split, monkeypatch):
        ds = tiny_dataset()
        w = ds.splits[split]
        ds.splits[split] = WindowSet(x=w.x[:0], y=w.y[:0], origins=w.origins[:0])
        monkeypatch.setattr(odegate.training, "forward", None)   # no epoch runs
        with pytest.raises(ValidationError, match=f"train: split '{split}' has no windows"):
            train(ds, TINY_MODEL, TrainConfig(epochs=1, batch_size=16))

    def test_numeric_failure_names_epoch_and_batch(self):
        ds = tiny_dataset()
        ds.splits["train"].x[:] = np.nan
        with pytest.raises(NumericError, match=r"epoch 0 batch 0:"):
            train(ds, TINY_MODEL, TrainConfig(epochs=1, batch_size=16))

    def test_history_covers_every_batch(self, monkeypatch):
        # replay the same seeded run with masks and gradient norms captured
        ds = tiny_dataset()
        cfg = TrainConfig(epochs=2, batch_size=16, clip_norm=1.7)
        plain = train(ds, TINY_MODEL, cfg)
        taped_masks, norms = [], []
        real_forward = odegate.training.forward
        real_clip = odegate.training.clip_gradients

        def forward_collecting(x, ahat, params, config, tape=None, **kwargs):
            kwargs["collect_masks"] = True
            res = real_forward(x, ahat, params, config, tape, **kwargs)
            if tape is not None:
                taped_masks.append(res.masks)
            return res

        def clip_recording(named, max_norm):
            norms.append(real_clip(named, max_norm))
            return norms[-1]

        monkeypatch.setattr(odegate.training, "forward", forward_collecting)
        monkeypatch.setattr(odegate.training, "clip_gradients", clip_recording)
        result = train(ds, TINY_MODEL, cfg)
        assert result.history == plain.history
        per_epoch = math.ceil(ds.splits["train"].count / cfg.batch_size)
        assert len(taped_masks) == len(norms) == 2 * per_epoch > 2
        assert 0.0 < result.history[1]["clip_frac"] < 1.0
        for e, h in enumerate(result.history):
            steps = [m for batch in taped_masks[e * per_epoch:(e + 1) * per_epoch]
                     for m in batch]
            values = np.concatenate([m.ravel() for m in steps])
            assert h["m_mean"] == pytest.approx(values.mean(), rel=0, abs=1e-12)
            assert h["m_std"] == pytest.approx(values.std(), rel=0, abs=1e-12)
            epoch_norms = np.array(norms[e * per_epoch:(e + 1) * per_epoch])
            assert h["grad_norm"] == pytest.approx(epoch_norms.mean(), rel=1e-15)
            assert h["clip_frac"] == np.mean(epoch_norms > cfg.clip_norm)

    def test_train_peaks_within_8_states_of_one_batch(self):
        # a whole train() call may need one batch's tape_peak_bytes plus small
        # change: the previous batch's 8 gate masks alone would be 8 state
        # arrays more
        scenario = ShockScenario(n_nodes=20, total_t=400)
        graph = default_graph(20)
        series, events = generate_shock_series(scenario, graph)
        ds = build_dataset(series, events, graph)
        config = ModelConfig(n_nodes=20)
        cfg = TrainConfig(epochs=1)
        assert ds.splits["train"].count == 217
        train(ds, config, cfg)   # warm-up: caches and free lists filled
        tracemalloc.start()
        try:
            train(ds, config, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        x = Tensor(ds.splits["train"].x[:cfg.batch_size])
        one_batch = tape_peak_bytes(x, normalize_adjacency(graph),
                                    init_params(config), config)
        state = cfg.batch_size * config.n_nodes * config.hidden_dim * 8
        assert peak - one_batch < 8 * state, (peak - one_batch) / state

    def test_no_compensation_history_has_no_gate(self):
        ds = tiny_dataset()
        result = train(ds, config_for_variant(TINY_MODEL, "no_compensation"),
                       TrainConfig(variant="no_compensation", epochs=1,
                                   batch_size=16))
        h = result.history[0]
        assert (h["m_mean"], h["m_std"]) == (0.0, 0.0)
        assert h["grad_norm"] > 0.0 and 0.0 <= h["clip_frac"] <= 1.0

    def test_predict_batching_invariant(self):
        ds = tiny_dataset()
        params = init_params(TINY_MODEL, seed=0)
        from odegate.graph import normalize_adjacency
        ahat = normalize_adjacency(ds.graph)
        full = predict(params, TINY_MODEL, ahat, ds.splits["val"], batch_size=1000)
        small = predict(params, TINY_MODEL, ahat, ds.splits["val"], batch_size=7)
        assert full.shape == (ds.splits["val"].count, 4, 3)
        assert np.array_equal(full, small)

    def test_predict_of_no_windows_is_empty(self):
        ds = tiny_dataset()
        params = init_params(TINY_MODEL, seed=0)
        ahat = normalize_adjacency(ds.graph)
        val = ds.splits["val"]
        empty = WindowSet(x=val.x[:0], y=val.y[:0], origins=val.origins[:0])
        assert predict(params, TINY_MODEL, ahat, empty).shape == (0, 4, 3)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_predict_rejects_batch_size_below_one(self, batch_size):
        ds = tiny_dataset()
        params = init_params(TINY_MODEL, seed=0)
        with pytest.raises(ValidationError, match=f"batch_size must be >= 1, got {batch_size}"):
            predict(params, TINY_MODEL, normalize_adjacency(ds.graph), ds.splits["val"],
                    batch_size=batch_size)


class TestEvaluate:
    def hand_dataset(self, y_orig):
        # scaler mean 1, std 2; y is stored in scaled units like real splits
        scaler = Scaler(mean=np.array([1.0]), std=np.array([2.0]))
        count, n, horizon = y_orig.shape
        windows = WindowSet(x=np.zeros((count, n, 2, 1)),
                            y=scaler.transform(y_orig),
                            origins=np.arange(count))
        return ForecastDataset(graph=default_graph(n), series=np.zeros((4, n)),
                               scaler=scaler, events=[], window=2,
                               horizon=horizon, stride=1,
                               split_bounds={"test": (0, 4)},
                               splits={"test": windows})

    def test_worked_example(self, monkeypatch):
        # node 0 target sits under the MAPE floor and must be skipped there
        y_orig = np.array([[[0.0005], [2.0]]])
        y_hat_orig = np.array([[[1.0005], [3.0]]])
        ds = self.hand_dataset(y_orig)
        scaled_pred = ds.scaler.transform(y_hat_orig)
        monkeypatch.setattr(odegate.training, "predict",
                            lambda *a, **k: scaled_pred)
        report = evaluate(None, TINY_MODEL, ds)
        assert report.mae == pytest.approx(1.0, abs=1e-12)
        assert report.rmse == pytest.approx(1.0, abs=1e-12)
        assert report.mape == pytest.approx(50.0, abs=1e-9)
        assert report.count == 1

    def test_empty_split_rejected(self):
        ds = self.hand_dataset(np.zeros((0, 2, 1)) + 1.0)
        with pytest.raises(ValidationError, match="no windows"):
            evaluate(None, TINY_MODEL, ds)

    def test_matches_manual_metrics(self):
        ds = tiny_dataset()
        params = init_params(TINY_MODEL, seed=1)
        from odegate.graph import normalize_adjacency
        ahat = normalize_adjacency(ds.graph)
        report = evaluate(params, TINY_MODEL, ds, split="test")
        y_hat = ds.scaler.inverse(
            predict(params, TINY_MODEL, ahat, ds.splits["test"]))
        y = ds.scaler.inverse(ds.splits["test"].y)
        assert report.mae == pytest.approx(float(np.mean(np.abs(y_hat - y))))
        assert report.rmse == pytest.approx(
            float(np.sqrt(np.mean((y_hat - y) ** 2))))
        assert isinstance(report, EvalReport)


class TestMaskStatistics:
    def test_shock_cell_matrix_oracle(self):
        windows = WindowSet(x=np.zeros((2, 3, 4, 1)), y=np.zeros((2, 3, 2)),
                            origins=np.array([0, 5]))
        events = [ShockEvent(t=2, node=1, magnitude=4.0),
                  ShockEvent(t=6, node=2, magnitude=4.0),
                  ShockEvent(t=9, node=2, magnitude=4.0)]
        cells = shock_cell_matrix(windows, events, window_len=4)
        expected = np.array([[False, True, False],
                             [False, False, True]])
        assert np.array_equal(cells, expected)

    def test_off_variant_has_no_gate(self):
        ds = tiny_dataset()
        cfg = config_for_variant(TINY_MODEL, "no_compensation")
        params = init_params(cfg, seed=0)
        with pytest.raises(ContractError, match="no gate"):
            mask_report(params, cfg, ds)

    def test_empty_split_rejected(self):
        # 100 ticks leave 20 per evaluation split, fewer than one 24-tick window
        scenario = ShockScenario(n_nodes=4, total_t=100, seed=0)
        graph = default_graph(4, seed=0)
        ds = build_dataset(*generate_shock_series(scenario, graph), graph)
        assert ds.splits["train"].count > 0 and ds.splits["test"].count == 0
        params = init_params(ModelConfig(n_nodes=4), seed=0)
        for split in ("val", "test"):
            with pytest.raises(ValidationError, match=f"split '{split}' has no windows"):
                mask_report(params, ModelConfig(n_nodes=4), ds, split=split)

    def test_report_consistency(self):
        # the val split of this seed has a handful of shocked cells, so both
        # group means are populated
        ds = tiny_dataset()
        params = init_params(TINY_MODEL, seed=0)
        report = mask_report(params, TINY_MODEL, ds, split="val")
        assert 0.5 <= report.mean < 1.0
        assert 0.5 <= report.p95 < 1.0
        assert sum(report.histogram[:10]) == 0     # gate never drops below 0.5
        assert report.shock_cells > 0
        n_cells = report.shock_cells + report.nonshock_cells
        total = sum(report.histogram)
        # every gate entry lands in exactly one histogram bin
        count = ds.splits["val"].count
        hidden = TINY_MODEL.proj_dim + TINY_MODEL.embed_dim
        assert total == count * 4 * hidden * TINY_MODEL.steps * 2
        assert n_cells == total
        blend = (report.shock_mean * report.shock_cells
                 + report.nonshock_mean * report.nonshock_cells) / n_cells
        assert blend == pytest.approx(report.mean, rel=1e-9)

    def test_two_percentiles_per_report(self, monkeypatch):
        # p95 and shock_p95 are the report's only order statistics; no
        # per-step p95 is computed and thrown away
        calls = []
        real = np.percentile

        def counting(values, q, **kwargs):
            calls.append(values.size)
            return real(values, q, **kwargs)

        monkeypatch.setattr(np, "percentile", counting)
        mask_report(init_params(TINY_MODEL, seed=0), TINY_MODEL, tiny_dataset(),
                    split="val", batch_size=7)
        assert len(calls) == 2

    def test_mean_and_std_of_pooled_values(self):
        ds = tiny_dataset()
        params = init_params(TINY_MODEL, seed=0)
        windows = ds.splits["val"]
        res = forward(Tensor(windows.x), normalize_adjacency(ds.graph), params,
                      TINY_MODEL, collect_masks=True)
        values = np.concatenate([m.ravel() for m in res.masks])
        report = mask_report(params, TINY_MODEL, ds, split="val", batch_size=7)
        assert report.mean == pytest.approx(np.mean(values), rel=0, abs=1e-12)
        assert report.std == pytest.approx(np.std(values), rel=0, abs=1e-12)

    def test_p95s_equal_numpy(self):
        # both are np.percentile of the pooled values of the split, bitwise
        ds = tiny_dataset()
        params = init_params(TINY_MODEL, seed=0)
        windows = ds.splits["val"]
        cells = shock_cell_matrix(windows, ds.events, ds.window)
        ahat = normalize_adjacency(ds.graph)
        values, shocked = [], []
        for lo in range(0, windows.count, 64):
            res = forward(Tensor(windows.x[lo:lo + 64]), ahat, params, TINY_MODEL,
                          collect_masks=True)
            for m in res.masks:
                values.append(m.ravel())
                shocked.append(m[cells[lo:lo + 64]].ravel())
        p95 = float(np.percentile(np.concatenate(values), 95))
        shock_p95 = float(np.percentile(np.concatenate(shocked), 95))
        report = mask_report(params, TINY_MODEL, ds, split="val")
        assert (report.p95, report.shock_p95) == (p95, shock_p95)
