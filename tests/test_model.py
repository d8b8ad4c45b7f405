"""Model assembly: parameter bookkeeping, forward pass, cost model, checkpoints."""

import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

import odegate.dynamics
from odegate.autodiff import Tape, Tensor, backward, finite_diff_gradient, mean_abs_error
from odegate.data import WindowSet
from odegate.dynamics import GateStats
from odegate.errors import DimensionError, ValidationError
from odegate.graph import SpatialGraph, normalize_adjacency
from odegate.model import (MAX_STEPS, ModelConfig, flop_report, forward,
                           init_params, initialize_state, load_checkpoint,
                           param_shapes, save_checkpoint)
from odegate.training import predict

DEFAULT = ModelConfig(n_nodes=20)
TINY = ModelConfig(n_nodes=4, window=3, horizon=2, proj_dim=5, embed_dim=3, steps=2)


def tiny_inputs(config, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((batch, config.n_nodes, config.window,
                                    config.in_dim)))
    edges = [(i, i + 1, 1.0) for i in range(config.n_nodes - 1)]
    ahat = normalize_adjacency(SpatialGraph(n_nodes=config.n_nodes, edges=edges))
    return x, ahat


class TestConfig:
    def test_derived_quantities(self):
        assert DEFAULT.hidden_dim == 40
        assert DEFAULT.dt == 0.25

    def test_validation(self):
        with pytest.raises(ValidationError):
            ModelConfig(n_nodes=0)
        with pytest.raises(ValidationError):
            ModelConfig(n_nodes=4, steps=0)

    @pytest.mark.parametrize("mode", ["lte", "off"])
    def test_steps_ceiling(self, mode):
        assert ModelConfig(n_nodes=4, steps=MAX_STEPS, mask_mode=mode).steps == MAX_STEPS
        with pytest.raises(ValidationError, match=f"steps={MAX_STEPS + 1} exceeds"):
            ModelConfig(n_nodes=4, steps=MAX_STEPS + 1, mask_mode=mode)


class TestParams:
    def test_default_scale_counts(self):
        # window 12 x proj 30 = 360; embeddings 200; fields 2x1640;
        # compensators 2x4x1640; readout 80x12+12
        assert init_params(DEFAULT).count == 17932
        assert init_params(dataclasses.replace(DEFAULT, mask_mode="off")).count == 4812
        assert init_params(dataclasses.replace(DEFAULT, mask_mode="learned")).count == 21212
        assert init_params(dataclasses.replace(DEFAULT, mask_mode="uniform_one")).count == 17932

    def test_named_layout(self):
        names = list(init_params(DEFAULT).named())
        assert names[0] == "input_projection"
        assert names[-1] == "readout_bias"
        assert "static_comp_weight_0" in names and "adaptive_comp_bias_3" in names
        assert "static_mask_weight" not in names

        learned = list(init_params(
            dataclasses.replace(DEFAULT, mask_mode="learned")).named())
        assert "static_mask_weight" in learned and "adaptive_mask_bias" in learned

        off = list(init_params(dataclasses.replace(DEFAULT, mask_mode="off")).named())
        assert not any("comp" in n for n in off)

    def test_all_require_grad(self):
        for t in init_params(TINY).named().values():
            assert t.requires_grad

    def test_init_deterministic(self):
        a = init_params(TINY, seed=5).named()
        b = init_params(TINY, seed=5).named()
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)
        c = init_params(TINY, seed=6).named()
        assert not np.array_equal(a["input_projection"].data,
                                  c["input_projection"].data)

    def test_copy_is_deep(self):
        p = init_params(TINY)
        q = p.copy()
        q.w_input.data[0, 0] += 1.0
        assert p.w_input.data[0, 0] != q.w_input.data[0, 0]
        assert np.array_equal(p.vf_static.w_f.data, q.vf_static.w_f.data)

    # sha256 over (name, shape, little-endian float64 bytes) of every
    # parameter, computed with the hand-written initializer that preceded
    # `param_shapes`-driven init: pins names, shapes and the draw order.
    INIT_DIGESTS = {
        ("tiny", "lte"): "30ad4f0673a487dc7ac12a38440d2d15523d970063c925fedd65843c175fb56f",
        ("tiny", "uniform_one"): "30ad4f0673a487dc7ac12a38440d2d15523d970063c925fedd65843c175fb56f",
        ("tiny", "learned"): "8d0ded4b111d0957492ac5beec45f923da6a64d4afdb24fc1b286749d6458263",
        ("tiny", "off"): "6446b61ccdc9b25e10c756d2b32601d9b7980e5fb986be485d22461027358dc3",
        ("default", "lte"): "d68297b6d106d370d1aff4137edaf4dda0a10658f743bb83b9f435fa9cbc4553",
        ("default", "uniform_one"): "d68297b6d106d370d1aff4137edaf4dda0a10658f743bb83b9f435fa9cbc4553",
        ("default", "learned"): "c9fc6ddd3c21d2e02126f58b75a3835188b8dd11aaac455bb636b49113b9bfc6",
        ("default", "off"): "549ebc88fb0d31d1c394615b29e89b68a87bec4038e9a7fb0f86b777cd3acf25",
    }

    @pytest.mark.parametrize("size, mode", sorted(INIT_DIGESTS))
    def test_init_pinned(self, size, mode):
        base, seed = (TINY, 1) if size == "tiny" else (DEFAULT, 0)
        h = hashlib.sha256()
        for name, t in init_params(dataclasses.replace(base, mask_mode=mode),
                                   seed=seed).named().items():
            h.update(name.encode())
            h.update(str(t.shape).encode())
            h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        assert h.hexdigest() == self.INIT_DIGESTS[size, mode]


def _views(params) -> dict:
    """Every per-stream view tensor of `params`, keyed by its checkpoint name."""
    views = {"input_projection": params.w_input,
             "node_embeddings": params.e_node.table,
             "readout_weight": params.w_out, "readout_bias": params.b_out}
    for stream in ("static", "adaptive"):
        vf = getattr(params, f"vf_{stream}")
        views[f"{stream}_field_weight"], views[f"{stream}_field_bias"] = vf.w_f, vf.b_f
        comp = getattr(params, f"comp_{stream}")
        for s, (w_g, b_g) in enumerate(comp.per_step if comp else []):
            views[f"{stream}_comp_weight_{s}"] = w_g
            views[f"{stream}_comp_bias_{s}"] = b_g
        mask = getattr(params, f"mask_{stream}")
        if mask is not None:
            views[f"{stream}_mask_weight"], views[f"{stream}_mask_bias"] = mask.w_m, mask.b_m
    return views


@pytest.mark.parametrize("mode", ["lte", "uniform_one", "learned", "off"])
@pytest.mark.parametrize("source", ["init", "copy", "load"])
def test_views_are_the_named_tensors(tmp_path, mode, source):
    # Adam updates through named() while forward reads the views, so a view
    # that is not the very same Tensor would silently stop training.
    config = dataclasses.replace(TINY, mask_mode=mode)
    params = init_params(config, seed=2)
    if source == "copy":
        params = params.copy()
    elif source == "load":
        save_checkpoint(tmp_path / "ckpt.json", params, config)
        params, _ = load_checkpoint(tmp_path / "ckpt.json")
    named, views = params.named(), _views(params)
    assert list(named) == list(param_shapes(config))
    assert sorted(views) == sorted(named)
    for name, view in views.items():
        assert view is named[name], name


class TestInitializeState:
    def test_layout(self):
        params = init_params(TINY, seed=1)
        x, _ = tiny_inputs(TINY, batch=3, seed=2)
        h0 = initialize_state(x, params, TINY)
        b, n = 3, TINY.n_nodes
        assert h0.shape == (b, n, TINY.hidden_dim)
        # projection channels first, then the node embedding, per node
        flat = x.data.reshape(b * n, TINY.window * TINY.in_dim)
        proj = (flat @ params.w_input.data).reshape(b, n, TINY.proj_dim)
        assert np.array_equal(h0.data[..., :TINY.proj_dim], proj)
        for bi in range(b):
            assert np.array_equal(h0.data[bi, :, TINY.proj_dim:],
                                  params.e_node.table.data)

    def test_shape_validation(self):
        params = init_params(TINY)
        with pytest.raises(DimensionError):
            initialize_state(Tensor(np.zeros((2, 4, 3))), params, TINY)
        with pytest.raises(DimensionError):
            initialize_state(Tensor(np.zeros((2, 5, 3, 1))), params, TINY)


class TestForward:
    def test_shapes_and_nfe(self):
        params = init_params(TINY, seed=3)
        x, ahat = tiny_inputs(TINY)
        res = forward(x, ahat, params, TINY)
        assert res.y_hat.shape == (2, 4, TINY.horizon)
        assert res.nfe_static == res.nfe_adaptive == 2 * TINY.steps
        assert len(res.lte_static) == len(res.lte_adaptive) == TINY.steps
        assert res.masks_static is None and res.masks_adaptive is None

    def test_deterministic(self):
        params = init_params(TINY, seed=3)
        x, ahat = tiny_inputs(TINY)
        a = forward(x, ahat, params, TINY)
        b = forward(x, ahat, params, TINY)
        assert np.array_equal(a.y_hat.data, b.y_hat.data)

    def test_tape_nodes_by_op(self):
        params = init_params(TINY, seed=3)
        x, ahat = tiny_inputs(TINY)
        tape = Tape()
        res = forward(x, ahat, params, TINY, tape)
        ops = Counter(name for name, _ in tape.nodes)
        assert "reshape" not in ops and "add_bias" not in ops
        evals = res.nfe_static + res.nfe_adaptive
        # one propagate and one affine node per field evaluation; the other
        # affine nodes are the per-step jumps, the encoder and the readout
        assert ops["propagate"] == evals
        assert ops["affine"] == evals + 2 * TINY.steps + 2

    def test_operator_shape_checked(self):
        params = init_params(TINY)
        x, _ = tiny_inputs(TINY)
        with pytest.raises(DimensionError):
            forward(x, Tensor(np.eye(5)), params, TINY)

    def test_collect_masks(self):
        params = init_params(TINY, seed=3)
        x, ahat = tiny_inputs(TINY)
        res = forward(x, ahat, params, TINY, collect_masks=True)
        assert len(res.masks_static) == TINY.steps
        assert res.masks_static[0].shape == (2, 4, TINY.hidden_dim)

    def test_gate_stats_fold_both_streams(self):
        params = init_params(TINY, seed=3)
        x, ahat = tiny_inputs(TINY)
        res = forward(x, ahat, params, TINY, collect_masks=True)
        masks = res.masks_static + res.masks_adaptive
        stats = GateStats()
        for m in masks:
            stats.add(m)
        assert stats.steps == 2 * TINY.steps
        assert stats.count == sum(m.size for m in masks)
        assert stats.total == pytest.approx(sum(m.sum() for m in masks), rel=1e-15)
        plain = forward(x, ahat, params, TINY)
        assert np.array_equal(res.y_hat.data, plain.y_hat.data)

    def test_no_gate_stats_computes_no_statistic(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise AssertionError("gate statistic computed by a forward")

        monkeypatch.setattr(GateStats, "add", boom)
        monkeypatch.setattr(odegate.dynamics, "percentile95", boom)
        monkeypatch.setattr(np, "histogram", boom)
        monkeypatch.setattr(np, "percentile", boom)
        params = init_params(TINY, seed=3)
        x, ahat = tiny_inputs(TINY)
        forward(x, ahat, params, TINY)
        forward(x, ahat, params, TINY, Tape())
        windows = WindowSet(x=x.data, y=np.zeros((2, TINY.n_nodes, TINY.horizon)),
                            origins=np.arange(2))
        predict(params, TINY, ahat, windows, batch_size=1)

    def test_gradcheck_compact(self):
        config = dataclasses.replace(TINY, window=2, horizon=2, mask_grad=True)
        params = init_params(config, seed=4)
        x, ahat = tiny_inputs(config)
        rng = np.random.default_rng(9)
        y = Tensor(rng.standard_normal((2, 4, 2)))

        def loss_value():
            t = Tape()
            res = forward(x, ahat, params, config, t)
            return mean_abs_error(res.y_hat, y, t), t

        loss, tape = loss_value()
        backward(loss, tape)
        for name in ("static_field_weight", "adaptive_comp_weight_1",
                     "node_embeddings", "readout_weight"):
            p = params.named()[name]
            analytic = p.grad.copy()

            def f(probe, p=p):
                saved = p.data
                p.data = probe.data
                try:
                    return loss_value()[0]
                finally:
                    p.data = saved

            numeric = finite_diff_gradient(f, p).data
            denom = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
            assert np.abs(analytic - numeric).max() / denom < 1e-6, name


class TestFlopReport:
    def test_strictly_increasing_in_steps(self):
        totals = [flop_report(dataclasses.replace(DEFAULT, steps=s)).total
                  for s in (1, 2, 4, 6, 8)]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_solver_term_linear(self):
        per_step = flop_report(dataclasses.replace(DEFAULT, steps=1)).solver
        for s in (2, 4, 6, 8):
            assert flop_report(dataclasses.replace(DEFAULT, steps=s)).solver \
                == per_step * s

    def test_mode_dependent_terms(self):
        full = flop_report(DEFAULT)
        off = flop_report(dataclasses.replace(DEFAULT, mask_mode="off"))
        learned = flop_report(dataclasses.replace(DEFAULT, mask_mode="learned"))
        assert full.mask == 0 and full.compensation > 0
        assert off.compensation == 0 and off.mask == 0
        assert learned.mask == full.compensation
        assert full.solver == off.solver == learned.solver

    def test_total_adds_up(self):
        r = flop_report(DEFAULT)
        assert r.total == (r.encoder + r.graph_build + r.solver
                           + r.compensation + r.mask + r.decoder)

    def test_batch_scales_data_terms(self):
        r1, r4 = flop_report(DEFAULT, 1), flop_report(DEFAULT, 4)
        assert r4.solver == 4 * r1.solver
        assert r4.graph_build == r1.graph_build   # built once per forward


class TestCheckpoint:
    @pytest.mark.parametrize("mode", ["lte", "off", "learned"])
    def test_round_trip_bitwise(self, tmp_path, mode):
        config = dataclasses.replace(TINY, mask_mode=mode)
        params = init_params(config, seed=8)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, config)
        loaded_params, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        orig, got = params.named(), loaded_params.named()
        assert list(orig) == list(got)
        for name in orig:
            assert np.array_equal(orig[name].data, got[name].data), name

    def test_awkward_floats_survive(self, tmp_path):
        params = init_params(TINY, seed=8)
        params.w_input.data[0, 0] = 0.1 + 0.2
        params.w_input.data[0, 1] = 1e-308
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, TINY)
        loaded, _ = load_checkpoint(path)
        assert loaded.w_input.data[0, 0] == 0.1 + 0.2
        assert loaded.w_input.data[0, 1] == 1e-308

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"magic": "other"}\n')
        with pytest.raises(ValidationError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_version_checked(self, tmp_path):
        params = init_params(TINY)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, TINY)
        import json
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="version"):
            load_checkpoint(path)

    def test_missing_and_extra_params_rejected(self, tmp_path):
        import json
        params = init_params(TINY)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, TINY)
        payload = json.loads(path.read_text())
        del payload["params"]["readout_bias"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="readout_bias"):
            load_checkpoint(path)

        save_checkpoint(path, params, TINY)
        payload = json.loads(path.read_text())
        payload["params"]["stray"] = [1.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="stray"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mode", ["lte", "off", "learned", "uniform_one"])
    def test_param_shapes_match_init(self, mode):
        config = dataclasses.replace(TINY, mask_mode=mode)
        named = init_params(config).named()
        assert param_shapes(config) == {n: t.shape for n, t in named.items()}

    def _edited(self, tmp_path, edit):
        import json
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params(TINY), TINY)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("edit, match", [
        (lambda p: p["config"].update(warp=1), "unknown config keys"),
        (lambda p: p["config"].pop("steps"), "config keys missing"),
        (lambda p: p["config"].update(steps="2"), "'steps' must be int"),
        (lambda p: p["config"].update(steps=2.0), "'steps' must be int"),
        (lambda p: p["config"].update(n_nodes=True), "'n_nodes' must be int"),
        (lambda p: p["config"].update(mask_grad=0), "'mask_grad' must be bool"),
        (lambda p: p.pop("config"), "no config object"),
        (lambda p: p.update(params=[]), "no params object"),
        (lambda p: p["params"].update(readout_bias=[0.0]), r"shape \(1,\)"),
        (lambda p: p["params"].update(readout_bias=[[0.0, 1.0]]), "readout_bias"),
        (lambda p: p["params"].update(readout_bias=[0.0, "x"]), "readout_bias"),
        (lambda p: p["params"].update(readout_bias=[[0.0], 1.0]), "readout_bias"),
        (lambda p: p["config"].update(steps=10 ** 12), "steps=1000000000000 exceeds"),
        (lambda p: (p["config"].update(mask_mode="off", steps=10 ** 9),
                    [p["params"].pop(k) for k in list(p["params"]) if "_comp_" in k]),
         "steps=1000000000 exceeds"),
    ], ids=["unknown_key", "missing_key", "str_int", "float_int", "bool_int",
            "int_bool", "no_config", "params_not_object", "bias_shape",
            "bias_rank", "bias_text", "bias_ragged", "huge_steps", "off_huge_steps"])
    def test_bad_config_and_shapes_rejected(self, tmp_path, edit, match):
        with pytest.raises(ValidationError, match=match):
            load_checkpoint(self._edited(tmp_path, edit))

    def test_non_finite_param_rejected(self, tmp_path):
        path = self._edited(tmp_path,
                            lambda p: p["params"].update(readout_bias=[0.0, float("nan")]))
        with pytest.raises(ValidationError, match="non-finite"):
            load_checkpoint(path)

    def test_save_deterministic(self, tmp_path):
        params = init_params(TINY, seed=8)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(a, params, TINY)
        save_checkpoint(b, params, TINY)
        assert a.read_bytes() == b.read_bytes()
