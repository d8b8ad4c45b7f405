"""Model assembly: parameter bookkeeping, forward pass, cost model, checkpoints."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import odegate.dynamics
from odegate.autodiff import Tape, Tensor, backward, finite_diff_gradient, mean_abs_error
from odegate.data import WindowSet
from odegate.dynamics import GateStats
from odegate.errors import DimensionError, ParseError, ValidationError
from odegate.graph import SpatialGraph, adaptive_adjacency, normalize_adjacency
from odegate.model import (MAX_STEPS, ModelConfig, flop_report, forward,
                           init_params, initialize_state, load_checkpoint,
                           param_shapes, save_checkpoint)
from odegate.training import batch_loss, check_finite_grads, predict

DEFAULT = ModelConfig(n_nodes=20)
TINY = ModelConfig(n_nodes=4, window=3, horizon=2, proj_dim=5, embed_dim=3, steps=2)


def tiny_inputs(config, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((batch, config.n_nodes, config.window, 1)))
    edges = [(i, i + 1, 1.0) for i in range(config.n_nodes - 1)]
    ahat = normalize_adjacency(SpatialGraph(n_nodes=config.n_nodes, edges=edges))
    return x, ahat


class TestConfig:
    def test_derived_quantities(self):
        assert DEFAULT.hidden_dim == 40

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
        assert np.array_equal(p.streams["static"]["field"][0].data,
                              q.streams["static"]["field"][0].data)

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
             "node_embeddings": params.e_node,
             "readout_weight": params.w_out, "readout_bias": params.b_out}
    for stream in ("static", "adaptive"):
        entry = params.streams[stream]
        views[f"{stream}_field_weight"], views[f"{stream}_field_bias"] = entry["field"]
        for s, (w_g, b_g) in enumerate(entry["jumps"]):
            views[f"{stream}_comp_weight_{s}"] = w_g
            views[f"{stream}_comp_bias_{s}"] = b_g
        if entry["learned_mask"] is not None:
            views[f"{stream}_mask_weight"], views[f"{stream}_mask_bias"] = entry["learned_mask"]
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
        assert h0.shape == (n, b, TINY.hidden_dim)   # node-major
        # projection channels first, then the node embedding, per node
        flat = x.data.reshape(b * n, TINY.window)
        proj = (flat @ params.w_input.data).reshape(b, n, TINY.proj_dim)
        assert np.array_equal(h0.data[..., :TINY.proj_dim], proj.swapaxes(0, 1))
        for bi in range(b):
            assert np.array_equal(h0.data[:, bi, TINY.proj_dim:],
                                  params.e_node.data)

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
        assert res.lte is None
        assert res.masks is None
        collected = forward(x, ahat, params, TINY, collect_lte=True)
        assert len(collected.lte) == 2 * TINY.steps
        assert np.array_equal(collected.y_hat.data, res.y_hat.data)

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
        # two affine nodes are the encoder and the readout
        assert ops["propagate"] == evals
        assert ops["affine"] == evals + 2
        assert ops["gated_jump"] == 2 * TINY.steps
        assert "abs_diff" not in ops
        # the adaptive graph is one node per op
        assert {op: ops[op] for op in ("gram", "relu", "row_normalize")} == \
            {"gram": 1, "relu": 1, "row_normalize": 1}
        # one lte step of one stream: 2 field evaluations, 3 stage updates and
        # the gated jump, plus the error when it is collected
        h = Tensor(np.random.default_rng(4).standard_normal((TINY.n_nodes, 2,
                                                             TINY.hidden_dim)),
                   requires_grad=True)
        step = {"propagate": 2, "affine": 2, "axpy": 3, "gated_jump": 1}
        for collect_lte, extra in ((False, {}), (True, {"abs_diff": 1})):
            tape = Tape()
            odegate.dynamics.evolve(h, 1, ahat, params.streams["static"]["field"],
                                    params.streams["static"]["jumps"], "lte", tape=tape,
                                    collect_lte=collect_lte)
            assert Counter(name for name, _ in tape.nodes) == {**step, **extra}

    def test_operator_shape_checked(self):
        params = init_params(TINY)
        x, _ = tiny_inputs(TINY)
        with pytest.raises(DimensionError):
            forward(x, Tensor(np.eye(5)), params, TINY)

    def test_streams_listed_in_order(self):
        # lte and masks hold every step of the static stream, then every step
        # of the adaptive one, each bitwise what that stream's evolve returns
        params = init_params(TINY, seed=3)
        x, ahat = tiny_inputs(TINY)
        res = forward(x, ahat, params, TINY, collect_lte=True, collect_masks=True)
        assert len(res.lte) == len(res.masks) == 2 * TINY.steps
        h0 = initialize_state(x, params, TINY)
        operators = (("static", ahat),
                     ("adaptive", adaptive_adjacency(params.e_node)))
        for i, (name, a_op) in enumerate(operators):
            ref = odegate.dynamics.evolve(h0, TINY.steps, a_op,
                                          mask_mode=TINY.mask_mode,
                                          collect_masks=True,
                                          **params.streams[name])
            got = slice(i * TINY.steps, (i + 1) * TINY.steps)
            for e, e_ref in zip(res.lte[got], ref.lte, strict=True):
                assert np.array_equal(e.data, e_ref.data.swapaxes(0, 1))
            for m, m_ref in zip(res.masks[got], ref.masks, strict=True):
                assert np.array_equal(m, m_ref.swapaxes(0, 1))

    def test_collect_masks(self):
        params = init_params(TINY, seed=3)
        x, ahat = tiny_inputs(TINY)
        res = forward(x, ahat, params, TINY, collect_masks=True)
        assert len(res.masks) == 2 * TINY.steps
        assert res.masks[0].shape == (2, 4, TINY.hidden_dim)

    def test_gate_stats_fold_both_streams(self):
        params = init_params(TINY, seed=3)
        x, ahat = tiny_inputs(TINY)
        res = forward(x, ahat, params, TINY, collect_masks=True)
        masks = res.masks
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

    def test_no_tensordot_in_a_batch(self, monkeypatch):
        # every graph product and VJP is one 2-D matrix product over the
        # node-major state; tensordot's VJP made two strided state copies
        def boom(*_args, **_kwargs):
            raise AssertionError("np.tensordot called by a training batch")

        monkeypatch.setattr(np, "tensordot", boom)
        params = init_params(TINY, seed=3)
        x, ahat = tiny_inputs(TINY)
        y = Tensor(np.zeros((2, TINY.n_nodes, TINY.horizon)))
        tape = Tape()
        res = forward(x, ahat, params, TINY, tape)
        backward(batch_loss(res, y, 0.0, tape), tape)
        assert all(p.grad is not None for p in params.named().values())

    def test_no_isfinite_on_finite_data(self, monkeypatch):
        # every finiteness check goes through autodiff.all_finite, whose one
        # vdot settles finite data without building a boolean array
        calls = []
        real = np.isfinite

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return real(*args, **kwargs)

        window, graph = tiny_inputs(DEFAULT, batch=1)
        default_params = init_params(DEFAULT, seed=1)
        x, ahat = tiny_inputs(TINY)
        params = init_params(TINY, seed=3)
        monkeypatch.setattr(np, "isfinite", counting)
        forward(window, graph, default_params, DEFAULT)
        assert calls == [], "a single-window forward"
        y = Tensor(np.zeros((2, TINY.n_nodes, TINY.horizon)))
        tape = Tape()
        backward(batch_loss(forward(x, ahat, params, TINY, tape), y, 0.0, tape), tape)
        assert calls == [], "a taped batch with backward"
        check_finite_grads(params.named())
        assert calls == [], "check_finite_grads"


def _grad_digest(mode, mask_grad, lam):
    """sha256 over every parameter gradient of one seeded training batch."""
    config = dataclasses.replace(TINY, steps=3, mask_mode=mode, mask_grad=mask_grad)
    params = init_params(config, seed=5)
    x, ahat = tiny_inputs(config, batch=3, seed=6)
    y = Tensor(np.random.default_rng(7).standard_normal((3, config.n_nodes,
                                                         config.horizon)))
    tape = Tape()
    res = forward(x, ahat, params, config, tape, collect_lte=lam != 0.0)
    backward(batch_loss(res, y, lam, tape), tape)
    h = hashlib.sha256()
    for name, p in params.named().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.grad, dtype="<f8").tobytes())
    return h.hexdigest()


def _forward_digest(mode):
    """sha256 of a tape-free forward's y_hat for one seeded batch."""
    config = dataclasses.replace(TINY, steps=3, mask_mode=mode)
    params = init_params(config, seed=5)
    x, ahat = tiny_inputs(config, batch=3, seed=6)
    y_hat = forward(x, ahat, params, config).y_hat.data
    return hashlib.sha256(np.ascontiguousarray(y_hat, dtype="<f8").tobytes()).hexdigest()


class TestForwardBits:
    # Computed while each stage update, the error and the jump were chains of
    # single-purpose ops; fusing them must not move a bit.
    Y_HAT_DIGESTS = {
        "lte": "20b65b8de00b518822fd002f542d8cbd3090c2c0852b6a0568c3a7bb21dbc53a",
        "learned": "4cab773f8d779bd6eadbefe94e85cf8c8fbc50c27bbfa3080648e57a2921cabd",
        "uniform_one": "88124ab5b36d0e50cf80592cbf7740894234cfa710af8ab809ebbcda6b216d52",
        "off": "b4dbd647ee368d8b798d66c027e7f81da25b6c22e457c06bc10d4fe6369b9639",
    }

    @pytest.mark.parametrize("mode", sorted(Y_HAT_DIGESTS))
    def test_forward_pinned(self, mode):
        assert _forward_digest(mode) == self.Y_HAT_DIGESTS[mode]


class TestGradientBits:
    # Computed when the states became node-major, which reorders the sums
    # of the weight gradients (each moved by at most 7.1e-16 of its largest
    # entry); how the tape holds and frees gradients must not move a bit.
    # lam > 0 is the manifold_penalty loss, whose mean_all nodes carry the
    # penalty.
    GRAD_DIGESTS = {
        ("lte", False, 0.0):
            "8cf3823160f1ee92c03483096fe7c18caabade9db96d04a613f1b8239cc179a5",
        ("lte", True, 0.0):
            "b3e4077343bfbaa2b0dfa6eb7eab520b45816c0311874d480c7ccb086eb1105d",
        ("learned", False, 0.0):
            "16a1477087fec4bddbe437c95715c390e74b4091336773a30d6817213a9f8493",
        ("lte", False, 0.5):
            "ed1bf6cc48686f5369b4b3adbd7718c882858a0627a1bf9d1273ecae7c353da1",
    }

    @pytest.mark.parametrize("mode, mask_grad, lam", sorted(GRAD_DIGESTS))
    def test_gradients_pinned(self, mode, mask_grad, lam):
        assert _grad_digest(mode, mask_grad, lam) == self.GRAD_DIGESTS[mode, mask_grad, lam]

    def test_tape_memory_per_step(self):
        # growth of a taped forward from steps=2 to steps=4, in state-sized
        # arrays per step over both streams: keeping every op output costs
        # about 34, keeping only what backward reads about 15, leaving the
        # uncollected error off the tape 11, and recomputing the jump's tanh
        # in backward 9 (4 static, 5 adaptive); the rest is the tape's records
        batch = 16

        def live_bytes(steps):
            config = dataclasses.replace(DEFAULT, steps=steps)
            params = init_params(config, seed=1)
            x, ahat = tiny_inputs(config, batch=batch)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tape = Tape()
                res = forward(x, ahat, params, config, tape)
                grown = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert len(tape) and res.nfe_static == 2 * steps
            return grown

        state = batch * DEFAULT.n_nodes * DEFAULT.hidden_dim * 8
        per_step = (live_bytes(4) - live_bytes(2)) / (2 * state)
        assert 9.0 <= per_step < 9.5, per_step


def test_tape_peak_bytes_repeatable():
    # tracemalloc counts every Python-level allocation, so the first reading
    # in a fresh process must not include the caches its first pass fills
    script = """
import numpy as np
from odegate.autodiff import Tensor
from odegate.graph import SpatialGraph, normalize_adjacency
from odegate.model import ModelConfig, init_params, tape_peak_bytes
config = ModelConfig(n_nodes=4, window=3, horizon=2, proj_dim=5, embed_dim=3, steps=2)
ahat = normalize_adjacency(SpatialGraph(n_nodes=4, edges=[(0, 1, 1.0), (1, 2, 1.0)]))
x = Tensor(np.random.default_rng(0).standard_normal((2, 4, 3, 1)))
for _ in range(2):
    print(tape_peak_bytes(x, ahat, init_params(config, seed=0), config))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, second = map(int, proc.stdout.split())
    assert abs(first - second) <= 0.01 * max(first, second), (first, second)


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

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]\n", "expected a JSON object"),
        ('{"magic": "a", "magic": "b"}\n', "repeated key 'magic'"),
    ], ids=["not_an_object", "repeated_key"])
    def test_malformed_json_object_is_a_parse_error(self, tmp_path, text, message):
        path = tmp_path / "ckpt.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
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

    def test_legacy_in_dim_predicts_pinned(self, tmp_path):
        # a checkpoint saved while ModelConfig had in_dim carries "in_dim": 1;
        # it loads and forecasts the bits pinned before the field went
        import json
        config = dataclasses.replace(TINY, steps=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_params(config, seed=5), config)
        payload = json.loads(path.read_text())
        payload["config"]["in_dim"] = 1
        path.write_text(json.dumps(payload))
        params, loaded = load_checkpoint(path)
        assert loaded == config
        x, ahat = tiny_inputs(config, batch=3, seed=6)
        y_hat = forward(x, ahat, params, loaded).y_hat.data
        digest = hashlib.sha256(np.ascontiguousarray(y_hat, dtype="<f8").tobytes())
        assert digest.hexdigest() == TestForwardBits.Y_HAT_DIGESTS["lte"]

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
        # a retired key loads only with the value, and JSON type, it had
        (lambda p: p["config"].update(in_dim=2), "trained with in_dim=2, which"),
        (lambda p: p["config"].update(in_dim=True), "trained with in_dim=true, which"),
        (lambda p: p["config"].update(in_dim=1.0), r"trained with in_dim=1\.0, which"),
        (lambda p: p["config"].update(sparsity_tau=0.2), "with sparsity_tau=0.2, which"),
        (lambda p: p["config"].update(sparsity_tau=False), "with sparsity_tau=false"),
    ], ids=["unknown_key", "missing_key", "str_int", "float_int", "bool_int",
            "int_bool", "no_config", "params_not_object", "bias_shape",
            "bias_rank", "bias_text", "bias_ragged", "huge_steps", "off_huge_steps",
            "retired_in_dim_2", "retired_in_dim_true", "retired_in_dim_float",
            "retired_tau_value", "retired_tau_bool"])
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
