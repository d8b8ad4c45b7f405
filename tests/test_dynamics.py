"""Solver-pair, error-gate, and hybrid-step tests.

The load-bearing oracles here are analytic: the affine field has a closed-form
per-step truncation error, and the scalar/symmetric cases have exact
exponential flows, so the solver orders are measured against the truth rather
than against the implementation.
"""

import multiprocessing
import tracemalloc

import numpy as np
import pytest

import odegate.dynamics
from odegate.autodiff import Tape, Tensor, backward, mean_all
from odegate.dynamics import (GateStats, NFECounter, attention_mask, compensate,
                              embedded_dual_step, evolve, local_truncation_error,
                              vector_field)
from odegate.errors import ContractError, NumericError


def affine_field(rng, d_h):
    """A stream's field: its (w_f, b_f) pair."""
    return (Tensor(rng.standard_normal((d_h, d_h)) * 0.4, requires_grad=True),
            Tensor(rng.standard_normal(d_h) * 0.1, requires_grad=True))


def jumps_for(rng, d_h, steps):
    """A stream's jumps: one (w_g, b_g) pair per step."""
    return [(Tensor(rng.standard_normal((d_h, d_h)) * 0.3, requires_grad=True),
             Tensor(rng.standard_normal(d_h) * 0.1, requires_grad=True))
            for _ in range(steps)]


def numpy_field(a, h, w, b):
    # node-major h[N,B,d], as every state in these tests
    return np.einsum("ij,jbk->ibk", a, h) @ w + b


class TestVectorField:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        h = rng.standard_normal((4, 2, 3))
        field = affine_field(rng, 3)
        out = vector_field(Tensor(h), Tensor(a), field)
        assert np.allclose(out.data,
                           numpy_field(a, h, field[0].data, field[1].data),
                           atol=1e-14)

    def test_counter_bumps_once(self):
        rng = np.random.default_rng(1)
        nfe = NFECounter()
        field = affine_field(rng, 2)
        vector_field(Tensor(rng.standard_normal((3, 1, 2))),
                     Tensor(np.eye(3)), field, nfe=nfe)
        assert nfe.count == 1

    def test_records_one_tape_node(self):
        rng = np.random.default_rng(1)
        tape = Tape()
        h = Tensor(rng.standard_normal((3, 2, 2)), requires_grad=True)
        vector_field(h, Tensor(np.eye(3)), affine_field(rng, 2), tape)
        assert [name for name, _ in tape.nodes] == ["propagate"]


class TestEmbeddedDualStep:
    def test_two_evaluations_exactly(self):
        rng = np.random.default_rng(2)
        nfe = NFECounter()
        field = affine_field(rng, 3)
        embedded_dual_step(Tensor(rng.standard_normal((4, 2, 3))), 0.25,
                           Tensor(rng.standard_normal((4, 4))), field, nfe=nfe)
        assert nfe.count == 2

    def test_euler_and_rk2_values(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        h = rng.standard_normal((4, 2, 3))
        field = affine_field(rng, 3)
        dt = 0.2
        h_euler, h_rk2 = embedded_dual_step(Tensor(h), dt, Tensor(a), field)
        f_h = numpy_field(a, h, field[0].data, field[1].data)
        mid = h + (dt / 2.0) * f_h
        assert np.allclose(h_euler.data, h + dt * f_h, atol=1e-14)
        assert np.allclose(
            h_rk2.data,
            h + dt * numpy_field(a, mid, field[0].data, field[1].data), atol=1e-14)

    def test_constant_field_makes_pair_agree(self):
        # w = 0 turns the field into a constant, so both estimates coincide
        # and the error gate sits exactly at its 0.5 anchor
        rng = np.random.default_rng(4)
        field = (Tensor(np.zeros((3, 3))), Tensor(rng.standard_normal(3)))
        h_euler, h_rk2 = embedded_dual_step(
            Tensor(rng.standard_normal((2, 1, 3))), 0.5,
            Tensor(rng.standard_normal((2, 2))), field)
        assert np.array_equal(h_euler.data, h_rk2.data)
        err = local_truncation_error(h_euler, h_rk2)
        assert np.all(err.data == 0.0)
        assert np.all(attention_mask(err).data == 0.5)

    def test_dt_must_be_positive(self):
        rng = np.random.default_rng(5)
        field = affine_field(rng, 2)
        with pytest.raises(ContractError):
            embedded_dual_step(Tensor(rng.standard_normal((2, 1, 2))), 0.0,
                               Tensor(np.eye(2)), field)


class TestAnalyticTruncationError:
    """For the affine field f(x) = A x W + b the pair's gap has a closed form:

        rk2 - euler = (dt^2 / 2) * A f(h) W
    """

    def check_case(self, seed, dt=0.25):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        h = rng.standard_normal((4, 2, 3))
        field = affine_field(rng, 3)
        h_euler, h_rk2 = embedded_dual_step(Tensor(h), dt, Tensor(a), field)
        err = local_truncation_error(h_euler, h_rk2).data
        f_h = numpy_field(a, h, field[0].data, field[1].data)
        analytic = np.abs(
            (dt * dt / 2.0)
            * (np.einsum("ij,jbk->ibk", a, f_h) @ field[0].data))
        assert np.abs(err - analytic).max() < 1e-10

    def test_many_random_cases(self):
        for seed in range(20):
            self.check_case(seed)

    def test_scales_with_dt_squared(self):
        rng = np.random.default_rng(99)
        a = rng.standard_normal((4, 4))
        h = Tensor(rng.standard_normal((4, 1, 3)))
        field = affine_field(rng, 3)
        errs = []
        for dt in (0.2, 0.1):
            pair = embedded_dual_step(h, dt, Tensor(a), field)
            errs.append(local_truncation_error(*pair).data.max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=1e-12)


class TestSolverOrders:
    """Single-step error against the exact exponential flow."""

    def scalar_step_errors(self, dt):
        c = 0.5
        field = (Tensor([[c]]), Tensor([0.0]))
        h0 = Tensor([[[1.0]]])
        h_euler, h_rk2 = embedded_dual_step(h0, dt, Tensor(np.eye(1)), field)
        exact = np.exp(c * dt)
        return (abs(h_euler.data[0, 0, 0] - exact),
                abs(h_rk2.data[0, 0, 0] - exact))

    def test_euler_is_first_order(self):
        e1, _ = self.scalar_step_errors(0.1)
        e2, _ = self.scalar_step_errors(0.05)
        assert 3.5 <= e1 / e2 <= 4.5

    def test_rk2_is_second_order(self):
        _, r1 = self.scalar_step_errors(0.1)
        _, r2 = self.scalar_step_errors(0.05)
        assert 6.5 <= r1 / r2 <= 9.5

    def test_graph_coupled_orders(self):
        # symmetric operator: exact flow by eigendecomposition of c * A
        rng = np.random.default_rng(11)
        n = 4
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2.0
        c = 0.4
        field = (Tensor([[c]]), Tensor([0.0]))
        h0 = rng.standard_normal((n, 1, 1))
        lam, vec = np.linalg.eigh(c * a)

        def exact(dt):
            flow = vec @ np.diag(np.exp(lam * dt)) @ vec.T
            return np.einsum("ij,jbk->ibk", flow, h0)

        ratios = []
        for order_idx in (0, 1):
            errs = []
            for dt in (0.1, 0.05):
                pair = embedded_dual_step(Tensor(h0), dt, Tensor(a), field)
                errs.append(np.abs(pair[order_idx].data - exact(dt)).max())
            ratios.append(errs[0] / errs[1])
        assert 3.5 <= ratios[0] <= 4.5
        assert 6.5 <= ratios[1] <= 9.5


class TestAttentionMask:
    def test_range_and_anchors(self):
        e = Tensor([0.0, 0.5, 5.0, 50.0])
        m = attention_mask(e).data
        assert m[0] == 0.5
        assert m[1] == 0.6224593312018546
        assert np.all(m >= 0.5) and np.all(m <= 1.0)
        assert np.all(np.diff(m) >= 0)   # monotone in the error

    def test_negative_error_rejected(self):
        with pytest.raises(ContractError):
            attention_mask(Tensor([0.1, -0.1]))

    def test_sign_check_is_exact(self):
        e = np.zeros((20, 1, 40))
        e.flat[-1] = -1e-300
        with pytest.raises(ContractError):
            attention_mask(Tensor(e))
        e.flat[-1] = -0.0   # compares equal to zero: a valid error
        assert np.all(attention_mask(Tensor(e)).data == 0.5)
        assert attention_mask(Tensor(np.empty((0, 3)))).shape == (0, 3)


class TestCompensate:
    def test_hand_oracle(self):
        h_t = Tensor([[[0.3]]])
        h_rk2 = Tensor([[[0.504]]])
        m = Tensor([[[0.7]]])
        jumps = [(Tensor([[0.5]]), Tensor([-0.1]))]
        out = compensate(h_t, h_rk2, m, 0, jumps)
        assert out.data[0, 0, 0] == pytest.approx(
            0.504 + 0.7 * np.tanh(0.3 * 0.5 - 0.1), rel=1e-15)

    def test_jump_reads_prestep_state(self):
        rng = np.random.default_rng(6)
        h_t = Tensor(rng.standard_normal((1, 2, 2)))
        m = Tensor(np.full((1, 2, 2), 0.8))
        jumps = jumps_for(rng, 2, 1)
        a = compensate(h_t, Tensor(np.zeros((1, 2, 2))), m, 0, jumps)
        shift = rng.standard_normal((1, 2, 2))
        b = compensate(h_t, Tensor(shift), m, 0, jumps)
        # changing the solver output shifts the result by exactly that amount
        assert np.allclose(b.data - a.data, shift, atol=1e-14)

    def test_jump_bounded_by_mask(self):
        rng = np.random.default_rng(7)
        h_t = Tensor(rng.standard_normal((3, 4, 2)) * 10)
        h_rk2 = Tensor(rng.standard_normal((3, 4, 2)))
        m = Tensor(np.full((3, 4, 2), 0.9))
        out = compensate(h_t, h_rk2, m, 0, jumps_for(rng, 2, 1))
        assert np.abs(out.data - h_rk2.data).max() <= 0.9

    def test_step_index_checked(self):
        rng = np.random.default_rng(8)
        jumps = jumps_for(rng, 2, 2)
        h = Tensor(np.zeros((1, 1, 2)))
        with pytest.raises(ContractError):
            compensate(h, h, Tensor(np.ones((1, 1, 2))), 2, jumps)


class TestEvolveContracts:
    def setup_method(self):
        self.rng = np.random.default_rng(9)
        self.field = affine_field(self.rng, 2)
        self.jumps = jumps_for(self.rng, 2, 4)
        self.a = Tensor(np.eye(3))
        self.h0 = Tensor(self.rng.standard_normal((3, 2, 2)))

    def test_step_count_validated(self):
        with pytest.raises(ContractError):
            evolve(self.h0, 0, self.a, self.field, self.jumps)

    def test_unknown_mode(self):
        with pytest.raises(ContractError):
            evolve(self.h0, 4, self.a, self.field, self.jumps,
                   mask_mode="bogus")

    def test_learned_needs_params(self):
        with pytest.raises(ContractError):
            evolve(self.h0, 4, self.a, self.field, self.jumps,
                   mask_mode="learned")

    def test_gated_modes_need_compensator(self):
        for mode in ("lte", "uniform_one"):
            with pytest.raises(ContractError):
                evolve(self.h0, 4, self.a, self.field, mask_mode=mode)

    def test_compensator_step_shortage(self):
        short = jumps_for(self.rng, 2, 2)
        with pytest.raises(ContractError):
            evolve(self.h0, 4, self.a, self.field, short)

    def test_numeric_failure_names_step(self):
        # 1e80 survives step 0 (state ~1e160) and overflows inside step 1
        bad_field = (Tensor(np.full((2, 2), 1e80)), Tensor(np.zeros(2)))
        with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                       match="step 1"):
            evolve(self.h0, 2, self.a, bad_field, jumps_for(self.rng, 2, 2),
                   mask_mode="off")


class TestEvolveBehavior:
    def setup_method(self):
        self.rng = np.random.default_rng(10)
        self.field = affine_field(self.rng, 3)
        self.jumps = jumps_for(self.rng, 3, 4)
        self.a = Tensor(np.abs(self.rng.standard_normal((4, 4))) / 4.0)
        self.h0 = Tensor(self.rng.standard_normal((4, 2, 3)))

    @pytest.mark.parametrize("mode", ["lte", "uniform_one", "learned", "off"])
    def test_nfe_budget_all_modes(self, mode):
        nfe = NFECounter()
        learned_mask = (Tensor(self.rng.standard_normal((3, 3))),
                        Tensor(np.zeros(3))) if mode == "learned" else None
        res = evolve(self.h0, 4, self.a, self.field, self.jumps,
                     mask_mode=mode, learned_mask=learned_mask, nfe=nfe)
        assert nfe.count == 8
        assert len(res.lte) == 4

    @pytest.mark.parametrize("mode, collect_lte, per_step", [
        ("lte", False, 2), ("uniform_one", False, 1), ("learned", False, 1),
        ("off", False, 1), ("off", True, 2)])
    def test_euler_estimate_formed_only_for_the_error(self, monkeypatch, mode,
                                                      collect_lte, per_step):
        # h_rk2 is one stage update a step; h_euler is a second one only
        # where the error is read, by the lte gate or the collector
        calls = []
        real = odegate.dynamics.axpy
        monkeypatch.setattr(odegate.dynamics, "axpy",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        learned_mask = (Tensor(self.rng.standard_normal((3, 3))),
                        Tensor(np.zeros(3))) if mode == "learned" else None
        evolve(self.h0, 4, self.a, self.field, self.jumps, mask_mode=mode,
               learned_mask=learned_mask, tape=Tape(), collect_lte=collect_lte)
        assert len(calls) == 4 * per_step

    def test_uniform_mode_pins_gate_to_one(self):
        res = evolve(self.h0, 4, self.a, self.field, self.jumps,
                     mask_mode="uniform_one", collect_masks=True)
        assert all(np.all(m == 1.0) for m in res.masks)
        stats = GateStats()
        for m in res.masks:
            stats.add(m)
        assert stats.count == 4 * self.h0.size
        assert (stats.mean, stats.std) == (1.0, 0.0)

    def test_lte_mode_gate_range(self):
        res = evolve(self.h0, 4, self.a, self.field, self.jumps,
                     collect_masks=True)
        for m, err in zip(res.masks, res.lte):
            assert np.all((0.5 <= m) & (m < 1.0))
            assert np.all(err.data >= 0.0)

    def test_off_mode_is_pure_solver(self):
        res = evolve(self.h0, 2, self.a, self.field, mask_mode="off",
                     collect_masks=True)
        h = self.h0
        for _ in range(2):
            _, h = embedded_dual_step(h, 0.5, self.a, self.field)
        assert np.array_equal(res.h_final.data, h.data)
        assert res.masks == []

    def test_gate_stats_match_collected_masks(self):
        res = evolve(self.h0, 4, self.a, self.field, self.jumps,
                     collect_masks=True)
        ref = evolve(self.h0, 4, self.a, self.field, self.jumps)
        stats = GateStats()
        for m in res.masks:
            stats.add(m)
        assert np.array_equal(res.h_final.data, ref.h_final.data)
        values = np.concatenate([m.ravel() for m in res.masks])
        assert stats.count == values.size
        assert stats.mean == pytest.approx(values.mean(), rel=0, abs=1e-12)
        assert stats.std == pytest.approx(values.std(), rel=0, abs=1e-12)

    def test_collect_masks_and_states(self):
        res = evolve(self.h0, 4, self.a, self.field, self.jumps,
                     collect_masks=True, collect_states=True)
        assert len(res.masks) == 4
        assert all(m.shape == self.h0.shape for m in res.masks)
        assert len(res.states) == 5
        assert np.array_equal(res.states[0], self.h0.data)

    def test_determinism(self):
        r1 = evolve(self.h0, 4, self.a, self.field, self.jumps)
        r2 = evolve(self.h0, 4, self.a, self.field, self.jumps)
        assert np.array_equal(r1.h_final.data, r2.h_final.data)

    @pytest.mark.parametrize("mode, mask_grad", [
        ("lte", False), ("lte", True), ("uniform_one", False), ("learned", False),
        ("off", False)])
    def test_uncollected_error_stays_off_the_tape(self, mode, mask_grad, monkeypatch):
        # the gate reads the error's values, so only mask_grad tapes it; the
        # other modes never read it, so they do not compute it
        learned_mask = (Tensor(self.rng.standard_normal((3, 3))),
                        Tensor(np.zeros(3))) if mode == "learned" else None
        run = dict(mask_mode=mode, learned_mask=learned_mask, mask_grad=mask_grad)
        collected = evolve(self.h0, 4, self.a, self.field, self.jumps,
                           tape=Tape(), **run)
        tapes = []
        real = odegate.dynamics.local_truncation_error

        def recording(h_euler, h_rk2, tape=None):
            tapes.append(tape)
            return real(h_euler, h_rk2, tape)

        monkeypatch.setattr(odegate.dynamics, "local_truncation_error", recording)
        tape = Tape()
        res = evolve(self.h0, 4, self.a, self.field, self.jumps, tape=tape,
                     collect_lte=False, **run)
        assert res.lte is None
        expected = {"lte": [tape if mask_grad else None] * 4}.get(mode, [])
        assert tapes == expected
        assert ("abs_diff" in {name for name, _ in tape.nodes}) == mask_grad
        assert np.array_equal(res.h_final.data, collected.h_final.data)


class TestGateGradientFlow:
    def grads_for(self, mask_grad):
        rng = np.random.default_rng(21)
        field = affine_field(rng, 2)
        jumps = jumps_for(rng, 2, 2)
        h0 = Tensor(rng.standard_normal((3, 1, 2)))
        a = Tensor(np.eye(3) * 0.8)
        tape = Tape()
        res = evolve(h0, 2, a, field, jumps, mask_grad=mask_grad, tape=tape)
        backward(mean_all(res.h_final, tape), tape)
        return field[0].grad.copy()

    def test_detached_gate_changes_gradients(self):
        g_detached = self.grads_for(False)
        g_attached = self.grads_for(True)
        assert np.all(np.isfinite(g_detached)) and np.all(np.isfinite(g_attached))
        assert not np.allclose(g_detached, g_attached)

    def test_error_tensors_stay_differentiable(self):
        # the smoothness penalty needs d mean(E) / d field weights even though
        # the gate itself is detached by default
        rng = np.random.default_rng(22)
        field = affine_field(rng, 2)
        jumps = jumps_for(rng, 2, 2)
        h0 = Tensor(rng.standard_normal((3, 1, 2)))
        tape = Tape()
        res = evolve(h0, 2, Tensor(np.eye(3)), field, jumps, tape=tape)
        backward(mean_all(res.lte[0], tape), tape)
        assert field[0].grad is not None
        assert float(np.abs(field[0].grad).sum()) > 0.0


class _GraphProducts:
    """numpy as `autodiff` sees it, counting each dot or matmul call with an
    [n,n] operand or result: a graph product, or an operator's gradient."""

    def __init__(self, n):
        self.n, self.count = n, 0

    def __getattr__(self, name):
        return getattr(np, name)

    def _counted(self, fn, x, y, *args, **kwargs):
        out = fn(x, y, *args, **kwargs)
        self.count += (self.n, self.n) in (np.shape(x), np.shape(y), np.shape(out))
        return out

    def dot(self, *args, **kwargs):
        return self._counted(np.dot, *args, **kwargs)

    def matmul(self, *args, **kwargs):
        return self._counted(np.matmul, *args, **kwargs)


class TestBackwardGraphProducts:
    @pytest.mark.parametrize("learned, per_eval", [(False, 2), (True, 3)])
    def test_graph_products_per_evaluation(self, monkeypatch, learned, per_eval):
        # backward makes each evaluation's A h (a @ point at the midpoint)
        # again for W_f's gradient and a^T g' for the state's, and a learned
        # operator's gradient too: 2 [N,N] products per evaluation of a
        # static graph, 3 of an adaptive one. The midpoint's rule makes k1
        # again from A h and hands that product on to k1's rule, so the
        # stage costs no product of its own.
        rng = np.random.default_rng(12)
        n, d, steps = 5, 3, 2
        a = Tensor(np.abs(rng.standard_normal((n, n))) / n, requires_grad=learned)
        h0 = Tensor(rng.standard_normal((n, 4, d)), requires_grad=True)
        nfe, tape = NFECounter(), Tape()
        res = evolve(h0, steps, a, affine_field(rng, d), jumps_for(rng, d, steps),
                     tape=tape, nfe=nfe, collect_lte=False)
        loss = mean_all(res.h_final, tape)
        counting = _GraphProducts(n)
        monkeypatch.setattr(odegate.autodiff, "np", counting)
        backward(loss, tape)
        assert nfe.count == 2 * steps
        assert counting.count == per_eval * nfe.count


def _fold_sum_of_squares(shape) -> str:
    """The exact sum of squares `GateStats` folds from one seeded mask."""
    stats = GateStats()
    stats.add(0.5 + 0.5 * np.random.default_rng(5).random(shape))
    return stats.total_sq.hex()


class TestGateStats:
    def test_folds_steps(self):
        rng = np.random.default_rng(0)
        steps = [rng.uniform(0.5, 1.0, (2, 4, 3)) for _ in range(5)]
        stats = GateStats()
        for m in steps:
            stats.add(m)
        values = np.concatenate([m.ravel() for m in steps])
        assert stats.count == values.size
        assert stats.mean == pytest.approx(values.mean(), rel=0, abs=1e-12)
        assert stats.std == pytest.approx(values.std(), rel=0, abs=1e-12)

    def test_folds_a_transposed_view_in_place(self):
        # a train-n300 mask as `forward` returns it: a batch-major view of a
        # node-major array, folded without a state-sized copy
        rng = np.random.default_rng(3)
        view = (0.5 + 0.5 * rng.random((300, 32, 40))).swapaxes(0, 1)
        ref = GateStats()
        ref.add(np.ascontiguousarray(view))
        got = GateStats()
        tracemalloc.start()
        try:
            got.add(view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < view.nbytes / 2, peak
        assert got.count == ref.count
        assert got.mean == pytest.approx(ref.mean, rel=1e-15, abs=0)

    def test_sum_of_squares_ignores_the_blas_thread_count(self, monkeypatch):
        # one default-scenario and one train-n300 batch mask, folded by a
        # worker that loads numpy with one BLAS thread and by this process
        shapes = [(32, 20, 40), (32, 300, 40)]
        with monkeypatch.context() as env:
            env.setenv("OPENBLAS_NUM_THREADS", "1")
            pool = multiprocessing.get_context("spawn").Pool(1)
        with pool:
            one_thread = pool.map_async(_fold_sum_of_squares, shapes).get(timeout=120)
        assert one_thread == [_fold_sum_of_squares(shape) for shape in shapes]

    def test_empty_reads_zero(self):
        stats = GateStats()
        assert (stats.mean, stats.std) == (0.0, 0.0)
