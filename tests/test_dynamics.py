"""Solver-pair, error-gate, and hybrid-step tests.

The load-bearing oracles here are analytic: the affine field has a closed-form
per-step truncation error, and the scalar/symmetric cases have exact
exponential flows, so the solver orders are measured against the truth rather
than against the implementation.
"""

import numpy as np
import pytest

from odegate.autodiff import Tape, Tensor, backward, mean_all, total_sum
from odegate.dynamics import (CompensatorParams, GateStats, LearnedMaskParams,
                              NFECounter, VectorFieldParams, attention_mask,
                              compensate, embedded_dual_step, evolve,
                              local_truncation_error, percentile95, vector_field)
from odegate.errors import ContractError, NumericError


def affine_field(rng, d_h):
    return VectorFieldParams(w_f=Tensor(rng.standard_normal((d_h, d_h)) * 0.4,
                                        requires_grad=True),
                             b_f=Tensor(rng.standard_normal(d_h) * 0.1,
                                        requires_grad=True))


def comp_for(rng, d_h, steps):
    return CompensatorParams(
        [(Tensor(rng.standard_normal((d_h, d_h)) * 0.3, requires_grad=True),
          Tensor(rng.standard_normal(d_h) * 0.1, requires_grad=True))
         for _ in range(steps)])


def numpy_field(a, h, w, b):
    return np.einsum("ij,bjk->bik", a, h) @ w + b


class TestVectorField:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        h = rng.standard_normal((2, 4, 3))
        vf = affine_field(rng, 3)
        out = vector_field(Tensor(h), Tensor(a), vf)
        assert np.allclose(out.data,
                           numpy_field(a, h, vf.w_f.data, vf.b_f.data),
                           atol=1e-14)

    def test_counter_bumps_once(self):
        rng = np.random.default_rng(1)
        nfe = NFECounter()
        vf = affine_field(rng, 2)
        vector_field(Tensor(rng.standard_normal((1, 3, 2))),
                     Tensor(np.eye(3)), vf, nfe=nfe)
        assert nfe.count == 1

    def test_records_two_tape_nodes(self):
        rng = np.random.default_rng(1)
        tape = Tape()
        h = Tensor(rng.standard_normal((2, 3, 2)), requires_grad=True)
        vector_field(h, Tensor(np.eye(3)), affine_field(rng, 2), tape)
        assert [name for name, _ in tape.nodes] == ["propagate", "affine"]


class TestEmbeddedDualStep:
    def test_two_evaluations_exactly(self):
        rng = np.random.default_rng(2)
        nfe = NFECounter()
        vf = affine_field(rng, 3)
        embedded_dual_step(Tensor(rng.standard_normal((2, 4, 3))), 0.25,
                           Tensor(rng.standard_normal((4, 4))), vf, nfe=nfe)
        assert nfe.count == 2

    def test_euler_and_rk2_values(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        h = rng.standard_normal((2, 4, 3))
        vf = affine_field(rng, 3)
        dt = 0.2
        h_euler, h_rk2 = embedded_dual_step(Tensor(h), dt, Tensor(a), vf)
        f_h = numpy_field(a, h, vf.w_f.data, vf.b_f.data)
        mid = h + (dt / 2.0) * f_h
        assert np.allclose(h_euler.data, h + dt * f_h, atol=1e-14)
        assert np.allclose(
            h_rk2.data,
            h + dt * numpy_field(a, mid, vf.w_f.data, vf.b_f.data), atol=1e-14)

    def test_constant_field_makes_pair_agree(self):
        # w = 0 turns the field into a constant, so both estimates coincide
        # and the error gate sits exactly at its 0.5 anchor
        rng = np.random.default_rng(4)
        vf = VectorFieldParams(w_f=Tensor(np.zeros((3, 3))),
                               b_f=Tensor(rng.standard_normal(3)))
        h_euler, h_rk2 = embedded_dual_step(
            Tensor(rng.standard_normal((1, 2, 3))), 0.5,
            Tensor(rng.standard_normal((2, 2))), vf)
        assert np.array_equal(h_euler.data, h_rk2.data)
        err = local_truncation_error(h_euler, h_rk2)
        assert np.all(err.data == 0.0)
        assert np.all(attention_mask(err).data == 0.5)

    def test_dt_must_be_positive(self):
        rng = np.random.default_rng(5)
        vf = affine_field(rng, 2)
        with pytest.raises(ContractError):
            embedded_dual_step(Tensor(rng.standard_normal((1, 2, 2))), 0.0,
                               Tensor(np.eye(2)), vf)


class TestAnalyticTruncationError:
    """For the affine field f(x) = A x W + b the pair's gap has a closed form:

        rk2 - euler = (dt^2 / 2) * A f(h) W
    """

    def check_case(self, seed, dt=0.25):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        h = rng.standard_normal((2, 4, 3))
        vf = affine_field(rng, 3)
        h_euler, h_rk2 = embedded_dual_step(Tensor(h), dt, Tensor(a), vf)
        err = local_truncation_error(h_euler, h_rk2).data
        f_h = numpy_field(a, h, vf.w_f.data, vf.b_f.data)
        analytic = np.abs(
            (dt * dt / 2.0)
            * (np.einsum("ij,bjk->bik", a, f_h) @ vf.w_f.data))
        assert np.abs(err - analytic).max() < 1e-10

    def test_many_random_cases(self):
        for seed in range(20):
            self.check_case(seed)

    def test_scales_with_dt_squared(self):
        rng = np.random.default_rng(99)
        a = rng.standard_normal((4, 4))
        h = Tensor(rng.standard_normal((1, 4, 3)))
        vf = affine_field(rng, 3)
        errs = []
        for dt in (0.2, 0.1):
            pair = embedded_dual_step(h, dt, Tensor(a), vf)
            errs.append(local_truncation_error(*pair).data.max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=1e-12)


class TestSolverOrders:
    """Single-step error against the exact exponential flow."""

    def scalar_step_errors(self, dt):
        c = 0.5
        vf = VectorFieldParams(w_f=Tensor([[c]]), b_f=Tensor([0.0]))
        h0 = Tensor([[[1.0]]])
        h_euler, h_rk2 = embedded_dual_step(h0, dt, Tensor(np.eye(1)), vf)
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
        vf = VectorFieldParams(w_f=Tensor([[c]]), b_f=Tensor([0.0]))
        h0 = rng.standard_normal((1, n, 1))
        lam, vec = np.linalg.eigh(c * a)

        def exact(dt):
            flow = vec @ np.diag(np.exp(lam * dt)) @ vec.T
            return np.einsum("ij,bjk->bik", flow, h0)

        ratios = []
        for order_idx in (0, 1):
            errs = []
            for dt in (0.1, 0.05):
                pair = embedded_dual_step(Tensor(h0), dt, Tensor(a), vf)
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


class TestCompensate:
    def test_hand_oracle(self):
        h_t = Tensor([[[0.3]]])
        h_rk2 = Tensor([[[0.504]]])
        m = Tensor([[[0.7]]])
        comp = CompensatorParams([(Tensor([[0.5]]), Tensor([-0.1]))])
        out = compensate(h_t, h_rk2, m, 0, comp)
        assert out.data[0, 0, 0] == pytest.approx(
            0.504 + 0.7 * np.tanh(0.3 * 0.5 - 0.1), rel=1e-15)

    def test_jump_reads_prestep_state(self):
        rng = np.random.default_rng(6)
        h_t = Tensor(rng.standard_normal((1, 2, 2)))
        m = Tensor(np.full((1, 2, 2), 0.8))
        comp = comp_for(rng, 2, 1)
        a = compensate(h_t, Tensor(np.zeros((1, 2, 2))), m, 0, comp)
        shift = rng.standard_normal((1, 2, 2))
        b = compensate(h_t, Tensor(shift), m, 0, comp)
        # changing the solver output shifts the result by exactly that amount
        assert np.allclose(b.data - a.data, shift, atol=1e-14)

    def test_jump_bounded_by_mask(self):
        rng = np.random.default_rng(7)
        h_t = Tensor(rng.standard_normal((3, 4, 2)) * 10)
        h_rk2 = Tensor(rng.standard_normal((3, 4, 2)))
        m = Tensor(np.full((3, 4, 2), 0.9))
        out = compensate(h_t, h_rk2, m, 0, comp_for(rng, 2, 1))
        assert np.abs(out.data - h_rk2.data).max() <= 0.9

    def test_step_index_checked(self):
        rng = np.random.default_rng(8)
        comp = comp_for(rng, 2, 2)
        h = Tensor(np.zeros((1, 1, 2)))
        with pytest.raises(ContractError):
            compensate(h, h, Tensor(np.ones((1, 1, 2))), 2, comp)


class TestEvolveContracts:
    def setup_method(self):
        self.rng = np.random.default_rng(9)
        self.vf = affine_field(self.rng, 2)
        self.comp = comp_for(self.rng, 2, 4)
        self.a = Tensor(np.eye(3))
        self.h0 = Tensor(self.rng.standard_normal((2, 3, 2)))

    def test_step_count_validated(self):
        with pytest.raises(ContractError):
            evolve(self.h0, 0, 1.0, self.a, self.vf, self.comp)

    def test_dt_times_steps_must_cover_unit_time(self):
        with pytest.raises(ContractError):
            evolve(self.h0, 4, 0.3, self.a, self.vf, self.comp)
        # 1/3 * 3 only reaches 1.0 up to rounding; must be accepted
        evolve(self.h0, 3, 1.0 / 3.0, self.a, self.vf, self.comp)

    def test_unknown_mode(self):
        with pytest.raises(ContractError):
            evolve(self.h0, 4, 0.25, self.a, self.vf, self.comp,
                   mask_mode="bogus")

    def test_learned_needs_params(self):
        with pytest.raises(ContractError):
            evolve(self.h0, 4, 0.25, self.a, self.vf, self.comp,
                   mask_mode="learned")

    def test_gated_modes_need_compensator(self):
        for mode in ("lte", "uniform_one"):
            with pytest.raises(ContractError):
                evolve(self.h0, 4, 0.25, self.a, self.vf, None, mask_mode=mode)

    def test_compensator_step_shortage(self):
        short = comp_for(self.rng, 2, 2)
        with pytest.raises(ContractError):
            evolve(self.h0, 4, 0.25, self.a, self.vf, short)

    def test_numeric_failure_names_step(self):
        # 1e80 survives step 0 (state ~1e160) and overflows inside step 1
        bad_vf = VectorFieldParams(w_f=Tensor(np.full((2, 2), 1e80)),
                                   b_f=Tensor(np.zeros(2)))
        with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                       match="step 1"):
            evolve(self.h0, 2, 0.5, self.a, bad_vf, comp_for(self.rng, 2, 2),
                   mask_mode="off")


class TestEvolveBehavior:
    def setup_method(self):
        self.rng = np.random.default_rng(10)
        self.vf = affine_field(self.rng, 3)
        self.comp = comp_for(self.rng, 3, 4)
        self.a = Tensor(np.abs(self.rng.standard_normal((4, 4))) / 4.0)
        self.h0 = Tensor(self.rng.standard_normal((2, 4, 3)))

    @pytest.mark.parametrize("mode", ["lte", "uniform_one", "learned", "off"])
    def test_nfe_budget_all_modes(self, mode):
        nfe = NFECounter()
        mask_params = LearnedMaskParams(
            Tensor(self.rng.standard_normal((3, 3))),
            Tensor(np.zeros(3))) if mode == "learned" else None
        res = evolve(self.h0, 4, 0.25, self.a, self.vf, self.comp,
                     mask_mode=mode, mask_params=mask_params, nfe=nfe)
        assert nfe.count == 8
        assert len(res.lte) == 4

    def test_uniform_mode_pins_gate_to_one(self):
        res = evolve(self.h0, 4, 0.25, self.a, self.vf, self.comp,
                     mask_mode="uniform_one", collect_masks=True)
        assert all(np.all(m == 1.0) for m in res.masks)
        stats = GateStats()
        for m in res.masks:
            stats.add(m)
        assert (stats.steps, stats.count) == (4, 4 * self.h0.size)
        assert (stats.mean, stats.std, stats.p95) == (1.0, 0.0, 1.0)

    def test_lte_mode_gate_range(self):
        res = evolve(self.h0, 4, 0.25, self.a, self.vf, self.comp,
                     collect_masks=True)
        for m, err in zip(res.masks, res.lte):
            assert np.all((0.5 <= m) & (m < 1.0))
            assert np.all(err.data >= 0.0)

    def test_off_mode_is_pure_solver(self):
        res = evolve(self.h0, 2, 0.5, self.a, self.vf, None, mask_mode="off",
                     collect_masks=True)
        h = self.h0
        for _ in range(2):
            _, h = embedded_dual_step(h, 0.5, self.a, self.vf)
        assert np.array_equal(res.h_final.data, h.data)
        assert res.masks == []

    def test_gate_stats_match_collected_masks(self):
        res = evolve(self.h0, 4, 0.25, self.a, self.vf, self.comp,
                     collect_masks=True)
        ref = evolve(self.h0, 4, 0.25, self.a, self.vf, self.comp)
        stats = GateStats()
        for m in res.masks:
            stats.add(m)
        assert np.array_equal(res.h_final.data, ref.h_final.data)
        values = np.concatenate([m.ravel() for m in res.masks])
        assert stats.count == values.size and stats.steps == 4
        assert stats.mean == pytest.approx(values.mean(), rel=0, abs=1e-12)
        assert stats.std == pytest.approx(values.std(), rel=0, abs=1e-12)
        assert stats.p95 == pytest.approx(
            np.mean([np.percentile(m, 95) for m in res.masks]), rel=0, abs=1e-12)

    def test_collect_masks_and_states(self):
        res = evolve(self.h0, 4, 0.25, self.a, self.vf, self.comp,
                     collect_masks=True, collect_states=True)
        assert len(res.masks) == 4
        assert all(m.shape == self.h0.shape for m in res.masks)
        assert len(res.states) == 5
        assert np.array_equal(res.states[0], self.h0.data)

    def test_determinism(self):
        r1 = evolve(self.h0, 4, 0.25, self.a, self.vf, self.comp)
        r2 = evolve(self.h0, 4, 0.25, self.a, self.vf, self.comp)
        assert np.array_equal(r1.h_final.data, r2.h_final.data)


class TestGateGradientFlow:
    def grads_for(self, mask_grad):
        rng = np.random.default_rng(21)
        vf = affine_field(rng, 2)
        comp = comp_for(rng, 2, 2)
        h0 = Tensor(rng.standard_normal((1, 3, 2)))
        a = Tensor(np.eye(3) * 0.8)
        tape = Tape()
        res = evolve(h0, 2, 0.5, a, vf, comp, mask_grad=mask_grad, tape=tape)
        backward(total_sum(res.h_final, tape), tape)
        return vf.w_f.grad.copy()

    def test_detached_gate_changes_gradients(self):
        g_detached = self.grads_for(False)
        g_attached = self.grads_for(True)
        assert np.all(np.isfinite(g_detached)) and np.all(np.isfinite(g_attached))
        assert not np.allclose(g_detached, g_attached)

    def test_error_tensors_stay_differentiable(self):
        # the smoothness penalty needs d mean(E) / d field weights even though
        # the gate itself is detached by default
        rng = np.random.default_rng(22)
        vf = affine_field(rng, 2)
        comp = comp_for(rng, 2, 2)
        h0 = Tensor(rng.standard_normal((1, 3, 2)))
        tape = Tape()
        res = evolve(h0, 2, 0.5, Tensor(np.eye(3)), vf, comp, tape=tape)
        backward(mean_all(res.lte[0], tape), tape)
        assert vf.w_f.grad is not None
        assert float(np.abs(vf.w_f.grad).sum()) > 0.0


class TestGateStats:
    @pytest.mark.parametrize("size", [1, 2, 3, 20, 21, 40, 101, 1000, 25600])
    def test_percentile95_equals_numpy(self, size):
        rng = np.random.default_rng(size)
        for values in (rng.uniform(0.5, 1.0, size),
                       rng.standard_normal((size, 1)),
                       np.round(rng.uniform(0, 1, size), 1)):
            assert percentile95(values) == float(np.percentile(values, 95))

    def test_percentile95_leaves_input_untouched(self):
        values = np.array([3.0, 1.0, 2.0])
        percentile95(values)
        assert values.tolist() == [3.0, 1.0, 2.0]

    def test_folds_steps(self):
        rng = np.random.default_rng(0)
        steps = [rng.uniform(0.5, 1.0, (2, 4, 3)) for _ in range(5)]
        stats = GateStats()
        for m in steps:
            stats.add(m)
        values = np.concatenate([m.ravel() for m in steps])
        assert stats.count == values.size and stats.steps == 5
        assert stats.mean == pytest.approx(values.mean(), rel=0, abs=1e-12)
        assert stats.std == pytest.approx(values.std(), rel=0, abs=1e-12)
        assert stats.p95 == pytest.approx(
            np.mean([np.percentile(m, 95) for m in steps]), rel=0, abs=1e-12)

    def test_empty_reads_zero(self):
        stats = GateStats()
        assert (stats.mean, stats.std, stats.p95) == (0.0, 0.0, 0.0)
