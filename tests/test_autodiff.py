"""Tensor/tape engine tests: every op against numpy forward oracles and the
central-difference gradient oracle, plus the tape-lifecycle contracts."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odegate.autodiff
from odegate.autodiff import (Tape, Tensor, absolute, add, affine, backward,
                              concat_channels, detach, divide, expand_batch,
                              finite_diff_gradient, hadamard, matmul, mean_abs_error,
                              mean_all, propagate, relu, scale, sigmoid, sub, tanh,
                              tensor, total_sum, transpose)
from odegate.errors import ContractError, DimensionError, NumericError

RNG = np.random.default_rng(12345)


def rand(*shape):
    return RNG.standard_normal(shape)


def grad_matches(build, params, rel_tol=1e-6):
    """Backward grads of a scalar-producing graph vs central differences."""
    for p in params:
        p.zero_grad()
    t = Tape()
    loss = build(t)
    backward(loss, t)
    for p in params:
        analytic = p.grad.copy()

        def f(probe, p=p):
            saved = p.data
            p.data = probe.data
            try:
                return build(Tape())
            finally:
                p.data = saved

        numeric = finite_diff_gradient(f, p).data
        denom = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
        assert np.abs(analytic - numeric).max() / denom < rel_tol


class TestTensor:
    def test_float64_always(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            Tensor([1.0, np.nan])
        with pytest.raises(NumericError):
            Tensor([np.inf])

    def test_item_scalar_only(self):
        assert Tensor(3.5).item() == 3.5
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0]).item()

    def test_accumulate_adds(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        t.accumulate_grad(np.array([1.0, 1.0]))
        t.accumulate_grad(np.array([0.5, 0.25]))
        assert np.array_equal(t.grad, [1.5, 1.25])
        t.zero_grad()
        assert t.grad is None

    def test_detach_drops_tracking(self):
        t = Tensor([1.0], requires_grad=True)
        d = detach(t)
        assert not d.requires_grad
        assert np.array_equal(d.data, t.data)

    def test_tensor_helper_copies(self):
        src = np.array([1.0, 2.0])
        t = tensor(src)
        src[0] = 99.0
        assert t.data[0] == 1.0


class TestTapeLifecycle:
    def test_no_tape_records_nothing(self):
        a = Tensor(rand(3, 3), requires_grad=True)
        out = tanh(a, None)
        assert not out.requires_grad

    def test_no_grad_inputs_record_nothing(self):
        t = Tape()
        a = Tensor(rand(2, 2))
        b = Tensor(rand(2, 2))
        matmul(a, b, t)
        assert len(t) == 0

    def test_recording_marks_output_live(self):
        t = Tape()
        a = Tensor(rand(2, 2), requires_grad=True)
        out = tanh(a, t)
        assert out.requires_grad and len(t) == 1

    def test_backward_needs_scalar(self):
        t = Tape()
        a = Tensor(rand(3), requires_grad=True)
        out = tanh(a, t)
        with pytest.raises(ContractError):
            backward(out, t)

    def test_clear(self):
        t = Tape()
        a = Tensor(rand(2), requires_grad=True)
        total_sum(a, t)
        t.clear()
        assert len(t) == 0

    def test_fanout_accumulates(self):
        # y = sum(a*a + a*a) so dy/da = 4a
        t = Tape()
        a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        p = hadamard(a, a, t)
        s = add(p, p, t)
        backward(total_sum(s, t), t)
        assert np.allclose(a.grad, 4.0 * a.data)


class TestForwardOracles:
    def test_matmul(self):
        a, b = rand(3, 4), rand(4, 2)
        assert np.array_equal(matmul(Tensor(a), Tensor(b)).data, a @ b)

    def test_matmul_shape_errors(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(rand(3)), Tensor(rand(3, 2)))
        with pytest.raises(DimensionError):
            matmul(Tensor(rand(3, 4)), Tensor(rand(5, 2)))

    def test_elementwise(self):
        a, b = rand(2, 3), rand(2, 3)
        assert np.array_equal(add(Tensor(a), Tensor(b)).data, a + b)
        assert np.array_equal(sub(Tensor(a), Tensor(b)).data, a - b)
        assert np.array_equal(hadamard(Tensor(a), Tensor(b)).data, a * b)
        assert np.array_equal(scale(Tensor(a), 2.5).data, a * 2.5)
        assert np.array_equal(absolute(Tensor(a)).data, np.abs(a))

    def test_scalar_second_operand(self):
        a = rand(4)
        assert np.array_equal(add(Tensor(a), 1.5).data, a + 1.5)
        assert np.array_equal(sub(Tensor(a), 1.5).data, a - 1.5)
        assert np.array_equal(hadamard(Tensor(a), 3.0).data, a * 3.0)
        assert np.array_equal(divide(Tensor(a), 2.0).data, a / 2.0)

    def test_divide_tensor(self):
        a = rand(3, 2)
        b = np.abs(rand(3, 2)) + 1.0
        assert np.array_equal(divide(Tensor(a), Tensor(b)).data, a / b)
        with pytest.raises(NumericError):
            divide(Tensor(a), 0.0)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionError):
            add(Tensor(rand(2, 3)), Tensor(rand(3, 2)))

    def test_activations(self):
        x = rand(5)
        assert np.array_equal(tanh(Tensor(x)).data, np.tanh(x))
        assert np.array_equal(relu(Tensor(x)).data, np.maximum(x, 0.0))
        assert np.allclose(sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)),
                           rtol=0, atol=1e-15)

    def test_closed_form_anchors(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5
        assert sigmoid(Tensor(0.5)).item() == 0.6224593312018546
        assert tanh(Tensor(20.0)).item() == 1.0

    def test_sigmoid_extreme_inputs_stable(self):
        out = sigmoid(Tensor([-1000.0, -50.0, 0.0, 50.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0

    def test_structural(self):
        a = rand(2, 3, 4)
        assert np.array_equal(transpose(Tensor(a), (1, 0, 2)).data,
                              a.transpose(1, 0, 2))
        b = rand(2, 3, 5)
        assert np.array_equal(concat_channels(Tensor(a), Tensor(b)).data,
                              np.concatenate([a, b], axis=-1))
        e = rand(3, 4)
        assert np.array_equal(expand_batch(Tensor(e), 5).data,
                              np.broadcast_to(e, (5, 3, 4)))

    def test_structural_errors(self):
        with pytest.raises(DimensionError):
            transpose(Tensor(rand(2, 3)), (0, 0))
        with pytest.raises(DimensionError):
            concat_channels(Tensor(rand(2, 3)), Tensor(rand(3, 3)))
        with pytest.raises(ContractError):
            expand_batch(Tensor(rand(2)), 0)

    def test_propagate_matches_per_batch_loop(self):
        a, h = rand(5, 5), rand(3, 5, 4)
        expected = np.stack([a @ h[b] for b in range(3)])
        out = propagate(Tensor(a), Tensor(h)).data
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_affine_matches_per_batch_loop(self):
        h, w, bias = rand(3, 5, 4), rand(4, 2), rand(2)
        for b_arg, b_val in ((None, 0.0), (Tensor(bias), bias)):
            expected = np.stack([h[b] @ w + b_val for b in range(3)])
            out = affine(Tensor(h), Tensor(w), b_arg).data
            assert out.shape == (3, 5, 2)
            assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_graph_op_shape_errors(self):
        with pytest.raises(DimensionError):
            propagate(Tensor(rand(4, 4)), Tensor(rand(4, 3)))      # h not [B,N,d]
        with pytest.raises(DimensionError):
            propagate(Tensor(rand(4, 5)), Tensor(rand(2, 4, 3)))   # a not square
        with pytest.raises(DimensionError):
            propagate(Tensor(rand(5, 5)), Tensor(rand(2, 4, 3)))   # node count
        with pytest.raises(DimensionError):
            affine(Tensor(rand(2, 4, 3)), Tensor(rand(4, 2)))      # inner dims
        with pytest.raises(DimensionError):
            affine(Tensor(rand(2, 4, 3)), Tensor(rand(3)))         # w not 2-D
        with pytest.raises(DimensionError):
            affine(Tensor(rand(2, 4, 3)), Tensor(rand(3, 2)), Tensor(rand(3)))

    def test_reductions(self):
        a = rand(3, 4)
        assert total_sum(Tensor(a)).item() == pytest.approx(a.sum(), rel=1e-15)
        assert mean_all(Tensor(a)).item() == pytest.approx(a.mean(), rel=1e-15)

    def test_mean_abs_error_worked_example(self):
        pred = Tensor([1.0, 3.0])
        target = Tensor([0.0, 2.0])
        assert mean_abs_error(pred, target).item() == 1.0

    def test_overflow_raises(self):
        big = Tensor(np.full((2, 2), 1e200))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            matmul(big, big)


class TestGradientOracles:
    """Each op's backward rule against finite differences."""

    def test_matmul(self):
        a = Tensor(rand(3, 4), requires_grad=True)
        b = Tensor(rand(4, 2), requires_grad=True)
        grad_matches(lambda t: total_sum(tanh(matmul(a, b, t), t), t), [a, b])

    def test_add_sub_hadamard_divide(self):
        a = Tensor(rand(3, 3), requires_grad=True)
        b = Tensor(np.abs(rand(3, 3)) + 0.5, requires_grad=True)
        grad_matches(lambda t: total_sum(add(a, b, t), t), [a, b])
        grad_matches(lambda t: total_sum(sub(a, b, t), t), [a, b])
        grad_matches(lambda t: total_sum(hadamard(a, b, t), t), [a, b])
        grad_matches(lambda t: total_sum(divide(a, b, t), t), [a, b])

    def test_scalar_forms(self):
        a = Tensor(rand(4), requires_grad=True)
        grad_matches(lambda t: total_sum(add(a, 2.0, t), t), [a])
        grad_matches(lambda t: total_sum(scale(a, -1.5, t), t), [a])
        grad_matches(lambda t: total_sum(divide(a, 4.0, t), t), [a])

    def test_activations(self):
        # keep entries away from relu/abs kinks where the subgradient is taken
        a = Tensor(rand(3, 3) + 3.0, requires_grad=True)
        b = Tensor(rand(3, 3) - 3.0, requires_grad=True)
        grad_matches(lambda t: total_sum(tanh(a, t), t), [a])
        grad_matches(lambda t: total_sum(sigmoid(a, t), t), [a])
        grad_matches(lambda t: total_sum(relu(a, t), t), [a])
        grad_matches(lambda t: total_sum(relu(b, t), t), [b])
        grad_matches(lambda t: total_sum(absolute(b, t), t), [b])

    def test_sigmoid_slope_at_zero(self):
        t = Tape()
        x = Tensor(0.0, requires_grad=True)
        backward(sigmoid(x, t), t)
        assert float(x.grad) == 0.25

    def test_structural(self):
        a = Tensor(rand(2, 3, 4), requires_grad=True)
        b = Tensor(rand(2, 3, 2), requires_grad=True)
        e = Tensor(rand(3, 2), requires_grad=True)
        grad_matches(lambda t: total_sum(tanh(transpose(a, (2, 0, 1), t), t), t), [a])
        grad_matches(lambda t: total_sum(tanh(concat_channels(a, b, t), t), t), [a, b])
        grad_matches(lambda t: total_sum(tanh(expand_batch(e, 3, t), t), t), [e])

    def test_propagate(self):
        a = Tensor(rand(4, 4), requires_grad=True)
        h = Tensor(rand(3, 4, 2), requires_grad=True)
        grad_matches(lambda t: total_sum(tanh(propagate(a, h, t), t), t), [a, h])

    def test_propagate_learnable_operator(self):
        # the adaptive operator is itself built on the tape from embeddings
        e = Tensor(rand(4, 2), requires_grad=True)
        h = Tensor(rand(3, 4, 2), requires_grad=True)

        def build(t):
            a = tanh(matmul(e, transpose(e, (1, 0), t), t), t)
            return total_sum(tanh(propagate(a, h, t), t), t)

        grad_matches(build, [e, h])

    def test_affine(self):
        h = Tensor(rand(2, 3, 4), requires_grad=True)
        w = Tensor(rand(4, 5), requires_grad=True)
        bias = Tensor(rand(5), requires_grad=True)
        grad_matches(lambda t: total_sum(tanh(affine(h, w, bias, t), t), t), [h, w, bias])
        grad_matches(lambda t: total_sum(tanh(affine(h, w, tape=t), t), t), [h, w])

    def test_reductions(self):
        a = Tensor(rand(3, 4), requires_grad=True)
        y = Tensor(rand(3, 4))
        grad_matches(lambda t: mean_all(hadamard(a, a, t), t), [a])
        grad_matches(lambda t: mean_abs_error(a, y, t), [a])

    def test_composite_chain(self):
        a = Tensor(rand(3, 4), requires_grad=True)
        w = Tensor(rand(4, 4), requires_grad=True)
        bias = Tensor(rand(4), requires_grad=True)
        y = Tensor(rand(3, 4))

        def build(t):
            h = affine(a, w, bias, t)
            return mean_abs_error(sigmoid(h, t), y, t)

        grad_matches(build, [a, w, bias])

    def test_detached_input_gets_no_grad(self):
        t = Tape()
        a = Tensor(rand(3), requires_grad=True)
        d = detach(a)
        backward(total_sum(hadamard(d, d, t), t), t)
        assert a.grad is None


def _away_from_zero(rng, *shape):
    # entries at least 0.5 from the relu/abs kinks, with both signs
    r = rng.standard_normal(shape)
    return np.sign(r) * (np.abs(r) + 0.5)


def _mae_pair(rng):
    pred = rng.standard_normal((3, 4))
    return pred, pred + _away_from_zero(rng, 3, 4)


# Every tape op: (call on tensor inputs under tape t, seeded input arrays).
ORACLE_TABLE = {
    "matmul": (lambda t, a, b: matmul(a, b, t),
               lambda rng: (rng.standard_normal((3, 4)), rng.standard_normal((4, 2)))),
    "propagate": (lambda t, a, h: propagate(a, h, t),
                  lambda rng: (rng.standard_normal((4, 4)),
                               rng.standard_normal((3, 4, 2)))),
    "affine": (lambda t, h, w, b: affine(h, w, b, t),
               lambda rng: (rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5)),
                            rng.standard_normal(5))),
    "add": (lambda t, a, b: add(a, b, t),
            lambda rng: (rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))),
    "sub": (lambda t, a, b: sub(a, b, t),
            lambda rng: (rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))),
    "hadamard": (lambda t, a, b: hadamard(a, b, t),
                 lambda rng: (rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))),
    "scale": (lambda t, a: scale(a, -1.5, t), lambda rng: (rng.standard_normal(4),)),
    "divide": (lambda t, a, b: divide(a, b, t),
               lambda rng: (rng.standard_normal((3, 3)),
                            np.abs(rng.standard_normal((3, 3))) + 0.5)),
    "absolute": (lambda t, a: absolute(a, t), lambda rng: (_away_from_zero(rng, 3, 3),)),
    "tanh": (lambda t, a: tanh(a, t), lambda rng: (rng.standard_normal((3, 3)),)),
    "relu": (lambda t, a: relu(a, t), lambda rng: (_away_from_zero(rng, 3, 3),)),
    "sigmoid": (lambda t, a: sigmoid(a, t), lambda rng: (rng.standard_normal((3, 3)),)),
    "transpose": (lambda t, a: transpose(a, (2, 0, 1), t),
                  lambda rng: (rng.standard_normal((2, 3, 4)),)),
    "concat_channels": (lambda t, a, b: concat_channels(a, b, t),
                        lambda rng: (rng.standard_normal((2, 3, 4)),
                                     rng.standard_normal((2, 3, 2)))),
    "expand_batch": (lambda t, a: expand_batch(a, 3, t),
                     lambda rng: (rng.standard_normal((3, 2)),)),
    "total_sum": (lambda t, a: total_sum(a, t), lambda rng: (rng.standard_normal((3, 4)),)),
    "mean_all": (lambda t, a: mean_all(a, t), lambda rng: (rng.standard_normal((3, 4)),)),
    "mean_abs_error": (lambda t, pred, target: mean_abs_error(pred, target, t), _mae_pair),
}

# (op, index of the input without requires_grad): None for every op, and each
# input in turn for the ops with more than one
ORACLE_CASES = [(name, frozen) for name, (_, inputs) in ORACLE_TABLE.items()
                for n in [len(inputs(np.random.default_rng(0)))]
                for frozen in [None] + (list(range(n)) if n > 1 else [])]


def _oracle_case(name, frozen=None):
    """Inputs of one table entry (all live but `frozen`) and a scalar build."""
    call, inputs = ORACLE_TABLE[name]
    tensors = [Tensor(x, requires_grad=k != frozen)
               for k, x in enumerate(inputs(np.random.default_rng(7)))]
    return tensors, lambda t: total_sum(tanh(call(t, *tensors), t), t)


class TestSingleBackwardPath:
    """Every op routes its gradients through the one rule `_out` records."""

    def test_every_tape_op_has_an_oracle(self):
        ops = {name for name, fn in inspect.getmembers(odegate.autodiff, inspect.isfunction)
               if fn.__module__ == odegate.autodiff.__name__ and not name.startswith("_")
               and "tape" in inspect.signature(fn).parameters and name != "backward"}
        assert ops == set(ORACLE_TABLE)

    @pytest.mark.parametrize("name, frozen", ORACLE_CASES)
    def test_vjps_against_oracle(self, name, frozen):
        # every live input's gradient matches central differences; a frozen
        # input gets none
        tensors, build = _oracle_case(name, frozen)
        grad_matches(build, [x for k, x in enumerate(tensors) if k != frozen])
        if frozen is not None:
            assert tensors[frozen].grad is None

    def test_unused_output_leaves_inputs_untouched(self):
        t = Tape()
        a = Tensor(rand(2, 3), requires_grad=True)
        b = Tensor(rand(2, 3), requires_grad=True)
        hadamard(a, b, t)                     # recorded, never reaches the loss
        tanh(b, t)
        loss = total_sum(scale(a, 2.0, t), t)
        assert len(t) == 4
        backward(loss, t)
        assert np.array_equal(a.grad, np.full((2, 3), 2.0))
        assert b.grad is None


class TestFiniteDiffOracle:
    def test_quadratic_exact(self):
        # d/dx sum(x^2) = 2x; central differences are exact for quadratics
        x = Tensor(rand(3, 2))
        g = finite_diff_gradient(lambda p: float((p.data ** 2).sum()), x)
        assert np.allclose(g.data, 2.0 * x.data, atol=1e-9)

    def test_eps_validated(self):
        with pytest.raises(ContractError):
            finite_diff_gradient(lambda p: 0.0, Tensor([1.0]), eps=0.0)


@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=16))
@settings(max_examples=60, deadline=None)
def test_sigmoid_range_property(values):
    out = sigmoid(Tensor(values)).data
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    nonneg = sigmoid(Tensor(np.abs(values))).data
    assert np.all(nonneg >= 0.5)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_matmul_grad_property(m, k, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((m, k)), requires_grad=True)
    b = Tensor(rng.standard_normal((k, m)), requires_grad=True)
    t = Tape()
    backward(total_sum(matmul(a, b, t), t), t)
    # d sum(AB) / dA = ones @ B^T, / dB = A^T @ ones
    ones = np.ones((m, m))
    assert np.allclose(a.grad, ones @ b.data.T, atol=1e-12)
    assert np.allclose(b.grad, a.data.T @ ones, atol=1e-12)
