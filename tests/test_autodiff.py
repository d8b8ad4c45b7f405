"""Tensor/tape engine tests: every op against numpy forward oracles and the
central-difference gradient oracle, plus the tape-lifecycle contracts."""

import inspect
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import odegate.autodiff
from odegate.autodiff import (Tape, Tensor, _finite, _sigmoid_values, abs_diff, add,
                              affine, all_finite, axpy, backward, checkpoint,
                              concat_channels, expand_batch, finite_diff_gradient, gated_jump,
                              gram, mean_abs_error, mean_all, propagate, relu,
                              row_normalize, sigmoid, swap_leading)
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

    def test_constructor_copies(self):
        src = np.array([1.0, 2.0])
        t = Tensor(src)
        src[0] = 99.0
        assert t.data[0] == 1.0


class TestTapeLifecycle:
    def test_no_tape_records_nothing(self):
        a = Tensor(rand(3, 3), requires_grad=True)
        out = sigmoid(a, None)
        assert not out.requires_grad

    def test_no_grad_inputs_record_nothing(self):
        t = Tape()
        a = Tensor(rand(2, 2))
        h = Tensor(rand(2, 1, 3))
        propagate(a, h, Tensor(rand(3, 2)), Tensor(rand(2)), t)
        gram(a, t)
        assert len(t) == 0

    def test_recording_marks_output_live(self):
        t = Tape()
        a = Tensor(rand(2, 2), requires_grad=True)
        out = sigmoid(a, t)
        assert out.requires_grad and len(t) == 1

    def test_backward_needs_scalar(self):
        t = Tape()
        a = Tensor(rand(3), requires_grad=True)
        out = sigmoid(a, t)
        with pytest.raises(ContractError):
            backward(out, t)

    def test_backward_spends_tape(self):
        t = Tape()
        a = Tensor(rand(3), requires_grad=True)
        h = sigmoid(a, t)
        loss = mean_all(h, t)
        backward(loss, t)
        assert len(t) == 0
        assert a.grad is not None and h.grad is None   # only leaves keep .grad
        with pytest.raises(ContractError, match="spent"):
            backward(loss, t)
        assert np.array_equal(a.grad, np.full(3, 1.0 / 3.0) * h.data * (1.0 - h.data))

    @pytest.mark.parametrize("op", ["axpy", "affine", "propagate", "expand_batch",
                                    "mean_all"])
    def test_tape_keeps_only_what_vjps_read(self, op):
        # none of these VJPs reads its input's array, so the tape must not
        # keep it once the forward code drops the input; `propagate` reads
        # its state only for the gradient of a channel map or an operator
        # that requires one, and here neither does
        t = Tape()
        a = Tensor(rand(2, 3, 4), requires_grad=True)
        frozen = Tensor(rand(4, 2))
        x = axpy(a, a, 1.0, t)
        y = {"axpy": lambda: axpy(x, x, 0.5, t),
             "affine": lambda: affine(x, frozen, tape=t),
             "propagate": lambda: propagate(Tensor(rand(2, 2)), x, frozen,
                                            Tensor(rand(2)), t),
             "expand_batch": lambda: expand_batch(x, 2, t),
             "mean_all": lambda: mean_all(x, t)}[op]()
        arr = x.data
        del x
        assert sys.getrefcount(arr) == 2   # `arr` and the call's argument
        backward(mean_all(y, t) if y.size > 1 else y, t)
        assert a.grad.shape == a.shape

    def test_propagate_keeps_its_input_state_only(self):
        # with the operator requiring a gradient and w not, the rule keeps
        # the state it read, which the operator's gradient reads, and no
        # state-sized array of its own (a w that requires one keeps a @ h)
        n, batch, d = 30, 16, 32
        t = Tape()
        leaf = Tensor(rand(n, batch, d), requires_grad=True)
        x = axpy(leaf, leaf, 1.0, t)
        a = Tensor(rand(n, n), requires_grad=True)
        w, bias = Tensor(rand(d, d)), Tensor(rand(d), requires_grad=True)
        arr = x.data
        tracemalloc.start()
        try:
            y = propagate(a, x, w, bias, t)
            kept = tracemalloc.get_traced_memory()[0] - y.data.nbytes
        finally:
            tracemalloc.stop()
        assert kept < arr.nbytes / 2, kept
        del x
        assert sys.getrefcount(arr) == 3   # `arr`, the call's argument, the rule
        backward(mean_all(y, t), t)
        assert sys.getrefcount(arr) == 2
        assert leaf.grad.shape == leaf.shape and a.grad.shape == a.shape

    def test_propagate_rule_holds_two_states(self):
        # the rule makes g w^T and writes a^T (g w^T) over g, which becomes
        # h's gradient: backward never holds a third state-sized array
        n, batch, d = 30, 16, 32
        a = Tensor(rand(n, n), requires_grad=True)
        h = Tensor(rand(n, batch, d), requires_grad=True)
        w, bias = Tensor(rand(d, d), requires_grad=True), Tensor(rand(d), requires_grad=True)
        t = Tape()
        loss = mean_all(propagate(a, h, w, bias, t), t)
        tracemalloc.start()
        try:
            backward(loss, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = h.data.nbytes
        assert 2 * state < peak < 2.5 * state

    def test_shared_gradient_not_aliased(self):
        # add's VJPs hand one array to both inputs; b's slot then gains more,
        # which must not reach a's gradient
        t = Tape()
        a = Tensor(rand(3), requires_grad=True)
        x = Tensor(rand(3), requires_grad=True)
        b = sigmoid(x, t)
        c = axpy(b, b, 2.0, t)
        s = add(a, b, t)
        backward(add(mean_all(s, t), mean_all(c, t), t), t)
        assert np.array_equal(a.grad, np.full(3, 1.0 / 3.0))
        assert np.allclose(x.grad, 4.0 / 3.0 * b.data * (1.0 - b.data), rtol=1e-15)

    def test_fanout_accumulates(self):
        # y = mean(p + p) with p = a + a * 3, so dy/da = 8/3
        t = Tape()
        a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        p = axpy(a, a, 3.0, t)
        s = add(p, p, t)
        backward(mean_all(s, t), t)
        assert np.array_equal(a.grad, np.full(3, 8.0 / 3.0))

    def test_add_gives_each_leaf_its_own_gradient(self):
        # add hands its gradient to a and a copy to b: scaling one in place,
        # as clipping does, must leave the other alone
        t = Tape()
        a = Tensor(rand(3), requires_grad=True)
        b = Tensor(rand(3), requires_grad=True)
        backward(mean_all(add(a, b, t), t), t)
        assert not np.shares_memory(a.grad, b.grad)
        a.grad *= 2.0
        assert np.array_equal(b.grad, np.full(3, 1.0 / 3.0))

    def test_concat_gradients_own_their_data(self):
        t = Tape()
        a = Tensor(rand(2, 3), requires_grad=True)
        b = Tensor(rand(2, 4), requires_grad=True)
        backward(mean_all(concat_channels(a, b, t), t), t)
        assert a.grad.flags.owndata and b.grad.flags.owndata
        assert not np.shares_memory(a.grad, b.grad)

    def test_one_input_on_two_routes_of_a_rule(self):
        # base and m are one tensor: the rule's gradient must not become x's
        # buffer, which m's route adds into before h's route reads dz
        t = Tape()
        x = Tensor(rand(4, 3), requires_grad=True)
        h = Tensor(rand(4, 2), requires_grad=True)
        w, b = Tensor(rand(2, 3)), Tensor(rand(3))
        backward(mean_all(gated_jump(x, x, h, w, b, t), t), t)
        g, j = np.full((4, 3), 1.0 / 12.0), np.tanh(h.data @ w.data + b.data)
        assert np.array_equal(x.grad, g + g * j)
        assert np.array_equal(h.grad, ((g * x.data) * (1.0 - j * j)) @ w.data.T)

    def test_abs_diff_of_one_input_is_zero(self):
        # a's route hands g * sign(d) on whole; b's route must read it before
        # it becomes x's buffer and is added into
        t = Tape()
        x = Tensor(rand(2, 3), requires_grad=True)
        backward(mean_all(abs_diff(x, x, t), t), t)
        assert np.array_equal(x.grad, np.zeros((2, 3)))


class TestForwardOracles:
    def test_gram(self):
        e = rand(5, 3)
        assert np.array_equal(gram(Tensor(e)).data, e @ e.T.copy())

    def test_gram_shape_errors(self):
        for shape in ((3,), (2, 3, 4)):
            with pytest.raises(DimensionError, match="gram"):
                gram(Tensor(rand(*shape)))
            with pytest.raises(DimensionError, match="row_normalize"):
                row_normalize(Tensor(rand(*shape)))

    def test_elementwise(self):
        a, b, c = rand(2, 3), rand(2, 3), rand(2, 3)
        assert np.array_equal(add(Tensor(a), Tensor(b)).data, a + b)
        assert np.array_equal(axpy(Tensor(a), Tensor(b), 2.5).data, a + b * 2.5)
        assert np.array_equal(abs_diff(Tensor(a), Tensor(b)).data, np.abs(a - b))
        assert abs_diff(Tensor(1.0), Tensor(3.5)).item() == 2.5   # 0-d operands
        w, bias = rand(3, 3), rand(3)
        assert np.array_equal(
            gated_jump(Tensor(a), Tensor(b), Tensor(c), Tensor(w), Tensor(bias)).data,
            a + b * np.tanh(c @ w + bias))

    def test_row_normalize(self):
        # each row divided by its sum; the all-zero row is uniform over its
        # 4 columns
        s = np.array([[1.0, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 2.0, 2.0]])
        out = row_normalize(Tensor(s)).data
        assert np.array_equal(out, [[0.25, 0.0, 0.75, 0.0], [0.25] * 4, [0.25] * 4])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionError):
            add(Tensor(rand(2, 3)), Tensor(rand(3, 2)))
        with pytest.raises(DimensionError):
            axpy(Tensor(rand(2, 3)), Tensor(rand(3, 2)), 0.5)
        with pytest.raises(DimensionError):
            abs_diff(Tensor(rand(2, 3)), Tensor(rand(3, 2)))
        for shapes in (((2, 3), (3, 2), (2, 4), (4, 3), (3,)),   # base vs gate
                       ((2, 3), (2, 3), (2, 4), (3, 3), (3,)),   # h vs w
                       ((2, 3), (2, 3), (2, 4), (4, 3), (4,)),   # bias vs w
                       ((2, 3), (2, 3), (3, 4), (4, 3), (3,)),   # h W vs gate
                       ((2, 3), (2, 3), (2, 4), (4,), (3,))):    # w not 2-D
            with pytest.raises(DimensionError, match="^gated_jump"):
                gated_jump(*(Tensor(rand(*shape)) for shape in shapes))

    def test_activations(self):
        x = rand(5)
        assert np.array_equal(relu(Tensor(x)).data, np.maximum(x, 0.0))
        assert np.allclose(sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)),
                           rtol=0, atol=1e-15)

    def test_closed_form_anchors(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5
        assert sigmoid(Tensor(0.5)).item() == 0.6224593312018546
        assert gated_jump(Tensor([0.0]), Tensor([1.0]), Tensor([10.0]), Tensor([[2.0]]),
                          Tensor([0.0])).item() == 1.0

    def test_sigmoid_extreme_inputs_stable(self):
        out = sigmoid(Tensor([-1000.0, -50.0, 0.0, 50.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0

    @pytest.mark.parametrize("kind", ["nonnegative", "mixed"])
    def test_sigmoid_one_exp_matches_split(self, kind, monkeypatch):
        # the one-exp formula for inputs without a negative entry must equal
        # the sign split bitwise, whichever formula runs
        def split(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        real_exp = np.exp
        exp_sizes = []

        def counting_exp(v, **kwargs):
            exp_sizes.append(v.size)
            return real_exp(v, **kwargs)

        rng = np.random.default_rng(31)
        edges = np.array([0.0, -0.0, 5e-324, 1e-300, 0.5, 39.9, 40.0, 41.0, 745.0, 1e308])
        for shape in ((1, 20, 40), (32, 300, 40)):
            x = rng.standard_normal(shape) * 20.0
            if kind == "nonnegative":
                x = np.abs(x)
                x.flat[:edges.size] = edges
            else:
                x.flat[:2 * edges.size] = np.concatenate([edges, -edges])
            expected = split(x)
            exp_sizes.clear()
            with monkeypatch.context() as m:
                m.setattr(np, "exp", counting_exp)
                out = sigmoid(Tensor._wrap(x)).data
            assert np.array_equal(out, expected)
            # nothing negative: one exp over the whole input; else the split's two
            assert len(exp_sizes) == (1 if kind == "nonnegative" else 2)
            assert sum(exp_sizes) == x.size

    def test_structural(self):
        a = rand(2, 3, 4)
        b = rand(2, 3, 5)
        assert np.array_equal(concat_channels(Tensor(a), Tensor(b)).data,
                              np.concatenate([a, b], axis=-1))
        e = rand(3, 4)
        assert np.array_equal(expand_batch(Tensor(e), 5).data,
                              np.broadcast_to(e[:, None], (3, 5, 4)))

    def test_structural_errors(self):
        with pytest.raises(DimensionError):
            concat_channels(Tensor(rand(2, 3)), Tensor(rand(3, 3)))
        with pytest.raises(ContractError):
            expand_batch(Tensor(rand(2)), 0)
        with pytest.raises(DimensionError):
            expand_batch(Tensor(1.0), 2)

    def test_swap_leading_is_a_view(self):
        x = Tensor(rand(4, 3, 2))
        y = swap_leading(x)
        assert y.shape == (3, 4, 2) and np.shares_memory(y.data, x.data)
        assert np.array_equal(y.data, x.data.transpose(1, 0, 2))
        assert not y.requires_grad
        with pytest.raises(DimensionError):
            swap_leading(Tensor(rand(3)))

    def test_propagate_matches_per_batch_loop(self):
        # node-major [N,B,d] with B != N, mapped to m != d channels
        a, h, w, bias = rand(5, 5), rand(5, 3, 4), rand(4, 2), rand(2)
        expected = np.stack([np.dot(a, h[:, b]) @ w + bias for b in range(3)], axis=1)
        out = propagate(Tensor(a), Tensor(h), Tensor(w), Tensor(bias)).data
        assert out.shape == (5, 3, 2)
        assert np.array_equal(out, expected)

    def test_affine_matches_per_batch_loop(self):
        h, w, bias = rand(3, 5, 4), rand(4, 2), rand(2)
        for b_arg, b_val in ((None, 0.0), (Tensor(bias), bias)):
            expected = np.stack([h[b] @ w + b_val for b in range(3)])
            out = affine(Tensor(h), Tensor(w), b_arg).data
            assert out.shape == (3, 5, 2)
            assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_graph_op_shape_errors(self):
        w, bias = Tensor(rand(3, 2)), Tensor(rand(2))
        with pytest.raises(DimensionError, match=r"h\[N,B,d\]"):
            propagate(Tensor(rand(4, 4)), Tensor(rand(4, 3)), w, bias)      # h not [N,B,d]
        with pytest.raises(DimensionError, match=r"h\[N,B,d\]"):
            propagate(Tensor(rand(4, 5)), Tensor(rand(4, 2, 3)), w, bias)   # a not square
        with pytest.raises(DimensionError, match=r"h\[N,B,d\]"):
            propagate(Tensor(rand(5, 5)), Tensor(rand(4, 2, 3)), w, bias)   # node count
        with pytest.raises(DimensionError, match=r"h\[N,B,d\]"):
            propagate(Tensor(rand(4, 4)), Tensor(rand(2, 4, 3)), w, bias)   # batch-major h
        a, h = Tensor(rand(4, 4)), Tensor(rand(4, 2, 3))
        with pytest.raises(DimensionError, match="^propagate: cannot map"):
            propagate(a, h, Tensor(rand(2, 2)), bias)                       # inner dims
        with pytest.raises(DimensionError, match="^propagate: cannot map"):
            propagate(a, h, Tensor(rand(3)), bias)                          # w not 2-D
        with pytest.raises(DimensionError, match="^propagate: bias"):
            propagate(a, h, w, Tensor(rand(3)))                             # bias width
        with pytest.raises(DimensionError, match="^propagate: bias"):
            propagate(a, h, w, Tensor(rand(1, 2)))                          # bias not 1-D
        with pytest.raises(DimensionError):
            affine(Tensor(rand(2, 4, 3)), Tensor(rand(4, 2)))      # inner dims
        with pytest.raises(DimensionError):
            affine(Tensor(rand(2, 4, 3)), Tensor(rand(3)))         # w not 2-D
        with pytest.raises(DimensionError):
            affine(Tensor(rand(2, 4, 3)), Tensor(rand(3, 2)), Tensor(rand(3)))

    def test_reductions(self):
        a = rand(3, 4)
        assert mean_all(Tensor(a)).item() == pytest.approx(a.mean(), rel=1e-15)

    def test_mean_abs_error_worked_example(self):
        pred = Tensor([1.0, 3.0])
        target = Tensor([0.0, 2.0])
        assert mean_abs_error(pred, target).item() == 1.0

    def test_overflow_raises(self):
        big = Tensor(np.full((2, 2), 1e200))
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="^gram"):
            gram(big)

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("op", ["axpy", "abs_diff", "gated_jump"])
    def test_fused_overflow_names_the_op(self, op, taped):
        # each operand is finite; only the fused result overflows, and each
        # exit, with a tape and without, checks it
        def leaf(arr):
            return Tensor(arr, requires_grad=taped)

        t = Tape() if taped else None
        big, low = leaf(np.full((1, 3), 1e308)), leaf(np.full((1, 3), -1e308))
        call = {"axpy": lambda: axpy(big, big, 2.0, t),
                "abs_diff": lambda: abs_diff(big, low, t),
                "gated_jump": lambda: gated_jump(big, big, leaf(np.full((1, 3), 5.0)),
                                                 leaf(np.eye(3)), leaf(np.zeros(3)), t)}[op]
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match=f"^{op} produced non-finite"):
            call()

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("w_row", [1.0, 0.0])
    def test_propagate_overflow_names_the_op(self, w_row, taped):
        # A h overflows in its first channel, and the output is the one
        # check: w's first row carries the infinity on, and a zero row meets
        # it as inf * 0, which is NaN
        h = Tensor(np.array([[[1e308, 1.0]], [[1e308, 1.0]]]), requires_grad=taped)
        w = Tensor([[w_row, w_row], [0.0, 1.0]], requires_grad=taped)
        args = (Tensor(np.full((2, 2), 1.5)), h, w, Tensor(np.zeros(2)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="^propagate produced non-finite"):
            propagate(*args, Tape() if taped else None)

    @pytest.mark.parametrize("taped", [False, True])
    def test_propagate_stage_point_overflow_names_it(self, taped):
        # k is finite and only the stage point h + c * k overflows; the
        # stage update's axpy checks it on both exits, before any field
        # evaluation reads it
        t = Tape() if taped else None
        a, h, w, b = (Tensor(x, requires_grad=taped)
                      for x in (np.eye(2), np.full((2, 1, 2), 3.0), np.eye(2), np.zeros(2)))
        k = propagate(a, h, w, b, t)
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="^axpy produced non-finite"):
            propagate(a, axpy(h, k, 1e308, t), w, b, t)

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("w, b", [(2.0, 0.0), (1.0, 1e308)])
    def test_gated_jump_rejects_nonfinite_preactivation(self, w, b, taped):
        # h W + b overflows, though its tanh would round to 1 and the result
        # stay finite; the two-op chain raised at its affine map
        h = Tensor([[1e308]], requires_grad=taped)
        args = (Tensor([[0.0]]), Tensor([[1.0]]), h, Tensor([[w]]), Tensor([b]))
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="^gated_jump pre-activation produced"):
            gated_jump(*args, Tape() if taped else None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finite_check_rejects(self, bad):
        arr = rand(2, 3)
        assert _finite(arr, "probe") is arr
        arr[1, 2] = bad
        with pytest.raises(NumericError, match="probe produced non-finite"):
            _finite(arr, "probe")


class TestGradientOracles:
    """Each op's backward rule against finite differences."""

    def test_gram(self):
        e = Tensor(rand(4, 3), requires_grad=True)
        grad_matches(lambda t: mean_all(sigmoid(gram(e, t), t), t), [e])

    def test_binary_ops(self):
        a = Tensor(rand(3, 3), requires_grad=True)
        b = Tensor(np.abs(rand(3, 3)) + 0.5, requires_grad=True)
        grad_matches(lambda t: mean_all(add(a, b, t), t), [a, b])
        grad_matches(lambda t: mean_all(axpy(a, b, -0.75, t), t), [a, b])
        grad_matches(lambda t: mean_all(abs_diff(a, axpy(a, a, 2.0, t), t), t), [a])

    def test_scalar_forms(self):
        a = Tensor(rand(4), requires_grad=True)
        grad_matches(lambda t: mean_all(axpy(a, a, -2.5, t), t), [a])

    def test_activations(self):
        # keep entries away from the relu kink where the subgradient is taken
        a = Tensor(rand(3, 3) + 3.0, requires_grad=True)
        b = Tensor(rand(3, 3) - 3.0, requires_grad=True)
        grad_matches(lambda t: mean_all(sigmoid(a, t), t), [a])
        grad_matches(lambda t: mean_all(relu(a, t), t), [a])
        grad_matches(lambda t: mean_all(relu(b, t), t), [b])

    def test_abs_diff_zero_gradient_where_equal(self):
        # subgradient 0 at the kink, for both operands, exactly
        a = Tensor([1.0, 2.0, -3.0, 4.0], requires_grad=True)
        b = Tensor([1.0, 0.5, -3.0, 5.0], requires_grad=True)
        t = Tape()
        backward(mean_all(abs_diff(a, b, t), t), t)
        assert np.array_equal(a.grad, [0.0, 0.25, 0.0, -0.25])
        assert np.array_equal(b.grad, [0.0, -0.25, 0.0, 0.25])

    def test_sigmoid_slope_at_zero(self):
        t = Tape()
        x = Tensor(0.0, requires_grad=True)
        backward(sigmoid(x, t), t)
        assert float(x.grad) == 0.25

    def test_structural(self):
        a = Tensor(rand(2, 3, 4), requires_grad=True)
        b = Tensor(rand(2, 3, 2), requires_grad=True)
        e = Tensor(rand(3, 2), requires_grad=True)
        grad_matches(lambda t: mean_all(sigmoid(concat_channels(a, b, t), t), t), [a, b])
        grad_matches(lambda t: mean_all(sigmoid(expand_batch(e, 3, t), t), t), [e])

    def test_propagate(self):
        # a square channel map, as a field has: the state route may write
        # over the rule's gradient
        a = Tensor(rand(4, 4), requires_grad=True)
        h = Tensor(rand(4, 3, 2), requires_grad=True)
        w = Tensor(rand(2, 2), requires_grad=True)
        bias = Tensor(rand(2), requires_grad=True)
        grad_matches(lambda t: mean_all(sigmoid(propagate(a, h, w, bias, t), t), t),
                     [a, h, w, bias])

    @pytest.mark.parametrize("frozen", [None, 0, 1, 2, 3])
    def test_propagate_stage(self, frozen):
        # f(h + c f(h)), the midpoint evaluation, in a, h, w and b; a frozen
        # h leaves the point's gradient to k's route, and a frozen w or
        # operator leaves the rules less to keep
        tensors = [Tensor(x, requires_grad=i != frozen)
                   for i, x in enumerate((rand(4, 4), rand(4, 3, 2), rand(2, 2), rand(2)))]

        def build(t):
            a, h, w, bias = tensors
            k = propagate(a, h, w, bias, t)
            return mean_all(sigmoid(propagate(a, axpy(h, k, 0.35, t), w, bias, t), t), t)

        grad_matches(build, [x for i, x in enumerate(tensors) if i != frozen])

    def test_propagate_learnable_operator(self):
        # the adaptive operator is itself built on the tape from embeddings
        e = Tensor(rand(4, 2), requires_grad=True)
        h = Tensor(rand(4, 3, 2), requires_grad=True)
        w, bias = Tensor(rand(2, 2)), Tensor(rand(2))

        def build(t):
            a = row_normalize(relu(gram(e, t), t), t)
            return mean_all(sigmoid(propagate(a, h, w, bias, t), t), t)

        grad_matches(build, [e, h])

    def test_affine(self):
        h = Tensor(rand(2, 3, 4), requires_grad=True)
        w = Tensor(rand(4, 5), requires_grad=True)
        bias = Tensor(rand(5), requires_grad=True)
        grad_matches(lambda t: mean_all(sigmoid(affine(h, w, bias, t), t), t), [h, w, bias])
        grad_matches(lambda t: mean_all(sigmoid(affine(h, w, tape=t), t), t), [h, w])

    def test_reductions(self):
        a = Tensor(rand(3, 4), requires_grad=True)
        y = Tensor(rand(3, 4))
        grad_matches(lambda t: mean_all(sigmoid(a, t), t), [a])
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

    def test_swap_leading(self):
        # a batch-major view of a node-major affine output, as `forward`'s
        # forecast: its gradient reaches the affine rule in node-major rows
        h = Tensor(rand(4, 3, 2), requires_grad=True)
        w = Tensor(rand(2, 5), requires_grad=True)
        bias = Tensor(rand(5), requires_grad=True)
        y = Tensor(rand(3, 4, 5))

        def build(t):
            out = swap_leading(affine(h, w, bias, t))
            return mean_abs_error(sigmoid(out, t), y, t)

        t = Tape()
        build(t)
        assert Counter(name for name, _ in t.nodes) == {"affine": 1, "sigmoid": 1,
                                                        "mean_abs_error": 1}
        grad_matches(build, [h, w, bias])

    def test_swap_leading_fans_out(self):
        # one node-major tensor read directly and through its swapped view
        h = Tensor(rand(3, 2, 2), requires_grad=True)

        def build(t):
            x = sigmoid(h, t)
            both = axpy(swap_leading(sigmoid(x, t)), swap_leading(x), 2.0, t)
            return add(mean_all(sigmoid(both, t), t), mean_all(relu(x, t), t), t)

        grad_matches(build, [h])

    def test_detached_input_gets_no_grad(self):
        # an op run without a tape gives a constant, cut off from `a`
        t = Tape()
        a = Tensor(rand(3), requires_grad=True)
        d = axpy(a, a, 0.0)
        assert not d.requires_grad and np.array_equal(d.data, a.data)
        backward(mean_all(axpy(d, d, 2.0, t), t), t)
        assert a.grad is None


def _jump_chain(base, m, h, w, b, g):
    """The two-op chain the jump replaced, `affine` then the gated tanh, in
    numpy: the forward value and the gradient of each of the five inputs
    for an output gradient g, each in the chain's order of operations."""
    k, n = w.shape
    flat = h.reshape(-1, k)
    z = flat @ w
    z += b
    j = np.tanh(z.reshape(m.shape))
    out = m * j
    out += base
    gx, jj = g * m, j * j
    np.subtract(1.0, jj, out=jj)
    gx *= jj
    dz = gx.reshape(-1, n)
    return out, {"base": g, "m": g * j, "h": (dz @ w.T).reshape(h.shape),
                 "w": flat.T @ dz, "b": dz.sum(axis=0)}


class TestSharedRules:
    """Rules that compute one value from their gradient for several routes."""

    def test_gated_jump_bitwise_the_chain(self):
        # a propagate above the jump gives it an output gradient that is not
        # constant; every gradient is compared with the chain's, bit for bit
        rng = np.random.default_rng(21)
        arrays = {"base": rng.standard_normal((5, 4, 6)),
                  "m": rng.uniform(0.5, 1.0, (5, 4, 6)),
                  "h": rng.standard_normal((5, 4, 6)),
                  "w": rng.standard_normal((6, 6)) * 0.4,
                  "b": rng.standard_normal(6) * 0.1}
        mix = rng.standard_normal((5, 5))
        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        t = Tape()
        out = gated_jump(*tensors.values(), t)
        backward(mean_all(propagate(Tensor(mix), out, Tensor(np.eye(6)),
                                    Tensor(np.zeros(6)), t), t), t)
        g = (mix.T @ np.full((5, 24), 1.0 / 120.0)).reshape(5, 4, 6)
        ref_out, ref_grads = _jump_chain(*arrays.values(), g)
        assert np.array_equal(out.data, ref_out)
        for name, tensor in tensors.items():
            assert np.array_equal(tensor.grad, ref_grads[name]), name

    @pytest.mark.parametrize("n", [5, 130])
    def test_propagate_stage_bitwise_the_chain(self, n):
        # the midpoint evaluation, axpy and then propagate, as one
        # checkpoint node against the same chain recorded directly, on both
        # sides of the graph product's row switch: the value and every
        # gradient, bit for bit; k, made outside the checkpoint, reaches the
        # loss by a second path too, as k1 reaches it through h_euler
        rng = np.random.default_rng(22)
        arrays = (rng.standard_normal((n, n)) / n, rng.standard_normal((n, 3, 4)),
                  rng.standard_normal((4, 4)) * 0.5, rng.standard_normal(4))

        def run(checkpointed):
            a, h, w, b = tensors = [Tensor(x, requires_grad=True) for x in arrays]
            t = Tape()
            k = propagate(a, h, w, b, t)

            def stage(s):
                return (propagate(a, axpy(h, k, 0.125, s), w, b, s),)

            out = (checkpoint(stage, t) if checkpointed else stage(t))[0]
            backward(add(mean_all(sigmoid(out, t), t), mean_all(sigmoid(k, t), t), t), t)
            return [out.data] + [x.grad for x in tensors]

        for got, want in zip(run(True), run(False), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [5, 130])
    @pytest.mark.parametrize("operator_grad", [False, True])
    def test_remade_gate_bitwise_the_kept_one(self, n, operator_grad):
        # one lte step as a checkpoint node, whose rule makes the gate again
        # in backward, against the same step recorded directly, whose jump
        # keeps its gate: the value and every gradient, bit for bit, on
        # both sides of the graph product's row switch
        rng = np.random.default_rng(23)
        arrays = (rng.standard_normal((n, n)) / n, rng.standard_normal((n, 3, 4)),
                  rng.standard_normal((4, 4)) * 0.5, rng.standard_normal(4),
                  rng.standard_normal((4, 4)) * 0.5, rng.standard_normal(4))
        dt = 0.25

        def run(remade):
            a, h, w, b, wg, bg = tensors = [Tensor(x, requires_grad=True) for x in arrays]
            a.requires_grad = operator_grad
            t = Tape()

            def step(s):
                k = propagate(a, h, w, b, s)
                h_euler = axpy(h, k, dt, s)
                h_rk2 = axpy(h, propagate(a, axpy(h, k, dt / 2.0, s), w, b, s), dt, s)
                m = sigmoid(abs_diff(h_rk2, h_euler))
                return (gated_jump(h_rk2, m, h, wg, bg, s),)

            out = (checkpoint(step, t) if remade else step(t))[0]
            assert [name for name, _ in t.nodes] == (
                ["checkpoint"] if remade
                else ["propagate", "axpy", "axpy", "propagate", "axpy", "gated_jump"])
            backward(mean_all(sigmoid(out, t), t), t)
            return [out.data] + [x.grad for x in tensors]

        for got, want in zip(run(True), run(False), strict=True):
            assert (got is None and want is None) or np.array_equal(got, want)

    @pytest.mark.parametrize("op, counted, n_live", [
        ("gated_jump", "tanh", 5), ("gated_jump", "tanh", 3),
        ("abs_diff", "sign", 2)])
    def test_one_shared_value_per_rule(self, op, counted, n_live, monkeypatch):
        # backward computes the tanh, or g * sign(d), once per rule, however
        # many routes read it
        tensors, _ = _oracle_case(op)
        for tensor in tensors[:len(tensors) - n_live]:
            tensor.requires_grad = False
        t = Tape()
        loss = mean_all(ORACLE_TABLE[op][0](t, *tensors), t)
        calls = []
        real = getattr(np, counted)
        monkeypatch.setattr(np, counted, lambda *a, **k: calls.append(1) or real(*a, **k))
        backward(loss, t)
        assert len(calls) == 1
        assert all(tensor.grad is not None for tensor in tensors[-n_live:])


def _away_from_zero(rng, *shape):
    # entries at least 0.5 from the relu/abs kinks, with both signs
    r = rng.standard_normal(shape)
    return np.sign(r) * (np.abs(r) + 0.5)


def _mae_pair(rng):
    pred = rng.standard_normal((3, 4))
    return pred, pred + _away_from_zero(rng, 3, 4)


def _normal(*shapes):
    return lambda rng: tuple(rng.standard_normal(s) for s in shapes)


def _relu_zeroed(rng):
    # scores as relu leaves them: exact zeros, and a positive entry per row
    s = _away_from_zero(rng, 4, 4)
    s[:, 0] = np.abs(s[:, 0])
    return (np.maximum(s, 0.0),)


def _checkpointed_midpoint(t, a, h, w, b):
    """The midpoint evaluation f(h + f(h) / 4) as one checkpoint node."""
    def run(s):
        return (propagate(a, axpy(h, propagate(a, h, w, b, s), 0.25, s), w, b, s),)

    return checkpoint(run, t)[0]


# Every tape op: (call on tensor inputs under tape t, seeded input arrays).
ORACLE_TABLE = {
    "gram": (lambda t, e: gram(e, t), _normal((4, 3))),
    "row_normalize": (lambda t, s: row_normalize(s, t), _relu_zeroed),
    "propagate": (lambda t, a, h, w, b: propagate(a, h, w, b, t),
                  _normal((4, 4), (4, 3, 2), (2, 3), (3,))),
    "affine": (lambda t, h, w, b: affine(h, w, b, t),
               lambda rng: (rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5)),
                            rng.standard_normal(5))),
    "add": (lambda t, a, b: add(a, b, t),
            lambda rng: (rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))),
    "axpy": (lambda t, h, k: axpy(h, k, 0.25, t), _normal((3, 3), (3, 3))),
    "abs_diff": (lambda t, a, b: abs_diff(a, b, t), _mae_pair),
    "gated_jump": (lambda t, base, m, h, w, b: gated_jump(base, m, h, w, b, t),
                   _normal((2, 3, 4), (2, 3, 4), (2, 3, 5), (5, 4), (4,))),
    "relu": (lambda t, a: relu(a, t), lambda rng: (_away_from_zero(rng, 3, 3),)),
    "sigmoid": (lambda t, a: sigmoid(a, t), lambda rng: (rng.standard_normal((3, 3)),)),
    "concat_channels": (lambda t, a, b: concat_channels(a, b, t),
                        lambda rng: (rng.standard_normal((2, 3, 4)),
                                     rng.standard_normal((2, 3, 2)))),
    "expand_batch": (lambda t, a: expand_batch(a, 3, t),
                     lambda rng: (rng.standard_normal((3, 2)),)),
    "mean_all": (lambda t, a: mean_all(a, t), lambda rng: (rng.standard_normal((3, 4)),)),
    "mean_abs_error": (lambda t, pred, target: mean_abs_error(pred, target, t), _mae_pair),
    "checkpoint": (_checkpointed_midpoint, _normal((4, 4), (4, 3, 2), (2, 2), (2,))),
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
    return tensors, lambda t: mean_all(sigmoid(call(t, *tensors), t), t)


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

    @pytest.mark.parametrize("name", ORACLE_TABLE)
    def test_both_exits_give_the_same_value(self, name):
        # the tape-free exit returns bitwise the value the taped one records
        call, inputs = ORACLE_TABLE[name]
        arrays = inputs(np.random.default_rng(7))
        free = call(None, *[Tensor(x) for x in arrays])
        t = Tape()
        taped = call(t, *[Tensor(x, requires_grad=True) for x in arrays])
        assert len(t) == 1 and not free.requires_grad
        assert np.array_equal(free.data, taped.data)

    def test_unused_output_leaves_inputs_untouched(self):
        t = Tape()
        a = Tensor(rand(2, 3), requires_grad=True)
        b = Tensor(rand(2, 3), requires_grad=True)
        abs_diff(a, b, t)                     # recorded, never reaches the loss
        sigmoid(b, t)
        loss = mean_all(axpy(a, a, 1.0, t), t)
        assert len(t) == 4
        backward(loss, t)
        assert np.array_equal(a.grad, np.full((2, 3), 1.0 / 6.0 * 2.0))
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
def test_gram_grad_property(m, k, seed):
    rng = np.random.default_rng(seed)
    e = Tensor(rng.standard_normal((m, k)), requires_grad=True)
    t = Tape()
    backward(mean_all(gram(e, t), t), t)
    # d mean(E E^T) / dE = (J + J^T) E / m^2 = 2 J E / m^2, J all ones
    expected = 2.0 * np.ones((m, m)) @ e.data / (m * m)
    assert np.allclose(e.grad, expected, atol=1e-12)


def _filled(rng, shape, fill):
    if fill == "normal":
        arr = rng.standard_normal(shape)
    elif fill == "subnormal":
        arr = rng.integers(-2 ** 52 + 1, 2 ** 52, size=shape) * 5e-324
    else:   # huge: |x| from 1e154, where the sum of squares overflows, to 1e308
        arr = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(154, 308, size=shape)
    return np.asarray(arr, dtype=np.float64)


class TestAllFinite:
    """`all_finite` must agree with `np.isfinite(a).all()` and never warn."""

    @given(shape=st.sampled_from([(), (0,), (3, 0, 2), (20, 1, 40), (300, 32, 40)]),
           fill=st.sampled_from(["normal", "subnormal", "huge"]),
           bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
           where=st.sampled_from(["first", "last", "random"]),
           view=st.sampled_from(["plain", "transposed", "strided"]),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_isfinite(self, shape, fill, bad, where, view, seed):
        rng = np.random.default_rng(seed)
        arr = _filled(rng, shape, fill)
        if bad is not None and arr.size:
            index = {"first": 0, "last": arr.size - 1,
                     "random": int(rng.integers(arr.size))}[where]
            arr.flat[index] = bad
        if view == "transposed":
            arr = arr.T
        elif view == "strided" and arr.ndim:
            arr = arr[..., ::2]
        assert all_finite(arr) is bool(np.isfinite(arr).all())

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                   max_side=6)))
    @settings(max_examples=200, deadline=None)
    def test_matches_isfinite_on_any_floats(self, arr):
        # hypothesis' float64 elements include NaN, +-inf, subnormals and 1e308
        expected = bool(np.isfinite(arr).all())
        assert all_finite(arr) is expected
        assert all_finite(arr.T) is expected

    @pytest.mark.parametrize("mode", ["ignore", "warn", "raise"])
    def test_huge_finite_values_are_silent(self, mode):
        # a sum of squares that overflows must not report it: under the CLI's
        # errstate(over="raise") it would turn valid input into an error
        big = np.full((4, 5), 1e200)
        with warnings.catch_warnings(), np.errstate(all=mode):
            warnings.simplefilter("error")
            t = Tensor(np.full(3, 1e308))
            assert _finite(big, "probe") is big
        assert t.data.tolist() == [1e308] * 3

    def test_sigmoid_of_zero_size_array(self):
        for shape in ((0,), (2, 0, 3)):
            assert _sigmoid_values(np.empty(shape)).shape == shape
            assert sigmoid(Tensor(np.empty(shape))).shape == shape
