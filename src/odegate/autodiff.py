"""Dense float64 tensors with a record/replay reverse-mode gradient tape.

A `Tensor` wraps a numpy array plus an optional gradient buffer, and every
differentiable operation is a module-level function that takes an explicit
`tape`.  Reverse mode needs one thing from each op: for every input, its
vector-Jacobian product (VJP), the map from the gradient of the op's output
to that input's share of it.  An op computes its forward array and hands it
to `_out` with one VJP per input; nothing else about the backward pass is
written per op.

`_out` is the only place that records a backward rule: given a tape and an
input that requires gradients, it appends one rule that accumulates `vjp(g)`
into each such input once the output has a gradient g.  Replaying the rules
in reverse recording order carries gradients from a scalar loss to every
parameter; recording order is execution order, so the reverse replay is a
valid topological sweep, and fan-out sums because gradients accumulate.

Broadcasting is restricted to scalar-with-tensor.  Anything richer is its own
named op with its own VJPs: `propagate` applies a graph operator over the
node axis of a batched state, `affine` applies a shared channel map (plus
bias), and `expand_batch` replicates along a new batch axis.  That keeps
every VJP auditable against the finite-difference oracle at the bottom of
this module.

Every op validates that its output is finite; NaN/Inf raise `NumericError`
immediately instead of propagating.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

Scalar = int | float


class Tensor:
    """Immutable dense float64 array with an optional gradient buffer.

    Treat `.data` as read-only once constructed; the only sanctioned mutation
    is the optimizer's in-place parameter update between passes.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor constructed from non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        # Internal fast path for op outputs; `arr` is already validated float64.
        t = object.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        t.grad = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Build a tensor from array-like data (always copies into float64)."""
    return Tensor(data, requires_grad=requires_grad)


def detach(t: Tensor) -> Tensor:
    """A view of `t` cut off from gradient tracking."""
    return Tensor._wrap(t.data, False)


class Tape:
    """Ordered record of backward rules for one forward pass (single-writer)."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[tuple[str, Callable[[], None]]] = []

    def record(self, name: str, backward: Callable[[], None]) -> None:
        self.nodes.append((name, backward))

    def clear(self) -> None:
        self.nodes = []

    def __len__(self) -> int:
        return len(self.nodes)


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate `.grad` for every recorded tensor reachable from `loss`.

    Gradients accumulate additively across fan-out.  The loss must be scalar
    and must have been produced under `tape`.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    loss.accumulate_grad(np.ones_like(loss.data))
    for _name, rule in reversed(tape.nodes):
        rule()


# ---------------------------------------------------------------------------
# op plumbing
# ---------------------------------------------------------------------------

def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced non-finite values")
    return arr


def _out(arr: np.ndarray, op: str, tape: Tape | None, inputs: Sequence[Tensor],
         vjps: Sequence[Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """Wrap an op result; when gradients are live, record its one backward rule.

    `vjps[i]` maps the output's gradient to the gradient of `inputs[i]`; it is
    called only for inputs that require one, and only once the output has
    received a gradient.
    """
    _finite(arr, op)
    live = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor._wrap(arr, live)
    if live:
        def rule():
            g = out.grad
            if g is None:
                return
            for t, vjp in zip(inputs, vjps):
                if t.requires_grad:
                    t.accumulate_grad(vjp(g))
        tape.record(op, rule)
    return out


def _same(g: np.ndarray) -> np.ndarray:
    return g


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: operand shapes differ, {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# arithmetic ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """2-D matrix product a[m,k] @ b[k,n]."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul: expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    return _out(a.data @ b.data, "matmul", tape, (a, b),
                (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def propagate(a: Tensor, h: Tensor, tape: Tape | None = None) -> Tensor:
    """Graph operator over the node axis of a batch, a[N,N] @ h[B,N,d]."""
    if a.data.ndim != 2 or h.data.ndim != 3:
        raise DimensionError(
            f"propagate: expects a[N,N] and h[B,N,d], got {a.shape} and {h.shape}")
    if a.shape != (h.shape[1], h.shape[1]):
        raise DimensionError(
            f"propagate: operator {a.shape} does not match {h.shape[1]} nodes")
    return _out(a.data @ h.data, "propagate", tape, (a, h),
                (lambda g: np.tensordot(g, h.data, axes=([0, 2], [0, 2])),
                 lambda g: a.data.T @ g))


def affine(h: Tensor, w: Tensor, b: Tensor | None = None,
           tape: Tape | None = None) -> Tensor:
    """Shared channel map over the leading axes, h[...,k] @ w[k,m] (+ b[m])."""
    if w.data.ndim != 2 or h.data.ndim < 1 or h.shape[-1] != w.shape[0]:
        raise DimensionError(f"affine: cannot map {h.shape} by {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise DimensionError(f"affine: bias {b.shape} does not match {w.shape}")
    k, m = w.shape
    flat = h.data.reshape(-1, k)
    out_flat = flat @ w.data
    inputs = (h, w)
    vjps = (lambda g: (g.reshape(-1, m) @ w.data.T).reshape(h.shape),
            lambda g: flat.T @ g.reshape(-1, m))
    if b is not None:
        out_flat += b.data
        inputs += (b,)
        vjps += (lambda g: g.reshape(-1, m).sum(axis=0),)
    return _out(out_flat.reshape(h.shape[:-1] + (m,)), "affine", tape, inputs, vjps)


def add(a: Tensor, b: Tensor | Scalar, tape: Tape | None = None) -> Tensor:
    if isinstance(b, (int, float)):
        return _out(a.data + float(b), "add", tape, (a,), (_same,))
    _check_same_shape(a, b, "add")
    return _out(a.data + b.data, "add", tape, (a, b), (_same, _same))


def sub(a: Tensor, b: Tensor | Scalar, tape: Tape | None = None) -> Tensor:
    if isinstance(b, (int, float)):
        return add(a, -float(b), tape)
    _check_same_shape(a, b, "sub")
    return _out(a.data - b.data, "sub", tape, (a, b), (_same, np.negative))


def hadamard(a: Tensor, b: Tensor | Scalar, tape: Tape | None = None) -> Tensor:
    """Element-wise product; a scalar second operand degenerates to `scale`."""
    if isinstance(b, (int, float)):
        return scale(a, float(b), tape)
    _check_same_shape(a, b, "hadamard")
    return _out(a.data * b.data, "hadamard", tape, (a, b),
                (lambda g: g * b.data, lambda g: g * a.data))


def scale(a: Tensor, s: Scalar, tape: Tape | None = None) -> Tensor:
    s = float(s)
    return _out(a.data * s, "scale", tape, (a,), (lambda g: g * s,))


def divide(a: Tensor, b: Tensor | Scalar, tape: Tape | None = None) -> Tensor:
    if isinstance(b, (int, float)):
        if b == 0:
            raise NumericError("divide: scalar denominator is zero")
        return scale(a, 1.0 / float(b), tape)
    _check_same_shape(a, b, "divide")
    return _out(a.data / b.data, "divide", tape, (a, b),
                (lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data)))


def absolute(a: Tensor, tape: Tape | None = None) -> Tensor:
    """|a| element-wise; the backward rule uses sign with subgradient 0 at 0."""
    return _out(np.abs(a.data), "abs", tape, (a,), (lambda g: g * np.sign(a.data),))


def tanh(a: Tensor, tape: Tape | None = None) -> Tensor:
    y = np.tanh(a.data)
    return _out(y, "tanh", tape, (a,), (lambda g: g * (1.0 - y * y),))


def relu(a: Tensor, tape: Tape | None = None) -> Tensor:
    return _out(np.maximum(a.data, 0.0), "relu", tape, (a,),
                (lambda g: g * (a.data > 0.0),))


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor, tape: Tape | None = None) -> Tensor:
    y = _sigmoid_values(a.data)
    return _out(y, "sigmoid", tape, (a,), (lambda g: g * y * (1.0 - y),))


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def transpose(a: Tensor, axes: Sequence[int], tape: Tape | None = None) -> Tensor:
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise DimensionError(f"transpose: axes {axes} are not a permutation for shape {a.shape}")
    inverse = tuple(int(i) for i in np.argsort(axes))
    return _out(a.data.transpose(axes).copy(), "transpose", tape, (a,),
                (lambda g: g.transpose(inverse),))


def concat_channels(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Concatenate along the trailing (channel) axis; leading dims must agree."""
    if a.data.ndim != b.data.ndim or a.shape[:-1] != b.shape[:-1]:
        raise DimensionError(
            f"concat_channels: leading shapes differ, {a.shape} vs {b.shape}")
    split = a.shape[-1]
    return _out(np.concatenate([a.data, b.data], axis=-1), "concat_channels", tape,
                (a, b), (lambda g: g[..., :split], lambda g: g[..., split:]))


def expand_batch(a: Tensor, batch: int, tape: Tape | None = None) -> Tensor:
    """Replicate `a` along a new leading batch axis; backward sums it out."""
    if batch < 1:
        raise ContractError(f"expand_batch: batch must be >= 1, got {batch}")
    arr = np.broadcast_to(a.data, (batch,) + a.shape).copy()
    return _out(arr, "expand_batch", tape, (a,), (lambda g: g.sum(axis=0),))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def total_sum(a: Tensor, tape: Tape | None = None) -> Tensor:
    return _out(np.array(a.data.sum()), "total_sum", tape, (a,),
                (lambda g: np.full(a.shape, float(g)),))


def mean_all(a: Tensor, tape: Tape | None = None) -> Tensor:
    inv = 1.0 / a.size
    return _out(np.array(a.data.mean()), "mean_all", tape, (a,),
                (lambda g: np.full(a.shape, float(g) * inv),))


def mean_abs_error(pred: Tensor, target: Tensor, tape: Tape | None = None) -> Tensor:
    """Scalar mean absolute deviation (1/count) * sum |pred - target|."""
    _check_same_shape(pred, target, "mean_abs_error")
    diff = pred.data - target.data
    inv = 1.0 / pred.size

    def d_pred(g):
        return float(g) * inv * np.sign(diff)

    return _out(np.array(np.abs(diff).mean()), "mean_abs_error", tape,
                (pred, target), (d_pred, lambda g: -d_pred(g)))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def _as_float(value) -> float:
    if isinstance(value, Tensor):
        return value.item()
    return float(value)


def finite_diff_gradient(f, x: Tensor, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar-valued function at `x`.

    Independent of the tape machinery on purpose: it re-evaluates `f` on
    perturbed copies of the data, so it measures the derivative of whatever
    `f` actually computes.
    """
    if eps <= 0:
        raise ContractError(f"finite_diff_gradient: eps must be positive, got {eps}")
    flat = x.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        hi = flat.copy()
        hi[i] += eps
        lo = flat.copy()
        lo[i] -= eps
        f_hi = _as_float(f(Tensor._wrap(hi.reshape(x.shape), False)))
        f_lo = _as_float(f(Tensor._wrap(lo.reshape(x.shape), False)))
        grad[i] = (f_hi - f_lo) / (2.0 * eps)
    return Tensor._wrap(grad.reshape(x.shape), False)
