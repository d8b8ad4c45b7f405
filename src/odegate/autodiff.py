"""Dense float64 tensors with a record/replay reverse-mode gradient tape.

A `Tensor` wraps a numpy array, and every differentiable operation is a
module-level function that takes an explicit `tape`.  Reverse mode needs one
thing from each op: for every input, its vector-Jacobian product (VJP), the
map from the gradient of the op's output to that input's share of it.  An op
computes its forward array first.  Without a tape it returns that array
through `_value`, which checks it and wraps it, and builds no VJP, closure or
route at all: a forecast pays for no backward rule.  With a tape it hands the
array to `_out` with one VJP per input; nothing else about the backward pass
is written per op.  A VJP closes over the arrays it reads and nothing else,
never over a `Tensor` only for its shape, so an output that no VJP reads is
freed as soon as the forward code drops it.

`_out` is the only place that records an op's backward rule, and it is
only ever called with a tape (`checkpoint`, below, records one rule for a
stretch of ops).  Given an input that requires gradients, it gives the
output a small gradient slot and appends one rule that holds that slot and,
for each such input, a route: the input's own slot and its VJP; with none,
it records nothing.  The rule and the routes hold slots, never the
output tensors.  Replaying the rules in reverse recording order carries
gradients from a scalar loss to every parameter; recording order is execution
order, so the reverse replay is a valid topological sweep, and fan-out sums
because gradients accumulate.

`backward` consumes the tape: it pops each rule as it runs it, and a rule
drops its slot's gradient once its VJPs have routed it.  Only leaves (tensors
built directly, such as parameters and inputs) keep `.grad`, and a tape is
spent after `backward`.

Gradients are handed on, not copied.  A slot owns every array it is given:
it keeps the first gradient it receives as its buffer and adds later ones
into it in place.  So each array a VJP returns must belong to no one else:
a fresh result, or the rule's own gradient, handed on whole by `_same` or
overwritten by the rule's last route (`propagate`'s state route).  A
rule hands its gradient on once; `_out` makes any further `_same` route of
the same rule, and one into a slot that the rule also reaches by another
route, return a copy.  A VJP that returns a view of its gradient, such as
`concat_channels`' slices, copies it.

A rule may compute one value from its gradient and share it across its
routes: `_out`'s `share` runs once, before the first route, and each VJP
then reads it as a second argument.  `abs_diff` computes `g * sign(d)` once
for both operands; `gated_jump` recomputes its tanh once for all five;
`propagate` makes g W^T once for its operator and its state.

`checkpoint(run, tape)` records everything `run` computes as one node that
keeps only what `run` closes over.  The forward runs `run` without a tape;
the node's rule runs it again on a fresh tape, hands each output's gradient
to the matching output of that second run and replays the fresh tape, so
every gradient reaches the real inputs in the order, and with the bits, of
the same ops recorded directly.  `dynamics.evolve` records each solver step
as one such node, which keeps the step's input state alone.

Broadcasting is restricted to scalar-with-tensor.  Anything richer is its own
named op with its own VJPs: `propagate` applies a graph operator over the
node axis of a batched state and then a shared channel map plus bias, the
field's (A h) W + b in one node; `affine` applies a shared channel map
(plus an optional bias) alone; `gated_jump` gates the tanh of one; `gram`
and `row_normalize` build the adaptive graph; and `expand_batch` replicates
along a new batch axis.
The three map ops check and compute the channel map x W + b in one helper,
`_channel_map`, and each keeps its own VJPs.  That keeps every VJP
auditable against the finite-difference oracle at the bottom of this
module.

Batched states are node-major, `[N,B,d]`: the node axis leads, so a graph
product and both its VJPs each read the state as one `[N, B*d]` matrix and
run as a single 2-D matrix product.  `swap_leading` turns such a tensor
into its batch-major view, `[B,N,d]`, without a tape node.

Every op validates that its output is finite, once, on either exit; NaN/Inf
raise `NumericError` immediately instead of propagating.  `all_finite` is
the package's one test of finiteness: one `np.vdot` of the array with
itself, whose sum of squares is finite only if every entry is.  A sum that
overflows from finite entries (|x| above about 1.34e154) falls back to the
exact `np.isfinite` test, so the answer is always exact.  `vdot`, unlike
`np.dot` and `@`, reports no floating-point status, so finite values never
warn or raise, whatever `np.errstate` is in force.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

Scalar = int | float


class _Slot:
    """Gradient buffer of one value; an op output's lives apart from its array.

    The slot takes ownership of each gradient it is given: the first becomes
    its buffer as is, and later ones are added into that buffer in place.
    """

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


class _Swapped(_Slot):
    """Gradient slot of a view with its two leading axes swapped.

    It keeps nothing: each gradient is swapped back into a fresh C-ordered
    array, which the slot of the viewed tensor then owns.
    """

    __slots__ = ("target",)

    def __init__(self, target: _Slot):
        super().__init__()
        self.target = target

    def accumulate_grad(self, g: np.ndarray) -> None:
        self.target.accumulate_grad(np.array(g.swapaxes(0, 1), order="C"))


class Tensor(_Slot):
    """Immutable dense float64 array; a leaf is its own gradient slot.

    Treat `.data` as read-only once constructed; the only sanctioned mutation
    is the optimizer's in-place parameter update between passes.  Only a leaf
    (built by the constructor) gets `.grad`; an op output routes its gradient
    through a separate slot that backward frees.
    """

    __slots__ = ("data", "requires_grad", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if not all_finite(arr):
            raise NumericError("tensor constructed from non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._slot = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, slot: _Slot | None = None) -> "Tensor":
        # Internal fast path for op outputs; `arr` is already validated float64.
        t = object.__new__(cls)
        t.data = arr
        t.requires_grad = slot is not None
        t.grad = None
        t._slot = slot
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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _slot_of(t: Tensor) -> _Slot:
    return t if t._slot is None else t._slot


def swap_leading(t: Tensor) -> Tensor:
    """The view of `t` with its two leading axes swapped, [N,B,...] <-> [B,N,...].

    It records no tape node.  The view's gradient slot hands each gradient,
    swapped back, to the slot of `t`, so a VJP of `t` always reads its
    gradient in `t`'s own layout.
    """
    if t.data.ndim < 2:
        raise DimensionError(f"swap_leading: needs two leading axes, got {t.shape}")
    slot = _Swapped(_slot_of(t)) if t.requires_grad else None
    return Tensor._wrap(t.data.swapaxes(0, 1), slot)


class Tape:
    """Ordered record of backward rules for one forward pass (single-writer).

    `backward` pops the rules as it runs them, so a tape is spent after one
    `backward`; record a new tape for the next pass.
    """

    __slots__ = ("nodes", "spent")

    def __init__(self):
        self.nodes: list[tuple[str, Callable[[], None]]] = []
        self.spent = False

    def record(self, name: str, backward: Callable[[], None]) -> None:
        self.nodes.append((name, backward))

    def __len__(self) -> int:
        return len(self.nodes)


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d loss / d leaf into `.grad` of every leaf that requires it.

    Gradients accumulate additively across fan-out.  The loss must be scalar
    and must have been produced under `tape`.  Each rule is popped as it runs
    and op outputs keep no gradient, so the tape is spent afterwards: a
    second call on it raises `ContractError`.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if tape.spent:
        raise ContractError("backward: the tape is spent by an earlier backward; "
                            "record a new tape for each pass")
    tape.spent = True
    _slot_of(loss).accumulate_grad(np.ones_like(loss.data))
    _replay(tape.nodes)


def _replay(nodes: list) -> None:
    # reverse recording order, each rule popped before it runs
    while nodes:
        nodes.pop()[1]()


def checkpoint(run: Callable[[Tape | None], tuple], tape: Tape | None = None) -> tuple:
    """The tensors `run(None)` returns, recorded on `tape` as one node.

    `run(sub)` computes a tuple of tensors from tensors it closes over and
    records its ops on the tape `sub`, or on none when `sub` is None.  The
    forward calls `run(None)`, whose ops build no rules, so the node keeps
    only what `run` closes over.  Once an output has a gradient, the rule
    calls `run` again on a fresh tape, hands each output's gradient to the
    matching output of that second run, drops those outputs and replays the
    fresh tape: every gradient reaches the real inputs' slots in the order,
    and with the bits, of the same ops recorded directly.  So both calls
    must compute the same values, and a caller's counters and callbacks act
    only when `sub` is None.
    """
    outs = run(None)
    if tape is None:
        return outs
    slots = tuple(_Slot() for _ in outs)

    def rule():
        grads = [slot.grad for slot in slots]
        if all(g is None for g in grads):
            return
        for slot in slots:
            slot.grad = None
        sub = Tape()
        for out, g in zip(run(sub), grads, strict=True):
            if g is not None and out.requires_grad:
                _slot_of(out).accumulate_grad(g)
        del grads, out, g
        _replay(sub.nodes)

    tape.record("checkpoint", rule)
    return tuple(Tensor._wrap(out.data, slot) for out, slot in zip(outs, slots))


# ---------------------------------------------------------------------------
# op plumbing
# ---------------------------------------------------------------------------

def all_finite(arr: np.ndarray) -> bool:
    """True when no entry of a float array is NaN or infinite (see the module
    docstring for why one `vdot` decides it)."""
    flat = arr.ravel(order="K")
    return math.isfinite(np.vdot(flat, flat)) or bool(np.isfinite(arr).all())


def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not all_finite(arr):
        raise NumericError(f"{op} produced non-finite values")
    return arr


def _value(arr: np.ndarray, op: str) -> Tensor:
    """The tape-free exit of an op: its checked result, with no backward rule."""
    if not all_finite(arr):
        raise NumericError(f"{op} produced non-finite values")
    return Tensor._wrap(arr)


def _out(arr: np.ndarray, op: str, tape: Tape, inputs: Sequence[Tensor],
         vjps: Sequence[Callable[..., np.ndarray]],
         share: Callable[[np.ndarray], object] | None = None) -> Tensor:
    """Wrap an op result and, when gradients are live, record its one backward rule.

    Only an op that has a tape calls it; without one an op returns through
    `_value` and builds no VJP.  When no input requires a gradient, the
    result is wrapped and nothing is recorded.

    `vjps[i]` maps the output's gradient to the gradient of `inputs[i]`; it is
    kept, and called once the output has received a gradient, only for an
    input that requires one.  Each VJP returns an array that no one else
    holds (see the module docstring); here every `_same` route but the one
    allowed to hand the gradient on becomes `_copy`.  With `share`, the rule
    computes `share(g)` once, before its first route, and calls each VJP as
    `vjp(g, shared)`.  Routes run in input order, and each adds its result
    before the next one runs, so a VJP may hand the shared value on whole
    only when at most one route follows it.
    """
    _finite(arr, op)
    live = [(_slot_of(t), vjp) for t, vjp in zip(inputs, vjps) if t.requires_grad]
    if not live:
        return Tensor._wrap(arr)
    routes, handed = [], False
    for target, vjp in live:
        if vjp is _same:
            if handed or sum(other is target for other, _ in live) > 1:
                vjp = _copy
            handed = True
        routes.append((target, vjp))
    slot = _Slot()

    def rule():
        g, slot.grad = slot.grad, None
        if g is None:
            return
        shared = () if share is None else (share(g),)
        for target, vjp in routes:
            target.accumulate_grad(vjp(g, *shared))

    tape.record(op, rule)
    return Tensor._wrap(arr, slot)


def _same(g: np.ndarray, *_shared) -> np.ndarray:
    return g


def _copy(g: np.ndarray, *_shared) -> np.ndarray:
    return np.copy(g)


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: operand shapes differ, {a.shape} vs {b.shape}")


def _product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x[R,k] @ w[k,m]: np.dot dispatches faster on a few rows (a forecast's
    N), `@` multiplies faster on many (a training batch's N*B, or N=300
    nodes); the two agree bit for bit."""
    return np.dot(x, w) if len(x) <= 128 else x @ w


def _channel_map(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                 op: str) -> tuple[np.ndarray, np.ndarray]:
    """x[...,k] @ w[k,m] (+ b[m]) as (x's [R,k] rows, which w's gradient
    reads, [R,m] result); a w or b that does not fit x raises naming `op`."""
    shape, w_shape = x.shape, w.shape
    if len(w_shape) != 2 or not shape or shape[-1] != w_shape[0]:
        raise DimensionError(f"{op}: cannot map {shape} by {w_shape}")
    if b is not None and b.shape != w_shape[1:]:
        raise DimensionError(f"{op}: bias {b.shape} does not match {w_shape}")
    rows = x.reshape(-1, w_shape[0])
    out = _product(rows, w)
    if b is not None:
        out += b
    return rows, out


# ---------------------------------------------------------------------------
# arithmetic ops
# ---------------------------------------------------------------------------

def propagate(a: Tensor, h: Tensor, w: Tensor, b: Tensor,
              tape: Tape | None = None) -> Tensor:
    """Graph propagation, (a[N,N] @ h[N,B,d]) @ w[d,m] + b[m], in one node.

    The state is read as one [N, B*d] matrix, so the graph product and its
    two VJPs are one 2-D matrix product each, and the propagated state is
    read as [N*B, d] rows for the channel map.  The graph product picks its
    call by row count as the channel map does (`_product`): `np.dot` up to
    128 nodes, `@` above.  Only the output is checked: a non-finite a @ h
    reaches it, as NaN where w's matching row is zero.

    The rule keeps a @ h for w's gradient, and h only for an operator that
    requires a gradient.  It shares g' = g w^T between the operator and
    state routes and routes w and b first, so with a square w the state
    route writes a^T g' over g: backward holds two state-sized arrays, g
    and g', never a third.  Values and gradients are bitwise those of
    `affine` after a bare graph product.
    """
    mat, shape = a.data, h.data.shape
    if mat.ndim != 2 or len(shape) != 3:
        raise DimensionError(
            f"propagate: expects a[N,N] and h[N,B,d], got {a.shape} and {shape}")
    n, _, d = shape
    if mat.shape != (n, n):
        raise DimensionError(
            f"propagate: operator {a.shape} does not match h[N,B,d] with "
            f"{n} nodes, got {shape}")
    wt = w.data
    x = h.data.reshape(n, -1)
    flat, out_flat = _channel_map(_product(mat, x).reshape(shape), wt, b.data, "propagate")
    m = out_flat.shape[1]
    out = out_flat.reshape(shape[:2] + (m,))
    if tape is None:
        return _value(out, "propagate")

    def d_h(g, gp):
        # g is the rule's own and no route after this one reads it
        dst = g.reshape(n, -1) if m == d else None
        return np.matmul(mat.T, gp, out=dst).reshape(shape)

    return _out(out, "propagate", tape, (w, b, a, h),
                (lambda g, gp: flat.T @ g.reshape(-1, m),
                 lambda g, gp: g.reshape(-1, m).sum(axis=0),
                 lambda g, gp: np.matmul(gp, x.T),
                 d_h),
                share=lambda g: (g.reshape(-1, m) @ wt.T).reshape(n, -1))


def gram(e: Tensor, tape: Tape | None = None) -> Tensor:
    """Gram matrix of the rows of a 2-D table, e[N,k] @ e[N,k]^T."""
    if e.data.ndim != 2:
        raise DimensionError(f"gram: expects a 2-D table [rows x width], got {e.shape}")
    x = e.data
    xt = x.T.copy()
    out = x @ xt
    if tape is None:
        return _value(out, "gram")
    # the VJP is that of E times a copy of E^T, product by product; the
    # shorter (G + G^T) E rounds differently
    return _out(out, "gram", tape, (e,), (lambda g: g @ xt.T + (x.T @ g).T,))


def row_normalize(s: Tensor, tape: Tape | None = None) -> Tensor:
    """Each row of s[N,M] divided by its sum; an all-zero row becomes 1/M.

    With z the 0/1 indicator of an all-zero row, the result is
    (s + z/M) / (rowsum + z).  z is a constant, so the other rows keep their
    exact gradients.  Row sums are products with a ones column, in forward
    and backward alike.
    """
    if s.data.ndim != 2:
        raise DimensionError(f"row_normalize: expects a 2-D matrix, got {s.shape}")
    x = s.data
    m = x.shape[1]
    ones = np.ones((m, 1))
    rows = x @ ones
    z = (rows == 0.0).astype(np.float64)
    denom = rows + z
    numer = x + z / m
    out = numer / denom
    if tape is None:
        return _value(out, "row_normalize")

    def d_s(g):
        g_denom = -g * numer / (denom * denom)
        return g / denom + g_denom @ ones

    return _out(out, "row_normalize", tape, (s,), (d_s,))


def affine(h: Tensor, w: Tensor, b: Tensor | None = None,
           tape: Tape | None = None) -> Tensor:
    """Shared channel map over the leading axes, h[...,k] @ w[k,m] (+ b[m])."""
    shape, wt = h.data.shape, w.data
    flat, out_flat = _channel_map(h.data, wt, None if b is None else b.data, "affine")
    m = out_flat.shape[1]
    out = out_flat.reshape(shape[:-1] + (m,))
    if tape is None:
        return _value(out, "affine")
    inputs = (h, w)
    vjps = (lambda g: (g.reshape(-1, m) @ wt.T).reshape(shape),
            lambda g: flat.T @ g.reshape(-1, m))
    if b is not None:
        inputs += (b,)
        vjps += (lambda g: g.reshape(-1, m).sum(axis=0),)
    return _out(out, "affine", tape, inputs, vjps)


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    _check_same_shape(a, b, "add")
    out = a.data + b.data
    if tape is None:
        return _value(out, "add")
    return _out(out, "add", tape, (a, b), (_same, _same))


def axpy(h: Tensor, k: Tensor, s: Scalar, tape: Tape | None = None) -> Tensor:
    """h + k * s, the solver's stage update, in one node."""
    if h.data.shape != k.data.shape:
        _check_same_shape(h, k, "axpy")
    s = float(s)
    out = k.data * s
    out += h.data
    if tape is None:
        return _value(out, "axpy")
    return _out(out, "axpy", tape, (h, k), (_same, lambda g: g * s))


def abs_diff(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """|a - b| element-wise; the backward rule uses sign with subgradient 0 at 0.

    The rule computes g * sign(d) once: a's route hands it on, and b's, the
    last, negates it, which is exact.  Without a tape nothing else reads d,
    so |d| is taken in place (a 0-d d is a numpy scalar, which cannot be).
    """
    if a.data.shape != b.data.shape:
        _check_same_shape(a, b, "abs_diff")
    d = a.data - b.data
    if tape is None:
        return _value(np.abs(d, out=d) if d.ndim else np.abs(d), "abs_diff")
    return _out(np.abs(d), "abs_diff", tape, (a, b),
                (lambda g, gs: gs, lambda g, gs: -gs),
                share=lambda g: g * np.sign(d))


def gated_jump(base: Tensor, m: Tensor, h: Tensor, w: Tensor, b: Tensor,
               tape: Tape | None = None) -> Tensor:
    """base + m * tanh(h[...,k] @ w[k,n] + b[n]), the gated jump, in one node.

    The arithmetic is that of `affine` followed by the gate, in the same
    order.  The rule keeps h and m but not the tanh: backward recomputes the
    pre-activation and its tanh from h once, for all five routes, so values
    and gradients are bitwise those of the two-op chain.  A non-finite
    pre-activation raises, although tanh would round it to +-1.
    """
    x = m.data
    if base.data.shape != x.shape:
        _check_same_shape(base, m, "gated_jump")
    shape, wt, bias = h.data.shape, w.data, b.data
    flat, z = _channel_map(h.data, wt, bias, "gated_jump")
    n = z.shape[1]
    if shape[:-1] + (n,) != x.shape:
        raise DimensionError(
            f"gated_jump: {h.shape} mapped by {w.shape} does not match the gate {m.shape}")
    z = _finite(z.reshape(x.shape), "gated_jump pre-activation")
    # m * tanh(z) + base in z's own buffer (x * t and t * x round alike)
    out = np.tanh(z, out=z)
    out *= x
    out += base.data
    if tape is None:
        return _value(out, "gated_jump")
    gate_grad = m.requires_grad

    def share(g):
        # the tanh j once more, and dz = (g * m) * (1 - j * j) as the chain had it
        j = _channel_map(flat, wt, bias, "gated_jump")[1].reshape(x.shape)
        np.tanh(j, out=j)
        dz = g * x
        # 1 - j * j in j's own buffer unless the gate's route reads j
        jj = j * j if gate_grad else np.multiply(j, j, out=j)
        np.subtract(1.0, jj, out=jj)
        dz *= jj
        del jj
        return (j if gate_grad else None), dz.reshape(-1, n)

    return _out(out, "gated_jump", tape, (base, m, h, w, b),
                (_same, lambda g, s: g * s[0],
                 lambda g, s: (s[1] @ wt.T).reshape(shape),
                 lambda g, s: flat.T @ s[1],
                 lambda g, s: s[1].sum(axis=0)),
                share=share)


def relu(a: Tensor, tape: Tape | None = None) -> Tensor:
    x = a.data
    out = np.maximum(x, 0.0)
    if tape is None:
        return _value(out, "relu")
    return _out(out, "relu", tape, (a,), (lambda g: g * (x > 0.0),))


def _sigmoid_values(x: np.ndarray, lowest: float | None = None) -> np.ndarray:
    # `lowest`, the smallest entry of x, picks the formula; one scan finds it
    # unless the caller has
    if lowest is None:
        lowest = np.minimum.reduce(x, axis=None, initial=np.inf)
    if lowest >= 0:
        # exp(-x) <= 1 cannot overflow, so one exp serves every entry:
        # 1 / (1 + exp(-x)) built in one array (`out=` keeps a 0-d input an array)
        y = np.negative(x, out=np.empty_like(x))
        np.exp(y, out=y)
        y += 1.0
        return np.divide(1.0, y, out=y)
    # Split by sign so exp never overflows.
    pos = x >= 0
    out = np.empty_like(x)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor, tape: Tape | None = None, lowest: float | None = None) -> Tensor:
    """Logistic function; bitwise the same whichever of its two formulas runs.

    A caller that scans `a` for a check of its own (the gate's
    nonnegativity) passes that scan's smallest entry as `lowest`, so `a` is
    scanned once.
    """
    y = _sigmoid_values(a.data, lowest)
    if tape is None:
        return _value(y, "sigmoid")
    return _out(y, "sigmoid", tape, (a,), (lambda g: g * y * (1.0 - y),))


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def concat_channels(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Concatenate along the trailing (channel) axis; leading dims must agree."""
    if a.data.ndim != b.data.ndim or a.shape[:-1] != b.shape[:-1]:
        raise DimensionError(
            f"concat_channels: leading shapes differ, {a.shape} vs {b.shape}")
    out = np.concatenate([a.data, b.data], axis=-1)
    if tape is None:
        return _value(out, "concat_channels")
    split = a.shape[-1]
    return _out(out, "concat_channels", tape, (a, b),
                (lambda g: g[..., :split].copy(), lambda g: g[..., split:].copy()))


def expand_batch(a: Tensor, batch: int, tape: Tape | None = None) -> Tensor:
    """Replicate a[N,...] along a new batch axis 1, [N,B,...]; backward sums it out."""
    if batch < 1:
        raise ContractError(f"expand_batch: batch must be >= 1, got {batch}")
    if a.data.ndim < 1:
        raise DimensionError(f"expand_batch: needs a leading node axis, got {a.shape}")
    out = np.repeat(a.data[:, None], batch, axis=1)
    if tape is None:
        return _value(out, "expand_batch")
    return _out(out, "expand_batch", tape, (a,), (lambda g: g.sum(axis=1),))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def mean_all(a: Tensor, tape: Tape | None = None) -> Tensor:
    out = np.array(a.data.mean())
    if tape is None:
        return _value(out, "mean_all")
    shape, inv = a.shape, 1.0 / a.size
    return _out(out, "mean_all", tape, (a,), (lambda g: np.full(shape, float(g) * inv),))


def mean_abs_error(pred: Tensor, target: Tensor, tape: Tape | None = None) -> Tensor:
    """Scalar mean absolute deviation (1/count) * sum |pred - target|."""
    _check_same_shape(pred, target, "mean_abs_error")
    diff = pred.data - target.data
    out = np.array(np.abs(diff).mean())
    if tape is None:
        return _value(out, "mean_abs_error")
    inv = 1.0 / pred.size

    def d_pred(g):
        return float(g) * inv * np.sign(diff)

    return _out(out, "mean_abs_error", tape, (pred, target), (d_pred, lambda g: -d_pred(g)))


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
        f_hi = _as_float(f(Tensor._wrap(hi.reshape(x.shape))))
        f_lo = _as_float(f(Tensor._wrap(lo.reshape(x.shape))))
        grad[i] = (f_hi - f_lo) / (2.0 * eps)
    return Tensor._wrap(grad.reshape(x.shape))
