"""Continuous-discrete hybrid dynamics with truncation-error-driven gating.

One hybrid step, for state h and step size dt:

    k1       = f(h)                    (one field evaluation)
    h_euler  = h + dt * k1             (first-order estimate, free byproduct)
    k2       = f(h + dt/2 * k1)        (second field evaluation)
    h_rk2    = h + dt * k2             (second-order midpoint estimate)
    err      = |h_rk2 - h_euler|       (per-entry truncation error, no extra NFE)
    mask     = sigmoid(err)            (per-entry gate in [0.5, 1))
    h_next   = h_rk2 + mask * tanh(h W_g[step] + b_g[step])

The two solver estimates share k1, so the error signal costs exactly zero
additional vector-field evaluations: every step performs 2 NFEs regardless of
how the mask and compensation are configured.

On a tape, `evolve` records each step as one `autodiff.checkpoint` node
per stream.  The forward runs the step without a tape, and the node keeps
the step's input state h and nothing else, so a taped step keeps 1
state-sized array per stream in every gate mode, with mask_grad and with
collected errors too.  Backward runs the step again from h on a fresh tape,
with the same calls in the same order, and replays that tape, so values
and gradients are bitwise those of the step's ops recorded directly.  The
rerun evaluates the field with `graph_propagate`, not `vector_field`, so
an `NFECounter`, and anything else that counts `vector_field` calls, sees
forward evaluations only; `on_gate` and `collect_states` see the forward
only as well.

Inside a step the gate reads the error's values only, so the error is
recorded only for a reader of its gradient: a caller that collects the
errors (the smoothness penalty differentiates them), or mask_grad, which
records the gate's `sigmoid` too.  The `off`, `uniform_one` and `learned`
modes compute no error unless it is collected.  A step drops k1 once the
midpoint and h_euler exist, and an uncollected error once the gate is
made.

States are node-major, [N,B,d] (node, batch, channel), the layout
`autodiff.propagate` reads as one [N, B*d] matrix for its graph product;
every array a step makes, masks and errors included, has that shape.

`evolve` composes S such steps over unit time (dt = 1/S). The gate values
are opt-in: `on_gate` is called with each step's mask as the step makes it,
for a caller to fold into a `GateStats` and let go.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, abs_diff, axpy, checkpoint, gated_jump, sigmoid
from .autodiff import affine as node_linear, propagate as graph_propagate
from .errors import ContractError, OdegateError

MASK_MODES = ("lte", "uniform_one", "learned", "off")


@dataclass
class EvolveResult:
    h_final: Tensor
    lte: list | None             # per-step error tensors, on the tape, when collected
    states: list | None = None   # per-step states (numpy) when collected


class NFECounter:
    """Mutable count of vector-field evaluations."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1


class GateStats:
    """Streaming summary of gate values over many steps and batches.

    Keeps the count, sum and sum of squares of every value folded in, for the
    mean and std over all of them.
    """

    __slots__ = ("count", "total", "total_sq")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, values: np.ndarray) -> None:
        """Fold in one step's gate values, in memory order.

        A transposed view, such as a batch-major mask, is read where it
        lies instead of copied; only the sums' last bits depend on the order.
        The sum of squares is `einsum`'s own loop, not BLAS: a BLAS dot
        rounds by its thread split, and the std's cancellation would carry
        that into its 10th digit.
        """
        flat = values.ravel(order="K")
        self.count += flat.size
        self.total += float(flat.sum())
        self.total_sq += float(np.einsum("i,i->", flat, flat))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if not self.count:
            return 0.0
        mean = self.total / self.count
        return float(np.sqrt(max(self.total_sq / self.count - mean * mean, 0.0)))


# ---------------------------------------------------------------------------
# field and step
# ---------------------------------------------------------------------------

def vector_field(h: Tensor, a_op: Tensor, field: tuple, tape: Tape | None = None,
                 nfe: NFECounter | None = None) -> Tensor:
    """Continuous field (A h) W_f + b_f: one graph propagation, in one tape node."""
    w_f, b_f = field
    out = graph_propagate(a_op, h, w_f, b_f, tape)
    if nfe is not None:
        nfe.bump()
    return out


def embedded_dual_step(h: Tensor, dt: float, a_op: Tensor, field: tuple,
                       tape: Tape | None = None, nfe: NFECounter | None = None):
    """One embedded Euler/RK2 step; returns (h_euler, h_rk2) from 2 NFEs.

    k1 is computed once and reused by both estimates; the Euler result is a
    free byproduct of the midpoint method's first stage.
    """
    if dt <= 0:
        raise ContractError(f"embedded_dual_step: dt must be positive, got {dt}")
    return _dual_step(h, dt, lambda x: vector_field(x, a_op, field, tape, nfe), tape)


def _dual_step(h: Tensor, dt: float, field_at, tape: Tape | None):
    """(h_euler, h_rk2) with the field at x given by `field_at(x)`.

    h_euler is formed right after k1: recorded after h_rk2, it would change
    the order in which gradients add up in h and k1, and with it their bits.
    """
    k1 = field_at(h)
    h_euler = axpy(h, k1, dt, tape)
    mid = axpy(h, k1, dt / 2.0, tape)
    del k1
    k2 = field_at(mid)
    del mid
    return h_euler, axpy(h, k2, dt, tape)


def local_truncation_error(h_euler: Tensor, h_rk2: Tensor,
                           tape: Tape | None = None) -> Tensor:
    """Per-entry |h_rk2 - h_euler|; nonnegative by construction."""
    return abs_diff(h_rk2, h_euler, tape)


def attention_mask(e: Tensor, tape: Tape | None = None) -> Tensor:
    """Sigmoid gate of a nonnegative error signal; values lie in [0.5, 1).

    Zero error anchors the gate at exactly 0.5; larger errors saturate it
    toward 1.  One scan of the error finds its smallest entry, which both
    the check and the logistic's choice of formula read.
    """
    lowest = np.minimum.reduce(e.data, axis=None, initial=np.inf)
    if lowest < 0:
        raise ContractError("attention_mask: error signal must be nonnegative")
    return sigmoid(e, tape, lowest)


def compensate(h_t: Tensor, h_rk2: Tensor, m: Tensor, step: int,
               jumps, tape: Tape | None = None) -> Tensor:
    """Hybrid update h_rk2 + m * tanh(h_t W_g[step] + b_g[step]).

    `jumps` holds one (w_g, b_g) pair per step.  The jump operator reads the
    PRE-step state h_t, not the solver output.
    """
    if not (0 <= step < len(jumps)):
        raise ContractError(f"compensate: step {step} outside [0, {len(jumps)})")
    w_g, b_g = jumps[step]
    return gated_jump(h_rk2, m, h_t, w_g, b_g, tape)


# ---------------------------------------------------------------------------
# trajectory evolution
# ---------------------------------------------------------------------------

def evolve(h0: Tensor, steps: int, a_op: Tensor, field: tuple, jumps=(),
           mask_mode: str = "lte", *, learned_mask: tuple | None = None,
           mask_grad: bool = False, tape: Tape | None = None,
           nfe: NFECounter | None = None, collect_lte: bool = True,
           on_gate=None, collect_states: bool = False) -> EvolveResult:
    """Run `steps` hybrid steps, dt = 1/steps, over unit time from h0[N,B,d].

    A stream's parameters are its tensors: `field` is the (w_f, b_f) pair both
    evaluations of every step share, `jumps` holds one (w_g, b_g) pair per
    step (at least `steps` of them unless mask_mode is 'off'), and
    `learned_mask` is the (w_m, b_m) pair of the learned gate.

    mask_mode selects the ablation behavior:
      lte          full mechanism, mask = sigmoid(error)
      uniform_one  compensation applied everywhere with mask = 1
      learned      mask = sigmoid of an affine map of the pre-step state
      off          pure embedded RK2, jumps skipped entirely

    By default the gate carries no gradient, so none reaches the error
    through it; pass mask_grad=True to let gradients flow through it.  With
    collect_lte (the default), `lte` holds every step's error tensor, on the
    tape (the smoothness-penalty loss differentiates them), in every mode.
    Without it, `lte` is None: `lte` mode drops each error with its step,
    and the other modes, which never read it, skip it.  `on_gate`, when
    given, is called with every gated step's mask array as the step makes
    it, in step order; mask_mode 'off' makes none.  With a tape each step is
    one `checkpoint` node (see the module docstring).
    """
    if steps < 1:
        raise ContractError(f"evolve: steps must be >= 1, got {steps}")
    if mask_mode not in MASK_MODES:
        raise ContractError(f"evolve: unknown mask_mode '{mask_mode}'")
    if mask_mode == "learned" and learned_mask is None:
        raise ContractError("evolve: mask_mode 'learned' needs learned_mask")
    if mask_mode != "off" and len(jumps) < steps:
        raise ContractError(f"evolve: mask_mode '{mask_mode}' needs {steps} jumps, "
                            f"got {len(jumps)}")
    dt = 1.0 / steps
    # the error is formed for the collector or the lte gate, and recorded
    # only for a reader of its gradient (the collector, mask_grad)
    with_err = collect_lte or mask_mode == "lte"
    err_grad = collect_lte or mask_grad
    if mask_mode == "uniform_one":
        # one gate for every step, so the steps share one array of ones
        uniform = Tensor._wrap(np.ones_like(h0.data))
        uniform.data.flags.writeable = False

    def step_from(h: Tensor, step: int):
        """The step from h as `checkpoint` runs it: `sub` is None in the
        forward, and the fresh tape when backward runs it again."""

        def run(sub):
            if sub is None:
                h_euler, h_rk2 = embedded_dual_step(h, dt, a_op, field, None, nfe)
            else:
                h_euler, h_rk2 = _dual_step(
                    h, dt, lambda x: graph_propagate(a_op, x, *field, sub), sub)
            err = None
            if with_err:
                err = local_truncation_error(h_euler, h_rk2, sub if err_grad else None)
            del h_euler
            if mask_mode == "off":
                h_next = h_rk2
            else:
                if mask_mode == "lte":
                    m = attention_mask(err, sub if mask_grad else None)
                elif mask_mode == "uniform_one":
                    m = uniform
                else:  # learned
                    m = sigmoid(node_linear(h, *learned_mask, sub), sub)
                if not collect_lte:
                    err = None   # read by the gate alone, which now exists
                if sub is None and on_gate is not None:
                    on_gate(m.data)
                h_next = compensate(h, h_rk2, m, step, jumps, sub)
            return (h_next,) if err is None else (h_next, err)

        return run

    h = h0
    lte_tensors = [] if collect_lte else None
    states = [h0.data.copy()] if collect_states else None
    for step in range(steps):
        try:
            out = checkpoint(step_from(h, step), tape)
        except OdegateError as exc:
            raise type(exc)(f"step {step}: {exc}") from exc
        h = out[0]
        if lte_tensors is not None:
            lte_tensors.append(out[1])
        if states is not None:
            states.append(h.data.copy())

    return EvolveResult(h_final=h, lte=lte_tensors, states=states)
