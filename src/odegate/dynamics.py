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

On a tape, a step in `lte` mode records 4 nodes per stream: one
`propagate`, (A h) W_f + b_f, per field evaluation, the second of them
evaluated at the midpoint h + dt/2 * k1 inside its own node, one `axpy`
for h_rk2, and the jump, `gated_jump`.  The jump keeps the pre-step state,
which the gradient of W_g[step] reads anyway, and the gate, but not its
tanh: backward recomputes h W_g[step] + b_g[step] and its tanh from h,
once per step.  Both field evaluations keep only h: backward makes k1 and
the midpoint again from it, and each evaluation's A h (A times the
midpoint for the second) for W_f's gradient; the second evaluation's rule
hands its A h on to the first's, so backward makes no more graph products
than when the tape kept the midpoint.  So a taped step keeps 2
state-sized arrays in each stream: h and the gate.  The `uniform_one` gate
is one read-only array of ones per `evolve` call, so there a step keeps 1.

The gate reads the error's values only, so h_euler and the error are
computed off the tape and freed with their step.  Only a reader of the
error's gradient puts them on the tape, as a fifth node, h_euler's `axpy`,
right after k1, and a sixth, `abs_diff`: a caller that collects the errors
(the smoothness penalty differentiates them), or mask_grad, which adds the
gate's `sigmoid` too.  The `off`, `uniform_one` and `learned` modes read
no error unless it is collected, and then form no h_euler either.

States are node-major, [N,B,d] (node, batch, channel), the layout
`autodiff.propagate` reads as one [N, B*d] matrix for its graph product;
every array a step makes, masks and errors included, has that shape.

`evolve` composes S such steps over unit time (dt = 1/S). The gate values
are opt-in: pass collect_masks=True to get each step's mask, which a caller
can fold into a `GateStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, _logistic, abs_diff, axpy, gated_jump, sigmoid
from .autodiff import affine as node_linear, propagate as graph_propagate
from .errors import ContractError, OdegateError

MASK_MODES = ("lte", "uniform_one", "learned", "off")


@dataclass
class EvolveResult:
    h_final: Tensor
    lte: list | None             # per-step error tensors, on the tape, when collected
    masks: list | None = None    # per-step mask arrays (read-only) when collected
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
                 nfe: NFECounter | None = None,
                 stage: tuple[Tensor, float] | None = None) -> Tensor:
    """Continuous field (A h) W_f + b_f: one graph propagation, in one tape node.

    With `stage=(k, c)`, where k is this field at h, the field at the stage
    point h + c * k, formed inside the same node (`autodiff.propagate`).
    """
    w_f, b_f = field
    out = graph_propagate(a_op, h, w_f, b_f, tape, stage)
    if nfe is not None:
        nfe.bump()
    return out


def embedded_dual_step(h: Tensor, dt: float, a_op: Tensor, field: tuple,
                       tape: Tape | None = None, nfe: NFECounter | None = None,
                       *, euler: bool = True, euler_grad: bool = True):
    """One embedded Euler/RK2 step; returns (h_euler, h_rk2) from 2 NFEs.

    k1 is computed once and reused by both estimates; the Euler result is a
    free byproduct of the midpoint method's first stage.  A caller that
    reads no gradient of h_euler passes euler_grad=False, which forms it off
    the tape, and one that reads nothing of it passes euler=False, which
    skips it and returns None in its place.  It is formed right after k1:
    recorded after h_rk2, it would change the order in which gradients add
    up in h and k1, and with it their bits.
    """
    if dt <= 0:
        raise ContractError(f"embedded_dual_step: dt must be positive, got {dt}")
    k1 = vector_field(h, a_op, field, tape, nfe)
    h_euler = axpy(h, k1, dt, tape if euler_grad else None) if euler else None
    k2 = vector_field(h, a_op, field, tape, nfe, stage=(k1, dt / 2.0))
    h_rk2 = axpy(h, k2, dt, tape)
    return h_euler, h_rk2


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
    return _logistic(e, tape, lowest)


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
           collect_masks: bool = False, collect_states: bool = False) -> EvolveResult:
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

    By default the mask is computed off the tape, so no gradient reaches the
    error through the gate; pass mask_grad=True to let gradients flow through
    it.  With collect_lte (the default), `lte` holds every step's error
    tensor, on the tape (the smoothness-penalty loss differentiates them), in
    every mode.  Without it, `lte` is None: `lte` mode computes each error
    off the tape (on it with mask_grad) and drops it with its step, and the
    other modes, which never read it, skip it.  With collect_masks, `masks`
    holds every gated step's mask array (read-only); mask_mode 'off' collects
    none.
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

    h = h0
    lte_tensors = [] if collect_lte else None
    # the error is formed for the collector or the lte gate, and taped only
    # for a reader of its gradient (the collector, mask_grad)
    with_err = collect_lte or mask_mode == "lte"
    err_grad = collect_lte or mask_grad
    err_tape = tape if err_grad else None
    masks = [] if collect_masks else None
    states = [h0.data.copy()] if collect_states else None
    if mask_mode == "uniform_one":
        # one gate for every step, so the tape keeps one array of ones
        uniform = Tensor._wrap(np.ones_like(h0.data))
        uniform.data.flags.writeable = False

    for step in range(steps):
        try:
            h_euler, h_rk2 = embedded_dual_step(h, dt, a_op, field, tape, nfe,
                                                euler=with_err, euler_grad=err_grad)
            if with_err:
                err = local_truncation_error(h_euler, h_rk2, err_tape)
                if lte_tensors is not None:
                    lte_tensors.append(err)

            if mask_mode == "off":
                h_next = h_rk2
            else:
                if mask_mode == "lte":
                    m = attention_mask(err, tape if mask_grad else None)
                elif mask_mode == "uniform_one":
                    m = uniform
                else:  # learned
                    m = sigmoid(node_linear(h, *learned_mask, tape), tape)

                h_next = compensate(h, h_rk2, m, step, jumps, tape)
                if masks is not None:
                    masks.append(m.data)
        except OdegateError as exc:
            raise type(exc)(f"step {step}: {exc}") from exc

        if states is not None:
            states.append(h_next.data.copy())
        h = h_next
        # this step's estimates, error and gate must not live on through the
        # next step's evaluations: at train-n300 they are 3 states the tape
        # does not keep
        h_euler = h_rk2 = err = m = None

    return EvolveResult(h_final=h, lte=lte_tensors,
                        masks=masks, states=states)
