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

`evolve` composes S such steps over unit time (dt = 1/S). The gate values
are opt-in: pass collect_masks=True to get each step's mask, which a caller
can fold into a `GateStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tape, Tensor, absolute, add, detach, hadamard, scale,
                       sigmoid, sub, tanh)
from .autodiff import affine as node_linear, propagate as graph_propagate
from .errors import ContractError, NumericError, OdegateError

MASK_MODES = ("lte", "uniform_one", "learned", "off")


@dataclass
class VectorFieldParams:
    """One shared weight set for the continuous field of a stream.

    The same (w_f, b_f) pair is used by both solver evaluations of every
    integration step; per-step copies would break the weight-sharing contract
    of the continuous field.
    """

    w_f: Tensor   # [d_h, d_h]
    b_f: Tensor   # [d_h]


@dataclass
class CompensatorParams:
    """Per-step jump parameters: S independent (w_g, b_g) pairs."""

    per_step: list  # list of (Tensor[d_h, d_h], Tensor[d_h])

    @property
    def n_steps(self) -> int:
        return len(self.per_step)


@dataclass
class LearnedMaskParams:
    """Affine map + sigmoid used by the learned-mask ablation (shared across steps)."""

    w_m: Tensor   # [d_h, d_h]
    b_m: Tensor   # [d_h]


@dataclass
class EvolveResult:
    h_final: Tensor
    lte: list                    # per-step error tensors, kept on the tape
    masks: list | None = None    # per-step mask arrays (read-only) when collected
    states: list | None = None   # per-step states (numpy) when collected


class NFECounter:
    """Mutable count of vector-field evaluations."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1


def percentile95(values: np.ndarray) -> float:
    """np.percentile(values, 95) from one partition at its two order statistics.

    Interpolates the way numpy's default "linear" method does, including its
    switch to b - (b - a) * (1 - t) for t >= 0.5, so the result is bitwise equal.
    """
    flat = values.ravel()
    pos = (flat.size - 1) * 0.95
    lo = int(pos)
    if lo >= flat.size - 1:
        return float(flat.max())
    part = np.partition(flat, (lo, lo + 1))
    a, b = part[lo], part[lo + 1]
    t = pos - lo
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


class GateStats:
    """Streaming summary of gate values over many steps and batches.

    Keeps the count, sum and sum of squares of every value folded in, for the
    mean and std over all of them, and the running sum of each step's p95.
    """

    __slots__ = ("count", "total", "total_sq", "p95_sum", "steps")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.p95_sum = 0.0
        self.steps = 0

    def add(self, values: np.ndarray) -> None:
        """Fold in one step's gate values."""
        flat = values.ravel()
        self.count += flat.size
        self.total += float(flat.sum())
        self.total_sq += float(np.dot(flat, flat))
        self.p95_sum += percentile95(flat)
        self.steps += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if not self.count:
            return 0.0
        mean = self.total / self.count
        return float(np.sqrt(max(self.total_sq / self.count - mean * mean, 0.0)))

    @property
    def p95(self) -> float:
        """Mean over the folded-in steps of each step's p95."""
        return self.p95_sum / self.steps if self.steps else 0.0


# ---------------------------------------------------------------------------
# field and step
# ---------------------------------------------------------------------------

def vector_field(h: Tensor, a_op: Tensor, params: VectorFieldParams,
                 tape: Tape | None = None, nfe: NFECounter | None = None) -> Tensor:
    """Continuous field: one graph propagation followed by one shared affine map."""
    out = node_linear(graph_propagate(a_op, h, tape), params.w_f, params.b_f, tape)
    if nfe is not None:
        nfe.bump()
    return out


def embedded_dual_step(h: Tensor, dt: float, a_op: Tensor, params: VectorFieldParams,
                       tape: Tape | None = None, nfe: NFECounter | None = None):
    """One embedded Euler/RK2 step; returns (h_euler, h_rk2) from 2 NFEs.

    k1 is computed once and reused by both estimates; the Euler result is a
    free byproduct of the midpoint method's first stage.
    """
    if dt <= 0:
        raise ContractError(f"embedded_dual_step: dt must be positive, got {dt}")
    k1 = vector_field(h, a_op, params, tape, nfe)
    h_euler = add(h, scale(k1, dt, tape), tape)
    midpoint = add(h, scale(k1, dt / 2.0, tape), tape)
    k2 = vector_field(midpoint, a_op, params, tape, nfe)
    h_rk2 = add(h, scale(k2, dt, tape), tape)
    return h_euler, h_rk2


def local_truncation_error(h_euler: Tensor, h_rk2: Tensor,
                           tape: Tape | None = None) -> Tensor:
    """Per-entry |h_rk2 - h_euler|; nonnegative by construction."""
    return absolute(sub(h_rk2, h_euler, tape), tape)


def attention_mask(e: Tensor, tape: Tape | None = None) -> Tensor:
    """Sigmoid gate of a nonnegative error signal; values lie in [0.5, 1).

    Zero error anchors the gate at exactly 0.5; larger errors saturate it
    toward 1.
    """
    if np.any(e.data < 0):
        raise ContractError("attention_mask: error signal must be nonnegative")
    return sigmoid(e, tape)


def compensate(h_t: Tensor, h_rk2: Tensor, m: Tensor, step: int,
               params: CompensatorParams, tape: Tape | None = None) -> Tensor:
    """Hybrid update h_rk2 + m * tanh(h_t W_g[step] + b_g[step]).

    The jump operator reads the PRE-step state h_t, not the solver output.
    """
    if not (0 <= step < params.n_steps):
        raise ContractError(
            f"compensate: step {step} outside [0, {params.n_steps})")
    w_g, b_g = params.per_step[step]
    jump = tanh(node_linear(h_t, w_g, b_g, tape), tape)
    return add(h_rk2, hadamard(m, jump, tape), tape)


# ---------------------------------------------------------------------------
# trajectory evolution
# ---------------------------------------------------------------------------

def evolve(h0: Tensor, steps: int, dt: float, a_op: Tensor,
           vf: VectorFieldParams, comp: CompensatorParams | None = None,
           mask_mode: str = "lte", *, mask_params: LearnedMaskParams | None = None,
           mask_grad: bool = False, tape: Tape | None = None,
           nfe: NFECounter | None = None,
           collect_masks: bool = False, collect_states: bool = False) -> EvolveResult:
    """Run S hybrid steps over unit time.

    mask_mode selects the ablation behavior:
      lte          full mechanism, mask = sigmoid(error)
      uniform_one  compensation applied everywhere with mask = 1
      learned      mask = sigmoid of an affine map of the pre-step state
      off          pure embedded RK2, compensator skipped entirely

    By default the error feeding the mask is detached from the tape; pass
    mask_grad=True to let gradients flow through the gate.  The per-step error
    tensors returned in `lte` always stay on the tape (the smoothness-penalty
    loss needs them differentiable).  With collect_masks, `masks` holds every
    gated step's mask array (read-only); mask_mode 'off' collects none.
    """
    if steps < 1:
        raise ContractError(f"evolve: steps must be >= 1, got {steps}")
    if abs(dt * steps - 1.0) > 1e-9:
        raise ContractError(f"evolve: dt must equal 1/steps, got dt={dt}, steps={steps}")
    if mask_mode not in MASK_MODES:
        raise ContractError(f"evolve: unknown mask_mode '{mask_mode}'")
    if mask_mode == "learned" and mask_params is None:
        raise ContractError("evolve: mask_mode 'learned' needs mask_params")
    if mask_mode in ("lte", "uniform_one", "learned") and comp is None:
        raise ContractError(f"evolve: mask_mode '{mask_mode}' needs compensator params")
    if comp is not None and comp.n_steps < steps:
        raise ContractError(
            f"evolve: compensator has {comp.n_steps} step entries, need {steps}")

    h = h0
    lte_tensors: list[Tensor] = []
    masks = [] if collect_masks else None
    states = [h0.data.copy()] if collect_states else None

    for step in range(steps):
        try:
            h_euler, h_rk2 = embedded_dual_step(h, dt, a_op, vf, tape, nfe)
            err = local_truncation_error(h_euler, h_rk2, tape)
            lte_tensors.append(err)

            if mask_mode == "off":
                h_next = h_rk2
            else:
                if mask_mode == "lte":
                    gate_input = err if mask_grad else detach(err)
                    m = attention_mask(gate_input, tape)
                elif mask_mode == "uniform_one":
                    m = Tensor(np.ones_like(h.data))
                else:  # learned
                    m = sigmoid(node_linear(h, mask_params.w_m, mask_params.b_m, tape), tape)

                h_next = compensate(h, h_rk2, m, step, comp, tape)
                if masks is not None:
                    masks.append(m.data)
        except OdegateError as exc:
            raise type(exc)(f"step {step}: {exc}") from exc

        if states is not None:
            states.append(h_next.data.copy())
        h = h_next

    if not np.all(np.isfinite(h.data)):
        raise NumericError("evolve: final state is non-finite")
    return EvolveResult(h_final=h, lte=lte_tensors,
                        masks=masks, states=states)
