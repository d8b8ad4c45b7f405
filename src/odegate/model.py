"""Dual-stream forecaster: shared encoder, two hybrid ODE streams, one readout.

Both streams start from the same initial state (input window projected per
node, concatenated with a learned node embedding).  The static stream
integrates under the normalized observed adjacency; the adaptive stream under
a similarity graph built from the embeddings.  Each stream owns its field,
compensator and (if learned) mask parameters.  The readout maps the
concatenated final states to the forecast horizon per node.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, affine, concat_channels, expand_batch
from .dynamics import (MASK_MODES, CompensatorParams, EvolveResult, GateStats,
                       LearnedMaskParams, NFECounter, VectorFieldParams, evolve)
from .errors import DimensionError, ParseError, ValidationError
from .graph import NodeEmbeddings, adaptive_adjacency

CHECKPOINT_MAGIC = "odegate-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    n_nodes: int
    in_dim: int = 1
    window: int = 12
    horizon: int = 12
    proj_dim: int = 30
    embed_dim: int = 10
    steps: int = 4
    mask_mode: str = "lte"
    mask_grad: bool = False

    def __post_init__(self):
        for name in ("n_nodes", "in_dim", "window", "horizon",
                     "proj_dim", "embed_dim", "steps"):
            if getattr(self, name) < 1:
                raise ValidationError(f"ModelConfig.{name} must be >= 1")
        if self.mask_mode not in MASK_MODES:
            raise ValidationError(f"ModelConfig.mask_mode '{self.mask_mode}' "
                                  f"is not one of {list(MASK_MODES)}")

    @property
    def hidden_dim(self) -> int:
        return self.proj_dim + self.embed_dim

    @property
    def dt(self) -> float:
        return 1.0 / self.steps


@dataclass
class ModelParams:
    w_input: Tensor                       # [window*in_dim, proj_dim]
    e_node: NodeEmbeddings                # [n_nodes, embed_dim]
    vf_static: VectorFieldParams
    vf_adaptive: VectorFieldParams
    w_out: Tensor                         # [2*hidden_dim, horizon]
    b_out: Tensor                         # [horizon]
    comp_static: CompensatorParams | None = None
    comp_adaptive: CompensatorParams | None = None
    mask_static: LearnedMaskParams | None = None
    mask_adaptive: LearnedMaskParams | None = None

    def named(self) -> dict:
        """Fixed-order name -> Tensor map over every parameter present."""
        out = {"input_projection": self.w_input,
               "node_embeddings": self.e_node.table,
               "static_field_weight": self.vf_static.w_f,
               "static_field_bias": self.vf_static.b_f,
               "adaptive_field_weight": self.vf_adaptive.w_f,
               "adaptive_field_bias": self.vf_adaptive.b_f}
        for prefix, comp in (("static", self.comp_static),
                             ("adaptive", self.comp_adaptive)):
            if comp is not None:
                for s, (w_g, b_g) in enumerate(comp.per_step):
                    out[f"{prefix}_comp_weight_{s}"] = w_g
                    out[f"{prefix}_comp_bias_{s}"] = b_g
        for prefix, mask in (("static", self.mask_static),
                             ("adaptive", self.mask_adaptive)):
            if mask is not None:
                out[f"{prefix}_mask_weight"] = mask.w_m
                out[f"{prefix}_mask_bias"] = mask.b_m
        out["readout_weight"] = self.w_out
        out["readout_bias"] = self.b_out
        return out

    @property
    def count(self) -> int:
        return sum(t.size for t in self.named().values())

    def zero_grad(self) -> None:
        for t in self.named().values():
            t.zero_grad()

    def copy(self) -> "ModelParams":
        """Deep copy of the parameter values (used for best-epoch snapshots)."""

        def dup(t: Tensor) -> Tensor:
            return Tensor(t.data.copy(), requires_grad=t.requires_grad)

        def dup_comp(c):
            if c is None:
                return None
            return CompensatorParams([(dup(w), dup(b)) for w, b in c.per_step])

        def dup_mask(m):
            if m is None:
                return None
            return LearnedMaskParams(dup(m.w_m), dup(m.b_m))

        return ModelParams(
            w_input=dup(self.w_input),
            e_node=NodeEmbeddings(dup(self.e_node.table)),
            vf_static=VectorFieldParams(dup(self.vf_static.w_f), dup(self.vf_static.b_f)),
            vf_adaptive=VectorFieldParams(dup(self.vf_adaptive.w_f), dup(self.vf_adaptive.b_f)),
            w_out=dup(self.w_out), b_out=dup(self.b_out),
            comp_static=dup_comp(self.comp_static),
            comp_adaptive=dup_comp(self.comp_adaptive),
            mask_static=dup_mask(self.mask_static),
            mask_adaptive=dup_mask(self.mask_adaptive))


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    limit = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-limit, limit, size=(rows, cols)),
                  requires_grad=True)


def _zeros(n: int) -> Tensor:
    return Tensor(np.zeros(n), requires_grad=True)


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Seeded initialization; allocation follows the configured mask mode.

    Draw order is fixed (encoder, embeddings, static field, adaptive field,
    static comp steps, adaptive comp steps, masks, readout) so identical seeds
    give identical parameters across runs.
    """
    rng = np.random.default_rng(seed)
    d_h = config.hidden_dim

    w_input = _glorot(rng, config.window * config.in_dim, config.proj_dim)
    e_node = NodeEmbeddings(_glorot(rng, config.n_nodes, config.embed_dim))
    vf_s = VectorFieldParams(_glorot(rng, d_h, d_h), _zeros(d_h))
    vf_k = VectorFieldParams(_glorot(rng, d_h, d_h), _zeros(d_h))

    comp_s = comp_k = None
    if config.mask_mode != "off":
        comp_s = CompensatorParams(
            [(_glorot(rng, d_h, d_h), _zeros(d_h)) for _ in range(config.steps)])
        comp_k = CompensatorParams(
            [(_glorot(rng, d_h, d_h), _zeros(d_h)) for _ in range(config.steps)])

    mask_s = mask_k = None
    if config.mask_mode == "learned":
        mask_s = LearnedMaskParams(_glorot(rng, d_h, d_h), _zeros(d_h))
        mask_k = LearnedMaskParams(_glorot(rng, d_h, d_h), _zeros(d_h))

    w_out = _glorot(rng, 2 * d_h, config.horizon)
    b_out = _zeros(config.horizon)
    return ModelParams(w_input=w_input, e_node=e_node,
                       vf_static=vf_s, vf_adaptive=vf_k,
                       w_out=w_out, b_out=b_out,
                       comp_static=comp_s, comp_adaptive=comp_k,
                       mask_static=mask_s, mask_adaptive=mask_k)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@dataclass
class ForwardResult:
    y_hat: Tensor                 # [batch, n_nodes, horizon]
    lte_static: list              # per-step error tensors, on the tape
    lte_adaptive: list
    nfe_static: int
    nfe_adaptive: int
    masks_static: list | None = None
    masks_adaptive: list | None = None


def initialize_state(x: Tensor, params: ModelParams, config: ModelConfig,
                     tape: Tape | None = None) -> Tensor:
    """Shared initial state: per-node window projection || node embedding."""
    if x.data.ndim != 4:
        raise DimensionError(f"initialize_state: input must be [B,N,T,D], got {x.shape}")
    b, n, t, d = x.shape
    if (n, t, d) != (config.n_nodes, config.window, config.in_dim):
        raise DimensionError(
            f"initialize_state: input {x.shape} does not match config "
            f"(n_nodes={config.n_nodes}, window={config.window}, in_dim={config.in_dim})")
    proj = affine(Tensor(x.data.reshape(b, n, t * d)), params.w_input, tape=tape)
    emb = expand_batch(params.e_node.table, b, tape)
    return concat_channels(proj, emb, tape)


def forward(x: Tensor, ahat: Tensor, params: ModelParams, config: ModelConfig,
            tape: Tape | None = None, collect_masks: bool = False,
            gate_stats: GateStats | None = None) -> ForwardResult:
    """Run both streams from the shared initial state and decode the horizon.

    When gate_stats is given, both streams fold their gate values into it.
    """
    n = config.n_nodes
    if ahat.shape != (n, n):
        raise DimensionError(f"forward: static operator {ahat.shape}, expected {(n, n)}")

    h0 = initialize_state(x, params, config, tape)
    a_adaptive = adaptive_adjacency(params.e_node, tape)

    common = dict(steps=config.steps, dt=config.dt, mask_mode=config.mask_mode,
                  mask_grad=config.mask_grad, tape=tape, collect_masks=collect_masks,
                  gate_stats=gate_stats)
    nfe_s, nfe_k = NFECounter(), NFECounter()
    res_s: EvolveResult = evolve(h0, a_op=ahat, vf=params.vf_static,
                                 comp=params.comp_static,
                                 mask_params=params.mask_static,
                                 nfe=nfe_s, **common)
    res_k: EvolveResult = evolve(h0, a_op=a_adaptive, vf=params.vf_adaptive,
                                 comp=params.comp_adaptive,
                                 mask_params=params.mask_adaptive,
                                 nfe=nfe_k, **common)

    merged = concat_channels(res_s.h_final, res_k.h_final, tape)
    y_hat = affine(merged, params.w_out, params.b_out, tape)
    return ForwardResult(y_hat=y_hat, lte_static=res_s.lte, lte_adaptive=res_k.lte,
                         nfe_static=nfe_s.count, nfe_adaptive=nfe_k.count,
                         masks_static=res_s.masks, masks_adaptive=res_k.masks)


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlopReport:
    """Per-forward FLOP estimate (2 per multiply-accumulate, batch of 1).

    Elementwise work (activations, masks, state updates) is excluded; the
    matrix products dominate.  The solver term is exactly linear in the step
    count: steps * 2 evaluations * 2 streams * one evaluation's cost.
    """

    encoder: int
    graph_build: int
    solver: int
    compensation: int
    mask: int
    decoder: int

    @property
    def total(self) -> int:
        return (self.encoder + self.graph_build + self.solver
                + self.compensation + self.mask + self.decoder)


def flop_report(config: ModelConfig, batch_size: int = 1) -> FlopReport:
    n, d_h = config.n_nodes, config.hidden_dim
    b, s = batch_size, config.steps
    per_eval = n * n * d_h + n * d_h * d_h          # propagate + shared affine
    comp_active = config.mask_mode != "off"
    return FlopReport(
        encoder=2 * b * n * config.window * config.in_dim * config.proj_dim,
        graph_build=2 * n * n * config.embed_dim,
        solver=2 * b * 2 * 2 * s * per_eval,
        compensation=(2 * b * 2 * s * n * d_h * d_h) if comp_active else 0,
        mask=(2 * b * 2 * s * n * d_h * d_h) if config.mask_mode == "learned" else 0,
        decoder=2 * b * n * 2 * d_h * config.horizon)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def param_shapes(config: ModelConfig) -> dict:
    """Name -> shape of every parameter the config implies, in `named()` order."""
    d_h = config.hidden_dim
    square, vector = (d_h, d_h), (d_h,)
    shapes = {"input_projection": (config.window * config.in_dim, config.proj_dim),
              "node_embeddings": (config.n_nodes, config.embed_dim),
              "static_field_weight": square, "static_field_bias": vector,
              "adaptive_field_weight": square, "adaptive_field_bias": vector}
    if config.mask_mode != "off":
        for prefix in ("static", "adaptive"):
            for s in range(config.steps):
                shapes[f"{prefix}_comp_weight_{s}"] = square
                shapes[f"{prefix}_comp_bias_{s}"] = vector
    if config.mask_mode == "learned":
        for prefix in ("static", "adaptive"):
            shapes[f"{prefix}_mask_weight"] = square
            shapes[f"{prefix}_mask_bias"] = vector
    shapes["readout_weight"] = (2 * d_h, config.horizon)
    shapes["readout_bias"] = (config.horizon,)
    return shapes


def save_checkpoint(path, params: ModelParams, config: ModelConfig) -> None:
    """JSON checkpoint; float64 values survive the round trip exactly."""
    payload = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(config),
        "params": {name: t.data.tolist() for name, t in params.named().items()},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _stored_config(path, stored) -> ModelConfig:
    """ModelConfig from a checkpoint's config object, every key and type checked."""
    if not isinstance(stored, dict):
        raise ValidationError(f"{path}: checkpoint has no config object")
    stored = dict(stored)
    # Checkpoints from before the sparsity_tau knob was removed carry it, null
    # unless the model was trained with that approximation switched on.
    if stored.pop("sparsity_tau", None) is not None:
        raise ValidationError(f"{path}: checkpoint was trained with sparsity_tau, "
                              "which is no longer supported")
    # annotations are strings here ("int", "str", "bool"); JSON gives exactly
    # those types, and a bool is never accepted where an int is expected
    types = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
    unknown = sorted(set(stored) - set(types))
    if unknown:
        raise ValidationError(f"{path}: unknown config keys {unknown}")
    missing = [name for name in types if name not in stored]
    if missing:
        raise ValidationError(f"{path}: config keys missing {missing}")
    for name, type_name in types.items():
        if type(stored[name]).__name__ != type_name:
            raise ValidationError(f"{path}: config key '{name}' must be {type_name}, "
                                  f"got {stored[name]!r}")
    return ModelConfig(**stored)


def load_checkpoint(path):
    """Read a checkpoint back as (params, config)."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("magic") != CHECKPOINT_MAGIC:
        raise ValidationError(f"{path}: not a checkpoint file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValidationError(f"{path}: unsupported checkpoint version "
                              f"{payload.get('version')}")
    config = _stored_config(path, payload.get("config"))
    stored = payload.get("params")
    if not isinstance(stored, dict):
        raise ValidationError(f"{path}: checkpoint has no params object")
    shapes = param_shapes(config)
    extra = set(stored) - set(shapes)
    if extra:
        raise ValidationError(f"{path}: unexpected parameters {sorted(extra)}")

    def grab(name: str) -> Tensor:
        if name not in stored:
            raise ValidationError(f"{path}: checkpoint missing parameter '{name}'")
        try:
            values = np.asarray(stored[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: parameter '{name}': {exc}") from exc
        if values.shape != shapes[name]:
            raise ValidationError(f"{path}: parameter '{name}' has shape {values.shape}, "
                                  f"the config implies {shapes[name]}")
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"{path}: parameter '{name}' has non-finite values")
        return Tensor(values, requires_grad=True)

    comp_s = comp_k = None
    if config.mask_mode != "off":
        comp_s = CompensatorParams(
            [(grab(f"static_comp_weight_{s}"), grab(f"static_comp_bias_{s}"))
             for s in range(config.steps)])
        comp_k = CompensatorParams(
            [(grab(f"adaptive_comp_weight_{s}"), grab(f"adaptive_comp_bias_{s}"))
             for s in range(config.steps)])
    mask_s = mask_k = None
    if config.mask_mode == "learned":
        mask_s = LearnedMaskParams(grab("static_mask_weight"), grab("static_mask_bias"))
        mask_k = LearnedMaskParams(grab("adaptive_mask_weight"), grab("adaptive_mask_bias"))

    params = ModelParams(
        w_input=grab("input_projection"),
        e_node=NodeEmbeddings(grab("node_embeddings")),
        vf_static=VectorFieldParams(grab("static_field_weight"), grab("static_field_bias")),
        vf_adaptive=VectorFieldParams(grab("adaptive_field_weight"), grab("adaptive_field_bias")),
        w_out=grab("readout_weight"), b_out=grab("readout_bias"),
        comp_static=comp_s, comp_adaptive=comp_k,
        mask_static=mask_s, mask_adaptive=mask_k)
    return params, config
