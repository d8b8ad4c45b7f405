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
from .dynamics import (MASK_MODES, CompensatorParams, EvolveResult,
                       LearnedMaskParams, NFECounter, VectorFieldParams, evolve)
from .errors import DimensionError, ParseError, ValidationError, read_text
from .graph import NodeEmbeddings, adaptive_adjacency

CHECKPOINT_MAGIC = "odegate-checkpoint"
CHECKPOINT_VERSION = 1
MAX_STEPS = 1000   # integration steps per unit time; each costs 2 NFEs per stream


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
        if self.steps > MAX_STEPS:
            raise ValidationError(f"ModelConfig.steps={self.steps} exceeds "
                                  f"the ceiling of {MAX_STEPS}")
        if self.mask_mode not in MASK_MODES:
            raise ValidationError(f"ModelConfig.mask_mode '{self.mask_mode}' "
                                  f"is not one of {list(MASK_MODES)}")

    @property
    def hidden_dim(self) -> int:
        return self.proj_dim + self.embed_dim

    @property
    def dt(self) -> float:
        return 1.0 / self.steps


def param_shapes(config: ModelConfig) -> dict:
    """Name -> shape of every parameter the config implies, in draw order.

    The one description of the parameter set; checkpoints use these names.
    """
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


class ModelParams:
    """Every parameter, as one name -> Tensor map in `param_shapes` order.

    The per-stream views that `forward` reads hold the same Tensor objects,
    so an in-place update through `named()` is what the next forward sees.
    """

    def __init__(self, tensors: dict):
        self._tensors = dict(tensors)
        t = self._tensors

        def pair(prefix: str, suffix: str = "") -> tuple:
            return t[f"{prefix}_weight{suffix}"], t[f"{prefix}_bias{suffix}"]

        def stream(name: str) -> tuple:
            per_step = []
            while f"{name}_comp_weight_{len(per_step)}" in t:
                per_step.append(pair(f"{name}_comp", f"_{len(per_step)}"))
            return (VectorFieldParams(*pair(f"{name}_field")),
                    CompensatorParams(per_step) if per_step else None,
                    LearnedMaskParams(*pair(f"{name}_mask"))
                    if f"{name}_mask_weight" in t else None)

        self.w_input = t["input_projection"]
        self.e_node = NodeEmbeddings(t["node_embeddings"])
        self.vf_static, self.comp_static, self.mask_static = stream("static")
        self.vf_adaptive, self.comp_adaptive, self.mask_adaptive = stream("adaptive")
        self.w_out, self.b_out = pair("readout")

    def named(self) -> dict:
        """Fixed-order name -> Tensor map over every parameter present."""
        return dict(self._tensors)

    @property
    def count(self) -> int:
        return sum(t.size for t in self._tensors.values())

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            t.zero_grad()

    def copy(self) -> "ModelParams":
        """Deep copy of the parameter values (used for best-epoch snapshots)."""
        return ModelParams({name: Tensor(t.data, requires_grad=t.requires_grad)
                            for name, t in self._tensors.items()})


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Seeded initialization in `param_shapes` order.

    Matrices are Glorot-uniform draws and biases zeros, so equal seeds give
    equal parameters.
    """
    rng = np.random.default_rng(seed)

    def draw(shape: tuple) -> Tensor:
        if len(shape) == 1:
            return Tensor(np.zeros(shape), requires_grad=True)
        limit = np.sqrt(6.0 / sum(shape))
        return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)

    return ModelParams({name: draw(shape)
                        for name, shape in param_shapes(config).items()})


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
            tape: Tape | None = None, collect_masks: bool = False) -> ForwardResult:
    """Run both streams from the shared initial state and decode the horizon.

    With collect_masks, each stream returns its per-step gate arrays.
    """
    n = config.n_nodes
    if ahat.shape != (n, n):
        raise DimensionError(f"forward: static operator {ahat.shape}, expected {(n, n)}")

    h0 = initialize_state(x, params, config, tape)
    a_adaptive = adaptive_adjacency(params.e_node, tape)

    common = dict(steps=config.steps, dt=config.dt, mask_mode=config.mask_mode,
                  mask_grad=config.mask_grad, tape=tape, collect_masks=collect_masks)
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
    try:
        payload = json.loads(read_text(path))
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

    return ModelParams({name: grab(name) for name in shapes}), config
