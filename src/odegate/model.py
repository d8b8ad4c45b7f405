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
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .autodiff import (Tape, Tensor, affine, all_finite, backward, concat_channels,
                       expand_batch, mean_abs_error, swap_leading)
from .dynamics import MASK_MODES, NFECounter, evolve
from .errors import ContractError, DimensionError, ValidationError, read_json, write_json
from .graph import adaptive_adjacency

CHECKPOINT_MAGIC = "odegate-checkpoint"
CHECKPOINT_VERSION = 1
MAX_STEPS = 1000   # integration steps per unit time; each costs 2 NFEs per stream
STREAMS = ("static", "adaptive")   # graph streams, in parameter and readout order
# removed config keys -> the value (and JSON type) under which old checkpoints still load
RETIRED_CONFIG_KEYS = {"sparsity_tau": None, "in_dim": 1}


@dataclass(frozen=True)
class ModelConfig:
    n_nodes: int
    window: int = 12
    horizon: int = 12
    proj_dim: int = 30
    embed_dim: int = 10
    steps: int = 4
    mask_mode: str = "lte"
    mask_grad: bool = False

    def __post_init__(self):
        for name in ("n_nodes", "window", "horizon", "proj_dim", "embed_dim", "steps"):
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


def param_shapes(config: ModelConfig) -> dict:
    """Name -> shape of every parameter the config implies, in draw order.

    The one description of the parameter set; checkpoints use these names.
    """
    d_h = config.hidden_dim
    square, vector = (d_h, d_h), (d_h,)
    shapes = {"input_projection": (config.window, config.proj_dim),
              "node_embeddings": (config.n_nodes, config.embed_dim)}

    def per_stream(block: str, suffixes=("",)) -> None:
        # stream-major within a block: the draw order checkpoints were made in
        for name in STREAMS:
            for suffix in suffixes:
                shapes[f"{name}_{block}_weight{suffix}"] = square
                shapes[f"{name}_{block}_bias{suffix}"] = vector

    per_stream("field")
    if config.mask_mode != "off":
        per_stream("comp", [f"_{s}" for s in range(config.steps)])
    if config.mask_mode == "learned":
        per_stream("mask")
    shapes["readout_weight"] = (len(STREAMS) * d_h, config.horizon)
    shapes["readout_bias"] = (config.horizon,)
    return shapes


class ModelParams:
    """Every parameter, as one name -> Tensor map in `param_shapes` order.

    `streams` maps each of `STREAMS` to its tensors as `evolve` keywords:
    `field`, the (weight, bias) pair of its field; `jumps`, one pair per step
    (empty with mask_mode 'off'); `learned_mask`, the learned gate's pair or
    None.  They are the very Tensor objects of `named()`, so an in-place
    update through `named()` is what the next forward sees.
    """

    def __init__(self, tensors: dict):
        self._tensors = dict(tensors)
        t = self._tensors

        def pair(prefix: str, suffix: str = "") -> tuple:
            return t[f"{prefix}_weight{suffix}"], t[f"{prefix}_bias{suffix}"]

        def stream(name: str) -> dict:
            jumps = []
            while f"{name}_comp_weight_{len(jumps)}" in t:
                jumps.append(pair(f"{name}_comp", f"_{len(jumps)}"))
            return {"field": pair(f"{name}_field"), "jumps": jumps,
                    "learned_mask": pair(f"{name}_mask")
                    if f"{name}_mask_weight" in t else None}

        self.w_input = t["input_projection"]
        self.e_node = t["node_embeddings"]
        self.streams = {name: stream(name) for name in STREAMS}
        self.w_out, self.b_out = pair("readout")
        self._adaptive = None   # (key of the embedding table, the operator built from it)

    def _adaptive_operator(self) -> Tensor:
        """The adaptive operator of the embedding table, off the tape.

        It is rebuilt, through `adaptive_adjacency`, only when the table
        differs from the one the kept operator was built from.  The table is
        compared by its exact shape and bytes, never by identity: the
        optimizer and the tests write `.data` in place.
        """
        table = self.e_node.data
        key = (table.shape, table.tobytes())
        if self._adaptive is None or self._adaptive[0] != key:
            self._adaptive = (key, adaptive_adjacency(self.e_node))
        return self._adaptive[1]

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
    """What `forward` returns: batch-major [B,N,*] views of its states.

    Inside `forward` every state is node-major, [N,B,d], so each graph
    product is one matrix product over [N, B*d].  `y_hat` and the error
    tensors stay on the tape; their gradients reach the node-major tensors
    they view (see `autodiff.swap_leading`).  `lte` and `masks` list every
    step of the first of `STREAMS`, then every step of the second.
    """

    y_hat: Tensor                 # [batch, n_nodes, horizon]
    nfe_static: int
    nfe_adaptive: int
    lte: list | None = None       # per-step error tensors, on the tape, when collected
    masks: list | None = None     # per-step gate arrays [batch, n_nodes, d_h]


def initialize_state(x: Tensor, params: ModelParams, config: ModelConfig,
                     tape: Tape | None = None) -> Tensor:
    """Shared node-major initial state [N,B,d_h] of an input x[B,N,T,1].

    Per node and window: the window's projection, then the node embedding.
    """
    if x.data.ndim != 4:
        raise DimensionError(f"initialize_state: input must be [B,N,T,1], got {x.shape}")
    b, n, t, d = x.shape
    if (n, t, d) != (config.n_nodes, config.window, 1):
        raise DimensionError(
            f"initialize_state: input {x.shape} does not match config "
            f"(n_nodes={config.n_nodes}, window={config.window}, one channel)")
    # x's data was copied and checked when x was built and is never mutated,
    # so its swapped windows need neither a second copy nor a second check
    windows = Tensor._wrap(x.data.swapaxes(0, 1).reshape(n, b, t))
    proj = affine(windows, params.w_input, tape=tape)
    emb = expand_batch(params.e_node, b, tape)
    return concat_channels(proj, emb, tape)


def forward(x: Tensor, ahat: Tensor, params: ModelParams, config: ModelConfig,
            tape: Tape | None = None, collect_masks: bool = False,
            collect_lte: bool = False) -> ForwardResult:
    """Run both streams from the shared initial state and decode the horizon.

    The streams run node-major, one `evolve` each, and the results are
    batch-major views (see `ForwardResult`).  With collect_masks, `masks`
    holds every stream's per-step gate arrays.  With collect_lte, `lte` holds
    every stream's per-step error tensors, on the tape, for a loss that
    differentiates them (the smoothness penalty); without it, `lte` is None
    and no error outlives its step or enters the tape unless mask_grad
    differentiates the gate.  A stream that makes other than two field
    evaluations per step raises `ContractError`.
    """
    n = config.n_nodes
    if ahat.shape != (n, n):
        raise DimensionError(f"forward: static operator {ahat.shape}, expected {(n, n)}")

    h0 = initialize_state(x, params, config, tape)
    # a taped forward builds its own operator, on its tape, for the table's gradient
    a_adaptive = (params._adaptive_operator() if tape is None
                  else adaptive_adjacency(params.e_node, tape))

    common = dict(steps=config.steps, mask_mode=config.mask_mode,
                  mask_grad=config.mask_grad, tape=tape, collect_lte=collect_lte,
                  collect_masks=collect_masks)
    finals, nfe = [], {}
    lte = [] if collect_lte else None
    masks = [] if collect_masks else None
    for name, a_op in zip(STREAMS, (ahat, a_adaptive)):
        counter = NFECounter()
        res = evolve(h0, a_op=a_op, nfe=counter, **params.streams[name], **common)
        if counter.count != 2 * config.steps:
            raise ContractError(f"forward: the {name} stream made {counter.count} field "
                                f"evaluations, expected {2 * config.steps}")
        finals.append(res.h_final)
        nfe[f"nfe_{name}"] = counter.count
        if collect_lte:
            lte += [swap_leading(e) for e in res.lte]
        if collect_masks:
            masks += [m.swapaxes(0, 1) for m in res.masks]

    merged = concat_channels(*finals, tape)
    readout = affine(merged, params.w_out, params.b_out, tape)
    return ForwardResult(y_hat=swap_leading(readout), lte=lte, masks=masks, **nfe)


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlopReport:
    """Per-forward FLOP estimate (2 per multiply-accumulate, batch of 1).

    Elementwise work (activations, masks, state updates) is excluded; the
    matrix products dominate.  The solver term is exactly linear in the step
    count: steps * 2 evaluations * 2 streams * one evaluation's cost.
    `graph_build` is one build of the adaptive operator, which a taped
    forward always does; a tape-free forward does it only when its
    parameters' embedding table changed since the last build (see
    `ModelParams._adaptive_operator`), so a run of requests pays it once.
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
    b, s, k = batch_size, config.steps, len(STREAMS)
    per_eval = n * n * d_h + n * d_h * d_h          # propagate + shared affine
    comp_active = config.mask_mode != "off"
    return FlopReport(
        encoder=2 * b * n * config.window * config.proj_dim,
        graph_build=2 * n * n * config.embed_dim,
        solver=2 * b * k * 2 * s * per_eval,
        compensation=(2 * b * k * s * n * d_h * d_h) if comp_active else 0,
        mask=(2 * b * k * s * n * d_h * d_h) if config.mask_mode == "learned" else 0,
        decoder=2 * b * n * k * d_h * config.horizon)


def tape_peak_bytes(x: Tensor, ahat: Tensor, params: ModelParams,
                    config: ModelConfig) -> int:
    """Peak bytes allocated by one taped forward plus backward, by tracemalloc.

    The forward is the one a default training batch runs, which collects no
    truncation errors, and the loss is the training MAE against a zero target.
    The count covers the tape, the gradients and the transient arrays of both
    passes: the memory a training batch needs at this step count.  It still
    counts every Python-level allocation, so one untraced pass runs first:
    the caches and free lists that pass fills no longer depend on what the
    process ran before.  The gradients are cleared after each pass, so the
    traced pass allocates them afresh, as a training batch does.  Inside a
    caller's tracemalloc session the count starts from the traced size at
    entry, and the session stays on.
    """
    y = Tensor(np.zeros((x.shape[0], config.n_nodes, config.horizon)))

    def one_pass():
        tape = Tape()
        res = forward(x, ahat, params, config, tape)
        backward(mean_abs_error(res.y_hat, y, tape), tape)
        params.zero_grad()

    one_pass()
    nested = tracemalloc.is_tracing()   # a caller's session stays on
    if nested:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    entry = tracemalloc.get_traced_memory()[0]
    try:
        one_pass()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        if not nested:
            tracemalloc.stop()


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
    write_json(path, payload)


def _stored_config(path, stored) -> ModelConfig:
    """ModelConfig from a checkpoint's config object, every key and type checked."""
    if not isinstance(stored, dict):
        raise ValidationError(f"{path}: checkpoint has no config object")
    stored = dict(stored)
    for key, kept in RETIRED_CONFIG_KEYS.items():
        value = stored.pop(key, kept)
        if type(value) is not type(kept) or value != kept:
            raise ValidationError(f"{path}: checkpoint was trained with {key}="
                                  f"{json.dumps(value)}, which is no longer supported")
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
    payload = read_json(path)
    if payload.get("magic") != CHECKPOINT_MAGIC:
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
        if not all_finite(values):
            raise ValidationError(f"{path}: parameter '{name}' has non-finite values")
        return Tensor(values, requires_grad=True)

    return ModelParams({name: grab(name) for name in shapes}), config
