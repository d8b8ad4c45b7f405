"""Training loop, ablation variants, and evaluation metrics.

Variants differ only in how the gate is produced and whether the compensator
runs; everything else (data order, seeds, optimizer) is held fixed so ablation
comparisons isolate the mechanism:

  full              gate = sigmoid(truncation error)
  no_lte            gate = sigmoid(affine of state), error signal unused
  no_compensation   pure RK2 stream, no jumps at all
  no_mask           jumps applied everywhere, gate pinned to 1
  manifold_penalty  full plus lam * mean(error) added to the loss

The penalty variant exists to demonstrate a failure mode: pushing the error
toward zero drives every gate to sigmoid(0) = 0.5 and the gate stops
discriminating.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (Tape, Tensor, add, all_finite, axpy, backward, mean_abs_error,
                       mean_all)
from .data import ForecastDataset, WindowSet
from .dynamics import GateStats
from .errors import ContractError, NumericError, ValidationError, require_finite
from .graph import normalize_adjacency
from .model import ModelConfig, ModelParams, forward, init_params

HIST_BINS = 20   # mask_report histogram bins over [0, 1]

VARIANTS = {
    "full": "lte",
    "no_lte": "learned",
    "no_compensation": "off",
    "no_mask": "uniform_one",
    "manifold_penalty": "lte",
}


def config_for_variant(base: ModelConfig, variant: str) -> ModelConfig:
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant '{variant}', "
                              f"expected one of {sorted(VARIANTS)}")
    return dataclasses.replace(base, mask_mode=VARIANTS[variant])


@dataclass(frozen=True)
class TrainConfig:
    variant: str = "full"
    lam: float = 0.0
    lr: float = 3e-3
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    patience: int = 10
    clip_norm: float = 5.0

    def __post_init__(self):
        require_finite(self)
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant '{self.variant}'")
        if self.lam < 0:
            raise ValidationError("lam must be >= 0")
        if self.lam != 0.0 and self.variant != "manifold_penalty":
            raise ValidationError(
                "lam is only meaningful for the manifold_penalty variant")
        if self.lr <= 0:
            raise ValidationError("lr must be positive")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValidationError("patience must be >= 1")
        if self.clip_norm <= 0:
            raise ValidationError("clip_norm must be positive")


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    t: int = 0
    moments: dict = field(default_factory=dict)   # name -> (m, v)

    def ensure(self, named: dict) -> None:
        for name, p in named.items():
            if name not in self.moments:
                self.moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))


def check_finite_grads(named: dict) -> None:
    for name, p in named.items():
        if p.grad is not None and not all_finite(p.grad):
            raise NumericError(f"gradient for '{name}' is non-finite")


def clip_gradients(named: dict, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm."""
    sq = 0.0
    for p in named.values():
        if p.grad is not None:
            sq += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(sq))
    if norm > max_norm:
        factor = max_norm / norm
        for p in named.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


def adam_step(named: dict, state: AdamState, lr: float) -> None:
    state.ensure(named)
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in named.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m, v = state.moments[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def batch_loss(result, y: Tensor, lam: float, tape: Tape):
    """MAE plus, when lam != 0, lam times the mean per-entry truncation error.

    The penalty is the mean over every collected error tensor, one per step
    per stream, of that tensor's mean entry.

    With lam == 0 no penalty nodes are built at all, so a zero-lam penalty run
    is bit-identical to the full variant.  A penalty needs the errors that
    `forward` returns only when called with collect_lte=True.
    """
    mae = mean_abs_error(result.y_hat, y, tape)
    if lam == 0.0:
        return mae
    if result.lte is None:
        raise ContractError(f"batch_loss: lam={lam} needs the truncation errors; "
                            "run forward with collect_lte=True")
    acc = None
    for e in result.lte:
        m = mean_all(e, tape)
        acc = m if acc is None else add(acc, m, tape)
    return axpy(mae, acc, lam / len(result.lte), tape)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: ModelParams
    model_config: ModelConfig
    train_config: TrainConfig
    history: list
    best_epoch: int
    best_val_mae: float
    timing: dict      # seconds per phase, summed over epochs; see TIMING_PHASES


def _split_windows(dataset: ForecastDataset, split: str, caller: str) -> WindowSet:
    """The windows of one split; an empty split is bad data, not an empty result."""
    windows = dataset.splits[split]
    if windows.count == 0:
        raise ValidationError(f"{caller}: split '{split}' has no windows")
    return windows


def _forward_batches(params, config, ahat, windows: WindowSet, batch_size: int,
                     collect_masks: bool = False):
    """Tape-free forward over a window set; yields (slice, ForwardResult)."""
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    for lo in range(0, windows.count, batch_size):
        hi = min(lo + batch_size, windows.count)
        x = Tensor(windows.x[lo:hi])
        yield slice(lo, hi), forward(x, ahat, params, config,
                                     tape=None, collect_masks=collect_masks)


def predict(params, config, ahat, windows: WindowSet,
            batch_size: int = 64) -> np.ndarray:
    """Scaled-unit predictions [count, n_nodes, horizon] for a window set."""
    out = np.zeros((windows.count, config.n_nodes, config.horizon))
    for sl, res in _forward_batches(params, config, ahat, windows, batch_size):
        out[sl] = res.y_hat.data
    return out


def _val_mae(params, config, ahat, windows: WindowSet, batch_size: int) -> float:
    y_hat = predict(params, config, ahat, windows, batch_size)
    return float(np.mean(np.abs(y_hat - windows.y)))


TIMING_PHASES = ("forward", "backward", "clip", "adam", "validate", "total")


def train(dataset: ForecastDataset, model_config: ModelConfig,
          train_config: TrainConfig, log=None) -> TrainResult:
    """Seeded minibatch training with early stopping on validation MAE.

    `timing` sums wall seconds per phase over all epochs: forward (with the
    loss), backward (with the finite-gradient check), clip, adam, validate,
    and the total of the loop, which also holds the bookkeeping in between.
    """
    if model_config.mask_mode != VARIANTS[train_config.variant]:
        raise ContractError(
            f"model mask_mode '{model_config.mask_mode}' does not match "
            f"variant '{train_config.variant}'")
    train_set = _split_windows(dataset, "train", "train")
    val_set = _split_windows(dataset, "val", "train")
    ahat = normalize_adjacency(dataset.graph)
    params = init_params(model_config, seed=train_config.seed)
    opt = AdamState()
    rng = np.random.default_rng(train_config.seed)

    best = params.copy()
    best_val = float("inf")
    best_epoch = -1
    history = []
    timing = dict.fromkeys(TIMING_PHASES, 0.0)
    clock = time.perf_counter
    start = clock()

    for epoch in range(train_config.epochs):
        order = rng.permutation(train_set.count)
        losses = []
        grad_norms = []
        gate = GateStats()
        for b, lo in enumerate(range(0, train_set.count, train_config.batch_size)):
            idx = order[lo:lo + train_config.batch_size]
            try:
                t0 = clock()
                tape = Tape()
                x = Tensor(train_set.x[idx])
                y = Tensor(train_set.y[idx])
                res = forward(x, ahat, params, model_config, tape,
                              collect_masks=True,
                              collect_lte=train_config.lam != 0.0)
                for m in res.masks:
                    gate.add(m)
                loss = batch_loss(res, y, train_config.lam, tape)
                # Without the result, backward frees each gate mask as it pops
                # that step's jump, and no field of it reaches the next batch.
                # `m` keeps the last mask alive on purpose: at the top of the
                # heap, it stops glibc from trimming the batch's pages, which
                # the next forward would fault in again. At N=300 a taped
                # forward after a call's first batch faults 1-7k pages with
                # it and 10-17k without.
                del res
                t1 = clock()
                params.zero_grad()
                backward(loss, tape)
                named = params.named()
                check_finite_grads(named)
                t2 = clock()
                grad_norms.append(clip_gradients(named, train_config.clip_norm))
                t3 = clock()
                adam_step(named, opt, train_config.lr)
                t4 = clock()
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} batch {b}: {exc}") from exc
            losses.append(loss.item())
            timing["forward"] += t1 - t0
            timing["backward"] += t2 - t1
            timing["clip"] += t3 - t2
            timing["adam"] += t4 - t3

        t0 = clock()
        val_mae = _val_mae(params, model_config, ahat, val_set,
                           train_config.batch_size)
        timing["validate"] += clock() - t0
        entry = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "val_mae": val_mae,
            "m_mean": gate.mean,
            "m_std": gate.std,
            "grad_norm": float(np.mean(grad_norms)),
            "clip_frac": float(np.mean(np.array(grad_norms) > train_config.clip_norm)),
        }
        history.append(entry)
        if log is not None:
            log(f"epoch {epoch}: train_loss={entry['train_loss']:.6f} "
                f"val_mae={val_mae:.6f} m_mean={entry['m_mean']:.4f}")

        if val_mae < best_val:
            best_val = val_mae
            best_epoch = epoch
            best = params.copy()
        elif epoch - best_epoch >= train_config.patience:
            break

    timing["total"] = clock() - start
    return TrainResult(params=best, model_config=model_config,
                       train_config=train_config, history=history,
                       best_epoch=best_epoch, best_val_mae=best_val, timing=timing)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

MAPE_FLOOR = 1e-3   # original-unit magnitudes below this are skipped


@dataclass(frozen=True)
class EvalReport:
    mae: float
    rmse: float
    mape: float
    count: int


def evaluate(params, model_config: ModelConfig, dataset: ForecastDataset,
             split: str = "test", batch_size: int = 64) -> EvalReport:
    """Metrics in original units; MAPE skips near-zero targets."""
    windows = _split_windows(dataset, split, "evaluate")
    ahat = normalize_adjacency(dataset.graph)
    y_hat = dataset.scaler.inverse(
        predict(params, model_config, ahat, windows, batch_size))
    y = dataset.scaler.inverse(windows.y)
    err = y_hat - y
    keep = np.abs(y) >= MAPE_FLOOR
    mape = (float(np.mean(np.abs(err[keep]) / np.abs(y[keep]))) * 100.0
            if np.any(keep) else float("nan"))
    return EvalReport(mae=float(np.mean(np.abs(err))),
                      rmse=float(np.sqrt(np.mean(err * err))),
                      mape=mape, count=windows.count)


# ---------------------------------------------------------------------------
# mask statistics over a split
# ---------------------------------------------------------------------------

@dataclass
class MaskReport:
    mean: float
    std: float
    p95: float
    histogram: list               # HIST_BINS counts over [0, 1]
    shock_mean: float             # cells whose input window contains a shock
    nonshock_mean: float
    shock_p95: float
    shock_cells: int
    nonshock_cells: int


def shock_cell_matrix(windows: WindowSet, events, window_len: int) -> np.ndarray:
    """Boolean [count, n_nodes]: does a logged shock land in this input window."""
    n = windows.x.shape[1]
    cells = np.zeros((windows.count, n), dtype=bool)
    starts = windows.origins
    for ev in events:
        hit = (starts <= ev.t) & (ev.t < starts + window_len)
        cells[hit, ev.node] = True
    return cells


def mask_report(params, model_config: ModelConfig, dataset: ForecastDataset,
                split: str = "test", batch_size: int = 64) -> MaskReport:
    """Aggregate gate statistics over both streams and all steps of a split."""
    if model_config.mask_mode == "off":
        raise ContractError("mask_report: variant has no gate to report")
    windows = _split_windows(dataset, split, "mask_report")
    ahat = normalize_adjacency(dataset.graph)
    cells = shock_cell_matrix(windows, dataset.events, dataset.window)

    shock_sum = nonshock_sum = 0.0
    shock_n = nonshock_n = 0
    shock_samples = []
    samples = []

    for sl, res in _forward_batches(params, model_config, ahat, windows,
                                    batch_size, collect_masks=True):
        batch_cells = cells[sl]
        for m in res.masks:
            shock_vals = m[batch_cells]
            non_vals = m[~batch_cells]
            shock_sum += float(shock_vals.sum())
            shock_n += shock_vals.size
            nonshock_sum += float(non_vals.sum())
            nonshock_n += non_vals.size
            if shock_vals.size:
                shock_samples.append(shock_vals.ravel())
            # a batch-major view, flattened where it lies
            samples.append(m.ravel(order="K"))

    all_vals = np.concatenate(samples)
    hist = np.histogram(all_vals, bins=HIST_BINS, range=(0.0, 1.0))[0]
    shock_vals = (np.concatenate(shock_samples) if shock_samples
                  else np.array([np.nan]))
    return MaskReport(
        mean=float(np.mean(all_vals)), std=float(np.std(all_vals)),
        p95=float(np.percentile(all_vals, 95)),
        histogram=[int(c) for c in hist],
        shock_mean=float(shock_sum / shock_n) if shock_n else float("nan"),
        nonshock_mean=float(nonshock_sum / nonshock_n) if nonshock_n else float("nan"),
        shock_p95=float(np.percentile(shock_vals, 95)),
        shock_cells=int(shock_n), nonshock_cells=int(nonshock_n))
