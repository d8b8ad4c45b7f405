"""The benchmark's workloads: set-up, the measured closed loop, output checks.

Every workload drives odegate through its public API only and builds all of
its inputs from the workload seed.  An operation is one training epoch
(train-*) or one predict request (forecast-n20); an operation fails when the
library raises `OdegateError` or an output check rejects its result.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from odegate import autodiff, data, graph, model, training
from odegate.errors import OdegateError

from pace import REFERENCE_S, Pace
from spans import (Recorder, coverage, layer_metrics, replace_everywhere, restore,
                   span_rows)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "train" or "forecast"
    n_nodes: int
    total_t: int
    epochs: int = 1           # per train() call
    min_requests: int = 0     # untraced forecast runs send at least this many
    sample_every: int = 20    # one request in this many is re-run on a tape
    setups: int = 7           # set-up repetitions; setup_s is their median


WORKLOADS = {
    # The default scenario users train on; small arrays, so per-op Python
    # dispatch, tape bookkeeping and the per-step trace stats dominate.
    "train-n20": Workload("train-n20", "train", n_nodes=20, total_t=2000, epochs=2),
    # Past ~100 nodes the dense N x N propagate and backward dominate.
    # total_t=180 keeps 3 batches per epoch (85 windows), so several train()
    # calls fit one run.
    "train-n300": Workload("train-n300", "train", n_nodes=300, total_t=180, epochs=2),
    # Online serving: tape-free forward only, one window per request.
    "forecast-n20": Workload("forecast-n20", "forecast", n_nodes=20, total_t=2000,
                             min_requests=1000),
}


@dataclass
class Outcome:
    """What one run measured: last-line metrics, the printed report, trace."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)      # name -> (value, unit)
    report: list = field(default_factory=list)       # (name, value, unit, note)
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)      # raw per-op and pace seconds

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)


@dataclass
class Setup:
    dataset: data.ForecastDataset
    model_config: model.ModelConfig
    ahat: autodiff.Tensor
    params: model.ModelParams


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(w: Workload, seed: int, work_dir: str) -> Setup:
    """Scenario -> 4 dataset files -> load -> windows -> operator -> params."""
    os.makedirs(work_dir, exist_ok=True)
    scenario = data.ShockScenario(n_nodes=w.n_nodes, total_t=w.total_t, seed=seed)
    spatial = data.default_graph(w.n_nodes, seed=seed)
    series, events = data.generate_shock_series(scenario, spatial)
    data.write_dataset_files(work_dir, scenario, spatial, series, events)
    series, events, spatial, _meta = data.load_dataset_files(work_dir)
    dataset = data.build_dataset(series, events, spatial)
    ahat = graph.normalize_adjacency(dataset.graph)
    config = training.config_for_variant(model.ModelConfig(n_nodes=w.n_nodes), "full")
    params = model.init_params(config, seed=seed)
    if w.kind == "forecast":
        path = os.path.join(work_dir, "checkpoint.json")
        model.save_checkpoint(path, params, config)
        params, config = model.load_checkpoint(path)
    return Setup(dataset, config, ahat, params)


def timed_setups(w: Workload, seed: int, work_root: str, pace: Pace | None):
    """Run the set-up `w.setups` times.

    Returns the last Setup, the raw seconds of each, and (with `pace`) each
    corrected by the kernel timed before and after it.
    """
    raw, fixed = [], []
    s = None
    before = pace.burst() if pace else 0.0
    for k in range(w.setups):
        t0 = time.perf_counter()
        s = set_up(w, seed, os.path.join(work_root, f"setup{k}"))
        raw.append(time.perf_counter() - t0)
        if pace:
            after = pace.burst()
            fixed.append(pace.corrected(raw[-1], (before + after) / 2))
            before = after
    return s, raw, fixed


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def param_hash(params: model.ModelParams) -> str:
    h = hashlib.sha256()
    for name, t in params.named().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


def val_mae(params, s: Setup) -> float:
    val = s.dataset.splits["val"]
    y_hat = training.predict(params, s.model_config, s.ahat, val)
    return float(np.mean(np.abs(y_hat - val.y)))


@dataclass
class TrainCall:
    epoch_s: list
    kernel_s: list            # median pace kernel seconds during each epoch
    wall_s: float
    result: training.TrainResult | None
    error: str | None


class StepSampler:
    """Times the pace kernel after every `adam_step`, i.e. once per batch.

    Host speed changes within an epoch, so one sample per batch tracks it far
    better than samples between epochs. The sampling time is kept in `spent`
    and taken out of the epoch times.
    """

    def __init__(self, pace: Pace | None):
        self.pace = pace
        self.samples: list[float] = []
        self.spent = 0.0
        self._patches: list = []

    def sample(self) -> None:
        if self.pace is None:
            return
        t0 = time.perf_counter()
        self.samples.append(self.pace.sample())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        original = getattr(training, "adam_step", None)
        if self.pace is not None and original is not None:
            def adam_step(*args, **kwargs):
                result = original(*args, **kwargs)
                self.sample()
                return result
            replace_everywhere(original, adam_step, self._patches)
        return self

    def __exit__(self, *exc):
        restore(self._patches)


def train_call(s: Setup, tc: training.TrainConfig, pace: Pace | None) -> TrainCall:
    """One train() call; epochs are timed from train()'s per-epoch log line."""
    sampler = StepSampler(pace)
    marks = []   # (epoch end, samples so far, sampling seconds so far)

    def log(_line):
        marks.append((time.perf_counter(), len(sampler.samples), sampler.spent))
        for _ in range(5):
            sampler.sample()

    for _ in range(5):   # samples for the first epoch
        sampler.sample()
    spent_t0 = sampler.spent
    t0 = time.perf_counter()
    with sampler:
        try:
            result = training.train(s.dataset, s.model_config, tc, log=log)
            error = None
        except OdegateError as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    epoch_s, kernel_s = [], []
    start, n0, spent0 = t0, 0, spent_t0
    for end, n, spent in marks:
        epoch_s.append(end - start - (spent - spent0))
        kernel_s.append(statistics.median(sampler.samples[n0:n]) if n > n0 else 0.0)
        start, n0, spent0 = end, n, spent
    return TrainCall(epoch_s, kernel_s, wall, result, error)


def check_train_call(call: TrainCall, epochs: int, untrained_mae: float,
                     ref_hash: str | None, out: Outcome) -> str | None:
    """Count the call's failed epochs into `out`; returns its parameter hash."""
    out.attempted += epochs
    if call.error is not None:
        out.fail(epochs - len(call.epoch_s), f"train raised {call.error}")
        return None
    res = call.result
    bad = [h["epoch"] for h in res.history
           if not (np.isfinite(h["train_loss"]) and np.isfinite(h["val_mae"]))]
    if bad:
        out.fail(len(bad), f"non-finite loss or val_mae in epochs {bad}")
    digest = param_hash(res.params)
    reason = None
    if len(res.history) != epochs:
        reason = f"ran {len(res.history)} of {epochs} epochs"
    elif not np.isfinite(res.best_val_mae):
        reason = "best_val_mae is not finite"
    elif not res.best_val_mae < untrained_mae:
        reason = f"val_mae {res.best_val_mae} does not beat untrained {untrained_mae}"
    elif ref_hash is not None and digest != ref_hash:
        reason = "final parameters differ from the first call with the same seed"
    if reason is not None:
        out.fail(epochs - len(bad), reason)
    return digest


def check_forecast_samples(s: Setup, test, samples, out: Outcome) -> None:
    """A taped forward() must equal predict() exactly, at 2*steps NFE per stream."""
    steps = s.model_config.steps
    for idx, y_pred in samples:
        tape = autodiff.Tape()
        res = model.forward(autodiff.Tensor(test.x[idx:idx + 1]), s.ahat, s.params,
                            s.model_config, tape)
        if not np.array_equal(res.y_hat.data, y_pred):
            out.fail(1, f"request on test window {idx}: predict() differs from taped forward()")
        elif (res.nfe_static, res.nfe_adaptive) != (2 * steps, 2 * steps):
            out.fail(1, f"request on test window {idx}: NFE {res.nfe_static}/"
                        f"{res.nfe_adaptive}, expected {2 * steps} per stream")


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tape_live_mib(s: Setup, x: np.ndarray, taped: bool) -> float:
    """tracemalloc growth from the start to the end of one forward pass."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape = autodiff.Tape() if taped else None
        res = model.forward(autodiff.Tensor(x), s.ahat, s.params, s.model_config, tape)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del res, tape
    return grown / 2**20


def _ratio(traced: list, untraced: list) -> float:
    """Tracing overhead as the relative change of the median time per op."""
    if not traced or not untraced:
        return float("nan")
    return statistics.median(traced) / statistics.median(untraced) - 1.0


def _traced_layers(rec: Recorder, s: Setup, live_mib: float, overhead: float,
                   out: Outcome) -> None:
    flops = lambda b: model.flop_report(s.model_config, batch_size=b)  # noqa: E731
    out.metrics.update(layer_metrics(rec, flops))
    out.metrics["autodiff.tape_live_mb"] = (live_mib, "MiB")
    out.metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    out.metrics["trace.coverage_pct"] = (coverage(rec) * 100.0, "%")
    nfe = out.metrics["dynamics.nfe_per_forward"][0]
    if nfe and nfe != 4 * s.model_config.steps:   # 0: vector_field not traced
        out.fail(1, f"{nfe} field evaluations per forward, expected "
                    f"{4 * s.model_config.steps}")
    out.spans = span_rows(rec)
    out.absent = sorted(set(rec.absent))


def _median(values: list) -> float:
    return statistics.median(values) if values else float("nan")


def _p99(values: list) -> float:
    return float(np.percentile(values, 99)) if values else float("nan")


def _rate(per_op: float, op_s: list) -> float:
    return per_op * len(op_s) / sum(op_s) if op_s else float("nan")


def _end_to_end(out: Outcome, setup_raw: list, setup_fixed: list, fixed: list,
                kernels: list, per_op: float) -> None:
    """Last-line metrics (pace-corrected times) and the shared report lines."""
    rss = peak_rss_mib()
    out.metrics = {"setup_s": (_median(setup_fixed), "s"),
                   "op_ms_p50": (_median(fixed) * 1e3, "ms"),
                   "windows_per_s": (_rate(per_op, fixed), "1/s"),
                   "peak_rss_mb": (rss, "MiB")}
    out.report = [
        ("setup_s", _median(setup_raw), "s", f"median of {len(setup_raw)} set-ups"),
        ("peak_rss_mb", rss, "MiB", "ru_maxrss"),
        ("host_speed", REFERENCE_S / _median(kernels), "x",
         f"pace kernel median {_median(kernels):.6g} s, reference {REFERENCE_S:g} s"),
        ("op_ms_p99_corrected", _p99(fixed) * 1e3, "ms", "host-speed corrected"),
    ]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_train(w: Workload, seed: int, seconds: float, trace: bool,
              work_root: str) -> Outcome:
    out = Outcome()
    rec = Recorder()
    pace = None if trace else Pace()
    if trace:
        rec.install()
    try:
        s, setup_raw, setup_fixed = timed_setups(w, seed, work_root, pace)
    finally:
        rec.uninstall()
    tc = training.TrainConfig(variant="full", epochs=w.epochs, patience=w.epochs,
                              seed=seed)
    untrained = val_mae(s.params, s)
    train_set = s.dataset.splits["train"]

    calls: list[TrainCall] = []
    if trace:
        live = tape_live_mib(s, train_set.x[:tc.batch_size], taped=True)
        calls.append(train_call(s, tc, None))
        rec.install()
        try:
            calls.append(train_call(s, tc, None))
        finally:
            rec.uninstall()
    else:
        start = time.perf_counter()
        while True:
            calls.append(train_call(s, tc, pace))
            elapsed = time.perf_counter() - start
            if len(calls) >= 2 and elapsed + calls[-1].wall_s > seconds:
                break

    ref = None
    for call in calls:
        digest = check_train_call(call, w.epochs, untrained, ref, out)
        ref = ref or digest

    if trace:
        # The untraced call's first epoch pays the run's one-time warm-up.
        overhead = _ratio(calls[1].epoch_s, calls[0].epoch_s[1:] or calls[0].epoch_s)
        _traced_layers(rec, s, live, overhead, out)
        return out

    # The first epoch of the run pays one-time allocation and is left out.
    raw = [t for call in calls for t in call.epoch_s][1:]
    kernels = [k for call in calls for k in call.kernel_s][1:]
    fixed = [pace.corrected(t, k) for t, k in zip(raw, kernels)]
    windows = train_set.count + s.dataset.splits["val"].count
    best = next((c.result.best_val_mae for c in calls if c.result), float("nan"))
    n = f"n={len(raw)} epochs of {len(calls)} train() calls, first epoch excluded"
    out.samples = {"op_s": raw, "kernel_s": kernels, "setup_s": setup_raw}
    _end_to_end(out, setup_raw, setup_fixed, fixed, kernels, windows)
    out.report[1:1] = [
        ("epoch_s", _median(raw), "s", n),
        ("epoch_s_p99", _p99(raw), "s", n + "; the slowest epoch"),
        ("train_windows_per_s", _rate(windows, raw), "1/s", f"{windows} windows per epoch"),
        ("val_mae", best, "scaled", f"after {w.epochs} epochs; untrained {untrained:.6f}"),
    ]
    return out


PACE_BLOCK = 50   # requests per host-speed correction


def _request_order(rng: np.random.Generator, count: int):
    while True:
        yield from rng.permutation(count)


def _serve(s: Setup, test, order, seconds: float, min_requests: int,
           sample_every: int, pace: Pace | None):
    """Closed loop of single-window predict() requests.

    Sends the test windows `order` yields until it runs out, or until
    `seconds` have passed and `min_requests` were sent. With `pace`, the
    kernel is timed once after each request. Returns (indices served,
    latencies, kernel seconds, sampled outputs, bad outputs).
    """
    served, latencies, kernels, samples, bad = [], [], [], [], []
    shape = (1, s.model_config.n_nodes, s.model_config.horizon)
    start = time.perf_counter()
    for k, idx in enumerate(order):
        window = data.WindowSet(x=test.x[idx:idx + 1], y=test.y[idx:idx + 1],
                                origins=test.origins[idx:idx + 1])
        t0 = time.perf_counter()
        try:
            y_pred = training.predict(s.params, s.model_config, s.ahat, window)
        except OdegateError as exc:
            y_pred = None
            bad.append(f"request {k}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        served.append(int(idx))
        latencies.append(t1 - t0)
        if y_pred is not None and (y_pred.shape != shape or not np.all(np.isfinite(y_pred))):
            bad.append(f"request {k}: output shape {y_pred.shape} or non-finite values")
        elif y_pred is not None and k % sample_every == 0:
            samples.append((int(idx), y_pred.copy()))
        if pace:
            kernels.append(pace.sample())
        if t1 - start >= seconds and len(served) >= min_requests:
            break
    return served, latencies, kernels, samples, bad


def run_forecast(w: Workload, seed: int, seconds: float, trace: bool,
                 work_root: str) -> Outcome:
    out = Outcome()
    rec = Recorder()
    pace = None if trace else Pace()
    if trace:
        rec.install()
    try:
        s, setup_raw, setup_fixed = timed_setups(w, seed, work_root, pace)
    finally:
        rec.uninstall()
    test = s.dataset.splits["test"]
    order = _request_order(np.random.default_rng(seed), test.count)

    budget = seconds / 2 if trace else seconds
    served, lat, kernels, samples, bad = _serve(
        s, test, order, budget, 0 if trace else w.min_requests, w.sample_every, pace)
    out.attempted += len(served)
    for message in bad:
        out.fail(1, message)
    check_forecast_samples(s, test, samples, out)

    if trace:
        live = tape_live_mib(s, test.x[:1], taped=False)
        rec.install()
        try:
            served2, lat2, _k, samples2, bad2 = _serve(
                s, test, iter(served), float("inf"), 0, w.sample_every, None)
        finally:
            rec.uninstall()
        out.attempted += len(served2)
        for message in bad2:
            out.fail(1, message)
        for (idx, y0), (_, y1) in zip(samples, samples2):
            if not np.array_equal(y0, y1):
                out.fail(1, f"traced request on test window {idx} differs from untraced")
        _traced_layers(rec, s, live, _ratio(lat2, lat), out)
        return out

    # Each request is corrected by the median kernel time of its block, so
    # one slow kernel call does not distort its neighbour.
    fixed = []
    for lo in range(0, len(lat), PACE_BLOCK):
        kernel = statistics.median(kernels[lo:lo + PACE_BLOCK])
        fixed += [pace.corrected(t, kernel) for t in lat[lo:lo + PACE_BLOCK]]
    n = f"n={len(lat)} requests, one client, closed loop"
    out.samples = {"op_s": lat, "kernel_s": kernels, "setup_s": setup_raw}
    _end_to_end(out, setup_raw, setup_fixed, fixed, kernels, 1)
    out.report[1:1] = [
        ("predict_ms_p50", _median(lat) * 1e3, "ms", n),
        ("predict_ms_p99", _p99(lat) * 1e3, "ms", n),
        ("predict_windows_per_s", _rate(1, lat), "1/s", "requests per second of predict()"),
    ]
    return out


def run(name: str, seed: int, seconds: float, trace: bool, work_root: str,
        spec: Workload | None = None) -> Outcome:
    """Run one workload; `spec` overrides its sizes (the smoke test uses this)."""
    w = spec or WORKLOADS[name]
    runner = run_train if w.kind == "train" else run_forecast
    out = runner(w, seed, seconds, trace, work_root)
    rate = out.failed / out.attempted if out.attempted else 1.0
    out.report.append(("error_rate", rate, "ratio",
                       f"{out.failed} failed of {out.attempted} "
                       f"{'epochs' if w.kind == 'train' else 'requests'}"))
    return out
