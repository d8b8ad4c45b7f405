"""In-memory span tracing around odegate's public functions.

Tracing is installed from the benchmark's side: each traced function is
replaced, in every odegate module namespace that holds it, by a wrapper that
records a span (name, start, end, parent).  Nothing inside the package is
edited, and `uninstall` puts the originals back.

Backward time is attributed per layer by wrapping `Tape.record`: each backward
rule is timed and charged to the label of the span that was active when the
rule was recorded.

A traced function that a later version of the package no longer has is
reported as absent; the metrics derived from it read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name); a dotted path names a method.
TARGETS = (
    ("odegate.data", "generate_shock_series", "data.generate"),
    ("odegate.data", "write_dataset_files", "data.write_files"),
    ("odegate.data", "load_dataset_files", "data.load_files"),
    ("odegate.data", "build_dataset", "data.build_dataset"),
    ("odegate.graph", "normalize_adjacency", "graph.normalize_adjacency"),
    ("odegate.graph", "adaptive_adjacency", "graph.adaptive_adjacency"),
    ("odegate.model", "forward", "model.forward"),
    ("odegate.model", "initialize_state", "model.encoder"),
    ("odegate.dynamics", "evolve", "dynamics.evolve"),
    ("odegate.dynamics", "vector_field", "dynamics.field"),
    ("odegate.dynamics", "graph_propagate", "dynamics.propagate"),
    ("odegate.dynamics", "embedded_dual_step", "dynamics.step"),
    ("odegate.dynamics", "local_truncation_error", "dynamics.lte"),
    ("odegate.dynamics", "attention_mask", "dynamics.mask"),
    ("odegate.dynamics", "compensate", "dynamics.compensate"),
    ("odegate.autodiff", "backward", "autodiff.backward"),
    ("odegate.training", "train", "training.train"),
    ("odegate.training", "predict", "training.predict"),
    ("odegate.training", "batch_loss", "training.loss"),
    ("odegate.training", "clip_gradients", "training.clip"),
    ("odegate.training", "adam_step", "training.adam"),
    ("odegate.model", "ModelParams.copy", "training.snapshot"),
)

# Backward-attribution label of a span; spans not listed inherit their
# parent's label.  `vector_field` minus its propagate child is the field's
# affine map, and `forward` minus its children is the readout.
LABELS = {
    "model.encoder": "encoder",
    "graph.adaptive_adjacency": "graph_build",
    "dynamics.propagate": "propagate",
    "dynamics.field": "affine",
    "dynamics.step": "step",
    "dynamics.lte": "gate",
    "dynamics.mask": "gate",
    "dynamics.compensate": "compensate",
    "dynamics.evolve": "evolve",
    "model.forward": "readout",
    "training.loss": "loss",
}
BACKWARD_LABELS = sorted(set(LABELS.values())) + ["other"]

# Tape ops a training batch records today; anything else counts as "other".
TAPE_OPS = ("abs", "add", "add_bias", "concat_channels", "divide",
            "expand_batch", "hadamard", "matmul", "mean_abs_error", "relu",
            "reshape", "scale", "sub", "tanh", "transpose")

_STEP = "training.step"


def replace_everywhere(original, wrapper, patches: list) -> None:
    """Point every odegate module attribute that holds `original` at `wrapper`.

    Modules bind imported functions under their own names, so each binding is
    swapped; `patches` collects (owner, name, old value) for `restore`.
    """
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "odegate" or mod_name.startswith("odegate.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, key, value))
                setattr(mod, key, wrapper)


def restore(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


class Recorder:
    """Spans kept in parallel lists; the open spans form a stack."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.batch: list[int] = []       # leading dim of a forward's input
        self.stack: list[int] = []
        self.labels: list[str] = []      # backward label of each open span
        self.backward_s: dict[str, float] = defaultdict(float)
        self.tape_ops: Counter = Counter()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, batch: int = 0) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.batch.append(batch)
        parent_label = self.labels[-1] if self.labels else "other"
        self.labels.append(LABELS.get(name, parent_label))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        now = time.perf_counter()
        # An exception can leave inner spans open; close them with this one.
        while self.stack:
            top = self.stack.pop()
            self.labels.pop()
            self.ends[top] = now
            if top == idx:
                break

    def _top_name(self) -> str | None:
        return self.names[self.stack[-1]] if self.stack else None

    # -- installation --------------------------------------------------------

    def _wrap(self, name: str, fn):
        rec = self

        if name == "model.forward":
            # A forward called directly by train() starts a training step,
            # which adam_step's return closes.
            @functools.wraps(fn)
            def wrapper(x, *args, **kwargs):
                if rec._top_name() == "training.train":
                    rec.open(_STEP)
                idx = rec.open(name, batch=x.shape[0])
                try:
                    return fn(x, *args, **kwargs)
                finally:
                    rec.close(idx)
            return wrapper

        if name == "training.adam":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = rec.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close(idx)
                    if rec._top_name() == _STEP:
                        rec.close(rec.stack[-1])
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in every odegate namespace that references it."""
        for mod_name, path, name in TARGETS:
            owner = sys.modules.get(mod_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if classes:
                self._set(owner, attr, wrapper)
            else:
                replace_everywhere(original, wrapper, self._patches)
        self._install_record()

    def _install_record(self) -> None:
        tape_cls = getattr(sys.modules.get("odegate.autodiff"), "Tape", None)
        original = getattr(tape_cls, "record", None)
        if original is None:
            self.absent.append("autodiff.Tape.record")
            return
        rec = self

        @functools.wraps(original)
        def record(tape, op_name, rule):
            label = rec.labels[-1] if rec.labels else "other"
            rec.tape_ops[op_name] += 1

            def timed_rule():
                t0 = time.perf_counter()
                rule()
                rec.backward_s[label] += time.perf_counter() - t0

            original(tape, op_name, timed_rule)

        self._set(tape_cls, "record", record)

    def uninstall(self) -> None:
        restore(self._patches)


# ---------------------------------------------------------------------------
# derived per-layer numbers
# ---------------------------------------------------------------------------

class SpanStats:
    """Durations and self times of a closed recording, grouped by name."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        n = len(rec.names)
        self.dur = [rec.ends[i] - rec.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(rec.parents):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [self.dur[i] - child[i] for i in range(n)]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(rec.names):
            self.by_name[name].append(i)

    def count(self, name: str, parent: str | None = "*") -> int:
        return len(self.select(name, parent))

    def select(self, name: str, parent: str | None) -> list[int]:
        """Spans called `name` under a `parent` span ("*": any, None: top level)."""
        idx = self.by_name.get(name, [])
        if parent == "*":
            return idx
        names = self.rec.names
        return [i for i in idx
                if (self.rec.parents[i] < 0 if parent is None
                    else self.rec.parents[i] >= 0
                    and names[self.rec.parents[i]] == parent)]

    def total(self, name: str, parent: str | None = "*", own: bool = False) -> float:
        times = self.self_time if own else self.dur
        return sum(times[i] for i in self.select(name, parent))

    def mean(self, name: str, parent: str | None = "*", own: bool = False) -> float:
        idx = self.select(name, parent)
        return self.total(name, parent, own) / len(idx) if idx else 0.0


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(rec: Recorder, flops_per_forward) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    `flops_per_forward(batch)` returns the `FlopReport` of one forward call
    with that batch size; GFLOP/s are that model divided by span time, so
    they are computed, not measured.
    """
    st = SpanStats(rec)
    ms = 1e3
    m: dict[str, tuple[float, str]] = {}

    for name, key in (("data.generate", "data.generate_s"),
                      ("data.write_files", "data.write_files_s"),
                      ("data.load_files", "data.load_files_s"),
                      ("data.build_dataset", "data.build_dataset_s")):
        m[key] = (st.mean(name), "s")

    m["graph.normalize_adjacency_ms"] = (st.mean("graph.normalize_adjacency") * ms, "ms")
    m["graph.adaptive_adjacency_ms"] = (st.mean("graph.adaptive_adjacency") * ms, "ms")

    m["model.forward_ms"] = (st.mean("model.forward") * ms, "ms")
    m["model.encoder_ms"] = (st.mean("model.encoder") * ms, "ms")
    m["model.readout_ms"] = (st.mean("model.forward", own=True) * ms, "ms")

    m["dynamics.evolve_ms"] = (st.mean("dynamics.evolve") * ms, "ms")
    m["dynamics.evolve_self_ms"] = (st.mean("dynamics.evolve", own=True) * ms, "ms")
    m["dynamics.field_ms"] = (st.mean("dynamics.field") * ms, "ms")
    m["dynamics.propagate_ms"] = (st.mean("dynamics.propagate") * ms, "ms")
    m["dynamics.affine_ms"] = (st.mean("dynamics.field", own=True) * ms, "ms")
    m["dynamics.step_ms"] = (st.mean("dynamics.step", own=True) * ms, "ms")
    m["dynamics.gate_ms"] = (_per(st.total("dynamics.lte") + st.total("dynamics.mask"),
                                  st.count("dynamics.lte")) * ms, "ms")
    m["dynamics.compensate_ms"] = (st.mean("dynamics.compensate") * ms, "ms")
    m["dynamics.nfe_per_forward"] = (_per(st.count("dynamics.field"),
                                          st.count("model.forward")), "count")

    n_backward = st.count("autodiff.backward")
    m["autodiff.backward_ms"] = (st.mean("autodiff.backward") * ms, "ms")
    for label in BACKWARD_LABELS:
        m[f"autodiff.backward_ms.{label}"] = (
            _per(rec.backward_s.get(label, 0.0), n_backward) * ms, "ms")
    m["autodiff.tape_nodes"] = (_per(sum(rec.tape_ops.values()), n_backward), "count")
    known = 0
    for op in TAPE_OPS:
        known += rec.tape_ops.get(op, 0)
        m[f"autodiff.tape_nodes.{op}"] = (_per(rec.tape_ops.get(op, 0), n_backward), "count")
    m["autodiff.tape_nodes.other"] = (
        _per(sum(rec.tape_ops.values()) - known, n_backward), "count")

    m["training.step_ms"] = (st.mean(_STEP) * ms, "ms")
    m["training.loss_ms"] = (st.mean("training.loss") * ms, "ms")
    m["training.clip_ms"] = (st.mean("training.clip") * ms, "ms")
    m["training.adam_ms"] = (st.mean("training.adam") * ms, "ms")
    m["training.validate_ms"] = (st.mean("training.predict", parent="training.train") * ms, "ms")
    m["training.snapshot_ms"] = (st.mean("training.snapshot") * ms, "ms")
    m["training.predict_ms"] = (st.mean("training.predict", parent=None) * ms, "ms")

    flops = Counter()
    for i in st.by_name.get("model.forward", []):
        report = flops_per_forward(rec.batch[i])
        for bucket in ("encoder", "graph_build", "solver", "compensation", "decoder"):
            flops[bucket] += getattr(report, bucket)
    seconds = {"encoder": st.total("model.encoder"),
               "graph_build": st.total("graph.adaptive_adjacency"),
               "solver": st.total("dynamics.field"),
               "compensation": st.total("dynamics.compensate"),
               "decoder": st.total("model.forward", own=True)}
    for bucket, key in (("encoder", "model.encoder_gflops"),
                        ("graph_build", "graph.build_gflops"),
                        ("solver", "dynamics.solver_gflops"),
                        ("compensation", "dynamics.compensation_gflops"),
                        ("decoder", "model.decoder_gflops")):
        m[key] = (_per(flops[bucket], seconds[bucket]) / 1e9, "GFLOP/s")
    return m


def coverage(rec: Recorder) -> float:
    """Share of the measured loop's wall time inside named layer spans.

    Training runs inside one `train` span whose own time is the loop
    bookkeeping no layer claims; forecasting runs as top-level `predict`
    spans, and the gaps between them are the client loop.
    """
    st = SpanStats(rec)
    trains = st.by_name.get("training.train", [])
    if trains:
        wall = st.total("training.train")
        return 1.0 - _per(st.total("training.train", own=True), wall) if wall else 0.0
    requests = st.select("training.predict", None)
    if not requests:
        return 0.0
    wall = rec.ends[requests[-1]] - rec.starts[requests[0]]
    return _per(sum(st.dur[i] for i in requests), wall)


def span_rows(rec: Recorder) -> list:
    """Spans as [name, start_s, end_s, parent_index] rows for the result file."""
    return [[rec.names[i], rec.starts[i], rec.ends[i], rec.parents[i]]
            for i in range(len(rec.names))]
