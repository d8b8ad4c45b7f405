"""Synthetic shock-diffusion series, windowing, scaling, and file formats.

The generator composes two node-level signals on a graph:

  smooth   a phase-shifted sinusoid per node, diffused along the normalized
           adjacency a little each tick, so neighbors pull toward each other;
  shocks   a sparse Poisson-like hit process whose magnitudes decay
           exponentially (envelope e^{-1/decay} per tick).

The sum gives series with long smooth stretches punctuated by sudden jumps,
which is the regime the discrete compensator exists for.  Every draw comes
from one seeded generator in a fixed order, so a scenario is reproducible
bit for bit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError, read_text
from .graph import SpatialGraph, load_graph, normalize_adjacency, write_edge_list

DEFAULT_TICK_SECONDS = 300


@dataclass(frozen=True)
class ShockScenario:
    n_nodes: int = 20
    total_t: int = 2000
    amplitude: float = 1.0
    period: float = 100.0
    diffusion: float = 0.05
    shock_rate: float = 1.0      # expected hits per node per 100 ticks
    shock_mag_lo: float = 3.0
    shock_mag_hi: float = 8.0
    shock_decay: float = 12.0    # ticks for the envelope to shrink by e
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValidationError("ShockScenario.n_nodes must be >= 1")
        if self.total_t < 2:
            raise ValidationError("ShockScenario.total_t must be >= 2")
        if self.period <= 0:
            raise ValidationError("ShockScenario.period must be positive")
        if self.shock_decay <= 0:
            raise ValidationError("ShockScenario.shock_decay must be positive")
        if not 0.0 <= self.shock_rate <= 100.0:
            raise ValidationError("ShockScenario.shock_rate must be in [0, 100]")
        if self.shock_mag_lo > self.shock_mag_hi:
            raise ValidationError("ShockScenario: shock_mag_lo > shock_mag_hi")


@dataclass(frozen=True)
class ShockEvent:
    t: int
    node: int
    magnitude: float


def default_graph(n_nodes: int, seed: int = 0) -> SpatialGraph:
    """Ring over all nodes plus a few seeded chords with random weights."""
    edges = []
    seen = set()
    for i in range(n_nodes - 1):
        edges.append((i, i + 1, 1.0))
        seen.add((i, i + 1))
    if n_nodes > 2:
        edges.append((0, n_nodes - 1, 1.0))
        seen.add((0, n_nodes - 1))
    rng = np.random.default_rng(seed)
    chords = n_nodes // 4
    while chords > 0:
        a, b = sorted(int(v) for v in rng.integers(0, n_nodes, size=2))
        if a == b or (a, b) in seen:
            continue
        edges.append((a, b, float(rng.uniform(0.5, 1.5))))
        seen.add((a, b))
        chords -= 1
    return SpatialGraph(n_nodes=n_nodes, edges=tuple(edges))


def shock_envelope(hits: np.ndarray, mags: np.ndarray, decay: float) -> np.ndarray:
    """Exponentially decaying sum of hits: j_t = j_{t-1} e^{-1/decay} + hit_t."""
    total_t, n = hits.shape
    factor = math.exp(-1.0 / decay)
    out = np.zeros((total_t, n))
    out[0] = hits[0] * mags[0]
    for t in range(1, total_t):
        out[t] = out[t - 1] * factor + hits[t] * mags[t]
    return out


def generate_shock_series(scenario: ShockScenario, graph: SpatialGraph):
    """Return (series [total_t, n_nodes], events) for a scenario on a graph."""
    if graph.n_nodes != scenario.n_nodes:
        raise ValidationError(
            f"generate_shock_series: graph has {graph.n_nodes} nodes, "
            f"scenario expects {scenario.n_nodes}")
    n, total_t = scenario.n_nodes, scenario.total_t
    rng = np.random.default_rng(scenario.seed)
    # draw order is part of the format: phases, then hit mask, then magnitudes
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    hit_prob = scenario.shock_rate / 100.0
    hits = (rng.random(size=(total_t, n)) < hit_prob).astype(np.float64)
    mags = rng.uniform(scenario.shock_mag_lo, scenario.shock_mag_hi,
                       size=(total_t, n))

    ahat = normalize_adjacency(graph).data
    mix = scenario.diffusion * (ahat - np.eye(n))
    ticks = np.arange(total_t).reshape(-1, 1)
    base = scenario.amplitude * np.sin(2.0 * np.pi * ticks / scenario.period + phases)

    smooth = np.zeros((total_t, n))
    smooth[0] = base[0]
    for t in range(1, total_t):
        smooth[t] = smooth[t - 1] + mix @ smooth[t - 1] + (base[t] - base[t - 1])

    series = smooth + shock_envelope(hits, mags, scenario.shock_decay)
    events = [ShockEvent(t=int(t), node=int(nd), magnitude=float(mags[t, nd]))
              for t, nd in zip(*np.nonzero(hits))]
    return series, events


# ---------------------------------------------------------------------------
# windows and splits
# ---------------------------------------------------------------------------

@dataclass
class WindowSet:
    x: np.ndarray          # [count, n_nodes, window, 1]
    y: np.ndarray          # [count, n_nodes, horizon]
    origins: np.ndarray    # [count] absolute tick of each window's first input

    @property
    def count(self) -> int:
        return self.x.shape[0]


def window_count(length: int, window: int, horizon: int, stride: int) -> int:
    if length < window + horizon:
        return 0
    return (length - window - horizon) // stride + 1


def make_windows(series: np.ndarray, window: int, horizon: int,
                 stride: int = 1, t_offset: int = 0) -> WindowSet:
    """Slice [length, n_nodes] into supervised (input window, horizon) pairs."""
    if series.ndim != 2:
        raise ValidationError(f"make_windows: series must be 2-D, got {series.shape}")
    if window < 1 or horizon < 1 or stride < 1:
        raise ValidationError("make_windows: window, horizon, stride must be >= 1")
    length, n = series.shape
    count = window_count(length, window, horizon, stride)
    x = np.zeros((count, n, window, 1))
    y = np.zeros((count, n, horizon))
    origins = np.zeros(count, dtype=np.int64)
    for i in range(count):
        o = i * stride
        x[i, :, :, 0] = series[o:o + window].T
        y[i] = series[o + window:o + window + horizon].T
        origins[i] = t_offset + o
    return WindowSet(x=x, y=y, origins=origins)


@dataclass
class Scaler:
    """Per-channel standardization fitted on the training segment only."""

    mean: np.ndarray   # [channels]
    std: np.ndarray    # [channels]

    @classmethod
    def fit(cls, segment: np.ndarray) -> "Scaler":
        """Fit on a [length, n_nodes] training segment (one channel)."""
        mean = np.array([segment.mean()])
        std = np.array([segment.std()])
        for c, s in enumerate(std):
            if s == 0.0:
                raise ValidationError(f"Scaler.fit: channel {c} has zero variance")
        return cls(mean=mean, std=std)

    def transform(self, values: np.ndarray, channel: int = 0) -> np.ndarray:
        return (values - self.mean[channel]) / self.std[channel]

    def inverse(self, values: np.ndarray, channel: int = 0) -> np.ndarray:
        return values * self.std[channel] + self.mean[channel]


SPLIT_FRACTIONS = {"train": 0.6, "val": 0.2}   # test takes the remainder
ROUND_TRIP_TOL = 1e-6   # relative error allowed in inverse(transform(series))


@dataclass
class ForecastDataset:
    graph: SpatialGraph
    series: np.ndarray                  # raw units, [total_t, n_nodes]
    scaler: Scaler
    events: list
    window: int
    horizon: int
    stride: int
    split_bounds: dict                  # name -> (start_tick, end_tick)
    splits: dict                        # name -> WindowSet in scaled units


def build_dataset(series: np.ndarray, events, graph: SpatialGraph,
                  window: int = 12, horizon: int = 12, stride: int = 1) -> ForecastDataset:
    """Split 6:2:2 by time, fit the scaler on train, window each segment.

    Segments are windowed independently, so no window spans a split boundary
    and the later splits never influence the scaler.
    """
    total_t = series.shape[0]
    n_train = int(total_t * SPLIT_FRACTIONS["train"])
    n_val = int(total_t * SPLIT_FRACTIONS["val"])
    bounds = {"train": (0, n_train),
              "val": (n_train, n_train + n_val),
              "test": (n_train + n_val, total_t)}
    scaler = Scaler.fit(series[:n_train])
    scaled = scaler.transform(series)
    # a value far outside the training scale makes every other value round
    # to the mean, so its forecasts and metrics would be meaningless
    lost = (np.abs(scaler.inverse(scaled) - series)
            > ROUND_TRIP_TOL * np.maximum(1.0, np.abs(series)))
    if np.any(lost):
        t, node = (int(i) for i in np.argwhere(lost)[0])
        raise ValidationError(
            f"build_dataset: standardizing by the training mean "
            f"{float(scaler.mean[0])!r} and std {float(scaler.std[0])!r} loses the "
            f"value {float(series[t, node])!r} at tick {t}, node {node}; the series "
            f"spans too wide a range")
    splits = {}
    for name, (lo, hi) in bounds.items():
        splits[name] = make_windows(scaled[lo:hi], window, horizon, stride, t_offset=lo)
    if splits["train"].count == 0:
        raise ValidationError(
            f"build_dataset: train segment of {n_train} ticks yields no "
            f"(window={window}, horizon={horizon}) pairs")
    return ForecastDataset(graph=graph, series=series, scaler=scaler,
                           events=list(events), window=window, horizon=horizon,
                           stride=stride, split_bounds=bounds, splits=splits)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_series_csv(path, series: np.ndarray) -> None:
    n = series.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write("t," + ",".join(f"node_{i}" for i in range(n)) + "\n")
        for t in range(series.shape[0]):
            fh.write(str(t) + "," + ",".join(repr(float(v)) for v in series[t]) + "\n")


def read_series_csv(path) -> np.ndarray:
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "t" or any(h != f"node_{i}" for i, h in enumerate(header[1:])):
        raise ParseError(f"{path}: bad header {lines[0]!r}")
    n = len(header) - 1
    if n == 0:
        raise ParseError(f"{path}: no node columns")
    rows = []
    for r, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != n + 1:
            raise ParseError(f"{path}: line {r}: expected {n + 1} cells, got {len(cells)}")
        try:
            if int(cells[0]) != r - 2:
                raise ParseError(f"{path}: line {r}: tick out of order")
            rows.append([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise ParseError(f"{path}: line {r}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    arr = np.array(rows)
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{path}: non-finite value in series")
    return arr


def write_events_csv(path, events) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t,node,magnitude\n")
        for ev in events:
            fh.write(f"{ev.t},{ev.node},{repr(float(ev.magnitude))}\n")


def read_events_csv(path):
    lines = read_text(path).splitlines()
    if not lines or lines[0] != "t,node,magnitude":
        raise ParseError(f"{path}: bad events header")
    events = []
    for r, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 3:
            raise ParseError(f"{path}: line {r}: expected 3 cells")
        try:
            events.append(ShockEvent(t=int(cells[0]), node=int(cells[1]),
                                     magnitude=float(cells[2])))
        except ValueError as exc:
            raise ParseError(f"{path}: line {r}: {exc}") from exc
    return events


META_REQUIRED = ("n_nodes", "in_dim", "tick_seconds", "edge_list_path")


def write_meta(path, scenario: ShockScenario, edge_list_path: str,
               tick_seconds: int = DEFAULT_TICK_SECONDS) -> None:
    payload = {
        "n_nodes": scenario.n_nodes,
        "in_dim": 1,
        "tick_seconds": tick_seconds,
        "edge_list_path": edge_list_path,
        "scenario": {
            "total_t": scenario.total_t, "amplitude": scenario.amplitude,
            "period": scenario.period, "diffusion": scenario.diffusion,
            "shock_rate": scenario.shock_rate,
            "shock_mag_lo": scenario.shock_mag_lo,
            "shock_mag_hi": scenario.shock_mag_hi,
            "shock_decay": scenario.shock_decay, "seed": scenario.seed,
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_meta(path) -> dict:
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object")
    missing = [k for k in META_REQUIRED if k not in payload]
    if missing:
        raise ParseError(f"{path}: missing keys {missing}")
    for key in ("n_nodes", "in_dim", "tick_seconds"):
        value = payload[key]
        if type(value) is not int or value < 1:
            raise ParseError(f"{path}: {key} must be a positive integer, got {value!r}")
    if not isinstance(payload["edge_list_path"], str):
        raise ParseError(f"{path}: edge_list_path must be a string")
    return payload


def write_dataset_files(out_dir, scenario: ShockScenario, graph: SpatialGraph,
                        series: np.ndarray, events,
                        tick_seconds: int = DEFAULT_TICK_SECONDS) -> dict:
    """Write the four-file on-disk form; returns name -> path."""
    paths = {name: os.path.join(out_dir, fname)
             for name, fname in (("series", "series.csv"), ("events", "events.csv"),
                                 ("meta", "meta.json"), ("edges", "edges.csv"))}
    write_edge_list(paths["edges"], graph)
    write_series_csv(paths["series"], series)
    write_events_csv(paths["events"], events)
    write_meta(paths["meta"], scenario, edge_list_path="edges.csv",
               tick_seconds=tick_seconds)
    return paths


def load_dataset_files(data_dir):
    """Read the four-file form back; returns (series, events, graph, meta)."""
    meta = read_meta(os.path.join(data_dir, "meta.json"))
    series = read_series_csv(os.path.join(data_dir, "series.csv"))
    events = read_events_csv(os.path.join(data_dir, "events.csv"))
    graph = load_graph(os.path.join(data_dir, meta["edge_list_path"]),
                       n_nodes=meta["n_nodes"])
    if series.shape[1] != meta["n_nodes"]:
        raise ValidationError(
            f"{data_dir}: series has {series.shape[1]} nodes, meta says {meta['n_nodes']}")
    for line, ev in enumerate(events, start=2):
        if not 0 <= ev.t < series.shape[0]:
            raise ValidationError(f"{data_dir}: events.csv line {line}: tick {ev.t} "
                                  f"outside [0, {series.shape[0]})")
        if not 0 <= ev.node < meta["n_nodes"]:
            raise ValidationError(f"{data_dir}: events.csv line {line}: node {ev.node} "
                                  f"outside [0, {meta['n_nodes']})")
        if not math.isfinite(ev.magnitude):
            raise ValidationError(f"{data_dir}: events.csv line {line}: "
                                  f"non-finite magnitude {ev.magnitude}")
    return series, events, graph, meta
