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

import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import all_finite
from .errors import (ParseError, ValidationError, read_csv, read_json, require_finite,
                     write_csv, write_json)
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
        require_finite(self)
        if self.n_nodes < 1:
            raise ValidationError("ShockScenario.n_nodes must be >= 1")
        if self.total_t < 2:
            raise ValidationError("ShockScenario.total_t must be >= 2")
        if self.period <= 0:
            raise ValidationError("ShockScenario.period must be positive")
        if self.shock_decay <= 0:
            raise ValidationError("ShockScenario.shock_decay must be positive")
        # for c in [0, 1] the smooth step I + c(Â - I) never expands the state
        if not 0.0 <= self.diffusion <= 1.0:
            raise ValidationError("ShockScenario.diffusion must be in [0, 1]")
        if not 0.0 <= self.shock_rate <= 100.0:
            raise ValidationError("ShockScenario.shock_rate must be in [0, 100]")
        if self.shock_mag_lo > self.shock_mag_hi:
            raise ValidationError("ShockScenario: shock_mag_lo > shock_mag_hi")
        if not math.isfinite(self.shock_mag_hi - self.shock_mag_lo):
            raise ValidationError("ShockScenario: shock_mag_hi - shock_mag_lo "
                                  "is not finite")


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
    """Standardization of the one input channel, fitted on the training
    segment only."""

    mean: np.ndarray   # [1]
    std: np.ndarray    # [1]

    @classmethod
    def fit(cls, segment: np.ndarray) -> "Scaler":
        """Fit on a [length, n_nodes] training segment (one channel)."""
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.array([segment.mean()])
            std = np.array([segment.std()])
        if not (np.isfinite(mean[0]) and np.isfinite(std[0])):
            t, node = (int(i) for i in np.unravel_index(np.argmax(np.abs(segment)),
                                                        segment.shape))
            raise ValidationError(
                f"Scaler.fit: the training mean or std overflows float64; the "
                f"largest value {float(segment[t, node])!r} is at tick {t}, node {node}")
        if std[0] == 0.0:
            raise ValidationError("Scaler.fit: channel 0 has zero variance")
        return cls(mean=mean, std=std)

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean[0]) / self.std[0]

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.std[0] + self.mean[0]


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
    # a row at a time: a whole-array tolist() holds every cell as a float at once
    cells = np.asarray(series, dtype=float)
    write_csv(path, ["t"] + [f"node_{i}" for i in range(cells.shape[1])],
              ([t] + row.tolist() for t, row in enumerate(cells)))


def read_series_csv(path) -> np.ndarray:
    def header(width):   # the header names its own width, and at least node_0
        return ["t"] + [f"node_{i}" for i in range(max(width - 1, 1))]

    rows = read_csv(path, header, (int, float))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    for tick, (lineno, row) in enumerate(rows):
        if row.pop(0) != tick:   # in place: a slice per row would copy the series
            raise ParseError(f"{path}: line {lineno}: tick out of order")
    arr = np.array([row for _, row in rows])
    if not all_finite(arr):
        i, node = np.argwhere(~np.isfinite(arr))[0]
        raise ParseError(f"{path}: line {rows[i][0]}: non-finite value in node_{node}")
    return arr


def write_events_csv(path, events) -> None:
    write_csv(path, ("t", "node", "magnitude"),
              ((ev.t, ev.node, float(ev.magnitude)) for ev in events))


def _event_rows(path) -> list:
    return [(lineno, ShockEvent(*row))
            for lineno, row in read_csv(path, ("t", "node", "magnitude"), (int, int, float))]


def read_events_csv(path):
    return [event for _, event in _event_rows(path)]


META_REQUIRED = ("n_nodes", "in_dim", "tick_seconds", "edge_list_path")


def write_meta(path, scenario: ShockScenario, edge_list_path: str) -> None:
    payload = {
        "n_nodes": scenario.n_nodes,
        "in_dim": 1,
        "tick_seconds": DEFAULT_TICK_SECONDS,
        "edge_list_path": edge_list_path,
        "scenario": {k: v for k, v in asdict(scenario).items() if k != "n_nodes"},
    }
    write_json(path, payload)


def read_meta(path) -> dict:
    payload = read_json(path)
    missing = [k for k in META_REQUIRED if k not in payload]
    if missing:
        raise ParseError(f"{path}: missing keys {missing}")
    for key in ("n_nodes", "in_dim", "tick_seconds"):
        value = payload[key]
        if type(value) is not int or value < 1:
            raise ParseError(f"{path}: {key} must be a positive integer, got {value!r}")
    if payload["in_dim"] != 1:
        raise ParseError(f"{path}: in_dim must be 1, got {payload['in_dim']}")
    if not isinstance(payload["edge_list_path"], str):
        raise ParseError(f"{path}: edge_list_path must be a string")
    return payload


def write_dataset_files(out_dir, scenario: ShockScenario, graph: SpatialGraph,
                        series: np.ndarray, events) -> dict:
    """Write the four-file on-disk form; returns name -> path."""
    paths = {name: os.path.join(out_dir, fname)
             for name, fname in (("series", "series.csv"), ("events", "events.csv"),
                                 ("meta", "meta.json"), ("edges", "edges.csv"))}
    write_edge_list(paths["edges"], graph)
    write_series_csv(paths["series"], series)
    write_events_csv(paths["events"], events)
    write_meta(paths["meta"], scenario, edge_list_path="edges.csv")
    return paths


def load_dataset_files(data_dir):
    """Read the four-file form back; returns (series, events, graph, meta)."""
    meta = read_meta(os.path.join(data_dir, "meta.json"))
    series = read_series_csv(os.path.join(data_dir, "series.csv"))
    event_rows = _event_rows(os.path.join(data_dir, "events.csv"))
    graph = load_graph(os.path.join(data_dir, meta["edge_list_path"]),
                       n_nodes=meta["n_nodes"])
    if series.shape[1] != meta["n_nodes"]:
        raise ValidationError(
            f"{data_dir}: series has {series.shape[1]} nodes, meta says {meta['n_nodes']}")
    for line, ev in event_rows:
        if not 0 <= ev.t < series.shape[0]:
            raise ValidationError(f"{data_dir}: events.csv line {line}: tick {ev.t} "
                                  f"outside [0, {series.shape[0]})")
        if not 0 <= ev.node < meta["n_nodes"]:
            raise ValidationError(f"{data_dir}: events.csv line {line}: node {ev.node} "
                                  f"outside [0, {meta['n_nodes']})")
        if not math.isfinite(ev.magnitude):
            raise ValidationError(f"{data_dir}: events.csv line {line}: "
                                  f"non-finite magnitude {ev.magnitude}")
    return series, [ev for _, ev in event_rows], graph, meta
