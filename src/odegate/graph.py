"""Graph representation and the two propagation operators behind the streams.

The static operator is the symmetric-normalized adjacency with self-loops,
A_hat = D^{-1/2} (A + I) D^{-1/2}; the adaptive operator is a row-normalized
relu(E E^T) built from learnable node embeddings, so it stays differentiable
with respect to the embedding table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor, all_finite, gram, relu, row_normalize
from .errors import ValidationError, read_csv, write_csv


@dataclass(frozen=True)
class SpatialGraph:
    """Undirected weighted graph on `n_nodes` nodes.

    Edges are stored as (src, dst, weight) with weight >= 0; each record
    contributes to both directions of the dense adjacency.  Self-loops are
    rejected because normalization adds its own identity term.
    """

    n_nodes: int
    edges: list = field(default_factory=list)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValidationError(f"graph needs at least one node, got {self.n_nodes}")
        for src, dst, weight in self.edges:
            if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
                raise ValidationError(
                    f"edge ({src},{dst}) references a node outside [0, {self.n_nodes})")
            if src == dst:
                raise ValidationError(f"self-loop on node {src} not allowed")
            if not np.isfinite(weight):
                raise ValidationError(f"edge ({src},{dst}) has non-finite weight {weight}")
            if weight < 0:
                raise ValidationError(f"edge ({src},{dst}) has negative weight {weight}")

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_nodes, self.n_nodes))
        for src, dst, weight in self.edges:
            a[src, dst] += weight
            a[dst, src] += weight
        return a


def normalize_adjacency(graph: SpatialGraph) -> Tensor:
    """Symmetric normalization with self-loops: D^{-1/2} (A + I) D^{-1/2}.

    Isolated nodes are handled by the identity term (degree 1).  The result is
    a constant (non-learnable) tensor, deterministic in the edge list.
    """
    a = graph.adjacency()
    if np.any(a < 0):
        raise ValidationError("adjacency weights must be nonnegative")
    a_tilde = a + np.eye(graph.n_nodes)
    d_inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    a_hat = a_tilde * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
    return Tensor(a_hat)


def adaptive_adjacency(table: Tensor, tape: Tape | None = None) -> Tensor:
    """Row-normalized relu(E E^T) of the embedding table E [nodes x width].

    A row that relu zeroes falls back to 1/N (see `row_normalize`); the other
    rows keep exact gradients to the table.
    """
    return row_normalize(relu(gram(table, tape), tape), tape)


def load_graph(edge_list_path, n_nodes: int) -> SpatialGraph:
    """Read an edge-list CSV (`src,dst,weight`, 0-based) into a SpatialGraph.

    Duplicate (src,dst) records have their weights summed; orientation is
    ignored for the duplicate check since edges are undirected.  A line is
    bad data if, with it, an edge's summed weight or a node's degree
    overflows: the degree is the row sum of A + I that `normalize_adjacency`
    takes.  The edge rules are checked line by line, the sums once, at the
    end (see `_raise_first_overflow`).
    """
    rows = read_csv(edge_list_path, ("src", "dst", "weight"), (int, int, float))
    merged: dict[tuple[int, int], float] = {}
    a_tilde = np.eye(n_nodes)   # A + I of the lines read so far
    for i, (lineno, (src, dst, weight)) in enumerate(rows):
        try:
            SpatialGraph(n_nodes, [(src, dst, weight)])   # the edge rules, per line
        except ValidationError as exc:
            # a line before this one that overflowed is the first bad line
            _raise_first_overflow(edge_list_path, n_nodes, rows[:i], a_tilde)
            raise ValidationError(f"{edge_list_path}: line {lineno}: {exc}") from exc
        _merge(merged, a_tilde, src, dst, weight)
    _raise_first_overflow(edge_list_path, n_nodes, rows, a_tilde)
    edges = [(s, d, w) for (s, d), w in merged.items()]
    return SpatialGraph(n_nodes=n_nodes, edges=edges)


def _merge(merged: dict, a_tilde: np.ndarray, src: int, dst: int,
           weight: float) -> tuple[tuple[int, int], float]:
    """Add one line's weight to its undirected edge's total; return (edge, total)."""
    key = (src, dst) if src <= dst else (dst, src)
    merged[key] = a_tilde[src, dst] = a_tilde[dst, src] = total = merged.get(key, 0.0) + weight
    return key, total


def _raise_first_overflow(edge_list_path, n_nodes: int, rows: list,
                          a_tilde: np.ndarray) -> None:
    """Name the first of `rows` with which an edge total or a degree overflows.

    `a_tilde` is A + I of all of `rows`.  Weights are non-negative, so every
    sum only grows from line to line, and an edge total is at most its
    node's degree: finite degrees of `a_tilde` prove that no line
    overflowed, and the function returns.  Otherwise the lines are summed
    again one by one, as `normalize_adjacency` would sum them, up to the
    first that overflows.
    """
    with np.errstate(over="ignore"):
        if all_finite(a_tilde.sum(axis=1)):
            return
    merged: dict[tuple[int, int], float] = {}
    a_tilde = np.eye(n_nodes)
    for lineno, (src, dst, weight) in rows:
        key, total = _merge(merged, a_tilde, src, dst, weight)
        if not np.isfinite(total):
            raise ValidationError(f"{edge_list_path}: line {lineno}: the weights of "
                                  f"edge ({key[0]},{key[1]}) sum to {total}")
        with np.errstate(over="ignore"):
            degrees = a_tilde[[src, dst]].sum(axis=1)
        for node, degree in zip((src, dst), degrees):
            if not np.isfinite(degree):
                raise ValidationError(f"{edge_list_path}: line {lineno}: the degree "
                                      f"of node {node} overflows to {degree}")


def write_edge_list(path, graph: SpatialGraph) -> None:
    write_csv(path, ("src", "dst", "weight"),
              ((src, dst, float(weight)) for src, dst, weight in graph.edges))
