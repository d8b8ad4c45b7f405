"""Graph construction, the two propagation operators, and edge-list I/O."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odegate.autodiff import (Tape, Tensor, backward, finite_diff_gradient, mean_all,
                              propagate, sigmoid)
from odegate.errors import DimensionError, ParseError, ValidationError
from odegate.graph import (SpatialGraph, adaptive_adjacency, load_graph,
                           normalize_adjacency, write_edge_list)


def _spread(a, h, tape):
    """The operator applied alone: `propagate` with an identity channel map,
    whose products and zero bias are exact."""
    d = h.shape[-1]
    return propagate(a, h, Tensor(np.eye(d)), Tensor(np.zeros(d)), tape)


class TestSpatialGraph:
    def test_adjacency_symmetric_and_weighted(self):
        g = SpatialGraph(n_nodes=3, edges=[(0, 1, 2.0), (1, 2, 0.5)])
        a = g.adjacency()
        assert np.array_equal(a, a.T)
        assert a[0, 1] == 2.0 and a[1, 0] == 2.0 and a[1, 2] == 0.5
        assert a[0, 2] == 0.0 and np.all(np.diag(a) == 0.0)

    def test_duplicate_records_accumulate(self):
        g = SpatialGraph(n_nodes=2, edges=[(0, 1, 1.0), (1, 0, 2.0)])
        assert g.adjacency()[0, 1] == 3.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            SpatialGraph(n_nodes=0, edges=[])
        with pytest.raises(ValidationError):
            SpatialGraph(n_nodes=2, edges=[(0, 2, 1.0)])
        with pytest.raises(ValidationError):
            SpatialGraph(n_nodes=2, edges=[(1, 1, 1.0)])
        with pytest.raises(ValidationError):
            SpatialGraph(n_nodes=2, edges=[(0, 1, -0.5)])


    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValidationError, match="non-finite weight"):
            SpatialGraph(n_nodes=2, edges=[(0, 1, weight)])


class TestNormalizeAdjacency:
    def test_two_node_oracle(self):
        # A+I = [[1,1],[1,1]], degrees 2, so every entry is 1/2
        g = SpatialGraph(n_nodes=2, edges=[(0, 1, 1.0)])
        assert np.allclose(normalize_adjacency(g).data, np.full((2, 2), 0.5),
                           atol=1e-15)

    def test_path_graph_oracle(self):
        # 0-1-2 chain: hand-computed D^{-1/2}(A+I)D^{-1/2}
        g = SpatialGraph(n_nodes=3, edges=[(0, 1, 1.0), (1, 2, 1.0)])
        d = np.array([2.0, 3.0, 2.0])
        expected = (np.array([[1.0, 1.0, 0.0],
                              [1.0, 1.0, 1.0],
                              [0.0, 1.0, 1.0]])
                    / np.sqrt(d)[:, None] / np.sqrt(d)[None, :])
        assert np.allclose(normalize_adjacency(g).data, expected, atol=1e-15)

    def test_isolated_node_row_is_identity(self):
        g = SpatialGraph(n_nodes=3, edges=[(0, 1, 1.0)])
        ahat = normalize_adjacency(g).data
        assert ahat[2, 2] == 1.0
        assert np.all(ahat[2, :2] == 0.0) and np.all(ahat[:2, 2] == 0.0)

    def test_symmetric_output(self):
        g = SpatialGraph(n_nodes=4, edges=[(0, 1, 1.0), (1, 2, 3.0), (0, 3, 0.25)])
        ahat = normalize_adjacency(g).data
        assert np.allclose(ahat, ahat.T, atol=1e-15)

    def test_spectral_radius_at_most_one(self):
        g = SpatialGraph(n_nodes=5, edges=[(0, 1, 1.0), (1, 2, 2.0),
                                           (2, 3, 1.0), (3, 4, 4.0), (0, 4, 1.0)])
        eigs = np.linalg.eigvalsh(normalize_adjacency(g).data)
        assert np.abs(eigs).max() <= 1.0 + 1e-12


class TestAdaptiveAdjacency:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        emb = Tensor(rng.standard_normal((6, 3)))
        a = adaptive_adjacency(emb).data
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(a >= 0.0)

    def test_negative_scores_dropped(self):
        # rows [1,0] and [-1,0]: cross scores relu to zero, diagonals survive
        emb = Tensor([[1.0, 0.0], [-1.0, 0.0]])
        a = adaptive_adjacency(emb).data
        assert np.allclose(a, np.eye(2), atol=1e-15)

    def test_zero_row_falls_back_to_uniform(self):
        emb = Tensor([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        a = adaptive_adjacency(emb).data
        assert np.allclose(a[1], np.full(3, 1.0 / 3.0), atol=1e-15)
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)

    def test_differentiable_wrt_embeddings(self):
        rng = np.random.default_rng(3)
        table = Tensor(rng.standard_normal((4, 3)), requires_grad=True)

        tape = Tape()
        h = Tensor(rng.standard_normal((4, 1, 4)))   # node-major [N,B,d]

        def build(t):
            # sigmoid makes each entry of the operator count with its own slope
            return mean_all(sigmoid(_spread(adaptive_adjacency(table, t), h, t), t), t)

        loss = build(tape)
        backward(loss, tape)
        analytic = table.grad.copy()

        def f(probe):
            saved = table.data
            table.data = probe.data
            try:
                return build(Tape())
            finally:
                table.data = saved

        numeric = finite_diff_gradient(f, table).data
        denom = max(np.abs(analytic).max(), np.abs(numeric).max())
        assert np.abs(analytic - numeric).max() / denom < 1e-6

    def test_embeddings_validation(self):
        with pytest.raises(DimensionError, match="2-D"):
            adaptive_adjacency(Tensor([1.0, 2.0]))


def _sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()


def _adjacency_digests(n, zero_row):
    """sha256 of the adaptive adjacency and of the embedding gradient."""
    rng = np.random.default_rng(n)
    e = rng.standard_normal((n, 10))
    if zero_row:
        e[n // 3] = 0.0
    table = Tensor(e, requires_grad=True)
    # the batch-major [2,n,3] state these digests were first taken with, node-major
    h = Tensor(np.ascontiguousarray(rng.standard_normal((2, n, 3)).swapaxes(0, 1)))
    tape = Tape()
    a = adaptive_adjacency(table, tape)
    backward(mean_all(sigmoid(_spread(a, h, tape), tape), tape), tape)
    return _sha(a.data), _sha(table.grad)


# The adjacencies were computed while the graph was an 8-node chain of
# matmul, transpose, relu, add and divide; the two fused ops must not move a
# bit.  The embedding gradients were re-pinned when states became node-major:
# the operator's gradient g h^T became one product over [N, B*d], which
# moved each by at most 2.7e-16 of its largest entry.
ADJACENCY_DIGESTS = {
    (20, False): ("f599977878ccf132a16de07e159c0d10426dd42dbc288f9aa6f266dfe758e71b",
                  "b48de42f035edcc38e25d0f2aceb8ebf01c7c17791bda3a19c2773074fd336a4"),
    (20, True): ("f713920c178fbba3ef473004c69021e8538adfbabce9fd2477df12e9811ffcbc",
                 "67365270c35a75d25486b38bf3f86253cc92e367121117fe8b6d7d108cf8989c"),
    (300, False): ("6f8cad57157b7765b5c75424a04c37f49cd97206b8713e477ccef5af7f23a27b",
                   "c6219294fdfd56868fe27eb441681c4e05963812464f0f4c8b314796b6ce20dc"),
    (300, True): ("0f09ec1a5cc332d421a395bbe394816728d3d61e26ef6c69e0a5cadc4cf7fd2b",
                  "b29cb731ed2146b98e7dc858fad838681333aaf112b5413d51bcfb13d58f989e"),
}


@pytest.mark.parametrize("n, zero_row", sorted(ADJACENCY_DIGESTS))
def test_adjacency_pinned(n, zero_row):
    assert _adjacency_digests(n, zero_row) == ADJACENCY_DIGESTS[n, zero_row]


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_adaptive_rows_always_stochastic(n, width, seed):
    rng = np.random.default_rng(seed)
    emb = Tensor(rng.standard_normal((n, width)))
    a = adaptive_adjacency(emb).data
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(a >= 0.0)


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = SpatialGraph(n_nodes=4, edges=[(0, 1, 1.0), (2, 3, 0.125), (1, 3, 2.5)])
        path = tmp_path / "edges.csv"
        write_edge_list(path, g)
        loaded = load_graph(path, n_nodes=4)
        assert np.array_equal(loaded.adjacency(), g.adjacency())

    def test_exact_float_round_trip(self, tmp_path):
        w = 0.1 + 0.2  # not representable tidily; repr must preserve it
        g = SpatialGraph(n_nodes=2, edges=[(0, 1, w)])
        path = tmp_path / "edges.csv"
        write_edge_list(path, g)
        assert load_graph(path, 2).edges[0][2] == w

    def test_duplicates_merged_on_load(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n0,1,1.0\n1,0,0.5\n")
        g = load_graph(path, 2)
        assert len(g.edges) == 1
        assert g.adjacency()[0, 1] == 1.5

    def test_header_required(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("a,b,c\n0,1,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_graph(path, 2)

    def test_bad_cell_names_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n0,1,1.0\n0,x,2.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_graph(path, 2)

    def test_semantic_errors_name_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n0,5,1.0\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_graph(path, 2)
        path.write_text("src,dst,weight\n1,1,1.0\n")
        with pytest.raises(ValidationError, match="self-loop"):
            load_graph(path, 2)
        path.write_text("src,dst,weight\n0,1,-2.0\n")
        with pytest.raises(ValidationError, match="negative"):
            load_graph(path, 2)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_names_line(self, tmp_path, weight):
        path = tmp_path / "edges.csv"
        path.write_text(f"src,dst,weight\n0,1,1.0\n1,2,{weight}\n")
        with pytest.raises(ValidationError, match="line 3: .*non-finite weight"):
            load_graph(path, 3)

    @pytest.mark.parametrize("lines, message", [
        ("0,1,1e308\n1,2,1e308\n", r"line 3: the degree of node 1 overflows to inf"),
        ("0,1,1e308\n1,0,1e308\n", r"line 3: the weights of edge \(0,1\) sum to inf"),
    ], ids=["degree", "edge"])
    def test_overflowing_sums_name_line(self, tmp_path, lines, message):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n" + lines)
        with pytest.raises(ValidationError, match=f"edges.csv: {message}"):
            load_graph(path, 3)

    def test_overflow_is_named_before_a_later_bad_edge(self, tmp_path):
        # the sums are checked after the edge rules of the lines read; an
        # earlier line that overflowed is still the one named
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n0,1,1e308\n1,2,1e308\n0,2,-1.0\n")
        with pytest.raises(ValidationError, match="line 3: the degree of node 1 overflows"):
            load_graph(path, 3)

    def test_degree_overflows_where_normalization_would(self, tmp_path):
        # node 1's degree 1 + 2w rounds to the largest float at w = max / 2,
        # and overflows one ulp of w above it
        path = tmp_path / "edges.csv"
        w = float(np.finfo(np.float64).max) / 2
        path.write_text(f"src,dst,weight\n0,1,{w!r}\n1,2,{w!r}\n")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            a_hat = normalize_adjacency(load_graph(path, 3)).data
        assert np.isfinite(a_hat).all()
        w = math.nextafter(w, math.inf)
        path.write_text(f"src,dst,weight\n0,1,{w!r}\n1,2,{w!r}\n")
        with pytest.raises(ValidationError, match="line 3: the degree of node 1"):
            load_graph(path, 3)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n0,1,1.0\n\n")
        assert len(load_graph(path, 2).edges) == 1
