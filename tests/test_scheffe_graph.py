import io
import itertools
import json
import math
import tracemalloc
import weakref
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ldpselect import (
    DiscreteDistribution,
    HypothesisSet,
    build_scheffe_graph,
    check_metric_triple,
    check_triangle,
    count_low_indegree,
    find_dominating_set,
    random_hypothesis_set,
    scan_triangles,
    verify_domination,
)
from ldpselect import scheffe_graph
from ldpselect.barriers import _lower_bound_targets, build_flattening_family, build_lower_bound_graph
from ldpselect.distributions import GENERATOR_MODELS
from ldpselect.errors import (
    ArgumentError,
    ConfigError,
    InvariantError,
    ResamplingLimitError,
    UnsupportedSizeError,
)
from ldpselect.scheffe_graph import (
    DominatingSetCertificate,
    PairDigraph,
    TriangleScan,
    VertexPair,
    all_pairs,
    domination_bound,
    graph_to_json_dict,
    minimum_cover_size,
    pair_count,
    pair_index,
    sample_size,
)

PHI = 1.0 / 6.0


def two_hypotheses():
    return HypothesisSet((DiscreteDistribution(np.array([1.0, 0.0])),
                          DiscreteDistribution(np.array([0.0, 1.0]))))


def duplicate_pair_set():
    """q1 = q2 plus a distinct q3; the {1,2} vertex has zero pair norm."""
    q = DiscreteDistribution(np.array([0.5, 0.5, 0.0]))
    q3 = DiscreteDistribution(np.array([0.0, 0.2, 0.8]))
    return HypothesisSet((q, q, q3))


def vertex_pairs(k, ids=slice(None)):
    """The VertexPair of each given vertex id (every vertex by default), as certificates hold them."""
    return [VertexPair(lo + 1, hi + 1) for lo, hi in all_pairs(k)[ids].tolist()]


def pair_norms(Q):
    """||q_j - q_j'||_1 per vertex {j, j'}, in vertex-id order."""
    pairs = all_pairs(Q.k)
    return np.abs(Q.probs_matrix[pairs[:, 0]] - Q.probs_matrix[pairs[:, 1]]).sum(axis=1)


def random_digraph(k, seed, density):
    """Seeded PairDigraph with each ordered pair of distinct vertices an edge with probability density."""
    V = pair_count(k)
    adj = np.random.default_rng(seed).random((V, V)) < density
    np.fill_diagonal(adj, False)
    return adjacency_digraph(k, adj)


def adjacency_digraph(k, adj):
    """PairDigraph whose row v holds the columns set in row v of a (V, V) bool adjacency matrix."""
    return PairDigraph(k, [np.flatnonzero(row).astype(np.int32) for row in adj])


def edge_adjacency(k, sources, targets):
    """(V, V) bool adjacency matrix with exactly the edges sources[i] -> targets[i]."""
    adj = np.zeros((pair_count(k), pair_count(k)), dtype=bool)
    adj[sources, targets] = True
    return adj


def pair_ids(k):
    """Vertex id of each unordered 0-based pair, as a frozenset, in lexicographic order."""
    return {frozenset(p): v for v, p in enumerate(itertools.combinations(range(k), 2))}


def brute_force_triangles(G):
    """Reference TriangleScan and check_triangle of every ordered triple, from set(out_edges[u])."""
    k, ids = G.k, pair_ids(G.k)
    out = [set(o.tolist()) for o in G.out_edges]

    def edge(p, q):
        return ids[frozenset(q)] in out[ids[frozenset(p)]]

    def cases(x, y, z):
        hold = {"i": edge((x, z), (y, z)) and edge((y, z), (x, z)),
                "ii": edge((x, y), (x, z)),
                "iii": edge((x, y), (y, z))}
        return tuple(c for c in ("i", "ii", "iii") if hold[c])

    checks, counts, violations = {}, {"i": 0, "ii": 0, "iii": 0}, 0
    for trio in itertools.combinations(range(k), 3):
        orders = list(itertools.permutations(trio))
        any_case = any(cases(*order) for order in orders)
        violations += not any_case
        for c in cases(*trio):
            counts[c] += 1
        for order in orders:
            labels = cases(*order)
            checks[tuple(t + 1 for t in order)] = labels if labels or any_case else ("violation",)
    return TriangleScan(math.comb(k, 3), violations, counts), checks


class TestPairIndexing:
    def test_lexicographic(self):
        k = 5
        pairs = all_pairs(k)
        for vid, (i, j) in enumerate(pairs):
            assert pair_index(int(i), int(j), k) == vid
        assert pair_count(k) == len(pairs)

    def test_vertex_pair_round_trip(self):
        k = 7
        for vid, p in enumerate(vertex_pairs(k)):
            assert p.vertex_id(k) == vid

    def test_vertex_pair_validation(self):
        with pytest.raises(Exception):
            VertexPair(3, 3)
        with pytest.raises(ArgumentError):
            VertexPair(2, 9).vertex_id(k=4)

    @pytest.mark.parametrize("vid", [-1, pair_count(4)])
    def test_pairs_from_ids_out_of_range(self, vid):
        with pytest.raises(ArgumentError):
            scheffe_graph._pairs_from_ids([vid], 4)

    def test_index_data_is_kept_read_only_per_k(self):
        for index in (all_pairs, scheffe_graph._star_ids):
            first = index(6)
            assert index(6) is first and not first.flags.writeable
            with pytest.raises(ValueError):
                first[0, 0] = 1
        ids = np.array([14, 0, 3, 3])
        pairs = scheffe_graph._pairs_from_ids(ids, 6)
        assert pairs == tuple(vertex_pairs(6, ids))
        assert all(p is scheffe_graph._vertex_pairs(6)[i] for p, i in zip(pairs, ids.tolist()))

    def test_ids_from_pairs_of_no_pairs(self):
        ids = scheffe_graph._ids_from_pairs([], 5)
        assert ids.dtype == np.int64 and ids.shape == (0,)

    def test_ids_from_pairs_names_the_first_pair_outside_k(self):
        pairs = [VertexPair(1, 2), VertexPair(3, 7), VertexPair(2, 9)]
        with pytest.raises(ArgumentError, match=r"VertexPair\(lo=3, hi=7\) is not a vertex of a graph on 6"):
            scheffe_graph._ids_from_pairs(pairs, 6)

    @pytest.mark.parametrize("k", [2, 7, 40])
    def test_ids_from_pairs_match_vertex_id(self, k):
        """Every vertex in id order, then a seeded shuffle of them with repeats."""
        corpus = vertex_pairs(k)
        corpus += [corpus[i] for i in np.random.default_rng(k).integers(len(corpus), size=3 * len(corpus)).tolist()]
        ids = scheffe_graph._ids_from_pairs(corpus, k)
        assert ids.dtype == np.int64
        assert ids.tolist() == [p.vertex_id(k) for p in corpus]

    def test_pair_index_either_order(self):
        assert pair_index(3, 1, 5) == pair_index(1, 3, 5)
        i, j = np.triu_indices(5, 1)
        assert np.array_equal(pair_index(j, i, 5), np.arange(pair_count(5)))

    @pytest.mark.parametrize("k", range(2, 8))
    def test_lower_bound_targets_brute_force(self, k):
        """Row {a, b} takes {b, i} for each i outside it where {a, i} alone is sampled, else {a, i}."""
        ids = pair_ids(k)
        V = pair_count(k)
        for sampled in (np.arange(0), np.random.default_rng(k).choice(V, size=V // 2, replace=False), np.arange(V)):
            in_R = set(sampled.tolist())
            expect = []
            for a, b in all_pairs(k).tolist():
                row = []
                for i in (i for i in range(k) if i not in (a, b)):
                    wa, wb = ids[frozenset((a, i))], ids[frozenset((b, i))]
                    row.append(wb if wa in in_R and wb not in in_R else wa)
                expect.append(row)
            targets = _lower_bound_targets(k, sampled)
            assert targets.shape == (V, k - 2) and targets.dtype == np.int32
            assert targets.tolist() == expect

    @pytest.mark.parametrize("k", [*range(2, 8), 16, 24])
    def test_shared_index_edges_brute_force(self, k):
        """Random digraphs at k <= 7, lower-bound graphs at k = 16 and 24."""
        G = random_digraph(k, seed=k, density=0.5) if k < 8 else build_lower_bound_graph(k, seed=k).graph
        ids = pair_ids(k)
        expect = []
        for c in range(k):
            star = [ids[frozenset((c, x))] for x in range(k) if x != c]
            expect.append([[v != w and w in G.out_edges[v] for w in star] for v in star])
        table = G.shared_index_edges
        assert table.shape == (k, k - 1, k - 1)
        assert table.tolist() == expect
        assert not table.flags.writeable


class TestBuild:
    def test_k2_single_vertex_no_edges(self):
        G = build_scheffe_graph(two_hypotheses(), PHI)
        assert G.num_vertices == 1
        assert G.edge_count == 0

    def test_point_mass_edges(self, point_mass_triple):
        G = build_scheffe_graph(point_mass_triple, PHI)
        # {1,2}->{2,3} carries inner product 2; {1,2}->{1,3} carries 0.
        assert 2 in G.out_edges[0]
        assert 1 not in G.out_edges[0]
        assert [list(out) for out in G.out_edges] == [[2], [2], [1]]

    def test_duplicate_hypotheses_zero_norm_vertex(self):
        Q = duplicate_pair_set()
        G = build_scheffe_graph(Q, PHI)
        v12 = VertexPair(1, 2).vertex_id(3)
        others = [v for v in range(G.num_vertices) if v != v12]
        assert all(v12 in G.out_edges[u] for u in others)
        assert pair_norms(Q)[v12] == 0.0

    def test_phi_validation(self):
        with pytest.raises(ConfigError):
            build_scheffe_graph(two_hypotheses(), 0.0)
        with pytest.raises(ConfigError):
            build_scheffe_graph(two_hypotheses(), 1.5)

    @pytest.mark.parametrize("phi", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_phi_rejected(self, phi):
        with pytest.raises(ConfigError, match="phi"):
            build_scheffe_graph(two_hypotheses(), phi)

    def test_rebuild_reproduces_edges(self):
        Q = random_hypothesis_set(8, 10, seed=3)
        G1 = build_scheffe_graph(Q, PHI)
        G2 = build_scheffe_graph(Q, PHI)
        assert all(np.array_equal(a, b) for a, b in zip(G1.out_edges, G2.out_edges))
        assert np.array_equal(G1.in_degrees, G2.in_degrees)

    def test_self_test_identity(self):
        # each vertex's own Scheffe set recovers its own norm exactly
        Q = random_hypothesis_set(6, 12, seed=11)
        norms = pair_norms(Q)
        pairs = all_pairs(Q.k)
        deltas = Q.probs_matrix[pairs[:, 0]] - Q.probs_matrix[pairs[:, 1]]
        signs = np.where(deltas >= 0.0, 1.0, -1.0)
        own = np.abs((signs * deltas).sum(axis=1))
        assert np.allclose(own, norms, atol=1e-9)
        positive = norms > 0
        assert np.all(own[positive] >= PHI * norms[positive] - 1e-12)

    def test_arrays_frozen(self):
        G = build_scheffe_graph(random_hypothesis_set(4, 6, seed=2), PHI)
        for arr in (max(G.out_edges, key=len), G.in_degrees):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_plain_rows_sum_their_in_degrees(self):
        # edges {1,2} -> {2,3} and {2,3} -> {1,2}, given as plain rows without in-degrees
        rows = (np.array([2]), np.array([], dtype=np.int64), np.array([0]))
        G = PairDigraph(k=3, out_edges=rows)
        assert G.edge_count == 2 and G.in_degrees.tolist() == [1, 0, 1]
        assert not G.in_degrees.flags.writeable
        assert scan_triangles(G).violations == 0

    @pytest.mark.parametrize("count", [0, 1, 2, 4])
    def test_rows_must_number_one_per_vertex(self, count):
        with pytest.raises(InvariantError, match="needs 3 rows"):
            PairDigraph(k=3, out_edges=tuple(np.empty(0, dtype=np.int64) for _ in range(count)))

    def test_caller_rows_are_packed_not_kept(self):
        # edges {1,2} -> {1,3}, {2,3} and {2,3} -> {1,2}, the first row given out of order
        rows = (np.array([2, 1], dtype=np.int64), np.empty(0, dtype=np.int64), np.array([0]))
        G = PairDigraph(k=3, out_edges=rows, in_degrees=np.ones(3, dtype=np.int64))
        assert [out.tolist() for out in G.out_edges] == [[1, 2], [], [0]]
        assert not any(out.flags.writeable for out in G.out_edges)
        assert not G.in_degrees.flags.writeable
        rows[0][:] = 0  # a self-loop and a repeat, had the rows been kept
        rows[2][0] = 1
        assert [out.tolist() for out in G.out_edges] == [[1, 2], [], [0]]
        assert G.out_edges.bits.tolist() == [[0b01100000], [0], [0b10000000]]
        first = weakref.ref(rows[0])
        del rows
        assert first() is None  # the graph holds no reference to the rows it was given

    @staticmethod
    def bool_block_bits(rows, V):
        """Reference: a (V, V) bool adjacency filled one row at a time, then np.packbits."""
        adj = np.zeros((V, V), dtype=bool)
        for v, out in enumerate(rows):
            adj[v, np.asarray(out)] = True
        return np.packbits(adj, axis=1)

    @pytest.mark.parametrize("max_rows", [1, 7, 64])
    @pytest.mark.parametrize("shuffled", [False, True], ids=["increasing", "shuffled"])
    def test_packed_rows_match_row_by_row_reference_on_random_digraphs(self, monkeypatch, max_rows, shuffled):
        """V = 10, 36 and 66 end inside a byte; density 0.97 fills whole bytes."""
        monkeypatch.setattr(scheffe_graph, "_MAX_BLOCK_ROWS", max_rows)
        for seed, (k, density, dtype) in enumerate([(5, 0.0, np.int64), (8, 0.05, np.int32), (9, 0.5, np.uint16),
                                                     (12, 0.97, np.int64)]):
            V = pair_count(k)
            rng = np.random.default_rng(seed)
            adj = rng.random((V, V)) < density
            np.fill_diagonal(adj, False)
            rows = [np.flatnonzero(row).astype(dtype) for row in adj]
            if shuffled:
                rows = [rng.permutation(row) for row in rows]
            assert np.array_equal(PairDigraph(k, rows).out_edges.bits, self.bool_block_bits(rows, V)), k

    @pytest.mark.parametrize("k", [16, 24, 32, 48, 64])
    def test_packed_rows_match_row_by_row_reference_on_lower_bound_graphs(self, k):
        lb = build_lower_bound_graph(k, seed=k)
        assert np.array_equal(lb.graph.out_edges.bits, self.bool_block_bits(lb.targets, pair_count(k)))

    @pytest.mark.parametrize("rows, message", [
        ([[5], [0, 0], [2]], "row 0 holds an id outside 0..2"),
        ([[-1], [], []], "row 0 holds an id outside 0..2"),
        ([[], [0, 0], [2]], "row 1 repeats a target"),
        ([[], [], [2]], "row 2 has a self-loop"),
        ([[], [0.5], []], "row 1 is not a 1-d array of integer vertex ids"),
        ([[], [], [[0]]], "row 2 is not a 1-d array of integer vertex ids"),
        ([[1], [0, 0], [0.5]], "row 1 repeats a target"),  # the first bad row, whatever comes after it
        ([[1], [0.5], [9]], "row 1 is not a 1-d array of integer vertex ids"),
        ([[0, 0], [], []], "row 0 has a self-loop"),  # and a repeat: the self-loop is named
        ([[], [], np.array([2**64 - 1], dtype=np.uint64)], "row 2 holds an id outside 0..2"),
    ])
    def test_invalid_rows_are_named(self, rows, message):
        with pytest.raises(InvariantError, match=message):
            PairDigraph(3, rows)

    @staticmethod
    def row_by_row_error(rows, V):
        """Reference: the error of the first bad row, each row checked on its own, or None."""
        for v, row in enumerate(rows):
            out = np.asarray(row)
            if out.ndim != 1 or (out.size and out.dtype.kind not in "iu"):
                return f"row {v} is not a 1-d array of integer vertex ids"
            if out.size and (out.min() < 0 or out.max() >= V):
                return f"row {v} holds an id outside 0..{V - 1}"
            if v in out.tolist():
                return f"row {v} has a self-loop"
            if np.unique(out).size != out.size:
                return f"row {v} repeats a target"
        return None

    @pytest.mark.parametrize("max_rows", [1, 5, 64])
    def test_blocks_of_rows_match_row_by_row_reference(self, monkeypatch, max_rows):
        """Random rows at k = 8 (V = 28), up to three of them spoilt, packed in blocks of 1, 5 or 28 rows."""
        monkeypatch.setattr(scheffe_graph, "_MAX_BLOCK_ROWS", max_rows)
        k, V = 8, 28
        rng = np.random.default_rng(max_rows)
        errors = 0
        for _ in range(80):
            rows = [rng.choice(np.delete(np.arange(V), v), size=int(rng.integers(0, 6)), replace=False)
                    for v in range(V)]
            for v in rng.choice(V, size=int(rng.integers(0, 4))).tolist():
                out = rows[v]
                rows[v] = [np.append(out, V + 3), np.append(out, -1), np.append(out, v), np.append(out, out[:1]),
                           out + 0.5, out.reshape(1, -1)][int(rng.integers(6))]
            expected = self.row_by_row_error(rows, V)
            if expected is None:
                adj = np.zeros((V, V), dtype=bool)
                for v, out in enumerate(rows):
                    adj[v, out] = True
                assert np.array_equal(PairDigraph(k, rows).out_edges.bits, np.packbits(adj, axis=1))
            else:
                errors += 1
                with pytest.raises(InvariantError) as raised:
                    PairDigraph(k, rows)
                assert str(raised.value) == expected
        assert 0 < errors < 80  # both outcomes occur

    @pytest.mark.parametrize("k", [1, 0, -2, 2.0, True, "3", None])
    def test_k_must_be_an_integer_of_at_least_two(self, k):
        with pytest.raises(InvariantError, match="k must be an integer of at least 2"):
            PairDigraph(k, ())

    @pytest.mark.parametrize("count", [2, 4])
    def test_in_degrees_must_number_one_per_vertex(self, count):
        with pytest.raises(InvariantError, match=f"needs 3 in-degrees, got {count}"):
            PairDigraph(3, [[], [], []], in_degrees=np.zeros(count, dtype=np.int64))

    # edges {1,2} -> {1,3}, {1,3} -> {2,3} and {2,3} -> {1,2}: every in-degree is 1
    CYCLE = ([1], [2], [0])

    @pytest.mark.parametrize("in_degrees", [np.ones(3, dtype=np.int64), [1, 1, 1], np.ones(3, dtype=np.uint8)])
    def test_given_in_degrees_match_the_bits(self, in_degrees):
        G = PairDigraph(3, self.CYCLE, in_degrees=in_degrees)
        assert G.edge_count == 3 and G.in_degrees.tolist() == [1, 1, 1]
        assert G.in_degrees.dtype == np.int64 and not G.in_degrees.flags.writeable

    @pytest.mark.parametrize("in_degrees, message", [
        ([5, 0, 0], "vertex 0 has in-degree 1, but 5 was given"),
        (np.array([1, 1, 2]), "vertex 2 has in-degree 1, but 2 was given"),
        ([1.0, 1.0, 1.0], "in-degrees must be a 1-d array of integers, got float64 of shape"),
        ([True, True, True], "in-degrees must be a 1-d array of integers, got bool of shape"),
        ([[1], [1], [1]], r"in-degrees must be a 1-d array of integers, got int64 of shape \(3, 1\)"),
        (np.int64(3), r"in-degrees must be a 1-d array of integers, got int64 of shape \(\)"),
    ], ids=["wrong", "wrong-last", "float", "bool", "2-d", "0-d"])
    def test_given_in_degrees_are_checked(self, in_degrees, message):
        with pytest.raises(InvariantError, match=message):
            PairDigraph(3, self.CYCLE, in_degrees=in_degrees)

    def test_caller_in_degrees_stay_writeable(self):
        in_degrees = np.ones(3, dtype=np.int64)
        G = PairDigraph(3, self.CYCLE, in_degrees=in_degrees)
        assert in_degrees.flags.writeable
        in_degrees[0] = 7
        assert G.in_degrees.tolist() == [1, 1, 1]

    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    def test_edge_ids_of_plain_rows_match_adjacency(self, density):
        k = 6
        adj = np.random.default_rng(7).random((pair_count(k), pair_count(k))) < density
        np.fill_diagonal(adj, False)
        G = adjacency_digraph(k, adj)
        sources, targets = G.edge_ids()
        expected_sources, expected_targets = np.nonzero(adj)
        assert np.array_equal(sources, expected_sources) and np.array_equal(targets, expected_targets)
        assert G.edge_count == sources.size == adj.sum()
        assert np.array_equal(G.in_degrees, adj.sum(axis=0))


def per_edge_export(G):
    """Reference edge list: one [a, b, c, d] per edge, walked row by row."""
    pairs = all_pairs(G.k) + 1
    edges = []
    for u, out in enumerate(G.out_edges):
        for w in out:
            edges.append([int(pairs[u, 0]), int(pairs[u, 1]), int(pairs[w, 0]), int(pairs[w, 1])])
    return edges


class TestExport:
    @pytest.mark.parametrize("G", [
        *(pytest.param(build_scheffe_graph(random_hypothesis_set(12, 9, seed=4, model=model), PHI), id=model)
          for model in GENERATOR_MODELS),
        pytest.param(build_scheffe_graph(two_hypotheses(), PHI), id="k2-edgeless"),
        pytest.param(random_digraph(7, seed=5, density=0.3), id="random-digraph"),
        pytest.param(build_lower_bound_graph(16, seed=2).graph, id="lower-bound"),
    ])
    def test_matches_per_edge_reference(self, G):
        doc = graph_to_json_dict(G)
        assert doc["edges"] == per_edge_export(G)
        assert all(type(x) is int for edge in doc["edges"] for x in edge)
        assert doc["k"] == G.k and doc["phi"] == G.phi

    def test_build_records_phi(self):
        G = build_scheffe_graph(random_hypothesis_set(5, 6, seed=13), 0.25)
        assert type(G.phi) is float and G.phi == 0.25

    def test_unrecorded_phi_exports_as_null(self):
        G = adjacency_digraph(4, edge_adjacency(4, [0, 2], [1, 5]))
        assert G.phi is None
        doc = graph_to_json_dict(G)
        assert doc["phi"] is None
        assert doc["edges"] == [[1, 2, 1, 3], [1, 4, 3, 4]]


def dense_scheffe_graph(Q, phi):
    """Reference build: the (V, V) bool adjacency from one full inner-product matrix."""
    pairs = all_pairs(Q.k)
    deltas = Q.probs_matrix[pairs[:, 0]] - Q.probs_matrix[pairs[:, 1]]
    inner = np.where(deltas >= 0.0, 1.0, -1.0) @ deltas.T
    adj = np.abs(inner) >= phi * np.abs(deltas).sum(axis=1)[np.newaxis, :]
    np.fill_diagonal(adj, False)
    return adj


class TestBlockedBuild:
    """The row-blocked build against the one-matrix reference.

    At k = 64 (V = 2016) a row block holds _MAX_BLOCK_ROWS = 64 rows, so the
    graph has 31 full blocks and then a partial one of 32 rows.
    """

    @staticmethod
    def assert_matches_dense_reference(Q):
        k = Q.k
        adj = dense_scheffe_graph(Q, PHI)
        G = build_scheffe_graph(Q, PHI)
        V = pair_count(k)
        assert len(G.out_edges) == V
        assert all(np.array_equal(out, np.flatnonzero(row)) for out, row in zip(G.out_edges, adj))
        assert np.array_equal(G.in_degrees, adj.sum(axis=0))
        sources, targets = G.edge_ids()
        assert all(np.array_equal(a, b) for a, b in zip((sources, targets), np.nonzero(adj), strict=True))
        star = scheffe_graph._star_ids(k)
        table = adj[star[:, :, np.newaxis], star[:, np.newaxis, :]]
        assert np.array_equal(G.shared_index_edges, table)
        assert np.array_equal(adjacency_digraph(k, adj).shared_index_edges, table)
        # dominating: the sampled certificate and the full set; not dominating: everything but the
        # vertex w of least in-degree and its in-neighbours, which leaves w alone uncovered
        w = int(np.argmin(adj.sum(axis=0)))
        missing_w = np.flatnonzero(~adj[:, w] & (np.arange(V) != w))
        seeded = np.random.default_rng(k).permutation(V)
        sets = [(find_dominating_set(G, Q, seed=k).dominating_set, True), (vertex_pairs(k), True),
                (vertex_pairs(k, missing_w), False)]
        sets += [(vertex_pairs(k, seeded[:n]), None) for n in (1, V // 8, V // 2)]
        for D, expected in sets:
            ids = [p.vertex_id(k) for p in D]
            dense = adj[ids].any(axis=0)
            dense[ids] = True
            dominated = verify_domination(G, D)
            assert dominated == dense.all()
            assert expected in (None, dominated)

    @pytest.mark.parametrize("model", [*GENERATOR_MODELS, "duplicate"])
    def test_matches_dense_reference(self, model):
        Q = random_hypothesis_set(64, 64, seed=17, model="dirichlet-uniform" if model == "duplicate" else model)
        if model == "duplicate":  # q2 = q1, so vertex {1, 2} has zero norm
            h = Q.hypotheses
            Q = HypothesisSet((h[0], h[0], *h[2:]))
            assert pair_norms(Q)[0] == 0.0
        self.assert_matches_dense_reference(Q)

    @pytest.mark.parametrize("limit", [None, ("_BLOCK_BYTES", 1 << 16), ("_MAX_BLOCK_ROWS", 1),
                                       ("_MAX_BLOCK_ROWS", 7)])
    @pytest.mark.parametrize("model", GENERATOR_MODELS)
    @pytest.mark.parametrize("k", [2, 3, 45, 46])
    def test_matches_dense_reference_around_powers_of_two(self, monkeypatch, k, model, limit):
        """Rows are packed eight columns to a byte, the last byte padded: V = 1 and V = 3
        fill part of one byte, V = 990 and V = 1035 (just under and over 1024) end 6 and
        3 columns into their last byte.  64 KiB blocks hold 7 or 8 rows, and blocks capped
        at 1 or 7 rows cut the packed rows across many blocks too: a row's bits do not
        depend on the block it is computed in."""
        if limit is not None:
            monkeypatch.setattr(scheffe_graph, *limit)
        self.assert_matches_dense_reference(random_hypothesis_set(k, 16, seed=k, model=model))

    def test_rows_are_sorted_read_only_int32(self):
        Q = random_hypothesis_set(12, 16, seed=4)
        G = build_scheffe_graph(Q, PHI)
        adj = dense_scheffe_graph(Q, PHI)
        rows = [G.out_edges[v] for v in range(len(G.out_edges))]
        assert all(out.dtype == np.int32 and not out.flags.writeable for out in rows)
        assert all(np.array_equal(out, np.sort(out)) for out in rows)
        assert all(np.array_equal(out, np.flatnonzero(row)) for out, row in zip(rows, adj, strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(G.out_edges, rows, strict=True))
        assert np.array_equal(G.out_edges[-1], rows[-1])
        with pytest.raises(ValueError):
            G.out_edges.bits[0, 0] = 0

    @pytest.mark.parametrize("model", GENERATOR_MODELS)
    def test_peak_memory_below_one_dense_matrix(self, model):
        """At k = 96 one float64 V x V matrix is 159 MiB; the build must stay below it.

        The edges are also held once: the V * ceil(V / 8) bytes of packed
        bits plus at most 36 MiB for a row block and the shared-index tables.
        """
        k = 96
        Q = random_hypothesis_set(k, 64, seed=5, model=model)
        tracemalloc.start()
        try:
            G = build_scheffe_graph(Q, PHI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.edge_count > 0
        assert peak < pair_count(k) ** 2 * 8
        V = pair_count(k)
        assert peak <= V * -(-V // 8) + (36 << 20)


def filled_table(G):
    """The shared-index table read bit by bit from G's fully filled packed rows."""
    star = scheffe_graph._star_ids(G.k)
    rows, candidates = star[:, :, np.newaxis], star[:, np.newaxis, :]
    return ((G.out_edges.bits[rows, candidates >> 3] >> (7 - (candidates & 7))) & 1).astype(bool)


def hadamard_hypotheses(k, point_masses):
    """The first k Hadamard-derived columns, alternating with point masses where point_masses is
    set, on the smallest power-of-two domain of at least 8 that holds them."""
    n = max(8, 1 << (-(-k // (1 + point_masses)) - 1).bit_length())
    fam = build_flattening_family(n)
    columns = fam.hadamard_columns
    if point_masses:
        columns = np.stack([columns, fam.point_mass_columns], axis=2).reshape(n, 2 * n)
    return HypothesisSet(tuple(DiscreteDistribution(column) for column in columns[:, :k].T))


def with_duplicates(Q):
    """Q with q2 = q1 and, where there are that many, q5 = q4 = q3: vertices of zero pair norm."""
    h = list(Q.hypotheses)
    h[1] = h[0]
    h[3:5] = h[2:3] * len(h[3:5])
    return HypothesisSet(tuple(h))


BUILD_MODELS = [*GENERATOR_MODELS, "duplicates", "hadamard", "hadamard-pm"]


def model_instance(model, k):
    """A generator model's Q at d = 64 and seed k; duplicates is sparse with_duplicates, hadamard(-pm) the
    hadamard_hypotheses."""
    if model.startswith("hadamard"):
        return hadamard_hypotheses(k, point_masses=model == "hadamard-pm")
    Q = random_hypothesis_set(k, 64, seed=k, model="sparse" if model == "duplicates" else model)
    return with_duplicates(Q) if model == "duplicates" else Q


class TestLazyRows:
    """Packed rows are computed one row block at a time, on the first read of a row in the block."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # V = 190: 8 KiB blocks hold 5 rows, so the graph has 38 blocks
        monkeypatch.setattr(scheffe_graph, "_BLOCK_BYTES", 1 << 13)
        Q = random_hypothesis_set(20, 16, seed=8)
        return Q, dense_scheffe_graph(Q, PHI)

    def test_rows_read_in_any_order_match_dense_reference(self, small_blocks):
        Q, adj = small_blocks
        G = build_scheffe_graph(Q, PHI)
        rows = G.out_edges
        assert rows.filled_blocks == 0
        order = np.random.default_rng(3).permutation(len(rows))
        for n, v in enumerate(order.tolist(), 1):
            assert np.array_equal(rows[v], np.flatnonzero(adj[v]))
            if n == 1:
                assert rows.filled_blocks == 1
        assert rows.filled_blocks == 38

    def test_every_reader_matches_dense_reference(self, small_blocks):
        Q, adj = small_blocks
        V = adj.shape[0]
        readers = {
            "bits": lambda G: np.array_equal(G.out_edges.bits, np.packbits(adj, axis=1)),
            "edge_ids": lambda G: all(np.array_equal(a, b) for a, b in zip(G.edge_ids(), np.nonzero(adj), strict=True)),
            "in_degrees": lambda G: np.array_equal(G.in_degrees, adj.sum(axis=0)),
            "edge_count": lambda G: G.edge_count == adj.sum(),
            "has_edges": lambda G: np.array_equal(G.out_edges.has_edges(np.arange(V), np.arange(V)[::-1]),
                                                  adj[np.arange(V), np.arange(V)[::-1]]),
        }
        for name, reader in readers.items():
            assert reader(build_scheffe_graph(Q, PHI)), name
        bits = build_scheffe_graph(Q, PHI).out_edges.bits
        with pytest.raises(ValueError):
            bits[0, 0] = 0

    def test_verify_fills_only_the_blocks_of_the_rows_it_reads(self, small_blocks, monkeypatch):
        Q, adj = small_blocks
        V = adj.shape[0]
        G = build_scheffe_graph(Q, PHI)
        G.out_edges[152]  # fills block 30, rows 150..154
        read = TestVerifyDomination.blocks_read(monkeypatch)
        # every vertex is a member: the filled block is read first, and covers
        assert verify_domination(G, vertex_pairs(Q.k))
        assert read == [list(range(150, 155))]
        # every vertex but x, which a row of the filled block reaches: that block is read first and covers
        x = int(np.flatnonzero(adj[150:155].any(axis=0) & ((np.arange(V) < 150) | (np.arange(V) >= 155)))[0])
        assert verify_domination(G, vertex_pairs(Q.k, np.delete(np.arange(V), x)))
        assert read == [list(range(150, 155))] * 2
        assert G.out_edges.filled_blocks == 1
        # everything but w and its in-neighbours: not dominating, so every row of the set is read
        w = int(np.argmin(adj.sum(axis=0)))
        missing_w = np.flatnonzero(~adj[:, w] & (np.arange(V) != w))
        G = build_scheffe_graph(Q, PHI)
        assert not verify_domination(G, vertex_pairs(Q.k, missing_w))
        assert G.out_edges.filled_blocks == np.unique(missing_w // 5).size

    @pytest.mark.parametrize("table_first", [True, False])
    def test_build_computes_the_table_once(self, monkeypatch, table_first):
        """The build computes the table, once, and fills no row; later reads of the table and of a
        row, in either order, never compute it again."""
        calls = []
        star_table = scheffe_graph._star_shared_index_edges
        monkeypatch.setattr(scheffe_graph, "_star_shared_index_edges", lambda *args: calls.append(1) or star_table(*args))
        Q = random_hypothesis_set(12, 16, seed=6)
        G = build_scheffe_graph(Q, PHI)
        assert len(calls) == 1 and G.out_edges.filled_blocks == 0
        reads = [lambda: G.shared_index_edges, lambda: G.out_edges[0]]
        for read in reads if table_first else reads[::-1]:
            read()
        assert len(calls) == 1 and G.out_edges.filled_blocks == 1
        assert np.array_equal(G.out_edges.bits, np.packbits(dense_scheffe_graph(Q, PHI), axis=1))
        assert np.array_equal(G.shared_index_edges, filled_table(G)) and len(calls) == 1

    @pytest.mark.parametrize("model", GENERATOR_MODELS)
    def test_offline_path_fills_few_blocks(self, model):
        """At k = 128 a row block holds 64 of the 8128 rows.  The build reads no row (the sparse
        instance has two identical hypotheses, a zero-norm vertex); the dominating-set search and
        the triangle scan read the table alone.  The
        family's domination check reads the blocks holding the most members of D first and stops
        at the first block that covers: here within 192 rows, where blocks of 258 rows took 258
        to 516.  The second check reads those filled blocks first and fills no other."""
        from ldpselect.rmde import query_family_from_dominating_set

        k, V = 128, pair_count(128)
        Q = random_hypothesis_set(k, 64, seed=11, model=model)
        step = scheffe_graph._block_rows(V)
        assert (pair_norms(Q) == 0).any() == (model == "sparse")
        G = build_scheffe_graph(Q, PHI)
        assert G.out_edges.filled_blocks == 0
        cert = find_dominating_set(G, Q, seed=2)
        scan_triangles(G)
        assert G.out_edges.filled_blocks == 0
        assert query_family_from_dominating_set(Q, cert, PHI, graph=G).certifies(Q)
        filled = np.flatnonzero(G.out_edges._filled)
        assert 1 <= filled.size and filled.size * step <= 192
        ids = np.array([p.vertex_id(k) for p in cert.dominating_set])
        members = np.bincount(ids // step, minlength=G.out_edges._filled.size)
        assert filled.tolist() == sorted(np.lexsort((np.arange(members.size), -members))[:filled.size].tolist())
        assert verify_domination(G, cert.dominating_set)
        assert np.flatnonzero(G.out_edges._filled).tolist() == filled.tolist()

    @pytest.mark.parametrize("model", GENERATOR_MODELS)
    def test_checking_a_plans_set_fills_few_blocks(self, model, monkeypatch):
        """A plan builds no graph; checking its set on a built graph reads rows only until they
        cover, and only from blocks holding a member.  At k = 8 the set is every vertex
        (sample_size(8) = C(8, 2)) and the graph's one block is read.  At k = 32 (8 blocks of at
        most 64 rows) the paper's sample of 405 pairs, taken with no first sample, has members in
        every block, and the blocks holding the most of them cover every vertex within two.  A kept
        first sample's few dozen pairs are checked for the blocks they read alone."""
        from ldpselect import rmde

        for k, d, first_sample, allowed in ((8, 16, rmde._FIRST_SAMPLE, {1}), (32, 64, 0, {1, 2}),
                                            (32, 64, rmde._FIRST_SAMPLE, None)):
            monkeypatch.setattr(rmde, "_FIRST_SAMPLE", first_sample)
            for seed in range(5):
                Q = random_hypothesis_set(k, d, seed=seed, model=model)
                plan = rmde.SelectionPlan.build(Q, rmde.SelectionConfig(alpha=0.5, beta=0.1, epsilon=0.5, seed=seed))
                ids = plan.certificate.vertex_ids
                rows = build_scheffe_graph(Q, PHI).out_edges
                assert rows.dominated_by(ids)
                assert rows._filled.size == -(-pair_count(k) // 64)
                assert set(np.flatnonzero(rows._filled).tolist()) <= set((ids // 64).tolist())
                if allowed:
                    assert rows.filled_blocks in allowed, (k, seed)

    @pytest.mark.parametrize("band", ["proven"])  # one value, so each test id keeps its "-proven" suffix
    @pytest.mark.parametrize("k", [3, 8, 16, 32, 64, 128])
    @pytest.mark.parametrize("model", BUILD_MODELS)
    def test_star_table_equals_table_of_filled_rows(self, model, k, band):
        """The build and a read of the shared-index table fill no row block; once every block
        is filled, the table read back from the rows is the same."""
        G = build_scheffe_graph(model_instance(model, k), PHI)
        assert G.out_edges.filled_blocks == 0
        table = G.shared_index_edges
        assert not table.flags.writeable
        assert G.out_edges.filled_blocks == 0
        assert np.array_equal(table, filled_table(G))

    @pytest.mark.parametrize("c, x, y", [(0, 3, 5), (11, 2, 9), (5, 2, 7), (5, 7, 2)])
    def test_rows_copy_the_table(self, monkeypatch, c, x, y):
        """Flipping one off-diagonal entry of the table flips that one bit of the filled rows:
        each shared-index edge is computed once, by the table.  Star 5 holds the 0-based pairs
        {2, 5} as pair 2 and {5, 8} as pair 7, so the last two cases flip an entry of a row whose
        larger index is c and then of one whose smaller index is c."""
        Q = random_hypothesis_set(12, 16, seed=4)
        V = pair_count(12)
        expected = np.unpackbits(build_scheffe_graph(Q, PHI).out_edges.bits, axis=1, count=V).view(bool)
        star_table = scheffe_graph._star_shared_index_edges

        def flipped(*args):
            table = star_table(*args)
            table[c, x, y] = ~table[c, x, y]
            return table

        monkeypatch.setattr(scheffe_graph, "_star_shared_index_edges", flipped)
        G = build_scheffe_graph(Q, PHI)
        adj = np.unpackbits(G.out_edges.bits, axis=1, count=V).view(bool)
        star = scheffe_graph._star_ids(12)
        expected[star[c, x], star[c, y]] ^= True
        assert np.array_equal(adj, expected)
        assert not adj.diagonal().any()
        assert np.array_equal(G.shared_index_edges, filled_table(G))


def reference_scheffe_graph(Q, phi):
    """The build that gathered the pair deltas from Q.probs_matrix, signed them all at once, and gathered them
    from Q.probs_matrix again for the shared-index table, star by star.

    Returns its packed bits, every row block filled, its shared-index table, its in-degrees and its thresholds.
    """
    k, V = Q.k, pair_count(Q.k)
    P = Q.probs_matrix
    pairs = all_pairs(k)
    star = scheffe_graph._star_ids(k)
    table = np.empty((k, k - 1, k - 1), dtype=bool)
    star_pairs = pairs[star]
    chunk = max(1, scheffe_graph._STAR_OPERAND_BYTES // (8 * (k - 1) * Q.domain_size))
    for c in range(0, k, chunk):
        members = star_pairs[c:c + chunk]
        deltas = P[members[..., 0]] - P[members[..., 1]]
        margin = np.matmul(np.where(deltas >= 0.0, 1.0, -1.0), deltas.transpose(0, 2, 1))
        table[c:c + chunk] = np.abs(margin) >= phi * np.abs(deltas).sum(axis=2)[:, np.newaxis]
    table.reshape(k, -1)[:, ::k] = False
    deltas = P[pairs[:, 0]] - P[pairs[:, 1]]
    signs = np.where(deltas >= 0.0, 1.0, -1.0)
    threshold = phi * np.abs(deltas).sum(axis=1)
    bits = np.empty((V, -(-V // 8)), dtype=np.uint8)
    in_degrees = np.zeros(V, dtype=np.int64)
    for start, stop in scheffe_graph._row_blocks(V):
        adj = np.abs(signs[start:stop] @ deltas.T) >= threshold
        lo, hi = pairs[start:stop].T
        rows = np.arange(stop - start)[:, np.newaxis]
        adj[rows, star[lo]] = table[lo, hi - 1]
        adj[rows, star[hi]] = table[hi, lo]
        bits[start:stop] = np.packbits(adj, axis=1)
        in_degrees += adj.sum(axis=0)
    return {"bits": bits, "table": table, "in_degrees": in_degrees, "threshold": threshold}


def captured_thresholds(monkeypatch):
    """The thresholds each later build hands its shared-index table, the array its row blocks read too."""
    thresholds = []
    star_table = scheffe_graph._star_shared_index_edges

    def capture(deltas, threshold):
        thresholds.append(threshold)
        return star_table(deltas, threshold)

    monkeypatch.setattr(scheffe_graph, "_star_shared_index_edges", capture)
    return thresholds


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReferenceBuild:
    """The build that computes each pair delta once, against reference_scheffe_graph."""

    @pytest.mark.parametrize("phi", [PHI, 0.9, 1.0])
    @pytest.mark.parametrize("k", [2, 3, 8, 16, 32, 64, 128])
    @pytest.mark.parametrize("model", BUILD_MODELS)
    def test_matches_reference(self, monkeypatch, model, k, phi):
        Q = model_instance(model, k)
        thresholds = captured_thresholds(monkeypatch)
        G = build_scheffe_graph(Q, phi)
        expected = reference_scheffe_graph(Q, phi)
        assert same_bits(G.shared_index_edges, expected["table"])
        assert G.out_edges.filled_blocks == 0
        assert same_bits(G.out_edges.bits, expected["bits"])
        assert G.out_edges.filled_blocks == G.out_edges._filled.size
        assert same_bits(G.in_degrees, expected["in_degrees"])
        (threshold,) = thresholds
        assert same_bits(threshold, expected["threshold"])
        assert same_bits(threshold, phi * Q._pair_distances)

    def test_build_and_certifies_compute_pair_distances_once(self, monkeypatch):
        """The build's thresholds are phi * Q._pair_distances, and the family's certifies reads the same
        distances: one computation in all."""
        from ldpselect.rmde import query_family_from_dominating_set

        calls = []
        distances = HypothesisSet.__dict__["_pair_distances"]
        counted = cached_property(lambda Q: calls.append(1) or distances.func(Q))
        counted.__set_name__(HypothesisSet, "_pair_distances")
        monkeypatch.setattr(HypothesisSet, "_pair_distances", counted)
        thresholds = captured_thresholds(monkeypatch)
        Q = random_hypothesis_set(32, 64, seed=3)
        G = build_scheffe_graph(Q, PHI)
        assert len(calls) == 1
        family = query_family_from_dominating_set(Q, find_dominating_set(G, Q, seed=1), PHI, graph=G)
        assert family.certifies(Q)
        assert len(calls) == 1
        assert same_bits(thresholds[0], PHI * Q._pair_distances)

    @pytest.mark.parametrize("k", [128, 256])
    def test_peak_memory_is_the_arrays_it_holds(self, k):
        """The build's peak is its packed bits, deltas and table, the thresholds and Q's pair distances
        (8 V bytes each), and at most 1 MiB more.  Gathering the deltas from Q.probs_matrix and holding
        a (V, d) float64 sign matrix took 8.0 MiB more at k = 128 and 32.1 MiB more at k = 256."""
        Q = random_hypothesis_set(k, 64, seed=1)
        Q.probs_matrix, all_pairs(k), scheffe_graph._star_ids(k)  # cached before tracing starts
        tracemalloc.start()
        try:
            G = build_scheffe_graph(Q, PHI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        V = pair_count(k)
        assert G.out_edges.filled_blocks == 0
        assert peak <= V * -(-V // 8) + 8 * V * 64 + k * (k - 1) ** 2 + 16 * V + (1 << 20)


class TestMemoryRefusal:
    """build_scheffe_graph refuses, before allocating, a build that does not fit in MemAvailable."""

    @staticmethod
    def available(monkeypatch, nbytes):
        calls = []

        def reader():
            calls.append(nbytes)
            return nbytes

        monkeypatch.setattr(scheffe_graph, "_available_memory", reader)
        return calls

    def test_packed_bits_refused_before_allocation(self, monkeypatch):
        # V = 23,220 rows of 2,903 bytes: 67,407,660 bytes of packed bits, above 64 MiB
        Q = random_hypothesis_set(216, 4, seed=1)
        Q.probs_matrix  # cached before tracing starts
        calls = self.available(monkeypatch, 50_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedSizeError, match="need 67407660 bytes, but only 50000000 bytes"):
                build_scheffe_graph(Q, PHI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls and peak < 1 << 20

    def test_edge_ids_refused_before_allocation(self, monkeypatch):
        Q = random_hypothesis_set(12, 16, seed=2)
        G = build_scheffe_graph(Q, PHI)
        edges = G.edge_count
        monkeypatch.setattr(scheffe_graph, "_MEMORY_CHECK_BYTES", 0)
        calls = self.available(monkeypatch, 12 * edges - 1)  # int64 sources and int32 targets
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedSizeError) as refused:
                G.edge_ids()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # matched after tracing: compiling the pattern can grow re's cache by more than the bound
        refused.match(f"need {12 * edges} bytes, but only {12 * edges - 1} bytes")
        assert len(calls) == 1 and peak < 4 * edges

    def test_small_builds_read_nothing(self, monkeypatch):
        # k = 64: 508,032 bytes of packed bits, below 64 MiB
        calls = self.available(monkeypatch, 0)
        assert build_scheffe_graph(random_hypothesis_set(64, 16, seed=3), PHI).edge_count > 0
        assert calls == []

    def test_unreadable_meminfo_skips_the_check(self, monkeypatch):
        monkeypatch.setattr(scheffe_graph, "_MEMORY_CHECK_BYTES", 0)
        calls = self.available(monkeypatch, None)
        Q = random_hypothesis_set(12, 16, seed=2)
        assert np.array_equal(build_scheffe_graph(Q, PHI).in_degrees, dense_scheffe_graph(Q, PHI).sum(axis=0))
        assert len(calls) == 1

    @pytest.mark.parametrize("text,expected", [
        ("MemTotal:       8000000 kB\nMemAvailable:    2048 kB\nSwapTotal: 0 kB\n", 2048 * 1024),
        ("MemTotal:       8000000 kB\n", None),
        ("MemAvailable: lots\n", None),
        (OSError("no such file"), None),
    ], ids=["available", "missing", "malformed", "unreadable"])
    def test_reader_parses_meminfo(self, monkeypatch, text, expected):
        def fake_open(path):
            assert path == "/proc/meminfo"
            if isinstance(text, Exception):
                raise text
            return io.StringIO(text)

        monkeypatch.setattr(scheffe_graph, "open", fake_open, raising=False)
        assert scheffe_graph._available_memory() == expected


class TestDominatingSet:
    def test_k2(self):
        Q = two_hypotheses()
        G = build_scheffe_graph(Q, PHI)
        cert = find_dominating_set(G, Q, seed=0)
        assert cert.dominating_set == (VertexPair(1, 2),)
        assert cert.attempts == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_instances_verified(self, seed):
        Q = random_hypothesis_set(10, 16, seed=seed)
        G = build_scheffe_graph(Q, PHI)
        cert = find_dominating_set(G, Q, seed=seed + 100)
        assert verify_domination(G, cert.dominating_set)
        bound = min(4 * 10 ** 1.5 * math.sqrt(math.log2(10)), pair_count(10))
        assert len(cert.dominating_set) <= bound == 45
        assert set(cert.dominating_set) == set(cert.random_part) | set(cert.low_indegree_part)

    def test_deterministic_in_seed(self):
        Q = random_hypothesis_set(9, 8, seed=5)
        G = build_scheffe_graph(Q, PHI)
        a = find_dominating_set(G, Q, seed=77)
        b = find_dominating_set(G, Q, seed=77)
        assert a.dominating_set == b.dominating_set

    def test_single_vertex_dominates_everything_graph(self):
        # identical hypotheses: every ordered pair is an edge, so any one vertex dominates
        q = DiscreteDistribution(np.array([0.25, 0.75]))
        Q = HypothesisSet((q, q, q))
        G = build_scheffe_graph(Q, PHI)
        assert verify_domination(G, [VertexPair(1, 2)])
        cert = find_dominating_set(G, Q, seed=4)
        assert verify_domination(G, cert.dominating_set)

    @pytest.mark.parametrize("model", GENERATOR_MODELS)
    def test_cover_certificate_skips_only_the_checks(self, model):
        """The certificate _randomized_cover makes of its own arrays, unchecked and uncopied, equals the
        one the public constructor makes of them: ids, dtypes, read-only flags and the other fields."""
        from ldpselect import rmde

        for k in (3, 19, 20, 32):
            Q = random_hypothesis_set(k, 64, seed=1, model=model)
            plan = rmde.SelectionPlan.build(Q, rmde.SelectionConfig(alpha=0.5, beta=0.1, epsilon=1.0, seed=1))
            for cert in (find_dominating_set(build_scheffe_graph(Q, PHI), Q, seed=1), plan.certificate):
                checked = DominatingSetCertificate(cert.k, cert.vertex_ids, cert.random_ids, cert.patch_ids,
                                                   cert.attempts, cert.target_bound, cert.build_ms, cert.seed)
                for field in ("vertex_ids", "random_ids", "patch_ids"):
                    ours, theirs = getattr(cert, field), getattr(checked, field)
                    assert np.array_equal(ours, theirs) and ours.dtype == theirs.dtype == np.int64
                    assert not ours.flags.writeable and not theirs.flags.writeable
                for field in ("k", "attempts", "target_bound", "build_ms", "seed"):
                    assert getattr(cert, field) == getattr(checked, field)
                assert cert.dominating_set == checked.dominating_set

    def test_cover_tries_its_first_sample(self):
        """A first sample of 32 vertices, below sample_size(k), is drawn from the seed's child 0, and is kept
        when it and its patch hold at most sample_size(k) vertices.  Where it is not kept the cover is the one
        drawn without it, and where the sample is every vertex (k <= 19) it is not drawn.  An int seed is taken
        as SeedSequence(seed)."""
        k, V = 24, pair_count(24)
        ell = sample_size(k)
        seed = np.random.SeedSequence(9, spawn_key=(0,))
        first = np.sort(np.random.default_rng(np.random.SeedSequence(9, spawn_key=(0, 0))).choice(V, 32, replace=False))

        def patch_of(length):
            """A patch rule that leaves the first length vertices outside a 32-vertex R open, and records R."""
            def patch(sampled):
                drawn.append(sampled)
                return np.setdiff1d(np.arange(V), sampled)[:length if sampled.size == 32 else 0]
            return patch

        cover = scheffe_graph._randomized_cover
        without = cover(k, lambda sampled: sampled[:0], seed)
        for length in (0, ell - 32, ell - 31):
            drawn = []
            cert = cover(k, patch_of(length), seed, 32)
            assert np.array_equal(drawn[0], first)
            if length <= ell - 32:
                assert len(drawn) == 1 and np.array_equal(cert.random_ids, first)
                assert cert.patch_ids.size == length and cert.attempts == 1
                assert np.array_equal(cert.vertex_ids, np.union1d(cert.random_ids, cert.patch_ids))
            else:  # the first sample, then the cover drawn without it
                assert len(drawn) == 1 + without.attempts
                for field in ("vertex_ids", "random_ids", "patch_ids"):
                    assert np.array_equal(getattr(cert, field), getattr(without, field))
                assert cert.attempts == without.attempts
            assert cert.target_bound == domination_bound(k)
        drawn = []
        by_int = cover(k, patch_of(0), 9, 32)
        assert np.array_equal(drawn[0], np.sort(np.random.default_rng(np.random.SeedSequence(9, spawn_key=(0,))).choice(
            V, 32, replace=False)))
        assert np.array_equal(by_int.random_ids, drawn[0])
        fell = cover(k, patch_of(ell - 31), 9, 32)  # not kept: the cover drawn from the int seed without it
        assert np.array_equal(fell.random_ids, cover(k, lambda sampled: sampled[:0], 9).random_ids)
        every = cover(19, lambda sampled: pytest.fail("patch called"), seed, 32)
        assert np.array_equal(every.vertex_ids, np.arange(pair_count(19)))

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_shared_index_cover_brute_force(self, k):
        """The sample and its out-neighbours among pairs sharing an index; random digraphs are
        not symmetric, so reading in-edges instead would differ."""
        G = random_digraph(k, seed=k, density=0.3)
        pairs = [set(p) for p in all_pairs(k).tolist()]
        rng = np.random.default_rng(k)
        for sampled in (np.arange(0), np.array([0]), np.sort(rng.choice(G.num_vertices, k, replace=False))):
            expect = np.zeros(G.num_vertices, dtype=bool)
            expect[sampled] = True
            for u in sampled.tolist():
                expect[[w for w in G.out_edges[u].tolist() if pairs[u] & pairs[w]]] = True
            assert np.array_equal(scheffe_graph._shared_index_cover(G.shared_index_edges, sampled), expect)

    @pytest.mark.parametrize("model", GENERATOR_MODELS)
    def test_peak_memory_below_a_pair_id_table(self, model):
        """At k = 96 a (2, V, k - 2) int32 table of pair ids is 3.27 MiB; the search on a built
        graph, its VertexPair objects included, must stay below it."""
        k = 96
        Q = random_hypothesis_set(k, 64, seed=5, model=model)
        G = build_scheffe_graph(Q, PHI)
        scheffe_graph._vertex_pairs.cache_clear()
        tracemalloc.start()
        try:
            cert = find_dominating_set(G, Q, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cert.dominating_set) <= domination_bound(k)
        assert peak < 2 * pair_count(k) * (k - 2) * 4

    def test_mismatched_hypotheses_rejected(self):
        Q = random_hypothesis_set(6, 6, seed=1)
        other = random_hypothesis_set(7, 6, seed=1)
        G = build_scheffe_graph(Q, PHI)
        with pytest.raises(ArgumentError):
            find_dominating_set(G, other, seed=0)

    def test_certificate_round_trip(self, tmp_path):
        Q = random_hypothesis_set(6, 6, seed=2)
        G = build_scheffe_graph(Q, PHI)
        cert = find_dominating_set(G, Q, seed=8)
        assert cert.target_bound == domination_bound(Q.k)  # the bound actually enforced
        for seed in (None, 8):
            path = tmp_path / f"cert_{seed}.json"
            path.write_text(json.dumps(replace(cert, seed=seed).to_json_dict()))
            loaded = DominatingSetCertificate.from_json_dict(json.loads(path.read_text()))
            assert loaded.dominating_set == cert.dominating_set
            assert loaded.target_bound == pytest.approx(cert.target_bound)
            assert loaded.seed == seed

    def test_large_certificate_round_trips_by_ids(self):
        """A k = 1024 certificate of 103,622 ids writes the rows its VertexPairs give and reads back the same
        ids, without building its pair views."""
        k = 1024
        ids = np.random.default_rng(1).choice(pair_count(k), size=103_622, replace=False)
        cert = DominatingSetCertificate(k, ids, ids, (), 1, domination_bound(k), seed=1)
        doc = cert.to_json_dict()
        pairs = (VertexPair(lo + 1, hi + 1) for lo, hi in all_pairs(k)[ids].tolist())
        assert doc == {**doc, "dominating_set": [[p.lo, p.hi] for p in pairs]}
        loaded = DominatingSetCertificate.from_json_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(loaded.vertex_ids, ids) and loaded.vertex_ids.dtype == np.int64
        assert loaded.random_ids.size == loaded.patch_ids.size == 0
        assert "dominating_set" not in cert.__dict__ and "dominating_set" not in loaded.__dict__

    def test_certificate_stores_read_only_checked_ids(self):
        cert = DominatingSetCertificate(4, [5, 0, 3], [0, 3], [5], 1, 6.0)
        for ids, expected in ((cert.vertex_ids, [5, 0, 3]), (cert.random_ids, [0, 3]), (cert.patch_ids, [5])):
            assert ids.dtype == np.int64 and not ids.flags.writeable and ids.tolist() == expected
        assert cert.dominating_set == (VertexPair(3, 4), VertexPair(1, 2), VertexPair(2, 3))
        assert cert.random_part == (VertexPair(1, 2), VertexPair(2, 3))
        assert cert.low_indegree_part == (VertexPair(3, 4),)
        assert cert.dominating_set is cert.dominating_set  # built once
        for field in ("vertex_ids", "random_ids", "patch_ids"):
            with pytest.raises(ArgumentError, match=r"0\.\.5 for k=4"):
                replace(cert, **{field: [6]})
            with pytest.raises(ArgumentError):
                replace(cert, **{field: [-1]})

    @pytest.mark.parametrize("pair, error", [
        ([1, 2.7], InvariantError),  # an index that is not an integer
        ([3, 9], ArgumentError),     # index 9 outside k = 4
        ([1, 2, 3], InvariantError),  # a row that is not a pair
        ([True, 2], InvariantError),  # a boolean index
        ([2, 2], InvariantError),     # {2, 2} is no pair
        ([3, 1], InvariantError),     # not in lo < hi order
        ([0, 2], InvariantError),     # indices are 1-based
        ([1, 2 ** 70], ArgumentError),  # an index past int64
        ((1, 3), InvariantError),     # a tuple, not a list
    ])
    def test_certificate_rejects_malformed_pair(self, pair, error):
        doc = {"k": 4, "dominating_set": [[1, 2], pair], "attempts": 1, "target_bound": 6.0}
        with pytest.raises(error):
            DominatingSetCertificate.from_json_dict(doc)

    def test_certificate_names_repeated_pair(self):
        doc = {"k": 4, "dominating_set": [[1, 2], [1, 3], [1, 2]], "attempts": 1, "target_bound": 6.0}
        with pytest.raises(InvariantError, match=r"repeated pair \{1, 2\}"):
            DominatingSetCertificate.from_json_dict(doc)

    def test_certificate_reads_numpy_integers_as_ints(self):
        doc = {"k": np.int64(4), "dominating_set": [[np.int64(1), 3], [2, np.int32(4)]], "attempts": np.int32(2),
               "target_bound": 6.0, "seed": np.int64(5)}
        cert = DominatingSetCertificate.from_json_dict(doc)
        assert cert.dominating_set == (VertexPair(1, 3), VertexPair(2, 4))
        assert all(type(x) is int for p in cert.dominating_set for x in (p.lo, p.hi))
        assert json.loads(json.dumps(cert.to_json_dict()))["dominating_set"] == [[1, 3], [2, 4]]

    @pytest.mark.parametrize("field, value", [
        ("k", "x"),
        ("attempts", "a"),
        ("target_bound", None),  # None removes the field
        ("dominating_set", 5),
        ("build_ms", "slow"),
        ("seed", 1.5),
        ("k", -3),
        ("k", True),
        ("attempts", True),
        ("target_bound", False),
        ("k", 1),
        ("k", 2.0),
        ("attempts", 0),
        ("attempts", -1),
        ("target_bound", -1.0),
        ("target_bound", float("nan")),
        ("target_bound", float("inf")),
        ("build_ms", -5.0),
        ("build_ms", float("nan")),
        ("seed", -1),
        ("seed", True),
        ("dominating_set", [(1, 2)]),
    ])
    def test_certificate_rejects_malformed_document(self, field, value):
        doc = {"k": 4, "dominating_set": [[1, 2]], "attempts": 1, "target_bound": 6.0, field: value}
        if value is None:
            del doc[field]
        with pytest.raises(InvariantError, match=repr(field)):
            DominatingSetCertificate.from_json_dict(doc)

    @pytest.mark.parametrize("field", ["k", "dominating_set", "attempts"])
    def test_certificate_names_missing_field(self, field):
        doc = {"k": 4, "dominating_set": [[1, 2]], "attempts": 1, "target_bound": 6.0}
        del doc[field]
        with pytest.raises(InvariantError, match=f"missing field {field!r}"):
            DominatingSetCertificate.from_json_dict(doc)

    @pytest.mark.parametrize("model", GENERATOR_MODELS)
    @pytest.mark.parametrize("k, seed", [(3, 1), (8, 2), (32, 3)])
    def test_pair_tuples_match_pairs_from_ids(self, model, k, seed):
        # the sampling loop replayed with the same seed, each part converted on its own
        Q = random_hypothesis_set(k, 16, seed=seed, model=model)
        G = build_scheffe_graph(Q, PHI)
        cert = find_dominating_set(G, Q, seed=seed)
        rng = np.random.default_rng(seed)
        for attempt in range(1, cert.attempts + 1):
            sampled = np.sort(rng.choice(G.num_vertices, size=sample_size(k), replace=False))
            patch = np.flatnonzero(~scheffe_graph._shared_index_cover(G.shared_index_edges, sampled))
        assert sampled.size + patch.size <= domination_bound(k)
        assert cert.dominating_set == scheffe_graph._pairs_from_ids(np.union1d(sampled, patch), k)
        assert cert.random_part == scheffe_graph._pairs_from_ids(sampled, k)
        assert cert.low_indegree_part == scheffe_graph._pairs_from_ids(patch, k)

    @pytest.mark.parametrize("k", [2, 3, 8, 16, 19])
    def test_every_vertex_sample_draws_and_reads_nothing(self, monkeypatch, k):
        """Up to k = 19 sample_size(k) is C(k, 2): R is every vertex, with nothing drawn, scanned or
        patched, and the cover reads neither the shared-index table nor a row."""
        scans = []
        monkeypatch.setattr(scheffe_graph, "_shared_index_cover", lambda *args: scans.append(args))
        G = build_scheffe_graph(random_hypothesis_set(k, 8, seed=k), PHI)
        cert = find_dominating_set(G, seed=k)
        assert sample_size(k) == pair_count(k)
        assert cert.dominating_set == cert.random_part == tuple(vertex_pairs(k)) and cert.low_indegree_part == ()
        assert cert.attempts == 1 and cert.target_bound == pair_count(k)
        assert cert.vertex_ids.tolist() == list(range(pair_count(k))) and not cert.vertex_ids.flags.writeable
        assert scans == [] and G.out_edges.filled_blocks == 0

        def no_table():
            raise AssertionError("the shared-index table was asked for")

        bare = scheffe_graph._randomized_cover(k, no_table, seed=k)
        assert bare.dominating_set == cert.dominating_set and bare.vertex_ids.tolist() == cert.vertex_ids.tolist()

    def test_size_formulas(self):
        assert sample_size(2) == 1
        assert sample_size(16) == 120  # capped at |V|
        assert domination_bound(16) == 120.0
        assert sample_size(64) == 1255


class TestVerifyDomination:
    def test_full_set_dominates(self, point_mass_triple):
        G = build_scheffe_graph(point_mass_triple, PHI)
        assert verify_domination(G, vertex_pairs(G.k))

    def test_empty_set_fails(self, point_mass_triple):
        G = build_scheffe_graph(point_mass_triple, PHI)
        assert not verify_domination(G, [])

    def test_foreign_vertex_rejected(self, point_mass_triple):
        G = build_scheffe_graph(point_mass_triple, PHI)
        with pytest.raises(ArgumentError):
            verify_domination(G, [VertexPair(2, 5)])

    def test_partial_sets(self, point_mass_triple):
        G = build_scheffe_graph(point_mass_triple, PHI)
        # {1,2} covers only itself and {2,3}; {1,3} stays uncovered
        assert not verify_domination(G, [VertexPair(1, 2)])
        assert verify_domination(G, [VertexPair(1, 2), VertexPair(2, 3)])

    @staticmethod
    def per_row_covered(G, ids):
        """Reference: mark each member and its out-row, one vertex at a time."""
        covered = np.zeros(G.num_vertices, dtype=bool)
        for v in ids:
            covered[v] = True
            covered[G.out_edges[v]] = True
        return covered

    @pytest.mark.parametrize("max_rows", [None, 7])
    def test_blockwise_matches_per_row_loop(self, monkeypatch, max_rows):
        if max_rows is not None:
            monkeypatch.setattr(scheffe_graph, "_MAX_BLOCK_ROWS", max_rows)
        k = 48
        step = scheffe_graph._block_rows(pair_count(k))
        Q = random_hypothesis_set(k, 32, seed=1)
        G = build_scheffe_graph(Q, PHI)
        D = find_dominating_set(G, Q, seed=1).dominating_set
        assert len(D) > step
        assert self.per_row_covered(G, [p.vertex_id(k) for p in D]).all()
        assert verify_domination(G, D)
        # every vertex except w and the in-neighbours of w: w alone is left uncovered
        w = int(np.argmin(G.in_degrees))
        feeds_w = {u for u, out in enumerate(G.out_edges) if w in out}
        ids = [v for v in range(G.num_vertices) if v != w and v not in feeds_w]
        assert len(ids) > step
        assert np.flatnonzero(~self.per_row_covered(G, ids)).tolist() == [w]
        assert not verify_domination(G, vertex_pairs(G.k, ids))

    def test_certificate_is_checked_by_its_vertex_ids(self):
        """A certificate gives the answer its pairs give, read from its vertex_ids."""
        k = 24
        Q = random_hypothesis_set(k, 16, seed=2)
        G = build_scheffe_graph(Q, PHI)
        cert = find_dominating_set(G, Q, seed=2)
        assert verify_domination(G, cert) and verify_domination(G, cert.dominating_set)
        w = int(np.argmin(G.in_degrees))
        ids = [v for v in range(G.num_vertices) if v != w and w not in G.out_edges[v]]
        short = replace(cert, vertex_ids=ids)
        assert not verify_domination(G, short) and not verify_domination(G, short.dominating_set)
        with pytest.raises(ArgumentError, match="certificate is on k=24, graph has k=3"):
            verify_domination(build_scheffe_graph(random_hypothesis_set(3, 8, seed=1), PHI), cert)

    @pytest.mark.parametrize("max_rows", [None, 7])
    def test_every_member_row_counts(self, monkeypatch, max_rows):
        # a matching 2i -> 2i + 1: each odd vertex is reached from one member of the evens only
        if max_rows is not None:
            monkeypatch.setattr(scheffe_graph, "_MAX_BLOCK_ROWS", max_rows)
        k = 48
        evens = np.arange(0, pair_count(k), 2)
        G = adjacency_digraph(k, edge_adjacency(k, evens, evens + 1))
        D = vertex_pairs(G.k, evens)
        assert len(D) > scheffe_graph._block_rows(pair_count(k))
        assert verify_domination(G, D)
        for i in (0, 1, evens.size // 2, evens.size - 1):
            kept = np.delete(evens, i)
            H = adjacency_digraph(k, edge_adjacency(k, kept, kept + 1))
            assert np.flatnonzero(~self.per_row_covered(H, evens.tolist())).tolist() == [evens[i] + 1]
            assert not verify_domination(H, D)

    @staticmethod
    def blocks_read(monkeypatch):
        """Record the vertex ids of each block's packed rows read, as a list."""
        read = []
        packed = scheffe_graph.PackedRows.packed

        def recording(rows, ids):
            read.append(ids.tolist())
            return packed(rows, ids)

        monkeypatch.setattr(scheffe_graph.PackedRows, "packed", recording)
        return read

    @pytest.fixture
    def five_row_blocks(self, monkeypatch):
        """At k = 12 (V = 66), row blocks of 5 rows."""
        monkeypatch.setattr(scheffe_graph, "_MAX_BLOCK_ROWS", 5)

    @staticmethod
    def lazy_digraph(k, adj):
        """PairDigraph whose row blocks are filled from a (V, V) bool adjacency on first read."""
        return PairDigraph(k, scheffe_graph.PackedRows(pair_count(k), lambda start, stop: adj[start:stop]))

    # members in blocks 12, 0, 1, 4 (all five rows) and 0 again, given out of id order
    MEMBERS = [60, 0, 7, 21, 20, 22, 23, 24, 1]

    def test_stops_after_the_first_covering_block(self, monkeypatch, five_row_blocks):
        # vertex 22 reaches every other vertex; its block, 4, holds the most members, so it is read first
        k, V = 12, 66
        others = np.delete(np.arange(V), 22)
        G = adjacency_digraph(k, edge_adjacency(k, 22, others))
        read = self.blocks_read(monkeypatch)
        assert verify_domination(G, vertex_pairs(k, self.MEMBERS))
        assert read == [[21, 20, 22, 23, 24]]

    def test_reads_blocks_with_most_members_first(self, monkeypatch, five_row_blocks):
        # no edges, so every row is read: by block, most members first and ties by block, in given order
        # within a block
        k = 12
        G = adjacency_digraph(k, edge_adjacency(k, [], []))
        read = self.blocks_read(monkeypatch)
        assert not verify_domination(G, vertex_pairs(k, self.MEMBERS))
        assert read == [[21, 20, 22, 23, 24], [0, 1], [7], [60]]

    @pytest.mark.parametrize("reaches_all", [False, True])
    def test_filled_blocks_are_read_first(self, monkeypatch, five_row_blocks, reaches_all):
        # block 12 is filled before the check and holds one member; block 4 holds five
        k, V = 12, 66
        adj = edge_adjacency(k, 60, np.delete(np.arange(V), 60)) if reaches_all else edge_adjacency(k, [], [])
        G = self.lazy_digraph(k, adj)
        G.out_edges[62]
        assert G.out_edges.filled_blocks == 1
        read = self.blocks_read(monkeypatch)
        assert verify_domination(G, vertex_pairs(k, self.MEMBERS)) == reaches_all
        if reaches_all:
            assert read == [[60]]
            assert G.out_edges.filled_blocks == 1
        else:
            assert read == [[60], [21, 20, 22, 23, 24], [0, 1], [7]]
            assert G.out_edges.filled_blocks == 4

    @pytest.mark.parametrize("lazy", [False, True])
    def test_matches_brute_force_on_random_digraphs(self, monkeypatch, lazy):
        """Against an OR of the members' dense rows, on random digraphs, sets and read states.  Blocks
        of 512 bytes hold 1 to 64 rows, so the sets span from one block to every block; some sets
        hold every vertex."""
        monkeypatch.setattr(scheffe_graph, "_BLOCK_BYTES", 1 << 9)
        answers = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(2, 13))
            V = pair_count(k)
            adj = rng.random((V, V)) < rng.uniform(0.0, 0.4)
            np.fill_diagonal(adj, False)
            G = self.lazy_digraph(k, adj) if lazy else adjacency_digraph(k, adj)
            for v in rng.choice(V, size=int(rng.integers(0, 3))).tolist():
                G.out_edges[v]  # fill a block or two first
            ids = rng.choice(V, size=int(rng.integers(0, V + 1)), replace=bool(rng.integers(2)))
            expected = bool((adj[ids].any(axis=0) | np.isin(np.arange(V), ids)).all())
            assert verify_domination(G, vertex_pairs(k, ids)) == expected, seed
            answers.append(expected)
        assert 10 <= sum(answers) <= 30

    def test_false_reads_every_row(self, monkeypatch):
        # a matching 2i -> 2i + 1 whose last pair is missing: only the last block's last member falls short
        monkeypatch.setattr(scheffe_graph, "_MAX_BLOCK_ROWS", 14)  # 7 evens a block, 5 in the last
        k = 12
        evens = np.arange(0, pair_count(k), 2)
        G = adjacency_digraph(k, edge_adjacency(k, evens[:-1], evens[:-1] + 1))
        assert np.flatnonzero(~self.per_row_covered(G, evens.tolist())).tolist() == [evens[-1] + 1]
        read = self.blocks_read(monkeypatch)
        assert not verify_domination(G, vertex_pairs(G.k, evens))
        assert read == [evens[i:i + 7].tolist() for i in range(0, evens.size, 7)]


class TestTriangles:
    def test_point_mass_triple_labels(self, point_mass_triple):
        G = build_scheffe_graph(point_mass_triple, PHI)
        labels = check_triangle(G, 1, 2, 3)
        assert labels == ("i", "iii")

    def test_duplicate_gives_case_i(self):
        G = build_scheffe_graph(duplicate_pair_set(), PHI)
        assert "i" in check_triangle(G, 1, 2, 3)

    def test_bad_indices(self, point_mass_triple):
        G = build_scheffe_graph(point_mass_triple, PHI)
        with pytest.raises(ArgumentError):
            check_triangle(G, 1, 1, 2)
        with pytest.raises(ArgumentError):
            check_triangle(G, 1, 2, 4)
        for trio in ((1.0, 2, 3), (True, 2, 3), (1, 2, np.float64(3)), (1, 2, "3")):
            with pytest.raises(ArgumentError, match="integers"):
                check_triangle(G, *trio)
        assert check_triangle(G, np.int64(1), 2, 3) == check_triangle(G, 1, 2, 3)

    @pytest.mark.parametrize("seed,model", [(0, "dirichlet-uniform"), (1, "sparse"),
                                            (2, "point-mass-mixture")])
    def test_no_violations_on_random_sets(self, seed, model):
        Q = random_hypothesis_set(9, 12, seed=seed, model=model)
        G = build_scheffe_graph(Q, PHI)
        assert scan_triangles(G).violations == 0
        for trio in [(1, 2, 3), (2, 5, 9), (4, 7, 8)]:
            assert check_triangle(G, *trio) != ("violation",)

    @pytest.mark.parametrize("graph", ["dirichlet-uniform", "sparse", "point-mass-mixture",
                                       "lower-bound", "edgeless", "random"])
    def test_matches_brute_force(self, graph):
        if graph == "lower-bound":
            G = build_lower_bound_graph(16, seed=3).graph
        elif graph == "edgeless":  # every triple is a violation
            G = adjacency_digraph(6, edge_adjacency(6, [], []))
        elif graph == "random":  # reaches both () and ("violation",)
            G = random_digraph(7, seed=0, density=0.3)
        else:
            G = build_scheffe_graph(random_hypothesis_set(7, 10, seed=5, model=graph), PHI)
        scan, checks = brute_force_triangles(G)
        assert scan_triangles(G) == scan
        assert {trio: check_triangle(G, *trio) for trio in checks} == checks

    @staticmethod
    def scan_by_single_checks(G):
        """Reference TriangleScan from check_triangle on every triple, in sorted role order."""
        counts, violations = dict.fromkeys(("i", "ii", "iii"), 0), 0
        for trio in itertools.combinations(range(1, G.k + 1), 3):
            labels = check_triangle(G, *trio)
            if labels == ("violation",):
                violations += 1
                continue
            for c in labels:
                counts[c] += 1
        return TriangleScan(math.comb(G.k, 3), violations, counts)

    @pytest.mark.parametrize("k", [2, 3, 4, 16, 64])
    @pytest.mark.parametrize("model", GENERATOR_MODELS)
    def test_star_slices_match_single_checks_on_scheffe_graphs(self, model, k):
        G = build_scheffe_graph(random_hypothesis_set(k, 16, seed=k, model=model), PHI)
        scan = scan_triangles(G)
        assert scan == self.scan_by_single_checks(G)
        assert scan.violations == 0 and scan.triples == math.comb(k, 3)

    @pytest.mark.parametrize("graph", ["lower-bound", "random"])
    def test_star_slices_match_single_checks(self, graph):
        if graph == "lower-bound":
            G = build_lower_bound_graph(16, seed=3).graph
        else:
            G = random_digraph(11, seed=2, density=0.1)
        scan = scan_triangles(G)
        assert scan == self.scan_by_single_checks(G)
        assert (scan.violations > 0) == (graph == "random")

    def test_sliced_scan_matches_brute_force(self):
        G = random_digraph(9, seed=1, density=0.3)
        scan, _ = brute_force_triangles(G)
        assert scan_triangles(G) == scan
        assert scan.violations > 0

    @pytest.mark.parametrize("density", [0.02, 0.1])
    def test_sparse_random_digraphs_match_brute_force(self, density):
        G = random_digraph(10, seed=3, density=density)
        scan, checks = brute_force_triangles(G)
        assert scan_triangles(G) == scan
        assert {trio: check_triangle(G, *trio) for trio in checks} == checks
        assert 0 < scan.violations < scan.triples

    def test_scan_agrees_with_single_checks(self):
        Q = random_hypothesis_set(6, 5, seed=42)
        G = build_scheffe_graph(Q, PHI)
        scan = scan_triangles(G)
        manual_violations = 0
        for a in range(1, 7):
            for b in range(a + 1, 7):
                for c in range(b + 1, 7):
                    if check_triangle(G, a, b, c) == ("violation",):
                        manual_violations += 1
        assert scan.violations == manual_violations == 0
        assert scan.triples == 20


class TestLowInDegree:
    def test_requires_r_at_least_one(self, point_mass_triple):
        G = build_scheffe_graph(point_mass_triple, PHI)
        with pytest.raises(ArgumentError):
            count_low_indegree(G, 0.5)

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_r_rejected(self, point_mass_triple, r):
        G = build_scheffe_graph(point_mass_triple, PHI)
        with pytest.raises(ArgumentError, match="finite"):
            count_low_indegree(G, r)

    def test_every_vertex_covered_graph(self):
        q = DiscreteDistribution(np.array([0.3, 0.7]))
        Q = HypothesisSet((q, q, q))
        G = build_scheffe_graph(Q, PHI)
        assert count_low_indegree(G, 1.0) == 0

    def test_vacuous_for_large_r(self, point_mass_triple):
        G = build_scheffe_graph(point_mass_triple, PHI)
        r = G.num_vertices + 1
        assert count_low_indegree(G, r) == G.num_vertices

    @pytest.mark.parametrize("r", [1, 2, 4, 8])
    def test_bound_on_random_graph(self, r):
        Q = random_hypothesis_set(10, 20, seed=17)
        G = build_scheffe_graph(Q, PHI)
        assert count_low_indegree(G, r) <= 3 * 10 * r


class TestMetricTriple:
    def test_degenerate_leg_is_short(self):
        assert check_metric_triple(0.0, 1.0, 1.0) == ("short",)

    def test_equilateral_is_long(self):
        assert check_metric_triple(1.0, 1.0, 1.0) == ("long",)

    def test_both_labels_possible(self):
        labels = check_metric_triple(1.2, 3.0, 3.0)
        assert labels == ("short", "long")

    def test_triangle_inequality_enforced(self):
        with pytest.raises(ArgumentError):
            check_metric_triple(3.0, 1.0, 1.0)
        with pytest.raises(ArgumentError):
            check_metric_triple(1.0, -0.5, 1.0)

    @pytest.mark.parametrize("triple", [(float("nan"), 1.0, 1.0), (1.0, float("nan"), 1.0),
                                        (float("inf"), float("inf"), 1.0), (1.0, 1.0, float("inf"))])
    def test_non_finite_length_rejected(self, triple):
        with pytest.raises(ArgumentError, match="finite"):
            check_metric_triple(*triple)

    @given(st.tuples(st.floats(0, 2), st.floats(0, 2), st.floats(0, 2)).filter(
        lambda t: t[0] <= t[1] + t[2] and t[1] <= t[0] + t[2] and t[2] <= t[0] + t[1]
    ))
    def test_some_label_always_applies(self, triple):
        assert len(check_metric_triple(*triple)) >= 1

    def test_bulk_rejection_sampled_triples(self):
        # 1e5 valid triples, evaluated vectorized against the same predicates
        rng = np.random.default_rng(3141)
        found = 0
        while found < 100_000:
            t = rng.uniform(0, 2, size=(200_000, 3))
            a, b, c = t[:, 0], t[:, 1], t[:, 2]
            ok = (a <= b + c) & (b <= a + c) & (c <= a + b)
            a, b, c = a[ok], b[ok], c[ok]
            short = (a <= b / 2) & (a <= c / 2)
            long_ = (a > b / 3) & (a > c / 3)
            assert np.all(short | long_)
            found += a.size


class TestExactCover:
    def test_point_mass_domination_number(self, point_mass_triple):
        G = build_scheffe_graph(point_mass_triple, PHI)
        assert minimum_cover_size(G) == 2

    def test_single_target(self, point_mass_triple):
        G = build_scheffe_graph(point_mass_triple, PHI)
        assert minimum_cover_size(G, targets=[VertexPair(2, 3)]) == 1

    def test_node_budget_refused(self):
        # this instance's branch and bound visits 14 nodes on its way to a cover of size 2
        G = build_scheffe_graph(random_hypothesis_set(7, 8, seed=3), PHI)
        with pytest.raises(ResamplingLimitError, match="visited 14 search-tree nodes, over its budget of 13") as info:
            minimum_cover_size(G, node_budget=13)
        assert info.value.diagnostics == {"nodes": 14, "node_budget": 13}
        assert info.value.attempts == 1
        assert minimum_cover_size(G, node_budget=14) == minimum_cover_size(G) == 2

    def test_heuristic_never_beats_exact(self):
        Q = random_hypothesis_set(6, 8, seed=23)
        G = build_scheffe_graph(Q, PHI)
        exact = minimum_cover_size(G)
        cert = find_dominating_set(G, Q, seed=1)
        assert len(cert.dominating_set) >= exact
