import math
import tracemalloc

import numpy as np
import pytest

from ldpselect import (
    StochasticMap,
    build_flattening_family,
    build_lower_bound_graph,
    find_dominating_set,
    run_flattening_trials,
    verify_domination,
    verify_domination_lower_bound,
    verify_flattening_violation,
)
from ldpselect import barriers, scheffe_graph
from ldpselect.barriers import (
    FlatteningReport,
    frobenius_identities,
    lower_bound_formula,
    lower_bound_sample_size,
    random_flat_map,
    sylvester_hadamard,
)
from ldpselect.errors import (
    ConfigError,
    DimensionError,
    FlatnessError,
    InvariantError,
    ResamplingLimitError,
    UnsupportedSizeError,
)
from ldpselect.scheffe_graph import all_pairs, minimum_cover_size, pair_count, pair_index, scan_triangles


class TestLowerBoundGraph:
    def test_small_k_rejected(self):
        with pytest.raises(UnsupportedSizeError):
            build_lower_bound_graph(8, seed=0)

    def test_out_degree_exactly_k_minus_2(self):
        cert = build_lower_bound_graph(16, seed=1)
        degrees = {len(out) for out in cert.graph.out_edges}
        assert degrees == {14}

    def test_overlap_condition(self):
        cert = build_lower_bound_graph(16, seed=2)
        assert cert.t_max + 1 <= 2 * math.log2(16)
        assert cert.overlap_sizes.max() == cert.t_max
        assert cert.sample_size == lower_bound_sample_size(16) == 32

    def test_implied_bound_meets_formula(self):
        cert = build_lower_bound_graph(16, seed=3)
        floor = lower_bound_formula(16)
        assert floor == pytest.approx(4.0)  # 16^1.5 / (8 * sqrt(log2 16))
        assert cert.implied_lower_bound >= floor

    def test_deterministic(self):
        a = build_lower_bound_graph(16, seed=9)
        b = build_lower_bound_graph(16, seed=9)
        assert a.sampled_set == b.sampled_set
        assert all(np.array_equal(x, y) for x, y in zip(a.graph.out_edges, b.graph.out_edges))

    @pytest.mark.parametrize("seed, recorded", [
        (5, 5), (np.int64(5), 5), (np.uint32(5), 5), (None, None), (np.random.SeedSequence(5), None),
    ])
    def test_records_integral_seed(self, seed, recorded):
        cert = build_lower_bound_graph(16, seed=seed)
        assert cert.seed == recorded and type(cert.seed) is type(recorded)
        assert cert.to_json_dict()["seed"] == recorded

    def test_every_triangle_has_forward_edge_without_case_i(self):
        # each vertex of every triangle sends an edge inside it, under every role order
        cert = build_lower_bound_graph(20, seed=4)
        k = cert.k
        out = cert.graph.out_edges
        import itertools

        for x, y, z in itertools.combinations(range(k), 3):
            for r1, r2, r3 in ((x, y, z), (x, z, y), (y, z, x)):
                v12 = pair_index(min(r1, r2), max(r1, r2), k)
                v13 = pair_index(min(r1, r3), max(r1, r3), k)
                v23 = pair_index(min(r2, r3), max(r2, r3), k)
                assert v13 in out[v12] or v23 in out[v12]

    def test_scan_triangles_clean(self):
        cert = build_lower_bound_graph(24, seed=5)
        assert scan_triangles(cert.graph).violations == 0

    def test_edges_follow_sampling_rules(self):
        cert = build_lower_bound_graph(16, seed=6)
        k = cert.k
        in_R = np.zeros(cert.graph.num_vertices, dtype=bool)
        in_R[[p.vertex_id(k) for p in cert.sampled_set]] = True
        pairs = all_pairs(k)
        for v in range(cert.graph.num_vertices):
            a, b = int(pairs[v, 0]), int(pairs[v, 1])
            out = set(int(w) for w in cert.graph.out_edges[v])
            for i in range(k):
                if i in (a, b):
                    continue
                wa = pair_index(min(a, i), max(a, i), k)
                wb = pair_index(min(b, i), max(b, i), k)
                if in_R[wa] and not in_R[wb]:
                    expected = wb
                elif in_R[wb] and not in_R[wa]:
                    expected = wa
                else:
                    expected = min(wa, wb)
                assert expected in out

    @pytest.mark.parametrize("k", [16, 33, 64])
    def test_rows_match_the_edge_id_reference(self, k):
        graph = build_lower_bound_graph(k, seed=k).graph
        sources, targets = graph.edge_ids()
        assert np.array_equal(sources, np.repeat(np.arange(graph.num_vertices), k - 2))
        assert np.array_equal(np.stack(graph.out_edges), targets.reshape(-1, k - 2))
        assert np.array_equal(graph.in_degrees, np.bincount(targets, minlength=graph.num_vertices))
        assert graph.in_degrees.dtype == np.int64
        for v, row in enumerate(graph.out_edges):
            assert row.dtype == np.int32 and not row.flags.writeable
            assert np.all(np.diff(row) > 0) and v not in row

    def test_peak_memory_within_its_refusal_estimate(self):
        k = 64
        build_lower_bound_graph(k, seed=0)
        tracemalloc.start()
        try:
            build_lower_bound_graph(k, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= barriers._LOWER_BOUND_BYTES_PER_EDGE * pair_count(k) * (k - 2)


def reference_recount(cert):
    """Recomputed floor |R| / max over v of the sampled vertices v dominates, one vertex at a time."""
    G = cert.graph
    in_R = np.zeros(G.num_vertices, dtype=bool)
    in_R[[p.vertex_id(G.k) for p in cert.sampled_set]] = True
    max_dominated = 0
    for v in range(G.num_vertices):
        max_dominated = max(max_dominated, int(in_R[G.out_edges[v]].sum()) + int(in_R[v]))
    return len(cert.sampled_set) / max_dominated


class TestLowerBoundMemoryRefusal:
    """build_lower_bound_graph refuses, before allocating, a build that does not fit in MemAvailable."""

    @staticmethod
    def available(monkeypatch, nbytes):
        calls = []

        def reader():
            calls.append(nbytes)
            return nbytes

        monkeypatch.setattr(scheffe_graph, "_available_memory", reader)
        return calls

    def test_refused_before_allocation(self, monkeypatch):
        # k = 256: 32,640 vertices of out-degree 254, 8,290,560 edges at 17 bytes each
        calls = self.available(monkeypatch, 50_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedSizeError,
                               match="8290560 edges of a k=256 .* need 140939520 bytes, but only 50000000 bytes"):
                build_lower_bound_graph(256, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls and peak < 1 << 20

    def test_small_builds_read_nothing(self, monkeypatch):
        # k = 128: 1,024,128 edges, 17,410,176 bytes, below 64 MiB
        calls = self.available(monkeypatch, 0)
        assert build_lower_bound_graph(128, seed=1).graph.edge_count == 1_024_128
        assert calls == []


class TestLowerBoundVerification:
    @pytest.mark.parametrize("k", [16, 32, 64])
    def test_matches_per_vertex_recount(self, k):
        cert = build_lower_bound_graph(k, seed=k)
        recount = verify_domination_lower_bound(cert)
        assert cert.targets.shape == (pair_count(k), k - 2) and cert.targets.dtype == np.int32
        assert not cert.targets.flags.writeable
        assert "graph" not in cert.__dict__  # neither the build nor the recount packs the graph
        assert recount == reference_recount(cert)
        assert "graph" in cert.__dict__

    def test_recomputed_at_least_implied(self):
        cert = build_lower_bound_graph(16, seed=7)
        assert verify_domination_lower_bound(cert) >= cert.implied_lower_bound

    def test_edgeless_graph_gives_full_sample_size(self):
        # nobody dominates more than itself, so the bound is |R| exactly
        from ldpselect.barriers import LowerBoundCertificate
        from ldpselect.scheffe_graph import VertexPair, pair_count

        k = 16
        V = pair_count(k)
        sample = tuple(VertexPair(1, hi) for hi in range(2, 10))
        cert = LowerBoundCertificate(
            k=k, targets=np.empty((V, 0), np.int32), sampled_ids=np.array([p.vertex_id(k) for p in sample]),
            overlap_sizes=np.zeros(V, dtype=np.int64), t_max=0,
            implied_lower_bound=float(len(sample)), attempts=1,
        )
        assert verify_domination_lower_bound(cert) == len(sample)

    def test_exact_cover_of_sample_respects_bound(self):
        # exact branch-and-bound cover of R can be no smaller than the counting bound
        cert = build_lower_bound_graph(16, seed=8)
        bound = verify_domination_lower_bound(cert)
        exact = minimum_cover_size(cert.graph, targets=cert.sampled_set)
        assert exact >= bound - 1e-9
        assert exact <= cert.sample_size

    def test_heuristic_dominating_set_respects_bound(self):
        cert = build_lower_bound_graph(16, seed=10)
        bound = verify_domination_lower_bound(cert)
        dom_cert = find_dominating_set(cert.graph, seed=11)
        assert verify_domination(cert.graph, dom_cert.dominating_set)
        assert len(dom_cert.dominating_set) >= bound


class TestHadamard:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
    def test_orthogonality_exact(self, n):
        H = sylvester_hadamard(n)
        assert H.dtype == np.int64
        assert np.array_equal(H @ H.T, n * np.eye(n, dtype=np.int64))

    def test_symmetric_and_signed(self):
        H = sylvester_hadamard(16)
        assert np.array_equal(H, H.T)
        assert set(np.unique(H)) == {-1, 1}

    def test_first_row_and_column_ones(self):
        H = sylvester_hadamard(8)
        assert np.all(H[0] == 1) and np.all(H[:, 0] == 1)

    def test_columns_differ_in_half_positions(self):
        n = 16
        H = sylvester_hadamard(n)
        for j in range(1, n):
            assert (H[:, 0] != H[:, j]).sum() == n // 2

    def test_non_power_of_two(self):
        with pytest.raises(UnsupportedSizeError):
            sylvester_hadamard(12)


class TestFlatteningFamily:
    def test_small_or_ragged_sizes_rejected(self):
        with pytest.raises(UnsupportedSizeError):
            build_flattening_family(4)
        with pytest.raises(UnsupportedSizeError):
            build_flattening_family(12)

    def test_columns_are_distributions(self):
        fam = build_flattening_family(16)
        for M in (fam.point_mass_columns, fam.hadamard_columns):
            assert np.all(M >= 0)
            assert np.allclose(M.sum(axis=0), 1.0, atol=1e-12)

    def test_n8_column_structure(self):
        fam = build_flattening_family(8)
        F = fam.hadamard_columns
        assert np.allclose(F[:, 0], 1.0 / 8)
        for j in range(1, 8):
            col = F[:, j]
            assert (col == 2.0 / 8).sum() == 4
            assert (col == 0.0).sum() == 4
            assert col.sum() == pytest.approx(1.0)

    def test_pairwise_distances(self):
        fam = build_flattening_family(8)
        F = fam.hadamard_columns
        for j in range(1, 8):
            assert np.abs(F[:, j] - F[:, 0]).sum() == pytest.approx(1.0)
            for j2 in range(j + 1, 8):
                assert np.abs(F[:, j] - F[:, j2]).sum() == pytest.approx(1.0)
        all_cols = np.hstack([fam.point_mass_columns, F])
        for a in range(16):
            for b in range(16):
                assert np.abs(all_cols[:, a] - all_cols[:, b]).sum() <= 2.0 + 1e-12


class TestStochasticMap:
    def test_validation(self):
        with pytest.raises(Exception):
            StochasticMap(np.array([[0.5, 0.2], [0.4, 0.8]]))  # first column sums to 0.9
        M = StochasticMap(np.array([[0.5, 0.2], [0.5, 0.8]]))
        assert M.image_size == 2 and M.domain_size == 2


class TestFlatteningViolation:
    def test_uniform_map_collapses_completely(self):
        fam = build_flattening_family(16)
        m = 16
        phi = StochasticMap(np.full((m, 16), 1.0 / m))
        idx, value = verify_flattening_violation(phi, fam, alpha=0.5)
        assert idx == 2
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_alpha_domain(self):
        fam = build_flattening_family(8)
        phi = StochasticMap(np.full((8, 8), 1.0 / 8))
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigError):
                verify_flattening_violation(phi, fam, alpha=bad)

    def test_dimension_check(self):
        fam = build_flattening_family(8)
        phi = StochasticMap(np.full((8, 16), 1.0 / 8))
        with pytest.raises(DimensionError):
            verify_flattening_violation(phi, fam, alpha=0.5)

    def test_non_flat_map_reported_with_position(self):
        fam = build_flattening_family(8)
        phi = StochasticMap(np.eye(8))  # point-mass columns: maximally non-flat
        with pytest.raises(FlatnessError) as exc:
            verify_flattening_violation(phi, fam, alpha=0.9)
        err = exc.value
        assert err.group == "E"
        assert err.column == 1 and err.entry == 1
        assert err.value == pytest.approx(1.0)

    @pytest.mark.parametrize("n, m, alpha", [(8, 8, 0.9), (16, 32, 0.9), (32, 8, 0.5), (64, 64, 0.99)])
    def test_group_f_never_fires_on_a_map_that_passes_e(self, n, m, alpha):
        """Each F column is a distribution, so its image is a convex mixture of the map's columns and
        stays flat: run_flattening_trials checks group E alone.  Seeded maps, sampled and extreme."""
        fam = build_flattening_family(n)
        rng = np.random.default_rng(1000 * n + m)
        low, high = (1 - alpha) / m, (1 + alpha) / m
        maps = [random_flat_map(n, m, alpha, rng).matrix for _ in range(20)]
        # the least flat maps E allows: every column half at low and half at high, in random order
        edge = np.where(np.arange(m) < m // 2, low, high)
        maps += [np.column_stack([rng.permutation(edge) for _ in range(n)]) for _ in range(20)]
        for M in maps:
            assert ((M >= low) & (M <= high)).all()
            images = M @ fam.hadamard_columns
            assert ((images >= low - 1e-12) & (images <= high + 1e-12)).all()
            verify_flattening_violation(StochasticMap(M), fam, alpha)  # no FlatnessError on group F

    @pytest.mark.parametrize("n", [16, 32])
    def test_random_flat_maps_always_collapse(self, n):
        fam = build_flattening_family(n)
        rng = np.random.default_rng(n)
        bound = 2.0 / math.sqrt(n)
        for _ in range(50):
            phi = random_flat_map(n, n, alpha=0.99, rng=rng)
            _, value = verify_flattening_violation(phi, fam, alpha=0.99)
            assert value <= bound + 1e-12

    def test_frobenius_identities(self):
        n = 16
        fam = build_flattening_family(n)
        rng = np.random.default_rng(77)
        phi = random_flat_map(n, n, alpha=0.99, rng=rng)
        ids = frobenius_identities(phi, fam)
        assert ids["identity_deviation"] <= 1e-9
        assert ids["frobenius_sq"] <= ids["frobenius_cap"] + 1e-12
        # the scaled column stack is exactly the Hadamard matrix
        F = fam.hadamard_columns
        B = np.column_stack([F[:, :1], F[:, 1:] - F[:, :1]])
        assert np.array_equal(np.round(n * B).astype(np.int64), fam.hadamard_matrix)

    def test_image_domain_free_parameter(self):
        n = 16
        fam = build_flattening_family(n)
        rng = np.random.default_rng(5)
        for m in (8, 32):
            phi = random_flat_map(n, m, alpha=0.99, rng=rng)
            _, value = verify_flattening_violation(phi, fam, alpha=0.99)
            assert value <= 2.0 / math.sqrt(n) + 1e-12

    def test_trials_report(self):
        report = run_flattening_trials(16, trials=25, alpha=0.95, seed=3)
        assert report.worst_min_distance <= report.bound
        assert report.max_frobenius_deviation <= 1e-9
        doc = report.to_json_dict()
        assert doc["n"] == 16 and doc["m"] == 16 and doc["trials"] == 25


def reference_flat_map(n, m, alpha, rng, max_tries=100_000):
    """One column at a time: redraw m uniforms until the normalized column is flat.

    Returns the map's matrix and the most draws any column took.
    """
    low, high = (1.0 - alpha) / m, (1.0 + alpha) / m
    cols = np.empty((m, n))
    most = 0
    for j in range(n):
        for tries in range(1, max_tries + 1):
            raw = rng.uniform(0.0, 2.0 / m, size=m)
            total = raw.sum()
            if total <= 0:
                continue
            col = raw / total
            if col.min() >= low and col.max() <= high:
                cols[:, j] = col
                most = max(most, tries)
                break
        else:
            raise ResamplingLimitError("could not sample a flat column", max_tries)
    return cols, most


def reference_trials(n, m, trials, alpha, seed):
    fam = build_flattening_family(n)
    rng = np.random.default_rng(seed)
    worst = max_dev = 0.0
    for _ in range(trials):
        phi_map = StochasticMap(reference_flat_map(n, m, alpha, rng)[0])
        worst = max(worst, verify_flattening_violation(phi_map, fam, alpha)[1])
        max_dev = max(max_dev, frobenius_identities(phi_map, fam)["identity_deviation"])
    return FlatteningReport(n, m, trials, alpha, worst, 2.0 / math.sqrt(n), max_dev)


# (n, m, alpha, seed, trials)
FLATTENING_CASES = [
    (8, 8, 0.99, 1, 200),
    (16, 16, 0.95, 3, 25),
    (16, 8, 0.99, 4, 60),
    (16, 32, 0.9, 5, 40),
    (32, 32, 0.99, 7, 60),
    (8, 64, 0.9, 9, 30),
    (32, 16, 0.7, 11, 20),
    (8, 3, 0.9, 12, 100),
]


class TestBatchedFlatMaps:
    """The row-batched sampler against the one-column-at-a-time loop it replaced."""

    @pytest.mark.parametrize("n, m, alpha, seed, trials", FLATTENING_CASES)
    @pytest.mark.parametrize("batch_bytes", [None, 1 << 10])
    def test_trials_match_column_loop(self, monkeypatch, n, m, alpha, seed, trials, batch_bytes):
        if batch_bytes is not None:  # a few rows per batch, so accepted rows carry across batches and maps
            monkeypatch.setattr(barriers, "_FLAT_BATCH_BYTES", batch_bytes)
        report = run_flattening_trials(n, m=m, trials=trials, alpha=alpha, seed=seed)
        assert report == reference_trials(n, m, trials, alpha, seed)

    @pytest.mark.parametrize("n, m, alpha, seed, trials", FLATTENING_CASES)
    def test_first_map_matches_column_loop(self, n, m, alpha, seed, trials):
        phi_map = random_flat_map(n, m, alpha, np.random.default_rng(seed))
        expected, _ = reference_flat_map(n, m, alpha, np.random.default_rng(seed))
        assert np.array_equal(phi_map.matrix, expected)
        assert phi_map.matrix.flags.c_contiguous

    def test_raises_when_a_column_needs_too_many_draws(self):
        with pytest.raises(ResamplingLimitError):
            random_flat_map(16, 16, 1e-6, np.random.default_rng(0), max_tries=50)

    @pytest.mark.parametrize("batch_bytes", [None, 1 << 10])
    def test_max_tries_bound_is_exact(self, monkeypatch, batch_bytes):
        if batch_bytes is not None:
            monkeypatch.setattr(barriers, "_FLAT_BATCH_BYTES", batch_bytes)
        n, m, alpha, seed = 16, 16, 0.7, 2
        expected, most = reference_flat_map(n, m, alpha, np.random.default_rng(seed))
        assert most > 1
        phi_map = random_flat_map(n, m, alpha, np.random.default_rng(seed), max_tries=most)
        assert np.array_equal(phi_map.matrix, expected)
        with pytest.raises(ResamplingLimitError):
            random_flat_map(n, m, alpha, np.random.default_rng(seed), max_tries=most - 1)

    @staticmethod
    def stack_with(monkeypatch, n, m, alpha, seed, faults):
        """Make run_flattening_trials take one stack of 10 sampled maps, map i given the fault faults[i]."""
        stack = next(barriers._flat_maps(n, m, alpha, np.random.default_rng(seed), 100_000, maps=10))
        for i, fault in faults.items():
            stack[i] = np.full((m, n), 1.0 / m)
            if fault == "negative":  # column 5 still sums to 1
                stack[i, [2, 3], 4] = [-0.1, 0.1 + 2.0 / m]
            elif fault == "column sum":  # column 6 sums to 1 + 1e-3 / m
                stack[i, 0, 5] *= 1.0 + 1e-3
            else:  # column 3 is a point mass: a distribution, but not flat
                stack[i, :, 2] = np.eye(m)[3]
        monkeypatch.setattr(barriers, "_flat_maps", lambda *args, **kwargs: iter([stack]))
        return stack

    @pytest.mark.parametrize("later", [None, "negative", "column sum"])
    def test_non_flat_map_inside_a_stack_raises_its_own_error(self, monkeypatch, later):
        """A non-flat map in the middle of a stack raises the FlatnessError verify_flattening_violation
        raises for it alone, also when a later map of the stack fails another check."""
        n = m = 8
        faults = {4: "not flat"} if later is None else {4: "not flat", 7: later}
        stack = self.stack_with(monkeypatch, n, m, 0.9, 1, faults)
        with pytest.raises(FlatnessError) as alone:
            verify_flattening_violation(StochasticMap(stack[4]), build_flattening_family(n), 0.9)
        with pytest.raises(FlatnessError) as trials:
            run_flattening_trials(n, m=m, trials=10, alpha=0.9, seed=1)
        got, want = trials.value, alone.value
        assert (got.group, got.column, got.entry, got.value) == (want.group, want.column, want.entry, want.value)
        assert (got.group, got.column, got.entry) == ("E", 3, 1)

    @pytest.mark.parametrize("i, fault", [(3, "negative"), (6, "column sum")])
    def test_map_that_is_not_stochastic_raises_as_stochastic_map_does(self, monkeypatch, i, fault):
        n = m = 8
        stack = self.stack_with(monkeypatch, n, m, 0.9, 2, {i: fault})
        with pytest.raises(InvariantError) as alone:
            StochasticMap(stack[i])
        with pytest.raises(InvariantError) as trials:
            run_flattening_trials(n, m=m, trials=10, alpha=0.9, seed=2)
        assert str(trials.value) == str(alone.value)
        assert ("negative" in str(trials.value)) == (fault == "negative")
