import gc
import json
import math
import warnings
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from ldpselect import (
    DiscreteDistribution,
    HypothesisSet,
    QueryEstimates,
    SelectionConfig,
    SelectionPlan,
    SimulatedPopulation,
    binomial_block_size,
    build_scheffe_graph,
    estimate_queries,
    find_dominating_set,
    l1_distance,
    plan_sample_size,
    query_family_from_dominating_set,
    random_hypothesis_set,
    required_block_size,
    rmde_select,
    select_hypothesis,
    verify_domination,
)
from ldpselect.distributions import GENERATOR_MODELS
from ldpselect.errors import (
    ConfigError,
    IncompleteEstimatesError,
    InsufficientSamplesError,
    InvalidCertificateError,
)
from ldpselect import rmde, scheffe_graph
from ldpselect.rmde import QueryFamily, _first_distinct_rows, full_scheffe_family, max_query_budget
from ldpselect.barriers import build_flattening_family
from ldpselect.scheffe_graph import (
    DominatingSetCertificate,
    VertexPair,
    domination_bound,
    pair_count,
    pair_index,
    sample_size,
)

PHI = 1.0 / 6.0


def exact_estimates(p, family, eta=0.0, rng=None):
    """Oracle estimates <p, T> with optional adversarial ±eta perturbation.

    Carries a small epsilon so the corrected range ±(e^eps+1)/(e^eps-1) is
    wide enough for the perturbed values.
    """
    values = []
    for t in family.signs:
        noise = 0.0 if eta == 0.0 else eta * float(rng.choice([-1.0, 1.0]))
        values.append(float(p.probs @ t) + noise)
    return QueryEstimates(estimates=values, block_size=1, epsilon=0.5)


def brute_force_select(Q, family, estimates):
    """Independent loop-based argmin used to cross-check rmde_select."""
    best_idx, best_val = None, None
    for j, q in enumerate(Q.hypotheses):
        worst = max(
            abs(q.probs @ t - estimates.estimates[i])
            for i, t in enumerate(family.signs)
        )
        if best_val is None or worst < best_val:
            best_idx, best_val = j, worst
    return best_idx + 1, best_val


def pipeline_family(Q, seed=0, phi=PHI):
    G = build_scheffe_graph(Q, phi)
    cert = find_dominating_set(G, Q, seed=seed)
    return query_family_from_dominating_set(Q, cert, phi, graph=G)


def reference_family(Q, pairs):
    """Per-pair signed Scheffe sets (ties to +1), keeping the first pair of each distinct sign vector."""
    rows, origins, seen = [], [], set()
    for lo, hi in pairs:
        row = np.where(Q.hypotheses[lo - 1].probs >= Q.hypotheses[hi - 1].probs, 1, -1).astype(np.int8)
        if row.tobytes() not in seen:
            seen.add(row.tobytes())
            rows.append(row)
            origins.append((lo, hi))
    return np.stack(rows), np.array(origins)


def reference_margins(Q, rows, phi):
    """The star margins written out pair by pair from the stacked float64 test matrix."""
    P = Q.probs_matrix
    M = P @ rows.astype(np.float64).T
    return np.array([
        np.abs(M[j] - M[j2]).max() - phi * np.abs(P[j] - P[j2]).sum()
        for j in range(Q.k)
        for j2 in range(j + 1, Q.k)
    ])


def all_vertex_pairs(k):
    return [(lo, hi) for lo in range(1, k + 1) for hi in range(lo + 1, k + 1)]


PINNED_SETS = [
    *(pytest.param(random_hypothesis_set(k, 16, seed=k, model=model), id=f"{model}-k{k}")
      for model in GENERATOR_MODELS for k in (3, 8, 32)),
    pytest.param(HypothesisSet(tuple(DiscreteDistribution(np.array(p)) for p in
                                     ([0.6, 0.4], [0.6, 0.4], [0.1, 0.9]))), id="duplicate"),
    pytest.param(HypothesisSet(tuple(DiscreteDistribution.point_mass(i, 3) for i in (1, 2, 3))),
                 id="point-mass-triple"),
]


class TestFamilyMatchesPairReference:
    @pytest.mark.parametrize("Q", PINNED_SETS)
    def test_dominating_and_full_family(self, Q):
        G = build_scheffe_graph(Q, PHI)
        cert = find_dominating_set(G, Q, seed=3)
        cases = [
            (query_family_from_dominating_set(Q, cert, PHI, graph=G),
             [(p.lo, p.hi) for p in cert.dominating_set], PHI),
            (full_scheffe_family(Q), all_vertex_pairs(Q.k), 1.0),
        ]
        for fam, pairs, phi in cases:
            rows, origins = reference_family(Q, pairs)
            assert fam.signs.dtype == np.int8 and not fam.signs.flags.writeable
            assert np.array_equal(fam.signs, rows)
            assert np.array_equal(fam.origins, origins)
            assert fam.origins.dtype == np.int64 and not fam.origins.flags.writeable
            assert len(fam) == len(rows) and fam.phi == phi
            assert np.array_equal(fam.star_margins(Q), reference_margins(Q, rows, phi))


class TestQueryFamilyChecks:
    ORIGINS = np.array([[1, 2], [1, 3]])

    @pytest.mark.parametrize("signs, origins, phi, match", [
        (np.empty((0, 3)), (), 0.5, "at least one test"),
        (np.array([1, -1, 1]), ORIGINS[:1], 0.5, "at least one test"),
        (np.array([[1, 0, 1], [1, 1, -1]]), ORIGINS, 0.5, r"-1 or \+1"),
        (np.array([[1, 2, 1], [1, 1, -1]]), ORIGINS, 0.5, r"-1 or \+1"),
        (np.array([[1, -1, 1], [1, 1, -1]]), ORIGINS[:1], 0.5, "one origin"),
        (np.array([[1, -1, 1], [1, 1, -1]]), ORIGINS[:, :1], 0.5, "one origin"),
        (np.array([[1, -1, 1], [1, 1, -1]]), ORIGINS, 0.0, "phi"),
        (np.array([[1, -1, 1], [1, -1, 1]]), ORIGINS, 0.5, "duplicate"),
    ], ids=["empty", "one-dimensional", "zero", "two", "origins", "origin-columns", "phi",
            "duplicate"])
    def test_rejects(self, signs, origins, phi, match):
        with pytest.raises(ConfigError, match=match):
            QueryFamily(signs=signs, origins=origins, phi=phi)

    @pytest.mark.parametrize("d", [9, 65, 130])
    def test_rows_differing_in_last_entry(self, d):
        # the last entry sits in the final, zero-padded byte and word of the packed row
        row = np.ones(d, dtype=np.int8)
        flipped = row.copy()
        flipped[-1] = -1
        assert len(QueryFamily(signs=np.stack([row, flipped]), origins=self.ORIGINS, phi=0.5)) == 2
        with pytest.raises(ConfigError, match="duplicate"):
            QueryFamily(signs=np.stack([flipped, flipped]), origins=self.ORIGINS, phi=0.5)

    def test_copies_into_read_only_int8(self):
        given = np.array([[1, -1, 1], [1, 1, -1]], dtype=np.int64)
        fam = QueryFamily(signs=given, origins=self.ORIGINS, phi=0.5)
        assert fam.signs.dtype == np.int8 and not fam.signs.flags.writeable
        assert given.flags.writeable and not np.shares_memory(given, fam.signs)

    def test_copies_origins_into_read_only_int64(self):
        given = self.ORIGINS.astype(np.int32)
        fam = QueryFamily(signs=np.array([[1, -1, 1], [1, 1, -1]]), origins=given, phi=0.5)
        assert fam.origins.dtype == np.int64 and not fam.origins.flags.writeable
        assert np.array_equal(fam.origins, given) and given.flags.writeable


class TestFirstDistinctRows:
    @pytest.mark.parametrize("d", [1, 7, 8, 9, 63, 64, 65, 130])
    def test_matches_unique_first_indices(self, d):
        rng = np.random.default_rng(d)
        rows = rng.choice(np.array([-1, 1], dtype=np.int8), size=(40, d))
        cases = {
            "all equal": np.repeat(rows[:1], 6, axis=0),
            "single row": rows[:1],
            "random duplicates": rows[rng.integers(0, 40, size=150)],
            # equal but for the last three entries, which reach into the last word
            "tail duplicates": np.where(np.arange(d) < d - 3, np.int8(1), rows)[rng.integers(0, 40, size=150)],
        }
        for name, signs in cases.items():
            reference = np.sort(np.unique(signs, axis=0, return_index=True)[1])
            assert np.array_equal(_first_distinct_rows(signs), reference), name


class TestQueryFamily:
    def test_k2_family_achieves_phi_one(self):
        Q = HypothesisSet((DiscreteDistribution(np.array([1.0, 0.0])),
                           DiscreteDistribution(np.array([0.0, 1.0]))))
        fam = pipeline_family(Q)
        assert len(fam) == 1
        assert fam.certifies(Q, phi=1.0)

    def test_point_mass_family(self, point_mass_triple):
        G = build_scheffe_graph(point_mass_triple, PHI)
        cert = find_dominating_set(G, point_mass_triple, seed=0)
        assert set(cert.dominating_set) == {VertexPair(1, 2), VertexPair(1, 3), VertexPair(2, 3)}
        fam = query_family_from_dominating_set(point_mass_triple, cert, PHI, graph=G)
        # the >=-tie convention makes the {1,3} and {2,3} sets the same vector
        assert len(fam) == 2
        assert len({t.tobytes() for t in fam.signs}) == len(fam.signs)
        assert fam.certifies(point_mass_triple, phi=1.0)

    @pytest.mark.parametrize("k,seed", [(5, 0), (8, 1), (12, 2)])
    def test_exhaustive_star_condition(self, k, seed):
        Q = random_hypothesis_set(k, 10, seed=seed)
        fam = pipeline_family(Q, seed=seed)
        assert fam.certifies(Q)
        assert len(fam) <= pair_count(k)

    def test_duplicate_tests_pruned(self):
        q = DiscreteDistribution(np.array([0.6, 0.4]))
        q2 = DiscreteDistribution(np.array([0.1, 0.9]))
        Q = HypothesisSet((q, q, q2))
        fam = pipeline_family(Q)
        keys = {t.tobytes() for t in fam.signs}
        assert len(keys) == len(fam.signs)

    def test_invalid_certificate_rejected(self, point_mass_triple):
        from ldpselect.scheffe_graph import DominatingSetCertificate

        bad = DominatingSetCertificate(
            k=3,
            dominating_set=(VertexPair(1, 2),),  # covers {1,2},{2,3} but not {1,3}
            random_part=(),
            low_indegree_part=(),
            attempts=1,
            target_bound=10.0,
        )
        with pytest.raises(InvalidCertificateError):
            query_family_from_dominating_set(point_mass_triple, bad, PHI)

    def test_graph_at_another_phi_rejected(self):
        Q = random_hypothesis_set(20, 16, seed=0)
        G = build_scheffe_graph(Q, PHI)
        cert = find_dominating_set(G, Q, seed=0)
        with pytest.raises(ConfigError, match="phi"):
            query_family_from_dominating_set(Q, cert, 0.95, graph=G)
        assert query_family_from_dominating_set(Q, cert, PHI, graph=G).certifies(Q)

    def test_read_back_certificate_gives_the_same_family(self):
        Q = random_hypothesis_set(12, 16, seed=4)
        G = build_scheffe_graph(Q, PHI)
        cert = find_dominating_set(G, Q, seed=4)
        loaded = DominatingSetCertificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))
        assert loaded.dominating_set == cert.dominating_set
        fam = query_family_from_dominating_set(Q, cert, PHI, graph=G)
        again = query_family_from_dominating_set(Q, loaded, PHI, graph=G)
        assert np.array_equal(again.signs, fam.signs) and np.array_equal(again.origins, fam.origins)

    def test_full_family_is_phi_one(self):
        Q = random_hypothesis_set(6, 7, seed=3)
        fam = full_scheffe_family(Q)
        assert fam.phi == 1.0
        assert fam.certifies(Q)

    @pytest.mark.parametrize("model", GENERATOR_MODELS)
    def test_star_margins_match_pair_loop(self, model):
        Q = random_hypothesis_set(12, 10, seed=7, model=model)
        P = Q.probs_matrix
        for fam, phi in ((pipeline_family(Q, seed=7), PHI), (full_scheffe_family(Q), 0.5)):
            T = fam.signs.astype(np.float64)
            reference = [
                float(np.abs(T @ (P[j] - P[j2])).max()) - phi * float(np.abs(P[j] - P[j2]).sum())
                for j in range(Q.k)
                for j2 in range(j + 1, Q.k)
            ]
            np.testing.assert_allclose(fam.star_margins(Q, phi), reference, rtol=0, atol=1e-12)


CORPUS_KS = (2, 3, 8, 16, 19, 20, 21, 32, 40)  # the sample is every vertex up to k = 19


def corpus_set(kind, k):
    """A seeded set of the plan corpus: a generator model, Hadamard columns, or a sparse set with repeats."""
    if kind == "hadamard":
        F = build_flattening_family(max(8, 1 << (k - 1).bit_length())).hadamard_columns
        return HypothesisSet(tuple(DiscreteDistribution(column) for column in F[:, :k].T))
    hypotheses = list(random_hypothesis_set(k, 16, seed=k, model="sparse" if kind == "repeated" else kind).hypotheses)
    if kind == "repeated":
        hypotheses[1] = hypotheses[0]
        hypotheses[-1] = hypotheses[-2]
    return HypothesisSet(tuple(hypotheses))


def hadamard_set():
    F = build_flattening_family(16).hadamard_columns
    return HypothesisSet(tuple(DiscreteDistribution(column) for column in F.T))


def without_tests(fam, drop):
    keep = np.setdiff1d(np.arange(len(fam)), drop)
    return QueryFamily(signs=fam.signs[keep], origins=fam.origins[keep], phi=fam.phi)


def reference_certifies(fam, Q, phi, tol=1e-9):
    return bool((fam.star_margins(Q, phi) >= -tol).all())


class TestCertifiesMatchesStarMargins:
    """certifies stops at the first witness of each pair; star_margins reads every test."""

    @pytest.mark.parametrize("sets", [
        *(pytest.param([random_hypothesis_set(k, 16, seed=seed, model=model)
                        for k in (2, 3, 8, 32, 128) for seed in (0, 1)], id=model)
          for model in GENERATOR_MODELS),
        pytest.param([hadamard_set()], id="hadamard-columns"),
        pytest.param([corpus_set("repeated", k) for k in (3, 8, 20, 32)], id="repeated"),
    ])
    def test_equivalence_corpus(self, sets):
        answers = set()
        for Q in sets:
            families = [pipeline_family(Q)] + ([full_scheffe_family(Q)] if Q.k <= 32 else [])
            for fam in list(families):
                if len(fam) > 1:
                    # every other test, and the first half (so witnesses move to later tests)
                    families += [without_tests(fam, np.arange(0, len(fam), 2)),
                                 without_tests(fam, np.arange(len(fam) // 2))]
            for fam in families:
                for phi in (PHI, 0.5, 0.9, 1.0):
                    expected = reference_certifies(fam, Q, phi)
                    assert fam.certifies(Q, phi) == expected, (Q.k, len(fam), phi)
                    answers.add(expected)
        assert answers == {True, False}

    def test_late_witnesses(self):
        Q = random_hypothesis_set(16, 16, seed=5)
        fam = full_scheffe_family(Q)
        head = rmde._WITNESS_TESTS
        assert len(fam) > head
        # some pair has no witness among the first tests, so certifying reads past them
        assert not without_tests(fam, np.arange(head, len(fam))).certifies(Q, 1.0)
        assert fam.certifies(Q, 1.0)
        # the last pair's own test lies past the first tests; without it, that pair fails
        lo, hi = fam.origins[-1]
        thinned = without_tests(fam, [len(fam) - 1])
        assert not thinned.certifies(Q, 1.0)
        margins = thinned.star_margins(Q, 1.0)
        assert margins[pair_index(lo - 1, hi - 1, Q.k)] < -1e-9
        assert not reference_certifies(thinned, Q, 1.0)

    def test_open_pairs_read_the_tail(self):
        """At phi = 1 only a pair's own Scheffe set witnesses it.  The own tests of the first three
        pairs are moved past the first 64 tests, so those pairs stay open after the head and each
        is decided by the tail; with 3-pair chunks the three sit in one chunk and, at k = 24
        (m - 64 = 212 tail tests), their tail is split into one-pair gathers."""
        Q = random_hypothesis_set(24, 16, seed=2)
        fam = full_scheffe_family(Q)
        late = np.arange(3)  # the own tests of {1, 2}, {1, 3} and {1, 4}
        order = np.concatenate([np.arange(3, len(fam)), late])
        moved = QueryFamily(signs=fam.signs[order], origins=fam.origins[order], phi=fam.phi)
        head = without_tests(moved, np.arange(rmde._WITNESS_TESTS, len(moved)))
        assert (head.star_margins(Q, 1.0)[:3] < -1e-9).all()
        assert moved.certifies(Q, 1.0) and reference_certifies(moved, Q, 1.0)
        for drop in (len(moved) - 3, len(moved) - 1):  # the first pair's own test, then the third's
            thinned = without_tests(moved, [drop])
            assert not thinned.certifies(Q, 1.0) and not reference_certifies(thinned, Q, 1.0)

    @pytest.mark.parametrize("case", ["late-pair", "dominating"])
    def test_tol_edge(self, case):
        if case == "late-pair":
            Q = random_hypothesis_set(16, 16, seed=5)
            fam, phi = without_tests(full_scheffe_family(Q), [pair_count(16) - 1]), 1.0
        else:
            Q = random_hypothesis_set(32, 16, seed=0)
            fam, phi = pipeline_family(Q), 0.9
        tol = -fam.star_margins(Q, phi).min()
        assert tol > 0
        assert fam.certifies(Q, phi, tol=tol) and reference_certifies(fam, Q, phi, tol)
        tighter = np.nextafter(tol, 0)
        assert not fam.certifies(Q, phi, tol=tighter) and not reference_certifies(fam, Q, phi, tighter)

    @pytest.mark.parametrize("method", ["certifies", "star_margins"])
    @pytest.mark.parametrize("phi, d, match", [
        (-1.0, 12, "phi"),
        (0.0, 12, "phi"),
        (1.5, 12, "phi"),
        (math.nan, 12, "phi"),
        (math.inf, 12, "phi"),
        (None, 16, "family is on domain size 16, hypotheses on 12"),
    ], ids=["negative", "zero", "above-one", "nan", "inf", "domain"])
    def test_rejects(self, method, phi, d, match):
        Q = random_hypothesis_set(8, 12, seed=0)
        fam = pipeline_family(random_hypothesis_set(8, d, seed=0))
        with pytest.raises(ConfigError, match=match):
            getattr(fam, method)(Q, phi)


class TestCertifiesInSmallChunks(TestCertifiesMatchesStarMargins):
    """The same checks with certifies' gathers made small: one pair per chunk and per tail chunk, or
    (at 1,536 bytes, where the head is 64 tests and d <= 64) three pairs per chunk, with the open
    pairs' tail split into gathers of fewer pairs wherever the family has over 256 tests."""

    @pytest.fixture(autouse=True, params=[1, 1536], ids=["1-pair", "3-pairs"])
    def small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(rmde, "_PAIR_OPERAND_BYTES", request.param)

    test_rejects = None  # argument checks come before any chunk


class TestRmdeSelect:
    def test_exact_estimates_select_truth(self):
        rng = np.random.default_rng(0)
        Q = random_hypothesis_set(5, 8, seed=4)
        fam = full_scheffe_family(Q)
        est = exact_estimates(Q.hypotheses[1], fam)
        report = rmde_select(Q, fam, est)
        assert report.selected_index == 2
        assert report.selected_discrepancy == pytest.approx(0.0, abs=1e-12)
        assert min(report.discrepancies) == report.selected_discrepancy

    def test_tie_breaks_to_smallest_index(self):
        q = DiscreteDistribution(np.array([0.5, 0.5]))
        q3 = DiscreteDistribution(np.array([0.9, 0.1]))
        Q = HypothesisSet((q, q, q3))
        fam = full_scheffe_family(Q)
        est = exact_estimates(q, fam)
        assert rmde_select(Q, fam, est).selected_index == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            Q = random_hypothesis_set(4, 6, seed=100 + trial)
            fam = pipeline_family(Q, seed=trial)
            p = DiscreteDistribution(rng.dirichlet(np.ones(6)))
            est = exact_estimates(p, fam, eta=0.05, rng=rng)
            report = rmde_select(Q, fam, est)
            idx, val = brute_force_select(Q, fam, est)
            assert report.selected_index == idx
            assert report.selected_discrepancy == pytest.approx(val, abs=1e-12)

    def test_missing_estimate(self):
        Q = random_hypothesis_set(4, 5, seed=6)
        fam = full_scheffe_family(Q)
        est = exact_estimates(Q.hypotheses[0], fam)
        # one estimate short, and one too many: the count must equal the family size
        for values in (np.delete(est.estimates, 1), np.append(est.estimates, 0.0)):
            wrong = QueryEstimates(estimates=values, block_size=1, epsilon=20.0)
            with pytest.raises(IncompleteEstimatesError):
                rmde_select(Q, fam, wrong)

    def test_argmin_invariance_under_constant_shift(self):
        rng = np.random.default_rng(7)
        Q = random_hypothesis_set(6, 6, seed=8)
        fam = full_scheffe_family(Q)
        p = DiscreteDistribution(rng.dirichlet(np.ones(6)))
        report = rmde_select(Q, fam, exact_estimates(p, fam, eta=0.02, rng=rng))
        disc = np.array(report.discrepancies)
        assert int(np.argmin(disc)) == int(np.argmin(disc + 0.37))
        assert report.selected_index == int(np.argmin(disc)) + 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        Q = random_hypothesis_set(6, 8, seed=10)
        fam = full_scheffe_family(Q)
        p = DiscreteDistribution(rng.dirichlet(np.ones(8)))
        est = exact_estimates(p, fam, eta=0.01, rng=rng)
        report = rmde_select(Q, fam, est)
        perm = rng.permutation(6)
        Qp = HypothesisSet(tuple(Q.hypotheses[i] for i in perm))
        report_p = rmde_select(Qp, fam, est)
        disc = np.array(report.discrepancies)
        if (disc == disc.min()).sum() == 1:  # unique argmin: same vector wins
            assert np.array_equal(
                Qp.hypotheses[report_p.selected_index - 1].probs,
                Q.hypotheses[report.selected_index - 1].probs,
            )
        assert report_p.selected_discrepancy == pytest.approx(report.selected_discrepancy)


class TestDeterministicGuarantee:
    @pytest.mark.parametrize("eta", [0.0, 0.01, 0.1])
    def test_error_bound_with_adversarial_estimates(self, eta):
        rng = np.random.default_rng(int(eta * 1000) + 1)
        for trial in range(40):
            k = int(rng.integers(2, 7))
            d = int(rng.integers(2, 9))
            Q = random_hypothesis_set(k, d, seed=int(rng.integers(1 << 30)))
            p = DiscreteDistribution(rng.dirichlet(np.ones(d)))
            for fam in (pipeline_family(Q, seed=trial), full_scheffe_family(Q)):
                est = exact_estimates(p, fam, eta=eta, rng=rng)
                report = rmde_select(Q, fam, est)
                q_hat = Q.hypotheses[report.selected_index - 1]
                opt = min(l1_distance(q, p) for q in Q.hypotheses)
                sup_err = max(
                    abs(p.probs @ t - est.estimates[i])
                    for i, t in enumerate(fam.signs)
                )
                bound = (1 + 2 / fam.phi) * opt + (2 / fam.phi) * sup_err
                assert l1_distance(q_hat, p) <= bound + 1e-9


class TestPlanning:
    def test_k2_single_block(self):
        config = SelectionConfig(alpha=0.5, beta=0.1, epsilon=0.5, seed=0)
        assert max_query_budget(2) == 1
        block = binomial_block_size(1, PHI * 0.5 / 2, 0.05, 0.5)
        assert plan_sample_size(2, config) == block
        assert block <= required_block_size(1, PHI * 0.5 / 2, 0.05, 0.5)

    def test_budget_capped_by_pair_count(self):
        assert max_query_budget(8) == pair_count(8) == 28

    def test_alpha_quarter_scaling(self):
        base = SelectionConfig(alpha=0.8, beta=0.1, epsilon=0.5, seed=0)
        half = replace(base, alpha=0.4)
        n_base = plan_sample_size(12, base)
        n_half = plan_sample_size(12, half)
        assert 3.8 <= n_half / n_base <= 4.2

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SelectionConfig(alpha=0.0, beta=0.1, epsilon=1.0)
        with pytest.raises(ConfigError):
            SelectionConfig(alpha=0.5, beta=0.0, epsilon=1.0)
        with pytest.raises(ConfigError):
            SelectionConfig(alpha=0.5, beta=0.1, epsilon=1.0, phi=2.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ConfigError, match="epsilon"):
            SelectionConfig(alpha=0.5, beta=0.1, epsilon=epsilon)


class TestSelectHypothesis:
    def test_insufficient_users(self):
        Q = random_hypothesis_set(4, 6, seed=11)
        config = SelectionConfig(alpha=0.5, beta=0.1, epsilon=0.5, seed=1)
        pop = SimulatedPopulation.draw(Q.hypotheses[0], 10, 2)
        with pytest.raises(InsufficientSamplesError) as exc:
            select_hypothesis(Q, pop, config)
        assert exc.value.required == plan_sample_size(4, config)

    def test_disjoint_supports_easy_case(self):
        q1 = DiscreteDistribution(np.array([0.5, 0.5, 0.0, 0.0]))
        q2 = DiscreteDistribution(np.array([0.0, 0.0, 0.5, 0.5]))
        Q = HypothesisSet((q1, q2))
        config = SelectionConfig(alpha=1.0, beta=0.1, epsilon=0.5, seed=3)
        n0 = plan_sample_size(2, config)
        pop = SimulatedPopulation.draw(q1, n0, 4)
        report = select_hypothesis(Q, pop, config)
        assert report.selected_index == 1

    def test_near_noiseless_recovers_member(self):
        # OPT = 0 case: at epsilon = 20 and 10x the planned budget, nearly
        # every seeded run must land within alpha of the truth
        Q = random_hypothesis_set(4, 8, seed=12)
        config = SelectionConfig(alpha=0.5, beta=0.1, epsilon=20.0, seed=5)
        n = 10 * plan_sample_size(4, config)
        hits = 0
        runs = 100
        for r in range(runs):
            p = Q.hypotheses[r % 4]
            pop = SimulatedPopulation.draw(p, n, 50 + r)
            report = select_hypothesis(Q, pop, replace(config, seed=60 + r))
            chosen = Q.hypotheses[report.selected_index - 1]
            if l1_distance(chosen, p) <= config.alpha:
                hits += 1
        assert hits >= 95

    def test_planned_size_keeps_failure_rate_low_k16(self):
        # Monte-Carlo calibration of the planned budget at k=16
        config = SelectionConfig(alpha=0.5, beta=0.1, epsilon=1.0, seed=0)
        Q = random_hypothesis_set(16, 12, seed=15)
        n0 = plan_sample_size(16, config)
        p = Q.hypotheses[4]
        failures = 0
        trials = 40
        for t in range(trials):
            pop = SimulatedPopulation.draw(p, n0, np.random.SeedSequence([400, t]))
            rep = select_hypothesis(Q, pop, replace(config, seed=500 + t))
            err = l1_distance(Q.hypotheses[rep.selected_index - 1], p)
            if err > config.alpha + 1e-12:  # OPT = 0 here
                failures += 1
        assert failures / trials <= config.beta

    def test_pipeline_deterministic(self):
        Q = random_hypothesis_set(4, 6, seed=13)
        config = SelectionConfig(alpha=1.0, beta=0.2, epsilon=1.0, seed=21)
        pop = SimulatedPopulation.draw(Q.hypotheses[1], plan_sample_size(4, config), 22)
        r1 = select_hypothesis(Q, pop, config)
        r2 = select_hypothesis(Q, pop, config)
        assert r1.selected_index == r2.selected_index
        assert r1.discrepancies == r2.discrepancies
        assert r1.certificate.dominating_set == r2.certificate.dominating_set

    def test_report_fields(self):
        Q = random_hypothesis_set(3, 5, seed=14)
        config = SelectionConfig(alpha=1.5, beta=0.2, epsilon=1.0, seed=31)
        pop = SimulatedPopulation.draw(Q.hypotheses[0], plan_sample_size(3, config), 32)
        report = select_hypothesis(Q, pop, config)
        assert report.family_size == len(report.certificate.dominating_set) or \
            report.family_size <= len(report.certificate.dominating_set)
        assert report.users_consumed <= pop.user_count
        assert len(report.discrepancies) == 3
        doc = report.to_json_dict()
        assert doc["dominating_set_size"] >= 1


def _pairs(pairs):
    return [(p.lo, p.hi) for p in pairs]


def _report_key(report):
    cert = report.certificate
    return (
        report.selected_index, report.selected_discrepancy, report.discrepancies,
        report.family_size, report.users_consumed,
        _pairs(cert.dominating_set), _pairs(cert.random_part), _pairs(cert.low_indegree_part),
        cert.attempts, cert.target_bound,
    )


class TestSelectionPlan:
    @pytest.mark.parametrize("model", GENERATOR_MODELS)
    @pytest.mark.parametrize("k", [3, 8, 16, 32])
    def test_select_hypothesis_is_plan_plus_run(self, model, k):
        for seed in range(3):
            Q = random_hypothesis_set(k, 12, seed=100 * k + seed, model=model)
            config = SelectionConfig(alpha=0.5, beta=0.1, epsilon=0.5, seed=7 * seed + 1)
            plan = SelectionPlan.build(Q, config)
            pop = SimulatedPopulation.draw(Q.hypotheses[seed], plan.users_required, seed)
            dom_seed, proto_seed = np.random.SeedSequence(config.seed).spawn(2)
            planned = plan.run(pop, np.random.default_rng(proto_seed))
            one_shot = select_hypothesis(Q, pop, config)
            # the pipeline written out step by step, as before the plan existed
            G = build_scheffe_graph(Q, PHI)
            cert = find_dominating_set(G, Q, seed=dom_seed)
            family = query_family_from_dominating_set(Q, cert, PHI, graph=G)
            estimates = estimate_queries(pop, family.signs, config.epsilon, np.random.default_rng(proto_seed))
            written_out = replace(rmde_select(Q, family, estimates), certificate=cert)
            assert _report_key(planned) == _report_key(one_shot) == _report_key(written_out)
            assert plan.certificate is planned.certificate
            assert np.array_equal(plan.family.signs, family.signs)
            assert np.array_equal(plan.family.origins, family.origins)

    def test_users_required_is_the_planned_size(self):
        Q = random_hypothesis_set(5, 6, seed=3)
        config = SelectionConfig(alpha=0.5, beta=0.1, epsilon=0.5, seed=2)
        assert SelectionPlan.build(Q, config).users_required == plan_sample_size(5, config)

    def test_run_refuses_too_few_users(self):
        Q = random_hypothesis_set(4, 6, seed=11)
        plan = SelectionPlan.build(Q, SelectionConfig(alpha=0.5, beta=0.1, epsilon=0.5, seed=1))
        pop = SimulatedPopulation.draw(Q.hypotheses[0], plan.users_required - 1, 2)
        with pytest.raises(InsufficientSamplesError) as exc:
            plan.run(pop, np.random.default_rng(0))
        assert exc.value.required == plan.users_required
        assert exc.value.available == plan.users_required - 1

    def test_one_shot_refuses_before_building_a_graph(self, monkeypatch):
        def no_plan(*args, **kwargs):
            raise AssertionError("plan built for a population that is too small")

        monkeypatch.setattr(rmde, "_randomized_cover", no_plan)
        Q = random_hypothesis_set(4, 6, seed=11)
        config = SelectionConfig(alpha=0.5, beta=0.1, epsilon=0.5, seed=1)
        with pytest.raises(InsufficientSamplesError) as exc:
            select_hypothesis(Q, SimulatedPopulation.draw(Q.hypotheses[0], 10, 2), config)
        assert exc.value.required == plan_sample_size(4, config)

    def test_one_shot_does_not_warn_at_epsilon_one(self):
        # the epsilon >= 1 warning belongs to required_block_size's Hoeffding regime, which plans no longer use
        Q = random_hypothesis_set(4, 6, seed=13)
        config = SelectionConfig(alpha=1.0, beta=0.2, epsilon=1.0, seed=21)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pop = SimulatedPopulation.draw(Q.hypotheses[1], plan_sample_size(4, config), 22)
            select_hypothesis(Q, pop, config)

    def test_plan_is_read_only(self):
        Q = random_hypothesis_set(6, 8, seed=4)
        plan = SelectionPlan.build(Q, SelectionConfig(alpha=0.5, beta=0.1, epsilon=0.5, seed=3))
        for array in (plan.family.signs, plan.family.origins, plan.Q.probs_matrix):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = array[0, 0]
        with pytest.raises(FrozenInstanceError):
            plan.users_required = 0


def _certificate_key(cert):
    return (cert.k, _pairs(cert.dominating_set), _pairs(cert.random_part), _pairs(cert.low_indegree_part),
            cert.attempts, cert.target_bound)


def forbid_graphs(monkeypatch):
    """Make any construction of a PairDigraph or a PackedRows fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was constructed")

    monkeypatch.setattr(scheffe_graph.PairDigraph, "__init__", refuse)
    monkeypatch.setattr(scheffe_graph.PackedRows, "__init__", refuse)


class TestLazyPlan:
    """A plan builds no graph: it finds its dominating set from the shared-index table alone, carries
    the set as vertex ids, and checks its family with certifies."""

    @pytest.mark.parametrize("kind", [*GENERATOR_MODELS, "hadamard", "repeated"])
    @pytest.mark.parametrize("k", CORPUS_KS)
    def test_plan_and_selection_match_eager_reference(self, monkeypatch, kind, k):
        Q = corpus_set(kind, k)
        config = SelectionConfig(alpha=2.0, beta=0.5, epsilon=5.0, seed=k)
        eager = build_scheffe_graph(Q, PHI)
        eager.out_edges.bits  # every row
        forbid_graphs(monkeypatch)
        plan = SelectionPlan.build(Q, config)
        pop = SimulatedPopulation.draw(Q.hypotheses[-1], plan.users_required, k)
        report = select_hypothesis(Q, pop, config)
        # the reference, from the public pieces on the eagerly read graph
        dom_seed, run_seed = np.random.SeedSequence(config.seed).spawn(2)
        if sample_size(k) == pair_count(k):
            every = tuple(VertexPair(lo, hi) for lo, hi in all_vertex_pairs(k))
            cert = DominatingSetCertificate(k, every, every, (), 1, domination_bound(k))
        else:
            cert = find_dominating_set(eager, Q, seed=dom_seed)
        assert verify_domination(eager, cert.dominating_set)
        rows, origins = reference_family(Q, _pairs(cert.dominating_set))
        estimates = estimate_queries(pop, rows, config.epsilon, np.random.default_rng(run_seed))
        expected = replace(rmde_select(Q, QueryFamily(rows, origins, PHI), estimates), certificate=cert)
        assert _certificate_key(plan.certificate) == _certificate_key(cert)
        assert np.array_equal(plan.family.signs, rows) and np.array_equal(plan.family.origins, origins)
        assert _report_key(report) == _report_key(expected)
        ids = plan.certificate.vertex_ids
        assert not ids.flags.writeable
        assert ids.tolist() == [pair_index(p.lo - 1, p.hi - 1, k) for p in cert.dominating_set]

    @pytest.mark.parametrize("model", GENERATOR_MODELS)
    def test_vacuous_cover_computes_no_graph(self, monkeypatch, model):
        """Up to k = 19 the sample is every vertex: the plan computes no star table.  At k = 20 the
        cover computes the table, once.  No plan constructs a graph."""
        calls = []
        star_table = rmde._star_shared_index_edges
        monkeypatch.setattr(rmde, "_star_shared_index_edges", lambda *args: calls.append(1) or star_table(*args))
        forbid_graphs(monkeypatch)
        config = SelectionConfig(alpha=0.5, beta=0.1, epsilon=0.5, seed=2)
        for k in (2, 3, 8, 16, 19):
            plan = SelectionPlan.build(random_hypothesis_set(k, 16, seed=k, model=model), config)
            assert len(plan.certificate.dominating_set) == pair_count(k)
            assert calls == [], k
        SelectionPlan.build(random_hypothesis_set(20, 16, seed=20, model=model), config)
        assert sample_size(20) < pair_count(20)
        assert len(calls) == 1

    @pytest.mark.parametrize("k", [8, 32])
    def test_dropped_graph_is_freed_without_the_cycle_collector(self, k):
        """Neither the shared-index table nor the row function of a built graph holds the graph, so
        reference counting alone frees a dropped graph, read or not."""
        Q = random_hypothesis_set(k, 16, seed=k)
        gc.collect()
        gc.disable()
        try:
            for read in (False, True):
                G = build_scheffe_graph(Q, PHI)
                if read:
                    G.out_edges[0]
                    G.shared_index_edges
                ref = weakref.ref(G)
                del G
                assert ref() is None, read
        finally:
            gc.enable()

    def test_plan_checks_its_family_with_certifies_once(self, monkeypatch):
        """A plan calls certifies exactly once, on its own family at config.phi, and never verify_domination."""
        checked = []
        certifies = QueryFamily.certifies

        def recording(family, Q, phi=None, tol=1e-9):
            checked.append((family, phi))
            return certifies(family, Q, phi, tol)

        def no_domination_check(*args):
            raise AssertionError("verify_domination called")

        monkeypatch.setattr(QueryFamily, "certifies", recording)
        monkeypatch.setattr(rmde, "verify_domination", no_domination_check)
        monkeypatch.setattr(scheffe_graph, "verify_domination", no_domination_check)
        for k, phi in ((8, PHI), (24, PHI), (24, 0.3)):
            config = SelectionConfig(0.5, 0.1, 0.5, phi, seed=k)
            plan = SelectionPlan.build(random_hypothesis_set(k, 16, seed=k), config)
            assert checked == [(plan.family, phi)]
            checked.clear()

    @pytest.mark.parametrize("k", [8, 24])
    def test_family_missing_a_pair_is_refused(self, monkeypatch, k):
        """A cover forced to the single vertex {1, 2} gives a family that misses some pair: the plan
        and the one-shot selection refuse it with InvalidCertificateError before any user is read."""
        Q = random_hypothesis_set(k, 16, seed=k)
        one = (VertexPair(1, 2),)
        monkeypatch.setattr(rmde, "_randomized_cover", lambda k, table, seed: DominatingSetCertificate(
            k, one, one, (), 1, domination_bound(k)))
        assert not reference_certifies(rmde._scheffe_family(Q, np.array([[1, 2]]), PHI), Q, PHI)

        def no_users(*args):
            raise AssertionError("users were read")

        monkeypatch.setattr(rmde, "estimate_queries", no_users)
        config = SelectionConfig(alpha=0.5, beta=0.1, epsilon=0.5, seed=1)
        with pytest.raises(InvalidCertificateError, match="compare every pair"):
            SelectionPlan.build(Q, config)
        pop = SimulatedPopulation.draw(Q.hypotheses[0], plan_sample_size(k, config), 1)
        with pytest.raises(InvalidCertificateError, match="compare every pair"):
            select_hypothesis(Q, pop, config)

    def test_family_checks_the_certificate_through_verify_domination(self, monkeypatch):
        """query_family_from_dominating_set checks the set through rmde.verify_domination, handed the
        certificate itself."""
        checked = []
        verify = rmde.verify_domination
        monkeypatch.setattr(rmde, "verify_domination", lambda G, D: checked.append(D) or verify(G, D))
        for k in (8, 24):
            Q = random_hypothesis_set(k, 16, seed=k)
            cert = find_dominating_set(build_scheffe_graph(Q, PHI), Q, seed=k)
            query_family_from_dominating_set(Q, cert, PHI)
            assert checked[-1] is cert
        assert len(checked) == 2

    def test_certificate_on_another_k_rejected(self):
        Q = random_hypothesis_set(4, 8, seed=1)
        G = build_scheffe_graph(Q, PHI)
        cert = find_dominating_set(build_scheffe_graph(random_hypothesis_set(3, 8, seed=1), PHI), seed=1)
        with pytest.raises(InvalidCertificateError, match="certificate is on k=3"):
            query_family_from_dominating_set(Q, cert, PHI, graph=G)

    def test_loaded_certificate_derives_its_ids(self):
        Q = random_hypothesis_set(24, 16, seed=3)
        G = build_scheffe_graph(Q, PHI)
        cert = find_dominating_set(G, Q, seed=4)
        doc = cert.to_json_dict()
        doc["dominating_set"] = doc["dominating_set"][::-1]  # the family keeps the set's order
        loaded = DominatingSetCertificate.from_json_dict(doc)
        assert "vertex_ids" not in loaded.__dict__
        assert loaded.vertex_ids.tolist() == cert.vertex_ids.tolist()[::-1]
        assert not loaded.vertex_ids.flags.writeable
        family = query_family_from_dominating_set(Q, loaded, PHI, graph=G)
        rows, origins = reference_family(Q, _pairs(loaded.dominating_set))
        assert np.array_equal(family.signs, rows) and np.array_equal(family.origins, origins)
