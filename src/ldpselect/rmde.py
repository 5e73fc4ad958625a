"""Relaxed minimum distance estimation and the end-to-end selection pipeline.

Given estimates p_hat_T of <p, T> for a family of ±1 queries that can
phi-compare every pair of hypotheses, the selected hypothesis

    argmin_q  max_T |<q, T> - p_hat_T|

is within (1 + 2/phi) * OPT plus 2/phi times the worst estimation error over
the family, deterministically.  A SelectionPlan fixes, from Q and its config
alone, the Scheffe sets of a dominating set of the comparison graph at
config.phi (factor 13 = 1 + 2*6 at phi = 1/6): a random sample of pairs,
patched with the pairs its own Scheffe sets leave open (QueryFamily.open_pairs),
whose family is kept only if it certifies.  The sample is first 32 pairs,
kept where they and their patch are no more than the paper's ceil(k^1.5
sqrt(log2 k)), else the paper's sample, so on most inputs the family has a
few dozen tests in place of the paper's k^1.5.  Its run estimates them
privately and selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import HypothesisSet, _read_only, _scheffe_signs
from .errors import (
    ConfigError,
    IncompleteEstimatesError,
    InsufficientSamplesError,
    InvalidCertificateError,
)
from .protocol import (
    QueryEstimates,
    SimulatedPopulation,
    _check_epsilon,
    binomial_block_size,
    estimate_queries,
    run_protocol,  # noqa: F401  the per-user reference; perfbench's tracer wraps it as rmde.run_protocol
)
from .scheffe_graph import (
    PHI_DEFAULT,
    DominatingSetCertificate,
    PairDigraph,
    _check_phi,
    _randomized_cover,
    all_pairs,
    build_scheffe_graph,  # noqa: F401  unused here; perfbench's tracer wraps it as rmde.build_scheffe_graph
    domination_bound,
    find_dominating_set,  # noqa: F401  unused here; perfbench's tracer wraps it as rmde.find_dominating_set
    pair_count,
    verify_domination,
)


# certifies reads this many first tests for every pair, and the rest only for the pairs they leave open.
_WITNESS_TESTS = 64

# certifies gathers at most this many bytes per float64 operand (more only for one pair or 64 columns), so each
# chunk stays in cache.
_PAIR_OPERAND_BYTES = 128 << 10

# A plan first samples this many pairs (none at 0), and falls through to the paper's sample_size(k) where they and
# their patch hold more than that.
_FIRST_SAMPLE = 32


def _first_distinct_rows(signs: np.ndarray) -> np.ndarray:
    """Increasing indices of the first occurrence of each distinct row of an (m, d) ±1 matrix.

    Each row is packed to bits (+1 as 1) in whole uint64 words; one stable
    lexsort of the words puts equal rows next to each other, earliest first.
    """
    m, d = signs.shape
    words = np.zeros((m, -(-d // 64) * 8), dtype=np.uint8)
    words[:, :-(-d // 8)] = np.packbits(signs > 0, axis=1)
    words = words.view(np.uint64)
    order = np.lexsort(words.T)
    runs = words[order]
    first = np.ones(m, dtype=bool)
    first[1:] = (runs[1:] != runs[:-1]).any(axis=1)
    return np.sort(order[first])


@dataclass(frozen=True, eq=False)
class QueryFamily:
    """Distinct ±1 tests, the rows of a read-only (m, d) int8 matrix, and their origin pairs.

    origins is a read-only (m, 2) int64 array whose row i holds the 1-based
    [lo, hi] of the hypothesis pair test i is the Scheffe set of.

    The family certifies: for every pair of hypotheses, some test recovers a
    phi-fraction of their l1 distance.  certifies decides this, stopping at the
    first witness of each pair; star_margins measures every pair's slack over
    all tests.
    """

    signs: np.ndarray
    origins: np.ndarray
    phi: float

    def __post_init__(self):
        signs = np.asarray(self.signs)
        if signs.ndim != 2 or not signs.size:
            raise ConfigError("query family must contain at least one test")
        if not np.all(np.abs(signs) == 1):
            raise ConfigError("every test entry must be -1 or +1")
        origins = np.array(self.origins, dtype=np.int64)
        if origins.shape != (len(signs), 2):
            raise ConfigError(f"one origin pair per test required, got origins of shape {origins.shape}")
        _check_phi(self.phi)
        if _first_distinct_rows(signs).size != len(signs):
            raise ConfigError("duplicate tests must be pruned before constructing the family")
        object.__setattr__(self, "signs", _read_only(signs.astype(np.int8)))
        object.__setattr__(self, "origins", _read_only(origins))

    @classmethod
    def _of_scheffe(cls, signs: np.ndarray, origins: np.ndarray, phi: float) -> QueryFamily:
        """The family of _scheffe_family's own arrays: distinct int8 ±1 rows by construction, and int64 origins.

        The arrays are made read-only in place; neither the ±1 check nor the
        duplicate check is run again.
        """
        _check_phi(phi)
        family = object.__new__(cls)
        vars(family).update(signs=_read_only(signs), origins=_read_only(origins), phi=phi)
        return family

    def __len__(self) -> int:
        return len(self.signs)

    def _check_domain(self, Q: HypothesisSet) -> None:
        if self.signs.shape[1] != Q.domain_size:
            raise ConfigError(
                f"family is on domain size {self.signs.shape[1]}, hypotheses on {Q.domain_size}"
            )

    def _products(self, Q: HypothesisSet, phi: float | None):
        """phi (the family's when None), checked, P = Q.probs_matrix and M = P @ signs.T (k x m, entries <q_j, T>).

        M is formed once and only sliced or gathered: BLAS does not promise a subset of columns the same bits.
        """
        phi = self.phi if phi is None else phi
        _check_phi(phi)
        self._check_domain(Q)
        P = Q.probs_matrix
        return phi, P, P @ self.signs.astype(np.float64).T

    def star_margins(self, Q: HypothesisSet, phi: float | None = None) -> np.ndarray:
        """Per-hypothesis-pair slack of the comparison condition, measured over every test.

        Entry for pair (j, j'), in lexicographic pair order, is
        max_T |<q_j - q_j', T>| - phi * ||q_j - q_j'||_1; the family certifies
        phi-comparisons exactly when all entries are >= 0 (up to float noise).
        This is the exhaustive reference that certifies agrees with.
        """
        phi, P, M = self._products(Q, phi)
        rows = ((M[j], M[j + 1:], phi * np.abs(P[j] - P[j + 1:]).sum(axis=1)) for j in range(Q.k - 1))
        # One row j at a time against every j' > j through one reused (k - 1, m) buffer: O(k m) memory.
        buf = np.empty((Q.k - 1, len(self)))
        margins = np.empty(pair_count(Q.k))
        end = 0
        for row, rest, need in rows:
            gaps = buf[:len(rest)]
            np.subtract(row, rest, out=gaps)
            np.abs(gaps, out=gaps)
            margins[end:end + len(gaps)] = gaps.max(axis=1) - need
            end += len(gaps)
        return margins

    def open_pairs(self, Q: HypothesisSet, phi: float | None = None, tol: float = 1e-9) -> np.ndarray:
        """Increasing int64 vertex ids of the pairs no test phi-compares, read up to each pair's first witness.

        Equals np.flatnonzero(~(star_margins(Q, phi) >= -tol)) on every input (_open_chunks).
        """
        return np.concatenate([np.empty(0, dtype=np.int64), *self._open_chunks(Q, phi, tol)], dtype=np.int64)

    def certifies(self, Q: HypothesisSet, phi: float | None = None, tol: float = 1e-9) -> bool:
        """Whether open_pairs is empty (every star margin is >= -tol), stopping at the first chunk with an open pair."""
        return next(self._open_chunks(Q, phi, tol), None) is None

    def _open_chunks(self, Q: HypothesisSet, phi: float | None, tol: float):
        """The scan of open_pairs and certifies: the open pairs' ids, one increasing array per chunk that has any.

        A max is exact and fl(x - s) is monotone in x, so a pair that passes
        on some of the tests passes on all of them.  Pairs go in lexicographic
        chunks, first against the first _WITNESS_TESTS tests.  The pairs a
        chunk leaves open read the other tests in column blocks, each pair
        dropped once it passes, so a pair reads the tests up to the block
        holding its first witness.  A gathered float64 operand passes
        _PAIR_OPERAND_BYTES only where _WITNESS_TESTS columns of the open
        pairs, or the first tests of one pair, do.  The pairs' distances come
        from Q._pair_distances, computed once per Q for every scan and graph
        build.
        """
        phi, _, M = self._products(Q, phi)
        head = min(_WITNESS_TESTS, len(self))
        first, rest = M[:, :head], M[:, head:]
        lo, hi = all_pairs(Q.k).T
        distances = Q._pair_distances
        chunk = max(1, _PAIR_OPERAND_BYTES // (8 * head))  # the distances are read, not gathered
        for start in range(0, lo.size, chunk):
            a, b = lo[start:start + chunk], hi[start:start + chunk]
            gaps = first.take(a, axis=0) - first.take(b, axis=0)
            best = np.abs(gaps, out=gaps).max(axis=1)
            need = phi * distances[start:start + chunk]
            # not x < -tol: a NaN fails the reference, so it stays open
            rows, col = np.flatnonzero(~(best - need >= -tol)), 0
            while rows.size and col < rest.shape[1]:  # the other tests decide the pairs the first ones leave open
                block = rest[:, col:col + max(head, _PAIR_OPERAND_BYTES // (8 * rows.size))]
                gaps = block.take(a[rows], axis=0) - block.take(b[rows], axis=0)
                best[rows] = np.maximum(best[rows], np.abs(gaps, out=gaps).max(axis=1))
                rows, col = rows[~(best[rows] - need[rows] >= -tol)], col + block.shape[1]
            if rows.size:
                yield start + rows


@dataclass(frozen=True)
class SelectionConfig:
    """Targets for one end-to-end selection run."""

    alpha: float
    beta: float
    epsilon: float
    phi: float = PHI_DEFAULT
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha <= 2:
            raise ConfigError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not 0 < self.beta < 1:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        _check_epsilon(self.epsilon)
        _check_phi(self.phi)

    @property
    def approximation_factor(self) -> float:
        return 1.0 + 2.0 / self.phi


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """Outcome of a selection: chosen hypothesis and the full discrepancy profile."""

    selected_index: int  # 1-based; smallest index attaining the minimum
    selected_discrepancy: float
    discrepancies: tuple[float, ...]
    family_size: int
    users_consumed: int
    certificate: DominatingSetCertificate | None = None

    def to_json_dict(self) -> dict:
        """The report's fields and the sizes of its certificate's set, sample R and patch (None without one)."""
        cert = self.certificate
        return {
            "selected_index": self.selected_index,
            "selected_discrepancy": self.selected_discrepancy,
            "discrepancies": list(self.discrepancies),
            "family_size": self.family_size,
            "users_consumed": self.users_consumed,
            "dominating_set_size": len(cert.vertex_ids) if cert else None,
            "sampled_pairs": len(cert.random_ids) if cert else None,
            "patch_pairs": len(cert.patch_ids) if cert else None,
        }


def _scheffe_family(Q: HypothesisSet, pairs: np.ndarray, phi: float) -> QueryFamily:
    """Signed Scheffe sets of the (n, 2) 1-based pairs in order, keeping the first pair per distinct test."""
    P = Q.probs_matrix
    signs = _scheffe_signs(P[pairs[:, 0] - 1] - P[pairs[:, 1] - 1])
    first = _first_distinct_rows(signs)
    return QueryFamily._of_scheffe(signs[first], pairs[first].astype(np.int64, copy=False), phi)


def full_scheffe_family(Q: HypothesisSet) -> QueryFamily:
    """All C(k, 2) pairwise Scheffe sets, deduplicated: the classical family at phi = 1."""
    return _scheffe_family(Q, all_pairs(Q.k) + 1, 1.0)


class _UncertifiedFamily(InvalidCertificateError):
    """A certificate's family that does not certify, raised with the family so its open pairs can be read."""

    def __init__(self, message: str, family: QueryFamily):
        super().__init__(message)
        self.family = family


def query_family_from_dominating_set(
    Q: HypothesisSet,
    cert: DominatingSetCertificate,
    phi: float = PHI_DEFAULT,
    graph: PairDigraph | None = None,
) -> QueryFamily:
    """Signed Scheffe sets of the certificate's vertex_ids, in order, deduplicated, and checked.

    With a graph, the certificate must dominate it (verify_domination); a
    graph that records another phi raises ConfigError.  Without one, the
    family must phi-compare every pair of hypotheses (certifies), which is
    what a dominating set of the comparison graph of Q at phi guarantees.
    A failed check, or a graph or certificate on another k, raises
    InvalidCertificateError.
    """
    if graph is not None and graph.phi not in (None, phi):
        raise ConfigError(f"graph is built at phi={graph.phi}, family asked for phi={phi}")
    for name, k in (("graph", Q.k if graph is None else graph.k), ("certificate", cert.k)):
        if k != Q.k:
            raise InvalidCertificateError(f"{name} is on k={k}, hypothesis set has k={Q.k}")
    if graph is not None and not verify_domination(graph, cert):
        raise InvalidCertificateError("certificate set does not dominate the comparison graph")
    family = _scheffe_family(Q, all_pairs(Q.k)[cert.vertex_ids] + 1, phi)
    if graph is None and not family.certifies(Q, phi):
        raise _UncertifiedFamily(f"the certificate's family does not {phi:g}-compare every pair of hypotheses", family)
    return family


def rmde_select(Q: HypothesisSet, family: QueryFamily, estimates: QueryEstimates) -> SelectionReport:
    """Pick the hypothesis whose query values sit closest to the estimates.

    Discrepancy of q is max over tests of |<q, T> - p_hat_T|; ties break to
    the smallest hypothesis index.  Deterministic in its inputs.
    """
    m = len(family)
    p_hat = estimates.estimates
    if p_hat.size != m:
        raise IncompleteEstimatesError(f"{p_hat.size} estimates for a family of {m} tests")
    family._check_domain(Q)
    values = Q.probs_matrix @ family.signs.astype(np.float64).T  # k x m, entries <q, T>
    disc = np.abs(values - p_hat[np.newaxis, :]).max(axis=1)
    best = int(np.argmin(disc))  # first occurrence = smallest index
    return SelectionReport(
        selected_index=best + 1,
        selected_discrepancy=float(disc[best]),
        discrepancies=tuple(float(x) for x in disc),
        family_size=m,
        users_consumed=estimates.block_size * m,
    )


def max_query_budget(k: int) -> int:
    """Worst-case family size the plan must provision: ceil(4 k^1.5 sqrt(log2 k)), capped at C(k,2)."""
    if k < 2:
        raise ConfigError(f"need k >= 2, got {k}")
    return math.ceil(domination_bound(k))


def plan_sample_size(k: int, config: SelectionConfig) -> int:
    """Users sufficient for the full pipeline at the config's targets.

    Per-query accuracy is set to phi*alpha/2 so the selection error term
    collapses to exactly alpha.  Estimation gets failure probability beta/2.
    The other half covers no failure event: the dominating-set search either
    returns a verified set or raises before any user answers, so the family
    never fails once a plan exists, and estimation could take all of beta.
    Each of the max_query_budget(k) blocks gets binomial_block_size users,
    so any family of at most that many tests is estimated to that accuracy
    from floor(n / m) >= l users per test.
    """
    budget = max_query_budget(k)
    alpha_query = config.phi * config.alpha / 2.0
    return budget * binomial_block_size(budget, alpha_query, config.beta / 2.0, config.epsilon)


@dataclass(frozen=True, eq=False)
class SelectionPlan:
    """The query side of a selection: a function of (Q, config) alone, fixed before any user answers.

    build builds no graph.  Its cover samples pairs R as find_dominating_set's
    does, but patches R with the pairs that R's own Scheffe sets leave open at
    config.phi (QueryFamily.open_pairs), each then compared by its own
    Scheffe set.  R's family goes through query_family_from_dominating_set,
    that is certifies; where it certifies, the patch is empty and that family
    is the plan's, and where it does not, open_pairs reads that same family.
    A patched set's family goes through it again, and raises
    InvalidCertificateError unless it certifies.

    R is first a sample of _FIRST_SAMPLE pairs, drawn once from
    SeedSequence(config.seed, spawn_key=(0, 0)), and kept where it and its
    patch hold at most sample_size(k) pairs, so the set is never larger than
    the paper's sample alone.  Where it is not kept, R has sample_size(k)
    pairs, drawn and redrawn as find_dominating_set draws them, from
    SeedSequence(config.seed, spawn_key=(0,)), the plan is the one without a
    first sample, and the paper's worst-case bound holds.  Up to k = 19 the
    sample is every pair, and no first sample is drawn.  users_required does
    not depend on R: any certified family of at most max_query_budget(k)
    tests is estimated to the same accuracy.

    With pop.user_count >= users_required, run(pop, rng) selects q_hat with
    ||q_hat - p||_1 <= (1 + 2/phi) * OPT + alpha with probability at least
    1 - beta over the population and rng (factor 13 at phi = 1/6).
    """

    Q: HypothesisSet
    config: SelectionConfig
    certificate: DominatingSetCertificate
    family: QueryFamily
    users_required: int  # plan_sample_size(Q.k, config)

    @classmethod
    def build(cls, Q: HypothesisSet, config: SelectionConfig) -> SelectionPlan:
        """Dominating set (seeded by the first child of SeedSequence(config.seed)), family and its check."""
        seed = np.random.SeedSequence(config.seed, spawn_key=(0,))  # the first child, without spawning both
        kept = {}  # the last sample and its family, where that family certifies

        def sample_patch(sampled: np.ndarray) -> np.ndarray:
            """The patch rule: no pair where the sample's family certifies, else the pairs it leaves open."""
            kept.clear()
            no_ids = sampled[:0]
            sample = DominatingSetCertificate._of_cover(Q.k, sampled, sampled, no_ids, 1, domination_bound(Q.k), 0.0)
            try:
                kept.update(ids=sampled, family=query_family_from_dominating_set(Q, sample, config.phi))
            except _UncertifiedFamily as err:
                return err.family.open_pairs(Q, config.phi)
            return no_ids

        cert = _randomized_cover(Q.k, sample_patch, seed, _FIRST_SAMPLE)
        if kept and np.array_equal(cert.vertex_ids, kept["ids"]):
            family = kept["family"]
        else:
            family = query_family_from_dominating_set(Q, cert, config.phi)
        return cls(Q, config, cert, family, plan_sample_size(Q.k, config))

    def run(self, pop: SimulatedPopulation, rng: np.random.Generator) -> SelectionReport:
        """Estimate the family's queries on pop (estimate_queries, exact block law) and select."""
        if pop.user_count < self.users_required:
            raise InsufficientSamplesError(pop.user_count, self.users_required)
        estimates = estimate_queries(pop, self.family.signs, self.config.epsilon, rng)
        return replace(rmde_select(self.Q, self.family, estimates), certificate=self.certificate)


def select_hypothesis(Q: HypothesisSet, pop: SimulatedPopulation, config: SelectionConfig) -> SelectionReport:
    """SelectionPlan.build(Q, config).run(pop, rng), rng from the second child of SeedSequence(config.seed)."""
    users = plan_sample_size(Q.k, config)
    if pop.user_count < users:  # refused before anything is planned
        raise InsufficientSamplesError(pop.user_count, users)
    run_seed = np.random.SeedSequence(config.seed, spawn_key=(1,))  # the second child; build takes the first
    return SelectionPlan.build(Q, config).run(pop, np.random.default_rng(run_seed))
