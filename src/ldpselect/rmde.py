"""Relaxed minimum distance estimation and the end-to-end selection pipeline.

Given estimates p_hat_T of <p, T> for a family of ±1 queries that can
phi-compare every pair of hypotheses, the selected hypothesis

    argmin_q  max_T |<q, T> - p_hat_T|

is within (1 + 2/phi) * OPT plus 2/phi times the worst estimation error over
the family, deterministically.  A SelectionPlan fixes, from Q alone, the
Scheffe sets of a dominating set of the comparison graph at phi = 1/6
(factor 13 = 1 + 2*6); its run estimates them privately and selects.
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
    all_pairs,
    build_scheffe_graph,
    domination_bound,
    find_dominating_set,
    pair_count,
    verify_domination,
)


# certifies reads this many first tests for every pair, and the rest only for the pairs they leave open.
_WITNESS_TESTS = 64


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

    def __len__(self) -> int:
        return len(self.signs)

    def _check_domain(self, Q: HypothesisSet) -> None:
        if self.signs.shape[1] != Q.domain_size:
            raise ConfigError(
                f"family is on domain size {self.signs.shape[1]}, hypotheses on {Q.domain_size}"
            )

    def _star_rows(self, Q: HypothesisSet, phi: float | None):
        """For each j < k - 1 in turn: M[j], M[j + 1:] and phi * ||q_j - q_j'||_1 for every j' > j.

        M = P @ signs.T (k x m, entries <q_j, T>) is formed once and only
        sliced, since BLAS does not promise a subset of columns the same bits.
        """
        phi = self.phi if phi is None else phi
        _check_phi(phi)
        self._check_domain(Q)
        P = Q.probs_matrix
        M = P @ self.signs.astype(np.float64).T
        return ((M[j], M[j + 1:], phi * np.abs(P[j] - P[j + 1:]).sum(axis=1)) for j in range(Q.k - 1))

    def star_margins(self, Q: HypothesisSet, phi: float | None = None) -> np.ndarray:
        """Per-hypothesis-pair slack of the comparison condition, measured over every test.

        Entry for pair (j, j'), in lexicographic pair order, is
        max_T |<q_j - q_j', T>| - phi * ||q_j - q_j'||_1; the family certifies
        phi-comparisons exactly when all entries are >= 0 (up to float noise).
        This is the exhaustive reference that certifies agrees with.
        """
        rows = self._star_rows(Q, phi)
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

    def certifies(self, Q: HypothesisSet, phi: float | None = None, tol: float = 1e-9) -> bool:
        """Whether every star margin is >= -tol, stopping at the first witness of each pair.

        Equals bool((star_margins(Q, phi) >= -tol).all()) on every input: a max
        is exact and fl(x - s) is monotone in x, so a pair that passes on the
        first _WITNESS_TESTS tests passes on all of them.  Only the pairs still
        open read the other tests, and the first row holding a pair whose full
        maximum fails returns False.
        """
        rows = self._star_rows(Q, phi)
        head = min(_WITNESS_TESTS, len(self))
        buf = np.empty((Q.k - 1, head))
        for row, rest, need in rows:
            gaps = buf[:len(rest)]
            np.subtract(row[:head], rest[:, :head], out=gaps)
            np.abs(gaps, out=gaps)
            best = gaps.max(axis=1)
            # ~(x >= -tol) rather than x < -tol: a NaN fails the reference, so it stays open
            still_open = np.flatnonzero(~(best - need >= -tol))
            if not still_open.size:
                continue
            if head < len(self):
                tail = rest[still_open, head:]  # a gathered copy, so written in place
                np.subtract(row[head:], tail, out=tail)
                best = np.maximum(best[still_open], np.abs(tail, out=tail).max(axis=1))
                if (best - need[still_open] >= -tol).all():
                    continue
            return False
        return True


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
        return {
            "selected_index": self.selected_index,
            "selected_discrepancy": self.selected_discrepancy,
            "discrepancies": list(self.discrepancies),
            "family_size": self.family_size,
            "users_consumed": self.users_consumed,
            "dominating_set_size": (
                len(self.certificate.dominating_set) if self.certificate else None
            ),
        }


def _scheffe_family(Q: HypothesisSet, pairs: np.ndarray, phi: float) -> QueryFamily:
    """Signed Scheffe sets of the (n, 2) 1-based pairs in order, keeping the first pair per distinct test."""
    P = Q.probs_matrix
    signs = _scheffe_signs(P[pairs[:, 0] - 1] - P[pairs[:, 1] - 1])
    first = _first_distinct_rows(signs)
    return QueryFamily(signs=signs[first], origins=pairs[first], phi=phi)


def full_scheffe_family(Q: HypothesisSet) -> QueryFamily:
    """All C(k, 2) pairwise Scheffe sets, deduplicated: the classical family at phi = 1."""
    return _scheffe_family(Q, all_pairs(Q.k) + 1, 1.0)


def query_family_from_dominating_set(
    Q: HypothesisSet,
    cert: DominatingSetCertificate,
    phi: float = PHI_DEFAULT,
    graph: PairDigraph | None = None,
) -> QueryFamily:
    """Signed Scheffe sets of the dominating pairs, deduplicated.

    The certificate is re-verified against the comparison graph of Q at phi
    before use; a set that dominates that graph automatically yields a family
    satisfying the phi-comparison condition for every hypothesis pair.  The
    check and the family read the certificate's vertex_ids, and a set holding
    every vertex passes before any row of the graph is read.  A given graph
    that records another phi raises ConfigError; a graph or certificate on
    another k raises InvalidCertificateError.
    """
    if graph is None:
        graph = build_scheffe_graph(Q, phi)
    if graph.phi not in (None, phi):
        raise ConfigError(f"graph is built at phi={graph.phi}, family asked for phi={phi}")
    for name, k in (("graph", graph.k), ("certificate", cert.k)):
        if k != Q.k:
            raise InvalidCertificateError(f"{name} is on k={k}, hypothesis set has k={Q.k}")
    if not verify_domination(graph, cert):
        raise InvalidCertificateError("certificate set does not dominate the comparison graph")
    return _scheffe_family(Q, all_pairs(Q.k)[cert.vertex_ids] + 1, phi)


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
        """Graph, dominating set (seeded by the first child of SeedSequence(config.seed)) and family."""
        return _plan(Q, config, plan_sample_size(Q.k, config), np.random.SeedSequence(config.seed).spawn(2)[0])

    def run(self, pop: SimulatedPopulation, rng: np.random.Generator) -> SelectionReport:
        """Estimate the family's queries on pop (estimate_queries, exact block law) and select."""
        if pop.user_count < self.users_required:
            raise InsufficientSamplesError(pop.user_count, self.users_required)
        estimates = estimate_queries(pop, self.family.signs, self.config.epsilon, rng)
        return replace(rmde_select(self.Q, self.family, estimates), certificate=self.certificate)


def _plan(Q: HypothesisSet, config: SelectionConfig, users_required: int, seed) -> SelectionPlan:
    graph = build_scheffe_graph(Q, config.phi)
    cert = find_dominating_set(graph, Q, seed=seed)
    family = query_family_from_dominating_set(Q, cert, config.phi, graph=graph)
    return SelectionPlan(Q, config, cert, family, users_required)


def select_hypothesis(Q: HypothesisSet, pop: SimulatedPopulation, config: SelectionConfig) -> SelectionReport:
    """SelectionPlan.build(Q, config).run(pop, rng), rng from the second child of SeedSequence(config.seed)."""
    users = plan_sample_size(Q.k, config)
    if pop.user_count < users:  # refused before any graph is built
        raise InsufficientSamplesError(pop.user_count, users)
    dom_seed, run_seed = np.random.SeedSequence(config.seed).spawn(2)
    return _plan(Q, config, users, dom_seed).run(pop, np.random.default_rng(run_seed))
