"""Executable barrier constructions: a hard digraph and a flattening refutation.

Two independent obstructions to pushing the query budget down to ~k:

1. A digraph on the C(k, 2) index pairs that satisfies the triangular edge
   structure yet certifiably needs a dominating set of size at least
   k^{3/2} / (8 sqrt(log2 k)).  The certificate is per-instance: a sampled
   vertex set R whose pairwise overlaps are all small, so no single vertex
   can dominate more than t_max + 1 of its elements.

2. A family of 2n distributions (point masses plus rescaled Hadamard
   columns) on which every "flat" stochastic map collapses some pair to
   l1 distance at most 2/sqrt(n), refuting distance-preserving flattening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .distributions import _read_only
from .errors import (
    ConfigError,
    DimensionError,
    FlatnessError,
    InvariantError,
    ResamplingLimitError,
    UnsupportedSizeError,
)
from .scheffe_graph import (
    MAX_RESAMPLE_ATTEMPTS,
    PairDigraph,
    all_pairs,
    pair_count,
    pair_index,
    _check_fits,
    _pair_view,
)

MIN_LOWER_BOUND_K = 16  # below this the sample would need more vertices than exist

# Peak bytes per edge of build_lower_bound_graph, 9.2 to 9.6 under tracemalloc for k = 64..192.  It is reached
# twice in _lower_bound_targets, which holds k ids or mask bytes per vertex: first the {a, i} ids (4), the
# {b, i} ids copied over them (4) and the copy mask (1); then the chosen ids (4), the mask that drops columns
# a and b (1) and the targets (4).
_LOWER_BOUND_BYTES_PER_EDGE = 10


@dataclass(frozen=True, eq=False)
class LowerBoundCertificate:
    """Digraph plus the sampled set witnessing its large domination number.

    Row v of targets, read-only int32 (V, k - 2), holds v's out-neighbor
    ids; graph packs those rows on first read, into V * ceil(V / 8) bytes
    (644 MiB at k = 384).  overlap_sizes[v] counts the indices i outside v
    for which both pairs {a, i} and {b, i} landed in the sample; a vertex
    dominates at most overlap_sizes[v] + 1 sampled elements, so the
    domination number is at least |R| / (t_max + 1).  sampled_ids holds the
    ids of R in increasing order, sampled_set the same as VertexPairs, built
    on first read.
    """

    k: int
    targets: np.ndarray
    sampled_ids: np.ndarray
    overlap_sizes: np.ndarray
    t_max: int
    implied_lower_bound: float
    attempts: int
    seed: int | None = None

    @property
    def sample_size(self) -> int:
        return len(self.sampled_ids)

    sampled_set = _pair_view("sampled_ids")

    @cached_property
    def graph(self) -> PairDigraph:
        return PairDigraph(self.k, self.targets)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "ell": self.sample_size,
            "t_max": self.t_max,
            "implied_lower_bound": self.implied_lower_bound,
            "attempts": self.attempts,
            "seed": self.seed,
        }


def _sampled_adjacency(k: int, sampled: np.ndarray, dtype) -> np.ndarray:
    """The k x k symmetric 0/1 adjacency, of the given dtype, of the pairs whose ids are sampled."""
    lo, hi = all_pairs(k)[sampled].T
    adjacency = np.zeros((k, k), dtype=dtype)
    adjacency[lo, hi] = adjacency[hi, lo] = 1
    return adjacency


def _overlap_sizes(k: int, sampled: np.ndarray) -> np.ndarray:
    """|I_v| of every vertex v = {a, b}, int64: entry (a, b) of A @ A, A the sampled pairs' 0/1 adjacency.

    The entry counts the indices i with both {a, i} and {b, i} sampled.
    Its terms are 0 and 1 and it is at most k, so float64 holds it exactly.
    """
    A = _sampled_adjacency(k, sampled, np.float64)
    lo, hi = all_pairs(k).T
    return (A @ A)[lo, hi].astype(np.int64)


def _lower_bound_targets(k: int, sampled: np.ndarray) -> np.ndarray:
    """The out-neighbor ids of every vertex of the lower-bound graph, int32 of shape (V, k - 2).

    For v = {a, b}, a < b, and each i outside v in increasing order, row v
    holds the id of {b, i} when {a, i} alone of the two is sampled and the
    id of {a, i}, the lexicographically smaller, otherwise.  Rows a and b of
    the k x k table of pair ids are read whole, and columns a and b are
    dropped from each row last.
    """
    sampled_at = _sampled_adjacency(k, sampled, bool)
    lo, hi = all_pairs(k).T
    ids = pair_index(*np.indices((k, k)), k).astype(np.int32)  # the diagonal, never a pair, is dropped
    take_b = sampled_at[lo] > sampled_at[hi]
    targets = ids[lo]
    np.copyto(targets, ids[hi], where=take_b)
    del take_b  # before keep is allocated, which keeps the peak at about 9 bytes per edge
    keep = np.ones(targets.shape, dtype=bool)
    rows = np.arange(len(lo))
    keep[rows, lo] = keep[rows, hi] = False
    return targets[keep].reshape(len(lo), k - 2)


def lower_bound_sample_size(k: int) -> int:
    return min(math.ceil(0.25 * k ** 1.5 * math.sqrt(math.log2(k))), pair_count(k))


def lower_bound_formula(k: int) -> float:
    """The certified floor k^{3/2} / (8 sqrt(log2 k))."""
    return k ** 1.5 / (8.0 * math.sqrt(math.log2(k)))


def build_lower_bound_graph(k: int, seed=None) -> LowerBoundCertificate:
    """Construct the hard digraph on C(k, 2) vertices with its certificate.

    Samples R of ceil(k^{3/2} sqrt(log2 k) / 4) vertices and resamples until
    every overlap satisfies |I_v| + 1 <= 2 log2 k (each attempt succeeds with
    probability > 1/2 for large k); _overlap_sizes counts the overlaps of
    each attempt.  Edges: for every vertex {a, b} and every outside index i,
    exactly one of {a, i}, {b, i} becomes the target; when exactly one of
    them is sampled the unsampled one is chosen, otherwise the
    lexicographically smaller one.  Out-degree is therefore exactly k - 2,
    and every triangle carries a forward edge from each of its vertices.
    The targets are written once, for the accepted sample
    (_lower_bound_targets).
    An integral seed, Python or NumPy, is recorded on the certificate as an
    int; any other seed is recorded as None.
    A build that would not fit in the memory available raises
    UnsupportedSizeError before allocating.
    """
    if k < MIN_LOWER_BOUND_K:
        raise UnsupportedSizeError(
            f"construction needs k >= {MIN_LOWER_BOUND_K}, got {k}"
        )
    V = pair_count(k)
    _check_fits(_LOWER_BOUND_BYTES_PER_EDGE * V * (k - 2),
                f"the id table and {V * (k - 2)} edges of a k={k} lower-bound graph")
    ell = lower_bound_sample_size(k)
    overlap_cap = 2.0 * math.log2(k)  # accept when t_max + 1 <= this
    rng = np.random.default_rng(seed)

    t_max = None
    overlaps = None
    for attempt in range(1, MAX_RESAMPLE_ATTEMPTS + 1):
        sampled = rng.choice(V, size=ell, replace=False)
        overlaps = _overlap_sizes(k, sampled)
        t_max = int(overlaps.max())
        if t_max + 1 <= overlap_cap:
            attempts = attempt
            break
    else:
        raise ResamplingLimitError(
            "overlap condition kept failing",
            MAX_RESAMPLE_ATTEMPTS,
            {"k": k, "ell": ell, "last_t_max": t_max, "cap": overlap_cap},
        )

    # Row v takes one of {a, i}, {b, i} per index i outside v = {a, b}: no self-loop, no repeat.
    targets = _lower_bound_targets(k, sampled)
    return LowerBoundCertificate(
        k=k,
        targets=_read_only(targets),
        sampled_ids=_read_only(np.sort(sampled)),
        overlap_sizes=overlaps,
        t_max=t_max,
        implied_lower_bound=ell / (t_max + 1),
        attempts=attempts,
        seed=int(seed) if isinstance(seed, Integral) else None,
    )


def verify_domination_lower_bound(cert: LowerBoundCertificate) -> float:
    """Recompute the certified floor from the graph's target matrix, without packing the graph.

    Counts, for every vertex, how many sampled elements its row of targets
    holds, plus itself when sampled; |R| divided by the maximum is a valid
    lower bound on the domination number of the graph, and is at least the
    certificate's implied bound.
    """
    in_R = np.zeros(len(cert.targets), dtype=bool)
    in_R[cert.sampled_ids] = True
    dominated = in_R[cert.targets].sum(axis=1) + in_R
    bound = cert.sample_size / int(dominated.max())
    if bound + 1e-9 < cert.implied_lower_bound:
        raise InvariantError(
            f"recomputed bound {bound} fell below the certificate's {cert.implied_lower_bound}"
        )
    return bound


def sylvester_hadamard(n: int) -> np.ndarray:
    """Integer Hadamard matrix of order n (n a power of two) by recursive doubling."""
    if n < 1 or n & (n - 1):
        raise UnsupportedSizeError(f"order must be a power of 2, got {n}")
    H = np.array([[1]], dtype=np.int64)
    block = np.array([[1, 1], [1, -1]], dtype=np.int64)
    while H.shape[0] < n:
        H = np.kron(block, H)
    return H


@dataclass(frozen=True, eq=False)
class FlatteningFamily:
    """Point masses alongside rescaled Hadamard columns on a power-of-two domain.

    point_mass_columns is the n x n identity; hadamard_columns has the
    uniform distribution first and, for j >= 2, the j-th Hadamard column with
    -1 -> 0 and +1 -> 2/n.  All 2n columns are distributions and every pair
    sits within l1 distance 2.
    """

    n: int
    hadamard_matrix: np.ndarray
    point_mass_columns: np.ndarray
    hadamard_columns: np.ndarray


def build_flattening_family(n: int) -> FlatteningFamily:
    if n < 8 or n & (n - 1):
        raise UnsupportedSizeError(f"domain size must be a power of 2 and at least 8, got {n}")
    H = sylvester_hadamard(n)
    F = np.where(H > 0, 2.0 / n, 0.0)
    F[:, 0] = 1.0 / n
    col_sums = F.sum(axis=0)
    if not np.allclose(col_sums, 1.0, atol=1e-12):
        raise InvariantError("family columns failed to normalize")
    return FlatteningFamily(
        n=n,
        hadamard_matrix=H,
        point_mass_columns=np.eye(n),
        hadamard_columns=F,
    )


@dataclass(frozen=True, eq=False)
class StochasticMap:
    """Column-stochastic matrix: each column is a distribution over the image domain."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2:
            raise InvariantError("stochastic map must be a matrix")
        # each test is written to fail on NaN
        negative = ~(M >= 0)
        if negative.any():
            j = int(np.argmax(negative.any(axis=0)))
            value = float(M[np.argmax(negative[:, j]), j])
            raise InvariantError(f"stochastic map entries must be non-negative: column {j + 1} holds {value}")
        sums = M.sum(axis=0)
        bad = ~(np.abs(sums - 1.0) <= 1e-9)
        if bad.any():
            j = int(np.argmax(bad))
            raise InvariantError(f"column {j + 1} sums to {float(sums[j])}, not 1 within 1e-9")
        object.__setattr__(self, "matrix", M)
        self.matrix.flags.writeable = False

    @property
    def image_size(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def domain_size(self) -> int:
        return int(self.matrix.shape[1])


def verify_flattening_violation(
    phi_map: StochasticMap,
    fam: FlatteningFamily,
    alpha: float,
) -> tuple[int, float]:
    """Find the Hadamard-derived column a flat map collapses onto the uniform one.

    Flatness means every image of the 2n family columns has all its mass in
    [(1 - alpha)/m, (1 + alpha)/m]; the first column/entry breaking this is
    reported via FlatnessError.  For a flat map the minimizing column index
    i > 1 and min_i ||phi(f_i - f_1)||_1 are returned, and that value never
    exceeds 2/sqrt(n).
    """
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    n = fam.n
    if phi_map.domain_size != n:
        raise DimensionError(
            f"map has {phi_map.domain_size} columns, family domain size is {n}"
        )
    m = phi_map.image_size
    low = (1.0 - alpha) / m
    high = (1.0 + alpha) / m
    tol = 1e-12
    M = phi_map.matrix
    for group, images in (("E", M), ("F", M @ fam.hadamard_columns)):
        outside = ~((images >= low - tol) & (images <= high + tol))
        if outside.any():
            entry, column = np.unravel_index(int(np.argmax(outside)), images.shape)
            raise FlatnessError(
                group, column + 1, entry + 1, float(images[entry, column]), low, high
            )
    diffs = M @ (fam.hadamard_columns[:, 1:] - fam.hadamard_columns[:, :1])
    distances = np.abs(diffs).sum(axis=0)
    i0 = int(np.argmin(distances))
    value = float(distances[i0])
    bound = 2.0 / math.sqrt(n)
    if not value <= bound + 1e-9:
        raise InvariantError(
            f"flat map preserved distance {value} > {bound}; this contradicts the collapse bound"
        )
    return i0 + 2, value


def _collapse_basis(fam: FlatteningFamily) -> np.ndarray:
    """B, with columns (f_1, f_2 - f_1, ..., f_n - f_1) of the Hadamard-derived columns."""
    F = fam.hadamard_columns
    return np.column_stack([F[:, :1], F[:, 1:] - F[:, :1]])


def _frobenius_sq(x: np.ndarray) -> float:
    return float(np.linalg.norm(x, "fro") ** 2)


def _frobenius_sq_each(stack: np.ndarray) -> np.ndarray:
    """_frobenius_sq of each map of a C-contiguous stack: the same dot product, square root and square."""
    flat = stack.reshape(len(stack), 1, -1)
    return np.sqrt((flat @ flat.transpose(0, 2, 1)).reshape(-1)) ** 2


def frobenius_identities(phi_map: StochasticMap, fam: FlatteningFamily) -> dict[str, float]:
    """Exact norm identities behind the collapse bound, for verification.

    Returns the deviation |  ||phi B||_F^2 - ||phi||_F^2 / n  | where B has
    columns (f_1, f_2 - f_1, ..., f_n - f_1), together with ||phi||_F^2 and
    its cap 4n/m implied by flat entries.
    """
    M = phi_map.matrix
    lhs = _frobenius_sq(M @ _collapse_basis(fam))
    frob_sq = _frobenius_sq(M)
    return {
        "identity_deviation": abs(lhs - frob_sq / fam.n),
        "frobenius_sq": frob_sq,
        "frobenius_cap": 4.0 * fam.n / phi_map.image_size,
    }


# Most bytes of candidate columns the flat-map sampler draws in one batch.
_FLAT_BATCH_BYTES = 1 << 20


def _flat_maps(n: int, m: int, alpha: float, rng: np.random.Generator, max_tries: int, maps: int):
    """The next `maps` flat (m x n) maps, rejection-sampled from rng in row batches, in stacks.

    A candidate column is a row of m uniforms on [0, 2/m] divided by its sum;
    it is accepted when every entry lies in [(1 - alpha)/m, (1 + alpha)/m].
    Rows are drawn in batches and accepted in stream order, and accepted rows
    a stack does not use carry over to the next, so the maps are those of a
    one-column-at-a-time loop on the same generator.  A batch holds the rows
    the columns still wanted should take at the acceptance rate seen so far,
    capped at _FLAT_BATCH_BYTES.  The carried rows are joined to new ones
    only when a batch is drawn; stacks are read off them in turn.  Each stack
    is a C-contiguous (cnt, m, n) array of at most _FLAT_BATCH_BYTES / 8 of
    maps, one map at least.  Raises ResamplingLimitError once a column would
    need more than max_tries rows.
    """
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    low = (1.0 - alpha) / m
    high = (1.0 + alpha) / m
    cap = max(1, _FLAT_BATCH_BYTES // (8 * m))
    # a stack and the copies and products made of it, about eight of its size, stay within one batch
    per_stack = max(1, _FLAT_BATCH_BYTES // (64 * m * n))
    drawn = taken = 0  # rows drawn and accepted so far
    accepted = np.empty((0, m))
    start = 0  # rows of accepted handed out already
    rejected = 0  # rows drawn since the last accepted one
    for left in range(maps, 0, -per_stack):
        wanted = min(left, per_stack) * n
        if len(accepted) - start < wanted:
            parts = [accepted[start:]]
            have = len(parts[0])
            while have < wanted:
                if rejected >= max_tries:
                    raise ResamplingLimitError("could not sample a flat column", max_tries)
                batch = min(cap, (left * n - have) * (drawn + 1) // (taken + 1) + 1)
                cols = rng.uniform(0.0, 2.0 / m, size=(batch, m))
                with np.errstate(invalid="ignore"):  # an all-zero row turns into NaNs, which fail the test
                    cols /= cols.sum(axis=1)[:, np.newaxis]
                pos = np.flatnonzero(((cols >= low) & (cols <= high)).all(axis=1))
                too_many = np.flatnonzero(np.diff(pos, prepend=-1 - rejected) > max_tries)
                if too_many.size:  # the column that row would fill fails, should it be needed
                    pos, rejected = pos[:too_many[0]], max_tries
                else:
                    rejected = batch - 1 - pos[-1] if pos.size else rejected + batch
                parts.append(cols[pos])
                have += pos.size
                drawn += batch
                taken += pos.size
            accepted, start = np.concatenate(parts), 0
        # each map C order, as a column-by-column fill gives: the matrix products downstream depend on it
        yield np.ascontiguousarray(accepted[start:start + wanted].reshape(-1, n, m).transpose(0, 2, 1))
        start += wanted


def random_flat_map(n: int, m: int, alpha: float, rng, max_tries: int = 100_000) -> StochasticMap:
    """Rejection-sample a flat stochastic map: entries in [0, 2/m], columns normalized.

    Each column is resampled until, after normalization, all entries stay in
    [(1 - alpha)/m, (1 + alpha)/m]; flatness on the whole family follows
    because every family column is a convex mixture of the point masses.
    Candidates are drawn in row batches, so a Generator shared across calls
    advances past the rows this map used.
    """
    return StochasticMap(next(_flat_maps(n, m, alpha, np.random.default_rng(rng), max_tries, maps=1))[0])


@dataclass(frozen=True)
class FlatteningReport:
    """Aggregate of a falsification run: no trial may beat the 2/sqrt(n) collapse."""

    n: int
    m: int
    trials: int
    alpha: float
    worst_min_distance: float
    bound: float
    max_frobenius_deviation: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "trials": self.trials,
            "alpha": self.alpha,
            "worst_min_distance": self.worst_min_distance,
            "bound": self.bound,
            "max_frobenius_deviation": self.max_frobenius_deviation,
        }


def run_flattening_trials(
    n: int,
    m: int | None = None,
    trials: int = 1000,
    alpha: float = 0.99,
    seed=None,
) -> FlatteningReport:
    """Search for a counterexample among random flat maps (none can exist).

    The maps come from _flat_maps in stacks.  Each stack takes one matrix
    product, with the collapse basis of frobenius_identities, whose columns
    after the first are the differences of the family images from the
    uniform column.  Every map is checked as StochasticMap and
    verify_flattening_violation check it: no negative entry, each column
    summing to 1 within 1e-9, flat on group E, and no distance above
    2/sqrt(n); each test fails on NaN.
    Group F needs no check here: each F column is a distribution, so its
    image is a convex mixture of the map's columns and stays within the
    flat range, up to rounding far below the tolerance.  The first map that
    fails raises the error StochasticMap or verify_flattening_violation
    raises for it alone.  A stack's squared Frobenius norms come from one
    stacked product of each flattened map with itself, the dot product
    np.linalg.norm takes of a single map, so the report is the one a
    map-by-map loop gives.
    """
    if trials < 1:
        raise ConfigError(f"need at least one trial, got {trials}")
    m = n if m is None else int(m)
    if m < 2:
        raise ConfigError(f"image domain must have at least 2 points, got {m}")
    fam = build_flattening_family(n)
    B = _collapse_basis(fam)
    tol = 1e-12  # as in verify_flattening_violation
    low = max((1.0 - alpha) / m - tol, 0.0)  # a negative entry fails the test as the flat range does
    high = (1.0 + alpha) / m + tol
    bound = 2.0 / math.sqrt(n)
    worst = 0.0
    max_dev = 0.0
    for stack in _flat_maps(n, m, alpha, np.random.default_rng(seed), max_tries=100_000, maps=trials):
        MB = stack @ B
        nearest = np.abs(MB[:, :, 1:]).sum(axis=1).min(axis=1)
        good = (((stack >= low) & (stack <= high)).all(axis=(1, 2))
                & (np.abs(stack.sum(axis=1) - 1.0) <= 1e-9).all(axis=1)
                & (nearest <= bound + 1e-9))
        if not good.all():
            i = int(np.argmin(good))
            verify_flattening_violation(StochasticMap(stack[i]), fam, alpha)  # raises the error of map i
            raise InvariantError(f"map {i + 1} of a stack failed a check there that it passes alone")
        worst = max(worst, float(nearest.max()))
        deviations = np.abs(_frobenius_sq_each(MB) - _frobenius_sq_each(stack) / n)
        max_dev = max(max_dev, float(deviations.max()))
    return FlatteningReport(
        n=n,
        m=m,
        trials=trials,
        alpha=alpha,
        worst_min_distance=worst,
        bound=bound,
        max_frobenius_deviation=max_dev,
    )
