"""One-round locally private estimation of ±1 query means.

Each user holds one sample x from an unknown distribution p, is assigned a
single query T in advance, and releases exactly one randomized bit
RR_eps(T(x)).  The curator averages each block and multiplies by the bias
correction (e^eps + 1)/(e^eps - 1), giving an unbiased estimate of <p, T>
per query.  No step reads another user's data, and no query assignment
depends on any released message.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np

from .distributions import DiscreteDistribution, _is_json, _read_only
from .errors import (
    ConfigError,
    DimensionError,
    InsufficientSamplesError,
    InvariantError,
)

def _check_epsilon(epsilon: float) -> None:
    """ConfigError unless the privacy budget is a positive finite number."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigError(f"epsilon must be positive and finite, got {epsilon}")


def correction_factor(epsilon: float) -> float:
    """Bias correction (e^eps + 1)/(e^eps - 1) for randomized response."""
    _check_epsilon(epsilon)
    return (math.exp(epsilon) + 1.0) / (math.exp(epsilon) - 1.0)


def keep_probability(epsilon: float) -> float:
    _check_epsilon(epsilon)
    return math.exp(epsilon) / (math.exp(epsilon) + 1.0)


def randomized_response(bit, epsilon: float, rng: np.random.Generator):
    """Return the input bit with probability e^eps/(e^eps + 1), its negation otherwise.

    Accepts a scalar ±1 or an array of ±1; flips are independent across
    entries and across calls.
    """
    keep = keep_probability(epsilon)
    arr = np.asarray(bit)
    if not np.all(np.abs(arr) == 1):
        raise ConfigError("randomized response expects bits in {-1, +1}")
    if arr.ndim == 0:
        return int(arr) if rng.random() < keep else -int(arr)
    flips = rng.random(arr.shape) >= keep
    return np.where(flips, -arr, arr).astype(np.int8)


def channel_matrix(epsilon: float) -> np.ndarray:
    """2x2 transition matrix of the channel; rows = outputs (-1, +1), cols = inputs."""
    keep = keep_probability(epsilon)
    flip = 1.0 - keep
    return np.array([[keep, flip], [flip, keep]])


def channel_privacy_ratio(epsilon: float) -> float:
    """Worst-case output-probability ratio over all input pairs, by enumeration.

    Equals e^eps exactly, certifying the channel is eps-private and no tighter.
    """
    M = channel_matrix(epsilon)
    worst = 0.0
    for y in range(2):
        for x in range(2):
            for x2 in range(2):
                if x != x2:
                    worst = max(worst, M[y, x] / M[y, x2])
    return worst


def _check_block_request(num_queries: int, alpha_query: float, beta: float) -> None:
    if num_queries < 1:
        raise ConfigError(f"need at least one query, got {num_queries}")
    if not 0 < alpha_query <= 2:
        raise ConfigError(f"alpha_query must lie in (0, 2], got {alpha_query}")
    if not 0 < beta < 1:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")


def _hoeffding_block_size(num_queries: int, alpha_query: float, beta: float, c: float) -> int:
    return math.ceil(2.0 * c * c * math.log(2.0 * num_queries / beta) / (alpha_query ** 2))


def required_block_size(num_queries: int, alpha_query: float, beta: float, epsilon: float) -> int:
    """Users needed per query so all estimates are alpha-accurate w.p. >= 1 - beta.

    Two-sided Hoeffding bound for means of i.i.d. variables in [-c, c] with
    c = (e^eps + 1)/(e^eps - 1), union-bounded over the queries:
        l = ceil(2 c^2 ln(2 |T| / beta) / alpha^2).
    The bound is exact for every epsilon > 0, but its 1/eps^2 scaling regime
    assumes epsilon < 1, so larger budgets draw a RuntimeWarning.
    binomial_block_size is never larger and is what plans use.
    """
    _check_block_request(num_queries, alpha_query, beta)
    c = correction_factor(epsilon)
    if epsilon >= 1:
        warnings.warn(
            f"epsilon = {epsilon} >= 1: sample-size formulas stay exact but the "
            "1/eps^2 scaling regime assumes epsilon < 1",
            RuntimeWarning,
            stacklevel=2,
        )
    return _hoeffding_block_size(num_queries, alpha_query, beta, c)


# _binomial_tail_bound takes its sup over pi on this many equal cells of [1 - keep, keep].
_TAIL_CELLS = 2000


def _bernoulli_kl(x, p):
    """KL(Bernoulli(x) || Bernoulli(p)) elementwise, with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        first = np.where(x > 0, x * np.log(x / p), 0.0)
        second = np.where(x < 1, (1 - x) * np.log((1 - x) / (1 - p)), 0.0)
    return first + second


def _kl_argmin(lo: float, hi: float, t: float) -> float:
    """The pi in [lo, hi] minimising KL(pi + t || pi), by bisection on the sign of its slope.

    KL is jointly convex, so KL(pi + t || pi) is convex in pi; its slope is
    log((pi + t)(1 - pi) / (pi (1 - pi - t))) - t / (pi (1 - pi)).
    """
    def slope(p: float) -> float:
        rest = 1.0 - p - t
        if rest <= 0:
            return math.inf
        return math.log((p + t) * (1.0 - p) / (p * rest)) - t / (p * (1.0 - p))

    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if slope(mid) < 0:
            lo = mid
        else:
            hi = mid


def _upper_tail_parts(a: np.ndarray, b: np.ndarray, t: float, pi_min: float):
    """Block-free parts (G, H, need) of a bound on P(Bin(l, pi) >= l (pi + t)) for pi in each cell [a, b].

    With x = pi + t < 1 and r = pi (1 - x) / (x (1 - pi)):
    - every ratio pmf(j + 1)/pmf(j) with j >= l x is below r, so the tail is
      at most pmf(j0)/(1 - r) = pmf(j0) x (1 - pi) / t, j0 its first point;
    - pmf extends to s -> Gamma(l + 1) pi^s (1 - pi)^(l - s) /
      (Gamma(s + 1) Gamma(l - s + 1)), log-concave in s.  Since
      log(z + 1/2) < digamma(z + 1) < log(z + 1) for z > 0, its slope is <= 0
      from s = l x on once l t >= (3 pi - 1)/2, so then pmf(j0) <= its value
      at l x;
    - Stirling's series with Robbins' constants, valid for real arguments,
      bounds that value by e^(1/(12 l)) exp(-l KL(x || pi)) / sqrt(2 pi l x (1 - x)).
    Together: tail <= exp(-l G) * e^(1/(12 l)) / sqrt(2 pi l) * H when l t >= need,
    and tail <= exp(-l G) (Chernoff) always.  Over the cell G is the minimum of
    the convex KL(pi + t || pi), at pi_min clipped into it, and H the product
    of the largest 1 - pi and sqrt(x / (1 - x)).  A cell whose x reaches 1 has
    H = inf (Chernoff only, which at x = 1 is the pmf pi^l of the boundary
    point l), and one wholly past pi = 1 - t has no tail: G = inf.
    """
    top = 1.0 - t
    at = np.clip(pi_min, a, np.minimum(b, top))
    G = np.where(a < top, np.maximum(_bernoulli_kl(np.minimum(at + t, 1.0), at), 0.0), np.inf)
    inside = b + t < 1.0
    rest = np.where(inside, 1.0 - b - t, 1.0)
    H = np.where(inside, (1.0 - a) / t * np.sqrt((b + t) / rest), np.inf)
    return G, H, (3.0 * b - 1.0) / 2.0


def _binomial_tail_bound(t: float, keep: float):
    """U with U(l) >= sup over pi in [1 - keep, keep] of P(|Bin(l, pi)/l - pi| >= t), non-increasing in l.

    The lower tail at pi is the upper tail of Bin(l, 1 - pi), so each cell
    adds _upper_tail_parts on its mirror image.  Every part is non-increasing
    in l, and so is their sum, its max over the cells and its cap at 1.
    A NaN stays NaN, which no test of the form U(l) <= target passes.
    """
    edges = np.linspace(1.0 - keep, keep, _TAIL_CELLS + 1)
    a, b = edges[:-1], edges[1:]
    top = 1.0 - t
    pi_min = _kl_argmin(1.0 - keep, min(keep, top), t) if 1.0 - keep < top else top
    G, H, need = map(np.stack, zip(_upper_tail_parts(a, b, t, pi_min), _upper_tail_parts(1.0 - b, 1.0 - a, t, pi_min)))

    def bound(block: int) -> float:
        stirling = math.exp(1.0 / (12.0 * block)) / math.sqrt(2.0 * math.pi * block)
        factor = np.where(block * t >= need, np.minimum(1.0, stirling * H), 1.0)
        return float(np.minimum(1.0, (np.exp(-block * G) * factor).sum(axis=0).max()))

    return bound


@lru_cache(maxsize=256)
def binomial_block_size(num_queries: int, alpha_query: float, beta: float, epsilon: float) -> int:
    """Users needed per query so all estimates are alpha-accurate w.p. >= 1 - beta, from the exact block law.

    A block of l users whose query has true value <p, T> releases
    Binomial(l, pi) messages +1, with pi = keep p(T = +1) + (1 - keep) p(T = -1)
    in [1 - keep, keep] (Warner 1965); its estimate misses by more than
    alpha_query exactly when the count's mean is off pi by more than
    t = alpha_query / (2c).  This is the smallest l whose tail bound
    _binomial_tail_bound(t, keep)(l) is at most beta / num_queries, union-bounded
    over the queries; the bound is non-increasing in l, so any larger block
    meets the target too.  It is capped by the Hoeffding size of
    required_block_size (a valid bound as well), so it is never larger, and it
    does not warn at epsilon >= 1.  Cached: every plan and one-shot selection
    asks for it, whatever its seed.
    """
    _check_block_request(num_queries, alpha_query, beta)
    c = correction_factor(epsilon)
    hoeffding = _hoeffding_block_size(num_queries, alpha_query, beta, c)
    bound = _binomial_tail_bound(alpha_query / (2.0 * c), keep_probability(epsilon))
    target = beta / num_queries
    if not bound(hoeffding) <= target:
        return hoeffding
    lo, hi = 0, hoeffding  # bound(hi) <= target; lo = 0 or bound(lo) > target
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True, eq=False, init=False)
class SimulatedPopulation:
    """Users holding i.i.d. samples from a distribution only the simulator sees.

    A population takes one of two forms.  Given samples (the constructor) hold
    one domain point per user.  A seeded draw holds (p, n, seed) alone: its
    samples are built from the seed when first read, and positive_counts draws
    from the same seed without building them.
    """

    true_distribution: DiscreteDistribution
    user_count: int
    _samples: np.ndarray | None = field(repr=False)
    _seed: np.random.SeedSequence | None = field(repr=False)

    def __init__(self, true_distribution: DiscreteDistribution, samples):
        samples = np.asarray(samples)
        if samples.ndim != 1:
            raise InvariantError("samples must form a one-dimensional array")
        if samples.size and samples.dtype.kind not in "iu":
            raise InvariantError(f"samples must be integers, got dtype {samples.dtype}")
        d = true_distribution.domain_size
        if samples.size and (samples.min() < 1 or samples.max() > d):
            raise InvariantError(f"samples must lie in 1..{d}")
        self._set(true_distribution, int(samples.size), _read_only(samples.astype(np.int64)), None)

    def _set(self, dist, n, samples, seed) -> None:
        object.__setattr__(self, "true_distribution", dist)
        object.__setattr__(self, "user_count", n)
        object.__setattr__(self, "_samples", samples)
        object.__setattr__(self, "_seed", seed)

    @property
    def samples(self) -> np.ndarray:
        """One domain point (1-based) per user, as a read-only int64 array."""
        if self._samples is None:
            rng = np.random.default_rng(self._seed)
            dist = self.true_distribution
            samples = rng.choice(dist.domain_size, size=self.user_count, p=dist.probs) + 1
            object.__setattr__(self, "_samples", _read_only(samples))
        return self._samples

    @classmethod
    def draw(cls, dist: DiscreteDistribution, n: int, seed) -> "SimulatedPopulation":
        """Record n i.i.d. users; .samples equals default_rng(seed).choice(d, n, p=dist.probs) + 1.

        seed is an int, a SeedSequence or None, and is only recorded; None is
        fixed to fresh entropy here, so every read of the population sees the
        same users.  A Generator is refused: its caller owns the order of its
        stream, which a recorded draw cannot keep.
        """
        if not _is_json(n, Integral):
            raise ConfigError(f"user count must be an integer, got {n!r}")
        if n < 0:
            raise ConfigError(f"user count must be non-negative, got {n}")
        if not isinstance(seed, np.random.SeedSequence):
            if not (seed is None or _is_json(seed, Integral)):
                raise ConfigError(f"seed must be an int, a SeedSequence or None, got {seed!r}")
            seed = np.random.SeedSequence(seed)
        pop = cls.__new__(cls)
        pop._set(dist, int(n), None, seed)
        return pop

    def positive_counts(self, plus: np.ndarray, block: int) -> np.ndarray:
        """Users of block i whose point is True in row i of plus, an m x d bool matrix.

        Block i holds users i*block .. (i+1)*block - 1.  Given samples are
        counted through one histogram per block.  A seeded draw builds no
        samples: it draws count i as Binomial(block, p(plus[i])) from its seed,
        the law of that count over the draw, with p normalized by its total
        mass as the draw's cdf is.  Its counts are therefore not those of
        .samples.
        """
        if self._seed is None:
            d = self.true_distribution.domain_size
            return np.array([
                np.bincount(self._samples[i * block:(i + 1) * block], minlength=d + 1)[1:] @ row
                for i, row in enumerate(plus)
            ], dtype=np.int64)
        probs = self.true_distribution.probs
        inside, outside = plus @ probs, ~plus @ probs
        return np.random.default_rng(self._seed).binomial(block, inside / (inside + outside))


@dataclass(frozen=True, eq=False)
class LdpTranscript:
    """One released bit per participating user, in user order.

    User ids are the positions 0..n-1 and user i answers query i // block_size,
    a map fixed before any user answers, so neither is stored.  Surplus users
    that fit no full block are never assigned and never release anything.
    """

    messages: np.ndarray
    block_size: int
    num_queries: int

    @property
    def user_count(self) -> int:
        return int(self.messages.size)

    @property
    def query_index(self) -> np.ndarray:
        """The query each user answers (int64), rebuilt on each read.

        Users i*block .. (i+1)*block - 1 answer query i.
        """
        return np.repeat(np.arange(self.num_queries), self.block_size)

    def validate(self) -> None:
        if self.messages.ndim != 1:
            raise InvariantError("messages must form a one-dimensional array")
        if self.user_count != self.block_size * self.num_queries:
            raise InvariantError("transcript does not consist of full equal blocks")
        if not np.all(np.abs(self.messages) == 1):
            raise InvariantError("released messages must be single bits in {-1, +1}")


@dataclass(frozen=True, eq=False)
class QueryEstimates:
    """Bias-corrected block means: a read-only float64 vector, entry i for query i."""

    estimates: np.ndarray
    block_size: int
    epsilon: float

    def __post_init__(self):
        est = np.array(self.estimates, dtype=np.float64)  # a copy; the caller's stays writable
        if est.ndim != 1:
            raise InvariantError("estimates must form a one-dimensional vector")
        if self.block_size < 1:
            raise InvariantError(f"block_size must be positive, got {self.block_size}")
        c = correction_factor(self.epsilon)
        outside = ~(np.abs(est) <= c + 1e-12)  # NaN is outside too
        if outside.any():
            i = int(np.argmax(outside))
            raise InvariantError(
                f"estimate {float(est[i])!r} for query {i} outside the corrected range ±{c}"
            )
        object.__setattr__(self, "estimates", _read_only(est))


def _block_layout(pop: SimulatedPopulation, queries) -> tuple[np.ndarray, int]:
    """The checked (m, d) ±1 query matrix, from any array-like, and its block size floor(n/m)."""
    try:
        tests = np.asarray(queries)
    except ValueError as exc:
        raise DimensionError(f"query rows differ in length: {exc}") from exc
    if not tests.size:
        raise ConfigError("query list must be non-empty")
    if tests.ndim != 2:
        raise DimensionError(f"queries must form an (m, d) matrix, got shape {tests.shape}")
    n, (m, length) = pop.user_count, tests.shape
    if n < m:
        raise InsufficientSamplesError(n, m)
    d = pop.true_distribution.domain_size
    if length != d:
        raise DimensionError(f"query length {length} does not match domain size {d}")
    if not np.all(np.abs(tests) == 1):  # NaN fails too
        raise InvariantError("every query entry must be -1 or +1")
    return tests.astype(np.int8, copy=False), n // m


def run_protocol(
    pop: SimulatedPopulation,
    queries,
    epsilon: float,
    rng,
) -> tuple[LdpTranscript, QueryEstimates]:
    """Run the one-round protocol for a fixed (m, d) ±1 query matrix, user by user.

    Users are split into m contiguous blocks of floor(n/m) in row
    order; surplus users are dropped so every estimate has
    identical variance.  User i with sample x releases RR_eps(T_{pi(i)}(x));
    the estimate for T is the corrected block mean.  Raw samples appear
    nowhere in the outputs.
    """
    tests, block = _block_layout(pop, queries)
    m = len(tests)
    bits = np.take_along_axis(tests, pop.samples[:block * m].reshape(m, block) - 1, axis=1).ravel()
    messages = randomized_response(bits, epsilon, np.random.default_rng(rng))
    sums = messages.astype(np.float64).reshape(m, block).sum(axis=1)
    estimates = correction_factor(epsilon) * sums / block
    transcript = LdpTranscript(messages=messages, block_size=block, num_queries=m)
    transcript.validate()
    return transcript, QueryEstimates(estimates=estimates, block_size=block, epsilon=epsilon)


def estimate_queries(pop: SimulatedPopulation, queries, epsilon: float, rng) -> QueryEstimates:
    """The estimates of run_protocol, drawn from the exact law of each block's message sum.

    Same checks and block layout as run_protocol.  When h of the block's
    users hold a point where T = +1, the block releases
    Binomial(h, keep) + Binomial(block - h, 1 - keep) messages +1: the law of
    the per-user sum.  No per-user uniform is drawn and no message is kept,
    so on a seeded draw (see SimulatedPopulation.positive_counts) a call
    costs O(|T| d) whatever the population size.  No transcript is made.
    """
    tests, block = _block_layout(pop, queries)
    rng = np.random.default_rng(rng)
    c = correction_factor(epsilon)
    keep = keep_probability(epsilon)
    h = pop.positive_counts(tests > 0, block)
    ones = rng.binomial(h, keep) + rng.binomial(block - h, 1.0 - keep)
    estimates = c * (2 * ones - block) / block
    return QueryEstimates(estimates=estimates, block_size=block, epsilon=epsilon)
