import math
import warnings

import numpy as np
import pytest

from ldpselect import (
    DiscreteDistribution,
    LdpTranscript,
    QueryEstimates,
    SimulatedPopulation,
    channel_privacy_ratio,
    estimate_queries,
    binomial_block_size,
    randomized_response,
    required_block_size,
    run_protocol,
)
from ldpselect.distributions import GENERATOR_MODELS, random_hypothesis_set
from ldpselect.errors import ConfigError, DimensionError, InsufficientSamplesError, InvariantError
from ldpselect import protocol
from ldpselect.protocol import _binomial_tail_bound, channel_matrix, correction_factor, keep_probability


class TestChannel:
    def test_keep_probability_ln3(self):
        assert keep_probability(math.log(3)) == pytest.approx(0.75, abs=1e-15)

    def test_ratio_examples(self):
        assert channel_privacy_ratio(math.log(3)) == pytest.approx(3.0, abs=1e-12)
        assert channel_privacy_ratio(1.0) == pytest.approx(math.e, abs=1e-12)

    def test_ratio_by_enumeration(self):
        for eps in (0.1, 0.5, 1.0):
            assert abs(channel_privacy_ratio(eps) - math.exp(eps)) < 1e-12

    def test_channel_matrix_columns_sum_to_one(self):
        M = channel_matrix(0.7)
        assert np.allclose(M.sum(axis=0), 1.0)

    def test_epsilon_validation(self):
        with pytest.raises(ConfigError):
            channel_privacy_ratio(0.0)
        with pytest.raises(ConfigError):
            correction_factor(-1.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        for fn in (correction_factor, keep_probability, channel_privacy_ratio):
            with pytest.raises(ConfigError, match="finite"):
                fn(epsilon)


class TestRandomizedResponse:
    def test_rejects_non_bits(self):
        with pytest.raises(ConfigError):
            randomized_response(2, 1.0, np.random.default_rng(0))

    def test_rejects_zero_epsilon(self):
        with pytest.raises(ConfigError):
            randomized_response(1, 0.0, np.random.default_rng(0))

    def test_scalar_output_is_bit(self):
        rng = np.random.default_rng(1)
        outs = {randomized_response(1, 0.3, rng) for _ in range(200)}
        assert outs == {1, -1}

    def test_near_deterministic_at_large_epsilon(self):
        assert keep_probability(20.0) >= 1 - 1e-8
        rng = np.random.default_rng(2)
        bits = np.ones(100_000, dtype=np.int8)
        out = randomized_response(bits, 20.0, rng)
        assert (out == 1).mean() >= 1 - 1e-5

    def test_empirical_keep_rate(self):
        rng = np.random.default_rng(3)
        bits = np.ones(200_000, dtype=np.int8)
        out = randomized_response(bits, 1.0, rng)
        target = math.e / (math.e + 1)
        assert abs((out == 1).mean() - target) < 0.005

    def test_unbiased_after_correction(self):
        # corrected single-user estimate has mean <p, T>
        rng = np.random.default_rng(4)
        d = 6
        p = DiscreteDistribution(rng.dirichlet(np.ones(d)))
        t = rng.choice([-1, 1], size=d)
        n = 100_000
        x = rng.choice(d, size=n, p=p.probs)
        bits = t[x]
        eps = 0.8
        out = randomized_response(bits, eps, rng)
        c = correction_factor(eps)
        estimates = c * out.astype(float)
        se = estimates.std() / math.sqrt(n)
        truth = float(p.probs @ t)
        assert abs(estimates.mean() - truth) <= 4 * se


class TestRequiredBlockSize:
    def test_matches_closed_form(self):
        c = correction_factor(1.0)
        expected = math.ceil(2 * c * c * math.log(2 * 20 / 0.05) / 0.1 ** 2)
        assert required_block_size(20, 0.1, 0.05, 1.0) == expected == 6261

    def test_degenerate_target_still_positive(self):
        assert required_block_size(1, 2.0, 0.999, 5.0) >= 1

    def test_quarter_scaling_when_alpha_doubles(self):
        small = required_block_size(10, 0.05, 0.1, 0.5)
        large = required_block_size(10, 0.1, 0.1, 0.5)
        assert large <= math.ceil(small / 4) + 1
        assert large >= small // 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            required_block_size(0, 0.1, 0.1, 1.0)
        with pytest.raises(ConfigError):
            required_block_size(5, 3.0, 0.1, 1.0)
        with pytest.raises(ConfigError):
            required_block_size(5, 0.0, 0.1, 0.5)
        with pytest.raises(ConfigError):
            required_block_size(5, 0.1, 1.0, 0.5)
        with pytest.raises(ConfigError):
            required_block_size(5, 0.1, 0.1, -1.0)

    def test_warns_at_large_epsilon(self):
        with pytest.warns(RuntimeWarning, match="epsilon"):
            required_block_size(5, 0.1, 0.1, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            required_block_size(5, 0.1, 0.1, 0.5)

    def test_monte_carlo_calibration(self):
        # the planned block size must push the all-queries failure rate under beta
        num_queries, alpha, beta, eps = 100, 0.1, 0.05, 1.0
        block = required_block_size(num_queries, alpha, beta, eps)
        rng = np.random.default_rng(12)
        d = 8
        p = DiscreteDistribution(rng.dirichlet(np.ones(d)))
        queries = [rng.choice([-1, 1], size=d) for _ in range(num_queries)]
        truth = np.array([float(p.probs @ t) for t in queries])
        runs, failures = 120, 0
        for r in range(runs):
            pop = SimulatedPopulation.draw(p, block * num_queries, 1000 + r)
            _, est = run_protocol(pop, queries, eps, np.random.default_rng(2000 + r))
            values = est.estimates
            if np.max(np.abs(values - truth)) > alpha:
                failures += 1
        assert failures / runs <= beta


def exact_tails(block, pis, t):
    """P(|Bin(block, pi)/block - pi| > t) for each pi, summed from log pmfs (no scipy)."""
    j = np.arange(block + 1)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, block + 1)))])
    pis = np.asarray(pis, dtype=float)[:, np.newaxis]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = (log_fact[block] - log_fact[j] - log_fact[block - j]
                   + np.where(j > 0, j * np.log(pis), 0.0) + np.where(j < block, (block - j) * np.log1p(-pis), 0.0))
    outside = (j > block * (pis + t)) | (j < block * (pis - t))
    return np.where(outside, np.exp(log_pmf), 0.0).sum(axis=1)


# the benchmark's selection config: alpha = 0.5, beta = 0.1, epsilon = 1, phi = 1/6
BENCH_ALPHA_QUERY = (1 / 6) * 0.5 / 2


class TestBinomialBlockSize:
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0, 8.0])
    @pytest.mark.parametrize("t", [0.02, 0.1, 0.3])
    def test_bound_is_at_least_the_exact_tail(self, eps, t):
        keep = keep_probability(eps)
        bound = _binomial_tail_bound(t, keep)
        pis = np.linspace(1 - keep, keep, 101)
        for block in list(range(1, 40)) + list(range(40, 2001, 53)) + [2000]:
            exact = exact_tails(block, pis, t).max()
            assert exact <= bound(block) * (1 + 1e-9), (block, exact, bound(block))

    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0, 8.0])
    @pytest.mark.parametrize("t", [0.02, 0.1, 0.3])
    def test_bound_does_not_increase_with_the_block(self, eps, t):
        bound = _binomial_tail_bound(t, keep_probability(eps))
        values = [bound(block) for block in range(1, 3001)]
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))

    def test_bound_does_not_increase_near_the_benchmark_block(self):
        bound = _binomial_tail_bound(BENCH_ALPHA_QUERY / (2 * correction_factor(1.0)), keep_probability(1.0))
        values = [bound(block) for block in range(40_000, 42_001)]
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))

    def test_bound_is_close_to_the_exact_tail(self):
        # a loose bound is still valid, but would give back the users this sizing saves
        t, keep = 0.05, keep_probability(1.0)
        exact = exact_tails(2000, np.linspace(1 - keep, keep, 2001), t).max()
        assert _binomial_tail_bound(t, keep)(2000) <= 1.25 * exact

    def test_benchmark_config_sizes(self):
        # max_query_budget(k) tests at k = 8, 32, 128 with beta / 2; Hoeffding gives 37,875 / 53,381 / 68,467
        sizes = [binomial_block_size(m, BENCH_ALPHA_QUERY, 0.05, 1.0) for m in (28, 496, 8128)]
        assert sizes == [26_827, 41_176, 55_458]

    def test_smallest_block_meeting_the_target(self):
        for m, eps in ((496, 1.0), (28, 0.5), (1, 8.0)):
            block = binomial_block_size(m, BENCH_ALPHA_QUERY, 0.05, eps)
            bound = _binomial_tail_bound(BENCH_ALPHA_QUERY / (2 * correction_factor(eps)), keep_probability(eps))
            assert bound(block) <= 0.05 / m < bound(block - 1)

    def test_never_above_hoeffding(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for m in (1, 28, 496, 8128):
                for alpha_query in (0.01, BENCH_ALPHA_QUERY, 0.5, 2.0):
                    for beta in (0.01, 0.1, 0.9):
                        for eps in (0.1, 0.5, 1.0, 2.0, 8.0):
                            args = (m, alpha_query, beta, eps)
                            assert 1 <= binomial_block_size(*args) <= required_block_size(*args), args

    def test_upper_boundary_point_uses_its_exact_pmf(self):
        # pi + t reaches 1 inside the range: the tail there is the single point block, pmf pi^block
        keep = keep_probability(8.0)
        t = 1 / correction_factor(8.0)
        bound = _binomial_tail_bound(t, keep)
        for block in (1, 2, 5, 20):
            assert bound(block) == pytest.approx((1 - t) ** block, rel=1e-9)
            assert exact_tails(block, [1 - t - 1e-12], t)[0] == pytest.approx((1 - t) ** block, rel=1e-6)

    def test_tails_outside_the_unit_interval_count_zero(self):
        keep = keep_probability(8.0)
        assert _binomial_tail_bound(keep, keep)(1) == 0.0

    def test_nan_fails_the_target(self, monkeypatch):
        monkeypatch.setattr(protocol, "_bernoulli_kl", lambda x, p: np.full(np.shape(x), np.nan))
        uncached = binomial_block_size.__wrapped__
        assert uncached(496, BENCH_ALPHA_QUERY, 0.05, 1.0) == 53_381  # the Hoeffding size

    def test_large_epsilon_is_sized_like_the_plain_binomial(self):
        # at epsilon = 20 the channel is almost the identity; pi = 1/2 needs about z^2 / (4 t^2)
        block = binomial_block_size(496, BENCH_ALPHA_QUERY, 0.05, 20.0)
        z = 3.89  # two-sided normal quantile at 0.05 / 496
        assert 0.95 < block / (z * z / (4 * (BENCH_ALPHA_QUERY / 2) ** 2)) < 1.1

    def test_validation_and_no_warning(self):
        for args in ((0, 0.1, 0.1, 1.0), (5, 3.0, 0.1, 1.0), (5, 0.0, 0.1, 0.5), (5, 0.1, 1.0, 0.5),
                     (5, 0.1, 0.1, -1.0), (5, 0.1, 0.1, math.nan)):
            with pytest.raises(ConfigError):
                binomial_block_size(*args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            binomial_block_size(5, 0.1, 0.1, 2.0)

    def test_monte_carlo_all_tests_at_the_benchmark_config(self):
        # 496 blocks of the select-k32 plan on the exact aggregate law at pi = 1/2, the worst case.
        # The all-tests failure rate must not exceed beta / 2 = 0.05: the test fails only if the
        # failure count reaches the one-sided binomial critical value at level 0.001.
        m, beta, eps, trials = 496, 0.05, 1.0, 4000
        block = binomial_block_size(m, BENCH_ALPHA_QUERY, beta, eps)
        c = correction_factor(eps)
        rng = np.random.default_rng(2026)
        failures = 0
        for _ in range(trials // 500):
            ones = rng.binomial(block, 0.5, size=(500, m))
            failures += int((np.abs(c * (2 * ones - block) / block) > BENCH_ALPHA_QUERY).any(axis=1).sum())
        log_pmf = [math.lgamma(trials + 1) - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
                   + j * math.log(beta) + (trials - j) * math.log1p(-beta) for j in range(trials + 1)]
        critical = next(f for f in range(trials + 1) if sum(math.exp(x) for x in log_pmf[f:]) <= 0.001)
        assert failures < critical, (failures, critical)


class TestSimulatedPopulation:
    def test_draw_range_and_determinism(self):
        p = DiscreteDistribution(np.array([0.2, 0.5, 0.3]))
        a = SimulatedPopulation.draw(p, 500, 7)
        b = SimulatedPopulation.draw(p, 500, 7)
        assert np.array_equal(a.samples, b.samples)
        assert a.samples.min() >= 1 and a.samples.max() <= 3

    def test_rejects_out_of_range(self):
        p = DiscreteDistribution(np.array([0.5, 0.5]))
        with pytest.raises(InvariantError):
            SimulatedPopulation(p, np.array([1, 3]))

    def test_constructor_copies_without_freezing_caller_array(self):
        p = DiscreteDistribution(np.array([0.5, 0.5]))
        given = np.array([1, 2, 1], dtype=np.int64)
        pop = SimulatedPopulation(p, given)
        assert given.flags.writeable and not pop.samples.flags.writeable
        assert not np.shares_memory(given, pop.samples)
        given[0] = 2
        assert pop.samples[0] == 1

    def test_draw_rejects_negative_count(self):
        with pytest.raises(ConfigError):
            SimulatedPopulation.draw(DiscreteDistribution(np.array([0.5, 0.5])), -1, 0)

    @pytest.mark.parametrize("seed", [np.random.default_rng(0), np.random.PCG64(0), 2.5, True, "0"])
    def test_draw_rejects_generator_and_non_seed(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            SimulatedPopulation.draw(DiscreteDistribution(np.array([0.5, 0.5])), 10, seed)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
    def test_draw_rejects_non_integer_count(self, n):
        with pytest.raises(ConfigError, match="integer"):
            SimulatedPopulation.draw(DiscreteDistribution(np.array([0.5, 0.5])), n, 0)

    @pytest.mark.parametrize("samples", [[1.7, 2.9], [1.0, 2.0], [True, True]])
    def test_rejects_non_integer_samples(self, samples):
        with pytest.raises(InvariantError, match="integers"):
            SimulatedPopulation(DiscreteDistribution(np.array([0.5, 0.5])), samples)

    def test_accepts_empty_and_unsigned_samples(self):
        p = DiscreteDistribution(np.array([0.5, 0.5]))
        assert SimulatedPopulation(p, []).user_count == 0
        assert SimulatedPopulation(p, np.array([2, 1], dtype=np.uint8)).samples.tolist() == [2, 1]

    def test_drawn_samples_are_read_only(self):
        pop = SimulatedPopulation.draw(DiscreteDistribution(np.array([0.5, 0.5])), 10, 0)
        assert pop.samples.dtype == np.int64 and not pop.samples.flags.writeable

    @pytest.mark.parametrize("seed", [5, np.random.SeedSequence(5)], ids=["int", "seed-sequence"])
    def test_seeded_draw_equals_choice(self, seed):
        p = DiscreteDistribution(np.array([0.2, 0.5, 0.3]))
        pop = SimulatedPopulation.draw(p, 1000, seed)
        assert pop.user_count == 1000
        expected = np.random.default_rng(5).choice(3, size=1000, p=p.probs) + 1
        assert np.array_equal(pop.samples, expected)
        assert pop.samples.dtype == np.int64 and not pop.samples.flags.writeable
        assert pop.samples is pop.samples  # built once

    def test_seeded_draw_without_seed_is_fixed(self):
        pop = SimulatedPopulation.draw(DiscreteDistribution(np.array([0.5, 0.5])), 200, None)
        queries = [[1, -1]]
        first = estimate_queries(pop, queries, 0.5, 1).estimates
        assert np.array_equal(estimate_queries(pop, queries, 0.5, 1).estimates, first)


BIT_IDENTITY_CASES = [
    *(pytest.param(random_hypothesis_set(4, 16, seed=31, model=model).hypotheses[1], id=model)
      for model in GENERATOR_MODELS),
    pytest.param(DiscreteDistribution(np.array([0.0, 0.25, 0.0, 0.0, 0.75, 0.0])), id="zero-mass"),
    pytest.param(DiscreteDistribution.point_mass(3, 5), id="point-mass"),
    pytest.param(DiscreteDistribution.renormalized(np.r_[np.full(40, 1e-9), 1.0, np.full(40, 1e-9)]),
                 id="clustered"),
]


class TestBitIdentityWithOneShotReference:
    """Seeded draw and protocol against the one-shot formulas written out here."""

    @staticmethod
    def reference(dist, n, queries, epsilon, rng):
        samples = rng.choice(dist.domain_size, size=n, p=dist.probs) + 1
        draw_state = rng.bit_generator.state
        m = len(queries)
        block = n // m
        used = block * m
        tests = np.array(queries, dtype=np.int8)
        query_index = np.arange(used) // block
        messages = randomized_response(tests[query_index, samples[:used] - 1], epsilon, rng)
        c = correction_factor(epsilon)
        sums = messages.astype(np.float64).reshape(m, block).sum(axis=1)
        estimates = c * sums / block
        return samples, draw_state, query_index, messages, estimates

    @pytest.mark.parametrize("dist", BIT_IDENTITY_CASES)
    @pytest.mark.parametrize("seed", [5, np.random.SeedSequence(5)], ids=["int", "seed-sequence"])
    @pytest.mark.parametrize("n,m", [(65535, 1), (65537, 1), (65537, 3), (131077, 7), (50, 50)])
    def test_seeded_draw_and_protocol_match(self, dist, seed, n, m):
        qrng = np.random.default_rng(77)
        queries = [qrng.choice([-1, 1], size=dist.domain_size) for _ in range(m)]
        eps = 0.7
        samples, draw_state, query_index, messages, estimates = self.reference(
            dist, n, queries, eps, np.random.default_rng(5))
        pop = SimulatedPopulation.draw(dist, n, seed)
        rng = np.random.default_rng(0)
        rng.bit_generator.state = draw_state  # the protocol continues the reference's stream
        transcript, est = run_protocol(pop, queries, eps, rng)
        assert np.array_equal(pop.samples, samples)
        assert transcript.query_index.dtype == query_index.dtype
        assert np.array_equal(transcript.query_index, query_index)
        assert transcript.messages.dtype == messages.dtype
        assert np.array_equal(transcript.messages, messages)
        assert est.estimates.dtype == estimates.dtype
        assert est.estimates.tolist() == estimates.tolist()

    @pytest.mark.parametrize("dist", BIT_IDENTITY_CASES)
    def test_empty_draw(self, dist):
        ref = np.random.default_rng(9)
        expected = ref.choice(dist.domain_size, size=0, p=dist.probs) + 1
        rng = np.random.default_rng(9)
        pop = SimulatedPopulation.draw(dist, 0, 9)
        assert pop.user_count == 0 and pop.samples.dtype == expected.dtype
        assert rng.bit_generator.state == ref.bit_generator.state


class TestRunProtocol:
    def test_point_mass_near_noiseless(self):
        d = 4
        p = DiscreteDistribution.point_mass(2, d)
        t = [-1, 1, -1, -1]
        pop = SimulatedPopulation.draw(p, 1000, 5)
        eps = 20.0
        _, est = run_protocol(pop, [t], eps, np.random.default_rng(6))
        assert 0.99 <= est.estimates[0] <= 1.01

    def test_constant_query_unbiased(self):
        d = 5
        rng = np.random.default_rng(8)
        p = DiscreteDistribution(rng.dirichlet(np.ones(d)))
        t = np.ones(d, dtype=int)
        eps = 1.0
        values = []
        for r in range(60):
            pop = SimulatedPopulation.draw(p, 400, 100 + r)
            _, est = run_protocol(pop, [t], eps, np.random.default_rng(200 + r))
            values.append(est.estimates[0])
        values = np.array(values)
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - 1.0) <= 3 * se + 1e-9

    def test_symmetric_query_near_zero(self):
        p = DiscreteDistribution(np.array([0.5, 0.5]))
        t = [1, -1]
        pop = SimulatedPopulation.draw(p, 100_000, 9)
        eps = 1.0
        _, est = run_protocol(pop, [t], eps, np.random.default_rng(10))
        assert abs(est.estimates[0]) < 0.05

    def test_insufficient_users(self):
        p = DiscreteDistribution(np.array([0.5, 0.5]))
        pop = SimulatedPopulation.draw(p, 3, 1)
        queries = [[1, -1]] * 4
        eps = 0.5
        with pytest.raises(InsufficientSamplesError) as exc:
            run_protocol(pop, queries, eps, np.random.default_rng(0))
        assert exc.value.required == 4

    def test_query_domain_mismatch(self):
        p = DiscreteDistribution(np.array([0.5, 0.5]))
        pop = SimulatedPopulation.draw(p, 10, 1)
        eps = 0.5
        with pytest.raises(DimensionError):
            run_protocol(pop, [[1, 1, -1]], eps, np.random.default_rng(0))

    def test_blocks_partition_evenly_and_surplus_dropped(self):
        p = DiscreteDistribution(np.array([0.5, 0.5]))
        pop = SimulatedPopulation.draw(p, 107, 2)
        queries = [[1, -1], [-1, 1]]
        eps = 0.5
        transcript, est = run_protocol(pop, queries, eps, np.random.default_rng(11))
        assert transcript.block_size == 53
        assert transcript.user_count == 106
        counts = np.bincount(transcript.query_index)
        assert np.array_equal(counts, [53, 53])

    def test_estimates_within_corrected_range(self):
        p = DiscreteDistribution(np.array([0.9, 0.1]))
        pop = SimulatedPopulation.draw(p, 50, 3)
        eps = 0.2
        _, est = run_protocol(pop, [[1, -1]], eps, np.random.default_rng(12))
        c = correction_factor(0.2)
        assert abs(est.estimates[0]) <= c + 1e-12


PROTOCOL_PATHS = [
    pytest.param(lambda pop, q, eps, rng: run_protocol(pop, q, eps, rng)[1], id="per-user"),
    pytest.param(estimate_queries, id="aggregate"),
]


def positive_messages(est, block, eps):
    """The number of +1 messages behind each block's corrected mean."""
    c = correction_factor(eps)
    return np.rint((est.estimates * block / c + block) / 2).astype(np.int64)


def binomial_pmf(n, p):
    return np.array([math.comb(n, x) * p ** x * (1 - p) ** (n - x) for x in range(n + 1)])


def chi_square(observed, pmf):
    expected = observed.sum() * pmf
    return float(((observed - expected) ** 2 / expected).sum())


class TestEstimateQueries:
    @pytest.mark.parametrize("form", ["samples", "seeded"])
    def test_repeats_exactly(self, form):
        p = DiscreteDistribution(np.array([0.2, 0.5, 0.3]))
        pop = SimulatedPopulation.draw(p, 107, 3)
        if form == "samples":
            pop = SimulatedPopulation(p, pop.samples)
        queries = [[1, -1, 1], [-1, 1, 1]]
        a = estimate_queries(pop, queries, 0.5, np.random.default_rng(4))
        b = estimate_queries(pop, queries, 0.5, np.random.default_rng(4))
        assert a.block_size == b.block_size == 53  # surplus dropped as in run_protocol
        assert a.estimates.dtype == np.float64
        assert a.estimates.tolist() == b.estimates.tolist()

    @pytest.mark.parametrize("form", ["samples", "seeded"])
    def test_point_mass_extremes(self, form):
        # every user holds point 2, so each block's count h is exact in both forms
        p = DiscreteDistribution.point_mass(2, 3)
        pop = SimulatedPopulation.draw(p, 1000, 5)
        if form == "samples":
            pop = SimulatedPopulation(p, pop.samples)
        queries = [[-1, 1, -1], [1, -1, 1]]
        est = estimate_queries(pop, queries, 20.0, np.random.default_rng(6))
        assert 0.99 <= est.estimates[0] <= 1.01 and -1.01 <= est.estimates[1] <= -0.99

    @pytest.mark.parametrize("run", PROTOCOL_PATHS)
    @pytest.mark.parametrize("users, queries, error", [
        (10, [], ConfigError),
        (3, [[1, -1]] * 4, InsufficientSamplesError),
        (10, [[1, 1, -1]], DimensionError),
        (10, np.empty((0, 2)), ConfigError),
        (10, np.array([1, -1]), DimensionError),
        (10, [[1, -1], [1]], DimensionError),
        (10, np.array([[1, -1], [1, 0]]), InvariantError),
        (10, np.array([[1, -1], [2, -1]]), InvariantError),
        (10, np.array([[1.0, -1.0], [1.0, np.nan]]), InvariantError),
    ], ids=["no-queries", "too-few-users", "domain-mismatch", "no-rows", "one-dimensional",
            "ragged", "zero-entry", "two-entry", "nan-entry"])
    def test_input_errors(self, run, users, queries, error):
        pop = SimulatedPopulation.draw(DiscreteDistribution(np.array([0.5, 0.5])), users, 1)
        with pytest.raises(error) as exc:
            run(pop, queries, 0.5, np.random.default_rng(0))
        if error is InsufficientSamplesError:
            assert exc.value.required == 4


class TestQueryMatrix:
    """An (m, d) ±1 array and the same rows as a list of lists give the same bits."""

    @pytest.mark.parametrize("form", ["samples", "seeded"])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
    def test_raw_matrix_matches_list_of_lists(self, form, dtype):
        p = random_hypothesis_set(2, 16, seed=3).hypotheses[0]
        pop = SimulatedPopulation.draw(p, 1001, 4)
        if form == "samples":
            pop = SimulatedPopulation(p, pop.samples)
        rows = np.random.default_rng(5).choice([-1, 1], size=(7, 16))
        lists = rows.tolist()
        matrix = rows.astype(dtype)
        t1, e1 = run_protocol(pop, lists, 0.7, np.random.default_rng(6))
        t2, e2 = run_protocol(pop, matrix, 0.7, np.random.default_rng(6))
        assert t1.messages.dtype == t2.messages.dtype == np.int8
        assert np.array_equal(t1.messages, t2.messages)
        assert t1.block_size == t2.block_size and t1.num_queries == t2.num_queries == 7
        assert e1.estimates.tolist() == e2.estimates.tolist()
        a1 = estimate_queries(pop, lists, 0.7, np.random.default_rng(7))
        a2 = estimate_queries(pop, matrix, 0.7, np.random.default_rng(7))
        assert a1.estimates.tolist() == a2.estimates.tolist()


class TestExactLaw:
    """Both paths against the exact law of a block's +1 messages.

    Chi-square critical values are the 0.999 quantiles (df 4: 18.467, df 6:
    22.458); means and variances must sit within 4 standard errors.
    """

    RUNS = 20_000
    EPS = 1.0
    P = DiscreteDistribution(np.array([0.2, 0.5, 0.3]))
    QUERIES = np.array([[1, -1, -1], [1, 1, -1]])

    def pi(self, t):
        keep = keep_probability(self.EPS)
        plus = float(self.P.probs[t > 0].sum())
        return keep * plus + (1 - keep) * (1 - plus)

    @pytest.mark.parametrize("run", PROTOCOL_PATHS)
    def test_drawn_population_block_law(self, run):
        block = 4
        counts = np.empty((self.RUNS, 2), dtype=np.int64)
        estimates = np.empty((self.RUNS, 2))
        for r in range(self.RUNS):
            pop = SimulatedPopulation.draw(self.P, 2 * block + 1, np.random.SeedSequence([71, r]))
            est = run(pop, self.QUERIES, self.EPS, np.random.default_rng([72, r]))
            assert est.block_size == block
            counts[r] = positive_messages(est, block, self.EPS)
            estimates[r] = est.estimates
        c = correction_factor(self.EPS)
        for i, t in enumerate(self.QUERIES):
            pi = self.pi(t)
            observed = np.bincount(counts[:, i], minlength=block + 1)
            assert chi_square(observed, binomial_pmf(block, pi)) < 18.467
            self.check_moments(estimates[:, i], float(self.P.probs @ t), pi, block, c)

    @pytest.mark.parametrize("run", PROTOCOL_PATHS)
    def test_fixed_samples_block_law(self, run):
        # block 1 holds three users where T_1 = +1, block 2 four where T_2 = +1
        pop = SimulatedPopulation(self.P, np.array([1, 2, 3, 1, 1, 2, 3, 3, 2, 1, 2, 2]))
        block, keep = 6, keep_probability(self.EPS)
        counts = np.empty((self.RUNS, 2), dtype=np.int64)
        for r in range(self.RUNS):
            est = run(pop, self.QUERIES, self.EPS, np.random.default_rng([73, r]))
            counts[r] = positive_messages(est, block, self.EPS)
        for i, h in enumerate((3, 4)):
            pmf = np.convolve(binomial_pmf(h, keep), binomial_pmf(block - h, 1 - keep))
            observed = np.bincount(counts[:, i], minlength=block + 1)
            assert chi_square(observed, pmf) < 22.458

    def test_large_drawn_population_moments(self):
        block = 1_000_000
        pop_seeds = np.random.SeedSequence(74).spawn(self.RUNS)
        estimates = np.array([
            estimate_queries(SimulatedPopulation.draw(self.P, 2 * block, s), self.QUERIES, self.EPS,
                             np.random.default_rng([75, r])).estimates
            for r, s in enumerate(pop_seeds)
        ])
        c = correction_factor(self.EPS)
        for i, t in enumerate(self.QUERIES):
            self.check_moments(estimates[:, i], float(self.P.probs @ t), self.pi(t), block, c)

    def check_moments(self, values, mean, pi, block, c):
        """Sample mean and variance of c (2 Binomial(block, pi) - block) / block draws."""
        pq = pi * (1 - pi)
        var = c * c * (1 - (2 * pi - 1) ** 2) / block
        # fourth central moment of the estimate, from that of the binomial
        mu4 = (2 * c / block) ** 4 * block * pq * (1 + 3 * (block - 2) * pq)
        runs = values.size
        assert abs(values.mean() - mean) <= 4 * math.sqrt(var / runs)
        assert abs(values.var(ddof=1) - var) <= 4 * math.sqrt((mu4 - var * var) / runs)


class TestNonInteractivityAndPrivacyStructure:
    def test_assignment_ignores_randomness(self):
        p = DiscreteDistribution(np.array([0.3, 0.7]))
        pop = SimulatedPopulation.draw(p, 90, 4)
        queries = [[1, -1], [-1, 1], [1, 1]]
        eps = 0.4
        t1, _ = run_protocol(pop, queries, eps, np.random.default_rng(1))
        t2, _ = run_protocol(pop, queries, eps, np.random.default_rng(999))
        assert np.array_equal(t1.query_index, t2.query_index)

    def test_one_user_change_touches_one_message(self):
        d = 3
        p = DiscreteDistribution(np.array([0.2, 0.3, 0.5]))
        pop = SimulatedPopulation.draw(p, 60, 5)
        # move user 17 to a sample with the opposite query value
        t = np.array([1, -1, 1])
        samples2 = pop.samples.copy()
        samples2[17] = 2 if t[pop.samples[17] - 1] == 1 else 1
        pop2 = SimulatedPopulation(p, samples2)
        eps = 0.6
        m1, _ = run_protocol(pop, [t], eps, np.random.default_rng(21))
        m2, _ = run_protocol(pop2, [t], eps, np.random.default_rng(21))
        changed = np.flatnonzero(m1.messages != m2.messages)
        assert np.array_equal(changed, [17])

    def test_transcript_schema(self):
        p = DiscreteDistribution(np.array([0.5, 0.5]))
        pop = SimulatedPopulation.draw(p, 40, 6)
        queries = [[1, -1], [-1, 1]]
        eps = 0.3
        transcript, _ = run_protocol(pop, queries, eps, np.random.default_rng(13))
        transcript.validate()
        assert set(np.unique(transcript.messages)) <= {-1, 1}
        assert np.array_equal(transcript.query_index,
                              np.arange(transcript.user_count) // transcript.block_size)

    def test_validate_rejects_broken_transcript(self):
        with pytest.raises(InvariantError):
            LdpTranscript(
                messages=np.array([1, 0], dtype=np.int8),
                block_size=2,
                num_queries=1,
            ).validate()

    @pytest.mark.parametrize("bad", [0, 2, -128])
    def test_validate_rejects_bad_bit_past_first_chunk(self, bad):
        messages = np.ones(131075, dtype=np.int8)
        messages[65541] = bad
        with pytest.raises(InvariantError, match="single bits"):
            LdpTranscript(messages=messages, block_size=messages.size, num_queries=1).validate()

    @pytest.mark.parametrize("shape, block_size, num_queries, match", [
        ((2, 2), 2, 2, "one-dimensional"),
        ((5,), 3, 2, "full equal blocks"),  # one user short
        ((7,), 3, 2, "full equal blocks"),  # a surplus user kept
        ((3,), 3, 0, "full equal blocks"),  # messages with no query to answer
    ])
    def test_validate_rejects_layout(self, shape, block_size, num_queries, match):
        messages = np.ones(shape, dtype=np.int8)
        with pytest.raises(InvariantError, match=match):
            LdpTranscript(messages=messages, block_size=block_size,
                          num_queries=num_queries).validate()

    def test_validate_accepts_empty_transcript(self):
        LdpTranscript(messages=np.empty(0, dtype=np.int8), block_size=0, num_queries=0).validate()


class TestQueryEstimates:
    def test_estimates_range_validated(self):
        with pytest.raises(InvariantError):
            QueryEstimates(estimates=[100.0], block_size=5, epsilon=0.5)
        with pytest.raises(InvariantError):
            QueryEstimates(estimates=[float("nan")], block_size=5, epsilon=0.5)
        with pytest.raises(InvariantError):
            QueryEstimates(estimates=[[0.1]], block_size=5, epsilon=0.5)

    def test_estimates_vector_read_only(self):
        given = np.array([0.25, -0.5])
        est = QueryEstimates(estimates=given, block_size=10, epsilon=0.5)
        assert est.estimates.dtype == np.float64 and not est.estimates.flags.writeable
        assert given.flags.writeable

    @pytest.mark.parametrize("fields, error, match", [
        ({"block_size": 0}, InvariantError, "block_size"),
        ({"block_size": -3}, InvariantError, "block_size"),
        ({"epsilon": 0.0}, ConfigError, "epsilon"),
        ({"epsilon": float("nan")}, ConfigError, "epsilon"),
        ({"estimates": [0.1, float("inf")]}, InvariantError, "query 1"),
        ({"estimates": [0.1, -0.2, -50.0]}, InvariantError, "query 2"),
        ({"estimates": 0.1}, InvariantError, "one-dimensional"),
    ])
    def test_rejects_field(self, fields, error, match):
        kwargs = {"estimates": [0.25, -0.5], "block_size": 10, "epsilon": 0.5, **fields}
        with pytest.raises(error, match=match):
            QueryEstimates(**kwargs)

    def test_accepts_corrected_range_ends(self):
        c = correction_factor(0.5)
        est = QueryEstimates(estimates=[c, -c, 0.0], block_size=1, epsilon=0.5)
        assert est.estimates.tolist() == [c, -c, 0.0]
