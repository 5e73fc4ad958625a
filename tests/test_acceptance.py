"""Acceptance suite: one test per numbered criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion with the measured quantities.  Runtime ceilings are generous
for this implementation but asserted anyway; they are machine-relative.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ldpselect import (
    DiscreteDistribution,
    HypothesisSet,
    SelectionConfig,
    SelectionPlan,
    SimulatedPopulation,
    build_flattening_family,
    build_lower_bound_graph,
    build_scheffe_graph,
    check_metric_triple,
    count_low_indegree,
    find_dominating_set,
    l1_distance,
    mixture,
    query_family_from_dominating_set,
    random_hypothesis_set,
    required_block_size,
    rmde_select,
    run_protocol,
    select_hypothesis,
    scan_triangles,
    verify_domination,
    verify_domination_lower_bound,
    verify_flattening_violation,
)
from ldpselect.barriers import frobenius_identities, random_flat_map
from ldpselect.protocol import channel_privacy_ratio, randomized_response
from ldpselect.rmde import full_scheffe_family
from ldpselect.scheffe_graph import pair_count

PHI = 1.0 / 6.0
MODELS = ("dirichlet-uniform", "sparse", "point-mass-mixture")


def report(cid: str, detail: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {cid} PASS: {detail} [{elapsed:.1f}s < {limit:.0f}s]")
    assert elapsed < limit


@pytest.fixture(scope="module")
def small_corpus():
    """200 random hypothesis sets with k <= 12, each with its phi=1/6 graph."""
    corpus = []
    dims = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48)
    for i in range(200):
        k = 3 + (i % 10)
        d = dims[(i * 7) % len(dims)]
        model = MODELS[i % 3]
        Q = random_hypothesis_set(k, d, seed=10_000 + i, model=model)
        corpus.append((Q, build_scheffe_graph(Q, PHI)))
    return corpus


def test_c1_scheffe_identity_and_supremum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        d = int(rng.integers(2, 257))
        q = DiscreteDistribution(rng.dirichlet(np.ones(d)))
        q2 = DiscreteDistribution(rng.dirichlet(np.ones(d)))
        delta = q.probs - q2.probs
        signs = np.where(delta >= 0, 1.0, -1.0)
        worst = max(worst, abs(float(delta @ signs) - float(np.abs(delta).sum())))
    assert worst <= 1e-9

    sup_gap = 0.0
    for d in range(2, 13):
        all_signs = ((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1) * 2 - 1
        for _ in range(3):
            q = DiscreteDistribution(rng.dirichlet(np.ones(d)))
            q2 = DiscreteDistribution(rng.dirichlet(np.ones(d)))
            delta = q.probs - q2.probs
            sup = float(np.abs(all_signs @ delta).max())
            dist = l1_distance(q, q2)
            assert sup <= dist + 1e-12
            sup_gap = max(sup_gap, abs(sup - dist))
    assert sup_gap <= 1e-9
    report("C1", f"identity dev {worst:.2e}, exhaustive sup gap {sup_gap:.2e}", t0, 60)


def test_c2_triangular_substructure(small_corpus):
    t0 = time.perf_counter()
    violations = 0
    triples = 0
    for _, G in small_corpus:
        scan = scan_triangles(G)
        violations += scan.violations
        triples += scan.triples
    assert violations == 0
    report("C2", f"{triples} triples over {len(small_corpus)} graphs, 0 violations", t0, 120)


def test_c3_low_indegree_bound(small_corpus):
    t0 = time.perf_counter()
    checks = 0
    for _, G in small_corpus:
        k = G.k
        for r in (1.0, 2.0, 4.0, 8.0, math.sqrt(k * math.log2(k))):
            assert count_low_indegree(G, r) <= 3 * k * r
            checks += 1
    report("C3", f"{checks} (graph, r) checks, 0 exceptions", t0, 120)


def test_c4_dominating_set_bound():
    t0 = time.perf_counter()
    attempts = []
    sizes = {}
    for k in (16, 32, 64):
        bound = min(4 * k ** 1.5 * math.sqrt(math.log2(k)), pair_count(k))
        for s in range(20):
            Q = random_hypothesis_set(k, 32, seed=777 + 1000 * k + s)
            G = build_scheffe_graph(Q, PHI)
            cert = find_dominating_set(G, Q, seed=s)
            assert verify_domination(G, cert.dominating_set)
            assert len(cert.dominating_set) <= bound
            attempts.append(cert.attempts)
            sizes.setdefault(k, []).append(len(cert.dominating_set))
    mean_attempts = float(np.mean(attempts))
    assert mean_attempts <= 2.0
    detail = ", ".join(f"k={k}: max|D|={max(v)}" for k, v in sizes.items())
    report("C4", f"{detail}, mean attempts {mean_attempts:.2f}", t0, 300)


def test_c5_randomized_response_channel():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst_ratio_err = 0.0
    worst_rate_err = 0.0
    for eps in (0.1, 0.5, 1.0):
        ratio = channel_privacy_ratio(eps)
        worst_ratio_err = max(worst_ratio_err, abs(ratio - math.exp(eps)))
        bits = np.ones(1_000_000, dtype=np.int8)
        out = randomized_response(bits, eps, rng)
        keep = float((out == 1).mean())
        target = math.exp(eps) / (math.exp(eps) + 1)
        worst_rate_err = max(worst_rate_err, abs(keep - target))
    assert worst_ratio_err < 1e-12
    assert worst_rate_err < 0.002
    report("C5", f"ratio dev {worst_ratio_err:.1e}, keep-rate dev {worst_rate_err:.5f}", t0, 60)


def test_c6_query_estimation_concentration():
    t0 = time.perf_counter()
    num_queries, alpha, beta, eps = 20, 0.1, 0.05, 1.0
    block = required_block_size(num_queries, alpha, beta, eps)
    assert block == 6261
    rng = np.random.default_rng(66)
    d = 12
    p = DiscreteDistribution(rng.dirichlet(np.ones(d)))
    queries = [rng.choice([-1, 1], size=d) for _ in range(num_queries)]
    truth = np.array([p.probs @ t for t in queries])
    runs, failures = 400, 0
    for r in range(runs):
        pop = SimulatedPopulation.draw(p, block * num_queries, 3000 + r)
        _, est = run_protocol(pop, queries, eps, np.random.default_rng(9000 + r))
        values = est.estimates
        if float(np.abs(values - truth).max()) > alpha:
            failures += 1
    rate = failures / runs
    assert rate <= 0.08  # beta = 0.05 plus binomial slack at 99% confidence
    report("C6", f"block {block}, failure rate {rate:.4f} over {runs} runs", t0, 300)


def test_c7_end_to_end_guarantee():
    t0 = time.perf_counter()
    k, d = 8, 16
    config = SelectionConfig(alpha=0.5, beta=0.1, epsilon=1.0, phi=PHI, seed=0)
    Q = random_hypothesis_set(k, d, seed=20_250_101)
    plan = SelectionPlan.build(Q, config)
    n0 = plan.users_required
    factor = config.approximation_factor
    assert factor == pytest.approx(13.0)

    uniform = DiscreteDistribution.uniform(d)
    populations = {
        "p in Q": (1, Q.hypotheses[2]),
        "p not in Q": (2, mixture([Q.hypotheses[2], uniform], [0.95, 0.05])),
    }
    trials = 400
    rates = {}
    for label, (tag, p) in populations.items():
        opt = min(l1_distance(q, p) for q in Q.hypotheses)
        bound = factor * opt + config.alpha
        successes = 0
        for trial in range(trials):
            pop_seed, sel_seed = np.random.SeedSequence([tag, trial]).spawn(2)
            pop = SimulatedPopulation.draw(p, n0, pop_seed)
            rep = plan.run(pop, np.random.default_rng(sel_seed))
            err = l1_distance(Q.hypotheses[rep.selected_index - 1], p)
            if err <= bound + 1e-12:
                successes += 1
        rates[label] = successes / trials
        assert successes >= math.ceil(0.87 * trials), f"{label}: only {successes}/{trials}"
    detail = ", ".join(f"{k2}: {v:.3f}" for k2, v in rates.items())
    report("C7", f"success rates {detail} (floor 0.87, n0={n0})", t0, 900)


def test_c8_rmde_deterministic_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    etas = (0.0, 0.01, 0.1)
    checked = 0
    for instance in range(1000):
        eta = etas[instance % 3]
        k = int(rng.integers(2, 7))
        d = int(rng.integers(2, 9))
        Q = random_hypothesis_set(k, d, seed=int(rng.integers(1 << 30)),
                                  model=MODELS[instance % 3])
        p = DiscreteDistribution(rng.dirichlet(np.ones(d)))
        G = build_scheffe_graph(Q, PHI)
        cert = find_dominating_set(G, Q, seed=instance)
        for fam in (query_family_from_dominating_set(Q, cert, PHI, graph=G),
                    full_scheffe_family(Q)):
            from ldpselect import QueryEstimates

            tests = fam.signs
            values = [
                float(p.probs @ t) + eta * float(rng.choice([-1.0, 1.0])) for t in tests
            ]
            est = QueryEstimates(estimates=values, block_size=1, epsilon=0.5)
            rep = rmde_select(Q, fam, est)
            q_hat = Q.hypotheses[rep.selected_index - 1]
            opt = min(l1_distance(q, p) for q in Q.hypotheses)
            sup_err = max(abs(float(p.probs @ t) - values[i]) for i, t in enumerate(tests))
            lhs = l1_distance(q_hat, p)
            rhs = (1 + 2 / fam.phi) * opt + (2 / fam.phi) * sup_err
            assert lhs <= rhs + 1e-9, f"instance {instance}: {lhs} > {rhs}"
            checked += 1
    report("C8", f"{checked} (instance, family) inequalities, 0 exceptions", t0, 120)


def test_c9_lower_bound_certificate():
    t0 = time.perf_counter()
    k = 64
    floor = k ** 1.5 / (8 * math.sqrt(math.log2(k)))
    assert floor >= 26
    cert = build_lower_bound_graph(k, seed=909)
    recomputed = verify_domination_lower_bound(cert)
    assert recomputed >= cert.implied_lower_bound >= floor
    dom = find_dominating_set(cert.graph, seed=910)
    assert verify_domination(cert.graph, dom.dominating_set)
    assert len(dom.dominating_set) >= recomputed
    report(
        "C9",
        f"k=64 certified >= {recomputed:.1f} (floor {floor:.1f}), heuristic |D|={len(dom.dominating_set)}",
        t0,
        180,
    )


def test_c10_flattening_falsification():
    t0 = time.perf_counter()
    alpha = 0.99
    worst_ratio = 0.0
    max_frob_dev = 0.0
    for n in (16, 32, 64):
        fam = build_flattening_family(n)
        rng = np.random.default_rng(1000 + n)
        bound = 2.0 / math.sqrt(n)
        for _ in range(1000):
            phi_map = random_flat_map(n, n, alpha, rng)
            _, value = verify_flattening_violation(phi_map, fam, alpha)
            assert value <= bound  # 100% of trials must collapse
            worst_ratio = max(worst_ratio, value / bound)
            dev = frobenius_identities(phi_map, fam)["identity_deviation"]
            max_frob_dev = max(max_frob_dev, dev)
    assert max_frob_dev <= 1e-9
    report(
        "C10",
        f"3000 flat maps, worst distance/bound {worst_ratio:.3f}, frobenius dev {max_frob_dev:.1e}",
        t0,
        180,
    )


def test_c11_privacy_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)
    runs = 0
    for d, num_queries, eps in ((2, 1, 0.5), (6, 4, 0.3), (10, 7, 1.0)):
        p = DiscreteDistribution(rng.dirichlet(np.ones(d)))
        queries = [rng.choice([-1, 1], size=d) for _ in range(num_queries)]
        pop = SimulatedPopulation.draw(p, 35 * num_queries + 3, int(rng.integers(2**63)))
        transcript, _ = run_protocol(pop, queries, eps, rng)
        transcript.validate()
        # one bit per participating user, nothing else per-user in the record
        assert transcript.messages.shape == transcript.query_index.shape
        assert set(np.unique(transcript.messages)) <= {-1, 1}
        # assignment is a pure function of the user index and |T|
        assert np.array_equal(
            transcript.query_index,
            np.arange(transcript.user_count) // transcript.block_size,
        )
        # a single user's sample influences only that user's message
        flip_user = transcript.user_count // 2
        samples2 = pop.samples.copy()
        samples2[flip_user] = 1 + (samples2[flip_user] % d)
        pop2 = SimulatedPopulation(p, samples2)
        t1, _ = run_protocol(pop, queries, eps, np.random.default_rng(42))
        t2, _ = run_protocol(pop2, queries, eps, np.random.default_rng(42))
        changed = np.flatnonzero(t1.messages != t2.messages)
        assert set(changed.tolist()) <= {flip_user}
        runs += 1
    report("C11", f"{runs} protocol shapes schema-checked", t0, 60)


def test_c12_small_sample_plan_guarantee():
    """Selections at k = 32 whose plans keep their first sample of 32 pairs still meet 13 OPT + alpha
    with probability at least 1 - beta.  Three p per model: the mixture of C7, a point mass off Q,
    and the midpoint of Q's closest pair.  Each (model, p) runs 200 one-shot selections, each with
    its own config seed and so its own plan; the misses are held to a one-sided binomial test
    against beta = 0.1, failing at p < 1e-3.  Seeds and threshold were fixed before the first run."""
    t0 = time.perf_counter()
    k, d, trials, threshold = 32, 64, 200, 1e-3
    config = SelectionConfig(alpha=0.5, beta=0.1, epsilon=1.0, phi=PHI)
    users = SelectionPlan.build(random_hypothesis_set(k, d, seed=0), config).users_required
    factor = config.approximation_factor
    worst = 1.0
    misses, small = {}, 0
    for m, model in enumerate(MODELS):
        Q = random_hypothesis_set(k, d, seed=1200 + m, model=model)
        P = Q.probs_matrix
        gaps = np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2) + np.diag(np.full(k, np.inf))
        a, b = np.unravel_index(np.argmin(gaps), gaps.shape)
        populations = {
            "mixture": mixture([Q.hypotheses[2], DiscreteDistribution.uniform(d)], [0.95, 0.05]),
            "point-mass": DiscreteDistribution.point_mass(d, d),
            "midpoint": mixture([Q.hypotheses[a], Q.hypotheses[b]], [0.5, 0.5]),
        }
        for tag, (label, p) in enumerate(populations.items()):
            bound = factor * min(l1_distance(q, p) for q in Q.hypotheses) + config.alpha
            missed = 0
            for trial in range(trials):
                pop = SimulatedPopulation.draw(p, users, np.random.SeedSequence([1200 + m, tag, trial]))
                rep = select_hypothesis(Q, pop, replace(config, seed=trial))
                missed += l1_distance(Q.hypotheses[rep.selected_index - 1], p) > bound + 1e-12
                small += len(rep.certificate.random_ids) == 32
            misses[f"{model}/{label}"] = missed
            # P(X >= missed) for X ~ Binomial(trials, beta)
            tail = sum(math.comb(trials, x) * config.beta ** x * (1 - config.beta) ** (trials - x)
                       for x in range(missed, trials + 1))
            worst = min(worst, tail)
            assert tail >= threshold, (model, label, missed)
    assert small == len(MODELS) * len(populations) * trials  # every plan kept its first sample
    report("C12", f"misses {misses} of {trials} each, smallest binomial tail {worst:.3g}", t0, 30)
