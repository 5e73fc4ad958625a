#!/usr/bin/env python3
"""Measured selection error versus the planned sample size.

Runs the full private pipeline at multiples of the planned user count and
reports the achieved l1 error against the (1 + 2/phi) * OPT + alpha ceiling.
Useful for seeing how conservative the plan is in practice: its blocks are
sized by binomial_block_size, a union bound over worst-case binomial tails.

Usage: python scripts/selection_error_sweep.py [--k 8] [--d 16] [--trials 25]
"""

import argparse
import sys
import time

import numpy as np

from ldpselect import (
    DiscreteDistribution,
    SelectionConfig,
    SelectionPlan,
    SimulatedPopulation,
    l1_distance,
    mixture,
    random_hypothesis_set,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--k", type=int, default=8)
    ap.add_argument("--d", type=int, default=16)
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--beta", type=float, default=0.1)
    ap.add_argument("--epsilon", type=float, default=1.0)
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    config = SelectionConfig(alpha=args.alpha, beta=args.beta, epsilon=args.epsilon, seed=args.seed)
    Q = random_hypothesis_set(args.k, args.d, seed=args.seed)
    p = mixture([Q.hypotheses[0], DiscreteDistribution.uniform(args.d)], [0.9, 0.1])
    opt = min(l1_distance(q, p) for q in Q.hypotheses)
    plan = SelectionPlan.build(Q, config)  # one plan, shared by every trial and multiple
    n0 = plan.users_required
    ceiling = config.approximation_factor * opt + config.alpha
    print(f"k={args.k} d={args.d} OPT={opt:.4f} ceiling={ceiling:.4f} planned n0={n0}")
    print(f"{'n/n0':>6} {'mean err':>9} {'max err':>9} {'within':>7} {'sec':>6}")
    # sub-plan budgets are rejected by the pipeline, so the sweep starts at n0
    for mult in (1, 2, 4):
        n = n0 * mult
        errs = []
        t0 = time.perf_counter()
        for t in range(args.trials):
            seq = np.random.SeedSequence([args.seed, mult, t])
            pop_seed, sel_seed = seq.spawn(2)
            pop = SimulatedPopulation.draw(p, n, pop_seed)
            rep = plan.run(pop, np.random.default_rng(sel_seed))
            errs.append(l1_distance(Q.hypotheses[rep.selected_index - 1], p))
        errs = np.array(errs)
        within = float((errs <= ceiling + 1e-12).mean())
        print(
            f"{mult:>6} {errs.mean():>9.4f} {errs.max():>9.4f} {within:>7.2f} "
            f"{time.perf_counter() - t0:>6.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
