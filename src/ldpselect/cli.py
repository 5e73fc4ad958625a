"""Command-line driver: gen, graph, dominate, select, barrier lbgraph/flatten.

Every command is deterministic given --seed; when --seed is omitted a fresh
one is drawn and printed so the run can be reproduced.  Exit codes: 0 on
success, 1 when a verification or invariant fails, 2 for usage and
configuration problems.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import barriers
from .distributions import (
    GENERATOR_MODELS,
    DiscreteDistribution,
    HypothesisSet,
    _json_masses,
    _write_json,
    l1_distance,
    mixture,
    random_hypothesis_set,
)
from .errors import InvariantError, LdpSelectError, ResamplingLimitError
from .protocol import SimulatedPopulation
from .rmde import SelectionConfig, SelectionPlan
from .scheffe_graph import (
    PHI_DEFAULT,
    build_scheffe_graph,
    count_low_indegree,
    domination_bound,
    find_dominating_set,
    graph_to_json_dict,
    scan_triangles,
    verify_domination,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _resolve_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise InvariantError(f"--seed must be non-negative, got {args.seed}")
        return args.seed
    seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0] >> 1)
    print(f"seed: {seed} (drawn; pass --seed {seed} to reproduce)")
    return seed


def _load_hypotheses(path) -> HypothesisSet:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"input file not found: {p}")
    return HypothesisSet.load(p)


def cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    Q = random_hypothesis_set(args.k, args.d, seed=seed, model=args.model)
    Q.save(args.out)
    print(f"gen: k={Q.k} d={Q.domain_size} model={args.model} seed={seed} -> {args.out}")
    return EXIT_OK


def cmd_graph(args) -> int:
    Q = _load_hypotheses(args.in_path)
    G = build_scheffe_graph(Q, args.phi)
    triangles = scan_triangles(G)
    hist = np.bincount(G.in_degrees)
    sweep = []
    for r in (1.0, 2.0, 4.0, 8.0, math.sqrt(G.k * math.log2(G.k))):
        count = count_low_indegree(G, r)
        sweep.append({"r": r, "count": count, "bound": 3 * G.k * r, "ok": count <= 3 * G.k * r})
    doc = graph_to_json_dict(G)
    doc["stats"] = {
        "vertices": G.num_vertices,
        "edge_count": G.edge_count,
        "in_degree_histogram": [int(c) for c in hist],
        "triangle_scan": {
            "triples": triangles.triples,
            "violations": triangles.violations,
            "case_counts": triangles.case_counts,
        },
        "low_indegree_sweep": sweep,
    }
    _write_json(args.out, doc)
    print(
        f"graph: k={G.k} phi={G.phi:.6g} vertices={G.num_vertices} edges={G.edge_count} "
        f"triangle_violations={triangles.violations} -> {args.out}"
    )
    if triangles.violations or not all(row["ok"] for row in sweep):
        print("graph: structural check FAILED", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_dominate(args) -> int:
    seed = _resolve_seed(args)
    Q = _load_hypotheses(args.in_path)
    G = build_scheffe_graph(Q, args.phi)
    cert = find_dominating_set(G, Q, seed=seed)
    ok = verify_domination(G, cert.dominating_set)
    _write_json(args.out, replace(cert, seed=seed).to_json_dict())
    bound = domination_bound(G.k)
    print(
        f"dominate: k={G.k} |D|={len(cert.dominating_set)} bound={bound:.1f} "
        f"attempts={cert.attempts} verified={ok} -> {args.out}"
    )
    if not ok:
        print("dominate: independent domination check FAILED", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _population_distribution(args, Q: HypothesisSet) -> DiscreteDistribution | None:
    if args.p_file:
        probs = json.loads(Path(args.p_file).read_text())
        return DiscreteDistribution(_json_masses(probs, f"--p-file {args.p_file}"))
    if args.p_index is not None:
        if not 1 <= args.p_index <= Q.k:
            raise InvariantError(f"--p-index must lie in 1..{Q.k}")
        base = Q.hypotheses[args.p_index - 1]
        if args.p_mix is not None:
            u = DiscreteDistribution.uniform(Q.domain_size)
            return mixture([base, u], [args.p_mix, 1.0 - args.p_mix])
        return base
    return None


def _load_samples(path) -> np.ndarray:
    """One integer domain point per line; a line that is not one raises InvariantError."""
    try:
        return np.loadtxt(path, dtype=np.int64, ndmin=1)
    except ValueError as exc:
        raise InvariantError(f"samples file {path}: {exc}") from exc


def cmd_select(args) -> int:
    if args.trials < 1:
        raise InvariantError(f"--trials must be at least 1, got {args.trials}")
    if args.p_mix is not None and args.p_index is None:
        raise InvariantError("--p-mix mixes the --p-index hypothesis, so --p-index is required")
    seed = _resolve_seed(args)
    Q = _load_hypotheses(args.in_path)
    config = SelectionConfig(
        alpha=args.alpha, beta=args.beta, epsilon=args.epsilon, phi=args.phi, seed=seed
    )
    if args.samples is not None:
        if args.trials != 1:
            raise InvariantError("--samples fixes the data, so --trials must be 1")
        if args.n is not None:
            raise InvariantError("--samples fixes the users, so --n must not be given")
        p = None
        # Population carrier for externally supplied samples; p itself unknown.
        file_pop = SimulatedPopulation(
            DiscreteDistribution.uniform(Q.domain_size), _load_samples(args.samples)
        )
    else:
        p = _population_distribution(args, Q)
        if p is None:
            raise InvariantError("provide --p-index (optionally --p-mix), --p-file, or --samples")

    t0 = time.perf_counter()
    plan = SelectionPlan.build(Q, config)
    plan_ms = (time.perf_counter() - t0) * 1e3
    n = args.n if args.n is not None else plan.users_required

    factor = config.approximation_factor
    records = []
    failures = 0
    for trial in range(args.trials):
        trial_seed = int(
            np.random.SeedSequence([seed, trial]).generate_state(1, np.uint64)[0] >> 1
        )
        t0 = time.perf_counter()
        pop = file_pop if p is None else SimulatedPopulation.draw(
            p, n, np.random.SeedSequence([trial_seed, 0])
        )
        report = plan.run(pop, np.random.default_rng([trial_seed, 1]))
        wall_ms = (time.perf_counter() - t0) * 1e3
        selected = Q.hypotheses[report.selected_index - 1]
        if p is not None:
            opt = min(l1_distance(q, p) for q in Q.hypotheses)
            err = l1_distance(selected, p)
            bound = factor * opt + config.alpha
            passed = err <= bound + 1e-12
            if not passed:
                failures += 1
        else:
            opt = err = bound = None
            passed = None
        records.append(
            {
                "trial": trial,
                "seed": trial_seed,
                "opt": opt,
                "error": err,
                "bound": bound,
                "passed": passed,
                "users_consumed": report.users_consumed,
                "dominating_set_size": len(plan.certificate.dominating_set),
                "selected_index": report.selected_index,
                "selected_discrepancy": report.selected_discrepancy,
                "wall_ms": wall_ms,
            }
        )
        last_report = report

    doc = {
        "k": Q.k,
        "domain_size": Q.domain_size,
        "alpha": config.alpha,
        "beta": config.beta,
        "epsilon": config.epsilon,
        "phi": config.phi,
        "seed": seed,
        "trials": args.trials,
        "users_planned": plan.users_required,
        "plan_ms": plan_ms,
        "users_available": int(n) if p is not None else None,
        "approximation_factor": factor,
        "failure_rate": (failures / args.trials) if p is not None else None,
        "records": records,
    }
    if p is None:
        doc["selection_report"] = last_report.to_json_dict()
    _write_json(args.out, doc)
    csv_path = Path(args.out).with_suffix(".csv")
    fields = [
        "trial", "seed", "opt", "error", "bound", "passed",
        "users_consumed", "dominating_set_size", "selected_index",
        "selected_discrepancy", "wall_ms",
    ]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(records)
    if p is not None:
        print(
            f"select: trials={args.trials} failure_rate={failures / args.trials:.4f} "
            f"(beta={config.beta}) -> {args.out}, {csv_path}"
        )
    else:
        print(f"select: selected_index={records[0]['selected_index']} -> {args.out}, {csv_path}")
    return EXIT_OK


def cmd_barrier_lbgraph(args) -> int:
    seed = _resolve_seed(args)
    cert = barriers.build_lower_bound_graph(args.k, seed=seed)
    recomputed = barriers.verify_domination_lower_bound(cert)
    doc = cert.to_json_dict()
    doc["recomputed_lower_bound"] = recomputed
    doc["formula_floor"] = barriers.lower_bound_formula(args.k)
    _write_json(args.out, doc)
    print(
        f"lbgraph: k={args.k} ell={cert.sample_size} t_max={cert.t_max} "
        f"implied>={cert.implied_lower_bound:.2f} recomputed>={recomputed:.2f} -> {args.out}"
    )
    if recomputed + 1e-9 < cert.implied_lower_bound:
        print("lbgraph: recomputed bound fell below certificate", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_barrier_flatten(args) -> int:
    seed = _resolve_seed(args)
    report = barriers.run_flattening_trials(
        args.n, m=args.m, trials=args.trials, alpha=args.alpha, seed=seed
    )
    doc = report.to_json_dict()
    doc["seed"] = seed
    _write_json(args.out, doc)
    print(
        f"flatten: n={report.n} m={report.m} trials={report.trials} "
        f"worst={report.worst_min_distance:.4f} bound={report.bound:.4f} -> {args.out}"
    )
    if report.worst_min_distance > report.bound + 1e-9:
        print("flatten: a trial beat the collapse bound (should be impossible)", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpselect",
        description="Locally private hypothesis selection: instances, graphs, and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random hypothesis-set file")
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--model", choices=GENERATOR_MODELS, default="dirichlet-uniform")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    graph = sub.add_parser("graph", help="build the comparison graph and report its structure")
    graph.add_argument("--in", dest="in_path", required=True)
    graph.add_argument("--phi", type=float, default=PHI_DEFAULT)
    graph.add_argument("--out", required=True)
    graph.set_defaults(func=cmd_graph)

    dom = sub.add_parser("dominate", help="find and verify a dominating set")
    dom.add_argument("--in", dest="in_path", required=True)
    dom.add_argument("--phi", type=float, default=PHI_DEFAULT)
    dom.add_argument("--seed", type=int, default=None)
    dom.add_argument("--out", required=True)
    dom.set_defaults(func=cmd_dominate)

    sel = sub.add_parser("select", help="run seeded end-to-end selections")
    sel.add_argument("--in", dest="in_path", required=True)
    sel.add_argument("--alpha", type=float, required=True)
    sel.add_argument("--beta", type=float, required=True)
    sel.add_argument("--epsilon", type=float, required=True)
    sel.add_argument("--phi", type=float, default=PHI_DEFAULT)
    sel.add_argument("--seed", type=int, default=None)
    sel.add_argument("--trials", type=int, default=1)
    sel.add_argument("--n", type=int, default=None,
                     help="users per trial (default: planned size; not with --samples)")
    population = sel.add_mutually_exclusive_group()
    population.add_argument("--p-index", type=int, default=None,
                            help="1-based hypothesis to sample from")
    population.add_argument("--p-file", default=None, help="JSON list of probabilities for p")
    population.add_argument("--samples", default=None, help="file with one domain point per line")
    sel.add_argument("--p-mix", type=float, default=None,
                     help="mix weight w: p = w*hypothesis + (1-w)*uniform (with --p-index)")
    sel.add_argument("--out", required=True)
    sel.set_defaults(func=cmd_select)

    barrier = sub.add_parser("barrier", help="hardness constructions and their checks")
    bsub = barrier.add_subparsers(dest="barrier_command", required=True)

    lbg = bsub.add_parser("lbgraph", help="build the high-domination digraph certificate")
    lbg.add_argument("--k", type=int, required=True)
    lbg.add_argument("--seed", type=int, default=None)
    lbg.add_argument("--out", required=True)
    lbg.set_defaults(func=cmd_barrier_lbgraph)

    flat = bsub.add_parser("flatten", help="search random flat maps for a counterexample")
    flat.add_argument("--n", type=int, required=True)
    flat.add_argument("--m", type=int, default=None)
    flat.add_argument("--trials", type=int, default=1000)
    flat.add_argument("--alpha", type=float, default=0.99)
    flat.add_argument("--seed", type=int, default=None)
    flat.add_argument("--out", required=True)
    flat.set_defaults(func=cmd_barrier_flatten)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResamplingLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except LdpSelectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: malformed input file: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
