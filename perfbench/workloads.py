"""The benchmark's workloads: generated inputs, timed operations and correctness gates.

Every workload uses alpha = 0.5, beta = 0.1, epsilon = 1 and phi = 1/6, the
targets of acceptance criterion C7.  Instances, the true distribution p and
every per-operation seed derive from the workload seed alone.

Library functions are looked up through their modules at call time (for
example ``scheffe_graph.build_scheffe_graph``), so the tracer's wrappers see
the calls the benchmark makes as well as the ones ``select_hypothesis`` makes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ldpselect import barriers, distributions, protocol, rmde, scheffe_graph
from ldpselect.errors import InsufficientSamplesError

ALPHA, BETA, EPSILON = 0.5, 0.1, 1.0
PHI = scheffe_graph.PHI_DEFAULT
P_INDEX = 3  # p = 0.95 * q_3 + 0.05 * uniform
MODELS = distributions.GENERATOR_MODELS

# kind "select": each op draws users_required users and calls select_hypothesis.
# kind "offline": each op runs the user-free steps on one instance, plus one
# barriers op per round.  shared_q keeps one Q per model for the whole run;
# otherwise every round draws fresh instances, so one run averages over more
# of them.
SPECS = {
    "trials-k8": {"kind": "select", "k": 8, "d": 16, "models": MODELS[:1], "ops_per_model": 10,
                  "shared_q": True},
    "select-k32": {"kind": "select", "k": 32, "d": 64, "models": MODELS, "ops_per_model": 1,
                   "shared_q": False},
    "offline-k128": {"kind": "offline", "k": 128, "d": 64, "models": MODELS, "lb_k": 128, "flatten_n": 32,
                     "shared_q": False},
}

# Sizes for the benchmark's self-test; the smallest the constructions accept.
TINY = {
    "trials-k8": {"k": 4, "d": 8},
    "select-k32": {"k": 5, "d": 8},
    "offline-k128": {"k": 16, "d": 8, "lb_k": 16, "flatten_n": 8},
}


def config(seed: int = 0) -> rmde.SelectionConfig:
    return rmde.SelectionConfig(alpha=ALPHA, beta=BETA, epsilon=EPSILON, phi=PHI, seed=seed)


def seed_int(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0] >> 1)


@dataclass(frozen=True)
class Instance:
    model: str
    Q: distributions.HypothesisSet
    p: distributions.DiscreteDistribution
    opt: float  # min over q in Q of ||q - p||_1


def make_instance(k: int, d: int, model: str, seed: int) -> Instance:
    Q = distributions.random_hypothesis_set(k, d, seed=seed, model=model)
    uniform = distributions.DiscreteDistribution.uniform(d)
    p = distributions.mixture([Q.hypotheses[P_INDEX - 1], uniform], [0.95, 0.05])
    opt = min(distributions.l1_distance(q, p) for q in Q.hypotheses)
    return Instance(model, Q, p, opt)


def probe_users_required(inst: Instance) -> int:
    """Users the pipeline demands, read from its refusal of an empty population."""
    empty = protocol.SimulatedPopulation(inst.p, np.empty(0, dtype=np.int64))
    try:
        rmde.select_hypothesis(inst.Q, empty, config())
    except InsufficientSamplesError as exc:
        required = exc.required
    else:
        raise RuntimeError("select_hypothesis accepted an empty population")
    planned = rmde.plan_sample_size(inst.Q.k, config())
    if required > planned:
        raise RuntimeError(f"pipeline asks for {required} users, more than the plan's {planned}")
    return required


def independent_graph(Q: distributions.HypothesisSet, dominating_set) -> scheffe_graph.PairDigraph:
    """Out-edges of the dominating pairs, recomputed from Q by this file's own code.

    Only the rows of the dominating set are filled in; that is all a
    domination check reads.  Rows are computed in chunks to bound memory.
    """
    k = Q.k
    lo, hi = np.triu_indices(k, 1)  # vertex ids in lexicographic pair order
    P = Q.probs_matrix
    deltas = P[lo] - P[hi]
    threshold = PHI * np.abs(deltas).sum(axis=1)
    V = deltas.shape[0]
    ids = np.array([pair.vertex_id(k) for pair in dominating_set], dtype=np.int64)
    out = [np.empty(0, dtype=np.int64)] * V
    in_degrees = np.zeros(V, dtype=np.int64)
    for start in range(0, ids.size, 256):
        rows = ids[start:start + 256]
        signs = np.where(deltas[rows] >= 0.0, 1.0, -1.0)
        hits = np.abs(signs @ deltas.T) >= threshold[np.newaxis, :]
        hits[np.arange(rows.size), rows] = False
        in_degrees += hits.sum(axis=0)
        for u, row in zip(rows, hits):
            out[u] = np.flatnonzero(row)
    return scheffe_graph.PairDigraph(k=k, out_edges=tuple(out), in_degrees=in_degrees)


def check_selection(inst: Instance, report: rmde.SelectionReport, n: int) -> tuple[list[str], float]:
    """Names of the failed checks for one selection, and the family's minimum star margin."""
    failed = []
    Q, k, cert = inst.Q, inst.Q.k, report.certificate
    margin = math.nan
    graph = independent_graph(Q, cert.dominating_set)
    if not scheffe_graph.verify_domination(graph, cert.dominating_set):
        failed.append("independent_domination")
    else:
        family = rmde.query_family_from_dominating_set(Q, cert, PHI, graph=graph)
        if len(family) != report.family_size:
            failed.append("family_size_mismatch")
        if not family.certifies(Q):
            failed.append("certifies")
        margin = float(family.star_margins(Q).min())
    if not math.isclose(protocol.channel_privacy_ratio(EPSILON), math.exp(EPSILON), rel_tol=1e-12):
        failed.append("privacy_ratio")
    if report.users_consumed > n:
        failed.append("users_consumed")
    if report.family_size > scheffe_graph.domination_bound(k):
        failed.append("family_size_bound")
    selected = Q.hypotheses[report.selected_index - 1]
    bound = config().approximation_factor * inst.opt + ALPHA
    if distributions.l1_distance(selected, inst.p) > bound + 1e-12:
        failed.append("guarantee")
    return failed, margin


@dataclass(frozen=True)
class OfflineOutcome:
    cert: scheffe_graph.DominatingSetCertificate
    family_size: int
    dominated: bool
    certifies: bool
    triangle_violations: int


def offline_op(inst: Instance, seed: int) -> OfflineOutcome:
    G = scheffe_graph.build_scheffe_graph(inst.Q, PHI)
    cert = scheffe_graph.find_dominating_set(G, inst.Q, seed=seed)
    family = rmde.query_family_from_dominating_set(inst.Q, cert, PHI, graph=G)
    dominated = scheffe_graph.verify_domination(G, cert.dominating_set)
    certifies = family.certifies(inst.Q)
    scan = scheffe_graph.scan_triangles(G)
    return OfflineOutcome(cert, len(family), dominated, certifies, scan.violations)


def check_offline(inst: Instance, out: OfflineOutcome) -> list[str]:
    failed = []
    D = out.cert.dominating_set
    if not out.dominated:
        failed.append("domination")
    if not scheffe_graph.verify_domination(independent_graph(inst.Q, D), D):
        failed.append("independent_domination")
    if not out.certifies:
        failed.append("certifies")
    if out.family_size > scheffe_graph.domination_bound(inst.Q.k):
        failed.append("family_size_bound")
    if out.triangle_violations:
        failed.append("triangles")
    return failed


@dataclass(frozen=True)
class BarrierOutcome:
    implied_bound: float
    recounted_bound: float
    flatten_worst: float
    flatten_n: int


def barrier_op(k: int, n: int, seed: int) -> BarrierOutcome:
    lb = barriers.build_lower_bound_graph(k, seed=seed)
    recount = barriers.verify_domination_lower_bound(lb)
    flat = barriers.run_flattening_trials(n, seed=seed)
    return BarrierOutcome(lb.implied_lower_bound, recount, flat.worst_min_distance, n)


def check_barriers(out: BarrierOutcome) -> list[str]:
    failed = []
    if out.recounted_bound + 1e-9 < out.implied_bound:
        failed.append("lower_bound_recount")
    if out.flatten_worst > 2.0 / math.sqrt(out.flatten_n) + 1e-9:
        failed.append("flattening_bound")
    return failed


@dataclass
class Op:
    """One timed operation and the gate that checks its output afterwards.

    ``run`` is timed; ``check`` is not, and returns the failed check names
    and a minimum star margin (nan when the gate does not compute one).
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], float]]


class Workload:
    """Generated inputs of one workload, and its operations round by round.

    A run is split over several processes; ``part`` numbers them, and every
    part draws its own instances and op seeds.  A shared Q is the same in all
    parts.
    """

    def __init__(self, name: str, seed: int, part: int = 0, tiny: bool = False):
        spec = dict(SPECS[name], **(TINY[name] if tiny else {}))
        self.seed, self.part, self.spec = seed, part, spec
        self.instances = self._instances(0 if spec["shared_q"] else part, 0)
        required = {probe_users_required(inst) for inst in self.instances}
        if len(required) != 1:
            raise RuntimeError(f"instances of one k disagree on users required: {sorted(required)}")
        self.users_required = required.pop()

    def _instances(self, part: int, r: int) -> list[Instance]:
        k, d = self.spec["k"], self.spec["d"]
        return [
            make_instance(k, d, model, seed_int(self.seed, part, r, i))
            for i, model in enumerate(self.spec["models"])
        ]

    def round_ops(self, r: int) -> list[Op]:
        fresh = r > 0 and not self.spec["shared_q"]
        instances = self._instances(self.part, r) if fresh else self.instances
        key = (self.seed, self.part, r)
        if self.spec["kind"] == "select":
            return [
                self._selection(inst, seed_int(*key, i, j))
                for i, inst in enumerate(instances)
                for j in range(self.spec["ops_per_model"])
            ]
        ops = [self._offline(inst, seed_int(*key, i)) for i, inst in enumerate(instances)]
        lb_seed = seed_int(*key, len(instances))
        ops.append(Op(
            "barriers",
            lambda: barrier_op(self.spec["lb_k"], self.spec["flatten_n"], lb_seed),
            lambda out: (check_barriers(out), math.nan),
        ))
        return ops

    def _selection(self, inst: Instance, seed: int) -> Op:
        n = self.users_required

        def run():
            pop_seed, sel_seed = np.random.SeedSequence(seed).spawn(2)
            pop = protocol.SimulatedPopulation.draw(inst.p, n, pop_seed)
            sel = int(sel_seed.generate_state(1, np.uint64)[0] >> 1)
            return rmde.select_hypothesis(inst.Q, pop, config(sel))

        return Op(inst.model, run, lambda report: check_selection(inst, report, n))

    def _offline(self, inst: Instance, seed: int) -> Op:
        return Op(inst.model, lambda: offline_op(inst, seed), lambda out: (check_offline(inst, out), math.nan))
