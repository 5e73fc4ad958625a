"""Spans around the library's public functions, recorded from outside the library.

The tracer replaces module and class attributes with timing wrappers under the
names the callers look them up by (``select_hypothesis`` resolves
``build_scheffe_graph`` through ``ldpselect.rmde``, the benchmark resolves it
through ``ldpselect.scheffe_graph``), and puts the originals back on exit.  A
call is recorded only while a root span (one benchmark operation, or set-up)
is open, so correctness checks that run between operations pass straight
through.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

from ldpselect import barriers, distributions, protocol, rmde, scheffe_graph


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    root: int = 0
    child_s: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_s


def _observe_build(graph, args, seconds):
    return {"scheffe_graph.edges": graph.edge_count}


def _observe_dominate(cert, args, seconds):
    return {
        "scheffe_graph.dominate_attempts": cert.attempts,
        "scheffe_graph.dominating_set_size": len(cert.dominating_set),
        "scheffe_graph.patch_size": len(cert.low_indegree_part),
    }


def _observe_family(family, args, seconds):
    attempted = len(args[1].dominating_set)
    return {
        "rmde.family_size": len(family),
        "rmde.duplicates_pruned": attempted - len(family),
        "rmde.family_useful_frac": len(family) / attempted,
    }


def _observe_protocol(result, args, seconds):
    n, m = args[0].user_count, len(args[1])
    used = result[1].block_size * m
    return {
        "protocol.block_size": result[1].block_size,
        "protocol.users_dropped": n - used,
        "protocol.users_used_frac": used / n,
    }


def _observe_margins(margins, args, seconds):
    return {"rmde.min_star_margin": float(margins.min())}


def _observe_lbgraph(cert, args, seconds):
    return {"barriers.lb_attempts": cert.attempts}


def _observe_flatten(report, args, seconds):
    return {"barriers.flatten_maps_per_s": report.trials / seconds}


# (owner, attribute, stage, observer).  Stage names are "<layer>.<step>".
TARGETS = (
    (protocol.SimulatedPopulation, "draw", "protocol.draw", None),
    (rmde, "run_protocol", "protocol.run", _observe_protocol),
    (rmde, "build_scheffe_graph", "scheffe_graph.build", _observe_build),
    (scheffe_graph, "build_scheffe_graph", "scheffe_graph.build", _observe_build),
    (rmde, "find_dominating_set", "scheffe_graph.dominate", _observe_dominate),
    (scheffe_graph, "find_dominating_set", "scheffe_graph.dominate", _observe_dominate),
    (rmde, "verify_domination", "scheffe_graph.verify", None),
    (scheffe_graph, "verify_domination", "scheffe_graph.verify", None),
    (scheffe_graph, "scan_triangles", "scheffe_graph.triangle_scan", None),
    (rmde, "select_hypothesis", "rmde.pipeline", None),
    (rmde, "query_family_from_dominating_set", "rmde.family", _observe_family),
    (rmde, "rmde_select", "rmde.select", None),
    (rmde.QueryFamily, "certifies", "rmde.certify", None),
    (rmde.QueryFamily, "star_margins", "rmde.star_margins", _observe_margins),
    (barriers, "build_lower_bound_graph", "barriers.lbgraph", _observe_lbgraph),
    (barriers, "verify_domination_lower_bound", "barriers.lb_verify", None),
    (barriers, "run_flattening_trials", "barriers.flatten", _observe_flatten),
    (distributions, "random_hypothesis_set", "distributions.generate", None),
)

# Stage whose tracemalloc peak is recorded; tracemalloc stays off elsewhere.
ALLOC_STAGE = "scheffe_graph.build"


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    observed: list[tuple[int, str, float]] = field(default_factory=list)  # (span, metric, value)
    _stack: list[int] = field(default_factory=list)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent].root if parent is not None else len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent=parent, root=root))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    @contextmanager
    def root(self, name: str):
        """Open a root span; calls into the library are recorded only under one."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, fn, stage, observe):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(stage)
            alloc = stage == ALLOC_STAGE
            if alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(idx)
            if alloc:
                self.observed.append((idx, "scheffe_graph.build_alloc_mb", peak / 2**20))
            if observe is not None:
                for key, value in observe(result, args, self.spans[idx].duration).items():
                    self.observed.append((idx, key, float(value)))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, stage, observe in TARGETS:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, stage, observe))
                else:
                    wrapped = self._wrap(original, stage, observe)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def stage_summary(self, roots: set[int]) -> dict[str, dict]:
        """Per stage, over spans under the given roots: calls, per-call ms, self ms."""
        out: dict[str, dict] = {}
        for span in self.spans:
            if span.parent is None or span.root not in roots:
                continue
            entry = out.setdefault(span.name, {"calls": 0, "ms": [], "self_ms": []})
            entry["calls"] += 1
            entry["ms"].append(span.duration * 1e3)
            entry["self_ms"].append(span.self_time * 1e3)
        return out

    def observed_values(self, roots: set[int]) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for idx, key, value in self.observed:
            if self.spans[idx].root in roots:
                out.setdefault(key, []).append(value)
        return out

    def layer_shares(self, roots: set[int]) -> dict[str, float]:
        """Self time of each layer as a share of the root spans' total time.

        The roots' own self time (benchmark code between library calls) is
        reported as the "unaccounted" share.
        """
        total = sum(self.spans[r].duration for r in roots)
        shares: dict[str, float] = {}
        for span in self.spans:
            if span.root not in roots:
                continue
            layer = "unaccounted" if span.parent is None else span.name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + span.self_time / total
        return shares

    def export(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "root": s.root}
            for s in self.spans
        ]

