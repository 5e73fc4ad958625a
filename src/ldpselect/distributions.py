"""Finite discrete distributions and the ±1 Scheffe sets used to compare them.

Distributions live on the domain {1, ..., d} and are stored as dense
probability vectors; a ±1 test is a row of an int8 array.  The central
identity: for any q, q' with difference delta = q - q' and signed Scheffe set
S = sgn(delta), the inner product <delta, S> equals the l1 distance between q
and q', and no other ±1 vector achieves more.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, InvariantError

SUM_TOLERANCE = 1e-9

GENERATOR_MODELS = ("dirichlet-uniform", "sparse", "point-mass-mixture")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


_ABSENT = object()
_KIND_NAMES = {Integral: "an integer", Real: "a number", list: "a list"}


def _is_json(value, kind: type) -> bool:
    """Whether a parsed JSON value is of the kind; true and false are no numbers."""
    return isinstance(value, kind) and not (kind is not list and isinstance(value, bool))


def _json_number(doc: dict, name: str, kind: type, default=_ABSENT):
    """doc[name], which must be of the given kind (Integral, Real or list).

    A field is required unless it has a default, which it may also hold.
    """
    if not isinstance(doc, dict):
        raise InvariantError(f"document must be a JSON object, got {type(doc).__name__}")
    value = doc.get(name, default)
    if value is _ABSENT:
        raise InvariantError(f"document missing field {name!r}")
    if value is not default and not _is_json(value, kind):
        raise InvariantError(f"field {name!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _json_masses(value, where: str) -> np.ndarray:
    """A parsed JSON list of numbers as a float vector; anything else raises InvariantError."""
    if not _is_json(value, list):
        raise InvariantError(f"{where}: expected a list of masses, got {value!r}")
    for x, mass in enumerate(value, start=1):
        if not _is_json(mass, Real):
            raise InvariantError(f"{where}: mass {mass!r} at coordinate {x} is not a number")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError as exc:
        raise InvariantError(f"{where}: {exc}") from exc


def _write_json(path, doc: dict) -> None:
    """The one JSON writer of the package: indent 2, sorted keys, trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability vector over the finite domain {1, ..., d}."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise InvariantError("probability vector must be one-dimensional and non-empty")
        if not np.all(np.isfinite(probs)):
            x = int(np.argmax(~np.isfinite(probs)))
            raise InvariantError(f"non-finite mass {probs[x]!r} at coordinate {x + 1}")
        if np.any(probs < 0.0):
            x = int(np.argmax(probs < 0.0))
            raise InvariantError(f"negative mass {probs[x]!r} at coordinate {x + 1}")
        total = float(probs.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise InvariantError(f"masses sum to {total!r}, not 1 within {SUM_TOLERANCE}")
        object.__setattr__(self, "probs", _read_only(probs))

    @property
    def domain_size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def renormalized(cls, weights) -> "DiscreteDistribution":
        """Build a distribution from non-negative weights, scaling them to sum 1.

        Renormalization never happens implicitly; this constructor is the one
        explicit path for it.
        """
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvariantError("weight vector must be one-dimensional and non-empty")
        if np.any(w < 0.0):
            x = int(np.argmax(w < 0.0))
            raise InvariantError(f"negative weight {w[x]!r} at coordinate {x + 1}")
        total = float(w.sum())
        if total <= 0.0:
            raise InvariantError("weights sum to zero; cannot renormalize")
        return cls(w / total)

    @classmethod
    def point_mass(cls, x: int, d: int) -> "DiscreteDistribution":
        """Unit mass on domain point x (1-based) of a size-d domain."""
        if not 1 <= x <= d:
            raise ConfigError(f"point {x} outside domain 1..{d}")
        probs = np.zeros(d)
        probs[x - 1] = 1.0
        return cls(probs)

    @classmethod
    def uniform(cls, d: int) -> "DiscreteDistribution":
        if d < 1:
            raise ConfigError("domain size must be at least 1")
        return cls(np.full(d, 1.0 / d))


@dataclass(frozen=True, eq=False)
class HypothesisSet:
    """Ordered collection of k candidate distributions on one shared domain."""

    hypotheses: tuple[DiscreteDistribution, ...]

    def __post_init__(self):
        hyps = tuple(self.hypotheses)
        if len(hyps) < 2:
            raise InvariantError(f"need at least 2 hypotheses, got {len(hyps)}")
        d = hyps[0].domain_size
        for row, h in enumerate(hyps, start=1):
            if h.domain_size != d:
                raise InvariantError(
                    f"hypothesis {row} has domain size {h.domain_size}, expected {d}"
                )
        object.__setattr__(self, "hypotheses", hyps)

    @property
    def k(self) -> int:
        return len(self.hypotheses)

    @property
    def domain_size(self) -> int:
        return self.hypotheses[0].domain_size

    @cached_property
    def probs_matrix(self) -> np.ndarray:
        """k x d matrix whose rows are the hypothesis mass functions."""
        return _read_only(np.stack([h.probs for h in self.hypotheses]))

    @cached_property
    def _pair_distances(self) -> np.ndarray:
        """Read-only l1 distances of the C(k, 2) pairs j < j', in lexicographic pair order.

        Each is np.abs(q_j - q_j').sum() over one contiguous row of d
        differences, the sum every per-pair reading of it takes, so every
        reader of one Q shares it: build_scheffe_graph's thresholds are phi
        times it, and QueryFamily's scans read it too (a plan whose sample is
        patched scans Q three times; an offline run builds the graph, then
        checks its family).  The whole array is computed on the first read,
        even by a scan that stops at its first chunk, and held with Q:
        8 C(k, 2) bytes, 16.8 MB at k = 2048.  Pairs go in chunks of at most
        128 KiB of differences.
        """
        from .scheffe_graph import all_pairs  # the pair order; scheffe_graph imports this module

        P = self.probs_matrix
        lo, hi = all_pairs(self.k).T
        out = np.empty(lo.size)
        step = max(1, (128 << 10) // (8 * self.domain_size))
        for start in range(0, lo.size, step):
            gaps = P.take(lo[start:start + step], axis=0) - P.take(hi[start:start + step], axis=0)
            np.abs(gaps, out=gaps).sum(axis=1, out=out[start:start + step])
        return _read_only(out)

    def to_json_dict(self) -> dict:
        return {
            "domain_size": self.domain_size,
            "hypotheses": [[float(p) for p in h.probs] for h in self.hypotheses],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "HypothesisSet":
        d = _json_number(doc, "domain_size", Integral)
        rows = _json_number(doc, "hypotheses", list)
        hyps = []
        for row, probs in enumerate(rows, start=1):
            probs = _json_masses(probs, f"hypothesis {row}")
            if len(probs) != d:
                raise InvariantError(
                    f"hypothesis {row}: length {len(probs)} does not match domain_size {d}"
                )
            try:
                hyps.append(DiscreteDistribution(probs))
            except ValueError as exc:
                raise InvariantError(f"hypothesis {row}: {exc}") from exc
        return cls(tuple(hyps))

    def save(self, path) -> None:
        _write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "HypothesisSet":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def _scheffe_signs(deltas: np.ndarray, dtype=np.int8) -> np.ndarray:
    """Signed Scheffe sets of the rows of a difference array, as dtype.

    +1 where delta >= 0, so ties (delta = 0) give +1 and NaN gives -1.  The
    bool test is cast and written in place, far cheaper than np.where.
    """
    signs = (np.asarray(deltas) >= 0.0).astype(dtype)
    signs *= 2
    signs -= 1
    return signs


def l1_distance(q: DiscreteDistribution, q2: DiscreteDistribution) -> float:
    """Sum of |q(x) - q2(x)| over the domain (twice the total variation)."""
    if q.domain_size != q2.domain_size:
        raise DimensionError(f"domain sizes differ: {q.domain_size} vs {q2.domain_size}")
    return float(np.abs(q.probs - q2.probs).sum())


def mixture(components, weights) -> DiscreteDistribution:
    """Convex combination of distributions on one shared domain."""
    comps = list(components)
    w = np.asarray(weights, dtype=float)
    if len(comps) != w.size or len(comps) == 0:
        raise ConfigError("need one weight per component")
    if np.any(w < 0) or abs(float(w.sum()) - 1.0) > SUM_TOLERANCE:
        raise ConfigError("mixture weights must be non-negative and sum to 1")
    d = comps[0].domain_size
    for c in comps:
        if c.domain_size != d:
            raise DimensionError("mixture components live on different domains")
    probs = np.zeros(d)
    for c, wi in zip(comps, w):
        probs += wi * c.probs
    return DiscreteDistribution(probs)


def random_hypothesis_set(k: int, d: int, seed, model: str = "dirichlet-uniform") -> HypothesisSet:
    """Draw k random distributions on {1, ..., d}, deterministic in the seed.

    Models:
      dirichlet-uniform  rows drawn from the flat Dirichlet on the simplex
      sparse             each row supported on a small random subset
      point-mass-mixture each row a two-point mixture lam*e_a + (1-lam)*e_b
    """
    if k < 2:
        raise ConfigError(f"need k >= 2, got {k}")
    if d < 2:
        raise ConfigError(f"need d >= 2, got {d}")
    if model not in GENERATOR_MODELS:
        raise ConfigError(f"unknown model {model!r}; choose one of {GENERATOR_MODELS}")
    rng = np.random.default_rng(seed)
    rows = []
    if model == "dirichlet-uniform":
        for probs in rng.dirichlet(np.ones(d), size=k):
            rows.append(DiscreteDistribution(probs))
    elif model == "sparse":
        max_support = max(2, d // 4)
        for _ in range(k):
            s = int(rng.integers(1, max_support + 1))
            support = rng.choice(d, size=s, replace=False)
            probs = np.zeros(d)
            probs[support] = rng.dirichlet(np.ones(s))
            rows.append(DiscreteDistribution(probs))
    else:  # point-mass-mixture
        for _ in range(k):
            a, b = rng.choice(d, size=2, replace=False)
            lam = float(rng.uniform())
            probs = np.zeros(d)
            probs[a] = lam
            probs[b] += 1.0 - lam
            rows.append(DiscreteDistribution(probs))
    return HypothesisSet(tuple(rows))
