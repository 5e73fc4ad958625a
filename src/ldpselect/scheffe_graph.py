"""Digraphs on unordered hypothesis pairs and their dominating sets.

The graph of interest has one vertex per pair {j, j'} of hypothesis indices
and an edge u -> w whenever u's signed Scheffe set recovers at least a
phi-fraction of w's pair distance:

    |<delta_w, S_u>| >= phi * ||delta_w||_1        (weak inequality)

At phi = 1/6 this graph always contains a dominating set of size at most
4 k^{3/2} sqrt(log2 k), found here by sampling random vertices and patching
whatever they fail to cover.  Logarithms are base 2 throughout; the success
probability of the sampling step depends on it.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral, Real

import numpy as np

from .distributions import HypothesisSet, _is_json, _json_number, _read_only, _scheffe_signs
from .errors import (
    ArgumentError,
    ConfigError,
    InvariantError,
    ResamplingLimitError,
    UnsupportedSizeError,
)

PHI_DEFAULT = 1.0 / 6.0

# Attempt cap for resampling loops; expected attempts are < 2.
MAX_RESAMPLE_ATTEMPTS = 64


def _check_phi(phi: float) -> None:
    if not 0 < phi <= 1:  # also refuses NaN
        raise ConfigError(f"phi must lie in (0, 1], got {phi}")


def pair_count(k: int) -> int:
    return k * (k - 1) // 2


def pair_index(x, y, k: int):
    """Vertex id of the pair {x, y} (0-based, x != y, either order) in lexicographic order."""
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    idx = lo * (2 * k - lo - 1) // 2 + (hi - lo - 1)
    return idx if np.ndim(idx) else int(idx)


# The O(k^2) index data below is kept, read-only, for the last few k asked for.
_INDEX_CACHE = 8


@lru_cache(maxsize=_INDEX_CACHE)
def all_pairs(k: int) -> np.ndarray:
    """All C(k, 2) index pairs, 0-based, in lexicographic order, read-only."""
    i, j = np.triu_indices(k, 1)
    return _read_only(np.column_stack([i, j]))


@lru_cache(maxsize=_INDEX_CACHE)
def _star_ids(k: int) -> np.ndarray:
    """Read-only (k, k - 1) int32 table whose entry [c, x] is the id of {c, x + (x >= c)}: the x-th pair holding c."""
    c, x = np.indices((k, k - 1))
    return _read_only(pair_index(c, x + (x >= c), k).astype(np.int32))


@dataclass(frozen=True, order=True)
class VertexPair:
    """Unordered pair {lo, hi} of 1-based hypothesis indices, stored canonically."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (1 <= self.lo < self.hi):
            raise InvariantError(f"need 1 <= lo < hi, got ({self.lo}, {self.hi})")

    def vertex_id(self, k: int) -> int:
        if self.hi > k:
            raise ArgumentError(f"pair {self} is not a vertex of a graph on {k} hypotheses")
        return pair_index(self.lo - 1, self.hi - 1, k)


def _ids_from_pairs(pairs, k: int) -> np.ndarray:
    lo, hi = np.array([(p.lo, p.hi) for p in pairs], dtype=np.int64).reshape(-1, 2).T
    if (hi > k).any():
        bad = pairs[int(np.argmax(hi > k))]
        raise ArgumentError(f"pair {bad} is not a vertex of a graph on {k} hypotheses")
    return pair_index(lo - 1, hi - 1, k)


def _ids_from_json(rows: list, k: int) -> np.ndarray:
    """Vertex ids of a document's rows [lo, hi], in order, checked pass by pass; the first bad row raises.

    Every row must be a list of two; then every row two integers with
    1 <= lo < hi; then every row a vertex on k hypotheses (else
    ArgumentError) that no earlier row repeats.
    """
    for row in rows:
        if not (isinstance(row, list) and len(row) == 2):
            raise InvariantError(f"field 'dominating_set': row {row!r} is not a pair [lo, hi]")
    for lo, hi in rows:
        if not (type(lo) is int and type(hi) is int and 1 <= lo < hi):  # NumPy integers also take the full checks
            if not (_is_json(lo, Integral) and _is_json(hi, Integral)):
                raise InvariantError(f"pair ({lo!r}, {hi!r}) has a non-integer index")
            VertexPair(int(lo), int(hi))  # InvariantError unless 1 <= lo < hi
    inside = next((i for i, (_, hi) in enumerate(rows) if hi > k), len(rows))  # rows before the first outside k
    lo, hi = np.array(rows[:inside], dtype=np.int64).reshape(-1, 2).T
    ids = pair_index(lo - 1, hi - 1, k)
    order = np.argsort(ids, kind="stable")  # a repeated id sorts right after its first row
    for i in np.sort(order[1:][np.diff(ids[order]) == 0])[:1].tolist():
        raise InvariantError(f"field 'dominating_set': repeated pair {{{lo[i]}, {hi[i]}}}")
    if inside < len(rows):
        VertexPair(*map(int, rows[inside])).vertex_id(k)  # raises ArgumentError
    return ids


def _check_ids(ids: np.ndarray, k: int) -> None:
    if ids.size and not (0 <= ids.min() and ids.max() < pair_count(k)):
        raise ArgumentError(f"vertex ids must lie in 0..{pair_count(k) - 1} for k={k}")


@lru_cache(maxsize=_INDEX_CACHE)
def _vertex_pairs(k: int) -> tuple[VertexPair, ...]:
    """Every vertex of a graph on k hypotheses as a VertexPair, indexed by vertex id."""
    return tuple(VertexPair(lo + 1, hi + 1) for lo, hi in all_pairs(k).tolist())


def _pairs_from_ids(ids, k: int) -> tuple[VertexPair, ...]:
    ids = np.asarray(ids, dtype=np.int64)
    _check_ids(ids, k)
    return tuple(map(_vertex_pairs(k).__getitem__, ids.tolist()))


def _pair_view(ids_field: str) -> cached_property:
    """A cached property: the ids in the field ids_field as a VertexPair tuple, built on first read."""
    return cached_property(lambda self: _pairs_from_ids(getattr(self, ids_field), self.k))


# Rows per block of a graph build: one float64 row block of about 16 MiB, and at most
# _MAX_BLOCK_ROWS rows, so a read of a few rows computes few others.
_BLOCK_BYTES = 16 << 20
_MAX_BLOCK_ROWS = 64


def _block_rows(V: int) -> int:
    """Rows per row block of a graph on V vertices."""
    return max(1, min(_MAX_BLOCK_ROWS, _BLOCK_BYTES // (8 * V)))


def _row_blocks(V: int):
    """Consecutive (start, stop) row ranges covering 0..V-1, one row block each."""
    step = _block_rows(V)
    return ((s, min(s + step, V)) for s in range(0, V, step))


# Allocations below this size skip the MemAvailable check; reading /proc/meminfo costs tens of µs.
_MEMORY_CHECK_BYTES = 64 << 20


def _available_memory() -> int | None:
    """MemAvailable in bytes, or None where /proc/meminfo cannot be read."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_fits(nbytes: int, what: str) -> None:
    """Raise UnsupportedSizeError, naming what and both sizes, if nbytes exceeds MemAvailable."""
    if nbytes < _MEMORY_CHECK_BYTES:
        return
    available = _available_memory()
    if available is not None and nbytes > available:
        raise UnsupportedSizeError(f"{what} need {nbytes} bytes, but only {available} bytes are available")


class PackedRows(Sequence):
    """The out-rows of a pair digraph, as packed adjacency bits filled on first read.

    Row v of a (V, ceil(V / 8)) uint8 bit matrix packs the V-column
    adjacency row of vertex v as np.packbits writes it.  No row is computed
    up front.  The first read of a row fills its whole row block
    (_row_blocks: at most _MAX_BLOCK_ROWS rows) with block(start, stop), the
    block's (stop - start, V) bool adjacency, so a row's bits are the same
    whatever was read before it; block is let go once every block is
    filled.  A built graph's block is a row gemm whose shared-index entries
    are copied from the graph's table (build_scheffe_graph).  out_edges[v]
    unpacks row v into a sorted read-only int32 array of out-neighbor ids.
    packed(rows), has_edges(sources, targets) and dominated_by(ids) fill
    only the blocks of the rows they read.  bits fills every block and gives
    the whole matrix, read-only.  Bits that would not fit in the memory
    available raise UnsupportedSizeError before they are allocated.
    """

    __slots__ = ("_bits", "_filled", "_step", "_block")

    def __init__(self, V: int, block):
        _check_fits(V * ((V + 7) // 8), f"the packed adjacency bits of a graph on {V} vertices")
        self._bits = np.empty((V, (V + 7) // 8), dtype=np.uint8)
        self._step = _block_rows(V)
        self._filled = np.zeros(-(-V // self._step), dtype=bool)
        self._block = block

    def __len__(self) -> int:
        return self._bits.shape[0]

    def __getitem__(self, v) -> np.ndarray:
        v = range(len(self))[v]
        if not self._filled[v // self._step]:
            self._fill(v)
        row = np.unpackbits(self._bits[v], count=len(self)).view(bool)
        return _read_only(np.flatnonzero(row).astype(np.int32))

    @property
    def filled_blocks(self) -> int:
        """How many row blocks have been filled so far."""
        return int(np.count_nonzero(self._filled))

    @property
    def bits(self) -> np.ndarray:
        """The whole bit matrix, every block filled, as a read-only view."""
        self._fill(np.arange(0, len(self), self._step))
        return _read_only(self._bits.view())

    def packed(self, rows: np.ndarray) -> np.ndarray:
        """The packed bit rows of the given vertex ids, one row each."""
        self._fill(rows)
        return self._bits[rows]

    def dominated_by(self, ids: np.ndarray) -> bool:
        """Whether every vertex is one of ids or an out-neighbor of one of them.

        The ids are grouped by row block.  Blocks already filled are read
        first, then the others, those holding the most ids first; ties go by
        block.  The rows of one block's ids are ORed together and coverage is
        tested after each block, so True is returned at the first block that
        leaves no vertex uncovered, and False only after every row of ids was
        read.
        """
        V = len(self)
        covered = np.zeros(V, dtype=bool)
        covered[ids] = True
        covered = np.packbits(covered)
        everything = np.packbits(np.ones(V, dtype=bool))
        blocks = ids // self._step
        members = np.bincount(blocks, minlength=self._filled.size)
        order = np.lexsort((blocks, -members[blocks], ~self._filled[blocks]))  # the last key sorts first; stable
        ids, blocks = ids[order], blocks[order]
        starts = np.flatnonzero(np.diff(blocks, prepend=-1)).tolist()
        for start, end in zip(starts, starts[1:] + [ids.size]):
            covered |= np.bitwise_or.reduce(self.packed(ids[start:end]), axis=0)
            if np.array_equal(covered, everything):
                return True
        return False

    def has_edges(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Whether each edge sources[i] -> targets[i] is present, as a bool array; the two broadcast."""
        self._fill(sources)
        return (self._bits[sources, targets >> 3] & (0x80 >> (targets & 7)).astype(np.uint8)) != 0  # uint8 temporaries

    def _fill(self, rows) -> None:
        """Fill every row block that holds one of the given rows and is not filled yet."""
        blocks = np.unique(np.asarray(rows) // self._step)
        for b in blocks[~self._filled[blocks]].tolist():
            start, stop = b * self._step, min((b + 1) * self._step, len(self))
            self._bits[start:stop] = np.packbits(self._block(start, stop), axis=1)
            self._filled[b] = True
        if self._filled.all():
            self._block = None  # and with it the deltas or caller's rows it holds


def _block_of_rows(rows, start: int, stop: int, V: int) -> np.ndarray:
    """The (stop - start, V) bool adjacency of rows[start:stop], checked as one block.

    The rows are concatenated and scattered at once; an InvariantError names
    the first bad row and, within it, the first of: not a 1-d array of
    integer ids, an id outside 0..V-1, a self-loop, a repeated target.
    """
    outs = [np.asarray(rows[v]) for v in range(start, stop)]
    typed = next((i for i, out in enumerate(outs) if out.ndim != 1 or (out.size and out.dtype.kind not in "iu")),
                 len(outs))  # rows before the first that is not integer ids
    sizes = [out.size for out in outs[:typed]]
    ids = np.concatenate([np.empty(0, dtype=np.int64), *outs[:typed]], dtype=np.int64, casting="unsafe")
    owner = np.repeat(np.arange(typed), sizes)
    inside = (0 <= ids) & (ids < V)  # an unsigned id of 2**63 or more wraps below 0
    adj = np.zeros((stop - start, V), dtype=bool)
    adj[owner[inside], ids[inside]] = True
    outside = np.bincount(owner[~inside], minlength=typed) > 0
    loops = adj[np.arange(typed), np.arange(start, start + typed)]
    repeats = np.zeros(typed, dtype=bool)
    if np.count_nonzero(adj) != np.count_nonzero(inside):  # one count of the block is far cheaper than one per row
        repeats = np.count_nonzero(adj[:typed], axis=1) != np.bincount(owner[inside], minlength=typed)
    for i in np.flatnonzero(outside | loops | repeats)[:1].tolist():
        what = f"holds an id outside 0..{V - 1}" if outside[i] else "has a self-loop" if loops[i] else "repeats a target"
        raise InvariantError(f"row {start + i} {what}")
    if typed < len(outs):
        raise InvariantError(f"row {start + typed} is not a 1-d array of integer vertex ids")
    return adj


@dataclass(frozen=True, eq=False, init=False)
class PairDigraph:
    """Digraph on the C(k, 2) unordered index pairs, its edges held as PackedRows.

    out_edges[v] is the sorted read-only int32 array of v's out-neighbor
    ids.  build_scheffe_graph passes PackedRows filled on first read, and
    pre-sets shared_index_edges; any other out_edges, one id array per
    vertex, is packed here block by block and not kept.  A k that is not an
    integer of at least 2, another count of rows or in_degrees, or a row
    with a non-integer id, an id outside 0..C(k, 2) - 1, a self-loop or a
    repeated target raises InvariantError.
    in_degrees, where given, must be a 1-d array of integers equal to the
    in-degrees summed from the bits, or InvariantError is raised, naming the
    first vertex where they differ; the caller's array is not kept.
    Otherwise the in-degrees are summed on first read, and edge_count with
    them.  phi is the comparison constant the graph was built at, or None
    where it is not recorded.
    """

    k: int
    out_edges: PackedRows
    phi: float | None = None

    def __init__(self, k: int, out_edges: Sequence[np.ndarray], in_degrees: np.ndarray | None = None,
                 phi: float | None = None):
        if not (_is_json(k, Integral) and k >= 2):
            raise InvariantError(f"k must be an integer of at least 2, got {k!r}")
        V = pair_count(k)
        if in_degrees is not None:
            in_degrees = np.asarray(in_degrees)
            if in_degrees.ndim != 1 or in_degrees.dtype.kind not in "iu":
                raise InvariantError(f"in-degrees must be a 1-d array of integers, got {in_degrees.dtype} "
                                     f"of shape {in_degrees.shape}")
        for name, given in (("rows", out_edges), ("in-degrees", in_degrees)):
            if given is not None and len(given) != V:
                raise InvariantError(f"a graph on {k} hypotheses needs {V} {name}, got {len(given)}")
        if not isinstance(out_edges, PackedRows):
            rows = out_edges
            out_edges = PackedRows(V, lambda start, stop: _block_of_rows(rows, start, stop, V))
            out_edges.bits  # packs every block now, so the rows given are not kept
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "out_edges", out_edges)
        object.__setattr__(self, "phi", phi)
        if in_degrees is not None:
            for v in np.flatnonzero(in_degrees != self.in_degrees)[:1].tolist():
                raise InvariantError(f"vertex {v} has in-degree {self.in_degrees[v]}, but {in_degrees[v]} was given")

    @property
    def num_vertices(self) -> int:
        return pair_count(self.k)

    @cached_property
    def in_degrees(self) -> np.ndarray:
        """Read-only int64 in-degree of every vertex, summed from the bits when not given."""
        V = self.num_vertices
        bits = self.out_edges.bits
        in_deg = np.zeros(V, dtype=np.int64)
        for start, stop in _row_blocks(V):
            in_deg += np.add.reduce(np.unpackbits(bits[start:stop], axis=1, count=V), axis=0, dtype=np.int32)
        return _read_only(in_deg)

    @property
    def edge_count(self) -> int:
        return int(self.in_degrees.sum())

    def edge_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Source and target ids of every edge, in row order.

        The rows are unpacked one row block at a time, and one np.nonzero of
        the block writes its edges into the int64 sources and int32 targets;
        if those would not fit in the memory available, UnsupportedSizeError
        is raised before allocating them.
        """
        V = self.num_vertices
        E = self.edge_count
        _check_fits(12 * E, f"the {E} edge source and target ids of a k={self.k} graph")
        bits = self.out_edges.bits
        sources = np.empty(E, dtype=np.int64)
        targets = np.empty(E, dtype=np.int32)
        end = 0
        for start, stop in _row_blocks(V):
            rows, cols = np.nonzero(np.unpackbits(bits[start:stop], axis=1, count=V).view(bool))  # row-major
            sources[end:end + rows.size] = rows + start
            targets[end:end + rows.size] = cols
            end += rows.size
        return sources, targets

    @cached_property
    def shared_index_edges(self) -> np.ndarray:
        """Read-only (k, k - 1, k - 1) table of the edges between pairs sharing an index.

        Entry [c, x, y] says whether the x-th pair holding c has an edge to
        the y-th, pairs numbered as in _star_ids(k); the diagonal is False.
        build_scheffe_graph sets it from per-hypothesis star blocks, and the
        rows it fills copy their shared-index entries from it.  Any other
        graph reads it off the bits, once per graph.
        """
        star = _star_ids(self.k)
        return _read_only(self.out_edges.has_edges(star[:, :, np.newaxis], star[:, np.newaxis, :]))


# A star chunk gathers at most this many bytes per float64 operand, so each chunk stays in cache.
_STAR_OPERAND_BYTES = 128 << 10


def _star_shared_index_edges(P: np.ndarray, phi: float) -> np.ndarray:
    """The shared-index table of the phi-comparison graph of the (k, d) rows P, one star block per hypothesis.

    The star of hypothesis c is its k - 1 pairs {c, x}, numbered as in
    _star_ids(k).  Its block holds |<S_{c,x}, delta_{c,y}>| >= threshold for
    every two of them, and less its diagonal it is entry [c] of the table.
    That is O(k^3 d) in all, against O(k^4 d) for every row of the graph.
    Hypotheses go in chunks whose deltas, gathered straight from P, take at
    most _STAR_OPERAND_BYTES; each value is the one the graph's rows use.
    """
    k, d = P.shape
    table = np.empty((k, k - 1, k - 1), dtype=bool)
    star_pairs = all_pairs(k)[_star_ids(k)]  # [c, x] = the x-th pair holding c, 0-based
    chunk = max(1, _STAR_OPERAND_BYTES // (8 * (k - 1) * d))
    for c in range(0, k, chunk):
        members = star_pairs[c:c + chunk]
        deltas = P[members[..., 0]] - P[members[..., 1]]
        threshold = phi * np.abs(deltas).sum(axis=2)
        signs = _scheffe_signs(deltas, np.float64)
        margin = np.matmul(signs, deltas.transpose(0, 2, 1))  # [., x, y] = <S_cx, delta_cy>
        np.greater_equal(np.abs(margin, out=margin), threshold[:, np.newaxis], out=table[c:c + chunk])
    table.reshape(k, -1)[:, ::k] = False  # the diagonal: no self-loop
    return table


def build_scheffe_graph(Q: HypothesisSet, phi: float = PHI_DEFAULT) -> PairDigraph:
    """The phi-comparison graph of Q, its rows computed one row block at a time on first read.

    Edge u -> w present iff |<delta_w, S_u>| >= phi * ||delta_w||_1.  Pairs of
    identical hypotheses have zero norm and therefore receive edges from every
    other vertex.  After reserving the packed bits, V * ceil(V / 8) bytes, the
    build computes the shared-index table from per-hypothesis star blocks, in
    O(k^3 d), and the O(V d) deltas, signs and thresholds of the rows.  A row
    block, filled by PackedRows when a row of it is first read, takes one gemm
    for the edges into pairs disjoint from its rows, and copies the 2(k - 1)
    entries of each row into the pairs sharing an index with it from the
    table, whose False diagonal clears the self-loop: every shared-index edge
    is computed once.  The row function does not hold the graph, so a graph no
    caller holds is freed at once.  No V x V array is made.  A build whose
    packed bits would not fit in the memory available raises
    UnsupportedSizeError before allocating anything.
    """
    _check_phi(phi)
    k = Q.k
    V = pair_count(k)

    def block(start, stop):
        inner = signs[start:stop] @ deltas.T  # inner[u - start, w] = <S_u, delta_w>
        adj = np.abs(inner, out=inner) >= threshold
        lo, hi = pairs[start:stop].T
        offsets = np.arange(0, (stop - start) * V, V)[:, np.newaxis]
        flat = adj.reshape(-1)  # one flat scatter per star: 2-d indexing of the block is slower
        flat[offsets + star[lo]] = table[lo, hi - 1]  # u = {lo, hi} is pair hi - 1 of star lo
        flat[offsets + star[hi]] = table[hi, lo]  # and pair lo of star hi
        return adj

    rows = PackedRows(V, block)  # made first: it refuses bits that do not fit before anything else is computed
    P = Q.probs_matrix
    pairs = all_pairs(k)
    star = _star_ids(k)
    table = _read_only(_star_shared_index_edges(P, phi))
    deltas = P[pairs[:, 0]] - P[pairs[:, 1]]
    signs = _scheffe_signs(deltas, np.float64)
    threshold = phi * np.abs(deltas).sum(axis=1)
    G = PairDigraph(k=k, out_edges=rows, phi=float(phi))
    G.__dict__["shared_index_edges"] = table
    return G


@dataclass(frozen=True, eq=False)
class DominatingSetCertificate:
    """A dominating set, as vertex ids, plus the pieces the randomized search produced it from.

    vertex_ids holds the set in its order, random_ids the sampled vertices R
    and patch_ids the vertices the sample failed to cover; their union is the
    set.  Each is stored as a read-only int64 array, and an id outside
    0..C(k, 2) - 1 raises ArgumentError.  dominating_set, random_part and
    low_indegree_part are the same ids as VertexPair tuples, built on first
    read.
    """

    k: int
    vertex_ids: np.ndarray
    random_ids: np.ndarray
    patch_ids: np.ndarray
    attempts: int
    target_bound: float
    build_ms: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        for name in ("vertex_ids", "random_ids", "patch_ids"):
            ids = np.array(getattr(self, name), dtype=np.int64)
            _check_ids(ids, self.k)
            object.__setattr__(self, name, _read_only(ids))

    dominating_set = _pair_view("vertex_ids")
    random_part = _pair_view("random_ids")
    low_indegree_part = _pair_view("patch_ids")

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "dominating_set": (all_pairs(self.k)[self.vertex_ids] + 1).tolist(),
            "attempts": self.attempts,
            "target_bound": self.target_bound,
            "build_ms": self.build_ms,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DominatingSetCertificate":
        """Inverse of to_json_dict; random_ids and patch_ids come back empty.

        A missing or mistyped field, a row that is not a pair, a non-integer
        index, a repeated pair, attempts below 1, a negative seed, or a
        target_bound or build_ms that is negative or not finite raises
        InvariantError naming it; a pair outside k raises ArgumentError.
        """
        k = int(_json_number(doc, "k", Integral))
        if k < 2:
            raise InvariantError(f"field 'k' must be at least 2, got {k}")
        ids = _ids_from_json(_json_number(doc, "dominating_set", list), k)
        attempts = int(_json_number(doc, "attempts", Integral))
        target_bound = float(_json_number(doc, "target_bound", Real))
        build_ms = float(_json_number(doc, "build_ms", Real, default=0.0))
        seed = _json_number(doc, "seed", Integral, default=None)
        for name, ok in (("attempts", attempts >= 1), ("target_bound", 0 <= target_bound < math.inf),
                         ("build_ms", 0 <= build_ms < math.inf), ("seed", seed is None or seed >= 0)):
            if not ok:  # NaN fails both comparisons
                raise InvariantError(f"field {name!r} is out of range, got {doc[name]!r}")
        return cls(k=k, vertex_ids=ids, random_ids=(), patch_ids=(), attempts=attempts, target_bound=target_bound,
                   build_ms=build_ms, seed=None if seed is None else int(seed))


def sample_size(k: int) -> int:
    """Number of vertices the randomized search samples: ceil(k^1.5 sqrt(log2 k)), capped at |V|."""
    return min(math.ceil(k ** 1.5 * math.sqrt(math.log2(k))), pair_count(k))


def domination_bound(k: int) -> float:
    """Size bound 4 k^{3/2} sqrt(log2 k) the certificate must meet, capped at |V|."""
    return min(4.0 * k ** 1.5 * math.sqrt(math.log2(k)), float(pair_count(k)))


def _shared_index_cover(table: np.ndarray, sampled: np.ndarray) -> np.ndarray:
    """Mark each sampled vertex and its out-neighbors among index-sharing pairs.

    For each hypothesis c, the rows of the shared-index table[c] of the
    sampled pairs holding c are ORed, in one bool matmul for every c, which
    marks the pairs holding c that they reach; this is the O(k)-per-vertex
    scan.  A vertex left unmarked may still be an out-neighbor of the
    sample, so the resulting patch set is conservative but always yields a
    valid dominating set.
    """
    star = _star_ids(len(table))
    covered = np.zeros(pair_count(len(table)), dtype=bool)
    covered[sampled] = True
    reached = np.matmul(covered[star][:, np.newaxis, :], table)[:, 0, :]
    covered[star[reached]] = True
    return covered


def _randomized_cover(k: int, star_table, seed=None) -> DominatingSetCertificate:
    """The randomized dominating-set search on k hypotheses; star_table() gives the shared-index table.

    Samples R of sample_size(k) vertices without replacement, marks R and the
    out-neighbors found by the shared-index scan as covered, and returns R
    together with everything left uncovered.  Resamples with fresh randomness
    until the union meets domination_bound(k); each attempt succeeds with
    probability > 1/2 on graphs built at phi = 1/6, and the loop raises after
    MAX_RESAMPLE_ATTEMPTS.  Where the sample is every vertex (k <= 19), R is
    every vertex at once, with nothing drawn or patched and star_table never
    called.  No VertexPair is built: the certificate holds the ids.
    """
    V = pair_count(k)
    ell = sample_size(k)
    bound = domination_bound(k)
    t0 = time.perf_counter()
    if ell == V:  # every draw is all of V, which covers itself
        attempts, sampled, patch = 1, np.arange(V), ()
        dom_ids = sampled
    else:
        table = star_table()
        rng = np.random.default_rng(seed)
        for attempts in range(1, MAX_RESAMPLE_ATTEMPTS + 1):
            sampled = np.sort(rng.choice(V, size=ell, replace=False))
            patch = np.flatnonzero(~_shared_index_cover(table, sampled))
            if ell + patch.size <= bound:
                break
        else:
            raise ResamplingLimitError(
                "dominating-set sampling kept exceeding the size bound",
                attempts,
                {"sample_size": ell, "bound": bound, "vertices": V},
            )
        dom_ids = np.union1d(sampled, patch)
    return DominatingSetCertificate(
        k=k,
        vertex_ids=dom_ids,
        random_ids=sampled,
        patch_ids=patch,
        attempts=attempts,
        target_bound=bound,
        build_ms=(time.perf_counter() - t0) * 1e3,
    )


def find_dominating_set(G: PairDigraph, Q: HypothesisSet | None = None, seed=None) -> DominatingSetCertificate:
    """Randomized dominating-set search on G's shared-index table; a Q on another k raises ArgumentError."""
    if Q is not None and Q.k != G.k:
        raise ArgumentError(f"hypothesis set has k={Q.k}, graph has k={G.k}")
    return _randomized_cover(G.k, lambda: G.shared_index_edges, seed)


def verify_domination(G: PairDigraph, dominating_set) -> bool:
    """Independent brute-force check that every vertex is in or reached from the set.

    The set is VertexPairs, or a DominatingSetCertificate on G's k, whose
    vertex_ids are read instead of its pairs.  The out-rows of the set are
    ORed by PackedRows.dominated_by, one row block at a time: blocks already
    filled first, then the others, those holding the most members of the
    set first.  The check stops with True after the first block that leaves
    no vertex uncovered, so later blocks are never computed; False is
    returned only after every row of the set was read.
    """
    if isinstance(dominating_set, DominatingSetCertificate):
        if dominating_set.k != G.k:
            raise ArgumentError(f"certificate is on k={dominating_set.k}, graph has k={G.k}")
        return G.out_edges.dominated_by(dominating_set.vertex_ids)
    return G.out_edges.dominated_by(_ids_from_pairs(list(dominating_set), G.k))


_TRIANGLE_CASES = ("i", "ii", "iii")


def _triple_edges(G: PairDigraph, a, b, c) -> np.ndarray:
    """The six edges among {a, b}, {a, c} and {b, c} for 0-based roles (a, b, c).

    The roles are integer arrays of one shape.  The result stacks, on a new
    first axis, AB->AC, AB->BC, AC->BC, BC->AC, AC->AB and BC->AB, so the
    first four give cases ii, iii and i for the roles as given.  Every one of the six is case ii or iii under some
    assignment of the indices to the roles, so a triple violates exactly
    when none of them exists.
    """
    table = G.shared_index_edges

    def edge(x, y, z):  # {x, y} -> {x, z}: star x numbers {x, i} as i, less one past x
        return table[x, y - (y > x), z - (z > x)]

    return np.stack([edge(a, b, c), edge(b, a, c), edge(c, a, b), edge(c, b, a), edge(a, c, b), edge(b, c, a)])


def _as_given_cases(six: np.ndarray) -> np.ndarray:
    """Cases i, ii, iii for the roles as given, stacked, from the edges of _triple_edges."""
    return np.stack([six[2] & six[3], six[0], six[1]])


def check_triangle(G: PairDigraph, j: int, j2: int, j3: int) -> tuple[str, ...]:
    """Which of the three triangle edge structures hold for roles (j, j2, j3).

    Returns a tuple drawn from ("i", "ii", "iii") for the roles exactly as
    given: "i" means {j, j3} <-> {j2, j3}, "ii" means {j, j2} -> {j, j3},
    "iii" means {j, j2} -> {j2, j3}.  Returns ("violation",) only when no
    case holds under any assignment of the three indices to the roles, which
    never happens for graphs built from distributions at phi = 1/6.
    """
    trio = (j, j2, j3)
    if not all(_is_json(t, Integral) for t in trio):
        raise ArgumentError(f"indices must be integers, got {trio}")
    if len(set(trio)) != 3 or any(not 1 <= t <= G.k for t in trio):
        raise ArgumentError(f"indices must be distinct and within 1..{G.k}, got {trio}")
    six = _triple_edges(G, *(np.array(trio) - 1))
    labels = tuple(c for c, hold in zip(_TRIANGLE_CASES, _as_given_cases(six)) if hold)
    return labels if labels or six.any() else ("violation",)


@dataclass(frozen=True)
class TriangleScan:
    triples: int
    violations: int
    case_counts: dict[str, int]


def scan_triangles(G: PairDigraph) -> TriangleScan:
    """Exhaustive triangle check over all C(k, 3) triples, vectorized one star at a time.

    A triple violates only if no role assignment admits any of the three edge
    structures, that is, if none of the six edges among its pairs exists;
    case_counts tallies the cases under the as-given (sorted) role order.
    For each a < k - 2 the six edges of _triple_edges for every triple
    (a, b, c), a < b < c, are contiguous slices of the shared-index table or
    their transposes, each of shape (k - a - 2, k - a - 2) and indexed
    [b - a - 1, c - a - 2]; the triples are its upper triangle, diagonal
    included.
    """
    k = G.k
    table = G.shared_index_edges
    upper = np.triu(np.ones((k, k), dtype=bool))
    violations = 0
    counts = np.zeros(len(_TRIANGLE_CASES), dtype=np.int64)
    for a in range(k - 2):
        # Star x numbers hypothesis y as y - (y > x).  So star a numbers b and c as b - 1 and c - 1,
        # star b numbers a and c as a and c - 1, star c numbers a and b as themselves.
        b = slice(a + 1, k - 1)
        c = slice(a + 2, k)
        six = np.stack([
            table[a, a:k - 2, a + 1:],  # AB->AC
            table[b, a, a + 1:],  # AB->BC
            table[c, a, b].T,  # AC->BC
            table[c, b, a].T,  # BC->AC
            table[a, a + 1:, a:k - 2].T,  # AC->AB
            table[b, a + 1:, a],  # BC->AB
        ])
        mask = upper[a + 2:, a + 2:]
        violations += int(np.count_nonzero(mask & ~six.any(axis=0)))
        counts += np.count_nonzero(_as_given_cases(six) & mask, axis=(1, 2))
    return TriangleScan(
        triples=math.comb(k, 3),
        violations=violations,
        case_counts={c: int(n) for c, n in zip(_TRIANGLE_CASES, counts)},
    )


def count_low_indegree(G: PairDigraph, r: float) -> int:
    """Number of vertices with in-degree strictly below r; at phi = 1/6 this is <= 3kr."""
    if not (math.isfinite(r) and r >= 1):
        raise ArgumentError(f"r must be a finite number of at least 1, got {r}")
    return int((G.in_degrees < r).sum())


def check_metric_triple(a: float, b: float, c: float) -> tuple[str, ...]:
    """Labels for a triangle with leg lengths (a, b, c), focusing on leg a.

    "short" when a <= b/2 and a <= c/2; "long" when a > b/3 and a > c/3.
    At least one label always applies; both can.
    """
    sides = (a, b, c)
    if not all(math.isfinite(s) and s >= 0 for s in sides):
        raise ArgumentError(f"lengths must be finite and non-negative, got {sides}")
    tol = 1e-12 * max(1.0, *sides)
    if a > b + c + tol or b > a + c + tol or c > a + b + tol:
        raise ArgumentError(f"triangle inequality violated for {sides}")
    labels = []
    if a <= b / 2 and a <= c / 2:
        labels.append("short")
    if a > b / 3 and a > c / 3:
        labels.append("long")
    return tuple(labels)


def minimum_cover_size(G: PairDigraph, targets=None, node_budget: int = 2_000_000) -> int:
    """Exact size of the smallest vertex set dominating `targets` (branch and bound).

    targets defaults to every vertex, in which case this is the exact
    domination number.  Feasible only for small instances; raises once the
    search tree exceeds node_budget.
    """
    V = G.num_vertices
    if targets is None:
        target_ids = np.arange(V)
    else:
        target_ids = np.unique(_ids_from_pairs(list(targets), G.k))
    if target_ids.size == 0:
        return 0
    bitpos = {int(t): i for i, t in enumerate(target_ids)}
    full_mask = (1 << target_ids.size) - 1

    # mask[v] = targets dominated by v (itself plus out-neighbors).
    masks = {}
    for v in range(V):
        m = 0
        if v in bitpos:
            m |= 1 << bitpos[v]
        for w in G.out_edges[v]:
            w = int(w)
            if w in bitpos:
                m |= 1 << bitpos[w]
        if m:
            masks[v] = m
    coverers_of = [[] for _ in range(target_ids.size)]
    for v, m in masks.items():
        rem = m
        while rem:
            low = rem & -rem
            coverers_of[low.bit_length() - 1].append(v)
            rem ^= low
    if any(not c for c in coverers_of):
        raise InvariantError("some target has no possible dominator")

    # Union of all coverer masks per target, for the packing lower bound.
    conflict_of = [0] * target_ids.size
    for t, cov in enumerate(coverers_of):
        u = 0
        for v in cov:
            u |= masks[v]
        conflict_of[t] = u

    def packing_lower_bound(uncovered: int) -> int:
        # Greedily pick targets whose coverer unions are disjoint; every cover
        # needs one distinct vertex per picked target.
        lb = 0
        rem = uncovered
        while rem:
            t = (rem & -rem).bit_length() - 1
            rem &= ~conflict_of[t]
            lb += 1
        return lb

    # Greedy cover for the initial upper bound.
    best = 0
    uncovered = full_mask
    while uncovered:
        v = max(masks, key=lambda u: bin(masks[u] & uncovered).count("1"))
        uncovered &= ~masks[v]
        best += 1

    nodes = 0

    def dfs(uncovered: int, size: int, best: int) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise ResamplingLimitError(
                f"exact cover search visited {nodes} search-tree nodes, over its budget of {node_budget}",
                1,
                {"nodes": nodes, "node_budget": node_budget},
            )
        if uncovered == 0:
            return min(best, size)
        if size + packing_lower_bound(uncovered) >= best:
            return best
        # Branch on the uncovered target with the fewest coverers.
        pick, fewest = -1, None
        rem = uncovered
        while rem:
            low = rem & -rem
            t = low.bit_length() - 1
            n = sum(1 for v in coverers_of[t] if masks[v] & uncovered)
            if fewest is None or n < fewest:
                fewest, pick = n, t
            rem ^= low
        cands = sorted(
            (v for v in coverers_of[pick]),
            key=lambda v: -bin(masks[v] & uncovered).count("1"),
        )
        for v in cands:
            best = dfs(uncovered & ~masks[v], size + 1, best)
        return best

    return dfs(full_mask, 0, best)


# Peak bytes per edge of an export: the edge list of graph_to_json_dict and its JSON text at
# indent 2 (measured 531 to 563 at k = 24 to 40).
_EXPORT_BYTES_PER_EDGE = 570


def graph_to_json_dict(G: PairDigraph) -> dict:
    """Edge-list export; quadruple [a, b, c, d] means {a, b} -> {c, d} (1-based).

    An export whose edge list and JSON text would not fit in the memory
    available raises UnsupportedSizeError before the list is built.
    """
    E = G.edge_count
    _check_fits(_EXPORT_BYTES_PER_EDGE * E, f"the JSON export of the {E} edges of a k={G.k} graph")
    pairs = all_pairs(G.k) + 1
    sources, targets = G.edge_ids()
    edges = np.concatenate([pairs[sources], pairs[targets]], axis=1).tolist()
    return {"k": G.k, "phi": G.phi, "edges": edges}
