"""Weighted undirected graphs and their Laplacians.

Graphs are stored as canonical edge arrays (u < v, one entry per pair,
sorted, strictly positive weights). Laplacians come in two kinds:

* ``"unnormalized"``:   L = D - W
* ``"sym_normalized"``: D^{-1/2} (D - W) D^{-1/2}, with the convention that
  isolated nodes get a zero (not infinite) scaling entry, so their diagonal
  is 0 and they contribute null directions.

Both are exactly symmetric by construction (the sparse structure is built
symmetrically, so L != L.T has zero stored entries).
"""

import io
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "WeightedGraph",
    "LaplacianOperator",
    "parse_edge_list",
    "read_edge_list",
    "build_laplacian",
]

LAPLACIAN_KINDS = ("unnormalized", "sym_normalized")

# Largest n with n * n - 1 in int64, so that every edge key lo * n + hi fits.
_MAX_NODE_COUNT = 3_037_000_499
_INT64_MAX = np.iinfo(np.int64).max


def _interleave(a, b):
    """a[0], b[0], a[1], b[1], ...: both endpoints, edge by edge."""
    return np.stack([a, b], axis=1).ravel()


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with positive edge weights.

    Edges are held as read-only arrays ``u``, ``v`` (int64) and ``w``
    (float64) with u < v, at most one entry per unordered pair, sorted by
    (u, v). Nodes are 0..node_count-1; isolated nodes are allowed.
    """

    node_count: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if self.node_count < 0:
            raise ValueError("node_count must be nonnegative")
        u = np.array(self.u, dtype=np.int64)
        v = np.array(self.v, dtype=np.int64)
        w = np.array(self.w, dtype=float)
        if not (u.ndim == 1 and u.shape == v.shape == w.shape):
            raise ValueError("u, v and w must be matching 1-d arrays")
        for name, arr in (("u", u), ("v", v), ("w", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        out_of_range = ~((0 <= u) & (u < v) & (v < self.node_count))
        # Each pair against the one before it: sorted by (u, v), a repeat
        # is a duplicate and a step back is out of order.
        same_u = u[1:] == u[:-1]
        duplicate = np.zeros(u.shape, dtype=bool)
        duplicate[1:] = same_u & (v[1:] == v[:-1])
        unordered = np.zeros(u.shape, dtype=bool)
        unordered[1:] = (u[1:] < u[:-1]) | (same_u & (v[1:] < v[:-1]))
        bad_weight = ~((w > 0) & np.isfinite(w))
        bad = out_of_range | duplicate | unordered | bad_weight
        if np.any(bad):
            i = int(np.argmax(bad))
            edge = f"({u[i]}, {v[i]})"
            if out_of_range[i]:
                raise ValueError(f"edge {edge} out of range or not canonical")
            if duplicate[i]:
                raise ValueError(f"duplicate edge {edge}")
            if unordered[i]:
                raise ValueError(f"edge {edge} out of (u, v) order: not canonical")
            raise ValueError(f"non-positive weight on edge {edge}")

    @classmethod
    def from_edges(cls, edges, node_count=None) -> "WeightedGraph":
        """Build from (u, v[, w]) rows: an iterable of tuples or an (m, 3) array.

        Parallel/duplicate entries for the same unordered pair are merged by
        summing their weights in input order. Self-loops are rejected.
        """
        if not isinstance(edges, np.ndarray):
            edges = [e if len(e) == 3 else (*e, 1.0) for e in edges]
        rows = np.asarray(edges, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, 3)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"expected (u, v[, w]) edge rows, got shape {rows.shape}")
        return cls._from_arrays(
            rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64), rows[:, 2],
            node_count,
        )

    @classmethod
    def _from_arrays(cls, u, v, w, node_count=None) -> "WeightedGraph":
        """Canonicalize int64 endpoint arrays ``u``, ``v`` and float64 weights.

        The merge and sort key ``lo * n + hi`` stays inside int64 for node
        counts up to ``_MAX_NODE_COUNT``; larger counts are refused.
        """
        loops = np.flatnonzero(u == v)
        if loops.size:
            raise ValueError(f"self-loop at node {u[loops[0]]}")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        max_node = int(hi.max(initial=-1))
        n = (max_node + 1) if node_count is None else int(node_count)
        if n > _MAX_NODE_COUNT:
            raise ValueError(
                f"node count {n} exceeds the largest supported, {_MAX_NODE_COUNT}"
            )
        if max_node >= n:
            raise ValueError(
                f"node index {max_node} exceeds declared node count {n}"
            )
        if lo.size and lo.min() < 0:
            first = np.lexsort((hi, lo))[0]
            raise ValueError(
                f"edge ({lo[first]}, {hi[first]}) out of range or not canonical"
            )
        keys, inverse = np.unique(lo * n + hi, return_inverse=True)
        return cls(
            node_count=n,
            u=keys // n,
            v=keys % n,
            w=np.bincount(inverse, weights=w, minlength=keys.size),
        )

    @property
    def edge_count(self) -> int:
        return int(self.u.size)

    def degrees(self) -> np.ndarray:
        """Weighted degree of every node (zero for isolated nodes).

        Each edge adds its weight to u, then to v, edge by edge: the order of
        a per-edge loop. Summing all u ends before all v ends can change the
        last bit, and with it the Laplacian's cache hash.
        """
        deg = np.bincount(
            _interleave(self.u, self.v),
            weights=np.repeat(self.w, 2),
            minlength=self.node_count,
        )
        return deg.astype(float, copy=False)  # bincount of no edges is int


@dataclass(frozen=True)
class LaplacianOperator:
    """A graph Laplacian with its kind tag and node degrees."""

    kind: str
    matrix: sp.csr_array
    degrees: np.ndarray

    def __post_init__(self):
        if self.kind not in LAPLACIAN_KINDS:
            raise ValueError(f"unknown laplacian kind {self.kind!r}")

    @property
    def node_count(self) -> int:
        return self.matrix.shape[0]

    def validate(self, tol_scale: float = 1e-12):
        """Cheap structural checks: exact symmetry, row sums / diagonal."""
        m = self.matrix
        asym = (m - m.T)
        if asym.nnz and np.max(np.abs(asym.data)) != 0.0:
            raise AssertionError("laplacian is not symmetric")
        max_deg = max(float(np.max(self.degrees)), 1.0) if self.degrees.size else 1.0
        if self.kind == "unnormalized":
            row_sums = np.asarray(m.sum(axis=1)).ravel()
            if self.node_count and np.max(np.abs(row_sums)) > tol_scale * max_deg:
                raise AssertionError("unnormalized laplacian row sums not ~0")
        else:
            diag = m.diagonal()
            expect = np.where(self.degrees > 0, 1.0, 0.0)
            if self.node_count and np.max(np.abs(diag - expect)) > 1e-12:
                raise AssertionError("sym_normalized diagonal not 1 (or 0 if isolated)")


def parse_edge_list(text: str) -> WeightedGraph:
    """Parse the whitespace-separated edge-list format.

    Lines are ``u v`` or ``u v w``; ``#`` starts a comment; an optional first
    data line ``nodes N`` declares the node count (otherwise it is one past
    the largest index seen). Duplicate edges are merged by summing weights;
    self-loops are dropped with a warning. Errors carry 1-based line numbers.

    A valid file is read in one vectorized pass (``_parse_fast``). Whenever
    that pass declines, the line loop (``_parse_lines``) reads the file
    instead and names the first bad line; the two give identical edges on
    every file the fast pass accepts.
    """
    parsed = _parse_fast(text)
    if parsed is None:
        parsed = _parse_lines(text)
    u, v, w, declared, self_loops = parsed
    if self_loops:
        warnings.warn(f"dropped {self_loops} self-loop(s)", stacklevel=2)
    return WeightedGraph._from_arrays(u, v, w, node_count=declared)


_ROWS = {
    2: np.dtype([("u", np.int64), ("v", np.int64)]),
    3: np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)]),
}


def _next_data_line(text, start):
    """Tokens of the first line at or after offset ``start`` that holds data
    once its comment is cut, and the offset just past it; None if none does."""
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end + 1
        tokens = text[start:end].split("#", 1)[0].split()
        if tokens:
            return tokens, end
        start = end
    return None


def _nodes_header(tokens, lineno):
    """The count that the tokens of a ``nodes N`` line declare."""
    if len(tokens) != 2:
        raise ValueError(f"malformed nodes header at line {lineno}")
    try:
        declared = int(tokens[1])
    except ValueError:
        raise ValueError(f"malformed nodes header at line {lineno}") from None
    if declared < 0:
        raise ValueError(f"negative node count at line {lineno}")
    return declared


def _parse_fast(text):
    """``(u, v, w, declared, self_loops)`` of a valid file from one
    ``np.loadtxt`` pass, or None to decline.

    It declines on anything the line loop might read differently or reject:
    a lone carriage return (the loop splits lines at ``\\n`` only), a
    malformed header, no edge rows, rows that are not all ``u v`` or all
    ``u v w``, a token numpy cannot convert (numpy reads no ``1_0`` and no
    index past int64), any numpy warning (older numpy read ``1.0`` as an
    int with a warning), a negative index or a weight that is not positive
    and finite.
    """
    if text.count("\r") != text.count("\r\n"):
        return None
    first = _next_data_line(text, 0)
    if first is None:
        return None
    tokens, end = first
    declared, body = None, text
    if tokens[0] == "nodes":
        try:
            declared = _nodes_header(tokens, lineno=None)
        except ValueError:
            return None
        body = text[end:]
        first = _next_data_line(text, end)
        if first is None:
            return None
        tokens = first[0]
    if len(tokens) not in _ROWS:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.StringIO(body), dtype=_ROWS[len(tokens)],
                              comments="#", ndmin=1)
    except (ValueError, Warning):
        return None
    u, v = rows["u"], rows["v"]
    w = rows["w"] if len(tokens) == 3 else np.ones(rows.size)
    if u.min() < 0 or v.min() < 0 or not np.all((w > 0) & np.isfinite(w)):
        return None
    keep = u != v
    return u[keep], v[keep], w[keep], declared, int(rows.size - keep.sum())


def _parse_lines(text):
    """``(u, v, w, declared, self_loops)`` read line by line; raises on the
    first bad line with its 1-based number."""
    declared = None
    us, vs, ws = [], [], []
    self_loops = 0
    saw_data = False
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not saw_data and tokens[0] == "nodes":
            declared = _nodes_header(tokens, lineno)
            saw_data = True
            continue
        saw_data = True
        if len(tokens) not in (2, 3):
            raise ValueError(f"expected 'u v [w]' at line {lineno}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"invalid node index at line {lineno}") from None
        if max(u, v) > _INT64_MAX:
            raise ValueError(f"invalid node index at line {lineno}")
        if u < 0 or v < 0:
            raise ValueError(f"negative node index at line {lineno}")
        w = 1.0
        if len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError:
                raise ValueError(f"invalid weight at line {lineno}") from None
        if not (w > 0 and np.isfinite(w)):
            raise ValueError(f"non-positive weight at line {lineno}")
        if u == v:
            self_loops += 1
            continue
        us.append(u)
        vs.append(v)
        ws.append(w)
    return (np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
            np.array(ws, dtype=np.float64), declared, self_loops)


def read_edge_list(path) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def build_laplacian(graph: WeightedGraph, kind: str = "unnormalized") -> LaplacianOperator:
    """Assemble L = D - W or its symmetric normalization.

    The matrix is built from a symmetric COO pattern so that symmetry holds
    bitwise, not just to rounding.
    """
    if kind not in LAPLACIAN_KINDS:
        raise ValueError(f"unknown laplacian kind {kind!r}")
    n = graph.node_count
    deg = graph.degrees()
    if kind == "unnormalized":
        off = -graph.w
        diag = deg
    else:
        scale = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        off = -graph.w * scale[graph.u] * scale[graph.v]
        diag = np.where(deg > 0, 1.0, 0.0)
    nodes = np.arange(n)
    rows = np.concatenate([_interleave(graph.u, graph.v), nodes])
    cols = np.concatenate([_interleave(graph.v, graph.u), nodes])
    vals = np.concatenate([np.repeat(off, 2), diag])
    mat = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return LaplacianOperator(kind=kind, matrix=mat, degrees=deg)
