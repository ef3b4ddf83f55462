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
import math
import operator
import sys
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

# Most elements of one dense float64 array (1 GiB): an n-length array of a
# graph's nodes, or a dense block that the fits form. It also keeps every
# edge key lo * n + hi far inside int64.
DENSE_ELEMENT_LIMIT = 2**27


def _check_dense_size(caller, array, shape, remedy, verb="return"):
    """Refuse a dense ``shape`` float64 ``array`` over ``DENSE_ELEMENT_LIMIT``
    elements by name and shape, before anything is computed."""
    if math.prod(int(s) for s in shape) > DENSE_ELEMENT_LIMIT:
        raise ValueError(
            f"{caller} would {verb} a dense {' x '.join(map(str, shape))} {array}, "
            f"over the {DENSE_ELEMENT_LIMIT}-element limit; {remedy}"
        )


def _finite(value) -> bool:
    """Whether the real ``value`` is at most float64's largest in magnitude:
    false for NaN, infinities and integers past float64's range, on which
    numpy's ``isfinite`` raises ``TypeError``."""
    return abs(value) <= sys.float_info.max


def _is_int64(value) -> bool:
    """Whether ``value`` is an integer within int64; it never raises."""
    try:
        return int(value) == value and -(2**63) <= value < 2**63
    except (TypeError, ValueError, OverflowError):
        return False


def _int64(values, what="node index"):
    """``values`` as an int64 array, the one integer rule of every index the
    program takes: an int64 array passes through uncopied, and a value that is
    not an integer within int64 raises ``ValueError`` by value, not cast."""
    x = np.asarray(values)
    if isinstance(values, (list, tuple)) and x.dtype.kind in "uf":
        # numpy holds a list's int past int64, or its ints among floats, as a
        # rounded number: each value is checked and converted as given.
        x = np.asarray(values, dtype=object)
    if x.dtype == np.int64:
        return x
    if x.dtype.kind in "biuf":
        with np.errstate(invalid="ignore"):  # nan, inf and |x| >= 2**63 cast to -2**63
            exact = x.astype(np.int64) == x
    else:
        exact = np.array([_is_int64(value) for value in x.flat], dtype=bool).reshape(x.shape)
    if not exact.all():
        raise ValueError(f"{what} {x[~exact][0]} is not an int64 integer")
    return x.astype(np.int64)


def _int64_token(text) -> int:
    """``int(text)``, which refuses a value past int64 as it does a non-integer."""
    value = int(text)
    if not _is_int64(value):
        raise ValueError(f"{text} is not an int64 integer")
    return value


def _node_indices(nodes, n, role):
    """``nodes`` as a 1-d int64 array of nodes in [0, n), all n when None;
    another shape or a node outside raises ``ValueError`` naming ``role``."""
    if nodes is None:
        return np.arange(n, dtype=np.int64)
    x = _int64(nodes)
    if x.ndim != 1:
        raise ValueError(f"{role} nodes must be a 1-d node index array")
    if x.size and (x.min() < 0 or x.max() >= n):
        raise ValueError(f"{role} node out of range [0, {n})")
    return x


def _interleave(a, b):
    """a[0], b[0], a[1], b[1], ...: both endpoints, edge by edge."""
    return np.stack([a, b], axis=1).ravel()


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with positive edge weights.

    The constructor takes any edge arrays, checks them, and stores them
    canonical: read-only arrays ``u``, ``v`` (int64) and ``w`` (float64)
    with u < v, one entry per unordered pair, sorted by (u, v), the weights
    of a repeated pair summed in input order. Nodes are 0..node_count-1;
    isolated nodes are allowed, self-loops are not. A node count of None
    is one past the largest node index.
    """

    node_count: int | None
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        u, v = _int64(self.u), _int64(self.v)
        if self.node_count is None:
            n = int(max(u.max(initial=-1), v.max(initial=-1))) + 1
        else:
            n = operator.index(self.node_count)
        if n < 0:
            raise ValueError("node_count must be nonnegative")
        if n > DENSE_ELEMENT_LIMIT:
            raise ValueError(f"node count {n} exceeds the {DENSE_ELEMENT_LIMIT}-element "
                             "limit of an n-length node array")
        object.__setattr__(self, "node_count", n)
        w = np.asarray(self.w, dtype=float)
        if not (u.ndim == 1 and u.shape == v.shape == w.shape):
            raise ValueError("u, v and w must be matching 1-d arrays")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if hi.max(initial=-1) >= n:
            raise ValueError(f"node index {hi.max()} exceeds declared node count {n}")
        for bad, message in (
            (u == v, "self-loop at node {lo}"),
            (lo < 0, "edge ({lo}, {hi}) out of range"),
            (~((w > 0) & np.isfinite(w)), "non-positive weight on edge ({lo}, {hi})"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(message.format(lo=lo[i], hi=hi[i]))
        keys, inverse = np.unique(lo * n + hi, return_inverse=True)
        w = np.bincount(inverse, weights=w, minlength=keys.size).astype(float, copy=False)
        for name, arr in zip("uvw", (keys // n, keys % n, w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_edges(cls, edges, node_count=None) -> "WeightedGraph":
        """Build from (u, v[, w]) rows: an iterable of tuples or an (m, 3) array.

        Node indices must be integers; the node count defaults to one past
        the largest. The constructor checks the edges and merges repeats.
        """
        if not isinstance(edges, np.ndarray):
            edges = [e if len(e) == 3 else (*e, 1.0) for e in edges]
        rows = np.asarray(edges, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, 3)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"expected (u, v[, w]) edge rows, got shape {rows.shape}")
        return cls(node_count, *rows.T)

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


def parse_edge_list(text: str) -> WeightedGraph:
    """Parse the whitespace-separated edge-list format.

    Lines are ``u v`` or ``u v w``; ``#`` starts a comment; an optional first
    data line ``nodes N`` declares the node count (otherwise it is one past
    the largest index seen). Duplicate edges are merged by summing weights;
    self-loops are dropped with a warning. Errors carry 1-based line numbers.
    Lines end at ``\n``, ``\r\n`` or a lone ``\r``, as in a file that
    :func:`read_edge_list` opens in text mode, and a leading UTF-8
    byte-order mark is dropped, as that function drops it, so a file and
    its text parse alike.

    A valid file is read in one vectorized pass (``_parse_fast``). Whenever
    that pass declines, the line loop (``_parse_lines``) reads the file
    instead and names the first bad line; the two give identical edges on
    every file the fast pass accepts.
    """
    text = text.removeprefix("\ufeff")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    parsed = _parse_fast(text)
    if parsed is None:
        parsed = _parse_lines(text)
    u, v, w, declared, self_loops = parsed
    if self_loops:
        warnings.warn(f"dropped {self_loops} self-loop(s)", stacklevel=2)
    return WeightedGraph(declared, u, v, w)


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
    if "\r" in text and text.count("\r") != text.count("\r\n"):
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
            u, v = _int64_token(tokens[0]), _int64_token(tokens[1])
        except ValueError:
            raise ValueError(f"invalid node index at line {lineno}") from None
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
    """:func:`parse_edge_list` of a UTF-8 file, with or without a byte-order mark."""
    with open(path, "r", encoding="utf-8-sig") as fh:
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
