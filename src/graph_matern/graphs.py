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
from scipy.sparse import csgraph

__all__ = [
    "WeightedGraph",
    "LaplacianOperator",
    "parse_edge_list",
    "read_edge_list",
    "read_node_id_map",
    "build_laplacian",
    "connected_components",
]

LAPLACIAN_KINDS = ("unnormalized", "sym_normalized")


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
        duplicate = np.ones(u.shape, dtype=bool)
        duplicate[np.unique(u * self.node_count + v, return_index=True)[1]] = False
        bad_weight = ~((w > 0) & np.isfinite(w))
        bad = out_of_range | duplicate | bad_weight
        if np.any(bad):
            i = int(np.argmax(bad))
            edge = f"({u[i]}, {v[i]})"
            if out_of_range[i]:
                raise ValueError(f"edge {edge} out of range or not canonical")
            if duplicate[i]:
                raise ValueError(f"duplicate edge {edge}")
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
        u, v = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
        loops = np.flatnonzero(u == v)
        if loops.size:
            raise ValueError(f"self-loop at node {u[loops[0]]}")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        max_node = int(hi.max(initial=-1))
        n = (max_node + 1) if node_count is None else int(node_count)
        if max_node >= n:
            raise ValueError(
                f"node index {max_node} exceeds declared node count {n}"
            )
        # Shifted so negative indices (rejected by __post_init__) still merge
        # and sort as (u, v) pairs do.
        base = int(lo.min(initial=0))
        span = n - base
        keys, inverse = np.unique((lo - base) * span + (hi - base), return_inverse=True)
        return cls(
            node_count=n,
            u=keys // span + base,
            v=keys % span + base,
            w=np.bincount(inverse, weights=rows[:, 2], minlength=keys.size),
        )

    @property
    def edge_count(self) -> int:
        return int(self.u.size)

    def adjacency(self) -> sp.csr_array:
        """Symmetric weighted adjacency matrix."""
        n = self.node_count
        rows = np.concatenate([self.u, self.v])
        cols = np.concatenate([self.v, self.u])
        vals = np.concatenate([self.w, self.w])
        return sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()

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
    """
    declared = None
    rows = []
    self_loops = 0
    saw_data = False
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not saw_data and tokens[0] == "nodes":
            if len(tokens) != 2:
                raise ValueError(f"malformed nodes header at line {lineno}")
            try:
                declared = int(tokens[1])
            except ValueError:
                raise ValueError(f"malformed nodes header at line {lineno}") from None
            if declared < 0:
                raise ValueError(f"negative node count at line {lineno}")
            saw_data = True
            continue
        saw_data = True
        if len(tokens) not in (2, 3):
            raise ValueError(f"expected 'u v [w]' at line {lineno}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
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
        rows.append((u, v, w))

    if self_loops:
        warnings.warn(f"dropped {self_loops} self-loop(s)", stacklevel=2)
    return WeightedGraph.from_edges(np.array(rows, dtype=float), node_count=declared)


def read_edge_list(path) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def read_node_id_map(path) -> dict:
    """Read an ``id,index`` CSV mapping external ids to node indices.

    A header line ``id,index`` is skipped if present. Indices must be unique
    nonnegative integers; ids must be unique.
    """
    mapping = {}
    used = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ValueError(f"expected 'id,index' at line {lineno}")
            if lineno == 1 and parts == ["id", "index"]:
                continue
            key, idx_text = parts
            try:
                idx = int(idx_text)
            except ValueError:
                raise ValueError(f"invalid index at line {lineno}") from None
            if idx < 0:
                raise ValueError(f"negative index at line {lineno}")
            if key in mapping:
                raise ValueError(f"duplicate id {key!r} at line {lineno}")
            if idx in used:
                raise ValueError(f"duplicate index {idx} at line {lineno}")
            mapping[key] = idx
            used.add(idx)
    return mapping


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


def connected_components(graph: WeightedGraph) -> np.ndarray:
    """Component label per node (labels are 0..k-1, order scipy's)."""
    if graph.node_count == 0:
        return np.zeros(0, dtype=np.int64)
    _, labels = csgraph.connected_components(graph.adjacency(), directed=False)
    return labels.astype(np.int64)
