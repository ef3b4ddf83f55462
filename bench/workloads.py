"""Seeded input generators and independent oracles for the benchmark.

Everything here is plain numpy/scipy and never imports ``graph_matern``: the
program under test sees only the files these functions write, and the
oracles that check its outputs do not share its code paths.

Three workloads, each a function of one seed:

* ``cora_classify``: a planted-partition graph with the shape of the Cora
  citation graph (2485 nodes, 5069 edges, 7 classes) and a label on every
  node.
* ``traffic_regression``: a road-like planar graph (a lattice with a share
  of its edges removed, kept connected, random edge weights) and node
  targets drawn from a Matern prior (nu = 2) plus Gaussian noise.
* ``mesh_gmrf``: an 8-neighbour weighted lattice with a GMRF (nu = 2)
  latent field, noisy observations at some nodes and separate query nodes.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Class shares of the seven Cora classes (largest connected component).
CORA_SHARES = (0.13, 0.08, 0.15, 0.30, 0.16, 0.11, 0.07)


@dataclass
class Graph:
    """Canonical edge arrays (u < v, unique pairs) of an undirected graph."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def edges(self) -> int:
        return int(self.u.size)


@dataclass
class Inputs:
    """One generated workload: its graph plus labels or targets."""

    graph: Graph
    props: dict
    labels: np.ndarray | None = None
    targets: np.ndarray | None = None
    extra: dict = field(default_factory=dict)


def _canonical(n, u, v, w) -> Graph:
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], np.asarray(w, dtype=float)[order]
    if np.any(lo == hi):
        raise ValueError("generator produced a self-loop")
    if np.any((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])):
        raise ValueError("generator produced a duplicate edge")
    return Graph(n=n, u=lo, v=hi, w=w)


def laplacian(graph: Graph, kind: str = "unnormalized") -> sp.csr_array:
    """Reference Laplacian assembled from the edge arrays (no package code)."""
    n = graph.n
    deg = np.bincount(graph.u, graph.w, n) + np.bincount(graph.v, graph.w, n)
    if kind == "unnormalized":
        off = -graph.w
        diag = deg
    elif kind == "sym_normalized":
        scale = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        off = -graph.w * scale[graph.u] * scale[graph.v]
        diag = (deg > 0).astype(float)
    else:
        raise ValueError(f"unknown laplacian kind {kind!r}")
    rows = np.concatenate([graph.u, graph.v, np.arange(n)])
    cols = np.concatenate([graph.v, graph.u, np.arange(n)])
    vals = np.concatenate([off, off, diag])
    return sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(n, n)))


def csr_matvec(mat: sp.csr_array, x: np.ndarray) -> np.ndarray:
    """y = A x from the raw CSR arrays, without scipy's sparse product."""
    x = np.asarray(x, dtype=float)
    cols = x.reshape(x.shape[0], -1)
    prod = mat.data[:, None] * cols[mat.indices]
    out = np.zeros((mat.shape[0], cols.shape[1]))
    filled = np.diff(mat.indptr) > 0
    if prod.shape[0]:
        out[filled] = np.add.reduceat(prod, mat.indptr[:-1][filled], axis=0)
    return out.reshape((mat.shape[0],) + x.shape[1:])


def _spanning_edges(rng, nodes):
    """Random recursive tree over ``nodes``: connected, len(nodes)-1 edges."""
    order = rng.permutation(nodes)
    parents = order[(rng.random(order.size - 1) * np.arange(1, order.size)).astype(np.int64)]
    return parents, order[1:]


def cora_like(seed: int, n: int = 2485, n_edges: int = 5069,
              shares=CORA_SHARES, homophily: float = 0.81) -> Inputs:
    """Planted-partition graph with the Cora shape, connected, unit weights.

    Each class is first spanned by a random tree and the classes are chained
    together, so the graph is one component. The remaining edges are drawn
    within classes until a share ``homophily`` of all edges is intra-class
    (as in Cora), then between classes.
    """
    rng = np.random.default_rng([seed, 1])
    k = len(shares)
    sizes = np.floor(np.asarray(shares) * n).astype(np.int64)
    sizes[np.argmax(sizes)] += n - sizes.sum()
    labels = rng.permutation(np.repeat(np.arange(k), sizes))
    members = [np.flatnonzero(labels == c) for c in range(k)]

    pairs = set()
    for nodes in members:
        for a, b in zip(*_spanning_edges(rng, nodes)):
            pairs.add((min(a, b), max(a, b)))
    for c in range(k - 1):
        a, b = rng.choice(members[c]), rng.choice(members[c + 1])
        pairs.add((min(a, b), max(a, b)))
    if len(pairs) > n_edges:
        raise ValueError(f"{n_edges} edges cannot connect {n} nodes")
    intra = int(round(homophily * n_edges)) - (len(pairs) - (k - 1))
    target = len(pairs) + max(intra, 0)
    while len(pairs) < target:
        a, b = rng.choice(members[rng.choice(k, p=sizes / n)], size=2)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    while len(pairs) < n_edges:
        a, b = rng.choice(n, size=2)
        if labels[a] != labels[b]:
            pairs.add((min(a, b), max(a, b)))
    uv = np.array(sorted(pairs), dtype=np.int64)
    graph = _canonical(n, uv[:, 0], uv[:, 1], np.ones(len(uv)))
    props = {"n": n, "edges": graph.edges, "classes": k,
             "laplacian": "sym_normalized", "homophily": homophily,
             "majority_share": float(np.max(sizes) / n)}
    return Inputs(graph=graph, props=props, labels=labels)


def _lattice(side: int, diagonals: bool):
    idx = np.arange(side * side).reshape(side, side)
    blocks = [(idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :])]
    if diagonals:
        blocks += [(idx[:-1, :-1], idx[1:, 1:]), (idx[:-1, 1:], idx[1:, :-1])]
    u = np.concatenate([a.ravel() for a, _ in blocks])
    v = np.concatenate([b.ravel() for _, b in blocks])
    return u, v, len(blocks[0][0].ravel()) + len(blocks[1][0].ravel())


def _lattice_tree(rng, n, u, v) -> np.ndarray:
    """Mask of a random spanning tree of the edges (Kruskal, random order)."""
    parent = np.arange(n)

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    mask = np.zeros(u.size, dtype=bool)
    for e in rng.permutation(u.size).tolist():
        a, b = root(u[e]), root(v[e])
        if a != b:
            parent[a] = b
            mask[e] = True
    return mask


def matern_field(rng, lap: sp.csr_array, kappa: float, count: int = 1):
    """Draws from N(0, A^-2), A = (4 / kappa^2) I + L: the nu = 2 Matern prior.

    With A symmetric, x = A^-1 z has covariance A^-2 exactly, so one sparse
    factorization of A gives exact samples without any eigenpairs.
    """
    n = lap.shape[0]
    a = (4.0 / kappa**2) * sp.eye_array(n, format="csc") + sp.csc_array(lap)
    z = rng.standard_normal((n, count))
    return splu(a).solve(z)


def road_like(seed: int, side: int = 45, drop: float = 0.2, kappa: float = 10.0,
              noise2: float = 0.05, train: int = 800, eigenpairs: int = 500) -> Inputs:
    """Lattice with ``drop`` of its edges removed outside a random spanning
    tree (so it stays connected) and edge weights in [0.5, 2]. Targets are a
    draw from the nu = 2 Matern prior scaled to unit average variance, plus
    noise of variance ``noise2``."""
    rng = np.random.default_rng([seed, 2])
    n = side * side
    u, v, _ = _lattice(side, diagonals=False)
    tree = _lattice_tree(rng, n, u, v)
    optional = np.flatnonzero(~tree)
    removed = rng.choice(optional, size=int(round(drop * u.size)), replace=False)
    keep = np.ones(u.size, dtype=bool)
    keep[removed] = False
    u, v = u[keep], v[keep]
    w = np.round(rng.uniform(0.5, 2.0, size=u.size), 4)
    graph = _canonical(n, u, v, w)

    lap = laplacian(graph)
    latent = matern_field(rng, lap, kappa)[:, 0]
    a_dense = (4.0 / kappa**2) * np.eye(n) + lap.toarray()
    a_inv = np.linalg.inv(a_dense)
    cov = a_inv @ a_inv
    scale = float(np.mean(np.diag(cov)))
    latent /= np.sqrt(scale)
    targets = latent + np.sqrt(noise2) * rng.standard_normal(n)
    props = {"n": n, "edges": graph.edges, "l": eigenpairs, "m": train,
             "laplacian": "unnormalized", "noise2": noise2, "kappa": kappa}
    extra = {"prior_cov": cov / scale, "noise2": noise2}
    return Inputs(graph=graph, props=props, targets=targets, extra=extra)


def oracle_test_mse(prior_cov, noise2, targets, train_nodes, test_nodes) -> float:
    """Held-out MSE of the exact posterior mean at the true hyperparameters."""
    k_xx = prior_cov[np.ix_(train_nodes, train_nodes)] + noise2 * np.eye(train_nodes.size)
    k_tx = prior_cov[np.ix_(test_nodes, train_nodes)]
    mean = k_tx @ np.linalg.solve(k_xx, targets[train_nodes])
    return float(np.mean((mean - targets[test_nodes]) ** 2))


def mesh_like(seed: int, side: int = 224, kappa: float = 10.0, noise2: float = 0.01,
              observed: int = 2000, queries: int = 100) -> Inputs:
    """8-neighbour lattice (diagonal weights halved) with a nu = 2 GMRF field
    observed with noise at ``observed`` nodes and ``queries`` other nodes."""
    rng = np.random.default_rng([seed, 3])
    n = side * side
    u, v, n_axis = _lattice(side, diagonals=True)
    w = np.round(rng.uniform(0.5, 1.5, size=u.size), 4)
    w[n_axis:] = np.round(0.5 * w[n_axis:], 4)
    graph = _canonical(n, u, v, w)
    latent = matern_field(rng, laplacian(graph), kappa)[:, 0]
    picks = rng.choice(n, size=observed + queries, replace=False)
    obs, query = np.sort(picks[:observed]), np.sort(picks[observed:])
    targets = latent[obs] + np.sqrt(noise2) * rng.standard_normal(observed)
    props = {"n": n, "edges": graph.edges, "nu": 2, "kappa": kappa,
             "observed": observed, "queries": queries, "eigenpairs": 32,
             "laplacian": "unnormalized", "noise2": noise2}
    extra = {"observed": obs, "query": query, "latent": latent}
    return Inputs(graph=graph, props=props, targets=targets, extra=extra)


def write_edge_list(path, graph: Graph):
    """``nodes N`` header then ``u v w`` lines, weights in shortest repr."""
    lines = [f"nodes {graph.n}\n"]
    lines += [f"{a} {b} {c!r}\n" for a, b, c in
              zip(graph.u.tolist(), graph.v.tolist(), graph.w.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def write_pairs_csv(path, header, nodes, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(f"{a},{b!r}\n" for a, b in zip(nodes.tolist(), values.tolist()))
