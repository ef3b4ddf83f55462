"""Shared test fixtures: graph generators and independent dense oracles.

Oracles here deliberately avoid the library's spectral code paths: they work
from dense numpy/scipy primitives (eigh, expm, solve) so that agreement is
evidence, not circularity.
"""

import dataclasses
import tracemalloc

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import lapack

from graph_matern import (
    LaplacianOperator,
    SpectralBasis,
    WeightedGraph,
    build_laplacian,
    spectral,
)


class PeakMemory:
    """``with PeakMemory() as mem:`` traces the block's allocations;
    afterwards ``mem.peak`` is the most bytes they held at once."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def wide_basis(kind="unnormalized"):
    """12000 nodes, 3 orthonormal pairs: every product with it is small, but
    a dense 12000 x 12000 array would hold 1.44e8 elements (1.15 GB), over
    ``DENSE_ELEMENT_LIMIT``."""
    vectors = np.linalg.qr(np.random.default_rng(31).standard_normal((12000, 3)))[0]
    return SpectralBasis(np.array([0.0, 0.5, 1.0]), vectors, 12000, kind)


def random_graph(rng, n, p=0.3, wmin=0.2, wmax=2.0):
    """Erdos-Renyi style weighted graph; may be disconnected."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, float(rng.uniform(wmin, wmax))))
    return WeightedGraph.from_edges(edges, node_count=n)


def random_connected_graph(rng, n, extra=0.15, wmin=0.2, wmax=2.0):
    """Random spanning tree plus extra edges: always one component."""
    edges = []
    order = rng.permutation(n)
    for k in range(1, n):
        parent = order[rng.integers(0, k)]
        edges.append((int(parent), int(order[k]), float(rng.uniform(wmin, wmax))))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra:
                edges.append((i, j, float(rng.uniform(wmin, wmax))))
    return WeightedGraph.from_edges(edges, node_count=n)


def leading_pairs(basis, k):
    """The lowest ``k`` eigenpairs of ``basis``, sliced."""
    return dataclasses.replace(
        basis, eigenvalues=basis.eigenvalues[:k], eigenvectors=basis.eigenvectors[:, :k]
    )


def path_graph(n, weight=1.0):
    return WeightedGraph.from_edges(
        [(i, i + 1, weight) for i in range(n - 1)], node_count=n
    )


def complete_graph(n, weight=1.0):
    return WeightedGraph.from_edges(
        [(i, j, weight) for i in range(n) for j in range(i + 1, n)], node_count=n
    )


def star_graph(n_leaves, weight=1.0):
    """Hub is node 0."""
    return WeightedGraph.from_edges(
        [(0, i, weight) for i in range(1, n_leaves + 1)], node_count=n_leaves + 1
    )


def lattice_graph(side, diagonals=False):
    """side x side grid, node r * side + c; unit 4-neighbour edges, plus
    both diagonals of every cell at weight 0.5 with ``diagonals``."""
    idx = np.arange(side * side).reshape(side, side)
    pairs = [(idx[:, :-1], idx[:, 1:], 1.0), (idx[:-1, :], idx[1:, :], 1.0)]
    if diagonals:
        pairs += [(idx[:-1, :-1], idx[1:, 1:], 0.5), (idx[:-1, 1:], idx[1:, :-1], 0.5)]
    rows = [np.column_stack([a.ravel(), b.ravel(), np.full(a.size, w)]) for a, b, w in pairs]
    return WeightedGraph.from_edges(np.vstack(rows), node_count=side * side)


def two_cliques(k=10, bridge_weight=1.0):
    """Two k-cliques joined by one edge (0..k-1 and k..2k-1, bridge k-1 to k)."""
    edges = []
    for base in (0, k):
        for i in range(k):
            for j in range(i + 1, k):
                edges.append((base + i, base + j, 1.0))
    edges.append((k - 1, k, bridge_weight))
    return WeightedGraph.from_edges(edges, node_count=2 * k)


def loop_laplacian(edges, n, kind):
    """Laplacian assembled edge by edge in Python, the way the library once
    did, and the node degrees it was built from.

    Duplicates merge by summing in input order, degrees accumulate u then v
    per edge, and the COO pattern lists both orientations edge by edge, so
    an array implementation must round every entry the same way to match.
    """
    merged = {}
    for u, v, w in edges:
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0.0) + float(w)
    canon = sorted(merged.items())
    deg = np.zeros(n)
    for (u, v), w in canon:
        deg[u] += w
        deg[v] += w
    if kind == "unnormalized":
        scale = np.ones(n)
        diag = deg.copy()
    else:
        scale = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        diag = np.where(deg > 0, 1.0, 0.0)
    rows, cols, vals = [], [], []
    for (u, v), w in canon:
        value = -w if kind == "unnormalized" else -w * scale[u] * scale[v]
        rows.extend((u, v))
        cols.extend((v, u))
        vals.extend((value, value))
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    mat = sp.coo_array(
        (np.asarray(vals, dtype=float), (np.asarray(rows), np.asarray(cols))),
        shape=(n, n),
    ).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return LaplacianOperator(kind=kind, matrix=mat), deg


def dense_lowest_oracle(operator, n_pairs):
    """The dense path's LAPACK sequence on the whole matrix from
    ``toarray(order="F")``: ``dsytrd``, ``spectral._tridiagonal_lowest``,
    ``dormtr``, then ``spectral._finalize``. Not independent of the library,
    unlike the oracles above: it pins the bits of a dense basis, not its
    accuracy, so a change to how the matrix is filled must match it exactly.
    """
    n = operator.node_count
    lwork, info = lapack.dsytrd_lwork(n, lower=1)
    assert info == 0
    dense, diag, off, tau, info = lapack.dsytrd(operator.matrix.toarray(order="F"), lower=1,
                                                lwork=int(lwork), overwrite_a=1)
    assert info == 0
    values, vectors = spectral._tridiagonal_lowest(diag, off, n_pairs)
    query = np.empty(1)
    reflect = (b"L", b"L", b"N", n, n_pairs, dense, n, tau, vectors, n)
    assert spectral._dormtr(*reflect, query, -1) == 0
    work = np.empty(int(query[0]))
    assert spectral._dormtr(*reflect, work, work.size) == 0
    return spectral._finalize(values, vectors, operator.kind,
                              norm_bound=spectral._gershgorin(operator.matrix))


def dense_laplacian(graph, kind):
    return build_laplacian(graph, kind).matrix.toarray()


def dense_spectral_kernel(l_dense, profile, sigma2=1.0, normalize=True):
    """Reference kernel built straight from scipy.linalg.eigh."""
    lam, u = scipy.linalg.eigh(l_dense)
    lam = np.maximum(lam, 0.0)
    w = profile(lam)
    c = l_dense.shape[0] / np.sum(w) if normalize else 1.0
    k = (u * (sigma2 * c * w)) @ u.T
    return (k + k.T) / 2.0


def matern_profile(nu, kappa):
    return lambda lam: (2.0 * nu / kappa**2 + lam) ** (-nu)


def diffusion_profile(kappa):
    return lambda lam: np.exp(-0.5 * kappa**2 * lam)


def conditional_gaussian(k_full, train, query, y, noise2):
    """Brute-force GP conditioning on a dense joint kernel matrix."""
    kxx = k_full[np.ix_(train, train)] + noise2 * np.eye(len(train))
    kqx = k_full[np.ix_(query, train)]
    kqq = k_full[np.ix_(query, query)]
    solve = np.linalg.solve(kxx, np.eye(len(train)))
    mean = kqx @ solve @ y
    cov = kqq - kqx @ solve @ kqx.T
    return mean, (cov + cov.T) / 2.0
