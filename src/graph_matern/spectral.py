"""Eigendecomposition of graph Laplacians and functional calculus.

A :class:`SpectralBasis` holds the lowest ``l`` eigenpairs of a Laplacian in
ascending order with a deterministic sign convention. Any function of the
operator is then ``U f(diag(lambda)) U^T`` on the retained subspace; with the
full basis this is exact, truncated it is the best rank-l approximation in
the retained eigenspace.

Bases can be cached on disk in a small binary format keyed by a content hash
of the Laplacian, so repeated runs skip the eigensolve.
"""

import hashlib
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, spilu, splu

from .graphs import LaplacianOperator

__all__ = [
    "SpectralBasis",
    "EigensolverError",
    "eigendecompose_full",
    "eigendecompose_truncated",
    "apply_spectral_function",
    "heat_propagate",
    "laplacian_hash",
    "save_basis",
    "load_basis",
    "cached_eigendecomposition",
    "CACHE_ENV_VAR",
]

DENSE_SIZE_LIMIT = 4096
CACHE_ENV_VAR = "GRAPH_MATERN_CACHE_DIR"

_MAGIC = b"GMEIG\x00\x00\x00"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIQQ")


class EigensolverError(RuntimeError):
    """Iterative eigensolver failure, carrying per-pair residual norms."""

    def __init__(self, message, residual_norms=None):
        super().__init__(message)
        self.residual_norms = residual_norms


@dataclass(frozen=True)
class SpectralBasis:
    """Lowest eigenpairs of a Laplacian.

    eigenvalues: (l,) ascending, nonnegative (tiny negatives are clamped).
    eigenvectors: (n, l) with orthonormal columns; each column's first entry
        of meaningful magnitude is positive, fixing the sign.
    total_dim: n, the node count of the source operator.
    laplacian_kind: kind tag of the source operator.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    total_dim: int
    laplacian_kind: str

    @property
    def n_retained(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def is_full(self) -> bool:
        return self.n_retained == self.total_dim


def _factor_spd(matrix, name, last=()):
    """Unpivoted SuperLU factor of a sparse symmetric positive-definite matrix.

    Returns ``(lu, order)``: ``lu`` factors ``matrix[order][:, order]``, so
    ``x[order] = lu.solve(b[order])`` solves ``matrix @ x = b``. Without
    ``last``, one SuperLU call orders A^T + A by minimum degree and factors,
    ``order`` is the identity and ``lu.solve`` solves ``matrix`` itself. With
    ``last``, ``order`` is that ordering with the nodes in ``last`` moved to
    the end, each part keeping its order. Eliminated last, those nodes form
    an ancestor-closed set of the elimination tree, so the factor's rows and
    columns at their positions are the LU factors of their Schur complement.

    SuperLU's default ordering, COLAMD, orders for unsymmetric matrices and
    nearly doubles the fill on symmetric ones: L + U hold 25.4M against
    14.4M nonzeros for the nu = 2 posterior precision of a 50k-node
    8-neighbour lattice. scipy has no ordering routine, so with ``last`` the
    ordering is read from an incomplete factorization that drops every
    entry. The factorization itself does not pivot, as positive definiteness
    allows. A failure, or a zero diagonal that forces an off-diagonal pivot,
    raises ``LinAlgError`` naming ``name``.
    """
    matrix = sp.csc_array(matrix)
    symmetric = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    try:
        if len(last) == 0:
            order = np.arange(matrix.shape[0])
            lu = splu(matrix, permc_spec="MMD_AT_PLUS_A", **symmetric)
        else:
            order = np.argsort(spilu(matrix, permc_spec="MMD_AT_PLUS_A", drop_tol=1e300,
                                     fill_factor=1, **symmetric).perm_c)
            moved = np.isin(order, last)
            order = np.concatenate([order[~moved], order[moved]])
            lu = splu(matrix[order][:, order], permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise scipy.linalg.LinAlgError(
            f"{name} factorization failed ({exc}); the matrix may be singular "
            "or badly scaled"
        ) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise scipy.linalg.LinAlgError(
            f"{name} factorization needed pivoting; the matrix is not positive definite"
        )
    return lu, order


def _residual_norms(matrix, values, vectors) -> np.ndarray:
    """Per-pair residual norms ||A u_j - lambda_j u_j||, over near-equal
    column blocks of at most 32, so temporaries are n x 32. No block is one
    column wide unless the basis is: numpy sums a lone column in another
    order, and each norm keeps the bits of a whole-basis pass.
    """
    norms = []
    for cols in np.array_split(np.arange(len(values)), -(-len(values) // 32)):
        j = slice(cols[0], cols[-1] + 1)
        u = vectors[:, j]
        norms.append(np.linalg.norm(matrix @ u - u * values[j], axis=0))
    return np.concatenate(norms)


def _canonical_signs(vectors: np.ndarray):
    """Flip columns in place so the first entry of non-negligible size is > 0."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        peak = np.max(np.abs(col))
        if peak == 0.0:
            continue
        lead = np.argmax(np.abs(col) > 1e-8 * peak)
        if col[lead] < 0:
            np.negative(col, out=col)


def _gershgorin(matrix) -> float:
    """Largest absolute row sum: an upper bound on |lambda| for ``matrix``."""
    return float(np.max(np.abs(matrix).sum(axis=1))) if matrix.shape[0] else 1.0


def _finalize(values, vectors, total_dim, kind, norm_bound=None) -> SpectralBasis:
    """Sort, fix signs, and clamp rounding negatives to zero.

    ``vectors`` is copied only if unsorted or not column-major; signs flip
    in place and the result is read-only.

    Eigenvalues below -1e-8 * max(norm_bound, 1) raise. Rounding in the
    smallest eigenvalue scales with lambda_max, which a partial solve does
    not see among its own values, so solvers pass an operator bound (the
    Gershgorin value); a loaded basis falls back to its largest value.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    if not np.array_equal(order, np.arange(order.size)):
        values, vectors = values[order], vectors[:, order]
    vectors = np.asfortranarray(vectors, dtype=float)
    if norm_bound is None:
        norm_bound = float(values[-1]) if values.size else 1.0
    scale = max(norm_bound, 1.0)
    if values.size and values[0] < -1e-8 * scale:
        raise EigensolverError(
            f"laplacian eigenvalue {values[0]:.3e} is negative beyond tolerance"
        )
    values = np.maximum(values, 0.0)
    _canonical_signs(vectors)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralBasis(
        eigenvalues=values,
        eigenvectors=vectors,
        total_dim=int(total_dim),
        laplacian_kind=kind,
    )


def eigendecompose_full(operator: LaplacianOperator) -> SpectralBasis:
    """Dense symmetric eigendecomposition (all n pairs), for n up to
    ``DENSE_SIZE_LIMIT``; larger operators go through
    :func:`eigendecompose_truncated` for a partial basis."""
    return _dense_lowest(operator, operator.node_count)


def _dense_lowest(operator: LaplacianOperator, n_pairs: int) -> SpectralBasis:
    """Lowest ``n_pairs`` eigenpairs by dense ``eigh``.

    A partial request computes only the pairs asked for
    (``subset_by_index``); a full one keeps the plain call. The matrix is
    built column-major and handed over to LAPACK, so no second n x n copy
    is made; it is dropped before finalizing, so the peak is it plus the
    n x l output. Operators over ``DENSE_SIZE_LIMIT`` nodes are refused
    before that allocation, which keeps dense O(n^3) work at desk scale.
    """
    n = operator.node_count
    if n > DENSE_SIZE_LIMIT:
        raise ValueError(
            f"node count {n} exceeds dense limit {DENSE_SIZE_LIMIT}; "
            "ask for fewer eigenpairs than nodes for a partial basis"
        )
    dense = operator.matrix.toarray(order="F")
    subset = None if n_pairs == n else [0, n_pairs - 1]
    values, vectors = scipy.linalg.eigh(dense, subset_by_index=subset, overwrite_a=True)
    del dense
    return _finalize(
        values, vectors, n, operator.kind,
        norm_bound=_gershgorin(operator.matrix),
    )


def eigendecompose_truncated(operator: LaplacianOperator, n_pairs: int) -> SpectralBasis:
    """Lowest ``n_pairs`` eigenpairs via shift-invert Lanczos.

    ARPACK finds the largest 1/(lambda - sigma), with L - sigma I factored
    once by the one-call minimum-degree path of :func:`_factor_spd`. The
    shift sits just below 0, at -1e-6 of the Gershgorin bound: L - sigma I
    stays positive definite, and the wanted values stay far apart. A shift
    further below 0 than the wanted spectrum is wide squeezes them together
    and costs ARPACK restarts: at -1e-3 of the bound, 127 solves instead of
    100 for the 32 lowest pairs of a 50k-node mesh. Falls back to the dense
    path for tiny problems or a full request, where ARPACK either cannot
    run (k = n) or is not worth it; a full request past
    ``DENSE_SIZE_LIMIT`` nodes raises ``ValueError`` there.
    """
    n = operator.node_count
    if not 1 <= n_pairs <= n:
        raise ValueError(f"n_pairs={n_pairs} out of range for n={n}")
    if n_pairs == n or n < 8:
        return _dense_lowest(operator, n_pairs)

    mat = operator.matrix.tocsc()
    gershgorin = _gershgorin(mat)
    sigma = -1e-6 * max(gershgorin, 1.0)
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    shifted, _ = _factor_spd(mat - sigma * sp.eye_array(n, format="csc"),
                             "shifted laplacian")
    opinv = LinearOperator((n, n), matvec=shifted.solve, dtype=float)
    try:
        values, vectors = eigsh(mat, k=n_pairs, sigma=sigma, which="LM", OPinv=opinv,
                                maxiter=10 * n_pairs + 200, tol=1e-10, v0=v0)
    except ArpackNoConvergence as exc:
        converged = exc.eigenvalues.shape[0] if exc.eigenvalues is not None else 0
        residuals = (_residual_norms(mat, exc.eigenvalues, exc.eigenvectors)
                     if converged else None)
        detail = ("" if residuals is None else "; residual norms of converged pairs: "
                  + np.array2string(residuals, precision=2))
        raise EigensolverError(f"ARPACK converged {converged}/{n_pairs} pairs{detail}",
                               residual_norms=residuals) from exc
    return _finalize(values, vectors, n, operator.kind, norm_bound=gershgorin)


def apply_spectral_function(basis: SpectralBasis, fn) -> np.ndarray:
    """Evaluate ``U f(diag(lambda)) U^T`` on the retained subspace.

    ``fn`` maps eigenvalues to spectral values, either vectorized over an
    array or entrywise. Non-finite spectral values are rejected with the
    offending eigenvalue named.
    """
    lam = basis.eigenvalues
    try:
        values = np.asarray(fn(lam), dtype=float)
        if values.shape != lam.shape:
            raise ValueError
    except (TypeError, ValueError):
        values = np.array([float(fn(x)) for x in lam])
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"spectral function is not finite at eigenvalue {lam[i]!r}: {values[i]!r}"
        )
    u = basis.eigenvectors
    result = (u * values) @ u.T
    return (result + result.T) / 2.0


def heat_propagate(basis: SpectralBasis, v, t: float) -> np.ndarray:
    """Solution at time ``t`` of the graph heat equation started at ``v``.

    Exact on the retained subspace: with a full basis this is e^{-t L} v.
    Negative times are rejected (backward heat flow is unstable by design).
    """
    if t < 0:
        raise ValueError(f"negative time {t}")
    v = np.asarray(v, dtype=float)
    if v.shape[0] != basis.total_dim:
        raise ValueError(
            f"vector length {v.shape[0]} does not match node count {basis.total_dim}"
        )
    u = basis.eigenvectors
    coeff = u.T @ v
    return u @ (np.exp(-t * basis.eigenvalues) * coeff.T).T


def laplacian_hash(operator: LaplacianOperator) -> str:
    """Content hash of a Laplacian (kind + canonical CSR arrays)."""
    mat = operator.matrix.tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    h = hashlib.sha256()
    h.update(operator.kind.encode())
    h.update(struct.pack("<QQ", *mat.shape))
    h.update(np.asarray(mat.indptr, dtype=np.int64).tobytes())
    h.update(np.asarray(mat.indices, dtype=np.int64).tobytes())
    h.update(np.asarray(mat.data, dtype=np.float64).tobytes())
    return h.hexdigest()


def save_basis(path, basis: SpectralBasis):
    """Write a basis to the binary cache format.

    Layout: header (magic, version, n, l) then eigenvalues as float64 and
    eigenvectors as float64 in column-major order, written from the basis's
    own memory when it is column-major, as every producer returns it.
    """
    n, l = basis.total_dim, basis.n_retained
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, n, l))
        fh.write(np.ascontiguousarray(basis.eigenvalues, dtype="<f8"))
        fh.write(np.asfortranarray(basis.eigenvectors, dtype="<f8").T)


def load_basis(path, laplacian_kind: str) -> SpectralBasis:
    """Read a basis written by :func:`save_basis`.

    The kind is supplied by the caller because cache files are keyed by a
    hash that already commits to it. The vectors are read straight into
    the basis's one column-major array.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"truncated basis file {path}")
        magic, version, n, l = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"not a basis cache file: {path}")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported basis format version {version}")
        if os.fstat(fh.fileno()).st_size - _HEADER.size != 8 * (l + n * l):
            raise ValueError(f"corrupt basis file {path}: payload size mismatch")
        values = np.fromfile(fh, dtype="<f8", count=l)
        vectors = np.fromfile(fh, dtype="<f8", count=n * l).reshape((n, l), order="F")
    return _finalize(values, vectors, n, laplacian_kind)


def _default_cache_dir():
    value = os.environ.get(CACHE_ENV_VAR, "")
    return Path(value) if value else None


def cached_eigendecomposition(
    operator: LaplacianOperator, n_pairs: int, cache_dir=None
):
    """Eigendecompose with an on-disk cache.

    Returns ``(basis, cache_hit, path)``. ``cache_dir`` defaults to the
    ``GRAPH_MATERN_CACHE_DIR`` environment variable; with neither set the
    decomposition is computed fresh and ``path`` is None. ``n_pairs`` larger
    than n is clamped with a warning; below 1 it raises ``ValueError``.
    """
    n = operator.node_count
    if n_pairs < 1:
        raise ValueError(f"n_pairs={n_pairs} out of range for n={n}")
    if n_pairs > n:
        warnings.warn(
            f"requested {n_pairs} eigenpairs of an operator with {n} nodes; clamping",
            stacklevel=2,
        )
        n_pairs = n
    if cache_dir is None:
        cache_dir = _default_cache_dir()
    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / f"{laplacian_hash(operator)}_l{n_pairs}.eig"
        if path.exists():
            return load_basis(path, operator.kind), True, path

    if n <= DENSE_SIZE_LIMIT:
        basis = _dense_lowest(operator, n_pairs)
    else:
        basis = eigendecompose_truncated(operator, n_pairs)
    if path is not None:
        save_basis(path, basis)
    return basis, False, path
