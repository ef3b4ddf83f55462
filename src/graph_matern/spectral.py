"""Eigendecomposition of graph Laplacians and functional calculus.

A :class:`SpectralBasis` holds the lowest ``l`` eigenpairs of a Laplacian in
ascending order with a deterministic sign convention. Any function of the
operator is then ``U f(diag(lambda)) U^T`` on the retained subspace; with the
full basis this is exact, truncated it is the best rank-l approximation in
the retained eigenspace.

Bases can be cached on disk in a small binary format keyed by a content hash
of the Laplacian and the BLAS thread count, so repeated runs skip the
eigensolve.
"""

import ctypes
import hashlib
import mmap
import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import cython_lapack, lapack
from scipy.linalg.blas import idamax
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, spilu, splu

from .graphs import LaplacianOperator, _check_dense_size, _count, _finite

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

# Also keeps lda * n <= 4607 * 4096 and every LAPACK workspace size inside
# the 32-bit integers that the dense path's LAPACK bindings pass.
DENSE_SIZE_LIMIT = 4096
CACHE_ENV_VAR = "GRAPH_MATERN_CACHE_DIR"

# Eigenvalues within _ZERO_TOL * max(bound on lambda, 1) of 0 are 0 up to
# rounding.
_ZERO_TOL = 1e-8

_MAGIC = b"GMEIG\x00\x00\x00"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIQQ")


class EigensolverError(RuntimeError):
    """Eigensolver failure; an iterative one carries per-pair residual norms."""

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
    """Per-pair residual norms ||A u_j - lambda_j u_j||, over column blocks
    of at most 32, so temporaries are n x 32. Each block is column-major, so
    every column's squares are summed as one contiguous run, in the same
    order whatever the block holds: a norm keeps its bits at any width.
    """
    norms = []
    for start in range(0, len(values), 32):
        j = slice(start, start + 32)
        u = vectors[:, j]
        r = np.asfortranarray(matrix @ u - u * values[j])
        norms.append(np.sqrt(np.add.reduce(r * r, axis=0)))
    return np.concatenate(norms)


def _canonical_signs(vectors: np.ndarray):
    """Flip columns in place so the first entry of non-negligible size
    (above 1e-8 of the column's largest magnitude) is > 0.

    Each column's largest magnitude comes from BLAS ``idamax``. The lead
    entry is row 0 except in the rare column where that entry is
    negligible, which alone is searched; no n x l temporary is made.
    """
    peaks = np.array([abs(vectors[idamax(vectors[:, j]), j])
                      for j in range(vectors.shape[1])])
    lead = vectors[0].copy()
    for j in np.flatnonzero(np.abs(lead) <= 1e-8 * peaks):
        col = vectors[:, j]
        lead[j] = col[np.argmax(np.abs(col) > 1e-8 * peaks[j])]
    np.negative(vectors, out=vectors, where=lead < 0)


def _gershgorin(matrix) -> float:
    """Largest absolute row sum: an upper bound on |lambda| for ``matrix``."""
    return float(np.max(np.abs(matrix).sum(axis=1))) if matrix.shape[0] else 1.0


def _finalize(values, vectors, kind, norm_bound=None) -> SpectralBasis:
    """Sort, fix signs, and clamp rounding negatives to zero.

    ``vectors`` is copied only if unsorted or not column-major; signs flip
    in place and the result is read-only.

    Eigenvalues below -``_ZERO_TOL`` * max(norm_bound, 1) raise. Rounding in the
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
    if values.size and values[0] < -_ZERO_TOL * scale:
        raise EigensolverError(
            f"laplacian eigenvalue {values[0]:.3e} is negative beyond tolerance"
        )
    values = np.maximum(values, 0.0)
    _canonical_signs(vectors)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralBasis(values, vectors, vectors.shape[0], kind)


def _check_nodes(operator: LaplacianOperator):
    if operator.node_count == 0:
        raise ValueError("the graph has no nodes, so its Laplacian has no eigenpairs")


def eigendecompose_full(operator: LaplacianOperator) -> SpectralBasis:
    """All n pairs: :func:`eigendecompose_truncated`'s dense path, for n up
    to ``DENSE_SIZE_LIMIT``; larger operators need a partial request there.
    A graph with no nodes raises ``ValueError``."""
    return eigendecompose_truncated(operator, operator.node_count)


_POINTER = {
    "c": ctypes.c_char_p,
    "i": ctypes.POINTER(ctypes.c_int),
    "d": ctypes.POINTER(ctypes.c_double),
    "I": np.ctypeslib.ndpointer(np.intc, flags="F_CONTIGUOUS"),
    "D": np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS"),
}
_SCALAR = {"i": ctypes.c_int, "d": ctypes.c_double}
_C_TYPE = {"char *": "c", "int *": "i", "__pyx_t_5scipy_6linalg_13cython_lapack_d *": "d"}
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _lapack_export(name, args):
    """LAPACK routine ``name`` from the C exports of ``scipy.linalg.cython_lapack``.

    ``args`` has one letter per argument: ``c`` a character, ``i``/``d`` an
    int/double passed by reference, ``I``/``D`` a column-major int32/float64
    array passed by its data pointer (the routine may write it, and takes
    its layout from the call's leading-dimension arguments). The returned
    function takes every argument but the last, ``info``, and returns it.
    The export's signature string must list the same C types, or the
    binding is refused by name at import.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    signature = _capsule_name(capsule)
    text = signature.decode()
    params = text.removeprefix("void (").removesuffix(")").split(", ")
    if not text.startswith("void (") or [_C_TYPE.get(p) for p in params] != list(args.lower()):
        raise ImportError(f"scipy's LAPACK export {name} has signature {text!r}, "
                          f"not the argument types {args!r} it is called with")
    routine = ctypes.CFUNCTYPE(None, *(_POINTER[a] for a in args))(
        _capsule_pointer(capsule, signature))

    def call(*values):
        info = ctypes.c_int()
        routine(*(ctypes.byref(_SCALAR[a](v)) if a in _SCALAR else v
                  for a, v in zip(args, values)), ctypes.byref(info))
        return info.value

    return call


# jobz range n d e vl vu il iu m w z ldz nzc isuppz tryrac work lwork iwork liwork info
_dstemr = _lapack_export("dstemr", "cciDDddiiiDDiiIiDiIii")
# uplo n a lda d e tau work lwork info
_dsytrd = _lapack_export("dsytrd", "ciDiDDDDii")
# side uplo trans m n a lda tau c ldc work lwork info
_dormtr = _lapack_export("dormtr", "ccciiDiDDiDii")


def _lapack_check(name, info):
    if info != 0:
        raise EigensolverError(f"LAPACK {name} failed with info={info}")


def _with_workspace(name, routine, *args):
    """Call the exported ``routine`` on ``args`` and its optimal workspace,
    sized first by a query at lwork = -1."""
    query = np.empty(1)
    _lapack_check(name, routine(*args, query, -1))
    work = np.empty(int(query[0]))
    _lapack_check(name, routine(*args, work, work.size))


def _tridiagonal_lowest(diag, off, first, last, vectors):
    """Pairs first..last (1-based, ascending) of the symmetric tridiagonal
    matrix with diagonal ``diag`` and off-diagonal ``off``: returns their
    ascending values and writes their vectors into ``vectors``, a
    column-major n x (last - first + 1) array or column block of one.

    MRRR (``dstemr``) first. It can fail inside ``dlarrv`` (info 2X) on an
    index range that splits a cluster of repeated eigenvalues; then
    bisection and inverse iteration (``dstebz`` + ``dstein``) solve the same
    range of the same matrix, as ``dsyevr`` does on that failure.
    """
    n, count = diag.size, last - first + 1
    values = np.empty(n)
    info = _dstemr(b"V", b"I", n, diag.copy(), np.append(off, 0.0), 0.0, 0.0, first, last,
                   0, values, vectors, n, count,
                   np.empty(2 * count, dtype=np.intc), 1,
                   np.empty(18 * n), 18 * n, np.empty(10 * n, dtype=np.intc), 10 * n)
    if info == 0:
        return values[:count]
    if not 20 <= info < 30:
        _lapack_check("dstemr", info)
    _, values, block, split, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, first, last,
                                                  0.0, b"B")
    _lapack_check("dstebz", info)
    vectors[:], info = lapack.dstein(diag, off, values[:count], block, split)
    _lapack_check("dstein", info)
    return values[:count]


def _pair_chunks(diag, off, n_pairs, bound):
    """Index ranges ``(first, last)`` that split pairs 1..n_pairs of the
    tridiagonal matrix into at most two chunks, from the matrix alone.

    One ``dstebz`` call bisects the values at the <= 17 indices around
    n_pairs / 2 that leave each chunk at least 32 pairs, and the boundary
    goes at the widest gap among them. A request stays whole when no such
    index exists (n_pairs < 64) or when that gap is at most 1e-4 of
    ``bound``, the Gershgorin bound on the spectrum, so no boundary splits a
    cluster of repeated eigenvalues.
    """
    half = n_pairs // 2
    low, high = max(half - 8, 32), min(half + 8, n_pairs - 31)
    if high <= low:
        return [(1, n_pairs)]
    _, window, _, _, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, low, high, 0.0, b"E")
    _lapack_check("dstebz", info)
    gaps = np.diff(window[:high - low + 1])
    widest = int(np.argmax(gaps))
    if gaps[widest] <= 1e-4 * bound:
        return [(1, n_pairs)]
    return [(1, low + widest), (low + widest + 1, n_pairs)]


def _dense_lowest(operator: LaplacianOperator, n_pairs: int) -> SpectralBasis:
    """Lowest ``n_pairs`` eigenpairs of the dense matrix, by MRRR on exactly
    that index range.

    ``dsytrd`` reduces the column-major matrix to tridiagonal form in place.
    :func:`_pair_chunks` splits pairs 1..n_pairs into at most two index
    chunks at a wide gap of the spectrum; for each, :func:`_tridiagonal_lowest`
    solves its pairs and ``dormtr`` back-transforms only its columns of the
    one n x n_pairs output, in place. With two chunks the calling thread
    and one worker thread each run one chunk at once: both LAPACK calls go
    through ctypes, which releases the interpreter lock, and each runs at
    the BLAS thread count the environment sets. The chunks depend on the
    tridiagonal matrix alone, so a basis has the same bits whatever the
    core count or the threads' timing. This is the path ``dsyevr`` takes
    for a full request; for a partial one ``dsyevr`` uses bisection and
    inverse iteration, whose reorthogonalization is quadratic in the count
    of close pairs. All three run through scipy's Cython LAPACK exports:
    the f2py ``dstemr`` allocates an n x n output whatever the range, and
    the f2py ``dsytrd`` copies any lda but n.
    With UPLO='L' neither ``dsytrd`` nor ``dormtr`` reads above the
    diagonal, so only the lower triangle is written, into an anonymous
    mapping: unlike a numpy array this size, advised for huge pages, it
    leaves the pages above the diagonal unmapped. It is lda x n with 512
    dividing lda + 1, so A[j, j], at byte 8 j (lda + 1), starts a page and
    no column's stored part shares a page with another's. The mapping is
    dropped before finalizing, so the peak is the lower triangle, each
    column in whole 4 KiB pages, plus the n x l output. Operators over
    ``DENSE_SIZE_LIMIT`` nodes are refused before that allocation, which
    keeps dense O(n^3) work at desk scale.
    """
    n = operator.node_count
    if n > DENSE_SIZE_LIMIT:
        raise ValueError(
            f"node count {n} exceeds dense limit {DENSE_SIZE_LIMIT}; "
            "ask for fewer eigenpairs than nodes for a partial basis"
        )
    lda = 512 * -(-(n + 1) // 512) - 1
    buffer = mmap.mmap(-1, 8 * lda * n)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    dense = np.ndarray((lda, n), buffer=buffer, order="F")
    lower = sp.tril(operator.matrix, format="coo")
    np.add.at(dense, (lower.row, lower.col), lower.data)
    diag, off, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    _with_workspace("dsytrd", _dsytrd, b"L", n, dense, lda, diag, off, tau)
    bound = _gershgorin(operator.matrix)
    # dormtr's unblocked kernel stores 1 in each reflector's leading entry,
    # A's first subdiagonal, and restores the old value afterwards, so two
    # chunks back-transforming at once would each read the other's stored
    # value as a reflector entry. That entry is 1 by definition and dsytrd
    # has already returned the subdiagonal in ``off``, so it is set to 1
    # here and every store and restore writes 1.
    sub = np.arange(n - 1)
    dense[sub + 1, sub] = 1.0
    vectors = np.empty((n, n_pairs), order="F")

    def solve(first, last):
        columns = vectors[:, first - 1:last]
        values = _tridiagonal_lowest(diag, off, first, last, columns)
        _with_workspace("dormtr", _dormtr, b"L", b"L", b"N", n, columns.shape[1], dense, lda,
                        tau, columns, n)
        return values

    lowest, *others = _pair_chunks(diag, off, n_pairs, bound)
    with ThreadPoolExecutor(max_workers=1) as worker:  # starts no thread for one chunk
        pending = [worker.submit(solve, *chunk) for chunk in others]
        values = np.concatenate([solve(*lowest)] + [future.result() for future in pending])
    del dense, buffer
    return _finalize(values, vectors, operator.kind, norm_bound=bound)


def _eigensolver(operator: LaplacianOperator, n_pairs: int) -> str:
    """The solver :func:`eigendecompose_truncated` runs: ``"dense"`` for a
    full request or an operator of at most ``DENSE_SIZE_LIMIT`` nodes,
    ``"lanczos"`` for a partial request past that."""
    n = operator.node_count
    return "dense" if n_pairs == n or n <= DENSE_SIZE_LIMIT else "lanczos"


def eigendecompose_truncated(operator: LaplacianOperator, n_pairs: int) -> SpectralBasis:
    """Lowest ``n_pairs`` eigenpairs, by the solver :func:`_eigensolver` picks.

    The dense path is :func:`_dense_lowest`; it refuses a full request past
    ``DENSE_SIZE_LIMIT`` nodes. Otherwise shift-invert Lanczos: ARPACK finds
    the largest 1/(lambda - sigma), with L - sigma I factored once by the
    one-call minimum-degree path of :func:`_factor_spd`. The shift sits just
    below 0, at -1e-6 of the Gershgorin bound: L - sigma I stays positive
    definite, and the wanted values stay far apart. A shift further below 0
    than the wanted spectrum is wide squeezes them together and costs ARPACK
    restarts: at -1e-3 of the bound, 127 solves instead of 100 for the 32
    lowest pairs of a 50k-node mesh.

    Each connected component gives eigenvalue 0 once, and ARPACK can miss
    copies of a repeated eigenvalue while every pair it returns has a tiny
    residual. So Lanczos raises ``EigensolverError`` when fewer than
    min(components, ``n_pairs``) of its eigenvalues are zero (within
    ``_finalize``'s tolerance). ARPACK's n x max(2 ``n_pairs`` + 1, 20)
    Lanczos basis over ``DENSE_ELEMENT_LIMIT`` elements raises
    ``ValueError`` naming its shape, before the factorization. A graph with
    no nodes raises ``ValueError`` before the pair count is checked.
    """
    _check_nodes(operator)
    n = operator.node_count
    n_pairs = _count("n_pairs", n_pairs)
    if not 1 <= n_pairs <= n:
        raise ValueError(f"n_pairs={n_pairs} out of range for n={n}")
    if _eigensolver(operator, n_pairs) == "dense":
        return _dense_lowest(operator, n_pairs)
    _check_dense_size("eigendecompose_truncated", "Lanczos basis",
                      (n, max(2 * n_pairs + 1, 20)), "ask for fewer eigenpairs",
                      verb="allocate")

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
    basis = _finalize(values, vectors, operator.kind, norm_bound=gershgorin)
    # Imported here: the dense path, which most runs take, never loads it.
    from scipy.sparse.csgraph import connected_components

    components, _ = connected_components(mat, directed=False)
    zeros = int(np.count_nonzero(basis.eigenvalues <= _ZERO_TOL * max(gershgorin, 1.0)))
    if zeros < min(components, n_pairs):
        raise EigensolverError(
            f"Lanczos found {zeros} zero eigenvalues among the {n_pairs} lowest pairs, "
            f"but the graph has {components} connected components, each giving one; "
            "ARPACK missed copies of the repeated eigenvalue 0"
        )
    return basis


def apply_spectral_function(basis: SpectralBasis, fn) -> np.ndarray:
    """Evaluate ``U f(diag(lambda)) U^T`` on the retained subspace.

    ``fn`` maps eigenvalues to spectral values, either vectorized over an
    array or entrywise. Non-finite spectral values are rejected with the
    offending eigenvalue named. The n x n result over ``DENSE_ELEMENT_LIMIT``
    elements (a graph past 11585 nodes) raises ``ValueError`` naming its
    shape, before ``fn`` runs.
    """
    n = basis.total_dim
    _check_dense_size("apply_spectral_function", "operator", (n, n),
                      "apply it to vectors through the eigenvectors instead")
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
    Negative times are rejected (backward heat flow is unstable by design),
    and so are a NaN or infinite time, whose answers lose the vector's mass.
    """
    if not (_finite(t) and t >= 0):
        raise ValueError(f"non-finite or negative time {t}")
    v = np.asarray(v, dtype=float)
    if v.shape[:1] != (basis.total_dim,):
        raise ValueError(
            f"vector of shape {v.shape} does not match node count {basis.total_dim}"
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

    The write is atomic: the bytes go to a temporary file beside ``path``
    (named ``.<name>.<pid>.<hex>.tmp``), which replaces ``path`` only once
    complete and is removed if the write stops, so an interrupted save
    leaves no truncated file for a later run to trip on.
    """
    n, l = basis.total_dim, basis.n_retained
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, n, l))
            fh.write(np.ascontiguousarray(basis.eigenvalues, dtype="<f8"))
            fh.write(np.asfortranarray(basis.eigenvectors, dtype="<f8").T)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    return _finalize(values, vectors, laplacian_kind)


def _default_cache_dir():
    value = os.environ.get(CACHE_ENV_VAR, "")
    return Path(value) if value else None


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if none is found.

    numpy and scipy may each load their own OpenBLAS; the largest count is
    reported. The libraries are found in the process's memory map, which
    exists on Linux only.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if line.strip()}
    except OSError:
        return None
    counts = []
    for path in sorted(p for p in paths if "openblas" in p.lower() and ".so" in p):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(int(getter()))
                break
    return max(counts, default=None)


def cached_eigendecomposition(
    operator: LaplacianOperator, n_pairs: int, cache_dir=None
):
    """:func:`eigendecompose_truncated` behind an on-disk cache.

    Returns ``(basis, cache_hit, path)``. The file is keyed by
    :func:`laplacian_hash`, the pair count and the BLAS thread count
    (:func:`_blas_threads`, 0 when no OpenBLAS is found), since the dense
    solve's bits differ between thread counts. ``cache_dir`` defaults to the
    ``GRAPH_MATERN_CACHE_DIR`` environment variable; with neither set the
    decomposition is computed fresh and ``path`` is None. ``n_pairs`` larger
    than n is clamped with a warning; below 1 it raises ``ValueError``, as
    does a graph with no nodes, before either check.
    """
    _check_nodes(operator)
    n = operator.node_count
    n_pairs = _count("n_pairs", n_pairs)
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
        name = f"{laplacian_hash(operator)}_l{n_pairs}_t{_blas_threads() or 0}.eig"
        path = Path(cache_dir) / name
        if path.exists():
            return load_basis(path, operator.kind), True, path

    basis = eigendecompose_truncated(operator, n_pairs)
    if path is not None:
        save_basis(path, basis)
    return basis, False, path
