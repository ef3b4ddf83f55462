"""Gaussian process regression on graph nodes.

One rule, ``_route``, picks how every computation on a model conditions on
its m training nodes: with l retained eigenpairs, m > 3l/4 works in the
l x l spectral (Fourier feature) space through the one Cholesky factor of
B = I + D^1/2 E D^1/2 / noise2, O(m l^2 + l^3) and no jitter; otherwise it
factors the m x m train covariance K_xx + noise2 I with the jitter ladder,
O(m^2 l + m^3). The log marginal likelihood, ``posterior`` and
``pathwise_sample`` all follow it and read the one memoized factor it
names. Two more entry points:

* ``woodbury_posterior``: the spectral route, forced; exact when the basis
  is full, rank-l otherwise, and zero-weight modes stay in.
* ``gmrf_posterior``: sparse-precision conditioning for integer smoothness,
  dual to the matern kernel with variance normalization off. One sparse
  factorization, with the query nodes eliminated last, gives the mean by
  one solve and the query covariance from the factor's trailing block.

The log marginal likelihood carries hand-derived gradients with respect to
the unconstrained (log, or logit for alpha) coordinates of the trainable
parameters, including the trace-normalization constant's dependence on them.
"""

import dataclasses
import json
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import lapack, solve_triangular
from scipy.linalg.blas import dtrmm
import scipy.sparse as sp

from .graphs import _check_dense_size, _finite, _int64_token, _node_indices
from .kernels import (
    KernelSpec,
    check_laplacian_kind,
    check_trainable,
    from_unconstrained,
    spectral_weights,
    to_unconstrained,
    unconstrained_grads,
)
from .optim import AdamConfig, _maximize, adam_step
from .spectral import DENSE_SIZE_LIMIT, SpectralBasis, _factor_spd

__all__ = [
    "PosteriorSummary",
    "GPRegressionModel",
    "posterior",
    "woodbury_posterior",
    "log_marginal_likelihood",
    "fit",
    "pathwise_sample",
    "gmrf_posterior",
    "read_targets_csv",
    "save_model",
    "load_model",
]

# Relative jitter ladder tried before declaring the train covariance non-PD.
_JITTERS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)

_CONDITION_WARN = 1e12

# Diagonal blocks of at most this many rows go to LAPACK's dtrtri. Timed at
# 1 OpenBLAS thread on Cholesky factors of random SPD matrices, two runs:
# n = 500 took 1.6-2.0 ms with this cut against 4.1-4.3 ms for dtrtri alone,
# n = 800 4.9-5.0 ms against 10.8-12.6 ms. Cuts of 64 to 128 rows were within
# 20% of each other at n = 140 to 800; 32 and 192 were slower.
_TRI_CUT = 96


def _spd_factor(a, name):
    """Lower Cholesky factor of the dense symmetric positive-definite ``a``.

    LAPACK's ``dpotrf`` reads the lower triangle and writes the factor over
    ``a`` when ``a`` is column-major (otherwise over a copy), with the strict
    upper triangle zeroed. A matrix that is not positive definite raises
    ``LinAlgError`` naming ``name`` and the failing pivot; a non-finite
    entry, which ``dpotrf`` passes through, raises ``ValueError``.
    """
    low, info = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise scipy.linalg.LinAlgError(
            f"{name} is not positive definite: pivot {info} of {low.shape[0]} "
            "is not positive"
        )
    if not np.all(np.isfinite(np.diagonal(low))):
        raise ValueError(f"{name} has a non-finite entry")
    return low


def _tri_inverse(low):
    """Inverse of the lower-triangular ``low``, written over it in place.

    Recursive blocked inversion (Elmroth, Gustavson, Jonsson & Kagstrom
    2004): with low = [[A, 0], [C, D]], the inverse is [[A^-1, 0],
    [-D^-1 C A^-1, D^-1]], so the two diagonal blocks are inverted
    recursively and C is covered by two ``dtrmm`` calls. Blocks of at most
    ``_TRI_CUT`` rows go to ``dtrtri``, which as OpenBLAS ships it runs at
    about half the speed of the recursion on larger ones. Only the lower
    triangle is read; the strict upper triangle keeps its values. A zero
    diagonal entry raises ``LinAlgError``.
    """
    n = low.shape[0]
    if n <= _TRI_CUT:
        inv, info = lapack.dtrtri(low, lower=1, overwrite_c=1)
        if info > 0:
            raise scipy.linalg.LinAlgError("triangular factor has a zero diagonal entry")
        if inv is not low:  # dtrtri worked on a copy of a strided block
            low[...] = inv
        return low
    k = n // 2
    _tri_inverse(low[:k, :k])
    _tri_inverse(low[k:, k:])
    c = dtrmm(-1.0, low[k:, k:], low[k:, :k], lower=1)
    low[k:, :k] = dtrmm(1.0, low[:k, :k], c, side=1, lower=1, overwrite_b=1)
    return low


def _factor_solve_invert(a, rhs, name):
    """``(log|a| / 2, L^-1, a^-1 rhs)`` for L the Cholesky factor of the SPD
    ``a``; L, then L^-1, is written over ``a`` when ``a`` is column-major."""
    low = _spd_factor(a, name)
    solution, _ = lapack.dpotrs(low, rhs, lower=1)
    half_logdet = float(np.sum(np.log(np.diag(low))))
    return half_logdet, _tri_inverse(low), solution


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior marginals at the query nodes.

    ``covariance`` is None when only the diagonal was requested; ``variance``
    is always present and clamped at zero against rounding.
    """

    mean: np.ndarray
    variance: np.ndarray
    covariance: np.ndarray | None = None

    @property
    def stddev(self) -> np.ndarray:
        return np.sqrt(self.variance)


@dataclass
class GPRegressionModel:
    """Graph GP regression state: kernel spec, basis, data, noise variance."""

    spec: KernelSpec
    basis: SpectralBasis
    train_nodes: np.ndarray
    targets: np.ndarray
    noise2: float = 0.01

    def __post_init__(self):
        self.train_nodes, self.targets = _check_observations(
            self.basis.total_dim, self.train_nodes, self.targets, self.noise2)
        check_laplacian_kind(self.spec, self.basis)

    def with_raw_params(self, raw: dict) -> "GPRegressionModel":
        """New model with raw kernel parameters / noise2 replaced, holding
        this one's ``_phi_train`` and ``_gram`` if computed: no parameter
        touches them."""
        spec_updates = {k: v for k, v in raw.items() if k != "noise2"}
        spec = self.spec.with_params(**spec_updates) if spec_updates else self.spec
        new = dataclasses.replace(self, spec=spec, noise2=raw.get("noise2", self.noise2))
        vars(new).update({k: v for k, v in vars(self).items() if k in ("_phi_train", "_gram")})
        return new

    # Everything below is derived state, computed on first read and kept on
    # the instance, so no field is reassigned after construction: a new
    # parameter value means a new model, from with_raw_params.

    @cached_property
    def _phi_train(self) -> np.ndarray:
        return self.basis.eigenvectors[self.train_nodes]

    @cached_property
    def _gram(self):
        """``(E, t)``: E = P^T P and t = P^T y over the train rows P, shared
        by the spectral LML and ``woodbury_posterior``. E is column-major,
        the layout B is built and factored in."""
        phi = self._phi_train
        return np.asfortranarray(phi.T @ phi), phi.T @ self.targets

    @cached_property
    def _weights(self):
        """``(d, grads)``: one evaluation serves the posteriors and the LML."""
        return spectral_weights(self.spec, self.basis.eigenvalues, self.basis.total_dim)

    @cached_property
    def _c_factor(self):
        """``(half_logdet, inv_chol, alpha, jitter)`` for the dense route:
        log|C| / 2 and L^-1 for L the Cholesky factor of C = K_xx + noise2 I
        (all three in one m x m array), alpha = C^-1 y and the first jitter
        rung that factors; a failed rung rebuilds the array. A C over
        ``DENSE_ELEMENT_LIMIT`` raises ``ValueError``, and a raise keeps
        nothing."""
        m = self.train_nodes.size
        _check_dense_size("GPRegressionModel", "train covariance", (m, m),
                          "use fewer training nodes", verb="factor")
        d, _ = self._weights
        phi = self._phi_train
        for jitter in _JITTERS:
            c = (phi * d) @ phi.T
            # (K + K^T) / 2 in the upper triangle, which dpotrf reads of the
            # column-major c.T, by row blocks: c += c.T would buffer a copy.
            for r in range(0, m, 256):
                c[r:r + 256, r:] = (c[r:r + 256, r:] + c[r:, r:r + 256].T) / 2.0
            c += 0.0  # -0.0 becomes +0.0, as adding noise2 I out of place gives
            c.flat[:: m + 1] += self.noise2
            scale = float(np.mean(np.diag(c)))
            c.flat[:: m + 1] += jitter * scale
            try:
                factor = _factor_solve_invert(c.T, self.targets, "train covariance")
            except scipy.linalg.LinAlgError:
                del c  # a partial factor: free it before the rebuild
                continue
            return (*factor, jitter)
        raise scipy.linalg.LinAlgError("train covariance is not positive definite even "
                                       f"with jitter up to {_JITTERS[-1]:g} * mean(diag)")

    @cached_property
    def _b_factor(self):
        """``(half_logdet, inv_chol_b, root, t, coef)`` for the spectral
        route: log|B| / 2 and L_B^-1 for L_B the Cholesky factor of
        B = I + D^1/2 E D^1/2 / noise2 (all three in one l x l array),
        root = sqrt(d), t = P^T y and coef = D^1/2 B^-1 D^1/2 t / noise2.
        B's eigenvalues are >= 1, so it needs no jitter and zero-weight
        modes stay in."""
        d, _ = self._weights
        root = np.sqrt(d)
        e, t = self._gram
        b = np.multiply(root[:, None], e, order="F")  # LAPACK's layout
        b *= root
        b /= self.noise2
        b += 0.0  # I's zeros: -0.0 (zero weight, negative E entry) becomes +0.0
        b.flat[:: d.size + 1] += 1.0
        half_logdet, inv_chol_b, coef = _factor_solve_invert(
            b, root * t, "B = I + D^1/2 E D^1/2 / noise2")
        return half_logdet, inv_chol_b, root, t, root * coef / self.noise2


def _check_observations(n, train_nodes, targets, noise2):
    """``(train_nodes, targets)`` as arrays after every check that needs only
    the node count ``n``: at least one training node, each in [0, n) with a
    finite target (repeats allowed), and a positive, finite ``noise2``."""
    x = _node_indices(train_nodes, n, "training")
    y = np.asarray(targets, dtype=float)
    if y.shape != x.shape:
        raise ValueError("train_nodes and targets must be matching 1-d arrays")
    if x.size == 0:
        raise ValueError("regression needs at least one training node")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    if not (_finite(noise2) and noise2 > 0):
        raise ValueError(f"noise2 must be positive and finite, got {noise2!r}")
    return x, y


def posterior(model: GPRegressionModel, query=None, diag=False) -> PosteriorSummary:
    """Exact posterior at the query nodes, on the model's route (``_route``).

    The spectral route returns ``woodbury_posterior``'s result, with its
    size refusals naming ``posterior``. The dense route conditions on
    K_xx + noise2 I, and with ``diag`` forms only the marginal variances.
    Without it, a query covariance over ``DENSE_ELEMENT_LIMIT`` elements
    raises ``ValueError`` naming its shape; with or without ``diag``, so
    does an m x m train covariance, a |q| x m query-train covariance or a
    |q| x l block of query eigenvector rows over that limit, all before any
    product. Only the dense route warns, instead of failing, when the train
    covariance is severely ill-conditioned.
    """
    if _route(model) == "spectral":
        return _woodbury(model, query, diag, "posterior")
    q = _node_indices(query, model.basis.total_dim, "query")
    if not diag:
        _check_dense_size("posterior", "query covariance", (q.size, q.size),
                          "pass a smaller query")
    for block, shape in (("query-train covariance", (q.size, model.train_nodes.size)),
                         ("query eigenvector block", (q.size, model.basis.n_retained))):
        _check_dense_size("posterior", block, shape, "pass a smaller query", verb="form")
    d, _ = model._weights
    _, inv_chol, alpha, _ = model._c_factor
    phi_x = model._phi_train
    phi_q = model.basis.eigenvectors[q]
    k_qx = (phi_q * d) @ phi_x.T

    diag_inv = np.diag(inv_chol)  # 1 / diag(L): the same ratio
    cond = (np.max(diag_inv) / np.min(diag_inv)) ** 2
    if cond > _CONDITION_WARN:
        warnings.warn(
            f"train covariance condition number ~{cond:.2e}; posterior may be inaccurate",
            stacklevel=2,
        )

    mean = k_qx @ alpha
    half = dtrmm(1.0, inv_chol, k_qx.T, lower=1)  # L^-1 K_xq
    if diag:
        var = np.einsum("ij,j->i", phi_q**2, d) - np.einsum("ji,ji->i", half, half)
        return PosteriorSummary(mean=mean, variance=np.maximum(var, 0.0))
    k_qq = (phi_q * d) @ phi_q.T
    cov = k_qq - half.T @ half
    cov = (cov + cov.T) / 2.0
    var = np.maximum(np.diag(cov), 0.0)
    return PosteriorSummary(mean=mean, variance=var, covariance=cov)


def woodbury_posterior(model: GPRegressionModel, query=None, diag=False) -> PosteriorSummary:
    """The posterior on the spectral route, whatever the shapes: in the
    l-dimensional feature space, from the model's one factor L_B of
    B = I + D^1/2 E D^1/2 / s2 (see ``_lml_spectral``).

    With P the train rows of the eigenvectors and D the spectral weights,
    the weight posterior has mean coef = D^1/2 B^-1 D^1/2 P^T y / s2
    (= D P^T alpha) and covariance D^1/2 B^-1 D^1/2. So the mean is
    Phi_q coef and, with W = L_B^-1 D^1/2 Phi_q^T, the covariance is W^T W
    and the variances are the column sums of W^2. Zero-weight modes stay
    in; an all-zero prior gives zero mean and covariance. After the LML
    the factor is memoized, and the cost is one triangular product,
    l^2 |q| flops. Without ``diag``, a query covariance over
    ``DENSE_ELEMENT_LIMIT`` elements raises ``ValueError`` naming its shape;
    with or without it, so does a |q| x l block of query eigenvector rows,
    which also bounds the l x |q| W. Both are refused before the factor or
    any product.
    """
    return _woodbury(model, query, diag, "woodbury_posterior")


def _woodbury(model, query, diag, caller):
    """``woodbury_posterior``, with its size refusals naming ``caller``."""
    q = _node_indices(query, model.basis.total_dim, "query")
    if not diag:
        _check_dense_size(caller, "query covariance", (q.size, q.size),
                          "pass a smaller query")
    _check_dense_size(caller, "query eigenvector block",
                      (q.size, model.basis.n_retained), "pass a smaller query", verb="form")
    _, inv_chol_b, root, _, coef = model._b_factor
    phi_q = model.basis.eigenvectors[q]
    mean = phi_q @ coef
    w = dtrmm(1.0, inv_chol_b, root[:, None] * phi_q.T, lower=1, overwrite_b=1)
    var = np.einsum("ij,ij->j", w, w)
    if diag:
        return PosteriorSummary(mean=mean, variance=var)
    return PosteriorSummary(mean=mean, variance=var, covariance=w.T @ w)


def _route(model: GPRegressionModel) -> str:
    """``"spectral"`` when the m training nodes exceed 3/4 of the l
    eigenpairs, else ``"dense"``: the LML route, and the route of every
    other computation on the model, so each reads one factor.

    3/4 is not the crossover. Timed at one BLAS thread on a 45 x 45 road
    lattice (LML with gradients), the l x l route was already 1.5 to 1.9x
    faster at m = 3l/4 for l = 500 and 1000, and the two met near m = 0.6 l
    at l = 500; at m <= 200 the m x m Cholesky was 2.3 to 48x faster. The
    threshold stays until a benchmark workload times the dense side.
    """
    m, l = model.train_nodes.size, model.basis.n_retained
    return "spectral" if 4 * m > 3 * l else "dense"


def log_marginal_likelihood(model: GPRegressionModel):
    """log N(y | 0, K_xx + noise2 I) and its gradients.

    Returns ``(value, grads)`` with grads keyed by the unconstrained
    coordinates (log_kappa, log_nu, log_sigma2, logit_alpha as applicable,
    and log_noise2).

    The route is ``_route``'s. The spectral one applies the matrix inversion
    and determinant lemmas in the l-dimensional feature space; the dense one
    factors the m x m K_xx + noise2 I.
    """
    if _route(model) == "spectral":
        return _lml_spectral(model)
    return _lml_dense(model)


def _lml_grads(model, proj, trace_cols, alpha_sq, trace_cinv):
    """Unconstrained gradients from the terms both LML routes compute.

    dL/dtheta = 0.5 alpha^T dC alpha - 0.5 tr(C^{-1} dC) with
    dC = P diag(dd) P^T collapses to weighted column sums of
    ``proj`` = P^T alpha and ``trace_cols`` = diag(P^T C^{-1} P); the noise
    term needs alpha^T alpha and tr(C^{-1}).
    """
    _, d_grads = model._weights
    grads = unconstrained_grads(model.spec, 0.5 * (proj**2 - trace_cols), d_grads)
    g_noise = 0.5 * (alpha_sq - trace_cinv)
    grads["log_noise2"] = g_noise * model.noise2
    return grads


def _lml_dense(model: GPRegressionModel):
    """LML through the memoized factor of the m x m train covariance C."""
    phi = model._phi_train
    half_logdet, inv_chol, alpha, _ = model._c_factor
    y = model.targets
    n = y.shape[0]

    value = -0.5 * float(y @ alpha) - half_logdet - 0.5 * n * np.log(2.0 * np.pi)
    proj = phi.T @ alpha
    half = dtrmm(1.0, inv_chol, phi, lower=1)  # L^-1 P: C^-1 = L^-T L^-1
    trace_cols = np.einsum("ij,ij->j", half, half)
    trace_cinv = float(np.sum(inv_chol**2))
    return value, _lml_grads(model, proj, trace_cols, float(alpha @ alpha), trace_cinv)


def _lml_spectral(model: GPRegressionModel):
    """LML in the l-dimensional feature space of P = Phi_x (m x l).

    With E = P^T P, t = P^T y and s2 the noise, the model's memoized factor
    L_B of B = I + M, M = D^1/2 E D^1/2 / s2, and coef = D^1/2 B^-1 D^1/2
    t / s2 give log|C| = log|B| + m log s2, y^T C^-1 y = (y^T y - t^T coef)
    / s2, P^T alpha = (t - E coef) / s2 and alpha = (y - P coef) / s2. The
    identity M B^-1 M = M - I + B^-1 gives D^1/2 P^T C^-1 P D^1/2 = I - B^-1,
    so diag(P^T C^-1 P) = (1 - diag B^-1) / d and tr(C^-1) =
    (m - l + tr B^-1) / s2, both from the column sums of squares of L_B^-1.
    Where d = 0 (clamped or underflowed weights) the quotient is 0/0; the
    entry is then E_jj / s2, its value without the other modes. It only
    meets derivatives dd that vanish there too, except at the kink of a
    p = 1 random walk whose base is exactly 0.
    """
    d, _ = model._weights
    half_logdet, inv_chol_b, _, t, coef = model._b_factor
    phi = model._phi_train
    e, _ = model._gram
    y = model.targets
    s2 = model.noise2
    m, l = phi.shape

    value = (
        -0.5 * float(y @ y - t @ coef) / s2
        - half_logdet
        - 0.5 * m * np.log(s2)
        - 0.5 * m * np.log(2.0 * np.pi)
    )
    proj = (t - e @ coef) / s2
    alpha = (y - phi @ coef) / s2
    diag_b_inv = np.einsum("ij,ij->j", inv_chol_b, inv_chol_b)
    trace_cols = np.divide(1.0 - diag_b_inv, d, out=np.diag(e) / s2, where=d > 0.0)
    trace_cinv = (m - l + float(np.sum(diag_b_inv))) / s2
    return value, _lml_grads(model, proj, trace_cols, float(alpha @ alpha), trace_cinv)


def fit(model: GPRegressionModel, config: AdamConfig | None = None):
    """Maximize the log marginal likelihood with Adam in log coordinates.

    Returns ``(model, loss_trace)``, the best iterate and the negative log
    marginal likelihood of each evaluated one, from ``optim._maximize``.
    """
    config = config or AdamConfig()
    names = check_trainable(model.spec, config.trainable, ("noise2",))
    params = to_unconstrained(
        {n: model.noise2 if n == "noise2" else getattr(model.spec, n) for n in names})

    def advance(current, params):
        return current.with_raw_params(from_unconstrained(params, names))

    best, values = _maximize(
        log_marginal_likelihood, advance, model, params, config,
        lambda m: f"kernel {m.spec.to_dict()}; noise2 {m.noise2!r}", keep_best=True,
        step=adam_step)
    return best, -values


def pathwise_sample(model: GPRegressionModel, query=None, n_samples=1, seed=0):
    """Joint posterior samples via Matheron's update.

    A prior path is drawn exactly from the spectral features (f = P sqrt(D) xi)
    at the query and train nodes with shared coefficients, then corrected by
    K_.x (K_xx + noise2 I)^{-1} r, r = y - f_x - eps. Returns (n_samples,
    n_query). On the model's route (``_route``): the dense one solves with
    the factor of the m x m train covariance, the spectral one applies
    D P^T C^-1 r = D^1/2 B^-1 D^1/2 P^T r / noise2 (Wilson et al. 2020) with
    the factor of B. The draws are the same either way.

    With l eigenpairs, m training nodes and S = ``n_samples``, a |q| x l
    block of query eigenvector rows, an l x S coefficient draw or a |q| x S
    or m x S block of path values over ``DENSE_ELEMENT_LIMIT`` elements
    raises ``ValueError`` naming it and its shape, and so does the dense
    route's m x m train covariance over that limit; all before any product.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    q = _node_indices(query, model.basis.total_dim, "query")
    m, l = model.train_nodes.size, model.basis.n_retained
    for block, shape in (("query eigenvector block", (q.size, l)),
                         ("coefficient draw", (l, n_samples)),
                         ("query sample block", (q.size, n_samples)),
                         ("train sample block", (m, n_samples))):
        _check_dense_size("pathwise_sample", block, shape,
                          "pass a smaller query or fewer samples", verb="form")
    rng = np.random.default_rng(seed)
    d, _ = model._weights
    root = np.sqrt(d)
    phi_x = model._phi_train
    phi_q = model.basis.eigenvectors[q]
    spectral = _route(model) == "spectral"
    inv_chol = model._b_factor[1] if spectral else model._c_factor[1]

    xi = rng.standard_normal((d.shape[0], n_samples))
    f_x = phi_x @ (root[:, None] * xi)
    f_q = phi_q @ (root[:, None] * xi)
    eps = np.sqrt(model.noise2) * rng.standard_normal(f_x.shape)
    resid = model.targets[:, None] - f_x - eps
    if spectral:
        resid = root[:, None] * (phi_x.T @ resid)
    half = dtrmm(1.0, inv_chol, resid, lower=1, overwrite_b=1)  # L^-T L^-1 = C^-1 or B^-1
    solved = dtrmm(1.0, inv_chol, half, lower=1, trans_a=1, overwrite_b=1)
    if spectral:
        return (f_q + phi_q @ (root[:, None] * solved / model.noise2)).T
    return (f_q + (phi_q * d) @ (phi_x.T @ solved)).T


def gmrf_posterior(precision, noise2, train_nodes, targets, query=None) -> PosteriorSummary:
    """Posterior under a sparse-precision prior by sparse factorization.

    The posterior precision is Q + noise2^{-1} sum_i e_i e_i^T over observed
    nodes. It is factored once, by the minimum-degree sparse factorization
    that the Lanczos eigensolver also uses, with the k distinct query nodes
    eliminated last. One solve against noise2^{-1} sum_i e_i y_i gives the
    mean. The covariance at the queries is the inverse of their Schur
    complement, whose LU factors are the factor's rows and columns at the
    query positions, so it costs one k x k triangular inversion and no
    covariance columns. Before the factorization, a |query| x |query|
    output over ``DENSE_ELEMENT_LIMIT`` elements, or k over
    ``spectral.DENSE_SIZE_LIMIT`` nodes for the k^3 inversion, raises
    ``ValueError`` naming the refused shape. A non-symmetric precision
    raises ``ValueError``, as do observations ``GPRegressionModel`` refuses;
    a singular or indefinite one raises ``scipy.linalg.LinAlgError``.
    """
    q_post = sp.csc_array(precision)
    n = q_post.shape[0]
    if q_post.shape[0] != q_post.shape[1]:
        raise ValueError("precision must be square")
    asymmetry = np.abs((q_post - q_post.T).data).max(initial=0.0)
    if asymmetry > 1e-10 * np.abs(q_post.data).max(initial=0.0):
        raise ValueError(
            f"precision must be symmetric; |Q - Q^T| reaches {asymmetry:.3e}"
        )
    x, y = _check_observations(n, train_nodes, targets, noise2)
    q = _node_indices(query, n, "query")
    _check_dense_size("gmrf_posterior", "query covariance", (q.size, q.size),
                      "pass a smaller query")
    nodes, inverse = np.unique(q, return_inverse=True)
    k = nodes.size
    if k > DENSE_SIZE_LIMIT:
        raise ValueError(
            f"gmrf_posterior would invert a dense {k} x {k} block of distinct "
            f"query nodes, over the {DENSE_SIZE_LIMIT}-node dense limit; "
            "pass fewer distinct query nodes"
        )
    q_post = q_post + sp.diags_array(np.bincount(x, minlength=n) / noise2)
    lu, order = _factor_spd(q_post, "posterior precision", last=nodes)
    del q_post
    b = np.bincount(x, weights=y / noise2, minlength=n)
    mean = np.empty(n)
    mean[order] = lu.solve(b[order])
    pivots = lu.U.diagonal()
    if not np.all(pivots > 0):
        raise scipy.linalg.LinAlgError(
            "posterior precision is not positive definite: a pivot is "
            f"{pivots.min():.3e}"
        )
    # The query nodes sit at factor positions perm_c[n-k:]; sorted, they
    # index lower and upper triangular blocks of L and U.
    at = np.argsort(lu.perm_c[n - k:])
    pos = lu.perm_c[n - k:][at]
    rows = np.searchsorted(nodes, order[n - k:][at])
    l_tt = lu.L[:, pos][pos].toarray()
    u_tt = lu.U[:, pos][pos].toarray()
    del lu
    inv_l = solve_triangular(l_tt, np.eye(k), lower=True, unit_diagonal=True)
    cov = np.empty((k, k))
    cov[np.ix_(rows, rows)] = solve_triangular(u_tt, inv_l)
    cov = cov[np.ix_(inverse, inverse)]
    cov = (cov + cov.T) / 2.0
    return PosteriorSummary(mean=mean[q], variance=np.diag(cov).copy(), covariance=cov)


def _read_node_csv(path, value_name, parse):
    """Read ``node_index,<value_name>`` rows (optional header) into two lists.

    The first non-blank line is a header only when its node field is an
    identifier such as ``node_index``; every other line must parse as data,
    its node index an integer within int64. A leading UTF-8 byte-order
    mark is dropped.
    """
    nodes, values = [], []
    first = True
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ValueError(f"expected 'node_index,{value_name}' at line {lineno}")
            header, first = first and parts[0].isidentifier(), False
            if header:
                continue
            try:
                nodes.append(_int64_token(parts[0]))
                values.append(parse(parts[1]))
            except ValueError:
                raise ValueError(f"malformed row at line {lineno}") from None
    return np.asarray(nodes, dtype=np.int64), values


def read_targets_csv(path):
    """Read ``node_index,value`` rows (optional header) into index/value arrays."""
    nodes, values = _read_node_csv(path, "value", float)
    return nodes, np.asarray(values, dtype=float)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_snapshot(path, kind, model, **fields):
    """Schema version 1 JSON: kind, kernel and basis size, then every field of
    the kind's schema, from ``fields`` or else the model attribute of that
    name; arrays and numpy scalars are written through ``.tolist()``."""
    for name in _SNAPSHOT_FIELDS[kind]:
        value = fields[name] if name in fields else getattr(model, name)
        fields[name] = value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value
    _write_json(path, {"schema_version": 1, "kind": kind, "kernel": model.spec.to_dict(),
                       "eigenpairs": model.basis.n_retained, **fields})


# JSON type of every snapshot field, shared and per kind: [t] is an array
# of t or of such arrays, and a float field takes an integer too when it
# converts to a finite float.
_SNAPSHOT_FIELDS = {
    None: {"schema_version": int, "kernel": dict, "eigenpairs": int},
    "regression": {"noise2": float, "train_nodes": [int], "targets": [float]},
    "classifier": {"n_classes": int, "inducing_nodes": [int], "whitened": bool,
                   "diag_cov": bool, "epsilon": float, "jitter": float,
                   "q_mu": [float], "q_scale": [float]},
}
_JSON_NAMES = {int: "integer", float: "number", bool: "boolean", dict: "object"}


def _json_is(value, kind) -> bool:
    if isinstance(kind, list):
        return type(value) is list and all(
            _json_is(v, kind if type(v) is list else kind[0]) for v in value
        )
    return type(value) is kind or (kind is float and type(value) is int and _finite(value))


def _read_snapshot(path, kind=None) -> dict:
    """Parse a snapshot once and check it: a JSON object of a known kind
    (``kind`` when given), every field that kind needs present with its
    JSON type, schema version 1, a positive eigenpair count and a valid
    kernel, returned parsed into a ``KernelSpec``. A field of the wrong
    type is named before a missing one."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"model snapshot {path} is not a JSON object")
    found = payload.get("kind")
    if found not in ("regression", "classifier"):
        raise ValueError(f"unknown snapshot kind {found!r} in {path}")
    if kind is not None and found != kind:
        raise ValueError(f"snapshot kind {found!r} is not {kind}")
    fields = {**_SNAPSHOT_FIELDS[None], **_SNAPSHOT_FIELDS[found]}
    for name, t in fields.items():
        if name in payload and not _json_is(payload[name], t):
            what = _JSON_NAMES[t[0]] + " array" if isinstance(t, list) else _JSON_NAMES[t]
            raise ValueError(f"snapshot field {name!r} in {path} is not a JSON {what}")
    for name in fields:
        if name not in payload:
            raise ValueError(f"snapshot {path} lacks field {name!r}")
    if payload["schema_version"] != 1:
        raise ValueError(f"unsupported snapshot schema {payload['schema_version']!r}")
    if payload["eigenpairs"] < 1:
        raise ValueError(f"snapshot field 'eigenpairs' is {payload['eigenpairs']}, not positive")
    return {**payload, "kernel": KernelSpec.from_dict(payload["kernel"])}


def _snapshot_spec(snapshot, n_retained: int) -> KernelSpec:
    """The snapshot's kernel, once its basis size matches ``n_retained``."""
    if snapshot["eigenpairs"] != n_retained:
        raise ValueError(
            f"snapshot expects {snapshot['eigenpairs']} eigenpairs but basis "
            f"holds {n_retained}"
        )
    return snapshot["kernel"]


def save_model(model: GPRegressionModel, path):
    """Snapshot kernel, noise and training data as schema version 1 JSON."""
    _write_snapshot(path, "regression", model)


def load_model(path, basis: SpectralBasis) -> GPRegressionModel:
    """Rebuild a snapshot against a caller-provided basis."""
    return _model_from_snapshot(_read_snapshot(path, "regression"), basis)


def _model_from_snapshot(snapshot, basis: SpectralBasis) -> GPRegressionModel:
    return GPRegressionModel(
        spec=_snapshot_spec(snapshot, basis.n_retained),
        basis=basis,
        train_nodes=snapshot["train_nodes"],
        targets=np.asarray(snapshot["targets"], dtype=float),
        noise2=float(snapshot["noise2"]),
    )
