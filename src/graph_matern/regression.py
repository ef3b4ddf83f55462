"""Gaussian process regression on graph nodes.

Three inference routes over the same prior:

* ``posterior``: dense conditioning on K_xx + noise2 I.
* ``woodbury_posterior``: the identical posterior computed in the l x l
  spectral (Fourier feature) space from the one Cholesky factor of
  B = I + D^1/2 E D^1/2 / noise2 that the spectral LML also reads; exact
  when the basis is full, rank-l otherwise, and zero-weight modes stay in.
* ``gmrf_posterior``: sparse-precision conditioning for integer smoothness,
  dual to the matern kernel with variance normalization off. One sparse
  factorization, with the query nodes eliminated last, gives the mean by
  one solve and the query covariance from the factor's trailing block.

The log marginal likelihood carries hand-derived gradients with respect to
the unconstrained (log, or logit for alpha) coordinates of the trainable
parameters, including the trace-normalization constant's dependence on them.
It picks its route from the shapes: with m training nodes and l retained
eigenpairs, m > 3l/4 works in the l x l spectral feature space,
O(m l^2 + l^3) and no jitter; otherwise it factors the m x m train
covariance with the jitter ladder, O(m^2 l + m^3).
"""

import dataclasses
import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrtri
import scipy.sparse as sp

from .kernels import KernelSpec, _as_query, spectral_weights, trainable_params
from .optim import AdamConfig, AdamState, adam_step
from .spectral import SpectralBasis, _factor_spd

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

# Most n x |query| elements gmrf_posterior accepts (1 GiB of float64). The
# covariance is only a k x k block for k distinct queries, so the limit is
# conservative; a k^2 limit would need its own bound on the k^3 inversion.
DENSE_ELEMENT_LIMIT = 2**27


def unconstrained_name(name: str) -> str:
    return "logit_alpha" if name == "alpha" else f"log_{name}"


def to_unconstrained(name: str, value: float) -> float:
    if name == "alpha":
        return float(np.log(value) - np.log1p(-value))
    return float(np.log(value))


def from_unconstrained(name: str, t: float) -> float:
    if name == "alpha":
        return float(1.0 / (1.0 + np.exp(-t)))
    return float(np.exp(t))


def chain_factor(name: str, value: float) -> float:
    """d(raw)/d(unconstrained) evaluated at the raw value."""
    if name == "alpha":
        return float(value * (1.0 - value))
    return float(value)


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
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes, targets = _as_observations(
            self.train_nodes, self.targets, self.basis.total_dim
        )
        if nodes.size == 0:
            raise ValueError("regression needs at least one training node")
        if not np.all(np.isfinite(targets)):
            raise ValueError("targets must be finite")
        if not (np.isfinite(self.noise2) and self.noise2 > 0):
            raise ValueError(f"noise2 must be positive, got {self.noise2!r}")
        if self.spec.laplacian_kind != self.basis.laplacian_kind:
            raise ValueError(
                "kernel spec and basis disagree on the laplacian kind"
            )
        object.__setattr__(self, "train_nodes", nodes)
        object.__setattr__(self, "targets", targets)

    def with_raw_params(self, raw: dict) -> "GPRegressionModel":
        """New model with raw kernel parameters / noise2 replaced."""
        spec_updates = {k: v for k, v in raw.items() if k != "noise2"}
        spec = self.spec.with_params(**spec_updates) if spec_updates else self.spec
        return dataclasses.replace(
            self, spec=spec, noise2=raw.get("noise2", self.noise2)
        )

    # Everything below is derived state, memoized per instance. Parameter
    # changes go through with_raw_params, which builds a fresh instance, so
    # stale entries cannot survive a parameter change. ``fit`` carries only
    # the train rows, E and t, which no parameter touches.

    def _phi_train(self) -> np.ndarray:
        if "phi_x" not in self._cache:
            self._cache["phi_x"] = self.basis.eigenvectors[self.train_nodes]
        return self._cache["phi_x"]

    def _gram(self):
        """``(E, t)``: E = P^T P and t = P^T y over the train rows P, shared
        by the spectral LML and ``woodbury_posterior``."""
        if "gram" not in self._cache:
            phi = self._phi_train()
            self._cache["gram"] = (phi.T @ phi, phi.T @ self.targets)
        return self._cache["gram"]

    def _weights(self):
        """``(d, grads)``: one evaluation serves the posteriors and the LML."""
        if "weights" not in self._cache:
            self._cache["weights"] = spectral_weights(
                self.spec,
                self.basis.eigenvalues,
                self.basis.total_dim,
                with_grads=True,
            )
        return self._cache["weights"]

    def _train_chol(self):
        """Cholesky of K_xx + noise2 I with an escalating jitter ladder."""
        if "chol" in self._cache:
            return self._cache["chol"]
        d, _ = self._weights()
        phi = self._phi_train()
        k_xx = (phi * d) @ phi.T
        k_xx = (k_xx + k_xx.T) / 2.0
        c = k_xx + self.noise2 * np.eye(k_xx.shape[0])
        scale = float(np.mean(np.diag(c)))
        chol = None
        used = None
        for j in _JITTERS:
            try:
                chol = scipy.linalg.cholesky(c + (j * scale) * np.eye(c.shape[0]), lower=True)
                used = j
                break
            except scipy.linalg.LinAlgError:
                continue
        if chol is None:
            raise scipy.linalg.LinAlgError(
                "train covariance is not positive definite even with jitter "
                f"up to {_JITTERS[-1]:g} * mean(diag)"
            )
        self._cache["chol"] = (chol, used)
        return self._cache["chol"]

    def _b_factor(self):
        """``(half_logdet, inv_chol_b, root, t, coef)`` for the spectral LML
        and ``woodbury_posterior``: log|B| / 2 and L_B^-1 for L_B the Cholesky
        factor of B = I + D^1/2 E D^1/2 / noise2 (all three in one l x l
        array), root = sqrt(d), t = P^T y and coef = D^1/2 B^-1 D^1/2 t /
        noise2. B's eigenvalues are >= 1, so it needs no jitter and
        zero-weight modes stay in."""
        if "b_factor" not in self._cache:
            d, _ = self._weights()
            root = np.sqrt(d)
            e, t = self._gram()
            b = np.multiply(root[:, None], e, order="F")  # LAPACK's layout
            b *= root
            b /= self.noise2
            b += 0.0  # I's zeros: -0.0 (zero weight, negative E entry) becomes +0.0
            b.flat[:: d.size + 1] += 1.0
            chol_b = scipy.linalg.cholesky(b, lower=True, overwrite_a=True)
            coef = root * cho_solve((chol_b, True), root * t) / self.noise2
            half_logdet = float(np.sum(np.log(np.diag(chol_b))))
            inv_chol_b, _ = dtrtri(chol_b, lower=1, overwrite_c=1)
            self._cache["b_factor"] = (half_logdet, inv_chol_b, root, t, coef)
        return self._cache["b_factor"]


def _carry_cache(old, new, keys):
    """``new`` holding ``old``'s memoized ``keys``: state of the basis and
    the fixed nodes, which a fit step does not change."""
    new._cache.update({k: old._cache[k] for k in keys if k in old._cache})
    return new


def _as_observations(train_nodes, targets, n):
    x = np.asarray(train_nodes, dtype=np.int64)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValueError("train_nodes and targets must be matching 1-d arrays")
    if x.size and (x.min() < 0 or x.max() >= n):
        raise ValueError(f"training node out of range [0, {n})")
    return x, y


def posterior(model: GPRegressionModel, query=None, diag=False) -> PosteriorSummary:
    """Exact posterior at the query nodes by dense conditioning.

    With ``diag`` only the marginal variances are formed. Warns when the
    train covariance is severely ill-conditioned instead of failing.
    """
    q = _as_query(query, model.basis.total_dim)
    d, _ = model._weights()
    chol, _ = model._train_chol()
    phi_x = model._phi_train()
    phi_q = model.basis.eigenvectors[q]
    k_qx = (phi_q * d) @ phi_x.T

    diag_c = np.diag(chol)
    cond = (np.max(diag_c) / np.min(diag_c)) ** 2
    if cond > _CONDITION_WARN:
        warnings.warn(
            f"train covariance condition number ~{cond:.2e}; posterior may be inaccurate",
            stacklevel=2,
        )

    alpha = cho_solve((chol, True), model.targets)
    mean = k_qx @ alpha
    half = solve_triangular(chol, k_qx.T, lower=True)
    if diag:
        var = np.einsum("ij,j->i", phi_q**2, d) - np.einsum("ji,ji->i", half, half)
        return PosteriorSummary(mean=mean, variance=np.maximum(var, 0.0))
    k_qq = (phi_q * d) @ phi_q.T
    cov = k_qq - half.T @ half
    cov = (cov + cov.T) / 2.0
    var = np.maximum(np.diag(cov), 0.0)
    return PosteriorSummary(mean=mean, variance=var, covariance=cov)


def woodbury_posterior(model: GPRegressionModel, query=None, diag=False) -> PosteriorSummary:
    """Same posterior in the l-dimensional feature space, from the model's
    one factor L_B of B = I + D^1/2 E D^1/2 / s2 (see ``_lml_spectral``).

    With P the train rows of the eigenvectors and D the spectral weights,
    the weight posterior has mean coef = D^1/2 B^-1 D^1/2 P^T y / s2
    (= D P^T alpha) and covariance D^1/2 B^-1 D^1/2. So the mean is
    Phi_q coef and, with W = L_B^-1 D^1/2 Phi_q^T, the covariance is W^T W
    and the variances are the column sums of W^2. Zero-weight modes stay
    in; an all-zero prior gives zero mean and covariance. After the LML
    the factor is memoized, and the cost is one triangular product,
    l^2 |q| flops.
    """
    q = _as_query(query, model.basis.total_dim)
    _, inv_chol_b, root, _, coef = model._b_factor()
    phi_q = model.basis.eigenvectors[q]
    mean = phi_q @ coef
    w = dtrmm(1.0, inv_chol_b, root[:, None] * phi_q.T, lower=1, overwrite_b=1)
    var = np.einsum("ij,ij->j", w, w)
    if diag:
        return PosteriorSummary(mean=mean, variance=var)
    return PosteriorSummary(mean=mean, variance=var, covariance=w.T @ w)


def _lml_route(model: GPRegressionModel) -> str:
    """``"spectral"`` when the m training nodes exceed 3/4 of the l
    eigenpairs, else ``"dense"``: whichever LML route is faster.

    Timed at one BLAS thread for l = 100 to 800, the two routes break even
    at m = 0.75 l. Below it the m x m Cholesky wins, 2x at m = l/2 and
    20x on a full basis with m = n/10; above it the l x l route wins, 1.1
    to 1.8x at m = l and 3 to 4x at m = 1.6 l.
    """
    m, l = model.train_nodes.size, model.basis.n_retained
    return "spectral" if 4 * m > 3 * l else "dense"


def log_marginal_likelihood(model: GPRegressionModel):
    """log N(y | 0, K_xx + noise2 I) and its gradients.

    Returns ``(value, grads)`` with grads keyed by the unconstrained
    coordinates (log_kappa, log_nu, log_sigma2, logit_alpha as applicable,
    and log_noise2).

    The route follows the model's shapes. With m training nodes and l
    retained eigenpairs, m > 3l/4 takes the spectral route: the matrix
    inversion and determinant lemmas in the l-dimensional feature space,
    O(m l^2 + l^3), with no jitter. Otherwise the dense route factors the
    m x m K_xx + noise2 I with the jitter ladder, O(m^2 l + m^3). The
    3/4 is the measured break-even point of the two.
    """
    if _lml_route(model) == "spectral":
        return _lml_spectral(model)
    return _lml_dense(model)


def _lml_grads(model, proj, trace_cols, alpha_sq, trace_cinv):
    """Unconstrained gradients from the terms both LML routes compute.

    dL/dtheta = 0.5 alpha^T dC alpha - 0.5 tr(C^{-1} dC) with
    dC = P diag(dd) P^T collapses to weighted column sums of
    ``proj`` = P^T alpha and ``trace_cols`` = diag(P^T C^{-1} P); the noise
    term needs alpha^T alpha and tr(C^{-1}).
    """
    _, d_grads = model._weights()
    quad_cols = proj**2
    grads = {}
    raw = {name: getattr(model.spec, name) for name in trainable_params(model.spec)}
    for name, dd in d_grads.items():
        g = 0.5 * float(np.dot(dd, quad_cols - trace_cols))
        grads[unconstrained_name(name)] = g * chain_factor(name, raw[name])
    g_noise = 0.5 * (alpha_sq - trace_cinv)
    grads["log_noise2"] = g_noise * model.noise2
    return grads


def _lml_dense(model: GPRegressionModel):
    """LML through the Cholesky factor of the m x m train covariance C."""
    phi = model._phi_train()
    chol, _ = model._train_chol()
    y = model.targets
    n = y.shape[0]

    alpha = cho_solve((chol, True), y)
    value = (
        -0.5 * float(y @ alpha)
        - float(np.sum(np.log(np.diag(chol))))
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    proj = phi.T @ alpha
    m = cho_solve((chol, True), phi)
    trace_cols = np.einsum("ij,ij->j", phi, m)
    inv_chol, _ = dtrtri(chol, lower=1)
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
    d, _ = model._weights()
    half_logdet, inv_chol_b, _, t, coef = model._b_factor()
    phi = model._phi_train()
    e, _ = model._gram()
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

    Returns ``(model, loss_trace)`` where the model is the best iterate seen
    (the negative log marginal likelihood trace includes the initial point
    and the post-update endpoint).
    """
    config = config or AdamConfig()
    allowed = tuple(trainable_params(model.spec)) + ("noise2",)
    names = config.trainable if config.trainable is not None else allowed
    unknown = set(names) - set(allowed)
    if unknown:
        raise ValueError(
            f"not trainable for a {model.spec.family} kernel: {sorted(unknown)}"
        )
    if not names:
        raise ValueError("no trainable parameters selected")

    def raw_of(m):
        out = {n: getattr(m.spec, n) for n in names if n != "noise2"}
        if "noise2" in names:
            out["noise2"] = m.noise2
        return out

    params = {
        unconstrained_name(n): np.asarray(to_unconstrained(n, v))
        for n, v in raw_of(model).items()
    }
    state = AdamState.from_config(config)
    current = model
    best = (np.inf, model)
    trace = []
    for step in range(config.iterations + 1):
        value, grads = log_marginal_likelihood(current)
        loss = -value
        if not np.isfinite(loss):
            raise RuntimeError(
                f"non-finite loss during fit at step {step}, parameters "
                f"{raw_of(current)}"
            )
        trace.append(loss)
        if loss < best[0]:
            best = (loss, current)
        if len(trace) == config.iterations + 1:
            break
        step_grads = {k: np.asarray(-grads[k]) for k in params}
        try:
            state, params = adam_step(state, params, step_grads)
        except ValueError as exc:
            raise RuntimeError(
                f"optimization aborted at step {step}, parameters "
                f"{raw_of(current)}: {exc}"
            ) from exc
        raw = {
            n: from_unconstrained(n, float(params[unconstrained_name(n)]))
            for n in names
        }
        current = _carry_cache(current, current.with_raw_params(raw), ("phi_x", "gram"))
    return best[1], np.asarray(trace)


def pathwise_sample(model: GPRegressionModel, query=None, n_samples=1, seed=0):
    """Joint posterior samples via Matheron's update.

    A prior path is drawn exactly from the spectral features (f = P sqrt(D) xi)
    at the query and train nodes with shared coefficients, then corrected by
    K_.x (K_xx + noise2 I)^{-1} (y - f_x - eps). Returns (n_samples, n_query).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    q = _as_query(query, model.basis.total_dim)
    rng = np.random.default_rng(seed)
    d, _ = model._weights()
    root = np.sqrt(d)
    phi_x = model._phi_train()
    phi_q = model.basis.eigenvectors[q]
    chol, _ = model._train_chol()

    xi = rng.standard_normal((d.shape[0], n_samples))
    f_x = phi_x @ (root[:, None] * xi)
    f_q = phi_q @ (root[:, None] * xi)
    eps = np.sqrt(model.noise2) * rng.standard_normal(f_x.shape)
    resid = model.targets[:, None] - f_x - eps
    alpha = cho_solve((chol, True), resid)
    paths = f_q + (phi_q * d) @ (phi_x.T @ alpha)
    return paths.T


def gmrf_posterior(precision, noise2, train_nodes, targets, query=None) -> PosteriorSummary:
    """Posterior under a sparse-precision prior by sparse factorization.

    The posterior precision is Q + noise2^{-1} sum_i e_i e_i^T over observed
    nodes. It is factored once, by the minimum-degree sparse factorization
    that the Lanczos eigensolver also uses, with the k distinct query nodes
    eliminated last. One solve against noise2^{-1} sum_i e_i y_i gives the
    mean. The covariance at the queries is the inverse of their Schur
    complement, whose LU factors are the factor's rows and columns at the
    query positions, so it costs one k x k triangular inversion and no
    covariance columns. A non-symmetric precision raises ``ValueError``; a
    singular or indefinite one raises ``scipy.linalg.LinAlgError``.
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
    if not (np.isfinite(noise2) and noise2 > 0):
        raise ValueError(f"noise2 must be positive, got {noise2!r}")
    x, y = _as_observations(train_nodes, targets, n)
    q = _as_query(query, n)
    if n * q.size > DENSE_ELEMENT_LIMIT:
        raise ValueError(
            f"gmrf_posterior would solve for a dense {n} x {q.size} block of "
            f"covariance columns, over the {DENSE_ELEMENT_LIMIT}-element limit; "
            "pass a smaller query"
        )

    nodes, inverse = np.unique(q, return_inverse=True)
    k = nodes.size
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
    identifier such as ``node_index``; every other line must parse as data.
    """
    nodes, values = [], []
    first = True
    with open(path, "r", encoding="utf-8") as fh:
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
                nodes.append(int(parts[0]))
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
    """Schema version 1 JSON: kind, kernel and basis size plus ``fields``."""
    _write_json(path, {
        "schema_version": 1,
        "kind": kind,
        "kernel": model.spec.to_dict(),
        "eigenpairs": model.basis.n_retained,
        **fields,
    })


def _read_snapshot(path, kind, basis: SpectralBasis) -> dict:
    """Load a snapshot, checking its schema, kind and basis size."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != 1:
        raise ValueError(f"unsupported snapshot schema {payload.get('schema_version')!r}")
    if payload.get("kind") != kind:
        raise ValueError(f"snapshot kind {payload.get('kind')!r} is not {kind}")
    if payload.get("eigenpairs") != basis.n_retained:
        raise ValueError(
            f"snapshot expects {payload.get('eigenpairs')} eigenpairs but basis "
            f"holds {basis.n_retained}"
        )
    return payload


def save_model(model: GPRegressionModel, path):
    """Snapshot kernel, noise and training data as schema version 1 JSON."""
    _write_snapshot(
        path, "regression", model,
        noise2=model.noise2,
        train_nodes=[int(i) for i in model.train_nodes],
        targets=[float(v) for v in model.targets],
    )


def load_model(path, basis: SpectralBasis) -> GPRegressionModel:
    """Rebuild a snapshot against a caller-provided basis."""
    payload = _read_snapshot(path, "regression", basis)
    return GPRegressionModel(
        spec=KernelSpec.from_dict(payload["kernel"]),
        basis=basis,
        train_nodes=np.asarray(payload["train_nodes"], dtype=np.int64),
        targets=np.asarray(payload["targets"], dtype=float),
        noise2=float(payload["noise2"]),
    )
