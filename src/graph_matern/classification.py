"""Variational multi-class classification with the robust-max likelihood.

Per class c the latent GP is approximated by q(u_c) = N(mu_c, Sigma_c) at m
inducing nodes; marginals at batch nodes come from the standard sparse-GP
conditional. In whitened mode the variational distribution lives in the
space u = L w (L the Cholesky factor of K_zz + jitter I), so the KL against
N(0, I) does not touch the kernel.

The robust-max likelihood assigns 1 - eps to the argmax class and spreads
eps over the rest. Its expected log under the q marginals reduces to

    E[log p(y|f)] = log(eps / (C-1)) + P * (log(1 - eps) - log(eps / (C-1)))

with P = P(argmax_c f_c = y). P is estimated by Monte Carlo over the target
class latent only, with the other classes integrated out analytically as a
product of normal CDFs; the integrand is smooth, so gradients of the sampled
objective are exact gradients of the estimator at fixed draws.

All gradients (variational, kernel, through Cholesky and triangular solves)
are hand-derived and checked against finite differences in the tests.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import log_ndtr

from .kernels import KernelSpec, _as_query, spectral_weights, trainable_params
from .optim import AdamConfig, AdamState, adam_step
from .regression import (
    _carry_cache,
    _read_node_csv,
    _read_snapshot,
    _write_snapshot,
    chain_factor,
    from_unconstrained,
    to_unconstrained,
    unconstrained_name,
)
from .spectral import SpectralBasis

__all__ = [
    "VariationalClassifier",
    "robustmax",
    "kl_gaussian",
    "elbo",
    "fit_classifier",
    "predict_classes",
    "read_labels_csv",
    "save_classifier",
    "load_classifier",
]

_LOG_2PI = float(np.log(2.0 * np.pi))
_VAR_FLOOR = 1e-12
# Monte Carlo samples per predictive vote; bounds its arrays at chunk x k x C.
_VOTE_CHUNK = 16


def robustmax(f, epsilon: float = 1e-3) -> np.ndarray:
    """Hard-max link: 1 - eps on the argmax entry, eps/(C-1) elsewhere.

    Works on any (..., C) array; ties go to the lowest class index.
    """
    f = np.asarray(f, dtype=float)
    c = f.shape[-1]
    if c < 2:
        raise ValueError("robustmax needs at least two classes")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    out = np.full(f.shape, epsilon / (c - 1))
    winner = np.argmax(f, axis=-1)
    np.put_along_axis(out, winner[..., None], 1.0 - epsilon, axis=-1)
    return out


def kl_gaussian(q_mean, q_cov, p_cov=None) -> float:
    """KL(N(q_mean, q_cov) || N(0, p_cov)), p_cov defaulting to identity.

    Covariances may be full matrices or diagonal vectors. Both must be
    positive definite; failures surface as LinAlgError.
    """
    mu = np.asarray(q_mean, dtype=float)
    m = mu.shape[0]
    q = np.asarray(q_cov, dtype=float)
    if q.ndim == 1:
        q = np.diag(q)
    if p_cov is None:
        p = np.eye(m)
    else:
        p = np.asarray(p_cov, dtype=float)
        if p.ndim == 1:
            p = np.diag(p)
    lq = scipy.linalg.cholesky(q, lower=True)
    lp = scipy.linalg.cholesky(p, lower=True)
    half = solve_triangular(lp, lq, lower=True)
    w = solve_triangular(lp, mu, lower=True)
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(lq))))
    logdet_p = 2.0 * float(np.sum(np.log(np.diag(lp))))
    return 0.5 * (
        float(np.sum(half**2)) + float(w @ w) - m + logdet_p - logdet_q
    )


@dataclass
class VariationalClassifier:
    """Per-class independent graph GP priors with a shared kernel.

    q_log_scale holds log standard deviations in diagonal mode; in full mode
    q_scale_tril holds raw lower-triangular factors R with Sigma = R R^T.
    """

    spec: KernelSpec
    basis: SpectralBasis
    n_classes: int
    inducing_nodes: np.ndarray
    q_mu: np.ndarray
    q_log_scale: np.ndarray | None = None
    q_scale_tril: np.ndarray | None = None
    whitened: bool = True
    epsilon: float = 1e-3
    jitter: float = 1e-6
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        z = np.asarray(self.inducing_nodes, dtype=np.int64)
        if z.ndim != 1 or z.size == 0:
            raise ValueError("inducing_nodes must be a nonempty 1-d index array")
        if np.unique(z).size != z.size:
            raise ValueError("inducing nodes must be distinct")
        if z.min() < 0 or z.max() >= self.basis.total_dim:
            raise ValueError(f"inducing node out of range [0, {self.basis.total_dim})")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        c, m = self.n_classes, z.size
        mu = np.asarray(self.q_mu, dtype=float)
        if mu.shape != (c, m):
            raise ValueError(f"q_mu must have shape {(c, m)}, got {mu.shape}")
        if (self.q_log_scale is None) == (self.q_scale_tril is None):
            raise ValueError("exactly one of q_log_scale / q_scale_tril must be set")
        name, shape = (
            ("q_log_scale", (c, m)) if self.diag_cov else ("q_scale_tril", (c, m, m))
        )
        scale = np.asarray(getattr(self, name), dtype=float)
        if scale.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {scale.shape}")
        object.__setattr__(self, name, scale if self.diag_cov else np.tril(scale))
        if self.spec.laplacian_kind != self.basis.laplacian_kind:
            raise ValueError("kernel spec and basis disagree on the laplacian kind")
        object.__setattr__(self, "inducing_nodes", z)
        object.__setattr__(self, "q_mu", mu)

    @property
    def diag_cov(self) -> bool:
        return self.q_log_scale is not None

    @property
    def n_inducing(self) -> int:
        return self.inducing_nodes.shape[0]

    @classmethod
    def create(
        cls,
        spec: KernelSpec,
        basis: SpectralBasis,
        n_classes: int,
        inducing_nodes,
        diag_cov: bool = True,
        whitened: bool = True,
        epsilon: float = 1e-3,
        jitter: float = 1e-6,
    ) -> "VariationalClassifier":
        """Identity-covariance, zero-mean initialization."""
        z = np.asarray(inducing_nodes, dtype=np.int64)
        m = z.shape[0]
        if diag_cov:
            scale = {"q_log_scale": np.zeros((n_classes, m))}
        else:
            scale = {"q_scale_tril": np.broadcast_to(np.eye(m), (n_classes, m, m)).copy()}
        return cls(
            spec=spec, basis=basis, n_classes=n_classes, inducing_nodes=z,
            q_mu=np.zeros((n_classes, m)),
            whitened=whitened, epsilon=epsilon, jitter=jitter, **scale,
        )

    def with_updates(self, **kwargs) -> "VariationalClassifier":
        return dataclasses.replace(self, **kwargs)


def _tril_halfdiag(x):
    out = np.tril(x)
    idx = np.arange(out.shape[0])
    out[idx, idx] *= 0.5
    return out


def _chol_backward(chol, chol_bar):
    """Sensitivity to Sigma given sensitivity to its Cholesky factor."""
    p = _tril_halfdiag(chol.T @ chol_bar)
    sym = p + p.T
    half = solve_triangular(chol, sym, lower=True, trans="T")
    out = solve_triangular(chol, half.T, lower=True, trans="T").T
    return 0.5 * out


def _kernel_blocks(model: VariationalClassifier, batch):
    """K_zz+jitter Cholesky, K_zb, diag K_bb, plus the pieces for backprop.

    The inducing rows Phi_z are memoized in the model cache, which
    ``fit_classifier`` carries from step to step. When the batch is the
    inducing set, as on a full-batch step, Phi_b is Phi_z and the one
    product (Phi_z D) Phi_z^T is K_zb and, symmetrized, K_zz.
    """
    key = ("blocks", batch.tobytes())
    if key in model._cache:
        return model._cache[key]
    d, d_grads = spectral_weights(
        model.spec, model.basis.eigenvalues, model.basis.total_dim, with_grads=True
    )
    if "phi_z" not in model._cache:
        model._cache["phi_z"] = model.basis.eigenvectors[model.inducing_nodes]
    phi_z = model._cache["phi_z"]
    shared = np.array_equal(batch, model.inducing_nodes)
    phi_b = phi_z if shared else model.basis.eigenvectors[batch]
    prod = (phi_z * d) @ phi_z.T
    k_zz = (prod + prod.T) / 2.0
    k_zz[np.arange(k_zz.shape[0]), np.arange(k_zz.shape[0])] += model.jitter
    try:
        chol = scipy.linalg.cholesky(k_zz, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise scipy.linalg.LinAlgError(
            f"inducing covariance not positive definite with jitter {model.jitter:g}"
        ) from exc
    k_zb = prod if shared else (phi_z * d) @ phi_b.T
    k_bb = np.einsum("ij,j->i", phi_b**2, d)
    blocks = {
        "d": d, "d_grads": d_grads, "phi_z": phi_z, "phi_b": phi_b,
        "chol": chol, "k_zb": k_zb, "k_bb": k_bb,
    }
    model._cache[key] = blocks
    return blocks


def _marginals(model: VariationalClassifier, batch):
    """Per-class q(f) marginal means/variances at the batch nodes.

    Returns (mean (b, C), var (b, C), ctx) where ctx carries intermediates
    for the backward pass.
    """
    blocks = _kernel_blocks(model, batch)
    chol, k_zb, k_bb = blocks["chol"], blocks["k_zb"], blocks["k_bb"]
    a = solve_triangular(chol, k_zb, lower=True)
    base_var = k_bb - np.einsum("ji,ji->i", a, a)
    ctx = {"blocks": blocks, "a": a, "base_var": base_var}
    if model.whitened:
        proj = a
    else:
        proj = solve_triangular(chol, a, lower=True, trans="T")
        ctx["a2"] = proj
    mean = (model.q_mu @ proj).T
    if model.diag_cov:
        r2 = np.exp(2.0 * model.q_log_scale)
        var = base_var[:, None] + (proj**2).T @ r2.T
        ctx["r2"] = r2
    else:
        t_all = np.einsum("cmk,kb->cmb", np.transpose(model.q_scale_tril, (0, 2, 1)), proj)
        var = base_var[:, None] + np.einsum("cmb,cmb->bc", t_all, t_all)
        ctx["t_all"] = t_all
    ctx["proj"] = proj
    return mean, var, ctx


def _log_lik_forward(model, mean, var, labels, xi, scale):
    """Expected robust-max log likelihood of the batch, and its m/v grads.

    mean/var are (b, C); xi is (S, b) standard normal; scale multiplies the
    batch sum (the N/|batch| factor). Returns (value, gmean, gvar).
    """
    b, c = mean.shape
    eps = model.epsilon
    log_low = np.log(eps) - np.log(c - 1)
    gap = np.log1p(-eps) - log_low

    vfloor = np.maximum(var, _VAR_FLOOR)
    sd = np.sqrt(vfloor)
    rows = np.arange(b)
    m_y = mean[rows, labels]
    sd_y = sd[rows, labels]
    t = m_y[None, :] + sd_y[None, :] * xi
    z = (t[:, :, None] - mean[None, :, :]) / sd[None, :, :]
    log_cdf = log_ndtr(z)
    log_cdf[:, rows, labels] = 0.0
    g = np.sum(log_cdf, axis=-1)
    p_hat = np.mean(np.exp(g), axis=0)
    value = scale * float(b * log_low + gap * np.sum(p_hat))

    s = xi.shape[0]
    log_pdf = -0.5 * z**2 - 0.5 * _LOG_2PI
    coef = (scale * gap / s) * np.exp(g[:, :, None] - log_cdf + log_pdf)
    coef[:, rows, labels] = 0.0

    csum = np.sum(coef, axis=0) / sd
    csum_z = np.sum(coef * z, axis=0) / (2.0 * vfloor)
    csum_xi = np.sum(coef * xi[:, :, None], axis=0) / sd

    gmean = -csum
    gmean[rows, labels] = 0.0
    own_mean = np.sum(csum, axis=1) - csum[rows, labels]
    gmean[rows, labels] = own_mean

    gvar = -csum_z
    gvar[rows, labels] = 0.0
    own_var = (np.sum(csum_xi, axis=1) - csum_xi[rows, labels]) / (2.0 * sd_y)
    gvar[rows, labels] = own_var
    gvar = np.where(var > _VAR_FLOOR, gvar, 0.0)
    return value, gmean, gvar


def _kl_terms(model: VariationalClassifier, blocks, with_grads):
    """Sum of per-class KL(q(u_c) || p(u_c)) and gradients.

    Whitened: closed forms against N(0, I), no kernel dependence.
    Unwhitened: against N(0, K_zz + jitter I), with the kernel sensitivity
    accumulated into kzz_bar.
    """
    mu = model.q_mu
    grads = {}
    kzz_bar = None
    if model.whitened:
        if model.diag_cov:
            r2 = np.exp(2.0 * model.q_log_scale)
            value = 0.5 * float(
                np.sum(r2 + mu**2 - 1.0 - 2.0 * model.q_log_scale)
            )
            if with_grads:
                grads["q_mu"] = mu.copy()
                grads["q_log_scale"] = r2 - 1.0
        else:
            tril = model.q_scale_tril
            idx = np.arange(tril.shape[1])
            diag = tril[:, idx, idx]
            if np.any(diag == 0):
                raise ValueError("q_scale_tril has a zero diagonal entry")
            value = 0.5 * float(
                np.sum(tril**2) + np.sum(mu**2)
                - mu.size - 2.0 * np.sum(np.log(np.abs(diag)))
            )
            if with_grads:
                g = tril.copy()
                g[:, idx, idx] -= 1.0 / diag
                grads["q_mu"] = mu.copy()
                grads["q_scale_tril"] = g
        return value, grads, kzz_bar

    chol = blocks["chol"]
    m = chol.shape[0]
    kinv = cho_solve((chol, True), np.eye(m))
    logdet_k = 2.0 * float(np.sum(np.log(np.diag(chol))))
    w_mu = solve_triangular(chol, mu.T, lower=True)
    value = 0.0
    if with_grads:
        kzz_bar = np.zeros((m, m))
        grads["q_mu"] = (kinv @ mu.T).T
    for c in range(model.n_classes):
        if model.diag_cov:
            r2_c = np.exp(2.0 * model.q_log_scale[c])
            trace = float(np.dot(np.diag(kinv), r2_c))
            logdet_q = float(np.sum(2.0 * model.q_log_scale[c]))
        else:
            r_c = model.q_scale_tril[c]
            diag = np.diag(r_c)
            if np.any(diag == 0):
                raise ValueError("q_scale_tril has a zero diagonal entry")
            w_r = solve_triangular(chol, r_c, lower=True)
            trace = float(np.sum(w_r**2))
            logdet_q = 2.0 * float(np.sum(np.log(np.abs(diag))))
        quad = float(np.sum(w_mu[:, c] ** 2))
        value += 0.5 * (trace + quad - m + logdet_k - logdet_q)
        if with_grads:
            if model.diag_cov:
                grads.setdefault("q_log_scale", np.zeros_like(model.q_log_scale))
                grads["q_log_scale"][c] = np.diag(kinv) * r2_c - 1.0
                smm = kinv * r2_c[None, :]
            else:
                grads.setdefault("q_scale_tril", np.zeros_like(model.q_scale_tril))
                rinv_t = solve_triangular(r_c, np.eye(m), lower=True).T
                grads["q_scale_tril"][c] = np.tril(kinv @ r_c - rinv_t)
                smm = kinv @ (r_c @ r_c.T)
            kmu = kinv @ mu[c]
            kzz_bar += 0.5 * (kinv - smm @ kinv - np.outer(kmu, kmu))
    return value, grads, kzz_bar


def _elbo_core(model, batch, labels, xi, n_total, with_grads):
    """ELBO at fixed draws ``xi`` and, with ``with_grads``, its gradients.

    When the batch is the inducing set, the K_zb and K_zz sensitivities are
    summed first, so the kernel gradients take one m x m x l product.
    """
    batch = np.asarray(batch, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    mean, var, ctx = _marginals(model, batch)
    scale = n_total / batch.shape[0]
    ll, gmean, gvar = _log_lik_forward(model, mean, var, labels, xi, scale)
    blocks = ctx["blocks"]
    kl_value, kl_grads, kl_kzz_bar = _kl_terms(model, blocks, with_grads)
    value = ll - kl_value
    if not with_grads:
        return value, None

    a = ctx["a"]
    proj = ctx["proj"]
    chol = blocks["chol"]

    # mean = (q_mu @ proj)^T
    grads = {"q_mu": gmean.T @ proj.T}
    if model.diag_cov:
        r2 = ctx["r2"]
        grads["q_log_scale"] = 2.0 * r2 * ((proj**2) @ gvar).T
    else:
        t_all = ctx["t_all"]
        gt = 2.0 * t_all * gvar.T[:, None, :]
        grads["q_scale_tril"] = np.tril(np.einsum("mb,cnb->cmn", proj, gt))

    # Sensitivities to the conditional pieces: the -colsum(a^2) variance
    # deficit pulls on a directly, the q-dependent terms pull on proj.
    gbase = np.sum(gvar, axis=1)
    kbb_bar = gbase.copy()
    a_bar = -2.0 * a * gbase[None, :]
    proj_bar = model.q_mu.T @ gmean.T
    if model.diag_cov:
        proj_bar += 2.0 * proj * (gvar @ ctx["r2"]).T
    else:
        proj_bar += np.einsum("cmn,cnb->mb", model.q_scale_tril, gt)

    if model.whitened:
        a_bar += proj_bar
        chol_bar = np.zeros_like(chol)
    else:
        # proj = chol^{-T} a
        back = solve_triangular(chol, proj_bar, lower=True)
        a_bar += back
        chol_bar = -np.tril(ctx["a2"] @ back.T)
    # a = chol^{-1} k_zb
    kzb_bar = solve_triangular(chol, a_bar, lower=True, trans="T")
    chol_bar = chol_bar - np.tril(kzb_bar @ a.T)

    kzz_bar = _chol_backward(chol, chol_bar)
    if kl_kzz_bar is not None:
        kzz_bar = kzz_bar - kl_kzz_bar

    # Spectral weight sensitivities through all three kernel blocks.
    phi_z, phi_b = blocks["phi_z"], blocks["phi_b"]
    if phi_b is phi_z:
        d_bar = np.einsum("is,is->s", phi_z, (kzz_bar + kzb_bar) @ phi_z)
    else:
        d_bar = (
            np.einsum("is,is->s", phi_z, kzz_bar @ phi_z)
            + np.einsum("is,is->s", phi_z, kzb_bar @ phi_b)
        )
    d_bar = d_bar + kbb_bar @ (phi_b**2)
    raw = {name: getattr(model.spec, name) for name in trainable_params(model.spec)}
    for name, dd in blocks["d_grads"].items():
        grads[unconstrained_name(name)] = (
            float(np.dot(d_bar, dd)) * chain_factor(name, raw[name])
        )

    for key, g in kl_grads.items():
        grads[key] = grads.get(key, 0.0) - g
    return value, grads


def elbo(model: VariationalClassifier, batch, labels, mc_samples=20, seed=0, n_total=None):
    """Doubly stochastic evidence lower bound on a labeled batch.

    ``n_total`` rescales the likelihood term to the full dataset size (N/b);
    by default the batch is taken to be the dataset.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    batch = np.asarray(batch, dtype=np.int64)
    labels = _check_labels(model, batch, labels)
    if n_total is None:
        n_total = batch.shape[0]
    xi = np.random.default_rng(seed).standard_normal((mc_samples, batch.shape[0]))
    value, _ = _elbo_core(model, batch, labels, xi, n_total, with_grads=False)
    return value


def _check_labels(model, batch, labels):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != batch.shape:
        raise ValueError("labels must align with the batch nodes")
    if batch.size and (batch.min() < 0 or batch.max() >= model.basis.total_dim):
        raise ValueError(f"batch node out of range [0, {model.basis.total_dim})")
    if labels.size and (labels.min() < 0 or labels.max() >= model.n_classes):
        raise ValueError(
            f"label out of range [0, {model.n_classes}); check the class count"
        )
    return labels


_VARIATIONAL_PARAMS = ("q_mu", "q_scale")


def _variational_state(model: VariationalClassifier) -> str:
    """max |q_mu| and the range of the log scales or scale diagonals."""
    if model.diag_cov:
        name, scale = "q_log_scale", model.q_log_scale
    else:
        name = "q_scale_tril diagonal"
        scale = np.diagonal(model.q_scale_tril, axis1=1, axis2=2)
    return (
        f"max |q_mu| {np.max(np.abs(model.q_mu)):.6g}, {name} in "
        f"[{np.min(scale):.6g}, {np.max(scale):.6g}]"
    )


def fit_classifier(
    model: VariationalClassifier,
    nodes,
    labels,
    config: AdamConfig | None = None,
    seed: int = 0,
    mc_samples: int = 20,
    batch_size: int | None = None,
):
    """Maximize the ELBO with Adam; returns (model, elbo_trace).

    The default trainable set is the variational parameters plus the kernel
    hyperparameters; restrict it with ``config.trainable`` using names from
    {"q_mu", "q_scale"} and the kernel's raw parameter names. Minibatches
    (``batch_size``) and the Monte Carlo draws both consume the seed stream,
    so runs are reproducible.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    config = config or AdamConfig()
    nodes = np.asarray(nodes, dtype=np.int64)
    labels = _check_labels(model, nodes, labels)
    n_total = nodes.shape[0]
    if batch_size is None or batch_size >= n_total:
        batch_size = n_total

    kernel_names = tuple(trainable_params(model.spec))
    allowed = _VARIATIONAL_PARAMS + kernel_names
    names = config.trainable if config.trainable is not None else allowed
    unknown = set(names) - set(allowed)
    if unknown:
        raise ValueError(f"unknown trainable parameters: {sorted(unknown)}")
    if not names:
        raise ValueError("no trainable parameters selected")

    scale_key = "q_log_scale" if model.diag_cov else "q_scale_tril"
    params = {}
    if "q_mu" in names:
        params["q_mu"] = model.q_mu.copy()
    if "q_scale" in names:
        params[scale_key] = (
            model.q_log_scale.copy() if model.diag_cov else model.q_scale_tril.copy()
        )
    for name in names:
        if name in ("q_mu", "q_scale"):
            continue
        params[unconstrained_name(name)] = np.asarray(
            to_unconstrained(name, getattr(model.spec, name))
        )

    rng = np.random.default_rng(seed)
    state = AdamState.from_config(config)
    current = model
    trace = []
    for step in range(config.iterations):
        if batch_size == n_total:
            bn, bl = nodes, labels
        else:
            pick = rng.choice(n_total, size=batch_size, replace=False)
            bn, bl = nodes[pick], labels[pick]
        xi = rng.standard_normal((mc_samples, batch_size))
        value, grads = _elbo_core(current, bn, bl, xi, n_total, with_grads=True)
        if not np.isfinite(value):
            raise RuntimeError(
                f"non-finite ELBO during fit at step {step}; kernel "
                f"{current.spec.to_dict()}; {_variational_state(current)}"
            )
        trace.append(value)
        step_grads = {k: -np.asarray(grads[k]) for k in params}
        state, new_params = adam_step(state, params, step_grads)
        params = new_params
        updates = {}
        if "q_mu" in params:
            updates["q_mu"] = params["q_mu"]
        if scale_key in params:
            updates[scale_key] = (
                np.tril(params[scale_key]) if scale_key == "q_scale_tril"
                else params[scale_key]
            )
        raw = {
            name: from_unconstrained(name, float(params[unconstrained_name(name)]))
            for name in names
            if name not in ("q_mu", "q_scale")
        }
        if raw:
            updates["spec"] = current.spec.with_params(**raw)
        current = _carry_cache(current, current.with_updates(**updates), ("phi_z",))
    return current, np.asarray(trace)


def predict_classes(model: VariationalClassifier, query=None, mc_samples=100, seed=0):
    """Monte Carlo predictive class probabilities and hard labels.

    The probabilities are the sampled average of the robust-max link, so the
    rows sum to one up to rounding. Samples are drawn in chunks from the
    one generator, which gives the same stream as a single draw. Returns
    (probs (k, C), labels (k,)).
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    mean, var, _ = _marginals(model, _as_query(query, model.basis.total_dim))
    sd = np.sqrt(np.maximum(var, _VAR_FLOOR))
    rng = np.random.default_rng(seed)
    k, c = mean.shape
    votes = np.zeros(k * c, dtype=np.int64)
    for start in range(0, mc_samples, _VOTE_CHUNK):
        z = rng.standard_normal((min(_VOTE_CHUNK, mc_samples - start), k, c))
        winners = np.argmax(mean + sd * z, axis=-1)
        votes += np.bincount((np.arange(k) * c + winners).ravel(), minlength=k * c)
    freq = votes.reshape(k, c) / mc_samples
    low = model.epsilon / (c - 1)
    probs = low + (1.0 - model.epsilon - low) * freq
    return probs, np.argmax(probs, axis=-1)


def read_labels_csv(path):
    """Read ``node_index,class_index`` rows (optional header)."""
    nodes, labels = _read_node_csv(path, "class_index", int)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and labels.min() < 0:
        raise ValueError("negative class index in labels file")
    return nodes, labels


def save_classifier(model: VariationalClassifier, path):
    """Snapshot spec, inducing set and variational state as schema 1 JSON."""
    _write_snapshot(
        path, "classifier", model,
        n_classes=model.n_classes,
        inducing_nodes=[int(i) for i in model.inducing_nodes],
        whitened=model.whitened,
        diag_cov=model.diag_cov,
        epsilon=model.epsilon,
        jitter=model.jitter,
        q_mu=model.q_mu.tolist(),
        q_scale=(
            model.q_log_scale.tolist() if model.diag_cov
            else model.q_scale_tril.tolist()
        ),
    )


def load_classifier(path, basis: SpectralBasis) -> VariationalClassifier:
    payload = _read_snapshot(path, "classifier", basis)
    scale = "q_log_scale" if payload["diag_cov"] else "q_scale_tril"
    return VariationalClassifier(
        spec=KernelSpec.from_dict(payload["kernel"]),
        basis=basis,
        n_classes=int(payload["n_classes"]),
        inducing_nodes=np.asarray(payload["inducing_nodes"], dtype=np.int64),
        q_mu=np.asarray(payload["q_mu"], dtype=float),
        whitened=bool(payload["whitened"]),
        epsilon=float(payload["epsilon"]),
        jitter=float(payload["jitter"]),
        **{scale: np.asarray(payload["q_scale"], dtype=float)},
    )
