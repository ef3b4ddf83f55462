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

All gradients (variational, kernel, through the Cholesky factor and its
inverse) are hand-derived and checked against finite differences in the tests.
"""

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import log_ndtr

from .graphs import _check_dense_size, _finite, _int64, _int64_token, _node_indices
from .kernels import (
    KernelSpec,
    _sym_product,
    check_laplacian_kind,
    check_trainable,
    from_unconstrained,
    spectral_weights,
    to_unconstrained,
    unconstrained_grads,
)
from .optim import AdamConfig, _maximize, adam_step
from .regression import (
    _Q_SCALE,
    _read_node_csv,
    _read_snapshot,
    _snapshot_kwargs,
    _spd_factor,
    _tri_inverse,
    _write_snapshot,
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
    c = f.shape[-1] if f.ndim else 0
    if c < 2:
        raise ValueError(
            f"robustmax needs at least two classes on the last axis, got shape {f.shape}"
        )
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
    lq = _spd_factor(np.array(q, order="F"), "q_cov")
    lp = _spd_factor(np.array(p, order="F"), "p_cov")
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

    def __post_init__(self):
        vars(self).update(_check_variational(self.basis.total_dim, vars(self)))
        check_laplacian_kind(self.spec, self.basis)

    @property
    def diag_cov(self) -> bool:
        return self.q_log_scale is not None

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
        return cls(spec=spec, basis=basis, whitened=whitened, epsilon=epsilon, jitter=jitter,
                   **_initial_fields(n_classes, inducing_nodes, diag_cov))

    def with_updates(self, **kwargs) -> "VariationalClassifier":
        """New model with ``kwargs`` replaced, holding this one's ``_phi_z``
        if computed, unless ``kwargs`` replace the basis or inducing nodes."""
        new = dataclasses.replace(self, **kwargs)
        if "_phi_z" in vars(self) and not {"basis", "inducing_nodes"} & kwargs.keys():
            new._phi_z = self._phi_z
        return new

    @cached_property
    def _phi_z(self) -> np.ndarray:
        return self.basis.eigenvectors[self.inducing_nodes]


def _initial_fields(n_classes, inducing_nodes, diag_cov=True):
    """``create``'s fields: zero means and identity covariances."""
    m = len(inducing_nodes)
    if diag_cov:
        scale = {"q_log_scale": np.zeros((n_classes, m))}
    else:
        scale = {"q_scale_tril": np.broadcast_to(np.eye(m), (n_classes, m, m)).copy()}
    return {"n_classes": n_classes, "inducing_nodes": inducing_nodes,
            "q_mu": np.zeros((n_classes, m)), **scale}


def _check_variational(n, fields, labels=None):
    """The inducing nodes, ``q_mu`` and scale (a lower triangle in full mode)
    of a ``VariationalClassifier``'s ``fields`` as arrays, after every check
    that needs only the node count ``n``: distinct inducing nodes in [0, n),
    two or more classes, ``epsilon`` in (0, 1) and ``jitter`` finite and
    non-negative (each the class default if not given), and the shapes of
    ``q_mu`` and the one scale set. ``labels``, one per inducing node, are
    held to the label rule before the class count, which a negative label
    would otherwise be blamed on."""
    z = _node_indices(fields["inducing_nodes"], n, "inducing")
    if z.size == 0:
        raise ValueError("inducing_nodes must be a nonempty 1-d index array")
    if np.unique(z).size != z.size:
        raise ValueError("inducing nodes must be distinct")
    c, m = fields["n_classes"], z.size
    if labels is not None:
        _check_labels(n, c, z, labels)
    if c < 2:
        raise ValueError("need at least two classes")
    epsilon = fields.get("epsilon", VariationalClassifier.epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    jitter = fields.get("jitter", VariationalClassifier.jitter)
    if not (_finite(jitter) and jitter >= 0.0):
        raise ValueError(f"jitter must be finite and >= 0, got {jitter!r}")
    mu = np.asarray(fields["q_mu"], dtype=float)
    if mu.shape != (c, m):
        raise ValueError(f"q_mu must have shape {(c, m)}, got {mu.shape}")
    diag = fields.get("q_log_scale") is not None
    if diag == (fields.get("q_scale_tril") is not None):
        raise ValueError("exactly one of q_log_scale / q_scale_tril must be set")
    name, shape = ("q_log_scale", (c, m)) if diag else ("q_scale_tril", (c, m, m))
    scale = np.asarray(fields[name], dtype=float)
    if scale.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {scale.shape}")
    return {"inducing_nodes": z, "q_mu": mu, name: scale if diag else np.tril(scale)}


def _tril_halfdiag(x):
    out = np.tril(x)
    idx = np.arange(out.shape[0])
    out[idx, idx] *= 0.5
    return out


def _chol_backward(chol, inv_chol, chol_bar):
    """Sensitivity to Sigma given sensitivity to its Cholesky factor L."""
    p = _tril_halfdiag(chol.T @ chol_bar)
    return 0.5 * (inv_chol.T @ (p + p.T) @ inv_chol)


def _kernel_blocks(model: VariationalClassifier, batch):
    """K_zz+jitter Cholesky L and L^-1, K_zb, diag K_bb, plus backprop pieces.

    One triangular inverse gives L^-1, so every triangular operation of a
    step (marginals, their backward pass, the unwhitened KL) is a matrix
    product with L^-1 or L^-T. The inducing rows Phi_z are the model's
    ``_phi_z``, which ``with_updates`` carries from step to step; the blocks
    are not kept, as a fit builds a new model every step and prediction asks
    once. K_zz is ``kernels._sym_product``'s; when the batch is the inducing
    set, as on a full-batch step, Phi_b is Phi_z and K_zb is that product,
    copied before the jitter. An m x m K_zz or an m x b K_zb over
    ``DENSE_ELEMENT_LIMIT`` elements raises ``ValueError`` naming it and its
    shape, before any product.
    """
    m = model.inducing_nodes.size
    _check_dense_size("VariationalClassifier", "inducing covariance", (m, m),
                      "use fewer inducing nodes", verb="factor")
    _check_dense_size("VariationalClassifier", "inducing-batch covariance", (m, batch.size),
                      "use a smaller batch", verb="form")
    d, d_grads = spectral_weights(model.spec, model.basis.eigenvalues, model.basis.total_dim)
    phi_z = model._phi_z
    shared = np.array_equal(batch, model.inducing_nodes)
    phi_b = phi_z if shared else model.basis.eigenvectors[batch]
    k_zz = _sym_product(phi_z, d)
    k_zb = k_zz.copy() if shared else (phi_z * d) @ phi_b.T
    k_zz.flat[:: m + 1] += model.jitter
    # Symmetric, so the transpose is the column-major matrix.
    chol = _spd_factor(k_zz.T, f"inducing covariance with jitter {model.jitter:g}")
    inv_chol = _tri_inverse(chol.copy(order="F"))
    k_bb = np.einsum("ij,j->i", phi_b**2, d)
    return {
        "d": d, "d_grads": d_grads, "phi_z": phi_z, "phi_b": phi_b,
        "chol": chol, "inv_chol": inv_chol, "k_zb": k_zb, "k_bb": k_bb,
    }


def _marginals(model: VariationalClassifier, batch):
    """Per-class q(f) marginal means/variances at the batch nodes.

    With a = L^-1 K_zb, the marginals project q through proj = a (whitened)
    or proj = L^-T a (unwhitened), both products with the memoized L^-1.
    Returns (mean (b, C), var (b, C), ctx) where ctx carries intermediates
    for the backward pass.
    """
    blocks = _kernel_blocks(model, batch)
    inv_chol, k_zb, k_bb = blocks["inv_chol"], blocks["k_zb"], blocks["k_bb"]
    a = inv_chol @ k_zb
    base_var = k_bb - np.einsum("ji,ji->i", a, a)
    ctx = {"blocks": blocks, "a": a}
    proj = a if model.whitened else inv_chol.T @ a
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
    batch sum (the N/|batch| factor). The bound needs only each node's C-1
    rival classes, so z, the log CDFs and the pdf terms are formed on
    (S, b, C-1) arrays gathered once by a flat (b, C-1) index, and the
    gradients are scattered back into (b, C). Dropping the label column
    drops only exact zeros, so the value equals the all-class sum with the
    label's term zeroed, bit for bit. Returns (value, gmean, gvar).
    """
    b, c = mean.shape
    eps = model.epsilon
    log_low = np.log(eps) - np.log(c - 1)
    gap = np.log1p(-eps) - log_low

    vfloor = np.maximum(var, _VAR_FLOOR)
    sd = np.sqrt(vfloor)
    rows = np.arange(b)
    rivals = np.arange(c - 1)[None, :]
    rivals = rows[:, None] * c + rivals + (rivals >= labels[:, None])
    m_r, v_r, sd_r = (x.take(rivals) for x in (mean, vfloor, sd))
    sd_y = sd[rows, labels]
    t = mean[rows, labels][None, :] + sd_y[None, :] * xi
    z = (t[:, :, None] - m_r[None, :, :]) / sd_r[None, :, :]
    log_cdf = log_ndtr(z)
    g = np.sum(log_cdf, axis=-1)
    p_hat = np.mean(np.exp(g), axis=0)
    value = scale * float(b * log_low + gap * np.sum(p_hat))

    s = xi.shape[0]
    log_pdf = -0.5 * z**2 - 0.5 * _LOG_2PI
    coef = (scale * gap / s) * np.exp(g[:, :, None] - log_cdf + log_pdf)

    csum = np.sum(coef, axis=0) / sd_r
    csum_z = np.sum(coef * z, axis=0) / (2.0 * v_r)
    csum_xi = np.sum(coef * xi[:, :, None], axis=0) / sd_r

    gmean = np.empty((b, c))
    np.put(gmean, rivals, -csum)
    gmean[rows, labels] = np.sum(csum, axis=1)
    gvar = np.empty((b, c))
    np.put(gvar, rivals, -csum_z)
    gvar[rows, labels] = np.sum(csum_xi, axis=1) / (2.0 * sd_y)
    gvar = np.where(var > _VAR_FLOOR, gvar, 0.0)
    return value, gmean, gvar


def _kl_terms(model: VariationalClassifier, blocks):
    """``(value, grads, kzz_bar)``: the sum of per-class KL(q(u_c) || p(u_c)),
    always with its gradients, each computed after the value.

    Whitened: closed forms against N(0, I), no kernel dependence.
    Unwhitened: against N(0, K), K = K_zz + jitter I, summed over the
    classes in closed form with one K^-1; kzz_bar is the kernel sensitivity
    (C K^-1 - K^-1 (sum_c S_c) K^-1 - K^-1 M^T M K^-1) / 2.
    """
    mu = model.q_mu
    c, m = mu.shape
    if not model.diag_cov:
        tril = model.q_scale_tril
        idx = np.arange(m)
        diag = tril[:, idx, idx]
        if np.any(diag == 0):
            raise ValueError("q_scale_tril has a zero diagonal entry")
    if model.whitened:
        if model.diag_cov:
            r2 = np.exp(2.0 * model.q_log_scale)
            value = 0.5 * float(np.sum(r2 + mu**2 - 1.0 - 2.0 * model.q_log_scale))
            grads = {"q_mu": mu.copy(), "q_log_scale": r2 - 1.0}
        else:
            value = 0.5 * float(
                np.sum(tril**2) + np.sum(mu**2)
                - mu.size - 2.0 * np.sum(np.log(np.abs(diag)))
            )
            g = tril.copy()
            g[:, idx, idx] -= 1.0 / diag
            grads = {"q_mu": mu.copy(), "q_scale_tril": g}
        return value, grads, None

    chol, inv_chol = blocks["chol"], blocks["inv_chol"]
    kinv = inv_chol.T @ inv_chol
    logdet_k = 2.0 * float(np.sum(np.log(np.diag(chol))))
    w_mu = inv_chol @ mu.T
    if model.diag_cov:
        r2 = np.exp(2.0 * model.q_log_scale)
        trace = float(np.sum(r2 @ np.diag(kinv)))
        logdet_q = 2.0 * float(np.sum(model.q_log_scale))
    else:
        trace = float(np.sum((inv_chol @ tril) ** 2))
        logdet_q = 2.0 * float(np.sum(np.log(np.abs(diag))))
    value = 0.5 * (trace + float(np.sum(w_mu**2)) - c * m + c * logdet_k - logdet_q)
    kmu = kinv @ mu.T
    grads = {"q_mu": kmu.T}
    if model.diag_cov:
        grads["q_log_scale"] = np.diag(kinv) * r2 - 1.0
        ks_k = (kinv * np.sum(r2, axis=0)) @ kinv
    else:
        g = np.tril(kinv @ tril)
        g[:, idx, idx] -= 1.0 / diag
        grads["q_scale_tril"] = g
        ks_k = kinv @ np.tensordot(tril, tril, axes=([0, 2], [0, 2])) @ kinv
    return value, grads, 0.5 * (c * kinv - ks_k - kmu @ kmu.T)


def _elbo_core(model, batch, labels, xi, n_total):
    """``(value, grads)``: the ELBO at fixed draws ``xi`` and its gradients,
    which are always computed, after the value.

    When the batch is the inducing set, the K_zb and K_zz sensitivities are
    summed first, so the kernel gradients take one m x m x l product.
    """
    mean, var, ctx = _marginals(model, batch)
    scale = n_total / batch.shape[0]
    ll, gmean, gvar = _log_lik_forward(model, mean, var, labels, xi, scale)
    blocks = ctx["blocks"]
    kl_value, kl_grads, kl_kzz_bar = _kl_terms(model, blocks)
    value = ll - kl_value

    a = ctx["a"]
    proj = ctx["proj"]
    chol, inv_chol = blocks["chol"], blocks["inv_chol"]

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
        back = inv_chol @ proj_bar
        a_bar += back
        chol_bar = -np.tril(proj @ back.T)
    # a = chol^{-1} k_zb
    kzb_bar = inv_chol.T @ a_bar
    chol_bar = chol_bar - np.tril(kzb_bar @ a.T)

    kzz_bar = _chol_backward(chol, inv_chol, chol_bar)
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
    grads.update(unconstrained_grads(model.spec, d_bar, blocks["d_grads"]))

    for key, g in kl_grads.items():
        grads[key] = grads.get(key, 0.0) - g
    return value, grads


def elbo(model: VariationalClassifier, batch, labels, mc_samples=20, seed=0, n_total=None):
    """Doubly stochastic evidence lower bound on a labeled batch.

    ``n_total`` rescales the likelihood term to the full dataset size (N/b);
    by default the batch is taken to be the dataset. An empty batch, or
    (``mc_samples``, b, C-1) likelihood arrays over ``DENSE_ELEMENT_LIMIT``
    elements, raise ``ValueError`` before any draw.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    batch, labels = _check_labels(model.basis.total_dim, model.n_classes, batch, labels)
    _check_draws("elbo", model, mc_samples, batch.size)
    if n_total is None:
        n_total = batch.shape[0]
    xi = np.random.default_rng(seed).standard_normal((mc_samples, batch.shape[0]))
    value, _ = _elbo_core(model, batch, labels, xi, n_total)
    return value


def _check_labels(n, n_classes, batch, labels):
    """``(batch, labels)`` as int64 arrays, one label in [0, ``n_classes``)
    per node of an ``n``-node graph: the one label rule, the CLI's too."""
    batch = _node_indices(batch, n, "batch")
    if batch.size == 0:
        raise ValueError("the batch is empty; give at least one labeled node")
    labels = _int64(labels, "label")
    if labels.shape != batch.shape:
        raise ValueError("labels must align with the batch nodes")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(
            f"label out of range [0, {n_classes}); check the class count"
        )
    return batch, labels


def _check_draws(caller, model, mc_samples, b):
    """Refuse the (S, b, C-1) arrays of the bound over ``DENSE_ELEMENT_LIMIT``
    elements; the (S, b) draw is no larger."""
    _check_dense_size(caller, "Monte Carlo likelihood array",
                      (mc_samples, b, model.n_classes - 1),
                      "use fewer Monte Carlo samples or a smaller batch", verb="form")


def _fit_state(model: VariationalClassifier) -> str:
    """Kernel, max |q_mu| and the range of the log scales or scale diagonals."""
    if model.diag_cov:
        name, scale = "q_log_scale", model.q_log_scale
    else:
        name = "q_scale_tril diagonal"
        scale = np.diagonal(model.q_scale_tril, axis1=1, axis2=2)
    return (
        f"kernel {model.spec.to_dict()}; max |q_mu| {np.max(np.abs(model.q_mu)):.6g}, "
        f"{name} in [{np.min(scale):.6g}, {np.max(scale):.6g}]"
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
    """Maximize the ELBO with Adam; returns (model, elbo_trace), the last
    iterate and the ELBO at each step, from ``optim._maximize``.

    The default trainable set is the variational parameters plus the kernel
    hyperparameters; restrict it with ``config.trainable`` using names from
    {"q_mu", "q_scale"} and the kernel's raw parameter names. Minibatches
    (``batch_size``) and the Monte Carlo draws both consume the seed stream,
    so runs are reproducible. No nodes, a ``batch_size`` below 1, or
    (``mc_samples``, batch, C-1) likelihood arrays over
    ``DENSE_ELEMENT_LIMIT`` elements raise ``ValueError`` before any draw.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    config = config or AdamConfig()
    nodes, labels = _check_labels(model.basis.total_dim, model.n_classes, nodes, labels)
    n_total = nodes.shape[0]
    if batch_size is None or batch_size >= n_total:
        batch_size = n_total
    _check_draws("fit_classifier", model, mc_samples, batch_size)

    # The model field that each trainable variational name steps.
    fields = {"q_mu": "q_mu", "q_scale": _Q_SCALE[model.diag_cov]}
    names = check_trainable(model.spec, config.trainable, tuple(fields))
    kernel_names = [name for name in names if name not in fields]
    params = {fields[n]: getattr(model, fields[n]) for n in fields if n in names}
    params.update(to_unconstrained({n: getattr(model.spec, n) for n in kernel_names}))

    rng = np.random.default_rng(seed)

    def objective(current):
        pick = (slice(None) if batch_size == n_total
                else rng.choice(n_total, size=batch_size, replace=False))
        xi = rng.standard_normal((mc_samples, batch_size))
        return _elbo_core(current, nodes[pick], labels[pick], xi, n_total)

    def advance(current, params):
        # q_scale_tril's gradients are lower triangular: its upper triangle stays 0.
        updates = {k: params[k] for k in fields.values() if k in params}
        raw = from_unconstrained(params, kernel_names)
        if raw:
            updates["spec"] = current.spec.with_params(**raw)
        return current.with_updates(**updates)

    return _maximize(objective, advance, model, params, config, _fit_state,
                     keep_best=False, step=adam_step)


def predict_classes(model: VariationalClassifier, query=None, mc_samples=100, seed=0):
    """Monte Carlo predictive class probabilities and hard labels.

    The probabilities are the sampled average of the robust-max link, so the
    rows sum to one up to rounding. Samples are drawn in chunks from the
    one generator, which gives the same stream as a single draw. Returns
    (probs (k, C), labels (k,)).

    With m inducing nodes and l eigenpairs, an m x k inducing-query
    covariance or a k x l block of query eigenvector rows over
    ``DENSE_ELEMENT_LIMIT`` elements raises ``ValueError`` naming it and
    its shape, before any product.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    q = _node_indices(query, model.basis.total_dim, "query")
    for block, shape in (("inducing-query covariance", (model.inducing_nodes.size, q.size)),
                         ("query eigenvector block", (q.size, model.basis.n_retained))):
        _check_dense_size("predict_classes", block, shape, "pass a smaller query", verb="form")
    mean, var, _ = _marginals(model, q)
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
    """Read ``node_index,class_index`` rows (optional header) into index/label
    arrays; ``_check_labels`` checks the labels against a class count."""
    nodes, labels = _read_node_csv(path, "class_index", _int64_token)
    return nodes, np.asarray(labels, dtype=np.int64)


def save_classifier(model: VariationalClassifier, path):
    """Snapshot spec, inducing set and variational state as schema 1 JSON."""
    _write_snapshot(path, "classifier", model)


def load_classifier(path, basis: SpectralBasis) -> VariationalClassifier:
    """Rebuild a snapshot against a caller-provided basis."""
    snapshot = _read_snapshot(path, "classifier")
    return VariationalClassifier(basis=basis, **_snapshot_kwargs(snapshot, basis.n_retained))
