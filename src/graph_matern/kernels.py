"""Kernel families defined through the Laplacian's spectrum.

Every family is a set of nonnegative spectral weights d_s applied to the
eigenbasis: K = U diag(d) U^T with

    d_s = sigma2 * c * w(lambda_s),

where w is the family's spectral profile and c is an optional trace
normalization c = n / sum_s w(lambda_s) making the average prior variance
equal sigma2 over the full node set (computed over the retained modes when
the basis is truncated).

Profiles:
    matern:          w = (2 nu / kappa^2 + lambda)^(-nu)
    diffusion:       w = exp(-(kappa^2 / 2) lambda)
    random_walk:     w = (1 - (1 - alpha) lambda)^p   (sym-normalized only)
    inverse_cosine:  w = cos(pi lambda / 4)           (sym-normalized only)

matern and diffusion are computed in log space so extreme smoothness values
(nu ~ 1e4) stay finite under normalization. Analytic derivatives of d with
respect to the raw trainable parameters are available for the fit loops; the
normalization constant's dependence on the parameters is included.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .graphs import LAPLACIAN_KINDS, LaplacianOperator
from .spectral import SpectralBasis

__all__ = [
    "FAMILIES",
    "KernelSpec",
    "spectral_weights",
    "trainable_params",
    "kernel_matrix",
    "matern_precision_sparse",
]

FAMILIES = ("matern", "diffusion", "random_walk", "inverse_cosine")

_TRAINABLE = {
    "matern": ("kappa", "nu", "sigma2"),
    "diffusion": ("kappa", "sigma2"),
    "random_walk": ("alpha", "sigma2"),
    "inverse_cosine": ("sigma2",),
}


def _positive(name, value):
    if value is None or not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of a graph kernel.

    Fields not used by the family must stay None; sigma2 is the prior
    variance scale and normalize_variance toggles trace normalization.
    """

    family: str
    nu: float | None = None
    kappa: float | None = None
    sigma2: float = 1.0
    alpha: float | None = None
    p: int | None = None
    laplacian_kind: str = "unnormalized"
    normalize_variance: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.laplacian_kind not in LAPLACIAN_KINDS:
            raise ValueError(f"unknown laplacian kind {self.laplacian_kind!r}")
        _positive("sigma2", self.sigma2)
        unused = {"nu", "kappa", "alpha", "p"}
        if self.family == "matern":
            _positive("nu", self.nu)
            _positive("kappa", self.kappa)
            unused -= {"nu", "kappa"}
        elif self.family == "diffusion":
            _positive("kappa", self.kappa)
            unused -= {"kappa"}
        elif self.family == "random_walk":
            if self.alpha is None or not (0.0 <= self.alpha < 1.0):
                raise ValueError(f"alpha must lie in [0, 1), got {self.alpha!r}")
            if self.p is None or self.p != int(self.p) or int(self.p) < 1:
                raise ValueError(f"p must be a positive integer, got {self.p!r}")
            object.__setattr__(self, "p", int(self.p))
            unused -= {"alpha", "p"}
        if self.family in ("random_walk", "inverse_cosine"):
            if self.laplacian_kind != "sym_normalized":
                raise ValueError(
                    f"{self.family} kernel requires the sym_normalized laplacian"
                )
        for name in sorted(unused):
            if getattr(self, name) is not None:
                raise ValueError(
                    f"{self.family} kernel does not take parameter {name!r}"
                )

    def with_params(self, **kwargs) -> "KernelSpec":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "nu": self.nu,
            "kappa": self.kappa,
            "sigma2": self.sigma2,
            "alpha": self.alpha,
            "p": self.p,
            "laplacian": self.laplacian_kind,
            "normalize": self.normalize_variance,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "KernelSpec":
        known = {"family", "nu", "kappa", "sigma2", "alpha", "p", "laplacian", "normalize"}
        extra = set(obj) - known
        if extra:
            raise ValueError(f"unknown kernel spec fields: {sorted(extra)}")
        if "family" not in obj:
            raise ValueError("kernel spec is missing 'family'")
        return cls(
            family=obj["family"],
            nu=obj.get("nu"),
            kappa=obj.get("kappa"),
            sigma2=obj.get("sigma2", 1.0),
            alpha=obj.get("alpha"),
            p=obj.get("p"),
            laplacian_kind=obj.get("laplacian", "unnormalized"),
            normalize_variance=bool(obj.get("normalize", True)),
        )


def trainable_params(spec: KernelSpec) -> tuple:
    """Raw kernel parameter names the fit loops may optimize."""
    return _TRAINABLE[spec.family]


def _logsumexp(a):
    """log(sum(exp(a))) of a finite 1-d array, bit-identical to
    ``scipy.special.logsumexp`` (scipy 1.17) without its array-API dispatch.

    The maxima are split out of the sum: s = sum over the other entries of
    exp(a - max), divided by the number of maxima m, and the result is
    log1p(s) + log(m) + max.
    """
    top = np.max(a)
    at_top = a == top
    m = np.sum(at_top, dtype=float)
    s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top))
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + top


def _weights_from_log(logw, dlogw, total_dim, sigma2, normalize, with_grads):
    if normalize:
        lse = _logsumexp(logw)
        d = sigma2 * np.exp(math.log(total_dim) + logw - lse)
        if not with_grads:
            return d, None
        soft = np.exp(logw - lse)
        grads = {
            name: d * (dl - np.dot(soft, dl)) for name, dl in dlogw.items()
        }
    else:
        d = sigma2 * np.exp(logw)
        if not with_grads:
            return d, None
        grads = {name: d * dl for name, dl in dlogw.items()}
    grads["sigma2"] = d / sigma2
    return d, grads


def _weights_from_linear(w, dw, total_dim, sigma2, normalize, with_grads):
    if normalize:
        total = float(np.sum(w))
        if total <= 0:
            raise ValueError(
                "cannot normalize variance: spectral weights sum to zero"
            )
        c = total_dim / total
        d = sigma2 * c * w
        if not with_grads:
            return d, None
        grads = {
            name: sigma2 * c * (dwi - w * (np.sum(dwi) / total))
            for name, dwi in dw.items()
        }
    else:
        d = sigma2 * w
        if not with_grads:
            return d, None
        grads = {name: sigma2 * dwi for name, dwi in dw.items()}
    grads["sigma2"] = d / sigma2
    return d, grads


def spectral_weights(spec: KernelSpec, eigenvalues, total_dim=None, with_grads=False):
    """Prior spectral weights d_s, optionally with analytic parameter grads.

    Returns ``(d, grads)`` where grads maps each raw trainable parameter
    name to the elementwise derivative array dd/dparam (None when
    ``with_grads`` is off). ``total_dim`` is the full node count used by the
    trace normalization; it defaults to the number of eigenvalues.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    n = lam.shape[0] if total_dim is None else int(total_dim)
    s2 = spec.sigma2
    norm = spec.normalize_variance

    if spec.family == "matern":
        nu, kappa = spec.nu, spec.kappa
        b = 2.0 * nu / kappa**2 + lam
        logw = -nu * np.log(b)
        dlogw = {}
        if with_grads:
            dlogw["kappa"] = 4.0 * nu**2 / (kappa**3 * b)
            dlogw["nu"] = -np.log(b) - 2.0 * nu / (kappa**2 * b)
        return _weights_from_log(logw, dlogw, n, s2, norm, with_grads)

    if spec.family == "diffusion":
        kappa = spec.kappa
        logw = -0.5 * kappa**2 * lam
        dlogw = {"kappa": -kappa * lam} if with_grads else {}
        return _weights_from_log(logw, dlogw, n, s2, norm, with_grads)

    if spec.family == "random_walk":
        alpha, p = spec.alpha, spec.p
        base = 1.0 - (1.0 - alpha) * lam
        w = np.power(base, p)
        clamped = w < 0
        if np.any(base < 0):
            warnings.warn(
                "random walk base 1-(1-alpha)*lambda is negative for some modes; "
                "negative spectral weights are clamped to zero",
                stacklevel=2,
            )
        w = np.where(clamped, 0.0, w)
        dw = {}
        if with_grads:
            dalpha = p * np.power(base, p - 1) * lam
            dw["alpha"] = np.where(clamped, 0.0, dalpha)
        return _weights_from_linear(w, dw, n, s2, norm, with_grads)

    if spec.family == "inverse_cosine":
        w = np.maximum(np.cos(np.pi * np.clip(lam, 0.0, 2.0) / 4.0), 0.0)
        return _weights_from_linear(w, {}, n, s2, norm, with_grads)

    raise ValueError(f"unknown kernel family {spec.family!r}")


def _as_query(query, n):
    """Query node indices into [0, n); all nodes when ``query`` is None."""
    if query is None:
        return np.arange(n, dtype=np.int64)
    q = np.asarray(query, dtype=np.int64)
    if q.ndim != 1:
        raise ValueError("query must be a 1-d node index array")
    if q.size and (q.min() < 0 or q.max() >= n):
        raise ValueError(f"query node out of range [0, {n})")
    return q


def kernel_matrix(basis: SpectralBasis, spec: KernelSpec, rows=None, cols=None):
    """Cross-covariance block K[rows, cols] (full matrix by default).

    The basis must come from the Laplacian kind the spec declares. With a
    truncated basis this is the rank-l kernel on the retained modes.
    """
    if basis.laplacian_kind != spec.laplacian_kind:
        raise ValueError(
            f"kernel expects {spec.laplacian_kind!r} laplacian but basis was "
            f"built from {basis.laplacian_kind!r}"
        )
    d, _ = spectral_weights(spec, basis.eigenvalues, basis.total_dim)
    ridx = None if rows is None else _as_query(rows, basis.total_dim)
    cidx = None if cols is None else _as_query(cols, basis.total_dim)
    same = (rows is None and cols is None) or (
        ridx is not None and cidx is not None and np.array_equal(ridx, cidx)
    )
    u = basis.eigenvectors
    k = ((u if ridx is None else u[ridx]) * d) @ (u if cidx is None else u[cidx]).T
    if same:
        k = (k + k.T) / 2.0
    return k


def matern_precision_sparse(operator: LaplacianOperator, nu, kappa) -> sp.csr_array:
    """Sparse precision (2 nu / kappa^2 I + L)^nu for integer nu in 1..4.

    Its inverse equals the matern kernel with sigma2 = 1 and variance
    normalization off; each power densifies the stencil by one hop, which is
    why large nu belongs on the spectral path instead.
    """
    if nu != int(nu) or not 1 <= int(nu) <= 4:
        raise ValueError(
            f"nu must be an integer in 1..4 for the sparse precision path, got "
            f"{nu!r}; use the spectral kernel for other smoothness values"
        )
    _positive("kappa", kappa)
    nu = int(nu)
    n = operator.node_count
    a = (2.0 * nu / kappa**2) * sp.eye_array(n, format="csr") + operator.matrix.tocsr()
    q = a
    for _ in range(nu - 1):
        q = q @ a
    q = q.tocsr()
    q.sum_duplicates()
    q.sort_indices()
    return q
