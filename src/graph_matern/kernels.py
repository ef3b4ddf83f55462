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
(nu ~ 1e4) stay finite under normalization. Every evaluation of d also
returns its analytic derivatives with respect to the raw trainable
parameters, which every fit and prediction uses; the normalization
constant's dependence on the parameters is included.
"""

import math
import warnings
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np
import scipy.sparse as sp

from .graphs import LAPLACIAN_KINDS, LaplacianOperator, _check_dense_size, _finite, _node_indices
from .spectral import SpectralBasis

__all__ = [
    "FAMILIES",
    "KernelSpec",
    "spectral_weights",
    "trainable_params",
    "kernel_matrix",
    "matern_precision_sparse",
]

# Each family's shape parameters, in the order their checks run, and
# whether it needs the sym_normalized laplacian; every family takes sigma2.
_FAMILY_TABLE = {
    "matern": (("nu", "kappa"), False),
    "diffusion": (("kappa",), False),
    "random_walk": (("alpha", "p"), True),
    "inverse_cosine": ((), True),
}
FAMILIES = tuple(_FAMILY_TABLE)


# The JSON key of each KernelSpec field.
_JSON_KEYS = {
    "family": "family", "nu": "nu", "kappa": "kappa", "sigma2": "sigma2",
    "alpha": "alpha", "p": "p", "laplacian_kind": "laplacian",
    "normalize_variance": "normalize",
}


# nu and kappa lie in [1e-100, 1e100]: there kappa^3, nu^2, 2 nu / kappa^2
# and the matern gradient quotients built from them are finite and nonzero
# in float64 for eigenvalues up to 1e8; outside it one of them may not be.
def _positive(name, value):
    if value is None or not (_finite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if name in ("nu", "kappa") and not 1e-100 <= value <= 1e100:
        raise ValueError(f"{name} must lie in [1e-100, 1e+100], got {value!r}")


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
        for name in ("nu", "kappa", "sigma2", "alpha", "p"):
            value = getattr(self, name)
            if value is not None and (type(value) is bool or not isinstance(value, Real)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.laplacian_kind not in LAPLACIAN_KINDS:
            raise ValueError(f"unknown laplacian kind {self.laplacian_kind!r}")
        _positive("sigma2", self.sigma2)
        shape, sym_only = _FAMILY_TABLE[self.family]
        for name in shape:
            value = getattr(self, name)
            if name == "alpha":
                if value is None or not (0.0 <= value < 1.0):
                    raise ValueError(f"alpha must lie in [0, 1), got {value!r}")
            elif name == "p":
                if value is None or not (1 <= value < 2**63 and value == int(value)):
                    raise ValueError(f"p must be a positive integer, got {value!r}")
                object.__setattr__(self, "p", int(value))
            else:
                _positive(name, value)
        if sym_only and self.laplacian_kind != "sym_normalized":
            raise ValueError(f"{self.family} kernel requires the sym_normalized laplacian")
        for name in sorted({"nu", "kappa", "alpha", "p"} - set(shape)):
            if getattr(self, name) is not None:
                raise ValueError(
                    f"{self.family} kernel does not take parameter {name!r}"
                )

    def with_params(self, **kwargs) -> "KernelSpec":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for name, key in _JSON_KEYS.items()}

    @classmethod
    def from_dict(cls, obj: dict) -> "KernelSpec":
        """Spec from JSON keys; an absent key takes the field's default."""
        if not isinstance(obj, dict):
            raise ValueError(f"kernel spec must be a JSON object, got {obj!r}")
        extra = set(obj) - set(_JSON_KEYS.values())
        if extra:
            raise ValueError(f"unknown kernel spec fields: {sorted(extra)}")
        if "family" not in obj:
            raise ValueError("kernel spec is missing 'family'")
        if type(obj.get("normalize", True)) is not bool:
            raise ValueError(f"normalize must be true or false, got {obj['normalize']!r}")
        return cls(**{name: obj[key] for name, key in _JSON_KEYS.items() if key in obj})


def trainable_params(spec: KernelSpec) -> tuple:
    """Raw kernel parameter names the fit loops may optimize: the family's
    shape parameters but the integer ``p``, in name order, then ``sigma2``."""
    shape, _ = _FAMILY_TABLE[spec.family]
    return tuple(sorted(name for name in shape if name != "p")) + ("sigma2",)


def check_trainable(spec: KernelSpec, requested, model_params) -> tuple:
    """Names a fit optimizes: ``requested``, or all kernel and ``model_params``
    names when it is None; an empty set or any other name is refused."""
    allowed = trainable_params(spec) + tuple(model_params)
    names = allowed if requested is None else tuple(requested)
    unknown = set(names) - set(allowed)
    if unknown:
        raise ValueError(
            f"unknown trainable parameters {sorted(unknown)}: not trainable "
            f"for a {spec.family} kernel"
        )
    if not names:
        raise ValueError("no trainable parameters selected")
    return names


def unconstrained_name(name: str) -> str:
    """A fit steps alpha in logit coordinates and the other parameters in log."""
    return "logit_alpha" if name == "alpha" else f"log_{name}"


def to_unconstrained(raw: dict) -> dict:
    """``{unconstrained_name(name): 0-d array}`` of raw parameter values."""
    return {
        unconstrained_name(n): np.asarray(
            float(np.log(v) - np.log1p(-v)) if n == "alpha" else float(np.log(v))
        )
        for n, v in raw.items()
    }


def from_unconstrained(params: dict, names) -> dict:
    """Raw values of ``names`` from their coordinates in ``params``."""
    t = {n: float(params[unconstrained_name(n)]) for n in names}
    return {n: float(1.0 / (1.0 + np.exp(-v))) if n == "alpha" else float(np.exp(v))
            for n, v in t.items()}


def unconstrained_grads(spec: KernelSpec, d_bar, d_grads) -> dict:
    """Kernel gradients in unconstrained coordinates from ``d_bar`` = dL/dd
    and the dd/dparam arrays ``d_grads`` of ``spectral_weights``, by the
    chain factor d(raw)/d(coordinate): alpha (1 - alpha) or the raw value."""
    grads = {}
    for name, dd in d_grads.items():
        raw = getattr(spec, name)
        chain = raw * (1.0 - raw) if name == "alpha" else raw
        grads[unconstrained_name(name)] = float(np.dot(d_bar, dd)) * float(chain)
    return grads


def check_laplacian_kind(spec: KernelSpec, basis: SpectralBasis):
    if spec.laplacian_kind != basis.laplacian_kind:
        raise ValueError(
            f"kernel expects the {spec.laplacian_kind!r} laplacian kind but the "
            f"basis was built from {basis.laplacian_kind!r}"
        )


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


def _weights_from_log(spec, logw, dlogw, total_dim):
    """Weights sigma2 exp(logw), trace-normalized if the spec asks. Without
    normalization a largest weight past float64's range is refused by name
    before the weights are formed: no finite weight changes, and none
    becomes inf."""
    sigma2 = spec.sigma2
    if spec.normalize_variance:
        lse = _logsumexp(logw)
        d = sigma2 * np.exp(math.log(total_dim) + logw - lse)
        soft = np.exp(logw - lse)
        grads = {name: d * (dl - np.dot(soft, dl)) for name, dl in dlogw.items()}
    else:
        with np.errstate(over="ignore"):
            largest = sigma2 * np.exp(np.max(logw, initial=-np.inf))
        if not np.isfinite(largest):
            shape = ", ".join(f"{name}={getattr(spec, name)!r}"
                              for name in _FAMILY_TABLE[spec.family][0])
            raise ValueError(
                f"{spec.family} kernel with {shape}, sigma2={sigma2!r} and normalize off: "
                "the largest spectral weight passes float64's range; normalize the "
                "variance or choose other parameters")
        d = sigma2 * np.exp(logw)
        grads = {name: d * dl for name, dl in dlogw.items()}
    grads["sigma2"] = d / sigma2
    return d, grads


def _weights_from_linear(spec, w, dw, total_dim):
    sigma2 = spec.sigma2
    if spec.normalize_variance:
        total = float(np.sum(w))
        if total <= 0:
            raise ValueError(
                "cannot normalize variance: spectral weights sum to zero"
            )
        c = total_dim / total
        d = sigma2 * c * w
        grads = {
            name: sigma2 * c * (dwi - w * (np.sum(dwi) / total))
            for name, dwi in dw.items()
        }
    else:
        d = sigma2 * w
        grads = {name: sigma2 * dwi for name, dwi in dw.items()}
    grads["sigma2"] = d / sigma2
    return d, grads


def spectral_weights(spec: KernelSpec, eigenvalues, total_dim=None):
    """Prior spectral weights d_s and their analytic parameter gradients.

    Returns ``(d, grads)`` where grads maps each raw trainable parameter
    name, in ``trainable_params`` order, to the elementwise derivative array
    dd/dparam; d is computed before its gradients. ``total_dim`` is the full
    node count used by the trace normalization; it defaults to the number of
    eigenvalues.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    n = lam.shape[0] if total_dim is None else int(total_dim)

    if spec.family == "matern":
        nu, kappa = spec.nu, spec.kappa
        b = 2.0 * nu / kappa**2 + lam
        logw = -nu * np.log(b)
        dlogw = {
            "kappa": 4.0 * nu**2 / (kappa**3 * b),
            "nu": -np.log(b) - 2.0 * nu / (kappa**2 * b),
        }
        return _weights_from_log(spec, logw, dlogw, n)

    if spec.family == "diffusion":
        kappa = spec.kappa
        logw = -0.5 * kappa**2 * lam
        return _weights_from_log(spec, logw, {"kappa": -kappa * lam}, n)

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
        dalpha = p * np.power(base, p - 1) * lam
        return _weights_from_linear(spec, w, {"alpha": np.where(clamped, 0.0, dalpha)}, n)

    if spec.family == "inverse_cosine":
        w = np.maximum(np.cos(np.pi * np.clip(lam, 0.0, 2.0) / 4.0), 0.0)
        return _weights_from_linear(spec, w, {}, n)

    raise ValueError(f"unknown kernel family {spec.family!r}")


def kernel_matrix(basis: SpectralBasis, spec: KernelSpec, rows=None, cols=None):
    """Cross-covariance block K[rows, cols] (full matrix by default).

    The basis must come from the Laplacian kind the spec declares. With a
    truncated basis this is the rank-l kernel on the retained modes; on equal
    rows and cols it is ``_sym_product``'s, exactly symmetric. A block over
    ``DENSE_ELEMENT_LIMIT`` elements (the full matrix of a graph past 11585
    nodes) raises ``ValueError`` naming its shape, before any product.
    """
    check_laplacian_kind(spec, basis)
    n = basis.total_dim
    ridx = None if rows is None else _node_indices(rows, n, "query")
    cidx = None if cols is None else _node_indices(cols, n, "query")
    _check_dense_size("kernel_matrix", "kernel block",
                      (n if ridx is None else ridx.size, n if cidx is None else cidx.size),
                      "pass fewer rows or cols")
    d, _ = spectral_weights(spec, basis.eigenvalues, n)
    u = basis.eigenvectors
    u_rows = u if ridx is None else u[ridx]
    if np.array_equal(ridx, cidx):  # equal rows and cols, or neither given
        return _sym_product(u_rows, d)
    return (u_rows * d) @ (u if cidx is None else u[cidx]).T


def _sym_product(phi, d):
    """Phi diag(d) Phi^T, d >= 0, as the one symmetric product s s^T with
    s = Phi sqrt(d): numpy runs it as ``dsyrk``, exactly symmetric at half
    the flops. Every dense SPD block built from a basis is this product."""
    s = phi * np.sqrt(d)
    return s @ s.T


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
