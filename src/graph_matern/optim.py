"""Training utilities: Adam on named parameter dicts, the one Adam loop
both fits run, splits, metrics.

Parameters are carried as ``{name: ndarray}`` dicts so optimizer errors can
say which parameter went bad. All updates are functional: callers get back
fresh dicts and the inputs are never mutated.
"""

import dataclasses
import operator
from dataclasses import dataclass, field

import numpy as np

from .graphs import _int64

__all__ = [
    "AdamConfig",
    "AdamState",
    "adam_step",
    "random_split",
    "metrics",
]


@dataclass(frozen=True)
class AdamConfig:
    """Settings of the Adam loop that ``fit`` and ``fit_classifier`` share.

    ``iterations`` is the number of Adam steps: ``fit`` returns the best of
    the ``iterations + 1`` points it evaluates (the start and each step's
    result), ``fit_classifier`` the point after its last step, with one
    ELBO value per step. A non-finite objective value, or gradient that a
    step would use, stops either fit with ``RuntimeError`` naming the step
    and the model's state.
    ``trainable`` is a tuple of parameter names, or None for the model's
    default trainable set. Settings no fit can run with raise ValueError
    naming the field.
    """

    iterations: int = 20000
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    trainable: tuple | None = None

    def __post_init__(self):
        try:
            operator.index(self.iterations)
        except TypeError:
            raise ValueError(
                f"iterations must be an integer, got {self.iterations!r}") from None
        if not self.iterations >= 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations!r}")
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate!r}"
            )
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps!r}")


@dataclass
class AdamState:
    """The settings Adam steps with and its first/second moment
    accumulators for a named parameter set."""

    config: AdamConfig = field(default_factory=AdamConfig)
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict):
    """One bias-corrected Adam descent step.

    Returns ``(state, params)`` with fresh moment and parameter dicts; the
    arguments are left untouched. Raises ValueError naming the offending
    parameter if its gradient is not finite.
    """
    for name, g in grads.items():
        if name not in params:
            raise ValueError(f"gradient for unknown parameter {name!r}")
        if not np.all(np.isfinite(g)):
            raise ValueError(
                f"non-finite gradient for parameter {name!r} at step {state.step + 1}"
            )

    t = state.step + 1
    config = state.config
    b1, b2 = config.beta1, config.beta2
    new_m = dict(state.m)
    new_v = dict(state.v)
    new_params = {k: np.array(v, dtype=float, copy=True) for k, v in params.items()}
    for name, g in grads.items():
        g = np.asarray(g, dtype=float)
        m = new_m.get(name, np.zeros_like(g))
        v = new_v.get(name, np.zeros_like(g))
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        new_m[name] = m
        new_v[name] = v
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        new_params[name] = new_params[name] - config.learning_rate * m_hat / (
            np.sqrt(v_hat) + config.eps
        )

    new_state = dataclasses.replace(state, step=t, m=new_m, v=new_v)
    return new_state, new_params


def _maximize(objective, advance, point, params, config, describe, keep_best, step):
    """Adam ascent of ``objective(point) -> (value, grads)``: the one fit loop.

    ``advance(point, params)`` builds the point of the stepped coordinates
    ``params``. Returns ``(point, values)``: with ``keep_best`` the best of the
    start and each step's result, else the point after the last step and one
    value per step. A non-finite value or stepped gradient raises
    ``RuntimeError`` naming the step and ``describe(point)``. ``step`` is the
    calling module's ``adam_step``, read per fit so that a wrapper set on it
    (bench/tracing.py sets one) sees every step.
    """
    state = AdamState(config)
    best = (-np.inf, point)
    values = []
    for t in range(config.iterations + keep_best):
        value, grads = objective(point)
        bad = None if np.isfinite(value) else "objective value"
        if bad is None and t < config.iterations:
            bad = next((f"gradient for {k!r}" for k in params
                        if not np.all(np.isfinite(grads[k]))), None)
        if bad:
            raise RuntimeError(f"fit stopped at step {t} on a non-finite {bad}; "
                               f"{describe(point)}")
        values.append(value)
        if keep_best and value > best[0]:
            best = (value, point)
        if t < config.iterations:
            state, params = step(state, params, {k: -np.asarray(grads[k]) for k in params})
            point = advance(point, params)
    return (best[1] if keep_best else point), np.asarray(values)


def random_split(nodes, n_train: int, seed: int):
    """Split ``nodes`` into disjoint (train, test) index arrays.

    Both halves are returned sorted; their union is the input set. A node
    that is not an int64 integer raises ``ValueError`` naming it.
    """
    nodes = _int64(nodes)
    if nodes.ndim != 1:
        raise ValueError("nodes must be a 1-d index array")
    if not 0 <= n_train <= nodes.size:
        raise ValueError(
            f"n_train={n_train} out of range for {nodes.size} nodes"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(nodes.size)
    train = np.sort(nodes[perm[:n_train]])
    test = np.sort(nodes[perm[n_train:]])
    return train, test


def metrics(predictions, truth, task: str) -> float:
    """Mean squared error for ``task="regression"``, accuracy for
    ``task="classification"``."""
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape} vs truth {truth.shape}"
        )
    if task == "regression":
        return float(np.mean((predictions.astype(float) - truth.astype(float)) ** 2))
    if task == "classification":
        return float(np.mean(predictions == truth))
    raise ValueError(f"unknown task {task!r}")
