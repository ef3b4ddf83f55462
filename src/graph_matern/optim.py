"""Training utilities: Adam on named parameter dicts, splits, metrics.

Parameters are carried as ``{name: ndarray}`` dicts so optimizer errors can
say which parameter went bad. All updates are functional: callers get back
fresh dicts and the inputs are never mutated.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AdamConfig",
    "AdamState",
    "adam_step",
    "random_split",
    "metrics",
]


@dataclass(frozen=True)
class AdamConfig:
    """Settings shared by the regression and classification fit loops.

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
    """First/second moment accumulators for a named parameter set."""

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def from_config(cls, config: AdamConfig) -> "AdamState":
        return cls(
            learning_rate=config.learning_rate,
            beta1=config.beta1,
            beta2=config.beta2,
            eps=config.eps,
        )


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
    b1, b2 = state.beta1, state.beta2
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
        new_params[name] = new_params[name] - state.learning_rate * m_hat / (
            np.sqrt(v_hat) + state.eps
        )

    new_state = dataclasses.replace(state, step=t, m=new_m, v=new_v)
    return new_state, new_params


def random_split(nodes, n_train: int, seed: int):
    """Split ``nodes`` into disjoint (train, test) index arrays.

    Both halves are returned sorted; their union is the input set.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
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
