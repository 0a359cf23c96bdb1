"""Parameter-update rules: SGD with momentum, Adam, RMSprop.

Each rule updates a network's flat parameter vector in place, in one
pass over all its tensors laid end to end, so the same step function
serves both network variants. The views listed in `simplex` are
re-projected onto the probability simplex after every step (used for
the fusion weights).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DivergenceError, ParameterError

OPTIMIZERS = ("sgd", "adam", "rmsprop")


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    learning_rate: float = 1e-3
    momentum: float = 0.0      # sgd
    beta1: float = 0.9         # adam
    beta2: float = 0.999
    eps: float = 1e-8
    rho: float = 0.9           # rmsprop

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ParameterError(f"unknown optimizer {self.kind!r}")
        if self.learning_rate <= 0:
            raise ParameterError("learning_rate must be positive")


@dataclass
class OptimizerState:
    """The step count and the rule's running averages: one flat array per
    average, laid out as the parameter vector."""
    slots: dict = field(default_factory=dict)
    step: int = 0

    def slot(self, key: str, size: int) -> np.ndarray:
        store = self.slots.get(key)
        if store is None:
            store = self.slots[key] = np.zeros(size)
        elif store.size != size:
            raise DimensionError(f"optimizer state holds {store.size} values, "
                                 f"the tensors {size}")
        return store


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w : w >= 0, sum w = 1} (sort-based)."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise DivergenceError(f"cannot project non-finite weights {v}")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    candidates = np.nonzero(u - css / np.arange(1, v.size + 1) > 0)[0]
    # mathematically nonempty; can come up empty only when v is so large
    # that u[0] - (u[0] - 1) rounds to 0, in which case the top wins alone
    rho = candidates[-1] if candidates.size else 0
    theta = css[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


def optimizer_step(params, grad: np.ndarray, state: OptimizerState,
                   cfg: OptimizerConfig, simplex: tuple = ()) -> None:
    """Apply one update to params.flat in place, given grad laid out as it.

    Every rule is elementwise, so each parameter sees the same operations
    as if its tensor were updated alone. Each view of params.flat in
    simplex is then projected back onto the probability simplex.
    """
    p, g = params.flat, grad
    if g.shape != p.shape:
        raise DimensionError(f"gradient of shape {g.shape} for {p.size} parameters")
    state.step += 1
    t = state.step
    if cfg.kind == "sgd":
        v = state.slot("velocity", g.size)
        v *= cfg.momentum
        v -= cfg.learning_rate * g
        p += v
    elif cfg.kind == "adam":
        m = state.slot("m", g.size)
        s = state.slot("v", g.size)
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        s *= cfg.beta2
        s += (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1 ** t)
        v_hat = s / (1.0 - cfg.beta2 ** t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
    else:  # rmsprop
        s = state.slot("sq", g.size)
        s *= cfg.rho
        s += (1.0 - cfg.rho) * g * g
        p -= cfg.learning_rate * g / (np.sqrt(s) + cfg.eps)
    for view in simplex:
        view[...] = project_simplex(view)
