"""Parameter-update rules: SGD with momentum, Adam, RMSprop.

Parameters are updated in place through their named-tensor views, so
the same step function serves both network variants. Each rule runs
once over all tensors laid end to end, as flat arrays. Tensors listed in
`simplex_names` are re-projected onto the probability simplex after
every step (used for the fusion weights).
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
    average, over every tensor in the order optimizer_step receives them."""
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


def optimizer_step(tensors: list, grads: list, state: OptimizerState,
                   cfg: OptimizerConfig, simplex_names: tuple = ()) -> None:
    """Apply one update to every (name, param) given matching (name, grad).

    The rule runs once over all tensors laid end to end; each element sees
    the same operations as if its tensor were updated alone.
    """
    if [n for n, _ in tensors] != [n for n, _ in grads]:
        raise DimensionError("parameter and gradient tensor lists differ")
    for (name, p), (_, g) in zip(tensors, grads):
        if p.shape != g.shape:
            raise DimensionError(f"{name}: param {p.shape} vs grad {g.shape}")
    g = np.concatenate([g.reshape(-1) for _, g in grads])
    state.step += 1
    t = state.step
    if cfg.kind == "sgd":
        v = state.slot("velocity", g.size)
        v *= cfg.momentum
        v -= cfg.learning_rate * g
        delta, apply = v, np.add
    elif cfg.kind == "adam":
        m = state.slot("m", g.size)
        s = state.slot("v", g.size)
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        s *= cfg.beta2
        s += (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1 ** t)
        v_hat = s / (1.0 - cfg.beta2 ** t)
        delta, apply = cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps), np.subtract
    else:  # rmsprop
        s = state.slot("sq", g.size)
        s *= cfg.rho
        s += (1.0 - cfg.rho) * g * g
        delta, apply = cfg.learning_rate * g / (np.sqrt(s) + cfg.eps), np.subtract
    start = 0
    for name, p in tensors:
        apply(p, delta[start:start + p.size].reshape(p.shape), out=p)
        start += p.size
        if name in simplex_names:
            p[...] = project_simplex(p)
