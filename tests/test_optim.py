"""Optimizer update rules and simplex projection."""

from types import SimpleNamespace

import numpy as np
import pytest

from lidar_edge.errors import DimensionError, ParameterError
from lidar_edge.optim import (OptimizerConfig, OptimizerState, optimizer_step,
                              project_simplex)
from lidar_edge.rng import SplitMix64


def per_tensor_step(tensors, grads, slots, t, cfg, simplex_names=()):
    """The oracle: each rule applied tensor by tensor, with per-tensor
    state in slots[name][key]; t is the step number, from 1."""
    for (name, p), (_, g) in zip(tensors, grads):
        store = slots.setdefault(name, {})
        if cfg.kind == "sgd":
            v = store.setdefault("velocity", np.zeros(p.shape))
            v *= cfg.momentum
            v -= cfg.learning_rate * g
            p += v
        elif cfg.kind == "adam":
            m = store.setdefault("m", np.zeros(p.shape))
            s = store.setdefault("v", np.zeros(p.shape))
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            s *= cfg.beta2
            s += (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1 ** t)
            v_hat = s / (1.0 - cfg.beta2 ** t)
            p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        else:
            s = store.setdefault("sq", np.zeros(p.shape))
            s *= cfg.rho
            s += (1.0 - cfg.rho) * g * g
            p -= cfg.learning_rate * g / (np.sqrt(s) + cfg.eps)
        if name in simplex_names:
            p[...] = project_simplex(p)


def step(flat, grad, cfg, state=None, simplex=()):
    """One optimizer_step on a net whose parameter vector is flat."""
    state = state or OptimizerState()
    optimizer_step(SimpleNamespace(flat=flat), grad, state, cfg, simplex)
    return state


class TestProjectSimplex:
    def test_already_on_simplex_unchanged(self):
        v = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-12)

    def test_output_always_feasible(self):
        rng = SplitMix64(1)
        for _ in range(100):
            v = rng.floats(5) * 10 - 5
            w = project_simplex(v)
            assert np.all(w >= 0)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        """Nearest feasible point found by dense grid search over the simplex."""
        v = np.array([0.9, -0.3, 0.6])
        w = project_simplex(v)
        best, best_d = None, np.inf
        ticks = np.linspace(0, 1, 201)
        for a in ticks:
            for b in ticks[ticks <= 1 - a + 1e-12]:
                cand = np.array([a, b, 1 - a - b])
                if cand[2] < -1e-12:
                    continue
                d = np.sum((cand - v) ** 2)
                if d < best_d:
                    best, best_d = cand, d
        np.testing.assert_allclose(w, best, atol=1e-2)

    def test_uniform_shift_invariance(self):
        """Adding a constant to every coordinate does not move the projection."""
        v = np.array([0.1, 0.7, -0.2, 0.4])
        np.testing.assert_allclose(project_simplex(v), project_simplex(v + 3.7),
                                   atol=1e-12)

    def test_single_element(self):
        np.testing.assert_array_equal(project_simplex(np.array([42.0])), [1.0])


class TestSGD:
    def test_plain_sgd_rule(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.5, -1.0])
        step(p, g, OptimizerConfig(kind="sgd", learning_rate=0.1))
        np.testing.assert_allclose(p, [1.0 - 0.05, 2.0 + 0.1], rtol=1e-12)

    def test_momentum_accumulates(self):
        cfg = OptimizerConfig(kind="sgd", learning_rate=0.1, momentum=0.9)
        p = np.array([0.0])
        g = np.array([1.0])
        state = OptimizerState()
        # v1 = -0.1; v2 = 0.9*(-0.1) - 0.1 = -0.19; p = -0.1 - 0.19
        step(p, g, cfg, state)
        step(p, g, cfg, state)
        assert p[0] == pytest.approx(-0.29, rel=1e-12)

    def test_independent_slots_per_tensor(self):
        cfg = OptimizerConfig(kind="sgd", learning_rate=1.0, momentum=0.5)
        flat = np.zeros(2)
        a, b = flat[:1], flat[1:]
        state = OptimizerState()
        step(flat, np.array([1.0, 0.0]), cfg, state)
        step(flat, np.array([0.0, 0.0]), cfg, state)
        # a keeps its own velocity, b never had any
        assert a[0] == -1.5 and b[0] == 0.0


class TestAdam:
    def test_first_step_equals_lr_signed(self):
        """Bias correction makes the first Adam step ~lr * sign(g)."""
        cfg = OptimizerConfig(kind="adam", learning_rate=0.01)
        p = np.array([1.0, 1.0])
        g = np.array([3.0, -0.004])
        step(p, g, cfg)
        np.testing.assert_allclose(p, [1.0 - 0.01, 1.0 + 0.01], rtol=1e-3)

    def test_matches_reference_recurrence(self):
        cfg = OptimizerConfig(kind="adam", learning_rate=0.05)
        p = np.array([0.3])
        state = OptimizerState()
        m = v = 0.0
        ref = 0.3
        rng = SplitMix64(5)
        for t in range(1, 8):
            g = float(rng.uniform(-1, 1))
            step(p, np.array([g]), cfg, state)
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            m_hat = m / (1 - cfg.beta1 ** t)
            v_hat = v / (1 - cfg.beta2 ** t)
            ref -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
            assert p[0] == pytest.approx(ref, rel=1e-12)


class TestRMSprop:
    def test_matches_reference_recurrence(self):
        cfg = OptimizerConfig(kind="rmsprop", learning_rate=0.02, rho=0.9)
        p = np.array([1.0])
        state = OptimizerState()
        s = 0.0
        ref = 1.0
        for g in (0.4, -0.7, 0.1):
            step(p, np.array([g]), cfg, state)
            s = 0.9 * s + 0.1 * g * g
            ref -= 0.02 * g / (np.sqrt(s) + cfg.eps)
            assert p[0] == pytest.approx(ref, rel=1e-12)


class TestStepMechanics:
    def test_all_optimizers_descend_on_quadratic(self):
        """Each rule drives f(w) = |w|^2 toward the minimum."""
        for kind in ("sgd", "adam", "rmsprop"):
            cfg = OptimizerConfig(kind=kind, learning_rate=0.05)
            p = np.array([2.0, -3.0])
            state = OptimizerState()
            for _ in range(300):
                step(p, 2.0 * p, cfg, state)
            assert np.linalg.norm(p) < 0.2, kind

    def test_simplex_tensor_stays_feasible(self):
        """The view given in simplex is projected; the rest of the vector is not."""
        cfg = OptimizerConfig(kind="adam", learning_rate=0.5)
        flat = np.array([5.0, -5.0, 0.3, 0.4, 0.3])
        alpha = flat[2:]
        state = OptimizerState()
        rng = SplitMix64(6)
        for _ in range(25):
            g = np.concatenate([[-1.0, 1.0], rng.floats(3) * 4 - 2])
            step(flat, g, cfg, state, simplex=(alpha,))
            assert np.all(alpha >= 0)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
        assert flat[0] > 5.0 and flat[1] < -5.0

    def test_update_is_in_place(self):
        p = np.zeros(2)
        view = p  # callers hold views; the step must mutate, not rebind
        step(p, np.ones(2), OptimizerConfig(kind="sgd", learning_rate=1.0))
        np.testing.assert_array_equal(view, [-1.0, -1.0])

    def test_shape_mismatch_rejected(self):
        """A gradient of another size than the parameter vector is refused
        before anything moves."""
        p, state = np.zeros(2), OptimizerState()
        with pytest.raises(DimensionError):
            step(p, np.zeros(3), OptimizerConfig(kind="sgd", learning_rate=1.0), state)
        assert state.step == 0 and not state.slots
        np.testing.assert_array_equal(p, [0.0, 0.0])

    def test_state_of_other_tensors_refused(self):
        cfg = OptimizerConfig(kind="adam", learning_rate=0.1)
        state = step(np.zeros(3), np.ones(3), cfg)
        with pytest.raises(DimensionError):
            step(np.zeros(4), np.ones(4), cfg, state)

    def test_bad_config(self):
        with pytest.raises(ParameterError):
            OptimizerConfig(kind="adagrad")
        with pytest.raises(ParameterError):
            OptimizerConfig(kind="sgd", learning_rate=0.0)


class TestFlatUpdateMatchesPerTensor:
    """One flat update over all tensors gives the per-tensor rules' params
    and state to the bit, step after step, in each tensor's slice."""

    SHAPES = {"conv.weights": (3, 2, 3, 3), "conv.bias": (3,), "fc.weights": (4, 7),
              "scalar": (1,), "alpha": (3,)}

    @pytest.mark.parametrize("cfg", [
        OptimizerConfig(kind="sgd", learning_rate=0.05),
        OptimizerConfig(kind="sgd", learning_rate=0.05, momentum=0.9),
        OptimizerConfig(kind="adam", learning_rate=0.01),
        OptimizerConfig(kind="rmsprop", learning_rate=0.02, rho=0.8),
    ], ids=["sgd", "sgd-momentum", "adam", "rmsprop"])
    def test_several_steps(self, cfg):
        rng = SplitMix64(11)
        ref = {n: rng.normals(int(np.prod(s))).reshape(s) for n, s in self.SHAPES.items()}
        ref["alpha"] = np.array([0.2, 0.5, 0.3])
        net = SimpleNamespace(flat=np.concatenate([t.reshape(-1) for t in ref.values()]))
        ends = np.cumsum([t.size for t in ref.values()])
        part = {n: slice(end - t.size, end) for (n, t), end in zip(ref.items(), ends)}
        state, slots = OptimizerState(), {}
        for t in range(1, 8):
            grads = [(n, rng.normals(int(np.prod(s))).reshape(s) * 10.0 ** (t % 3 - 1))
                     for n, s in self.SHAPES.items()]
            grads[1][1][0] = -0.0
            grad = np.concatenate([g.reshape(-1) for _, g in grads])
            optimizer_step(net, grad, state, cfg, simplex=(net.flat[part["alpha"]],))
            per_tensor_step(list(ref.items()), grads, slots, t, cfg, simplex_names=("alpha",))
            for name in self.SHAPES:
                assert net.flat[part[name]].tobytes() == ref[name].tobytes(), (t, name)
        assert state.step == 7
        for key, values in state.slots.items():
            want = np.concatenate([slots[n][key].reshape(-1) for n in self.SHAPES])
            assert values.tobytes() == want.tobytes(), key
        alpha = net.flat[part["alpha"]]
        assert np.all(alpha >= 0) and alpha.sum() == pytest.approx(1.0)
