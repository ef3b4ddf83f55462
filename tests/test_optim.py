"""Adam stepping and its settings, splits and metric helpers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from graph_matern import (
    AdamConfig,
    AdamState,
    adam_step,
    metrics,
    random_split,
)


class TestAdamStep:
    def test_first_step_moves_by_learning_rate_in_sign_direction(self):
        # with zero moment history the first update is ~ lr * sign(g)
        state = AdamState(AdamConfig(learning_rate=0.05))
        params = {"w": np.array([1.0, -2.0, 0.5])}
        grads = {"w": np.array([3.0, -0.1, 0.0])}
        _, new = adam_step(state, params, grads)
        assert_allclose(new["w"][:2], params["w"][:2] - 0.05 * np.sign(grads["w"][:2]), atol=1e-6)
        assert new["w"][2] == params["w"][2]

    def test_second_step_matches_manual_recursion(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        state = AdamState(AdamConfig(learning_rate=lr, beta1=b1, beta2=b2, eps=eps))
        params = {"w": np.array([0.3])}
        g1 = np.array([0.7])
        g2 = np.array([-0.2])
        state, params = adam_step(state, params, {"w": g1})
        state, params = adam_step(state, params, {"w": g2})
        m1 = (1 - b1) * g1
        v1 = (1 - b2) * g1 * g1
        w1 = 0.3 - lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
        m2 = b1 * m1 + (1 - b1) * g2
        v2 = b2 * v1 + (1 - b2) * g2 * g2
        w2 = w1 - lr * (m2 / (1 - b1**2)) / (np.sqrt(v2 / (1 - b2**2)) + eps)
        assert_allclose(params["w"], w2, rtol=1e-12)
        assert state.step == 2

    def test_constant_gradient_approaches_learning_rate_step(self):
        state = AdamState(AdamConfig(learning_rate=0.02))
        params = {"w": np.array([0.0])}
        g = {"w": np.array([5.0])}
        prev = params["w"].copy()
        for _ in range(200):
            state, params = adam_step(state, params, g)
            step = prev - params["w"]
            prev = params["w"].copy()
        assert_allclose(step, [0.02], rtol=1e-3)

    def test_functional_updates_do_not_mutate_inputs(self):
        state = AdamState()
        params = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([1.0, 1.0])}
        snapshot = params["w"].copy()
        new_state, new_params = adam_step(state, params, grads)
        assert_array_equal(params["w"], snapshot)
        assert state.step == 0 and not state.m
        assert new_state.step == 1
        assert new_params["w"] is not params["w"]

    def test_untouched_parameters_pass_through(self):
        state = AdamState()
        params = {"a": np.array([1.0]), "b": np.array([2.0])}
        _, new = adam_step(state, params, {"a": np.array([1.0])})
        assert_array_equal(new["b"], params["b"])

    def test_nonfinite_gradient_names_parameter(self):
        state = AdamState()
        params = {"kappa": np.array([1.0])}
        with pytest.raises(ValueError, match="kappa"):
            adam_step(state, params, {"kappa": np.array([np.nan])})

    def test_unknown_parameter_rejected(self):
        state = AdamState()
        with pytest.raises(ValueError, match="unknown parameter"):
            adam_step(state, {"a": np.array([1.0])}, {"zzz": np.array([1.0])})

    def test_state_steps_with_its_config(self):
        config = AdamConfig(iterations=10, learning_rate=0.5, beta1=0.8)
        state = AdamState(config)
        assert state.config is config
        assert state.step == 0
        assert AdamState().config == AdamConfig()
        state, params = adam_step(state, {"w": np.array([1.0])}, {"w": np.array([2.0])})
        assert state.config is config
        assert_allclose(params["w"], [0.5], rtol=1e-7)


class TestAdamConfig:
    @pytest.mark.parametrize("field, value", [
        ("iterations", -1),
        ("iterations", 2.5),
        ("iterations", np.float64(3)),
        ("learning_rate", 0.0),
        ("learning_rate", -0.001),
        ("learning_rate", np.inf),
        ("learning_rate", np.nan),
        ("beta1", -0.1),
        ("beta1", 1.0),
        ("beta2", 1.0),
        ("beta2", np.nan),
        ("eps", 0.0),
        ("eps", -1e-8),
    ])
    def test_rejects_unworkable_settings_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            AdamConfig(**{field: value})


class TestRandomSplit:
    def test_partition_properties(self):
        nodes = np.arange(20, 60)
        train, test = random_split(nodes, 15, seed=3)
        assert train.shape == (15,) and test.shape == (25,)
        assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)
        merged = np.sort(np.concatenate([train, test]))
        assert_array_equal(merged, nodes)

    def test_seed_determinism_and_variation(self):
        nodes = np.arange(30)
        t1, _ = random_split(nodes, 10, seed=7)
        t2, _ = random_split(nodes, 10, seed=7)
        t3, _ = random_split(nodes, 10, seed=8)
        assert_array_equal(t1, t2)
        assert not np.array_equal(t1, t3)

    def test_degenerate_sizes(self):
        nodes = np.arange(5)
        train, test = random_split(nodes, 0, seed=0)
        assert train.size == 0 and test.size == 5
        train, test = random_split(nodes, 5, seed=0)
        assert train.size == 5 and test.size == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            random_split(np.arange(5), 6, seed=0)

    @pytest.mark.parametrize("nodes, value", [
        ([0.5, 1.5, 2.5], "0.5"),
        ([0, 10**30], str(10**30)),
    ], ids=["fractional", "past_int64"])
    def test_refuses_non_integer_nodes_by_value(self, nodes, value):
        """Nodes are not truncated to int64, and a huge one is refused by
        value, not by an ``OverflowError``."""
        with pytest.raises(ValueError, match=f"^node index {value} is not an int64 integer$"):
            random_split(nodes, 1, seed=0)


class TestMetrics:
    def test_mse(self):
        assert metrics(np.array([1.0, 2.0]), np.array([0.0, 4.0]), "regression") == 2.5

    def test_accuracy(self):
        pred = np.array([0, 1, 2, 1])
        truth = np.array([0, 1, 1, 1])
        assert metrics(pred, truth, "classification") == 0.75

    def test_errors(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            metrics(np.zeros(3), np.zeros(4), "regression")
        with pytest.raises(ValueError, match="unknown task"):
            metrics(np.zeros(3), np.zeros(3), "ranking")
