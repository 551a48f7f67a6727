"""Numerical gradient checks for the NumPy neural networks.

Finite-difference verification of the MLP's backward pass - the kind of
test that catches subtly wrong analytic gradients which still "sort of
train".  The GCN is checked end-to-end by loss descent instead (its
parameters interact through sparse matmuls, making FD per-parameter
checks slow); a descent check still catches sign and scaling errors.
"""

import numpy as np
import pytest

from repro.ml.gcn import GCNLinkEmbedder
from repro.ml.mlp import MLPClassifier, _AdamState, _sigmoid
from tests.conftest import two_clique_graph


def _loss_of(model, x, y):
    """Binary cross-entropy of the model's current parameters."""
    _, logits = model._forward(x)
    probs = _sigmoid(logits[:, 0])
    return float(
        -np.mean(
            y * np.log(probs + 1e-12) + (1 - y) * np.log(1 - probs + 1e-12)
        )
    )


class NoStepAdam(_AdamState):
    """Adam stand-in whose step is a no-op.

    Running ``_train_batch`` with it leaves the analytic gradients in
    the model's gradient views without touching the parameters - the
    hook both this module and the batching tests use to inspect a
    backward pass in isolation.
    """

    def step(self, params, grads, lr, **kwargs):
        pass


def assert_backward_matches_finite_differences(
    model, x, y, epsilon=1e-6, rel=1e-3, abs_tol=1e-6
):
    """Check the model's backward pass against central differences.

    ``model`` must be initialized (``_init_params`` or a prior ``fit``)
    and binary; every weight and bias entry is perturbed individually.
    Reused by the mini-batching tests to verify the batched path's
    gradients on whatever batch it assembled.
    """
    model._train_batch(x, y.astype(int), NoStepAdam(0))
    analytic = [g.copy() for g in model._weight_grads + model._bias_grads]

    y_float = y.astype(np.float64)
    parameters = model._weights + model._biases
    for param, grad in zip(parameters, analytic):
        flat = param.reshape(-1)
        flat_grad = grad.reshape(-1)
        for index in range(flat.size):
            original = flat[index]
            flat[index] = original + epsilon
            loss_plus = _loss_of(model, x, y_float)
            flat[index] = original - epsilon
            loss_minus = _loss_of(model, x, y_float)
            flat[index] = original
            numeric = (loss_plus - loss_minus) / (2 * epsilon)
            assert flat_grad[index] == pytest.approx(
                numeric, rel=rel, abs=abs_tol
            )


class TestMLPGradients:
    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 4))
        y = rng.integers(0, 2, size=12).astype(np.float64)

        model = MLPClassifier(hidden_sizes=(5,), l2=0.0, seed=0)
        model._n_classes = 2
        model._init_params(4, 1, rng)

        assert_backward_matches_finite_differences(model, x, y)

    def test_l2_term_included_in_weight_gradients(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 3))
        y = rng.integers(0, 2, size=8)

        def grads_with_l2(l2):
            model = MLPClassifier(hidden_sizes=(4,), l2=l2, seed=0)
            model._n_classes = 2
            model._init_params(3, 1, np.random.default_rng(0))
            model._train_batch(x, y, NoStepAdam(0))
            return model._weight_grads[0].copy(), model._weights[0]

        grad_without, _ = grads_with_l2(0.0)
        grad_with, weights = grads_with_l2(0.1)
        np.testing.assert_allclose(
            grad_with - grad_without, 0.1 * weights, rtol=1e-9, atol=1e-12
        )


class TestAdamStep:
    def test_adam_step_matches_textbook_per_parameter_loop(self):
        rng = np.random.default_rng(3)
        n = 40
        params = rng.normal(size=n)
        state = _AdamState(n)
        ref_params = params.copy()
        ref_m = np.zeros(n)
        ref_v = np.zeros(n)
        lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
        for t in range(1, 6):
            grads = rng.normal(size=n)
            state.step(params, grads, lr, beta1, beta2, eps)
            for i in range(n):  # textbook scalar Adam
                g = grads[i]
                ref_m[i] = beta1 * ref_m[i] + (1.0 - beta1) * g
                ref_v[i] = beta2 * ref_v[i] + (1.0 - beta2) * g * g
                m_hat = ref_m[i] / (1.0 - beta1**t)
                v_hat = ref_v[i] / (1.0 - beta2**t)
                ref_params[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(params, ref_params, rtol=0, atol=1e-9)
            np.testing.assert_allclose(state.m, ref_m, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.v, ref_v, rtol=0, atol=1e-12)


class TestGCNDescent:
    def _link_problem(self):
        graph = two_clique_graph(clique_size=5, bridge=True)

        edges = sorted(graph.edges())
        rng = np.random.default_rng(0)
        nodes = sorted(graph.nodes)
        non_edges = []
        while len(non_edges) < len(edges):
            u, v = rng.choice(len(nodes), 2, replace=False)
            pair = (nodes[min(u, v)], nodes[max(u, v)])
            if not graph.has_edge(*pair) and pair not in non_edges:
                non_edges.append(pair)
        pairs = edges + non_edges
        labels = np.array([1] * len(edges) + [0] * len(non_edges))
        return graph, pairs, labels

    def test_training_reduces_its_own_loss(self):
        graph, pairs, labels = self._link_problem()
        embedder = GCNLinkEmbedder(epochs=120, seed=0)
        embedder.fit(graph, pairs, labels)
        history = embedder.loss_history_
        assert len(history) == 120
        # The objective must descend substantially from start to finish.
        assert history[-1] < 0.8 * history[0]
        assert all(np.isfinite(history))

    def test_loss_descends_monotonically_on_average(self):
        graph, pairs, labels = self._link_problem()
        embedder = GCNLinkEmbedder(epochs=90, seed=1)
        embedder.fit(graph, pairs, labels)
        history = np.asarray(embedder.loss_history_)
        thirds = np.array_split(history, 3)
        means = [segment.mean() for segment in thirds]
        assert means[0] > means[1] > means[2]
