"""Mini-batch tests for the MLP classifier.

Covers the batched path's contracts: its gradients stay correct
(finite-difference checked with the machinery from
``tests/test_gradients.py``), ``batch_size`` is validated, and the
classifier pipeline hands its knobs to the MLP.
"""

import numpy as np
import pytest

from repro.core.classifier import CliqueClassifier
from repro.hypergraph.projection import project
from repro.ml.mlp import MLPClassifier
from tests.conftest import structured_triangles_hypergraph
from tests.test_gradients import (
    NoStepAdam,
    assert_backward_matches_finite_differences,
)


def _binary_problem(n=12, d=4, seed=3):
    """A small labeled problem; n < 20 keeps the validation split off."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
    if y.min() == y.max():  # ensure both classes appear
        y[0] = 1 - y[0]
    return x, y


class TestBatchedGradients:
    def test_batched_path_gradients_match_finite_differences(self):
        """After training through the mini-batch path, the backward pass
        on a mini-batch still matches central differences (reusing the
        test_gradients machinery)."""
        x, y = _binary_problem(n=18, d=3, seed=5)
        model = MLPClassifier(
            hidden_sizes=(4,),
            batch_size=6,
            max_epochs=8,
            seed=1,
            l2=0.0,  # the FD reference loss has no weight penalty
        )
        model.fit(x, y)
        xs = model._standardize(np.asarray(x, dtype=np.float64))
        batch = np.random.default_rng(0).permutation(len(xs))[:6]
        assert_backward_matches_finite_differences(
            model, xs[batch], y[batch].astype(np.float64)
        )

    def test_no_step_adam_leaves_parameters_untouched(self):
        x, y = _binary_problem()
        model = MLPClassifier(hidden_sizes=(4,), seed=0, l2=0.0)
        model._n_classes = 2
        model._init_params(x.shape[1], 1, np.random.default_rng(0))
        before = model._flat_params.copy()
        model._train_batch(x, y, NoStepAdam(0))
        np.testing.assert_array_equal(model._flat_params, before)


class TestValidationAndIntegration:
    def test_invalid_knobs_rejected(self):
        for batch_size in (0, -8, None, 2.5):
            with pytest.raises(ValueError):
                MLPClassifier(batch_size=batch_size)
        with pytest.raises(TypeError):
            MLPClassifier(shuffle="counter")

    def test_explicit_batch_size_64_equals_default(self):
        """Spelling out the default batch size trains identically."""
        x, y = _binary_problem(n=40)
        default = MLPClassifier(hidden_sizes=(6,), max_epochs=15, seed=3).fit(
            x, y
        )
        explicit = MLPClassifier(
            hidden_sizes=(6,), max_epochs=15, seed=3, batch_size=64
        ).fit(x, y)
        for got, expected in zip(default._weights, explicit._weights):
            np.testing.assert_array_equal(got, expected)
        assert default.loss_history_ == explicit.loss_history_

    def test_loss_descends(self):
        x, y = _binary_problem(n=60, d=5, seed=8)
        model = MLPClassifier(hidden_sizes=(8,), max_epochs=80, seed=0).fit(
            x, y
        )
        history = model.loss_history_
        assert all(np.isfinite(history))
        assert history[-1] < history[0]

    def test_clique_classifier_passes_knobs_through(self):
        hypergraph = structured_triangles_hypergraph(seed=0, n_groups=8)
        graph = project(hypergraph)
        classifier = CliqueClassifier(
            seed=0, max_epochs=30, hidden_sizes=(16,), learning_rate=1e-2
        )
        mlp = classifier._mlp
        assert (mlp.seed, mlp.max_epochs) == (0, 30)
        assert (mlp.hidden_sizes, mlp.learning_rate) == ((16,), 1e-2)
        with pytest.raises(TypeError):
            CliqueClassifier(batch_size=None)
        classifier.fit(graph, hypergraph)
        scores = classifier.score(list(hypergraph.edges()), graph)
        assert scores.shape == (len(set(hypergraph.edges())),)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
