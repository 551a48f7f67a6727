"""Unit tests for the NumPy MLP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.mlp import MLPClassifier, _relu, _sigmoid, _softmax


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(
            _relu(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0])
        )

    def test_sigmoid_bounds_and_midpoint(self):
        values = _sigmoid(np.array([-100.0, 0.0, 100.0]))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(0.5)
        assert values[2] == pytest.approx(1.0)

    def test_sigmoid_numerically_stable(self):
        # Large negative inputs must not overflow.
        values = _sigmoid(np.array([-1e4, 1e4]))
        assert np.isfinite(values).all()

    def test_softmax_rows_sum_to_one(self):
        probs = _softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(probs.sum(axis=1), [1.0, 1.0])


def _blobs(n=200, seed=0):
    """Two well-separated Gaussian blobs."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(loc=-2.0, scale=0.5, size=(n // 2, 2))
    x1 = rng.normal(loc=2.0, scale=0.5, size=(n // 2, 2))
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
    return x, y


class TestBinaryClassification:
    def test_learns_separable_blobs(self):
        x, y = _blobs()
        model = MLPClassifier(
            hidden_sizes=(16,), learning_rate=1e-2, max_epochs=200, seed=0
        )
        model.fit(x, y)
        accuracy = (model.predict(x) == y).mean()
        assert accuracy > 0.95

    def test_predict_proba_shape_and_range(self):
        x, y = _blobs()
        model = MLPClassifier(hidden_sizes=(8,), max_epochs=20, seed=0).fit(x, y)
        proba = model.predict_proba(x)
        assert proba.shape == (len(x), 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_predict_score_is_positive_class(self):
        x, y = _blobs()
        model = MLPClassifier(hidden_sizes=(8,), max_epochs=20, seed=0).fit(x, y)
        np.testing.assert_allclose(
            model.predict_score(x), model.predict_proba(x)[:, 1]
        )

    def test_deterministic_with_seed(self):
        x, y = _blobs()
        a = MLPClassifier(hidden_sizes=(8,), max_epochs=15, seed=5).fit(x, y)
        b = MLPClassifier(hidden_sizes=(8,), max_epochs=15, seed=5).fit(x, y)
        np.testing.assert_allclose(a.predict_score(x), b.predict_score(x))

    def test_constant_feature_does_not_crash(self):
        x, y = _blobs()
        x = np.hstack([x, np.ones((len(x), 1))])
        model = MLPClassifier(hidden_sizes=(8,), max_epochs=10, seed=0)
        model.fit(x, y)
        assert np.isfinite(model.predict_score(x)).all()

    def test_nonconsecutive_labels(self):
        x, y = _blobs()
        labels = np.where(y == 0, -7, 13)
        model = MLPClassifier(hidden_sizes=(8,), max_epochs=30, seed=0)
        model.fit(x, labels)
        assert set(np.unique(model.predict(x))) <= {-7, 13}


class TestMulticlass:
    def test_three_blobs(self):
        rng = np.random.default_rng(0)
        centers = [(-3, 0), (3, 0), (0, 4)]
        xs, ys = [], []
        for label, (cx, cy) in enumerate(centers):
            xs.append(rng.normal((cx, cy), 0.4, size=(60, 2)))
            ys.append(np.full(60, label))
        x, y = np.vstack(xs), np.concatenate(ys)
        model = MLPClassifier(hidden_sizes=(16,), max_epochs=80, seed=0)
        model.fit(x, y)
        assert (model.predict(x) == y).mean() > 0.9

    def test_proba_shape_multiclass(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(90, 3))
        y = rng.integers(0, 3, size=90)
        model = MLPClassifier(hidden_sizes=(8,), max_epochs=10, seed=0).fit(x, y)
        assert model.predict_proba(x).shape == (90, 3)

    def test_predict_score_raises_for_multiclass(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(60, 2))
        y = rng.integers(0, 3, size=60)
        model = MLPClassifier(hidden_sizes=(8,), max_epochs=5, seed=0).fit(x, y)
        with pytest.raises(RuntimeError):
            model.predict_score(x)


class TestValidation:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MLPClassifier().predict_proba(np.zeros((1, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            MLPClassifier().fit(np.zeros((0, 2)), np.zeros(0))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            MLPClassifier().fit(np.zeros((3, 2)), np.zeros(4))

    def test_one_dimensional_features_raise(self):
        with pytest.raises(ValueError):
            MLPClassifier().fit(np.zeros(3), np.zeros(3))

    def test_nan_features_raise(self):
        x = np.array([[0.0, np.nan], [1.0, 1.0], [0.0, 0.0], [1.0, 2.0]])
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError, match="NaN"):
            MLPClassifier().fit(x, y)

    def test_infinite_features_raise(self):
        x = np.array([[0.0, np.inf], [1.0, 1.0], [0.0, 0.0], [1.0, 2.0]])
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError):
            MLPClassifier().fit(x, y)

    def test_tiny_dataset_trains_without_validation_split(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.1, 0.0], [0.9, 1.1]])
        y = np.array([0, 1, 0, 1])
        model = MLPClassifier(hidden_sizes=(4,), max_epochs=50, seed=0)
        model.fit(x, y)
        assert model.is_fitted

    def test_loss_history_recorded(self):
        x, y = _blobs(n=60)
        model = MLPClassifier(hidden_sizes=(8,), max_epochs=10, seed=0).fit(x, y)
        assert len(model.loss_history_) >= 1
        assert all(np.isfinite(v) for v in model.loss_history_)


@pytest.fixture(scope="module")
def scorer():
    """A fitted binary classifier shaped like MARIOH's clique scorer."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(400, 23)) * rng.uniform(0.1, 10.0, size=23)
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    return MLPClassifier(max_epochs=5, seed=0).fit(x, y)


class TestBatchInvariance:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_rows=st.integers(min_value=1, max_value=150),
    )
    @settings(max_examples=30, deadline=None)
    def test_row_scores_the_same_alone_as_in_any_batch(
        self, scorer, seed, n_rows
    ):
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.1, 10.0, size=23)
        batch = rng.normal(size=(n_rows, 23)) * scale
        together = scorer.predict_score(batch)
        alone = [scorer.predict_score(row[None, :])[0] for row in batch]
        # Exact equality: a last-ulp difference can flip a near-tie.
        assert together.tolist() == alone

    def test_empty_batch(self, scorer):
        assert scorer.predict_proba(np.zeros((0, 23))).shape == (0, 2)
