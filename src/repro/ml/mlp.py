"""A NumPy multi-layer perceptron with Adam and early stopping.

This stands in for the paper's PyTorch MLP classifier.  The math is
identical: dense layers with ReLU activations, a sigmoid (binary) or
softmax (multiclass) output, cross-entropy loss, mini-batch Adam, input
standardization, and patience-based early stopping on a validation split.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Rows per forward-pass tile when scoring (see
#: :meth:`MLPClassifier.predict_proba`).
SCORE_TILE = 64


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class _AdamState:
    """Adam moment buffers over one flat parameter vector.

    All parameters live in a single contiguous float64 buffer (the MLP
    layers are views into it), so one step is a single fused update over
    the whole buffer instead of per-parameter loops.  The update performs
    the same elementwise float operations (and roundings) as the
    textbook per-parameter form, so training stays bit-identical to it.
    """

    def __init__(self, n_params: int) -> None:
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(
        self,
        params: np.ndarray,
        grads: np.ndarray,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.t += 1
        correction1 = 1.0 - beta1**self.t
        correction2 = 1.0 - beta2**self.t
        self.m *= beta1
        self.m += (1.0 - beta1) * grads
        self.v *= beta2
        self.v += (1.0 - beta2) * grads * grads
        params -= lr * (self.m / correction1) / (
            np.sqrt(self.v / correction2) + eps
        )


class MLPClassifier:
    """Feed-forward classifier trained with mini-batch Adam.

    Parameters
    ----------
    hidden_sizes:
        Widths of the hidden ReLU layers.
    learning_rate, batch_size, max_epochs:
        Optimization knobs.
    patience:
        Early-stopping patience (epochs without validation-loss
        improvement); validation uses a 10% holdout of the training set.
    l2:
        L2 weight penalty.
    seed:
        Seed for weight init, batching, and the validation split: one
        sequential stream draws the init, the holdout and each epoch's
        mini-batch permutation, in that order.
    """

    def __init__(
        self,
        hidden_sizes: Sequence[int] = (64, 32),
        learning_rate: float = 1e-3,
        batch_size: int = 64,
        max_epochs: int = 200,
        patience: int = 15,
        l2: float = 1e-5,
        seed: Optional[int] = None,
    ) -> None:
        if not isinstance(batch_size, int) or batch_size <= 0:
            raise ValueError(f"batch_size must be a positive int, got {batch_size}")
        self.hidden_sizes = tuple(hidden_sizes)
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.l2 = l2
        self.seed = seed
        self._weights: List[np.ndarray] = []
        self._biases: List[np.ndarray] = []
        self._flat_params: np.ndarray = np.zeros(0)
        self._flat_grads: np.ndarray = np.zeros(0)
        self._weight_grads: List[np.ndarray] = []
        self._bias_grads: List[np.ndarray] = []
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self._n_classes = 2
        self.loss_history_: List[float] = []

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return bool(self._weights)

    def _init_params(self, n_features: int, n_outputs: int, rng) -> None:
        """Initialize weights/biases as views into one flat buffer.

        The flat layout lets the Adam update run as a few whole-buffer
        vector operations; the per-layer views stay contiguous, so the
        forward/backward matmuls are unaffected.
        """
        sizes = [n_features, *self.hidden_sizes, n_outputs]
        shapes = list(zip(sizes[:-1], sizes[1:]))
        initial: List[np.ndarray] = []
        for fan_in, fan_out in shapes:
            scale = np.sqrt(2.0 / fan_in)
            initial.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        n_weights = sum(fan_in * fan_out for fan_in, fan_out in shapes)
        n_biases = sum(fan_out for _, fan_out in shapes)
        self._flat_params = np.zeros(n_weights + n_biases)
        self._flat_grads = np.zeros(n_weights + n_biases)
        self._weights = []
        self._biases = []
        self._weight_grads = []
        self._bias_grads = []
        cursor = 0
        for (fan_in, fan_out), init in zip(shapes, initial):
            view = self._flat_params[cursor : cursor + fan_in * fan_out]
            view[:] = init.ravel()
            self._weights.append(view.reshape(fan_in, fan_out))
            self._weight_grads.append(
                self._flat_grads[cursor : cursor + fan_in * fan_out].reshape(
                    fan_in, fan_out
                )
            )
            cursor += fan_in * fan_out
        for _, fan_out in shapes:
            self._biases.append(self._flat_params[cursor : cursor + fan_out])
            self._bias_grads.append(self._flat_grads[cursor : cursor + fan_out])
            cursor += fan_out

    def _forward(self, x: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
        activations = [x]
        hidden = x
        for w, b in zip(self._weights[:-1], self._biases[:-1]):
            hidden = _relu(hidden @ w + b)
            activations.append(hidden)
        logits = hidden @ self._weights[-1] + self._biases[-1]
        return activations, logits

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        assert self._mean is not None and self._std is not None
        return (x - self._mean) / self._std

    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "MLPClassifier":
        """Train on ``features`` (n, d) against integer ``labels`` (n,)."""
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels)
        if x.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {x.shape}")
        if len(x) != len(y):
            raise ValueError(f"{len(x)} samples but {len(y)} labels")
        if len(x) == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not np.isfinite(x).all():
            raise ValueError(
                "features contain NaN or infinity; clean the inputs before fitting"
            )

        classes = np.unique(y)
        self._n_classes = max(2, len(classes))
        self._class_values = classes
        y_indexed = np.searchsorted(classes, y)

        self._mean = x.mean(axis=0)
        self._std = x.std(axis=0)
        self._std = np.where(self._std < 1e-12, 1.0, self._std)
        x = self._standardize(x)

        rng = np.random.default_rng(self.seed)
        n_outputs = 1 if self._n_classes == 2 else self._n_classes
        self._init_params(x.shape[1], n_outputs, rng)
        adam = _AdamState(len(self._flat_params))

        # Validation holdout for early stopping (skip for tiny datasets).
        n = len(x)
        use_validation = n >= 20
        if use_validation:
            order = rng.permutation(n)
            n_val = max(1, n // 10)
            val_idx, train_idx = order[:n_val], order[n_val:]
        else:
            train_idx = np.arange(n)
            val_idx = np.arange(0)

        best_val = np.inf
        best_params: Optional[Tuple[List[np.ndarray], List[np.ndarray]]] = None
        stall = 0
        self.loss_history_ = []

        for _ in range(self.max_epochs):
            perm = rng.permutation(len(train_idx))
            epoch_loss = 0.0
            for start in range(0, len(perm), self.batch_size):
                batch = train_idx[perm[start : start + self.batch_size]]
                epoch_loss += self._train_batch(x[batch], y_indexed[batch], adam)
            self.loss_history_.append(epoch_loss / max(1, len(perm)))

            if use_validation:
                val_loss = self._loss(x[val_idx], y_indexed[val_idx])
                if val_loss < best_val - 1e-6:
                    best_val = val_loss
                    best_params = (
                        [w.copy() for w in self._weights],
                        [b.copy() for b in self._biases],
                    )
                    stall = 0
                else:
                    stall += 1
                    if stall >= self.patience:
                        break

        if best_params is not None:
            self._weights, self._biases = best_params
        return self

    def _train_batch(self, x: np.ndarray, y: np.ndarray, adam: _AdamState) -> float:
        activations, logits = self._forward(x)
        n = len(x)
        if self._n_classes == 2:
            probs = _sigmoid(logits[:, 0])
            target = y.astype(np.float64)
            loss = -np.mean(
                target * np.log(probs + 1e-12)
                + (1.0 - target) * np.log(1.0 - probs + 1e-12)
            )
            delta = ((probs - target) / n)[:, None]
        else:
            probs = _softmax(logits)
            loss = -np.mean(np.log(probs[np.arange(n), y] + 1e-12))
            delta = probs.copy()
            delta[np.arange(n), y] -= 1.0
            delta /= n

        for layer in range(len(self._weights) - 1, -1, -1):
            grad = self._weight_grads[layer]
            np.matmul(activations[layer].T, delta, out=grad)
            grad += self.l2 * self._weights[layer]
            np.sum(delta, axis=0, out=self._bias_grads[layer])
            if layer > 0:
                delta = (delta @ self._weights[layer].T) * (activations[layer] > 0)

        adam.step(self._flat_params, self._flat_grads, self.learning_rate)
        return float(loss)

    def _loss(self, x: np.ndarray, y: np.ndarray) -> float:
        if len(x) == 0:
            return 0.0
        _, logits = self._forward(x)
        if self._n_classes == 2:
            probs = _sigmoid(logits[:, 0])
            target = y.astype(np.float64)
            return float(
                -np.mean(
                    target * np.log(probs + 1e-12)
                    + (1.0 - target) * np.log(1.0 - probs + 1e-12)
                )
            )
        probs = _softmax(logits)
        return float(-np.mean(np.log(probs[np.arange(len(y)), y] + 1e-12)))

    # ------------------------------------------------------------------
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities, shape (n, n_classes).

        The forward pass runs in tiles of :data:`SCORE_TILE` rows, the
        last one padded with copies of the first row, so every matmul
        has one shape whatever the batch size.  One BLAS call over a
        whole batch may round a row differently depending on the size
        and content of the batch, which would let a component
        reconstructed on its own break a near-tie differently from the
        whole graph.  With fixed-shape tiles a row scores the same alone
        as inside any batch - a property of the BLAS build, which the
        batch-invariance tests pin.
        """
        if not self.is_fitted:
            raise RuntimeError("classifier is not fitted")
        x = self._standardize(np.asarray(features, dtype=np.float64))
        n = len(x)
        x = np.concatenate([x, np.repeat(x[:1], -n % SCORE_TILE, axis=0)])
        logits = np.empty((len(x), self._weights[-1].shape[1]))
        for start in range(0, len(x), SCORE_TILE):
            tile = slice(start, start + SCORE_TILE)
            logits[tile] = self._forward(x[tile])[1]
        logits = logits[:n]
        if self._n_classes == 2:
            positive = _sigmoid(logits[:, 0])
            return np.column_stack([1.0 - positive, positive])
        return _softmax(logits)

    def predict_score(self, features: np.ndarray) -> np.ndarray:
        """Positive-class probability (binary classifiers only)."""
        if self._n_classes != 2:
            raise RuntimeError("predict_score is only defined for binary classifiers")
        return self.predict_proba(features)[:, 1]

    def predict(self, features: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(features)
        indices = proba.argmax(axis=1)
        return self._class_values[indices]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable snapshot of a fitted classifier."""
        if not self.is_fitted:
            raise RuntimeError("cannot serialize an unfitted classifier")
        return {
            "hidden_sizes": list(self.hidden_sizes),
            "n_classes": self._n_classes,
            "class_values": np.asarray(self._class_values).tolist(),
            "mean": self._mean.tolist(),
            "std": self._std.tolist(),
            "weights": [w.tolist() for w in self._weights],
            "biases": [b.tolist() for b in self._biases],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MLPClassifier":
        """Rebuild a fitted classifier from :meth:`to_dict` output."""
        model = cls(hidden_sizes=tuple(payload["hidden_sizes"]))
        model._n_classes = int(payload["n_classes"])
        model._class_values = np.asarray(payload["class_values"])
        model._mean = np.asarray(payload["mean"], dtype=np.float64)
        model._std = np.asarray(payload["std"], dtype=np.float64)
        model._weights = [
            np.asarray(w, dtype=np.float64) for w in payload["weights"]
        ]
        model._biases = [
            np.asarray(b, dtype=np.float64) for b in payload["biases"]
        ]
        return model
