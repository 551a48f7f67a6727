"""The multiplicity-aware clique classifier ``M`` and its training set.

The classifier is trained on the *source* pair (H(S), G(S)): positives
are the unique hyperedges of H(S) (every hyperedge is a clique of the
projection by construction), negatives are cliques of G(S) that are not
hyperedges.  The paper defers its exact negative-sampling strategy to the
(unavailable) appendix; our documented strategy, validated by the
ablations, draws negatives from three pools that mirror the candidate
population the search actually scores:

1. maximal cliques of G(S) that are not hyperedges of H(S);
2. random sub-cliques (one per size ``k in [2, |Q|-1]``) of maximal
   cliques, skipping true hyperedges;
3. random edges of G(S) that are not size-2 hyperedges.

Pools are concatenated, deduplicated, and subsampled to
``negative_ratio`` times the number of positives.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.features import CliqueFeaturizer
from repro.hypergraph.cliques import Clique, maximal_cliques_list
from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.ml.mlp import MLPClassifier


def sample_negative_cliques(
    graph: WeightedGraph,
    hypergraph: Hypergraph,
    n_target: int,
    rng: np.random.Generator,
) -> List[Clique]:
    """Draw up to ``n_target`` non-hyperedge cliques from the three pools."""
    positives: Set[Clique] = set(hypergraph.edges())
    pool: List[Clique] = []
    seen: Set[Clique] = set()

    def consider(candidate: Clique) -> None:
        if candidate not in positives and candidate not in seen:
            seen.add(candidate)
            pool.append(candidate)

    maximal = maximal_cliques_list(graph)
    for clique in maximal:
        consider(clique)
        members = sorted(clique)
        for k in range(2, len(members)):
            chosen = rng.choice(len(members), size=k, replace=False)
            consider(frozenset(members[i] for i in chosen))

    edges = list(graph.edges())
    if edges:
        picks = rng.choice(len(edges), size=min(len(edges), n_target), replace=False)
        for index in np.atleast_1d(picks):
            u, v = edges[int(index)]
            consider(frozenset((u, v)))

    if len(pool) > n_target:
        chosen = rng.choice(len(pool), size=n_target, replace=False)
        pool = [pool[int(i)] for i in chosen]
    return pool


class CliqueClassifier:
    """Featurizer + MLP pipeline producing scores ``M(Q)`` in (0, 1)."""

    def __init__(
        self,
        featurizer: Optional[CliqueFeaturizer] = None,
        hidden_sizes: Sequence[int] = (64, 32),
        negative_ratio: float = 2.0,
        max_epochs: int = 150,
        learning_rate: float = 1e-3,
        seed: Optional[int] = None,
    ) -> None:
        if negative_ratio <= 0:
            raise ValueError(f"negative_ratio must be positive, got {negative_ratio}")
        self.featurizer = featurizer if featurizer is not None else CliqueFeaturizer()
        self.negative_ratio = negative_ratio
        self.seed = seed
        self._mlp = MLPClassifier(
            hidden_sizes=hidden_sizes,
            learning_rate=learning_rate,
            max_epochs=max_epochs,
            seed=seed,
        )
        #: seconds spent assembling the training set / optimizing the
        #: MLP in the last fit() call (Fig. 6 breakdown).
        self.sample_seconds_: float = 0.0
        self.train_seconds_: float = 0.0

    @property
    def is_fitted(self) -> bool:
        return self._mlp.is_fitted

    def build_training_set(
        self, graph: WeightedGraph, hypergraph: Hypergraph
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble (features, labels) from the source pair."""
        rng = np.random.default_rng(self.seed)
        positives: List[Clique] = list(hypergraph.edges())
        if not positives:
            raise ValueError("source hypergraph has no hyperedges to learn from")
        n_negatives = max(1, int(round(self.negative_ratio * len(positives))))
        negatives = sample_negative_cliques(graph, hypergraph, n_negatives, rng)

        cliques = positives + negatives
        labels = np.concatenate(
            [np.ones(len(positives), dtype=int), np.zeros(len(negatives), dtype=int)]
        )
        features = self.featurizer.featurize_many(cliques, graph)
        return features, labels

    def fit(self, graph: WeightedGraph, hypergraph: Hypergraph) -> "CliqueClassifier":
        """Train on the source projected graph and hypergraph.

        Records ``sample_seconds_`` (training-set assembly, dominated by
        negative sampling and featurization) and ``train_seconds_`` (MLP
        optimization) for the Fig. 6 runtime breakdown.
        """
        started = time.perf_counter()
        features, labels = self.build_training_set(graph, hypergraph)
        self.sample_seconds_ = time.perf_counter() - started
        if labels.sum() == len(labels):
            # No negatives could be sampled (e.g. every clique is a
            # hyperedge).  Fall back to a constant-positive scorer by
            # injecting a single synthetic zero row; the MLP then scores
            # everything near the positive rate, which is the right prior.
            features = np.vstack([features, np.zeros(features.shape[1])])
            labels = np.concatenate([labels, [0]])
        started = time.perf_counter()
        self._mlp.fit(features, labels)
        self.train_seconds_ = time.perf_counter() - started
        return self

    def score(
        self,
        cliques: Sequence[Clique],
        graph: WeightedGraph,
        reference_graph: Optional[WeightedGraph] = None,
    ) -> np.ndarray:
        """Batch prediction scores ``M(Q)`` for candidate cliques."""
        if not self.is_fitted:
            raise RuntimeError("classifier must be fitted before scoring")
        if not cliques:
            return np.zeros(0)
        features = self.featurizer.featurize_many(cliques, graph, reference_graph)
        return self._mlp.predict_score(features)
