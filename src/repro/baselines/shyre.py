"""SHyRe baselines (Wang & Kleinberg [6]): supervised clique sampling.

SHyRe learns, from the source pair (H(S), G(S)), the distribution
``rho(n, k)``: how many size-k hyperedges a size-n maximal clique of the
projection typically contains.  At inference it enumerates the target's
maximal cliques, samples candidate sub-cliques according to ``rho``, and
keeps the candidates a trained classifier accepts.  Because candidates
come only from sampling, hyperedges that are never sampled are missed -
the false-negative weakness MARIOH's iterative search addresses.

``ShyreCount`` uses the basic structural (count) features;
``ShyreMotif`` augments them with local motif statistics (per-edge
common-neighbor counts and per-node clustering coefficients).  Neither
uses edge multiplicity, matching the paper's main setting.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.baselines.base import Reconstructor
from repro.core.classifier import sample_negative_cliques
from repro.core.features import (
    StructuralFeaturizer,
    _five_stats,
    _grouped_five_stats,
    _prepare_batch,
    _structural_feature_matrix,
)
from repro.hypergraph.cliques import Clique, maximal_cliques_list
from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.projection import project
from repro.ml.mlp import MLPClassifier
from itertools import combinations


class MotifFeaturizer(StructuralFeaturizer):
    """Structural features plus local motif statistics (SHyRe-Motif).

    Adds, on top of :class:`StructuralFeaturizer`'s 13 dimensions, the
    5-stat summaries of (a) common-neighbor counts per clique edge
    (triangle motifs through the clique) and (b) clustering coefficients
    per clique node (local triangle density).

    A member's clustering coefficient depends on edges *among its
    neighbors* - two hops out, beyond the edges incident to the clique -
    so the inherited feature-row cache additionally invalidates on the
    scoring graph's ``structure_version`` (weight-only mutations never
    move motif statistics and keep rows valid).
    """

    n_features = StructuralFeaturizer.n_features + 10

    def _cache_stamp_extra(self, graph, reference_graph):
        return (graph.structure_version,)

    def featurize(self, clique, graph, reference_graph=None):
        base = super().featurize(clique, graph, reference_graph)
        members = sorted(set(clique))

        common_counts = [
            float(len(graph.common_neighbors(u, v)))
            for u, v in combinations(members, 2)
        ]

        clustering = []
        for u in members:
            neighbors = sorted(graph.neighbors(u))
            degree = len(neighbors)
            if degree < 2:
                clustering.append(0.0)
                continue
            links = sum(
                1
                for i, a in enumerate(neighbors)
                for b in neighbors[i + 1 :]
                if graph.has_edge(a, b)
            )
            clustering.append(2.0 * links / (degree * (degree - 1)))

        extra = _five_stats(common_counts) + _five_stats(clustering)
        return np.concatenate([base, np.asarray(extra)])

    def _compute_rows(self, cliques, graph, reference):
        """Vectorized batch path mirroring the scalar ``featurize``.

        The base 13 columns come from the shared structural kernel; the
        motif extras reuse the same unique-pair table: common-neighbor
        counts per clique edge, and per-node clustering coefficients
        computed once per unique member node via batched neighbor
        intersections.
        """
        batch = _prepare_batch(cliques, graph)
        base = _structural_feature_matrix(
            cliques, graph, reference, batch=batch
        )
        snapshot = batch.snapshot

        unique_common = snapshot.batch_common_neighbor_counts(
            batch.ua, batch.ub
        ).astype(np.float64)
        common_stats = _grouped_five_stats(
            unique_common[batch.inverse], batch.pair_offsets, batch.pair_counts
        )

        # Clustering coefficient per unique member node: the number of
        # edges among N(u) equals half the sum of |N(u) ∩ N(z)| over
        # z in N(u), so c(u) = 2*links/(d(d-1)) = sum/(d(d-1)).
        coeff_by_row = np.zeros(snapshot.num_nodes + 1)
        unique_rows = np.unique(batch.node_idx)
        unique_rows = unique_rows[unique_rows < snapshot.num_nodes]
        if len(unique_rows):
            flat, owner = snapshot.expand_rows(unique_rows)
            if len(flat):
                inter = snapshot.batch_common_neighbor_counts(
                    unique_rows[owner], snapshot.nbr[flat]
                )
                link_sums = np.bincount(
                    owner, weights=inter, minlength=len(unique_rows)
                )
                degrees = snapshot.degrees[unique_rows]
                denominator = degrees * (degrees - 1)
                coeff_by_row[unique_rows] = np.divide(
                    link_sums,
                    denominator,
                    out=np.zeros(len(unique_rows)),
                    where=denominator > 0,
                )
        clustering_stats = _grouped_five_stats(
            coeff_by_row[batch.node_idx], batch.node_offsets, batch.sizes
        )
        return np.hstack([base, common_stats, clustering_stats])


class _ShyreBase(Reconstructor):
    """Shared fit/reconstruct machinery for SHyRe-Count and SHyRe-Motif."""

    def __init__(
        self,
        threshold: float = 0.5,
        negative_ratio: float = 2.0,
        max_epochs: int = 150,
        max_samples_per_clique: int = 30,
        seed: Optional[int] = None,
    ) -> None:
        self.threshold = threshold
        self.negative_ratio = negative_ratio
        self.max_samples_per_clique = max_samples_per_clique
        self.seed = seed
        self.featurizer = self._make_featurizer()
        self._mlp = MLPClassifier(
            hidden_sizes=(64, 32), max_epochs=max_epochs, seed=seed
        )
        #: rho[(n, k)] -> average count of size-k hyperedges per size-n
        #: maximal clique, learned during fit.
        self.rho_: Dict[Tuple[int, int], float] = {}

    def _make_featurizer(self) -> StructuralFeaturizer:
        raise NotImplementedError

    @property
    def is_fitted(self) -> bool:
        return self._mlp.is_fitted

    # ------------------------------------------------------------------
    def fit(self, source_hypergraph: Hypergraph) -> "_ShyreBase":
        source_graph = project(source_hypergraph)
        maximal = maximal_cliques_list(source_graph)

        # Learn rho(n, k): per size-n maximal clique, the expected number
        # of size-k hyperedges contained in it.
        clique_count_by_size: Counter = Counter()
        contained: Counter = Counter()
        hyperedges: Set[Clique] = set(source_hypergraph.edges())
        for clique in maximal:
            n = len(clique)
            clique_count_by_size[n] += 1
            for edge in hyperedges:
                if edge <= clique:
                    contained[(n, len(edge))] += 1
        self.rho_ = {
            (n, k): count / clique_count_by_size[n]
            for (n, k), count in contained.items()
        }

        # Train the classifier.
        rng = np.random.default_rng(self.seed)
        positives: List[Clique] = list(hyperedges)
        if not positives:
            raise ValueError("source hypergraph has no hyperedges to learn from")
        n_negatives = max(1, int(round(self.negative_ratio * len(positives))))
        negatives = sample_negative_cliques(
            source_graph, source_hypergraph, n_negatives, rng
        )
        cliques = positives + negatives
        labels = np.concatenate(
            [np.ones(len(positives), dtype=int), np.zeros(len(negatives), dtype=int)]
        )
        features = self.featurizer.featurize_many(cliques, source_graph)
        if labels.sum() == len(labels):
            features = np.vstack([features, np.zeros(features.shape[1])])
            labels = np.concatenate([labels, [0]])
        self._mlp.fit(features, labels)
        return self

    # ------------------------------------------------------------------
    def _sample_candidates(
        self, maximal: Sequence[Clique], rng: np.random.Generator
    ) -> List[Clique]:
        """Sample sub-clique candidates from each maximal clique via rho."""
        candidates: List[Clique] = []
        seen: Set[Clique] = set()

        def consider(candidate: Clique) -> None:
            if candidate not in seen:
                seen.add(candidate)
                candidates.append(candidate)

        for clique in maximal:
            n = len(clique)
            members = sorted(clique)
            consider(clique)
            for k in range(2, n):
                expected = self.rho_.get((n, k), 0.0)
                n_samples = int(min(round(expected), self.max_samples_per_clique))
                for _ in range(n_samples):
                    chosen = rng.choice(n, size=k, replace=False)
                    consider(frozenset(members[int(i)] for i in chosen))
        return candidates

    def reconstruct(self, target_graph: WeightedGraph) -> Hypergraph:
        if not self.is_fitted:
            raise RuntimeError("call fit() before reconstruct()")
        rng = np.random.default_rng(self.seed)
        maximal = maximal_cliques_list(target_graph)
        reconstruction = Hypergraph(nodes=target_graph.nodes)
        if not maximal:
            return reconstruction
        candidates = self._sample_candidates(maximal, rng)
        features = self.featurizer.featurize_many(candidates, target_graph)
        scores = self._mlp.predict_score(features)
        for candidate, score in zip(candidates, scores):
            if score > self.threshold:
                reconstruction.add(candidate)
        return reconstruction


class ShyreCount(_ShyreBase):
    """SHyRe with basic structural (count) features."""

    name = "SHyRe-Count"

    def _make_featurizer(self) -> StructuralFeaturizer:
        return StructuralFeaturizer()


class ShyreMotif(_ShyreBase):
    """SHyRe with motif-augmented features."""

    name = "SHyRe-Motif"

    def _make_featurizer(self) -> StructuralFeaturizer:
        return MotifFeaturizer()
