"""Determinism and caching-consistency tests.

A reproduction repository must be reproducible itself: same seed, same
answer, across every stochastic component.
"""

import numpy as np
import pytest

from repro.core.features import CliqueFeaturizer
from repro.core.marioh import MARIOH
from repro.datasets import load
from repro.datasets.largescale import (
    LargeScaleConfig,
    chained_clique_projection,
)
from repro.hypergraph.cliques import maximal_cliques_list
from repro.hypergraph.projection import project
from repro.hypergraph.split import split_source_target
from repro.sharding.stitch import hypergraph_digest
from tests.conftest import random_hypergraph


class TestMariohDeterminism:
    @pytest.mark.seed_matrix
    @pytest.mark.parametrize("variant", ["full", "no_bidirectional"])
    def test_same_seed_same_reconstruction(self, variant, matrix_seed):
        hypergraph = random_hypergraph(seed=7, n_nodes=18, n_edges=30)
        source, target = split_source_target(hypergraph, seed=0)
        graph = project(target)

        def run():
            model = MARIOH(
                seed=11 + matrix_seed, max_epochs=30, variant=variant
            )
            return model.fit_reconstruct(source, graph)

        assert run() == run()

    def test_different_seeds_may_differ_but_stay_valid(self):
        bundle = load("enron", seed=0)
        source = bundle.source_hypergraph.reduce_multiplicity()
        graph = bundle.target_graph_reduced
        reconstructions = [
            MARIOH(seed=seed, max_epochs=40).fit_reconstruct(source, graph)
            for seed in (0, 1)
        ]
        for reconstruction in reconstructions:
            assert project(reconstruction) == graph

    def test_provenance_is_deterministic(self):
        hypergraph = random_hypergraph(seed=3, n_nodes=15, n_edges=25)
        source, target = split_source_target(hypergraph, seed=0)
        graph = project(target)

        def trace():
            model = MARIOH(seed=5, max_epochs=25, record_provenance=True)
            model.fit_reconstruct(source, graph)
            return model.provenance_

        assert trace() == trace()


class TestFeaturizerCache:
    def test_cache_matches_uncached(self):
        """The vectorized batch must match the scalar reference.

        The tolerance only absorbs float summation-order noise in the
        std / portion columns (the batch path reduces groups
        sequentially, np.std sums pairwise); every integer-valued
        feature must agree exactly.
        """
        hypergraph = random_hypergraph(seed=9, n_nodes=16, n_edges=28)
        graph = project(hypergraph)
        cliques = maximal_cliques_list(graph)
        featurizer = CliqueFeaturizer()
        batched = featurizer.featurize_many(cliques, graph)
        individual = np.vstack(
            [featurizer.featurize(clique, graph) for clique in cliques]
        )
        np.testing.assert_allclose(batched, individual, rtol=0, atol=1e-12)

    def test_cache_not_shared_across_calls(self):
        """A second featurize_many on a *mutated* graph must not reuse
        stale MHH values."""
        hypergraph = random_hypergraph(seed=10, n_nodes=12, n_edges=20)
        graph = project(hypergraph)
        cliques = maximal_cliques_list(graph)
        featurizer = CliqueFeaturizer()
        before = featurizer.featurize_many(cliques, graph)

        # Mutate: bump one edge weight, features must change somewhere.
        u, v = next(iter(graph.edges()))
        graph.add_edge(u, v, 5)
        still_valid = [c for c in cliques if all(
            graph.has_edge(a, b)
            for i, a in enumerate(sorted(c))
            for b in sorted(c)[i + 1 :]
        )]
        after = featurizer.featurize_many(still_valid, graph)
        assert after.shape[0] == len(still_valid)
        # The batch as a whole reflects the new weights (no stale cache).
        touched = [i for i, c in enumerate(still_valid) if u in c and v in c]
        if touched:
            sub_before = np.vstack(
                [before[cliques.index(still_valid[i])] for i in touched]
            )
            sub_after = after[touched]
            assert not np.array_equal(sub_before, sub_after)


class TestDatasetDeterminism:
    @pytest.mark.seed_matrix
    @pytest.mark.parametrize("name", ["crime", "enron", "dblp"])
    def test_bundles_are_bitwise_stable(self, name, matrix_seed):
        a = load(name, seed=4 + matrix_seed)
        b = load(name, seed=4 + matrix_seed)
        assert a.hypergraph == b.hypergraph
        assert a.source_graph == b.source_graph
        assert a.target_graph_reduced == b.target_graph_reduced


class _UncachedFeaturizer(CliqueFeaturizer):
    """Recomputes every row: the row cache is reset before each call."""

    def featurize_many(self, cliques, graph, reference_graph=None):
        self.reset_row_cache()
        return super().featurize_many(cliques, graph, reference_graph)


class TestCachedLoopMatchesUncachedRescan:
    """The default loop (pool maintenance, dirty-node row cache, one-pass
    decrements) against the rescan engine with no row reuse, on the
    same trained weights: byte-identical reconstructions.  Compares two
    runs on this machine, so no digest constant is committed."""

    @pytest.mark.parametrize("scope", ["global", "component"])
    @pytest.mark.parametrize("name", ["eu", "dblp", "chain-2k"])
    def test_digests_match(self, name, scope):
        if name == "chain-2k":
            source = load("eu", seed=0).source_hypergraph
            graph = chained_clique_projection(LargeScaleConfig(n_edges=2_000))
        else:
            bundle = load(name, seed=0)
            source, graph = bundle.source_hypergraph, bundle.target_graph
        model = MARIOH(seed=0, max_epochs=20, phase2_scope=scope).fit(source)
        cached = model.reconstruct(graph)
        model.engine = "rescan"
        model.classifier.featurizer = _UncachedFeaturizer()
        uncached = model.reconstruct(graph)
        assert model.engine_fallback_ is None
        assert hypergraph_digest(cached) == hypergraph_digest(uncached)
