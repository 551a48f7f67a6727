"""Property tests: vectorized featurization vs the scalar reference.

The vectorized ``featurize_many`` paths (and the batched MHH kernel they
ride on) must agree with the per-clique reference implementations to
1e-9 on randomized weighted graphs - including awkward inputs such as
candidate sets that are not actual cliques, members missing from the
graph, and a reference graph that differs from the scoring graph.  The
incremental engine (the new default) must reproduce the rescan
reference exactly.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.shyre import MotifFeaturizer
from repro.core.features import CliqueFeaturizer, StructuralFeaturizer
from repro.core.filtering import filter_guaranteed_pairs, mhh
from repro.core.marioh import MARIOH
from repro.datasets import load
import repro.hypergraph.graph as graph_module
from repro.hypergraph.graph import GraphSnapshot, WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.projection import project
from repro.hypergraph.split import split_source_target
from tests.conftest import random_hypergraph

FEATURIZERS = [CliqueFeaturizer, StructuralFeaturizer, MotifFeaturizer]

#: The default kernel block size, and two that split every test batch
#: into several blocks (with a partial last one at 3 whenever the batch
#: length is not a multiple of it).
KERNEL_BLOCKS = (graph_module._KERNEL_BLOCK_PAIRS, 1, 3)


def _random_graph(rng, n_nodes, edge_prob=0.35, max_weight=6):
    graph = WeightedGraph()
    for u, v in combinations(range(n_nodes), 2):
        if rng.random() < edge_prob:
            graph.add_edge(u, v, int(rng.integers(1, max_weight)))
    return graph


def _random_candidates(rng, n_nodes, n_candidates=12, allow_unknown=True):
    """Arbitrary node subsets - not necessarily cliques of the graph."""
    high = n_nodes + (2 if allow_unknown else 0)
    candidates = []
    for _ in range(n_candidates):
        k = int(rng.integers(2, max(3, min(6, high))))
        members = rng.choice(high, size=k, replace=False)
        candidates.append(frozenset(int(u) for u in members))
    return candidates


def _convert_one_clique(graph):
    """Decrement a triangle of ``graph`` (an edge if it has none) by its
    lightest pair's weight, as a conversion does: at least one pair
    vanishes, so the cached snapshot tombstones its slots."""
    edges = sorted(graph.edges())
    members = next(
        (
            (u, v, w)
            for u, v in edges
            for w in sorted(graph.common_neighbors(u, v))
            if w > v
        ),
        edges[0],
    )
    amount = min(graph.weight(x, y) for x, y in combinations(members, 2))
    graph.decrement_clique(members, amount)


def _check_blocked_kernel(graph, pairs, kernel, reference):
    """``kernel(snapshot, a, b)`` over ``pairs`` equals ``reference(u, v)``
    exactly at every size in :data:`KERNEL_BLOCKS`, on the snapshot as
    built and again after a clique conversion tombstoned slots in it."""
    snapshot = graph.snapshot()
    a = snapshot.index_of(u for u, _ in pairs)
    b = snapshot.index_of(v for _, v in pairs)
    for state in ("dense", "tombstoned"):
        if state == "tombstoned":
            _convert_one_clique(graph)
            assert graph.snapshot() is snapshot
            assert snapshot.n_tombstones > 0
        expected = np.array([reference(u, v) for u, v in pairs])
        for block in KERNEL_BLOCKS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(graph_module, "_KERNEL_BLOCK_PAIRS", block)
                batched = kernel(snapshot, a, b)
            np.testing.assert_array_equal(
                batched, expected, err_msg=f"{state} snapshot, block {block}"
            )


class TestBatchedKernels:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_batch_mhh_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        graph = _random_graph(rng, int(rng.integers(4, 18)))
        edges = list(graph.edges())
        if not edges:
            return
        _check_blocked_kernel(
            graph, edges, GraphSnapshot.batch_mhh,
            lambda u, v: mhh(graph, u, v),
        )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_common_neighbor_counts_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        graph = _random_graph(rng, int(rng.integers(4, 18)))
        nodes = sorted(graph.nodes)
        if graph.num_edges == 0:
            return
        pairs = [
            (nodes[int(i)], nodes[int(j)])
            for i, j in rng.integers(0, len(nodes), size=(20, 2))
            if i != j
        ]
        _check_blocked_kernel(
            graph, pairs, GraphSnapshot.batch_common_neighbor_counts,
            lambda u, v: len(graph.common_neighbors(u, v)),
        )

    def test_vectorized_filtering_matches_scalar_reference(self):
        for seed in range(5):
            hypergraph = random_hypergraph(seed=seed, n_nodes=16, n_edges=30)
            graph = project(hypergraph)
            fast, _ = filter_guaranteed_pairs(graph, Hypergraph(nodes=graph.nodes))
            # Scalar reference: E independent mhh() calls.
            slow = graph.copy()
            reference = Hypergraph(nodes=graph.nodes)
            for u, v in list(graph.edges()):
                residual = graph.weight(u, v) - mhh(graph, u, v)
                if residual > 0:
                    reference.add((u, v), multiplicity=residual)
                    slow.decrement_edge(u, v, residual)
            assert fast == slow


class TestFeaturizerParity:
    @pytest.mark.parametrize("featurizer_cls", FEATURIZERS)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_featurize_many_matches_reference(self, featurizer_cls, seed):
        rng = np.random.default_rng(seed)
        graph = _random_graph(rng, int(rng.integers(4, 16)))
        candidates = _random_candidates(rng, 16)
        featurizer = featurizer_cls()
        batched = featurizer.featurize_many(candidates, graph)
        reference = np.vstack(
            [featurizer.featurize(c, graph) for c in candidates]
        )
        assert batched.shape == (len(candidates), featurizer.n_features)
        np.testing.assert_allclose(batched, reference, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("featurizer_cls", FEATURIZERS)
    def test_parity_with_distinct_reference_graph(self, featurizer_cls):
        """Maximality must be measured on the reference graph even when
        the scoring graph has lost edges (the reconstruction-loop setup)."""
        rng = np.random.default_rng(42)
        reference = _random_graph(rng, 14, edge_prob=0.5)
        shrunk = reference.copy()
        for u, v in list(shrunk.edges())[::3]:
            shrunk.remove_edge(u, v)
        candidates = _random_candidates(rng, 14)
        featurizer = featurizer_cls()
        batched = featurizer.featurize_many(candidates, shrunk, reference)
        loop = np.vstack(
            [featurizer.featurize(c, shrunk, reference) for c in candidates]
        )
        np.testing.assert_allclose(batched, loop, rtol=0, atol=1e-9)

    def test_parity_after_mutation(self):
        """Caches (snapshot, neighbor sets, maximality memo) must not
        leak stale values across graph mutations."""
        rng = np.random.default_rng(7)
        graph = _random_graph(rng, 12, edge_prob=0.5)
        candidates = _random_candidates(rng, 12, allow_unknown=False)
        featurizer = CliqueFeaturizer()
        featurizer.featurize_many(candidates, graph)  # warm every cache
        u, v = next(iter(graph.edges()))
        graph.decrement_edge(u, v, graph.weight(u, v))  # structural change
        batched = featurizer.featurize_many(candidates, graph)
        loop = np.vstack(
            [featurizer.featurize(c, graph) for c in candidates]
        )
        np.testing.assert_allclose(batched, loop, rtol=0, atol=1e-9)


class TestEngineDefault:
    def test_incremental_is_default(self):
        assert MARIOH().engine == "incremental"

    @pytest.mark.parametrize("seed", [0, 3])
    def test_default_engine_matches_rescan(self, seed):
        hypergraph = random_hypergraph(seed=seed, n_nodes=18, n_edges=32)
        source, target = split_source_target(hypergraph, seed=0)
        target_graph = project(target)
        default = MARIOH(seed=seed, max_epochs=30)
        rescan = MARIOH(seed=seed, max_epochs=30, engine="rescan")
        result_default = default.fit_reconstruct(source, target_graph)
        result_rescan = rescan.fit_reconstruct(source, target_graph)
        assert result_default == result_rescan
        assert default.n_iterations_ == rescan.n_iterations_

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_property_cached_incremental_is_byte_identical_to_rescan(
        self, seed
    ):
        """The feature-row cache + pool + in-place CSR patching must not
        change a single conversion: both engines' reconstructions (and
        their full provenance traces) coincide at any fixed seed."""
        hypergraph = random_hypergraph(
            seed=seed % 100, n_nodes=14, n_edges=24
        )
        source, target = split_source_target(hypergraph, seed=0)
        target_graph = project(target)
        incremental = MARIOH(
            seed=seed, max_epochs=10, record_provenance=True
        )
        rescan = MARIOH(
            seed=seed, max_epochs=10, engine="rescan", record_provenance=True
        )
        result_incremental = incremental.fit_reconstruct(source, target_graph)
        result_rescan = rescan.fit_reconstruct(source, target_graph)
        assert result_incremental == result_rescan
        assert incremental.provenance_ == rescan.provenance_

    def test_cache_participates_at_fixed_seed(self):
        """Deterministic companion to the property test: at this seed
        the loop is long enough that the feature-row cache must serve a
        nonzero share of lookups."""
        hypergraph = random_hypergraph(seed=7, n_nodes=18, n_edges=32)
        source, target = split_source_target(hypergraph, seed=0)
        model = MARIOH(seed=0, max_epochs=10)
        model.fit_reconstruct(source, project(target))
        stats = model.classifier.featurizer.row_cache_stats()
        assert stats["hits"] > 0, stats

    def test_eu_reconstruction_patches_in_place_and_reuses_rows(self):
        """On the eu analogue at seed 0, in-place CSR patching serves
        nearly every snapshot mutation (rebuilds only at compaction
        boundaries) and the feature-row cache serves a real share of
        the loop's lookups.  Measured: weight patches 1.0, structural
        patches 0.991, row cache 0.438."""
        bundle = load("eu", seed=0)
        model = MARIOH(seed=0)
        model.fit(bundle.source_hypergraph)
        featurizer = model.classifier.featurizer
        featurizer.reset_row_cache()  # count the loop's lookups only
        model.reconstruct(bundle.target_graph)
        assert model.n_iterations_ > 0

        patches = model.snapshot_patch_stats_
        weight = patches["weight_hits"] + patches["weight_misses"]
        assert patches["weight_hits"] / weight > 0.9, patches
        structural = (
            patches["structural_hits"] + patches["structural_misses"]
        )
        assert patches["structural_hits"] / structural >= 0.9, patches
        rows = featurizer.row_cache_stats()
        assert rows["hits"] > 0, rows
        assert rows["hit_rate"] > 0.25, rows
