"""Feature-row cache: invalidation edge cases and byte-identity.

The cache (``repro.core.features._RowCachedFeaturizer``) memoizes
feature rows per clique and drops the rows through every node a graph
reports as touched since the previous call (plus every row when a
structure stamp moves).  These tests pin the invalidation rule:

- mutations touching *no* member of a cached candidate keep its row
  valid (and the served row equals a fresh computation bit-for-bit);
- mutations touching any member force a recomputation;
- MotifFeaturizer's two-hop clustering columns additionally invalidate
  on *structural* changes anywhere in the graph - the case a pure
  member-touch key would get wrong;
- after arbitrary mutation/eviction sequences, cached and uncached
  featurization agree exactly (byte-identical, not just approximately).
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.shyre import MotifFeaturizer
from repro.core.features import CliqueFeaturizer, StructuralFeaturizer
from repro.hypergraph.graph import WeightedGraph

FEATURIZERS = [CliqueFeaturizer, StructuralFeaturizer, MotifFeaturizer]


def _two_component_graph():
    """A K4 on {0..3} (weights 2) plus a disjoint K3 on {10..12}."""
    graph = WeightedGraph()
    for u, v in combinations(range(4), 2):
        graph.add_edge(u, v, 2)
    for u, v in combinations(range(10, 13), 2):
        graph.add_edge(u, v, 3)
    return graph


class TestCacheServesAndInvalidates:
    @pytest.mark.parametrize("featurizer_cls", FEATURIZERS)
    def test_repeat_call_hits_and_is_identical(self, featurizer_cls):
        graph = _two_component_graph()
        candidates = [frozenset({0, 1, 2}), frozenset({10, 11})]
        featurizer = featurizer_cls()
        first = featurizer.featurize_many(candidates, graph)
        assert featurizer.row_cache_misses == len(candidates)
        second = featurizer.featurize_many(candidates, graph)
        assert featurizer.row_cache_hits == len(candidates)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("featurizer_cls", FEATURIZERS)
    def test_mutation_touching_zero_cached_candidates(self, featurizer_cls):
        """Removing a clique's weight in one component must not evict
        (nor corrupt) rows cached for the other component."""
        graph = _two_component_graph()
        candidates = [frozenset({10, 11, 12}), frozenset({10, 12})]
        featurizer = featurizer_cls()
        featurizer.featurize_many(candidates, graph)
        # Convert the {0,1,2} clique: weight-only decrements, no member
        # of any cached candidate is touched.
        graph.decrement_clique([0, 1, 2])
        hits_before = featurizer.row_cache_hits
        served = featurizer.featurize_many(candidates, graph)
        assert featurizer.row_cache_hits == hits_before + len(candidates)
        fresh = featurizer_cls().featurize_many(candidates, graph)
        np.testing.assert_array_equal(served, fresh)

    def test_structural_removal_in_other_component_keeps_weight_rows(self):
        """An edge *vanishing* far away must not invalidate a
        CliqueFeaturizer row (1-hop features), and the served row must
        equal a fresh computation."""
        graph = _two_component_graph()
        candidate = [frozenset({10, 11, 12})]
        featurizer = CliqueFeaturizer()
        featurizer.featurize_many(candidate, graph)
        graph.remove_edge(0, 1)  # structural, other component
        served = featurizer.featurize_many(candidate, graph)
        assert featurizer.row_cache_hits == 1
        np.testing.assert_array_equal(
            served, CliqueFeaturizer().featurize_many(candidate, graph)
        )

    @pytest.mark.parametrize("featurizer_cls", FEATURIZERS)
    def test_touched_member_forces_recompute(self, featurizer_cls):
        graph = _two_component_graph()
        candidate = [frozenset({0, 1, 2})]
        featurizer = featurizer_cls()
        before = featurizer.featurize_many(candidate, graph)
        graph.decrement_edge(0, 1)  # weight-only, touches members 0, 1
        after = featurizer.featurize_many(candidate, graph)
        assert featurizer.row_cache_hits == 0
        assert featurizer.row_cache_misses == 2
        fresh = featurizer_cls().featurize_many(candidate, graph)
        np.testing.assert_array_equal(after, fresh)
        if featurizer_cls is CliqueFeaturizer:
            # Weighted features must actually have moved.
            assert not np.array_equal(before, after)

    def test_overlapping_cliques_sharing_all_nodes(self):
        """Candidates over the same node set share every stamp: one
        touch invalidates all of them together, none is served stale."""
        graph = _two_component_graph()
        candidates = [
            frozenset({0, 1, 2}),
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
        ]
        featurizer = CliqueFeaturizer()
        featurizer.featurize_many(candidates, graph)
        graph.decrement_edge(1, 2)
        served = featurizer.featurize_many(candidates, graph)
        # Candidate {0, 1} contains touched node 1 -> recomputed too.
        assert featurizer.row_cache_hits == 0
        np.testing.assert_array_equal(
            served, CliqueFeaturizer().featurize_many(candidates, graph)
        )

    def test_motif_two_hop_structural_invalidation(self):
        """An edge appearing between two *neighbors* of a member changes
        that member's clustering coefficient without touching it: the
        motif cache must recompute even though no candidate member was
        touched (the case a pure member-touch key would serve stale)."""
        graph = WeightedGraph()
        # Members 0, 1; node 0 is also adjacent to 2 and 3.
        for u, v in [(0, 1), (0, 2), (0, 3)]:
            graph.add_edge(u, v)
        candidate = [frozenset({0, 1})]
        featurizer = MotifFeaturizer()
        before = featurizer.featurize_many(candidate, graph)
        graph.add_edge(2, 3)  # structural change not incident to 0 or 1
        after = featurizer.featurize_many(candidate, graph)
        fresh = MotifFeaturizer().featurize_many(candidate, graph)
        np.testing.assert_array_equal(after, fresh)
        # Clustering of node 0 went from 0 to 1/3: a stale row differs.
        assert not np.array_equal(before, after)

    def test_cache_scoped_per_graph_pair(self):
        graph_a = _two_component_graph()
        graph_b = _two_component_graph()
        graph_b.decrement_edge(0, 1)
        candidate = [frozenset({0, 1, 2})]
        featurizer = CliqueFeaturizer()
        rows_a = featurizer.featurize_many(candidate, graph_a)
        rows_b = featurizer.featurize_many(candidate, graph_b)
        assert featurizer.row_cache_hits == 0  # scope switch, no reuse
        assert not np.array_equal(rows_a, rows_b)
        np.testing.assert_array_equal(
            rows_b, CliqueFeaturizer().featurize_many(candidate, graph_b)
        )

    def test_non_frozenset_candidates_bypass_cache(self):
        graph = _two_component_graph()
        featurizer = CliqueFeaturizer()
        rows = featurizer.featurize_many([(0, 1, 2), [10, 11]], graph)
        assert featurizer.row_cache_hits == 0
        assert len(featurizer._row_cache) == 0
        assert rows.shape == (2, CliqueFeaturizer.n_features)


class TestDistinctReference:
    @pytest.mark.parametrize("featurizer_cls", FEATURIZERS)
    def test_reference_touches_recompute_exactly_their_rows(
        self, featurizer_cls
    ):
        """Mutating a distinct reference graph between calls recomputes
        the rows through its touched nodes, and only those."""
        graph = _two_component_graph()
        reference = _two_component_graph()
        candidates = [
            frozenset({0, 1, 2}),
            frozenset({2, 3}),
            frozenset({0, 3}),
            frozenset({10, 11, 12}),
            frozenset({11, 12}),
        ]
        featurizer = featurizer_cls()
        featurizer.featurize_many(candidates, graph, reference)
        misses = featurizer.row_cache_misses
        reference.remove_edge(2, 3)  # touches reference nodes 2 and 3
        served = featurizer.featurize_many(candidates, graph, reference)
        through_touched = [c for c in candidates if c & {2, 3}]
        assert featurizer.row_cache_misses - misses == len(through_touched)
        assert featurizer.row_cache_hits == len(candidates) - len(
            through_touched
        )
        np.testing.assert_array_equal(
            served,
            featurizer_cls().featurize_many(candidates, graph, reference),
        )


class TestEviction:
    def test_eviction_bounds_entries_and_keeps_correctness(self):
        graph = WeightedGraph()
        for u, v in combinations(range(10), 2):
            graph.add_edge(u, v, 2)
        candidates = [
            frozenset(pair) for pair in combinations(range(10), 2)
        ]  # 45 candidates
        featurizer = CliqueFeaturizer()
        featurizer.row_cache_limit = 16
        served = featurizer.featurize_many(candidates, graph)
        assert len(featurizer._row_cache) <= 16
        np.testing.assert_array_equal(
            served, CliqueFeaturizer().featurize_many(candidates, graph)
        )
        # Evicted rows recompute correctly on the next pass.
        again = featurizer.featurize_many(candidates, graph)
        np.testing.assert_array_equal(served, again)

    def test_reset_clears_entries_and_counters(self):
        graph = _two_component_graph()
        featurizer = CliqueFeaturizer()
        featurizer.featurize_many([frozenset({0, 1})], graph)
        featurizer.featurize_many([frozenset({0, 1})], graph)
        assert featurizer.row_cache_hits == 1
        featurizer.reset_row_cache()
        stats = featurizer.row_cache_stats()
        assert stats == {
            "hits": 0,
            "misses": 0,
            "entries": 0,
            "hit_rate": 0.0,
        }


class TestCachedEqualsUncachedProperty:
    @pytest.mark.parametrize("featurizer_cls", FEATURIZERS)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_fifty_random_mutation_eviction_rounds(
        self, featurizer_cls, seed
    ):
        """Cached featurization stays byte-identical to a cache-less
        featurizer across 50 rounds of random weight decrements, edge
        removals/additions, and forced evictions."""
        rng = np.random.default_rng(seed)
        graph = WeightedGraph()
        n = 10
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.5:
                graph.add_edge(u, v, int(rng.integers(1, 5)))
        candidates = []
        for _ in range(15):
            k = int(rng.integers(2, 5))
            members = rng.choice(n, size=k, replace=False)
            candidates.append(frozenset(int(u) for u in members))
        cached = featurizer_cls()
        cached.row_cache_limit = 10  # force frequent evictions
        for _ in range(50):
            served = cached.featurize_many(candidates, graph)
            fresh = featurizer_cls().featurize_many(candidates, graph)
            np.testing.assert_array_equal(served, fresh)
            op = int(rng.integers(0, 3))
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            if op == 0 and graph.weight(u, v) > 1:
                graph.decrement_edge(u, v)  # weight-only
            elif op == 1 and graph.has_edge(u, v):
                graph.remove_edge(u, v)  # structural
            else:
                graph.add_edge(u, v, int(rng.integers(1, 3)))
        assert cached.row_cache_hits > 0  # the cache did participate
