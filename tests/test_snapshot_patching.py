"""Randomized fuzz tests for in-place structural CSR snapshot patching.

The cached :class:`~repro.hypergraph.graph.GraphSnapshot` is now patched
in place under structural mutations (tombstone deletes, slack-slot
inserts) instead of being rebuilt.  These tests drive long randomized
mutation sequences and assert after *every* mutation that the patched
snapshot is element-wise identical - through the tombstone/slack-free
:meth:`~repro.hypergraph.graph.GraphSnapshot.compacted_arrays` view - to
a from-scratch rebuild, including across tombstone-compaction boundaries
and the slack-exhaustion fallback.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.hypergraph.graph import WeightedGraph

N_NODES = 12
N_ROUNDS = 100


def _assert_patched_equals_rebuilt(graph):
    """The live cached snapshot must equal a from-scratch rebuild."""
    live = graph.snapshot()
    rebuilt = graph._build_snapshot()
    patched = live.compacted_arrays()
    scratch = rebuilt.compacted_arrays()
    assert set(patched) == set(scratch)
    for key in scratch:
        np.testing.assert_array_equal(
            patched[key], scratch[key], err_msg=f"array {key!r} diverged"
        )
    assert graph.check_snapshot_coherence() is None


def _seed_graph(rng, tiny_slack):
    graph = WeightedGraph(nodes=range(N_NODES))
    if tiny_slack:
        # Per-instance knob overrides: almost no reserved slack and an
        # aggressive compaction threshold, so the fuzz loop crosses the
        # slack-exhaustion fallback and tombstone-compaction boundaries
        # many times instead of staying on the easy patch path.
        graph.snapshot_slack_min = 1
        graph.snapshot_slack_fraction = 0.0
        graph.snapshot_tombstone_min = 2
        graph.snapshot_tombstone_fraction = 0.05
    for _ in range(20):
        u, v = rng.choice(N_NODES, size=2, replace=False)
        graph.add_edge(int(u), int(v), int(rng.integers(1, 5)))
    graph.snapshot()  # warm the cache so mutations have a patch target
    return graph


def _mutate_once(graph, rng):
    """Apply one random insert / delete / reweight / decrement."""
    u, v = (int(x) for x in rng.choice(N_NODES, size=2, replace=False))
    op = int(rng.integers(0, 4))
    if op == 0:
        graph.add_edge(u, v, int(rng.integers(1, 4)))
    elif op == 1 and graph.has_edge(u, v):
        graph.remove_edge(u, v)
    elif op == 2 and graph.has_edge(u, v):
        graph.decrement_edge(u, v)
    else:
        graph.set_weight(u, v, int(rng.integers(1, 6)))


class TestStructuralPatchFuzz:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_100_rounds_patched_matches_rebuild(self, seed):
        """Default slack/compaction knobs: mostly in-place patches."""
        rng = np.random.default_rng(seed)
        graph = _seed_graph(rng, tiny_slack=False)
        for _ in range(N_ROUNDS):
            _mutate_once(graph, rng)
            _assert_patched_equals_rebuilt(graph)
        stats = graph.snapshot_patch_stats()
        # With default slack most structural mutations patch in place
        # (this adversarial mix hammers a 12-node graph; the eu
        # reconstruction test in test_featurizer_parity.py asserts
        # >= 0.9).
        assert stats["structural_hits"] > 0
        total = stats["structural_hits"] + stats["structural_misses"]
        assert stats["structural_hits"] / total >= 0.8, stats

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_100_rounds_across_compaction_and_slack_exhaustion(self, seed):
        """Tiny slack + aggressive compaction: the same element-wise
        equivalence must hold across every rebuild boundary."""
        rng = np.random.default_rng(seed)
        graph = _seed_graph(rng, tiny_slack=True)
        for _ in range(N_ROUNDS):
            _mutate_once(graph, rng)
            _assert_patched_equals_rebuilt(graph)
        stats = graph.snapshot_patch_stats()
        # The boundary regimes must actually have been exercised: both
        # in-place patches and fallback rebuilds occurred, and at least
        # one rebuild came from the tombstone-compaction threshold.
        assert stats["structural_hits"] > 0, stats
        assert stats["structural_misses"] > 0, stats
        assert stats["compactions"] > 0, stats

    def test_interleaved_weight_and_structural_patches(self):
        """Weight patches and structural patches share one snapshot;
        neither may corrupt the other's view."""
        rng = np.random.default_rng(11)
        graph = _seed_graph(rng, tiny_slack=False)
        for round_index in range(60):
            u, v = (
                int(x) for x in rng.choice(N_NODES, size=2, replace=False)
            )
            if round_index % 2 == 0 and graph.has_edge(u, v):
                graph.set_weight(u, v, int(rng.integers(1, 9)))
            else:
                _mutate_once(graph, rng)
            _assert_patched_equals_rebuilt(graph)
        stats = graph.snapshot_patch_stats()
        assert stats["weight_hits"] > 0
        assert stats["structural_hits"] > 0

    def test_delete_then_reinsert_resurrects_tombstone(self):
        """Deleting and re-adding the same pair must land back on the
        tombstoned slot (no slack consumed) and restore the weight."""
        graph = WeightedGraph(nodes=range(4))
        graph.add_edge(0, 1, 3)
        graph.add_edge(1, 2, 2)
        snapshot = graph.snapshot()
        before_free = snapshot.row_free.copy()
        graph.remove_edge(0, 1)
        assert graph.snapshot() is snapshot
        graph.add_edge(0, 1, 5)
        assert graph.snapshot() is snapshot
        np.testing.assert_array_equal(snapshot.row_free, before_free)
        assert snapshot.n_tombstones == 0
        _assert_patched_equals_rebuilt(graph)
        assert graph.weight(0, 1) == 5

    def test_drain_to_empty_and_refill(self):
        """Tombstoning every edge away and refilling stays coherent."""
        graph = WeightedGraph(nodes=range(6))
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
        for u, v in pairs:
            graph.add_edge(u, v, 2)
        graph.snapshot()
        for u, v in pairs:
            graph.remove_edge(u, v)
            _assert_patched_equals_rebuilt(graph)
        assert graph.is_empty()
        for u, v in pairs:
            graph.add_edge(u, v, 1)
            _assert_patched_equals_rebuilt(graph)


CLIQUE_NODES = 16


def _clique_graph(seed):
    """A dense graph with mostly unit weights (so many pairs vanish,
    some cliques past the vectorized tombstone cut-over) and a warm
    snapshot, built identically for every call."""
    rng = np.random.default_rng(seed)
    graph = WeightedGraph(nodes=range(CLIQUE_NODES))
    for u in range(CLIQUE_NODES):
        for v in range(u + 1, CLIQUE_NODES):
            if rng.random() < 0.9:
                graph.add_edge(u, v, int(rng.choice([1, 1, 1, 2, 3])))
    graph.snapshot()
    return graph


def _random_clique(graph, rng):
    """A random clique of 2-8 live nodes, grown greedily."""
    order = [int(u) for u in rng.permutation(CLIQUE_NODES)]
    size = int(rng.integers(2, 9))
    members = []
    for u in order:
        if all(graph.has_edge(u, w) for w in members):
            members.append(u)
            if len(members) == size:
                break
    return members if len(members) >= 2 else None


class TestOnePassDecrement:
    """``decrement_clique`` walks its pairs once and tombstones vanished
    pairs in one snapshot patch; it must leave exactly the state that
    per-pair ``decrement_edge`` calls leave."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_pair_decrements(self, seed):
        one_pass = _clique_graph(seed)
        per_pair = _clique_graph(seed)
        rng = np.random.default_rng(1000 + seed)
        for _ in range(6):
            # Several conversions with no snapshot read between them, so
            # weight patches stay queued when later pairs vanish.
            for _ in range(4):
                members = _random_clique(one_pass, rng)
                if members is None:
                    break
                vanished = one_pass.decrement_clique(members)
                expected = [
                    (u, v)
                    for u, v in combinations(sorted(members), 2)
                    if per_pair.decrement_edge(u, v) == 0
                ]
                assert vanished == expected
            assert one_pass == per_pair
            assert one_pass.version == per_pair.version
            assert one_pass.structure_version == per_pair.structure_version
            for node in range(CLIQUE_NODES):
                assert one_pass.touch_version(node) == per_pair.touch_version(
                    node
                )
                assert one_pass.clique_touch_count(
                    [node]
                ) == per_pair.clique_touch_count([node])
                assert one_pass.weighted_degree(
                    node
                ) == per_pair.weighted_degree(node)
            _assert_patched_equals_rebuilt(one_pass)
            _assert_patched_equals_rebuilt(per_pair)

    def test_failed_pair_leaves_earlier_pairs_decremented(self):
        """The walk stops at a missing pair; what it did before stays
        numbered and patched like per-pair calls."""
        one_pass = WeightedGraph()
        per_pair = WeightedGraph()
        for graph in (one_pass, per_pair):
            for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]:
                graph.add_edge(u, v, 1)
            graph.add_edge(0, 3, 2)
            graph.snapshot()
        with pytest.raises(KeyError):
            one_pass.decrement_clique([0, 1, 2, 3])  # (1, 2) is missing
        for u, v in [(0, 1), (0, 2), (0, 3)]:
            per_pair.decrement_edge(u, v)
        assert one_pass == per_pair
        assert one_pass.version == per_pair.version
        assert one_pass.touched_since(0) == per_pair.touched_since(0)
        for node in range(4):
            assert one_pass.touch_version(node) == per_pair.touch_version(node)
        _assert_patched_equals_rebuilt(one_pass)
