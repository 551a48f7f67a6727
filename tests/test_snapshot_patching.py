"""Randomized fuzz tests for in-place CSR snapshot patching.

Only the decrement path patches the cached
:class:`~repro.hypergraph.graph.GraphSnapshot` in place: a surviving
pair's weight is rewritten and a vanished pair's two slots are
tombstoned.  A live edit (``add_edge`` / ``set_weight``) drops the
snapshot and counts one miss; the next read rebuilds it.  These tests
drive long randomized mutation sequences and assert after *every*
mutation that this rule held and that the snapshot is element-wise
identical - through the tombstone-free
:meth:`~repro.hypergraph.graph.GraphSnapshot.compacted_arrays` view - to
a from-scratch rebuild, including across tombstone-compaction
boundaries.
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


def _seed_graph(rng, eager_compaction):
    graph = WeightedGraph(nodes=range(N_NODES))
    if eager_compaction:
        # Per-instance knob overrides: an aggressive compaction
        # threshold, so the fuzz loop crosses the tombstone-compaction
        # boundary many times instead of staying on the patch path.
        graph.snapshot_tombstone_min = 2
        graph.snapshot_tombstone_fraction = 0.05
    for _ in range(20):
        u, v = rng.choice(N_NODES, size=2, replace=False)
        graph.add_edge(int(u), int(v), int(rng.integers(1, 5)))
    graph.snapshot()  # warm the cache so mutations have a patch target
    return graph


def _mutate_once(graph, rng):
    """Apply one random insert / delete / reweight / decrement to a graph
    holding a snapshot, and assert the snapshot rule for it.

    Returns True for a live edit (``add_edge`` / ``set_weight``).
    """
    snapshot = graph.snapshot()
    before = graph.snapshot_patch_stats()
    u, v = (int(x) for x in rng.choice(N_NODES, size=2, replace=False))
    new_edge = not graph.has_edge(u, v)
    op = int(rng.integers(0, 4))
    live_edit = op in (0, 3) or new_edge
    if op == 0:
        graph.add_edge(u, v, int(rng.integers(1, 4)))
    elif live_edit:
        graph.set_weight(u, v, int(rng.integers(1, 6)))
    elif op == 1:
        graph.remove_edge(u, v)
    else:
        graph.decrement_edge(u, v)
    after = graph.snapshot_patch_stats()
    if live_edit:
        # Dropped, with exactly one miss of the edit's kind counted.
        assert graph._snapshot_cache is None
        before["structural_misses" if new_edge else "weight_misses"] += 1
        assert after == before
    elif after["compactions"] == before["compactions"]:
        assert graph._snapshot_cache is snapshot  # patched in place
        assert after["structural_misses"] == before["structural_misses"]
        assert after["weight_misses"] == before["weight_misses"]
    else:
        assert graph._snapshot_cache is None  # tombstone compaction
    return live_edit


class TestStructuralPatchFuzz:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_100_rounds_patched_matches_rebuild(self, seed):
        """Default compaction knobs: decrements patch in place, live
        edits drop the snapshot."""
        rng = np.random.default_rng(seed)
        graph = _seed_graph(rng, eager_compaction=False)
        live_edits = 0
        for _ in range(N_ROUNDS):
            live_edits += _mutate_once(graph, rng)
            _assert_patched_equals_rebuilt(graph)
        stats = graph.snapshot_patch_stats()
        assert stats["structural_hits"] > 0, stats
        assert stats["weight_hits"] > 0, stats
        # Every rebuild came from a live edit or a compaction.
        misses = stats["structural_misses"] + stats["weight_misses"]
        assert misses == live_edits + stats["compactions"], stats

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_100_rounds_across_compaction(self, seed):
        """Aggressive compaction: the same element-wise equivalence must
        hold across every rebuild boundary."""
        rng = np.random.default_rng(seed)
        graph = _seed_graph(rng, eager_compaction=True)
        for _ in range(N_ROUNDS):
            _mutate_once(graph, rng)
            _assert_patched_equals_rebuilt(graph)
        stats = graph.snapshot_patch_stats()
        # The boundary regime must actually have been exercised: both
        # in-place tombstones and compaction rebuilds occurred.
        assert stats["structural_hits"] > 0, stats
        assert stats["compactions"] > 0, stats

    def test_interleaved_weight_and_structural_patches(self):
        """Weight patches and tombstones share one snapshot; neither may
        corrupt the other's view."""
        rng = np.random.default_rng(11)
        graph = _seed_graph(rng, eager_compaction=False)
        for round_index in range(60):
            u, v = (
                int(x) for x in rng.choice(N_NODES, size=2, replace=False)
            )
            if round_index % 2 == 0 and graph.weight(u, v) > 1:
                snapshot = graph.snapshot()
                graph.decrement_edge(u, v)  # a queued weight patch
                assert graph.snapshot() is snapshot
            else:
                _mutate_once(graph, rng)
            _assert_patched_equals_rebuilt(graph)
        stats = graph.snapshot_patch_stats()
        assert stats["weight_hits"] > 0
        assert stats["structural_hits"] > 0

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
