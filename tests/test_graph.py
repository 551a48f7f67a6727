"""Unit tests for the WeightedGraph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph.graph import WeightedGraph, connected_components


class TestMutation:
    def test_add_edge_creates_nodes(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2, 3)
        assert graph.nodes == frozenset({1, 2})
        assert graph.weight(1, 2) == 3

    def test_add_edge_accumulates(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 1, 4)
        assert graph.weight(1, 2) == 5

    def test_rejects_self_loop(self):
        graph = WeightedGraph()
        with pytest.raises(ValueError):
            graph.add_edge(1, 1)

    def test_rejects_nonpositive_weight_increment(self):
        graph = WeightedGraph()
        with pytest.raises(ValueError):
            graph.add_edge(1, 2, 0)

    def test_set_weight_overwrites(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2, 5)
        graph.set_weight(1, 2, 2)
        assert graph.weight(1, 2) == 2

    def test_set_weight_zero_removes(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2)
        graph.set_weight(1, 2, 0)
        assert not graph.has_edge(1, 2)

    @pytest.mark.parametrize("weight", [2, 0])
    def test_set_weight_rejects_self_loop(self, weight):
        graph = WeightedGraph()
        graph.add_edge(1, 3)
        version = graph.version
        with pytest.raises(ValueError, match="self-loops"):
            graph.set_weight(3, 3, weight)
        assert list(graph.edges_with_weights()) == [(1, 3, 1)]
        assert graph.num_edges == 1
        assert graph.weighted_degree(3) == graph.total_weight() == 1
        assert graph.version == version

    def test_decrement_edge(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2, 3)
        remaining = graph.decrement_edge(1, 2)
        assert remaining == 2
        assert graph.weight(1, 2) == 2

    def test_decrement_to_zero_removes_edge(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2)
        graph.decrement_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert graph.weight(1, 2) == 0

    def test_decrement_missing_edge_raises(self):
        graph = WeightedGraph()
        with pytest.raises(KeyError):
            graph.decrement_edge(1, 2)

    def test_over_decrement_raises(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2, 2)
        with pytest.raises(ValueError):
            graph.decrement_edge(1, 2, 3)

    def test_remove_edge_is_idempotent(self):
        graph = WeightedGraph()
        graph.add_edge(1, 2)
        graph.remove_edge(1, 2)
        graph.remove_edge(1, 2)
        assert graph.num_edges == 0


class TestInspection:
    def test_counts(self, triangle_graph):
        assert triangle_graph.num_nodes == 3
        assert triangle_graph.num_edges == 3

    def test_degree_vs_weighted_degree(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 5)
        graph.add_edge(0, 2, 1)
        assert graph.degree(0) == 2
        assert graph.weighted_degree(0) == 6

    def test_edges_yields_each_once(self, triangle_graph):
        assert sorted(triangle_graph.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_edges_with_weights(self):
        graph = WeightedGraph()
        graph.add_edge(2, 1, 7)
        assert list(graph.edges_with_weights()) == [(1, 2, 7)]

    def test_total_weight(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2)
        graph.add_edge(1, 2, 3)
        assert graph.total_weight() == 5

    def test_common_neighbors(self, triangle_graph):
        assert triangle_graph.common_neighbors(0, 1) == {2}
        triangle_graph.add_edge(0, 3)
        triangle_graph.add_edge(1, 3)
        assert triangle_graph.common_neighbors(0, 1) == {2, 3}

    def test_is_empty(self):
        graph = WeightedGraph(nodes=[1, 2])
        assert graph.is_empty()
        graph.add_edge(1, 2)
        assert not graph.is_empty()
        graph.decrement_edge(1, 2)
        assert graph.is_empty()

    def test_neighbor_weights_view(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 4)
        assert graph.neighbor_weights(0) == {1: 4}
        assert graph.neighbor_weights(42) == {}


class TestSubgraphCopy:
    def test_subgraph_preserves_weights(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2)
        graph.add_edge(1, 2, 3)
        graph.add_edge(2, 3, 4)
        sub = graph.subgraph([0, 1, 2])
        assert sub.weight(0, 1) == 2
        assert sub.weight(1, 2) == 3
        assert not sub.has_edge(2, 3)
        assert sub.nodes == frozenset({0, 1, 2})

    def test_subgraph_of_unknown_nodes_is_empty(self, triangle_graph):
        sub = triangle_graph.subgraph([10, 11])
        assert sub.num_nodes == 0

    def test_copy_is_deep_for_adjacency(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.decrement_edge(0, 1)
        assert triangle_graph.weight(0, 1) == 1
        assert clone.weight(0, 1) == 0

    def test_equality(self, triangle_graph):
        assert triangle_graph == triangle_graph.copy()
        other = triangle_graph.copy()
        other.add_edge(0, 1)
        assert triangle_graph != other


@st.composite
def triple_lists(draw):
    """``(nodes, triples)`` over a few node ids, so pairs repeat (in both
    orientations) and listed nodes overlap the edges' endpoints."""
    ids = st.integers(min_value=0, max_value=7)
    pairs = st.tuples(ids, ids).filter(lambda pair: pair[0] != pair[1])
    triples = draw(
        st.lists(
            st.tuples(pairs, st.integers(min_value=1, max_value=4)).map(
                lambda item: (*item[0], item[1])
            ),
            max_size=30,
        )
    )
    return draw(st.lists(st.integers(0, 9), max_size=6)), triples


def _snapshot_arrays(graph):
    snapshot = graph.snapshot()
    return {
        name: getattr(snapshot, name)
        for name in ("node_ids", "indptr", "nbr", "wts", "keys", "degrees",
                     "weighted_degrees", "alive")
    }


class TestFromEdges:
    """The bulk constructor builds what an ``add_edge`` loop builds."""

    @given(triple_lists())
    @settings(max_examples=120, deadline=None)
    def test_matches_an_add_edge_loop(self, case):
        nodes, triples = case
        looped = WeightedGraph(nodes=nodes)
        for u, v, w in triples:
            looped.add_edge(u, v, w)
        bulk = WeightedGraph.from_edges(iter(triples), nodes=iter(nodes))
        # Dict order, rows included: it reaches every consumer that
        # walks the adjacency (edges(), the fit's negative sampling).
        assert [(u, list(row.items())) for u, row in bulk._adj.items()] == [
            (u, list(row.items())) for u, row in looped._adj.items()
        ]
        assert list(bulk._weighted_degree.items()) == list(
            looped._weighted_degree.items()
        )
        assert bulk.num_edges == looped.num_edges
        assert bulk.total_weight() == looped.total_weight()
        expected = _snapshot_arrays(looped)
        for name, array in _snapshot_arrays(bulk).items():
            assert np.array_equal(array, expected[name]), name
        # Counters set once, no stamps: the state copy() leaves.
        assert bulk.version == bulk.structure_version == 0
        assert bulk.touched_since(-1) == []
        assert bulk.clique_touch_count(bulk.nodes) == 0

    @pytest.mark.parametrize(
        ("triple", "message"),
        [((3, 3, 1), "self-loops"), ((1, 2, 0), "increments")],
    )
    def test_rejects_what_add_edge_rejects(self, triple, message):
        with pytest.raises(ValueError, match=message):
            WeightedGraph.from_edges([(0, 1, 1), triple])


class TestConnectedComponents:
    def test_members_edge_counts_and_root_order(self):
        graph = WeightedGraph(nodes=[9])
        for u, v in [(5, 1), (1, 3), (7, 8)]:
            graph.add_edge(u, v, 2)
        assert list(connected_components(graph, [8, 9, 3, 7, 5])) == [
            ([7, 8], 1),
            ([9], 0),
            ([1, 3, 5], 2),
        ]


class TestIncrementalInvariants:
    """num_edges / total_weight / weighted_degree / is_empty are O(1)
    counters; they must track any mutation sequence exactly."""

    def _assert_invariants(self, graph):
        assert graph.num_edges == sum(
            1 for _ in graph.edges()
        ), "num_edges diverged"
        assert graph.total_weight() == sum(
            w for _, _, w in graph.edges_with_weights()
        ), "total_weight diverged"
        for node in graph.nodes:
            assert graph.weighted_degree(node) == sum(
                graph.neighbor_weights(node).values()
            ), f"weighted_degree diverged for {node}"
        assert graph.is_empty() == (graph.num_edges == 0)

    def test_random_mutation_sequences(self):
        import numpy as np

        rng = np.random.default_rng(0)
        graph = WeightedGraph()
        for step in range(300):
            op = rng.integers(0, 5)
            u, v = int(rng.integers(0, 12)), int(rng.integers(0, 12))
            if u == v:
                continue
            if op == 0:
                graph.add_edge(u, v, int(rng.integers(1, 4)))
            elif op == 1 and graph.has_edge(u, v):
                graph.decrement_edge(
                    u, v, int(rng.integers(1, graph.weight(u, v) + 1))
                )
            elif op == 2:
                graph.set_weight(u, v, int(rng.integers(0, 4)))
            elif op == 3:
                graph.remove_edge(u, v)
            else:
                graph.add_node(u)
            self._assert_invariants(graph)

    def test_copy_and_subgraph_preserve_invariants(self, paper_figure3_graph):
        clone = paper_figure3_graph.copy()
        self._assert_invariants(clone)
        sub = paper_figure3_graph.subgraph([2, 3, 5, 6, 7])
        self._assert_invariants(sub)
        assert sub.num_edges == 8  # 4-clique {2,3,5,6} (6) plus {5,7}, {6,7}


class TestVersionAndCaches:
    def test_version_bumps_on_mutation(self, triangle_graph):
        before = triangle_graph.version
        triangle_graph.decrement_edge(0, 1)
        assert triangle_graph.version > before

    def test_snapshot_cached_between_mutations(self, triangle_graph):
        first = triangle_graph.snapshot()
        assert triangle_graph.snapshot() is first
        triangle_graph.add_edge(0, 3)
        assert triangle_graph.snapshot() is not first

    def test_neighbor_sets_cached_and_invalidated(self, triangle_graph):
        sets = triangle_graph.neighbor_sets()
        assert sets[0] == {1, 2}
        assert triangle_graph.neighbor_sets() is sets
        triangle_graph.remove_edge(0, 1)
        assert triangle_graph.neighbor_sets()[0] == {2}


class TestTouchVersionsAndPatching:
    """Per-node touch stamps + in-place CSR weight patching."""

    def test_touch_bumps_only_incident_nodes(self, triangle_graph):
        before = {u: triangle_graph.touch_version(u) for u in (0, 1, 2)}
        triangle_graph.decrement_edge(0, 1)
        assert triangle_graph.touch_version(0) > before[0]
        assert triangle_graph.touch_version(1) > before[1]
        assert triangle_graph.touch_version(2) == before[2]

    def test_unknown_node_touch_is_zero(self, triangle_graph):
        assert triangle_graph.touch_version(99) == 0

    def test_clique_touch_stamp_is_member_max(self, triangle_graph):
        triangle_graph.decrement_edge(0, 1)
        stamp = triangle_graph.clique_touch_stamp([0, 1, 2])
        assert stamp == max(
            triangle_graph.touch_version(u) for u in (0, 1, 2)
        )
        assert triangle_graph.clique_touch_stamp([]) == 0

    def test_structure_version_ignores_weight_only_mutations(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 3)
        structural = graph.structure_version
        graph.decrement_edge(0, 1)  # stays positive
        graph.add_edge(0, 1, 2)  # existing edge
        graph.set_weight(0, 1, 5)  # positive -> positive
        assert graph.structure_version == structural
        assert graph.version > 0
        graph.decrement_edge(0, 1, 5)  # vanishes -> structural
        assert graph.structure_version > structural

    def test_weight_only_mutation_patches_snapshot_in_place(self):
        import numpy as np

        graph = WeightedGraph()
        graph.add_edge(0, 1, 3)
        graph.add_edge(1, 2, 2)
        snapshot = graph.snapshot()
        graph.decrement_edge(0, 1)
        assert graph.snapshot() is snapshot  # patched, not rebuilt
        assert snapshot.version == graph.version
        a = snapshot.index_of([0, 1])
        b = snapshot.index_of([1, 2])
        np.testing.assert_array_equal(
            snapshot.pair_weights(a, b), [2.0, 2.0]
        )
        np.testing.assert_array_equal(
            snapshot.weighted_degrees, [2.0, 4.0, 2.0, 0.0]
        )

    def test_vanished_edge_tombstones_snapshot_in_place(self):
        import numpy as np

        graph = WeightedGraph()
        graph.add_edge(0, 1, 1)
        graph.add_edge(1, 2, 2)
        snapshot = graph.snapshot()
        graph.decrement_edge(0, 1)  # hits zero -> edge vanishes
        assert graph.snapshot() is snapshot  # tombstoned, not rebuilt
        assert snapshot.version == graph.version
        assert snapshot.n_tombstones == 2
        assert snapshot.n_live == 2
        a = snapshot.index_of([0, 1])
        b = snapshot.index_of([1, 2])
        np.testing.assert_array_equal(snapshot.pair_weights(a, b), [0.0, 2.0])
        np.testing.assert_array_equal(snapshot.degrees, [0, 1, 1, 0])
        assert graph.snapshot_patch_stats()["structural_hits"] == 1

    def test_new_node_rebuilds_snapshot(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 1)
        snapshot = graph.snapshot()
        graph.add_edge(1, 5, 1)  # node 5 is new: row indices shift
        assert graph._snapshot_cache is None
        assert graph.snapshot() is not snapshot
        # no snapshot existed by the time the edge mutation ran (the
        # node insert dropped it), so nothing is counted as a miss
        assert graph.snapshot_patch_stats()["structural_misses"] == 0

    def test_live_edits_drop_snapshot(self):
        import numpy as np

        graph = WeightedGraph()
        graph.add_edge(0, 1, 1)
        graph.add_edge(1, 2, 2)
        graph.snapshot()
        graph.add_edge(0, 2, 5)  # new edge between known nodes
        assert graph._snapshot_cache is None
        graph.snapshot()
        graph.set_weight(0, 2, 3)  # weight-only edit
        assert graph._snapshot_cache is None
        stats = graph.snapshot_patch_stats()
        assert stats["structural_misses"] == 1
        assert stats["weight_misses"] == 1
        rebuilt = graph.snapshot()
        a = rebuilt.index_of([0, 0])
        b = rebuilt.index_of([2, 1])
        np.testing.assert_array_equal(rebuilt.pair_weights(a, b), [3.0, 1.0])

    def test_tombstone_compaction_threshold_triggers_rebuild(self):
        graph = WeightedGraph()
        for v in range(1, 9):
            graph.add_edge(0, v, 1)
        graph.snapshot_tombstone_min = 3
        graph.snapshot()
        removed = 0
        while graph._snapshot_cache is not None and removed < 8:
            removed += 1
            graph.remove_edge(0, removed)
        assert graph._snapshot_cache is None  # compaction dropped it
        stats = graph.snapshot_patch_stats()
        assert stats["compactions"] == 1
        # tombstones > 3 and > half the used slots when it tripped
        assert stats["structural_hits"] == removed - 1

    def test_weight_only_mutation_keeps_neighbor_sets(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 3)
        sets = graph.neighbor_sets()
        graph.decrement_edge(0, 1)
        assert graph.neighbor_sets() is sets  # structure unchanged

    def test_patched_snapshot_matches_rebuild(self):
        """After any mix of patches, the live snapshot must agree with
        a from-scratch rebuild on every array."""
        import numpy as np

        rng = np.random.default_rng(3)
        graph = WeightedGraph()
        from itertools import combinations

        for u, v in combinations(range(8), 2):
            if rng.random() < 0.5:
                graph.add_edge(u, v, int(rng.integers(2, 6)))
        live = graph.snapshot()
        for u, v in list(graph.edges())[::2]:
            graph.decrement_edge(u, v)  # weights stay positive
        assert graph.snapshot() is live
        rebuilt = graph._build_snapshot()
        np.testing.assert_array_equal(live.wts, rebuilt.wts)
        np.testing.assert_array_equal(live.keys, rebuilt.keys)
        np.testing.assert_array_equal(
            live.weighted_degrees, rebuilt.weighted_degrees
        )

    def test_decrement_clique_returns_vanished_pairs(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2)
        graph.add_edge(0, 2, 1)
        graph.add_edge(1, 2, 3)
        vanished = graph.decrement_clique([0, 1, 2])
        assert vanished == [(0, 2)]
        assert graph.weight(0, 1) == 1
        assert graph.weight(1, 2) == 2
        assert not graph.has_edge(0, 2)

    def test_uids_are_unique(self, triangle_graph):
        assert triangle_graph.uid != triangle_graph.copy().uid
        assert WeightedGraph().uid != WeightedGraph().uid


class TestTouchedSince:
    """``touched_since(v)`` lists exactly the nodes stamped above ``v``."""

    @staticmethod
    def _expected(graph, version):
        return {u for u in graph.nodes if graph.touch_version(u) > version}

    def test_weight_only_change(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 3)
        graph.add_edge(2, 3, 2)
        mark = graph.version
        graph.decrement_edge(0, 1)  # stays positive
        assert set(graph.touched_since(mark)) == {0, 1}
        assert graph.touched_since(graph.version) == []

    def test_structural_change(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 1)
        graph.add_edge(1, 2, 1)
        graph.add_edge(3, 4, 1)
        mark = graph.version
        graph.decrement_edge(1, 2)  # vanishes
        graph.add_edge(0, 2)  # appears
        assert set(graph.touched_since(mark)) == {0, 1, 2}
        assert set(graph.touched_since(mark)) == self._expected(graph, mark)

    def test_add_node(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1)
        mark = graph.version
        graph.add_node(7)
        assert graph.touched_since(mark) == [7]

    def test_node_touched_again_moves_to_newest(self):
        graph = WeightedGraph()
        for u, v in [(0, 1), (2, 3), (4, 5)]:
            graph.add_edge(u, v, 3)
        graph.decrement_edge(0, 1)
        mark = graph.version
        graph.decrement_edge(2, 3)
        graph.decrement_edge(0, 1)  # 0 and 1 again, after 2 and 3
        assert graph.touched_since(mark)[:2] in ([1, 0], [0, 1])
        assert set(graph.touched_since(mark)) == {0, 1, 2, 3}
        middle = graph.touch_version(2)
        assert set(graph.touched_since(middle)) == {0, 1}

    def test_every_version_of_a_random_history(self):
        """After a random mutation mix, including clique decrements,
        every cut-off agrees with a scan of all touch versions."""
        import numpy as np

        rng = np.random.default_rng(5)
        graph = WeightedGraph(nodes=range(10))
        for _ in range(200):
            u, v = (int(x) for x in rng.choice(10, size=2, replace=False))
            op = int(rng.integers(0, 4))
            if op == 0:
                graph.add_edge(u, v, int(rng.integers(1, 3)))
            elif op == 1 and graph.has_edge(u, v):
                graph.decrement_edge(u, v)
            elif op == 2 and graph.has_edge(u, v):
                graph.set_weight(u, v, 0)
            else:
                w = next(iter(graph.common_neighbors(u, v)), None)
                if w is not None and graph.has_edge(u, v):
                    graph.decrement_clique([u, v, w])
        for version in range(graph.version + 1):
            touched = graph.touched_since(version)
            assert len(touched) == len(set(touched))
            assert set(touched) == self._expected(graph, version)

    def test_copy_starts_untouched(self, triangle_graph):
        assert triangle_graph.copy().touched_since(0) == []


class TestSnapshotKernels:
    def test_pair_weights_lookup(self, triangle_graph):
        import numpy as np

        triangle_graph.add_edge(1, 2, 4)  # weight now 5
        snapshot = triangle_graph.snapshot()
        a = snapshot.index_of([0, 1, 0])
        b = snapshot.index_of([1, 2, 99])  # unknown node maps to phantom
        np.testing.assert_array_equal(
            snapshot.pair_weights(a, b), [1.0, 5.0, 0.0]
        )

    def test_snapshot_rows_sorted(self):
        import numpy as np

        graph = WeightedGraph()
        graph.add_edge(5, 1, 2)
        graph.add_edge(5, 3, 7)
        graph.add_edge(1, 3, 1)
        snapshot = graph.snapshot()
        np.testing.assert_array_equal(snapshot.node_ids, [1, 3, 5])
        # built dense: every slot live, keys strictly ascending
        assert snapshot.alive.all()
        assert np.all(np.diff(snapshot.keys) > 0)
        np.testing.assert_array_equal(snapshot.degrees, [2, 2, 2, 0])
        np.testing.assert_array_equal(
            snapshot.weighted_degrees, [3.0, 8.0, 9.0, 0.0]
        )
