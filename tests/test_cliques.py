"""Unit tests for maximal-clique enumeration."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pool import CliqueCandidatePool
from repro.hypergraph.cliques import (
    cliques_containing_edge,
    is_clique,
    is_maximal_clique,
    maximal_cliques,
    maximal_cliques_list,
    maximal_cliques_through,
)
from repro.hypergraph.graph import WeightedGraph


def brute_force_maximal_cliques(graph):
    """Reference implementation by subset enumeration (small graphs only)."""
    nodes = sorted(graph.nodes)
    cliques = []
    for size in range(2, len(nodes) + 1):
        for combo in combinations(nodes, size):
            if is_clique(graph, combo):
                cliques.append(frozenset(combo))
    return {
        c
        for c in cliques
        if not any(c < other for other in cliques)
    }


class TestIsClique:
    def test_triangle(self, triangle_graph):
        assert is_clique(triangle_graph, [0, 1, 2])

    def test_missing_edge(self, triangle_graph):
        triangle_graph.add_edge(2, 3)
        assert not is_clique(triangle_graph, [0, 1, 3])

    def test_single_edge_is_clique(self, triangle_graph):
        assert is_clique(triangle_graph, [0, 1])

    def test_duplicate_nodes_collapse(self, triangle_graph):
        assert is_clique(triangle_graph, [0, 1, 1, 0])


class TestMaximalCliques:
    def test_triangle_is_single_maximal(self, triangle_graph):
        assert list(maximal_cliques(triangle_graph)) == [frozenset({0, 1, 2})]

    def test_isolated_edge(self):
        graph = WeightedGraph()
        graph.add_edge(5, 9)
        assert list(maximal_cliques(graph)) == [frozenset({5, 9})]

    def test_empty_graph_yields_nothing(self):
        graph = WeightedGraph(nodes=[1, 2, 3])
        assert list(maximal_cliques(graph)) == []

    def test_two_triangles_sharing_node(self):
        graph = WeightedGraph()
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]:
            graph.add_edge(u, v)
        found = set(maximal_cliques(graph))
        assert found == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}

    def test_k4_with_pendant(self):
        graph = WeightedGraph()
        for u, v in combinations(range(4), 2):
            graph.add_edge(u, v)
        graph.add_edge(3, 4)
        found = set(maximal_cliques(graph))
        assert found == {frozenset({0, 1, 2, 3}), frozenset({3, 4})}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_brute_force_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        graph = WeightedGraph()
        n = 10
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.35:
                graph.add_edge(u, v)
        assert set(maximal_cliques(graph)) == brute_force_maximal_cliques(graph)

    def test_list_variant_is_sorted_and_deterministic(self, paper_figure3_graph):
        first = maximal_cliques_list(paper_figure3_graph)
        second = maximal_cliques_list(paper_figure3_graph)
        assert first == second
        sizes = [len(c) for c in first]
        assert sizes == sorted(sizes)

    def test_no_clique_is_subset_of_another(self, paper_figure3_graph):
        cliques = maximal_cliques_list(paper_figure3_graph)
        for a in cliques:
            for b in cliques:
                assert not (a < b)

    def test_every_edge_covered_by_some_maximal_clique(self, paper_figure3_graph):
        cliques = maximal_cliques_list(paper_figure3_graph)
        for u, v in paper_figure3_graph.edges():
            assert any(u in c and v in c for c in cliques)


@st.composite
def block_unions(draw):
    """A disjoint union of complete blocks of 2-6 nodes, complete blocks
    missing one edge, G(n, 0.5) blocks and isolated nodes - at most 13
    nodes, so the brute-force oracle stays cheap - under a random
    relabeling, so a block's nodes need not be consecutive."""
    blocks = []
    total = 0
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(
            st.sampled_from(["complete", "missing-edge", "random", "isolated"])
        )
        size = 1 if kind == "isolated" else draw(st.integers(2, 6))
        if total + size > 13:
            break
        pairs = list(combinations(range(total, total + size), 2))
        if kind == "missing-edge":
            pairs.remove(draw(st.sampled_from(pairs)))
        elif kind == "random":
            pairs = [pair for pair in pairs if draw(st.booleans())]
        blocks.append(pairs)
        total += size
    label = draw(st.permutations(range(total)))
    graph = WeightedGraph(nodes=label)
    for pairs in blocks:
        for u, v in pairs:
            graph.add_edge(label[u], label[v], draw(st.integers(1, 3)))
    return graph


class TestMaximalCliquesOracle:
    @given(block_unions())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, graph):
        found = list(maximal_cliques(graph))
        assert len(found) == len(set(found))
        assert set(found) == brute_force_maximal_cliques(graph)
        assert CliqueCandidatePool(graph).matches_rescan()


class TestIsMaximalClique:
    def test_maximal(self, triangle_graph):
        assert is_maximal_clique(triangle_graph, [0, 1, 2])

    def test_subclique_is_not_maximal(self, triangle_graph):
        assert not is_maximal_clique(triangle_graph, [0, 1])

    def test_non_clique_is_not_maximal(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        assert not is_maximal_clique(graph, [0, 1, 2])


class TestCliquesContainingEdge:
    def test_edge_without_common_neighbors(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1)
        assert list(cliques_containing_edge(graph, 0, 1)) == [frozenset({0, 1})]

    def test_edge_in_triangle(self, triangle_graph):
        found = set(cliques_containing_edge(triangle_graph, 0, 1))
        assert found == {frozenset({0, 1, 2})}

    def test_missing_edge_yields_nothing(self, triangle_graph):
        triangle_graph.remove_edge(0, 1)
        assert list(cliques_containing_edge(triangle_graph, 0, 1)) == []


@st.composite
def graphs_and_anchors(draw):
    """A random graph on up to 12 nodes and a random anchor set (which
    may name isolated or absent nodes)."""
    n = draw(st.integers(min_value=1, max_value=12))
    graph = WeightedGraph(nodes=range(n))
    for u, v in combinations(range(n), 2):
        if draw(st.booleans()):
            graph.add_edge(u, v, draw(st.integers(min_value=1, max_value=3)))
    anchors = draw(st.sets(st.integers(min_value=0, max_value=n + 1)))
    return graph, anchors


class TestMaximalCliquesThrough:
    @given(graphs_and_anchors())
    @settings(max_examples=60, deadline=None)
    def test_each_anchored_maximal_clique_exactly_once(self, case):
        graph, anchors = case
        found = list(maximal_cliques_through(graph, anchors))
        expected = {c for c in maximal_cliques(graph) if c & anchors}
        assert len(found) == len(set(found))
        assert set(found) == expected

    def test_clique_reported_at_its_smallest_anchor_only(self):
        graph = WeightedGraph()
        for u, v in combinations(range(4), 2):
            graph.add_edge(u, v)
        graph.add_edge(3, 4)
        found = list(maximal_cliques_through(graph, [3, 0, 4]))
        assert sorted(found, key=sorted) == [
            frozenset({0, 1, 2, 3}),
            frozenset({3, 4}),
        ]

    def test_isolated_and_unknown_anchors_yield_nothing(self):
        graph = WeightedGraph(nodes=[0, 1, 2])
        graph.add_edge(1, 2)
        assert list(maximal_cliques_through(graph, [0, 7])) == []

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_pool_matches_rescan_after_removal_sequences(self, seed):
        """The pool's anchored maintenance, after every step of a random
        removal sequence, equals a fresh enumeration."""
        rng = np.random.default_rng(seed)
        graph = WeightedGraph()
        for u, v in combinations(range(12), 2):
            if rng.random() < 0.5:
                graph.add_edge(u, v, int(rng.integers(1, 3)))
        pool = CliqueCandidatePool(graph)
        edges = list(graph.edges())
        rng.shuffle(edges)
        for start in range(0, len(edges), 3):
            vanished = []
            for u, v in edges[start : start + 3]:
                if graph.decrement_edge(u, v, graph.weight(u, v)) == 0:
                    vanished.append((u, v))
            pool.notify_edges_removed(vanished)
            assert pool.matches_rescan()
            assert pool.check_invariants() is None
