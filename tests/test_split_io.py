"""Unit tests for source/target splitting and text IO."""

import pytest

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.io import (
    hypergraph_to_string,
    read_hypergraph,
    read_weighted_graph,
    write_hypergraph,
    write_weighted_graph,
)
from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.split import split_source_target, subsample_supervision
from tests.conftest import random_hypergraph


class TestSplit:
    def test_halves_partition_the_multiset(self):
        hypergraph = random_hypergraph(seed=3)
        source, target = split_source_target(hypergraph, seed=0)
        total = (
            source.num_edges_with_multiplicity
            + target.num_edges_with_multiplicity
        )
        assert total == hypergraph.num_edges_with_multiplicity

    def test_both_halves_nonempty(self):
        hypergraph = Hypergraph(edges=[[0, 1], [1, 2]])
        source, target = split_source_target(hypergraph, seed=0)
        assert source.num_edges_with_multiplicity == 1
        assert target.num_edges_with_multiplicity == 1

    def test_node_universe_shared(self):
        hypergraph = random_hypergraph(seed=5)
        source, target = split_source_target(hypergraph, seed=0)
        assert source.nodes == hypergraph.nodes
        assert target.nodes == hypergraph.nodes

    def test_timestamp_split_orders_by_time(self):
        hypergraph = Hypergraph(edges=[[0, 1], [1, 2], [2, 3], [3, 4]])
        timestamps = {
            frozenset({0, 1}): 0,
            frozenset({1, 2}): 1,
            frozenset({2, 3}): 2,
            frozenset({3, 4}): 3,
        }
        source, target = split_source_target(hypergraph, timestamps=timestamps)
        assert frozenset({0, 1}) in source
        assert frozenset({1, 2}) in source
        assert frozenset({2, 3}) in target
        assert frozenset({3, 4}) in target

    def test_random_split_is_seeded(self):
        hypergraph = random_hypergraph(seed=7)
        a = split_source_target(hypergraph, seed=42)
        b = split_source_target(hypergraph, seed=42)
        assert a[0] == b[0] and a[1] == b[1]

    def test_source_fraction(self):
        hypergraph = random_hypergraph(seed=9, n_edges=40)
        source, _ = split_source_target(hypergraph, seed=0, source_fraction=0.25)
        assert source.num_edges_with_multiplicity == 10

    def test_invalid_fraction_raises(self):
        hypergraph = random_hypergraph(seed=1)
        with pytest.raises(ValueError):
            split_source_target(hypergraph, source_fraction=1.0)

    def test_empty_hypergraph_raises(self):
        with pytest.raises(ValueError):
            split_source_target(Hypergraph())


class TestSubsampleSupervision:
    def test_full_fraction_copies(self):
        hypergraph = random_hypergraph(seed=2)
        sub = subsample_supervision(hypergraph, 1.0)
        assert sub == hypergraph
        sub.add([0, 1, 2, 3, 4])
        assert sub != hypergraph  # copy, not alias

    def test_fraction_reduces_instances(self):
        hypergraph = random_hypergraph(seed=2, n_edges=50)
        sub = subsample_supervision(hypergraph, 0.2, seed=0)
        assert sub.num_edges_with_multiplicity == 10

    def test_invalid_fraction(self):
        hypergraph = random_hypergraph(seed=2)
        with pytest.raises(ValueError):
            subsample_supervision(hypergraph, 0.0)


class TestHypergraphIO:
    def test_round_trip(self, tmp_path, small_hypergraph):
        path = tmp_path / "hg.txt"
        write_hypergraph(small_hypergraph, path)
        loaded = read_hypergraph(path)
        assert set(loaded.edges()) == set(small_hypergraph.edges())
        assert loaded.multiplicity([3, 4, 5]) == 2

    def test_multiplicity_annotation_format(self, small_hypergraph):
        text = hypergraph_to_string(small_hypergraph)
        assert "3 4 5 # m=2" in text
        assert "0 1 2\n" in text

    def test_read_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "hg.txt"
        path.write_text("# header\n\n1 2\n3 4 5\n")
        loaded = read_hypergraph(path)
        assert loaded.num_unique_edges == 2

    def test_read_rejects_bad_multiplicity(self, tmp_path):
        path = tmp_path / "hg.txt"
        path.write_text("1 2 # m=abc\n")
        with pytest.raises(ValueError):
            read_hypergraph(path)

    def test_read_rejects_singleton_line(self, tmp_path):
        path = tmp_path / "hg.txt"
        path.write_text("7\n")
        with pytest.raises(ValueError):
            read_hypergraph(path)


class TestGraphIO:
    def test_round_trip_with_isolates(self, tmp_path):
        graph = WeightedGraph(nodes=[9])
        graph.add_edge(0, 1, 3)
        graph.add_edge(1, 2)
        path = tmp_path / "g.txt"
        write_weighted_graph(graph, path)
        loaded = read_weighted_graph(path)
        assert loaded == graph

    def test_default_weight_is_one(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n")
        loaded = read_weighted_graph(path)
        assert loaded.weight(1, 2) == 1

    def test_bad_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2 3 4\n")
        with pytest.raises(ValueError):
            read_weighted_graph(path)

    @pytest.mark.parametrize(
        "bad", ["3 3 1", "1 2 0", "1 2 3 4", "1 x 2"],
        ids=["self-loop", "zero-weight", "four-tokens", "non-integer"],
    )
    def test_bad_line_is_named(self, tmp_path, bad):
        path = tmp_path / "g.txt"
        path.write_text(f"0 1 2\n# note\n{bad}\n5 6\n")
        with pytest.raises(ValueError, match=f":3: bad line '{bad}'"):
            read_weighted_graph(path)

    def test_adjacency_order_of_a_line_by_line_replay(self, tmp_path):
        """An isolate line before the node's edges places its row where
        an add_node / add_edge replay of the file would."""
        lines = ["3 4", "5", "1 5 2", "5 9", "7", "4 3 1"]
        path = tmp_path / "g.txt"
        path.write_text("\n".join(lines) + "\n")
        replay = WeightedGraph()
        for line in lines:
            tokens = [int(token) for token in line.split()]
            if len(tokens) == 1:
                replay.add_node(tokens[0])
            else:
                replay.add_edge(*tokens)
        loaded = read_weighted_graph(path)
        assert [(u, list(row.items())) for u, row in loaded._adj.items()] == [
            (u, list(row.items())) for u, row in replay._adj.items()
        ]
        assert list(loaded.edges_with_weights()) == [
            (3, 4, 2), (5, 9, 1), (1, 5, 2)
        ]
