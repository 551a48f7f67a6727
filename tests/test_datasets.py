"""Unit tests for the dataset generators and registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    DATASETS,
    GroupInteractionConfig,
    available,
    generate_group_hypergraph,
    hypercl,
    load,
)
from repro.datasets.hypercl import hypercl_like
from repro.datasets.synthetic import (
    cumulative_table,
    draw_distinct,
    draw_index,
)
from repro.hypergraph.projection import project


class TestGroupGenerator:
    def _config(self, **overrides):
        base = dict(
            n_nodes=40,
            n_interactions=80,
            size_weights=(4.0, 3.0, 2.0),
            n_communities=5,
        )
        base.update(overrides)
        return GroupInteractionConfig(**base)

    def test_emits_requested_instances(self):
        hypergraph, _, _ = generate_group_hypergraph(self._config(), seed=0)
        assert hypergraph.num_edges_with_multiplicity == 80

    def test_deterministic_with_seed(self):
        a, _, _ = generate_group_hypergraph(self._config(), seed=3)
        b, _, _ = generate_group_hypergraph(self._config(), seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        a, _, _ = generate_group_hypergraph(self._config(), seed=0)
        b, _, _ = generate_group_hypergraph(self._config(), seed=1)
        assert a != b

    def test_repeat_prob_raises_multiplicity(self):
        low, _, _ = generate_group_hypergraph(
            self._config(repeat_prob=0.0), seed=0
        )
        high, _, _ = generate_group_hypergraph(
            self._config(repeat_prob=0.6), seed=0
        )
        avg_low = low.num_edges_with_multiplicity / low.num_unique_edges
        avg_high = high.num_edges_with_multiplicity / high.num_unique_edges
        assert avg_high > avg_low

    def test_labels_cover_all_nodes(self):
        config = self._config()
        _, _, labels = generate_group_hypergraph(config, seed=0)
        assert set(labels) == set(range(config.n_nodes))
        assert set(labels.values()) <= set(range(config.n_communities))

    def test_timestamps_for_every_unique_edge(self):
        hypergraph, timestamps, _ = generate_group_hypergraph(self._config(), seed=0)
        for edge in hypergraph:
            assert edge in timestamps

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            GroupInteractionConfig(n_nodes=2, n_interactions=10).validate()
        with pytest.raises(ValueError):
            GroupInteractionConfig(
                n_nodes=40, n_interactions=10, n_communities=30
            ).validate()
        with pytest.raises(ValueError):
            GroupInteractionConfig(
                n_nodes=40, n_interactions=10, repeat_prob=0.8, nested_prob=0.5
            ).validate()

    def test_hyperedge_sizes_within_configured_range(self):
        config = self._config(size_weights=(1.0, 1.0))
        hypergraph, _, _ = generate_group_hypergraph(config, seed=0)
        # repeat/nested default to 0, so sizes must be 2 or 3.
        assert set(len(e) for e in hypergraph) <= {2, 3}

    @pytest.mark.parametrize(
        "concentration", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_rejects_bad_concentration(self, concentration):
        config = self._config(concentration=concentration)
        with pytest.raises(ValueError, match="concentration"):
            generate_group_hypergraph(config, seed=0)

    @pytest.mark.parametrize(
        "size_weights",
        [(-1.0, 2.0), (), (0.0, 0.0), (float("nan"), 1.0), (float("inf"),)],
    )
    def test_rejects_bad_size_weights(self, size_weights):
        config = self._config(size_weights=size_weights)
        with pytest.raises(ValueError, match="size_weights"):
            generate_group_hypergraph(config, seed=0)

    @pytest.mark.parametrize(
        ("concentration", "seed"),
        [(0.001, seed) for seed in range(5)] + [(0.005, 0)],
    )
    def test_sparse_popularity_generates(self, concentration, seed):
        """A community whose popularity has fewer than k non-zero
        weights cannot give k distinct members; it is skipped like a
        community of fewer than k members."""
        config = GroupInteractionConfig(
            n_nodes=60,
            n_interactions=300,
            n_communities=6,
            concentration=concentration,
        )
        hypergraph, timestamps, _ = generate_group_hypergraph(config, seed)
        assert hypergraph.num_edges_with_multiplicity == 300
        assert all(len(edge) >= 2 for edge in hypergraph)
        assert set(timestamps) == set(hypergraph.edges())


@st.composite
def sparse_weights(draw):
    """Dirichlet weights, some of them exactly zero.

    Small concentrations underflow to zeros of their own; a drawn mask
    zeroes more, and the rest is renormalized so ``choice`` accepts it.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    alpha = draw(st.sampled_from([0.001, 0.05, 0.3, 1.0, 5.0]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    weights = np.random.default_rng(seed).dirichlet(np.full(n, alpha))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    masked = np.where(keep, weights, 0.0)
    if masked.sum() > 0:
        weights = masked / masked.sum()
    return weights


class TestTableDrivenDraws:
    """The generator's draws are ``Generator.choice``'s, number for
    number: same result and the same stream position afterwards."""

    @given(sparse_weights(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_distinct_draw_matches_choice(self, weights, seed):
        cdf = cumulative_table(weights).tolist()
        for k in range(1, int(np.count_nonzero(weights)) + 1):
            expected_rng = np.random.default_rng([seed, k])
            rng = np.random.default_rng([seed, k])
            expected = expected_rng.choice(
                len(weights), size=k, replace=False, p=weights
            )
            assert draw_distinct(rng, weights, cdf, k) == expected.tolist()
            assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_distinct_draw_redraws_the_shortfall(self):
        """One dominant weight: the first round repeats it, so the
        shortfall is redrawn (twice, at this seed)."""
        weights = np.array([0.97, 0.0, 0.01, 0.01, 0.01])
        expected_rng = np.random.default_rng(7)
        rng = np.random.default_rng(7)
        expected = expected_rng.choice(5, size=4, replace=False, p=weights)
        got = draw_distinct(rng, weights, cumulative_table(weights).tolist(), 4)
        assert got == expected.tolist()
        assert sorted(got) == [0, 2, 3, 4]
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(4))
    def test_a_uniform_on_a_table_entry_goes_right(self, seed):
        """``choice`` searches with ``side="right"``: a uniform equal to
        a cumulative entry picks the next index.  Random weights almost
        never meet that tie, so these weights put one there."""
        x = np.random.default_rng(seed).random()
        weights = np.array([x, 1.0 - x])
        cdf = cumulative_table(weights).tolist()
        assert cdf[0] == x
        assert np.random.default_rng(seed).choice(2, p=weights) == 1
        assert draw_index(np.random.default_rng(seed), cdf) == 1
        for k in (1, 2):
            expected = np.random.default_rng(seed).choice(
                2, size=k, replace=False, p=weights
            )
            got = draw_distinct(np.random.default_rng(seed), weights, cdf, k)
            assert got == expected.tolist() and got[0] == 1

    def test_a_redraw_on_a_table_entry_goes_right(self):
        """The same tie in the redraw round: both first uniforms pick
        index 0, and the third lands on the renormalized table's entry
        between indices 1 and 2 (power-of-two scaling keeps it exact)."""
        eps = 2.0**-10
        for seed in range(100):
            x1, x2, x3 = np.random.default_rng(seed).random(3)
            if max(x1, x2) < 1.0 - eps and x3 >= 0.5:
                break
        weights = np.array([1.0 - eps, x3 * eps, (1.0 - x3) * eps])
        expected = np.random.default_rng(seed).choice(
            3, size=2, replace=False, p=weights
        )
        assert expected.tolist() == [0, 2]
        cdf = cumulative_table(weights).tolist()
        assert draw_distinct(
            np.random.default_rng(seed), weights, cdf, 2
        ) == [0, 2]

    @given(sparse_weights(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_index_draw_matches_choice(self, weights, seed):
        sizes = np.arange(2, 2 + len(weights))
        cdf = cumulative_table(weights).tolist()
        expected_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            expected = int(expected_rng.choice(sizes, p=weights))
            assert 2 + draw_index(rng, cdf) == expected
        assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestHyperCL:
    def test_generates_requested_edges(self):
        hypergraph = hypercl([1.0] * 20, [3] * 15, seed=0)
        assert hypergraph.num_edges_with_multiplicity == 15

    def test_respects_sizes(self):
        hypergraph = hypercl([1.0] * 20, [2, 3, 4, 5], seed=0)
        assert sorted(len(e) for e in hypergraph.iter_multiset()) == [2, 3, 4, 5]

    def test_degree_bias(self):
        # One node with overwhelming weight appears in almost every edge.
        weights = [100.0] + [0.1] * 30
        hypergraph = hypercl(weights, [3] * 40, seed=0)
        heavy_degree = hypergraph.degree(0)
        assert heavy_degree > 30

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hypercl([1.0], [2])
        with pytest.raises(ValueError):
            hypercl([1.0, -1.0], [2])
        with pytest.raises(ValueError):
            hypercl([1.0, 1.0], [5])

    def test_hypercl_like_scales(self):
        reference = hypercl([1.0] * 30, [3] * 20, seed=0)
        doubled = hypercl_like(reference, scale=2.0, seed=0)
        assert doubled.num_edges_with_multiplicity == pytest.approx(40, abs=1)
        assert doubled.num_nodes == pytest.approx(60, abs=1)

    def test_hypercl_like_empty_reference_raises(self):
        from repro.hypergraph.hypergraph import Hypergraph

        with pytest.raises(ValueError):
            hypercl_like(Hypergraph(nodes=[0, 1]), scale=1.0)


class TestRegistry:
    def test_all_paper_datasets_registered(self):
        expected = {
            "enron", "pschool", "hschool", "crime", "hosts", "directors",
            "foursquare", "dblp", "eu", "mag-topcs",
        }
        assert expected <= set(available())

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load("nope")

    def test_load_is_deterministic(self):
        a = load("crime", seed=0)
        b = load("crime", seed=0)
        assert a.hypergraph == b.hypergraph
        assert a.target_graph == b.target_graph

    def test_bundle_consistency(self):
        bundle = load("hosts", seed=0)
        # Projections must match their hypergraphs.
        assert project(bundle.source_hypergraph) == bundle.source_graph
        assert project(bundle.target_hypergraph) == bundle.target_graph
        assert (
            project(bundle.target_hypergraph_reduced)
            == bundle.target_graph_reduced
        )

    def test_split_halves_instance_count(self):
        bundle = load("enron", seed=0)
        total = (
            bundle.source_hypergraph.num_edges_with_multiplicity
            + bundle.target_hypergraph.num_edges_with_multiplicity
        )
        assert total == bundle.hypergraph.num_edges_with_multiplicity

    def test_labeled_datasets_have_labels(self):
        assert load("pschool", seed=0).labels is not None
        assert load("hschool", seed=0).labels is not None
        assert load("crime", seed=0).labels is None

    def test_dense_regime_has_higher_edge_weight(self):
        dense = load("hschool", seed=0)
        sparse = load("directors", seed=0)

        def avg_weight(graph):
            weights = [w for _, _, w in graph.edges_with_weights()]
            return float(np.mean(weights))

        assert avg_weight(dense.target_graph) > 2 * avg_weight(sparse.target_graph)

    def test_case_insensitive_load(self):
        assert load("CRIME", seed=0).name == "crime"

    def test_spec_descriptions_nonempty(self):
        for spec in DATASETS.values():
            assert spec.description
            assert spec.domain
