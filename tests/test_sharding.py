"""Sharded reconstruction: plan determinism, stitch parity, orchestration.

The contracts under test, in order of importance:

1. **Plan determinism** - :func:`repro.sharding.plan.partition` is a
   pure function of ``(graph, budget, seed)``: byte-identical across
   re-runs, equivariant under order-preserving node relabelings, every
   shard within budget, shards a disjoint cover of the nodes.
2. **Worker-count invariance** - the stitched reconstruction (and its
   digest) is byte-identical at any worker count, including resuming
   from a persistent workdir's checkpoint.
3. **Exact parity** - on boundary-free partitions with
   ``phase2_scope="component"``, sharded output equals the unsharded
   ``reconstruct()`` bit for bit; with boundary edges, the weight-
   conservation invariant (``project(stitched) == target``) still holds.
"""

from __future__ import annotations

import dataclasses
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marioh import MARIOH
from repro.core.search import phase2_tail_indices
from repro.datasets.largescale import (
    LargeScaleConfig,
    chained_clique_projection,
)
from repro.datasets.synthetic import (
    GroupInteractionConfig,
    generate_group_hypergraph,
)
from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.projection import project
from repro.rng import derive_seed, mix_tokens
from repro.sharding import (
    ShardPlan,
    ShardingConfig,
    hypergraph_digest,
    partition,
    reconstruct_sharded,
)
from repro.sharding import plan as plan_module
from repro.sharding.execute import SHARD_METHOD, peak_rss_mb
from repro.sharding.plan import _tie_salts


# ----------------------------------------------------------------------
# Fixtures / generators
# ----------------------------------------------------------------------
@st.composite
def weighted_graphs(draw, max_nodes=16, max_edges=30):
    """Small random weighted graphs (possibly disconnected)."""
    n_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    n_edges = draw(st.integers(min_value=1, max_value=max_edges))
    graph = WeightedGraph(nodes=range(n_nodes))
    for _ in range(n_edges):
        u = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        v = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        if u == v:
            continue
        graph.add_edge(u, v, draw(st.integers(min_value=1, max_value=4)))
    return graph


def _three_block_hypergraph() -> Hypergraph:
    """Three disconnected communities on disjoint node ranges."""
    union = Hypergraph(nodes=range(60))
    for block in range(3):
        config = GroupInteractionConfig(
            n_nodes=20, n_interactions=40, n_communities=2
        )
        source, _, _ = generate_group_hypergraph(config, seed=11 + block)
        for edge, multiplicity in source.items():
            union.add([node + 20 * block for node in edge], multiplicity)
    return union


@pytest.fixture(scope="module")
def fitted_model_and_graph():
    union = _three_block_hypergraph()
    model = MARIOH(seed=5, phase2_scope="component").fit(union)
    return model, project(union)


# ----------------------------------------------------------------------
# ShardPlan: determinism, equivariance, structure
# ----------------------------------------------------------------------
class TestShardPlan:
    @given(weighted_graphs(), st.integers(min_value=1, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_plan_is_reproducible(self, graph, budget):
        first = partition(graph, budget, seed=3)
        second = partition(graph, budget, seed=3)
        assert first == second
        assert first.plan_hash == second.plan_hash

    @given(weighted_graphs(), st.integers(min_value=1, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_shards_are_a_disjoint_cover_within_budget(self, graph, budget):
        plan = partition(graph, budget, seed=0)
        seen = [node for members in plan.shards for node in members]
        assert len(seen) == len(set(seen)), "shards overlap"
        assert set(seen) == set(graph.nodes), "shards do not cover the nodes"
        assert all(count <= budget for count in plan.shard_edge_counts)
        # Every edge is either intra-shard (counted) or on the boundary.
        assert sum(plan.shard_edge_counts) + plan.n_boundary_edges == (
            graph.num_edges
        )

    @given(
        weighted_graphs(),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_plan_equivariant_under_monotone_relabeling(
        self, graph, budget, stride, offset
    ):
        """Order-preserving relabeling relabels the plan, nothing else."""
        relabel = {u: u * stride + offset for u in graph.nodes}
        mapped = WeightedGraph(nodes=(relabel[u] for u in graph.nodes))
        for u, v, weight in graph.edges_with_weights():
            mapped.add_edge(relabel[u], relabel[v], weight)

        plan = partition(graph, budget, seed=7)
        mapped_plan = partition(mapped, budget, seed=7)
        assert mapped_plan.shards == tuple(
            tuple(relabel[u] for u in members) for members in plan.shards
        )
        assert mapped_plan.shard_edge_counts == plan.shard_edge_counts

    def test_plan_json_round_trip(self):
        graph = chained_clique_projection(
            LargeScaleConfig(n_edges=200), seed=2
        )
        plan = partition(graph, 50, seed=1)
        assert plan.n_shards > 1
        restored = ShardPlan.from_dict(
            json.loads(json.dumps(plan.as_dict()))
        )
        assert restored == plan
        assert restored.plan_hash == plan.plan_hash

    def test_boundary_edges_cross_shards(self):
        graph = chained_clique_projection(
            LargeScaleConfig(n_edges=500), seed=0
        )
        plan = partition(graph, 60, seed=0)
        lookup = plan.shard_of()
        for u, v, weight in plan.boundary:
            assert lookup[u] != lookup[v]
            assert u < v
            assert graph.weight(u, v) == weight

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="max_shard_edges"):
            partition(WeightedGraph(nodes=[0, 1]), 0)


def _scalar_tie_salts(seed: int, n_nodes: int):
    """The refinement tie salts, one ``mix_tokens`` call per rank: the
    reference the partitioner's vectorized table must equal."""
    return [mix_tokens(seed, ("shard-tie", rank)) for rank in range(n_nodes)]


def _hashed_graph(n_nodes: int = 150, n_edges: int = 700) -> WeightedGraph:
    """A fixed graph built from counter hashes alone, so its plans change
    only when the partitioner does."""
    graph = WeightedGraph(nodes=range(n_nodes))
    for index in range(n_edges):
        value = mix_tokens(0, ("plan-golden", index))
        u, v = value % n_nodes, (value >> 20) % n_nodes
        if u != v:
            graph.add_edge(u, v, 1 + (value >> 40) % 3)
    return graph


class TestPlanContent:
    """Plans stay exactly what they were, not merely reproducible."""

    @pytest.mark.parametrize("seed", [0, 1, 3, 22, 2**40 + 3, 2**64 - 1])
    def test_tie_salts_match_scalar_mix_tokens(self, seed):
        assert _tie_salts(seed, 500) == _scalar_tie_salts(seed, 500)

    @given(
        weighted_graphs(max_nodes=40, max_edges=150),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_plan_hash_matches_scalar_salt_reference(
        self, graph, budget, seed
    ):
        plan = partition(graph, budget, seed=seed)
        with mock.patch.object(plan_module, "_tie_salts", _scalar_tie_salts):
            reference = partition(graph, budget, seed=seed)
        assert plan.plan_hash == reference.plan_hash

    @pytest.mark.parametrize(
        "budget, seed, plan_hash",
        [
            (40, 0, "ac384676b96c31a5171643461b704f41"
                    "0531fee74fea07001c945db8c934db49"),
            (120, 7, "c3799af449c0a7adac7abfe92e3f45f0"
                     "9fdb0e0496b5dd3c29855b81b5aad2ad"),
            (300, 2**40 + 3, "cadc43707a0f1baa6f7d4511c915ed33"
                             "60f13e2828bd35624e9ddc941d00b500"),
        ],
    )
    def test_plan_hash_is_pinned(self, budget, seed, plan_hash):
        assert partition(_hashed_graph(), budget, seed=seed).plan_hash == (
            plan_hash
        )


# ----------------------------------------------------------------------
# ShardingConfig validation
# ----------------------------------------------------------------------
class TestShardingConfig:
    def test_needs_a_budget_source(self):
        with pytest.raises(ValueError, match="max_shard_edges or n_shards"):
            ShardingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_shard_edges": 0},
            {"n_shards": 0},
            {"max_shard_edges": 10, "workers": 0},
        ],
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            ShardingConfig(**kwargs)

    def test_budget_derived_from_n_shards(self):
        config = ShardingConfig(n_shards=4)
        assert config.budget(100) == 25
        assert config.budget(101) == 26
        assert config.budget(0) == 1

    def test_explicit_budget_wins(self):
        config = ShardingConfig(max_shard_edges=7, n_shards=4)
        assert config.budget(100) == 7


# ----------------------------------------------------------------------
# Sharded reconstruction: parity, worker invariance, resume
# ----------------------------------------------------------------------
class TestShardedReconstruction:
    def test_boundary_free_parity_matches_unsharded(
        self, fitted_model_and_graph
    ):
        model, graph = fitted_model_and_graph
        unsharded = model.reconstruct(graph)
        sharded = model.reconstruct(
            graph, sharding=ShardingConfig(max_shard_edges=100)
        )
        assert model.shard_stats_["boundary_edges"] == 0
        assert sharded == unsharded
        assert hypergraph_digest(sharded) == hypergraph_digest(unsharded)

    def test_planted_ties_match_unsharded(self, fitted_model_and_graph):
        """Isomorphic copies of one component tie exactly, and copies
        with one pair weight bumped tie nearly.  However the copies are
        packed into shards, sharded output equals unsharded output, and
        the exact copies reconstruct identically."""
        model, _ = fitted_model_and_graph
        base = project(Hypergraph([
            [0, 1, 2], [0, 1, 2], [1, 2, 3], [2, 3, 4, 5], [0, 5], [3, 4],
            [3, 4], [4, 5, 6], [5, 6, 7], [6, 7],
        ]))
        pairs = sorted(base.edges())
        graph = WeightedGraph()
        for copy in range(10):
            bumped = pairs[copy - 6] if copy >= 6 else None
            for u, v, weight in base.edges_with_weights():
                graph.add_edge(
                    u + 10 * copy, v + 10 * copy, weight + ((u, v) == bumped)
                )
        unsharded = model.reconstruct(graph)
        shapes = {
            frozenset(
                (frozenset(node - 10 * copy for node in edge), multiplicity)
                for edge, multiplicity in unsharded.induced_subhypergraph(
                    range(10 * copy, 10 * copy + 10)
                ).items()
            )
            for copy in range(6)
        }
        assert len(shapes) == 1
        for copies_per_shard in (1, 2, 3):
            sharded = model.reconstruct(
                graph,
                sharding=ShardingConfig(
                    max_shard_edges=copies_per_shard * base.num_edges
                ),
            )
            assert model.shard_stats_["boundary_edges"] == 0
            assert hypergraph_digest(sharded) == hypergraph_digest(unsharded)

    def test_worker_counts_are_byte_identical(self, fitted_model_and_graph):
        model, graph = fitted_model_and_graph
        digests = {}
        for workers in (1, 2):
            result = model.reconstruct(
                graph,
                sharding=ShardingConfig(max_shard_edges=60, workers=workers),
            )
            digests[workers] = hypergraph_digest(result)
            assert model.shard_stats_["workers"] == workers
        assert digests[1] == digests[2]

    def test_boundary_cut_conserves_weight(self, fitted_model_and_graph):
        model, graph = fitted_model_and_graph
        sharded = model.reconstruct(
            graph, sharding=ShardingConfig(max_shard_edges=40)
        )
        stats = model.shard_stats_
        assert stats["boundary_edges"] > 0, "expected a real cut"
        assert project(sharded) == graph

    def test_shard_stats_telemetry(self, fitted_model_and_graph):
        model, graph = fitted_model_and_graph
        result = model.reconstruct(
            graph, sharding=ShardingConfig(max_shard_edges=60)
        )
        stats = model.shard_stats_
        assert stats["n_shards"] == len(stats["shard_runtime_seconds"])
        assert stats["n_shards"] == len(stats["shard_peak_rss_mb"])
        assert stats["result_digest"] == hypergraph_digest(result)
        assert stats["max_shard_edges"] == 60
        assert stats["peak_rss_mb_max"] > 0.0

    def test_checkpoint_resume_reuses_cells(
        self, fitted_model_and_graph, tmp_path
    ):
        model, graph = fitted_model_and_graph
        workdir = tmp_path / "shards"
        config = ShardingConfig(max_shard_edges=60, workdir=str(workdir))
        first = model.reconstruct(graph, sharding=config)
        first_runtimes = model.shard_stats_["shard_runtime_seconds"]
        checkpoint = workdir / "cells.ckpt.json"
        assert checkpoint.exists()
        from repro.resilience.checkpoint import CheckpointStore

        payload = CheckpointStore(checkpoint).read()
        statuses = {
            record["status"] for record in payload["cells"].values()
        }
        assert statuses == {"ok"}
        assert all(
            record["method"] == SHARD_METHOD
            for record in payload["cells"].values()
        )

        # Re-run against the same workdir: every cell resumes from the
        # checkpoint (identical runtimes betray cached records), and the
        # stitched output is byte-identical.
        second = model.reconstruct(graph, sharding=config)
        assert second == first
        assert model.shard_stats_["shard_runtime_seconds"] == first_runtimes

    def test_resume_with_another_model_is_refused(
        self, fitted_model_and_graph, tmp_path
    ):
        """The workdir's checkpoint pins the model as well as the plan:
        a second model must not be handed the first one's shard results."""
        model, graph = fitted_model_and_graph
        other = MARIOH(
            seed=5, phase2_scope="component", theta_init=0.5, r=50
        ).fit(_three_block_hypergraph())
        config = ShardingConfig(max_shard_edges=60)
        assert hypergraph_digest(
            other.reconstruct(graph, sharding=config)
        ) != hypergraph_digest(model.reconstruct(graph, sharding=config))

        persistent = dataclasses.replace(
            config, workdir=str(tmp_path / "shards")
        )
        model.reconstruct(graph, sharding=persistent)
        with pytest.raises(ValueError, match="different grid"):
            other.reconstruct(graph, sharding=persistent)

    def test_empty_graph_reconstructs_to_empty(self):
        model = MARIOH(seed=0, phase2_scope="component")
        source, _, _ = generate_group_hypergraph(
            GroupInteractionConfig(
                n_nodes=30, n_interactions=60, n_communities=3
            ),
            seed=2,
        )
        model.fit(source)
        empty = WeightedGraph(nodes=range(5))
        result = model.reconstruct(
            empty, sharding=ShardingConfig(max_shard_edges=10)
        )
        assert result.num_unique_edges == 0
        assert set(result.nodes) == set(range(5))
        assert model.shard_stats_["n_shards"] == 0

    def test_requires_fitted_model(self):
        with pytest.raises(RuntimeError, match="fit"):
            reconstruct_sharded(
                MARIOH(seed=0),
                WeightedGraph(nodes=[0, 1]),
                ShardingConfig(max_shard_edges=5),
            )


# ----------------------------------------------------------------------
# phase2_scope: the decomposable quota rule
# ----------------------------------------------------------------------
class TestPhase2Scope:
    def test_component_quota_decomposes(self):
        # Two components: cliques {0,1,2}/{0,1} and {5,6,7}/{5,6}.
        cliques = [
            frozenset({0, 1, 2}),
            frozenset({5, 6, 7}),
            frozenset({0, 1}),
            frozenset({5, 6}),
        ]
        remaining = [0, 1, 2, 3]
        combined = phase2_tail_indices(remaining, 50.0, "component", cliques)
        # Each component independently gets ceil(2 * 50%) = 1 slot, in
        # ascending-score order: the first listed index per component.
        assert combined == [0, 1]

    def test_global_scope_matches_legacy_rule(self):
        cliques = [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})]
        # ceil(3 * 20%) = 1 slot, taken from the front of the
        # ascending-score order.
        assert phase2_tail_indices([2, 0, 1], 20.0, "global", cliques) == [2]

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="phase2_scope"):
            phase2_tail_indices([0], 10.0, "typo", [frozenset({0, 1})])

    def test_marioh_validates_scope(self):
        with pytest.raises(ValueError, match="phase2_scope"):
            MARIOH(phase2_scope="typo")

    def test_scope_survives_save_load(self, tmp_path):
        source, _, _ = generate_group_hypergraph(
            GroupInteractionConfig(
                n_nodes=30, n_interactions=60, n_communities=3
            ),
            seed=2,
        )
        model = MARIOH(seed=0, phase2_scope="component").fit(source)
        path = tmp_path / "model.json"
        model.save(path)
        assert MARIOH.load(path).phase2_scope == "component"


# ----------------------------------------------------------------------
# Satellite seams: rng consolidation, RSS probe
# ----------------------------------------------------------------------
class TestSupportSeams:
    def test_derive_seed_separates_coordinates(self):
        seeds = {
            derive_seed(0, ("MARIOH", "crime", i)) for i in range(32)
        }
        assert len(seeds) == 32
        assert all(0 <= seed < 2**63 for seed in seeds)

    def test_peak_rss_probe_is_positive(self):
        assert peak_rss_mb() > 0.0

