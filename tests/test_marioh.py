"""Unit and integration tests for the MARIOH estimator (Algorithm 1)."""

import gc
import multiprocessing

import pytest

import repro.core.marioh as marioh_module
import repro.sharding.execute as execute_module
from repro.core.features import CliqueFeaturizer, StructuralFeaturizer
from repro.core.marioh import MARIOH
from repro.core.pool import CliqueCandidatePool
from repro.core.search import bidirectional_search
from repro.datasets import load
from repro.datasets.largescale import (
    LargeScaleConfig,
    chained_clique_projection,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.projection import project
from repro.hypergraph.split import split_source_target
from repro.metrics.jaccard import jaccard_similarity
from repro.resilience.errors import InvariantViolation
from repro.sharding import ShardingConfig
from tests.conftest import random_hypergraph, structured_triangles_hypergraph


def _structured_hypergraph(seed=0, n_groups=12):
    """Tight recurring triangles plus pair noise - easy to learn."""
    return structured_triangles_hypergraph(seed=seed, n_groups=n_groups)


class TestConstruction:
    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            MARIOH(theta_init=0.0)
        with pytest.raises(ValueError):
            MARIOH(theta_init=1.5)

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            MARIOH(r=-1)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            MARIOH(alpha=0.0)

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            MARIOH(variant="bogus")

    def test_variant_selects_featurizer(self):
        assert isinstance(
            MARIOH(variant="no_multiplicity").classifier.featurizer,
            StructuralFeaturizer,
        )
        assert isinstance(MARIOH().classifier.featurizer, CliqueFeaturizer)

    def test_repr(self):
        text = repr(MARIOH(seed=3))
        assert "variant='full'" in text


class TestFitReconstruct:
    def test_reconstruct_before_fit_raises(self, triangle_graph):
        with pytest.raises(RuntimeError):
            MARIOH(seed=0).reconstruct(triangle_graph)

    def test_projection_invariant(self):
        """The reconstruction must re-project exactly to the input graph.

        MARIOH consumes every unit of edge multiplicity: filtering
        extracts exact residuals and each clique conversion decrements
        its pairs by one, looping until the graph is empty.
        """
        hypergraph = random_hypergraph(seed=0, n_nodes=18, n_edges=30)
        source, target = split_source_target(hypergraph, seed=0)
        target_graph = project(target)
        model = MARIOH(seed=0, max_epochs=30).fit(source)
        reconstruction = model.reconstruct(target_graph)
        assert project(reconstruction) == target_graph

    def test_input_graph_not_mutated(self):
        hypergraph = random_hypergraph(seed=1, n_nodes=15, n_edges=25)
        source, target = split_source_target(hypergraph, seed=0)
        target_graph = project(target)
        before = target_graph.copy()
        MARIOH(seed=0, max_epochs=30).fit(source).reconstruct(target_graph)
        assert target_graph == before

    def test_stage_times_recorded(self):
        hypergraph = random_hypergraph(seed=2, n_nodes=12, n_edges=20)
        source, target = split_source_target(hypergraph, seed=0)
        model = MARIOH(seed=0, max_epochs=20)
        model.fit_reconstruct(source, project(target))
        assert set(model.stage_times_) == {
            "load_sample",
            "train",
            "filtering",
            "bidirectional",
        }
        assert all(v >= 0 for v in model.stage_times_.values())

    def test_high_accuracy_on_structured_data(self):
        hypergraph = _structured_hypergraph(seed=0)
        source, target = split_source_target(hypergraph, seed=0)
        model = MARIOH(seed=0, max_epochs=60)
        reconstruction = model.fit_reconstruct(source, project(target))
        assert jaccard_similarity(target, reconstruction) > 0.6

    def test_pure_pairs_dataset_is_perfect(self):
        """All-pairs hypergraphs are solved by filtering alone."""
        hypergraph = Hypergraph()
        for i in range(0, 20, 2):
            hypergraph.add([i, i + 1], multiplicity=2)
        source, target = split_source_target(hypergraph, seed=0)
        model = MARIOH(seed=0, max_epochs=20)
        reconstruction = model.fit_reconstruct(source, project(target))
        assert jaccard_similarity(target, reconstruction) == 1.0

    def test_max_iterations_caps_loop(self):
        hypergraph = random_hypergraph(seed=3, n_nodes=15, n_edges=30)
        source, target = split_source_target(hypergraph, seed=0)
        model = MARIOH(seed=0, max_epochs=20, max_iterations=2)
        model.fit(source)
        model.reconstruct(project(target))
        assert model.n_iterations_ <= 2

    def test_semi_supervised_fraction(self):
        hypergraph = _structured_hypergraph(seed=1)
        source, target = split_source_target(hypergraph, seed=0)
        model = MARIOH(seed=0, max_epochs=40)
        reconstruction = model.fit_reconstruct(
            source, project(target), supervision_fraction=0.5
        )
        assert reconstruction.num_unique_edges > 0


class TestVariants:
    @pytest.mark.parametrize(
        "variant", ["full", "no_multiplicity", "no_filtering", "no_bidirectional"]
    )
    def test_all_variants_satisfy_projection_invariant(self, variant):
        hypergraph = random_hypergraph(seed=5, n_nodes=15, n_edges=25)
        source, target = split_source_target(hypergraph, seed=0)
        target_graph = project(target)
        model = MARIOH(variant=variant, seed=0, max_epochs=25)
        reconstruction = model.fit_reconstruct(source, target_graph)
        assert project(reconstruction) == target_graph

    def test_no_filtering_skips_filter_stage(self):
        hypergraph = Hypergraph()
        for i in range(0, 12, 2):
            hypergraph.add([i, i + 1], multiplicity=3)
        source, target = split_source_target(hypergraph, seed=0)
        full = MARIOH(seed=0, max_epochs=20).fit(source)
        full.reconstruct(project(target))
        # With filtering, the pure-pairs target empties before any search.
        assert full.n_iterations_ == 0


class TestCollectorPause:
    """``reconstruct`` pauses the cyclic garbage collector for its run
    and leaves it as it found it."""

    @pytest.fixture
    def fitted(self):
        hypergraph = structured_triangles_hypergraph(seed=0, n_groups=6)
        model = MARIOH(seed=0, max_epochs=20).fit(hypergraph)
        return model, project(hypergraph)

    @pytest.fixture
    def collector_state(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_paused_inside_and_restored(
        self, fitted, enabled, collector_state, monkeypatch
    ):
        model, graph = fitted
        seen = []

        def observed(*args, **kwargs):
            seen.append(gc.isenabled())
            return bidirectional_search(*args, **kwargs)

        monkeypatch.setattr(marioh_module, "bidirectional_search", observed)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        model.reconstruct(graph)
        assert seen and not any(seen)
        assert gc.isenabled() is enabled

    def test_restored_when_the_run_raises(
        self, fitted, collector_state, monkeypatch
    ):
        model, graph = fitted
        model.strict_invariants = True
        monkeypatch.setattr(
            CliqueCandidatePool, "check_invariants", lambda self: "corrupt"
        )
        gc.enable()
        with pytest.raises(InvariantViolation):
            model.reconstruct(graph)
        assert gc.isenabled()

    def _observe_cells(self, monkeypatch, observe):
        """Call ``observe(payload)`` at the start of every shard cell."""
        original = execute_module.execute_shard_cell

        def observed(payload):
            observe(payload)
            return original(payload)

        monkeypatch.setattr(execute_module, "execute_shard_cell", observed)

    def test_paused_inside_an_inline_shard_cell(
        self, fitted, collector_state, monkeypatch
    ):
        model, graph = fitted
        seen = []
        self._observe_cells(monkeypatch, lambda _: seen.append(gc.isenabled()))
        gc.enable()
        model.reconstruct(graph, sharding=ShardingConfig(max_shard_edges=10))
        assert len(seen) > 1 and not any(seen)
        assert gc.isenabled()

    def test_on_inside_a_pooled_cell(
        self, fitted, collector_state, monkeypatch, tmp_path
    ):
        """A forked pool worker starts with its parent's collector
        state, so a pooled run must not pause the parent."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("only a forked worker inherits the collector state")
        model, graph = fitted

        def record(payload):
            cell = tmp_path / f"cell-{payload['seed_index']}"
            cell.write_text(str(gc.isenabled()))

        self._observe_cells(monkeypatch, record)
        gc.enable()
        model.reconstruct(
            graph, sharding=ShardingConfig(max_shard_edges=10, workers=2)
        )
        states = [cell.read_text() for cell in tmp_path.glob("cell-*")]
        assert len(states) > 1 and set(states) == {"True"}
        assert gc.isenabled()

    def test_restored_when_a_shard_cell_raises(
        self, fitted, collector_state, monkeypatch
    ):
        model, graph = fitted

        def fail(payload):
            raise RuntimeError("injected shard failure")

        self._observe_cells(monkeypatch, fail)
        gc.enable()
        with pytest.raises(RuntimeError, match="quarantined"):
            model.reconstruct(
                graph, sharding=ShardingConfig(max_shard_edges=10)
            )
        assert gc.isenabled()

    @pytest.mark.parametrize("name", ["eu", "chain-2k", "chain-2k-sharded"])
    def test_a_reconstruct_leaves_no_cyclic_garbage(self, name):
        """The premise of the pause: nothing a run frees waits for the
        collector."""
        bundle = load("eu", seed=0)
        graph = (
            chained_clique_projection(LargeScaleConfig(n_edges=2_000))
            if name.startswith("chain-2k")
            else bundle.target_graph
        )
        sharding = (
            ShardingConfig(max_shard_edges=500)
            if name.endswith("sharded")
            else None
        )
        model = MARIOH(seed=0, max_epochs=20).fit(bundle.source_hypergraph)
        gc.collect()
        model.reconstruct(graph, sharding=sharding)
        assert gc.collect() == 0
