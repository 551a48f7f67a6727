"""Unit tests for the bidirectional search (Algorithm 3)."""

import functools
from itertools import combinations

import numpy as np
import pytest

import repro.core.marioh as marioh_module
from repro.core.classifier import CliqueClassifier
from repro.core.filtering import filter_guaranteed_pairs
from repro.core.marioh import MARIOH, _sampling_seed
from repro.core.pool import CliqueCandidatePool
from repro.core.search import (
    _replace_if_present,
    bidirectional_search,
    decay_threshold,
    sample_subcliques_stable,
)
from repro.datasets import load
from repro.datasets.largescale import (
    LargeScaleConfig,
    chained_clique_projection,
)
from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.projection import project
from repro.sharding.stitch import hypergraph_digest
from tests.conftest import random_hypergraph


class _ConstantScorer:
    """Classifier stub with a fixed score per clique size."""

    is_fitted = True

    def __init__(self, score_by_size):
        self.score_by_size = score_by_size

    def score(self, cliques, graph, reference_graph=None):
        return np.asarray(
            [self.score_by_size.get(len(c), 0.5) for c in cliques]
        )


class TestReplaceIfPresent:
    def test_replaces_and_reports_vanished_edges(self, triangle_graph):
        reconstruction = Hypergraph(nodes=triangle_graph.nodes)
        vanished = _replace_if_present(
            frozenset({0, 1, 2}), triangle_graph, reconstruction
        )
        assert vanished is not None
        assert sorted(vanished) == [(0, 1), (0, 2), (1, 2)]
        assert frozenset({0, 1, 2}) in reconstruction
        assert triangle_graph.is_empty()

    def test_skips_when_edge_missing(self, triangle_graph):
        triangle_graph.remove_edge(0, 1)
        reconstruction = Hypergraph(nodes=triangle_graph.nodes)
        assert (
            _replace_if_present(
                frozenset({0, 1, 2}), triangle_graph, reconstruction
            )
            is None
        )
        assert reconstruction.num_unique_edges == 0

    def test_partial_weights_remain(self):
        graph = WeightedGraph()
        for u, v in [(0, 1), (1, 2), (0, 2)]:
            graph.add_edge(u, v, 2)
        reconstruction = Hypergraph(nodes=graph.nodes)
        vanished = _replace_if_present(frozenset({0, 1, 2}), graph, reconstruction)
        assert vanished == []  # converted, but no edge hit weight zero
        assert graph.weight(0, 1) == 1


class TestStableSampling:
    """Counter-based Phase 2 sampler: deterministic, decoupled, and
    coherent with the feature-row cache's touch stamps."""

    def _graph_and_cliques(self):
        graph = WeightedGraph()
        for u, v in combinations(range(5), 2):
            graph.add_edge(u, v, 2)
        for u, v in combinations(range(10, 14), 2):
            graph.add_edge(u, v, 2)
        return graph, [frozenset(range(5)), frozenset(range(10, 14))]

    def test_counts_follow_paper_formula(self):
        graph, cliques = self._graph_and_cliques()
        sampled = sample_subcliques_stable(cliques, graph, seed=7)
        assert len(sampled) <= sum(len(c) - 2 for c in cliques)
        assert len(set(sampled)) == len(sampled)

    def test_subcliques_are_proper_subsets(self):
        graph, cliques = self._graph_and_cliques()
        for sub in sample_subcliques_stable(cliques, graph, seed=7):
            parent = next(c for c in cliques if sub <= c)
            assert 2 <= len(sub) < len(parent)

    def test_deterministic_and_seed_sensitive(self):
        graph, cliques = self._graph_and_cliques()
        first = sample_subcliques_stable(cliques, graph, seed=7)
        second = sample_subcliques_stable(cliques, graph, seed=7)
        assert first == second
        other = sample_subcliques_stable(cliques, graph, seed=8)
        assert first != other  # astronomically unlikely to collide

    def test_consumes_no_shared_rng_stream(self):
        graph, cliques = self._graph_and_cliques()
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        sample_subcliques_stable(cliques, graph, seed=7)
        assert rng.bit_generator.state == before

    def test_untouched_cliques_resample_identically(self):
        graph, cliques = self._graph_and_cliques()
        first = sample_subcliques_stable(cliques, graph, seed=7)
        # Touch only the second component.
        graph.decrement_edge(10, 11)
        second = sample_subcliques_stable(cliques, graph, seed=7)
        first_a = [s for s in first if s <= cliques[0]]
        second_a = [s for s in second if s <= cliques[0]]
        assert first_a == second_a  # untouched clique: same draws

    def test_touched_clique_redraws(self):
        """Across seeds, a touch must change at least one clique's
        draws (per-seed it may coincide for small cliques)."""
        changed = 0
        for seed in range(10):
            graph, cliques = self._graph_and_cliques()
            first = sample_subcliques_stable(cliques, graph, seed=seed)
            graph.decrement_edge(0, 1)
            second = sample_subcliques_stable(cliques, graph, seed=seed)
            if [s for s in first if s <= cliques[0]] != [
                s for s in second if s <= cliques[0]
            ]:
                changed += 1
        assert changed >= 5

    def test_size_two_cliques_yield_nothing(self, triangle_graph):
        assert (
            sample_subcliques_stable(
                [frozenset({0, 1})], triangle_graph, seed=0
            )
            == []
        )


def _sample_subcliques_sequential_reference(
    cliques, graph, seed, local_stamps=False
):
    """Per-clique loop computing the counter-based draws one at a time.

    This is the pre-vectorization form of :func:`sample_subcliques_stable`;
    the batched implementation groups cliques by size and ranks each
    group in one shot, but its output stream - including deduplication
    order - must stay bit-for-bit identical to this loop.
    """
    from repro.rng import MASK64, mix64, mix64_int

    salt_base = mix64_int(seed & MASK64)
    stamp_of = (
        graph.clique_touch_count if local_stamps else graph.clique_touch_stamp
    )
    sampled, seen = [], set()
    for clique in cliques:
        members = sorted(clique)
        n = len(members)
        if n <= 2:
            continue
        ids = np.array(members, dtype=np.int64).astype(np.uint64)
        stamp = stamp_of(members)
        # mix64_int applies the same SplitMix64 permutation as the
        # array mix64, on plain Python ints (scalars would warn).
        clique_salt = mix64_int(salt_base ^ (int(stamp) & MASK64))
        for k in range(2, n):
            salt = np.uint64(mix64_int(clique_salt ^ k))
            order = np.argsort(mix64(ids ^ salt), kind="stable")
            subclique = frozenset(members[int(i)] for i in order[:k])
            if subclique not in seen:
                seen.add(subclique)
                sampled.append(subclique)
    return sampled


def _random_setup(seed):
    rng = np.random.default_rng(seed)
    graph = WeightedGraph()
    for u, v in combinations(range(18), 2):
        if rng.random() < 0.4:
            graph.add_edge(u, v, int(rng.integers(1, 4)))
    cliques = []
    for _ in range(25):
        k = int(rng.integers(2, 7))  # include size-2 (skipped) cliques
        members = rng.choice(18, size=k, replace=False)
        cliques.append(frozenset(int(u) for u in members))
    return graph, cliques


class TestStableSamplerVectorizationParity:
    """The size-grouped batched sampler must reproduce the sequential
    per-clique reference stream exactly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_sequential_reference(self, seed):
        graph, cliques = _random_setup(seed)
        assert sample_subcliques_stable(
            cliques, graph, seed=seed
        ) == _sample_subcliques_sequential_reference(cliques, graph, seed)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_reference_after_touches(self, seed):
        """Touch stamps feed the salts; a partially touched graph must
        not break the equivalence."""
        graph, cliques = _random_setup(seed)
        for u, v in list(graph.edges())[::5]:
            graph.decrement_edge(u, v)
        assert sample_subcliques_stable(
            cliques, graph, seed=seed
        ) == _sample_subcliques_sequential_reference(cliques, graph, seed)

    def test_members_of_fast_path_is_equivalent(self):
        """The pool's cached sorted-member lists must not change draws."""
        graph, cliques = _random_setup(9)
        cached = {c: sorted(c) for c in cliques}
        assert sample_subcliques_stable(
            cliques, graph, seed=9, members_of=cached.__getitem__
        ) == sample_subcliques_stable(cliques, graph, seed=9)


class TestDrawMemo:
    """With a memo, the sampler reuses the draws of cliques whose key
    ``(stamp, seed, local_stamps)`` is unchanged; its output must equal
    the memo-free sampler's and the sequential reference's, call after
    call, as decrements touch members between calls."""

    @staticmethod
    def _check(cliques, graph, seed, local_stamps, memo):
        expected = _sample_subcliques_sequential_reference(
            cliques, graph, seed, local_stamps
        )
        assert sample_subcliques_stable(
            cliques, graph, seed, local_stamps=local_stamps
        ) == expected
        assert sample_subcliques_stable(
            cliques, graph, seed, local_stamps=local_stamps, memo=memo
        ) == expected
        return expected

    @pytest.mark.parametrize("local_stamps", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_memo_free_across_decrements(self, seed, local_stamps):
        graph, cliques = _random_setup(seed)
        rng = np.random.default_rng(100 + seed)
        memo = {}
        for _ in range(6):
            self._check(cliques, graph, seed, local_stamps, memo)
            edges = sorted(graph.edges())
            for index in rng.choice(len(edges), size=3, replace=False):
                graph.decrement_edge(*edges[index])
        assert set(memo) == {c for c in cliques if len(c) > 2}

    def test_different_seed_or_scope_through_one_memo(self):
        graph, cliques = _random_setup(7)
        graph.decrement_edge(*sorted(graph.edges())[0])
        memo = {}
        for seed, local_stamps in [
            (1, False), (2, False), (1, False), (1, True), (2, True),
        ]:
            self._check(cliques, graph, seed, local_stamps, memo)

    def test_dedup_across_reused_draws(self):
        """Two cliques sharing most members draw some equal sub-clique;
        with every draw served from the memo, only the first copy is
        emitted, as without a memo."""
        graph = WeightedGraph()
        for u, v in combinations(range(7), 2):
            graph.add_edge(u, v)
        cliques = [frozenset(range(6)), frozenset(range(1, 7))]
        for seed in range(50):
            memo = {}
            first = self._check(cliques, graph, seed, False, memo)
            if len(first) < sum(len(c) - 2 for c in cliques):
                break
        else:
            pytest.fail("no seed below 50 draws a shared sub-clique")
        drawn = [entry[1] for entry in memo.values()]
        assert self._check(cliques, graph, seed, False, memo) == first
        assert all(
            entry[1] is draws for entry, draws in zip(memo.values(), drawn)
        )

    def test_pool_drops_a_leaving_clique_and_redraws_it_on_return(self):
        graph = WeightedGraph()
        for u, v in combinations(range(5), 2):
            graph.add_edge(u, v, 2)
        for u, v in combinations(range(4, 8), 2):
            graph.add_edge(u, v, 1)
        pool = CliqueCandidatePool(graph)
        memo = pool.subclique_draws
        self._check(pool.current(), graph, 3, False, memo)
        leaving = frozenset(range(5))
        assert leaving in memo

        graph.decrement_edge(0, 1)
        graph.decrement_edge(0, 1)
        pool.notify_edges_removed([(0, 1)])
        assert leaving not in pool.current()
        assert leaving not in memo
        assert set(memo) <= set(pool.current())
        self._check(pool.current(), graph, 3, False, memo)

        # An out-of-band re-insertion, then a notification through the
        # pair: the clique is discarded and re-found in one call.
        graph.add_edge(0, 1, 2)
        pool.notify_edges_removed([(0, 1)])
        assert leaving in pool.current()
        assert leaving not in memo
        self._check(pool.current(), graph, 3, False, memo)
        assert leaving in memo


class TestBidirectionalSearch:
    def test_high_scores_are_converted(self, paper_figure3_graph):
        scorer = _ConstantScorer({2: 0.9, 3: 0.9, 4: 0.9})
        reconstruction = Hypergraph(nodes=paper_figure3_graph.nodes)
        graph = paper_figure3_graph.copy()
        graph, reconstruction, n, top = bidirectional_search(
            graph, scorer, 0.5, 20.0, reconstruction,
            sample_seed=0,
        )
        assert n > 0
        assert reconstruction.num_unique_edges > 0

    def test_low_scores_are_not_converted_in_phase1(self, paper_figure3_graph):
        scorer = _ConstantScorer({2: 0.1, 3: 0.1, 4: 0.1})
        reconstruction = Hypergraph(nodes=paper_figure3_graph.nodes)
        graph = paper_figure3_graph.copy()
        graph, reconstruction, n, top = bidirectional_search(
            graph, scorer, 0.95, 0.0, reconstruction,
            sample_seed=0,
        )
        assert n == 0
        assert reconstruction.num_unique_edges == 0
        assert top == pytest.approx(0.1)

    def test_phase2_finds_subcliques(self):
        """Sub-cliques of low-score maximal cliques can still convert."""
        graph = WeightedGraph()
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            graph.add_edge(u, v)
        # size-3/size-4 score low, size-2 scores high: Phase 2 samples
        # 2-subsets of the triangle.
        scorer = _ConstantScorer({2: 0.9, 3: 0.1})
        reconstruction = Hypergraph(nodes=graph.nodes)
        graph, reconstruction, n, top = bidirectional_search(
            graph, scorer, 0.5, 100.0, reconstruction,
            sample_seed=0,
        )
        assert n > 0
        assert all(len(edge) == 2 for edge in reconstruction)

    def test_skip_negative_phase(self):
        graph = WeightedGraph()
        for u, v in [(0, 1), (1, 2), (0, 2)]:
            graph.add_edge(u, v)
        scorer = _ConstantScorer({2: 0.9, 3: 0.1})
        reconstruction = Hypergraph(nodes=graph.nodes)
        graph, reconstruction, n, top = bidirectional_search(
            graph, scorer, 0.5, 100.0, reconstruction,
            sample_seed=0, skip_negative_phase=True,
        )
        assert n == 0
        assert top == pytest.approx(0.1)  # sub-cliques were never scored

    def test_overlapping_cliques_respect_removal_order(self):
        """Fig. 3's (A)/(B) interaction: removing an earlier clique can
        invalidate a later one."""
        hypergraph = Hypergraph(edges=[[5, 6, 7], [2, 3, 5, 6]])
        graph = project(hypergraph)
        # Make the triangle score highest so it converts first; the
        # 4-clique shares edge (5, 6) and should then fail validation
        # only if (5,6) hit zero - here w_56 = 2, so both convert.
        scorer = _ConstantScorer({3: 0.99, 4: 0.8, 2: 0.7})
        reconstruction = Hypergraph(nodes=graph.nodes)
        graph, reconstruction, n, top = bidirectional_search(
            graph, scorer, 0.5, 0.0, reconstruction,
            sample_seed=0,
        )
        assert frozenset({5, 6, 7}) in reconstruction
        assert frozenset({2, 3, 5, 6}) in reconstruction

    def test_invalid_r_raises(self, triangle_graph):
        scorer = _ConstantScorer({})
        with pytest.raises(ValueError):
            bidirectional_search(
                triangle_graph, scorer, 0.5, 150.0,
                Hypergraph(nodes=triangle_graph.nodes), sample_seed=0,
            )

    def test_empty_graph_is_noop(self):
        graph = WeightedGraph(nodes=[0, 1])
        scorer = _ConstantScorer({})
        graph, reconstruction, n, top = bidirectional_search(
            graph, scorer, 0.5, 20.0, Hypergraph(nodes=graph.nodes),
            sample_seed=0,
        )
        assert n == 0
        assert top == float("-inf")


class TestDecayThreshold:
    def test_linear_decay(self):
        assert decay_threshold(0.9, 0.9, 1 / 20) == pytest.approx(0.855)

    def test_floors_at_zero(self):
        assert decay_threshold(0.01, 0.9, 1 / 20) == 0.0


def _unskipped_reconstruct(model, graph):
    """Algorithm 1 as the paper states it: filtering, then one
    :func:`bidirectional_search` per θ step until the graph empties (or
    ``model.max_iterations`` steps ran).  Returns the reconstruction,
    the step count and ``(edge, stage, score, iteration, theta)`` per
    provenance record."""
    working, reconstruction = filter_guaranteed_pairs(
        graph, Hypergraph(nodes=graph.nodes)
    )
    records = [(edge, "filtering", None, 0, None) for edge in reconstruction]
    pool = None
    if model.engine == "incremental":
        pool = CliqueCandidatePool(working)
    theta, iterations = model.theta_init, 0
    while not working.is_empty() and (
        model.max_iterations is None or iterations < model.max_iterations
    ):
        recorder = []
        bidirectional_search(
            working,
            model.classifier,
            theta,
            model.r,
            reconstruction,
            reference_graph=graph,
            pool=pool,
            recorder=recorder,
            sample_seed=_sampling_seed(model.seed),
            phase2_scope=model.phase2_scope,
        )
        records.extend(
            (clique, stage, score, iterations + 1, theta)
            for clique, stage, score in recorder
        )
        theta = decay_threshold(theta, model.theta_init, model.alpha)
        iterations += 1
    return reconstruction, iterations, records


@functools.lru_cache(maxsize=None)
def _fitted(name, scope):
    """Payload bytes of a model fitted on the dataset's source (on eu's
    for ``chain-2k``, the 2k-edge chained-clique projection) and the
    graph it reconstructs."""
    if name == "chain-2k":
        source = load("eu", seed=0).source_hypergraph
        graph = chained_clique_projection(LargeScaleConfig(n_edges=2_000))
    else:
        bundle = load(name, seed=0)
        source, graph = bundle.source_hypergraph, bundle.target_graph
    model = MARIOH(seed=0, max_epochs=20, phase2_scope=scope).fit(source)
    return model.payload_bytes(), graph


class TestDeadThetaStepSkip:
    """``MARIOH.reconstruct`` jumps over θ steps that cannot convert;
    the paper's loop, which runs every step, must give the same
    reconstruction, step count and provenance."""

    def _check(self, name, scope, engine, cap, monkeypatch):
        payload, graph = _fitted(name, scope)
        model = MARIOH.loads(payload)
        model.engine, model.max_iterations = engine, cap
        model.record_provenance = True
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return bidirectional_search(*args, **kwargs)

        monkeypatch.setattr(marioh_module, "bidirectional_search", counted)
        reconstruction = model.reconstruct(graph)
        expected, iterations, records = _unskipped_reconstruct(model, graph)
        assert hypergraph_digest(reconstruction) == hypergraph_digest(expected)
        assert model.n_iterations_ == iterations
        assert [
            (r.edge, r.stage, r.score, r.iteration, r.theta)
            for r in model.provenance_
        ] == records
        return len(calls), model.n_iterations_

    @pytest.mark.parametrize("engine", ["incremental", "rescan"])
    @pytest.mark.parametrize("scope", ["global", "component"])
    @pytest.mark.parametrize("name", ["eu", "dblp", "chain-2k"])
    def test_matches_the_unskipped_loop(
        self, name, scope, engine, monkeypatch
    ):
        calls, iterations = self._check(
            name, scope, engine, None, monkeypatch
        )
        if name == "chain-2k":
            assert calls < iterations  # the skip fired

    @pytest.mark.parametrize("engine", ["incremental", "rescan"])
    @pytest.mark.parametrize("scope", ["global", "component"])
    def test_cap_inside_a_skipped_run(self, scope, engine, monkeypatch):
        """The chain's first step converts nothing and the next ones are
        skipped; a cap of 3 ends the run inside that skipped stretch."""
        calls, iterations = self._check(
            "chain-2k", scope, engine, 3, monkeypatch
        )
        assert (calls, iterations) == (1, 3)
