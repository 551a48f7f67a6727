"""Live-vs-batch parity: the streaming engine equals one-shot output.

The headline contract of :mod:`repro.serve`: for ANY edit stream, the
:class:`~repro.serve.engine.StreamingReconstructor`'s live hypergraph
is byte-identical (same ``hypergraph_digest``) to running one-shot
``model.reconstruct()`` on a fresh graph with the same edits replayed.
Pinned here as a property/fuzz suite over >= 50 randomized seeded
streams plus targeted adversarial sequences (interleaved add/remove/
reweight of the same edge, empty-graph transitions, cache eviction,
snapshot-incoherence rebuilds).  The engine serves only
``phase2_scope="component"`` models and refuses the rest.  Its refresh
patches only the components that hold a node an edit touched, so it is
also checked after every single edit of streams that merge, split and
tear down components, and after every step of a sliding window over a
dblp-sized stream.
"""

from __future__ import annotations

import dataclasses
import os
import random
from collections import deque
from itertools import combinations, cycle, islice

import pytest

from repro.core.marioh import MARIOH
from repro.datasets.registry import DATASETS
from repro.datasets.synthetic import generate_group_hypergraph
from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.split import split_source_target
from repro.serve.engine import (
    EDIT_OPS,
    StreamingReconstructor,
    apply_edit,
    normalize_edit,
    random_edit_stream,
    replay_edits,
)
from repro.sharding.stitch import hypergraph_digest

from tests.conftest import structured_triangles_hypergraph

#: seeds of the randomized fuzz streams (>= 50, per acceptance floor).
FUZZ_SEEDS = tuple(range(50))

# REPRO_SOAK=1 widens the sliding-window sweep.
SOAK = os.environ.get("REPRO_SOAK") == "1"


def _fit(phase2_scope: str) -> MARIOH:
    model = MARIOH(seed=0, phase2_scope=phase2_scope, max_epochs=30)
    model.fit(structured_triangles_hypergraph(seed=0, n_groups=10))
    return model


@pytest.fixture(scope="module")
def component_model() -> MARIOH:
    return _fit("component")


def one_shot_digest(model: MARIOH, edits) -> str:
    """Digest of one-shot reconstruct() on a freshly replayed graph."""
    graph = replay_edits(WeightedGraph(), edits)
    if graph.is_empty() and not graph.nodes:
        from repro.hypergraph.hypergraph import Hypergraph

        return hypergraph_digest(Hypergraph())
    return hypergraph_digest(model.reconstruct(graph))


def assert_parity(model: MARIOH, edits, checkpoints=()) -> StreamingReconstructor:
    """Stream ``edits`` and check live == batch at every checkpoint.

    ``checkpoints`` are stream positions (the end is always checked);
    the one-shot reference replays the same prefix into a fresh graph.
    """
    engine = StreamingReconstructor(model)
    positions = sorted(set(checkpoints) | {len(edits)})
    done = 0
    for position in positions:
        engine.apply(edits[done:position])
        done = position
        assert engine.digest() == one_shot_digest(model, edits[:position]), (
            f"live/batch divergence after {position} edits"
        )
    return engine


# ---------------------------------------------------------------------------
# The fuzz property: >= 50 randomized streams
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("stream_seed", FUZZ_SEEDS)
def test_random_stream_parity_component(component_model, stream_seed):
    edits = random_edit_stream(stream_seed, n_edits=60, n_nodes=22)
    engine = assert_parity(
        component_model, edits, checkpoints=(7, 23, 41)
    )
    assert engine.stats["edits_applied"] == len(edits)


def test_global_scope_model_is_refused():
    """The paper's coupled quota would force a whole-graph recompute
    per refresh, so the engine refuses such a model up front."""
    with pytest.raises(ValueError, match="phase2_scope"):
        StreamingReconstructor(_fit("global"))


def test_incremental_refresh_reuses_untouched_components(component_model):
    """Editing one component must not re-reconstruct the others."""
    engine = StreamingReconstructor(component_model)
    # Three disjoint triangles: components {0,1,2}, {10,11,12}, {20,21,22}.
    for base in (0, 10, 20):
        engine.apply(
            [
                ("add_edge", base, base + 1, 1),
                ("add_edge", base + 1, base + 2, 1),
                ("add_edge", base, base + 2, 1),
            ]
        )
    engine.reconstruction()
    reconstructs_before = engine.stats["component_reconstructs"]
    engine.apply([("reweight", 0, 1, 3)])
    engine.reconstruction()
    # Only the touched component recomputed; the other two hit the cache.
    assert engine.stats["component_reconstructs"] == reconstructs_before + 1
    assert engine.stats["component_cache_hits"] >= 2


def _components(graph: WeightedGraph):
    """Node sets of the graph's connected components that have an edge."""
    seen, found = set(), []
    for start in sorted(graph.nodes):
        if start in seen or graph.degree(start) == 0:
            continue
        members, frontier = {start}, [start]
        while frontier:
            for neighbor in graph.neighbors(frontier.pop()):
                if neighbor not in members:
                    members.add(neighbor)
                    frontier.append(neighbor)
        seen |= members
        found.append(frozenset(members))
    return found


def _transitions(before, after):
    """Which component changes one edit made: merge, split, teardown."""
    events = set()
    if any(sum(1 for old in before if old & new) > 1 for new in after):
        events.add("merge")
    if any(sum(1 for new in after if new & old) > 1 for old in before):
        events.add("split")
    if set().union(*before) - set().union(*after):
        events.add("teardown")
    return events


def _churn_stream(seed: int):
    """A random edit stream, then every live edge removed in a seeded
    order, so the graph ends torn down to isolated nodes."""
    edits = random_edit_stream(seed, n_edits=40, n_nodes=18)
    live = sorted(replay_edits(WeightedGraph(), edits).edges())
    random.Random(seed).shuffle(live)
    return edits + [("remove_edge", u, v, 0) for u, v in live]


@pytest.mark.parametrize("stream_seed", range(20))
def test_parity_after_every_edit(component_model, stream_seed):
    """Patched refreshes equal one-shot output after every single edit,
    through merges, splits and teardown, with the default LRU and with
    one that holds a single component; and every refresh pass counts
    each component once, as a cache hit or a reconstruct."""
    engines = [
        StreamingReconstructor(component_model),
        StreamingReconstructor(component_model, max_cached_components=1),
    ]
    edits = _churn_stream(stream_seed)
    reference = WeightedGraph()
    components = []
    events = set()
    for position, edit in enumerate(edits, start=1):
        apply_edit(reference, edit)
        before, components = components, _components(reference)
        events |= _transitions(before, components)
        expected = one_shot_digest(component_model, edits[:position])
        for engine in engines:
            stats = engine.stats
            passes = stats["refresh_passes"]
            lookups = (
                stats["component_cache_hits"] + stats["component_reconstructs"]
            )
            engine.apply([edit])
            assert engine.digest() == expected, (
                f"live/batch divergence after {position} edits"
            )
            refreshed = stats["refresh_passes"] - passes
            assert refreshed in (0, 1)
            assert (
                stats["component_cache_hits"]
                + stats["component_reconstructs"]
                - lookups
            ) == refreshed * len(components)
    assert events == {"merge", "split", "teardown"}
    assert not components


def test_writes_that_bypass_apply_keep_parity(component_model):
    """Writes into ``engine.graph`` that bypass apply() - as a
    checkpoint resume makes - are not in the dirty set; the refresh
    must still see them, also when apply() runs after them."""
    engine = StreamingReconstructor(component_model)
    edits = [
        ("add_edge", 0, 1, 1), ("add_edge", 1, 2, 1), ("add_edge", 0, 2, 1),
        ("add_edge", 5, 6, 2), ("add_edge", 6, 7, 1),
    ]
    engine.apply(edits)
    engine.reconstruction()
    engine.graph.add_edge(2, 5)
    edits.append(("add_edge", 2, 5, 1))
    assert engine.digest() == one_shot_digest(component_model, edits)
    engine.graph.add_edge(20, 21, 3)
    engine.apply([("add_edge", 0, 1, 1)])
    edits += [("add_edge", 20, 21, 3), ("add_edge", 0, 1, 1)]
    assert engine.digest() == one_shot_digest(component_model, edits)


def test_returned_reconstruction_is_never_mutated(component_model):
    engine = StreamingReconstructor(component_model)
    engine.apply(random_edit_stream(7, n_edits=30, n_nodes=12))
    first = engine.reconstruction()
    frozen = first.copy()
    engine.apply(
        [("add_edge", 0, 1, 2), ("remove_edge", 2, 3, 0), ("add_edge", 40, 41)]
    )
    assert engine.reconstruction() != frozen
    assert first == frozen


def _dblp_time_split(seed: int, factor: int = 5):
    """Source half and time-ordered target interactions of the dblp
    spec with its node, interaction and community counts x ``factor``."""
    config = DATASETS["dblp"].config
    spec = dataclasses.replace(
        config,
        n_nodes=config.n_nodes * factor,
        n_interactions=config.n_interactions * factor,
        n_communities=config.n_communities * factor,
    )
    hypergraph, timestamps, _ = generate_group_hypergraph(spec, seed=seed)
    source, target = split_source_target(hypergraph, timestamps=timestamps)
    stream = sorted(
        target.iter_multiset(),
        key=lambda edge: (timestamps.get(edge, 0), sorted(edge)),
    )
    return source, stream


def _sliding_window_steps(stream, size: int, steps: int):
    """Per-step edit lists of a sliding window over ``stream``.

    Each step adds +1 to every member pair of the next interaction and,
    once ``size`` interactions are live, reweights each pair of the
    oldest one down by one.  The stream wraps around at its end.
    """
    live: deque = deque()
    weights = {}
    for members in islice(cycle(stream), steps):
        members = sorted(members)
        edits = []
        for u, v in combinations(members, 2):
            weights[u, v] = weights.get((u, v), 0) + 1
            edits.append(["add_edge", u, v, 1])
        live.append(members)
        if len(live) > size:
            for u, v in combinations(live.popleft(), 2):
                weights[u, v] -= 1
                edits.append(["reweight", u, v, weights[u, v]])
        yield edits


def _sliding_window_edits(stream, size: int, steps: int):
    """Edits of ``steps`` steps of a sliding window over ``stream``."""
    return [
        edit
        for edits in _sliding_window_steps(stream, size, steps)
        for edit in edits
    ]


def test_near_tie_in_sliding_window_keeps_parity():
    """Regression: dblp x5, a 400-interaction window, seed 22, 216 steps
    past the preload.  While a clique's score depended on which other
    cliques shared its batch, the per-component refresh diverged here
    from one-shot reconstruct() of the whole graph."""
    _, stream = _dblp_time_split(seed=22)
    model = MARIOH(seed=0, phase2_scope="component")
    model.fit(_dblp_time_split(seed=0)[0])
    edits = _sliding_window_edits(stream, size=400, steps=400 + 216)
    engine = StreamingReconstructor(model)
    engine.apply(edits)
    assert engine.digest() == one_shot_digest(model, edits)


@pytest.fixture(scope="module")
def dblp_model() -> MARIOH:
    model = MARIOH(seed=0, phase2_scope="component")
    model.fit(_dblp_time_split(seed=0)[0])
    return model


#: (stream seed, first step, last step) of the per-step window checks,
#: steps counted past the 400-interaction preload: around seed 22's
#: near-tie at step 216 by default, and REPRO_SOAK=1 widens them.
WINDOW_CHECKS = (
    [(13, 1, 300), (22, 1, 300), (73, 1, 300)] if SOAK else [(22, 206, 226)]
)


@pytest.mark.parametrize("seed, first, last", WINDOW_CHECKS)
def test_sliding_window_parity_at_every_step(dblp_model, seed, first, last):
    """The daemon's sliding-window traffic, in process: after the
    preload each step is one patched refresh, checked against one-shot
    reconstruct() of the whole window."""
    _, stream = _dblp_time_split(seed=seed)
    steps = list(_sliding_window_steps(stream, size=400, steps=400 + last))
    edits = [edit for step in steps[:400 + first - 1] for edit in step]
    engine = StreamingReconstructor(dblp_model)
    engine.apply(edits)
    engine.reconstruction()
    for number, step in enumerate(steps[400 + first - 1:], start=first):
        engine.apply(step)
        edits += step
        assert engine.digest() == one_shot_digest(dblp_model, edits), (
            f"seed {seed}: live/batch divergence at step {number}"
        )


# ---------------------------------------------------------------------------
# Adversarial sequences
# ---------------------------------------------------------------------------
def test_interleaved_ops_on_same_edge(component_model):
    """add/remove/reweight churn on one edge, including no-op removals."""
    edits = [
        ("add_edge", 0, 1, 2),
        ("add_edge", 0, 1, 1),      # multiplicity accumulates
        ("reweight", 0, 1, 5),
        ("remove_edge", 0, 1, 0),
        ("remove_edge", 0, 1, 0),   # removing an absent edge: no-op
        ("add_edge", 0, 1, 1),
        ("reweight", 0, 1, 0),      # reweight-to-zero = structural delete
        ("add_edge", 0, 1, 4),
        ("add_edge", 1, 2, 1),
        ("add_edge", 0, 2, 1),
    ]
    assert_parity(component_model, edits, checkpoints=range(1, len(edits)))


def test_empty_graph_transitions(component_model):
    """Populated -> empty -> repopulated, checked at every step."""
    triangle = [
        ("add_edge", 0, 1, 1),
        ("add_edge", 1, 2, 1),
        ("add_edge", 0, 2, 1),
    ]
    teardown = [
        ("remove_edge", 0, 1, 0),
        ("reweight", 1, 2, 0),
        ("remove_edge", 0, 2, 0),
    ]
    edits = triangle + teardown + triangle
    engine = assert_parity(
        component_model, edits, checkpoints=range(1, len(edits))
    )
    # The rebuilt triangle is content-identical to the first incarnation,
    # so its reconstruction comes straight from the component cache.
    assert engine.stats["component_cache_hits"] >= 1


def test_starts_empty_and_empty_digest_is_stable(component_model):
    engine = StreamingReconstructor(component_model)
    first = engine.digest()
    assert engine.reconstruction().num_unique_edges == 0
    engine.apply([("add_edge", 3, 4, 1)])
    engine.apply([("remove_edge", 3, 4, 0)])
    # Nodes linger in the universe (matching one-shot on the replayed
    # graph), but the edge set - all the digest covers - is empty again.
    assert engine.reconstruction().num_unique_edges == 0
    assert engine.digest() == first
    assert engine.graph.nodes == frozenset({3, 4})


def test_parity_with_initial_graph(component_model):
    """A pre-populated starting graph is copied, then edited live."""
    initial = WeightedGraph()
    for u, v in ((0, 1), (1, 2), (0, 2), (5, 6)):
        initial.add_edge(u, v)
    engine = StreamingReconstructor(component_model, graph=initial)
    edits = random_edit_stream(99, n_edits=30, n_nodes=10)
    engine.apply(edits)
    reference = replay_edits(initial.copy(), edits)
    assert engine.digest() == hypergraph_digest(
        component_model.reconstruct(reference)
    )
    # The engine's copy means the caller's graph was not mutated.
    assert initial.num_edges == 4


def test_cache_eviction_keeps_parity(component_model):
    """An LRU bound of 1 forces constant eviction; parity must hold."""
    engine = StreamingReconstructor(component_model, max_cached_components=1)
    edits = random_edit_stream(3, n_edits=50, n_nodes=30)
    done = 0
    for position in (10, 20, 30, 40, 50):
        engine.apply(edits[done:position])
        done = position
        assert engine.digest() == one_shot_digest(
            component_model, edits[:position]
        )
    assert len(engine._cache) <= 1


def test_invariant_rebuild_recovers_parity(component_model):
    """A corrupted CSR snapshot degrades to rebuild, not wrong answers."""
    engine = StreamingReconstructor(component_model)
    edits = random_edit_stream(11, n_edits=40, n_nodes=16)
    engine.apply(edits)
    expected = one_shot_digest(component_model, edits)
    assert engine.digest() == expected
    # Sabotage the cached snapshot's slot accounting behind the graph's
    # back - exactly the incoherence the audit exists to catch.
    snapshot = engine.graph.snapshot()
    object.__setattr__(snapshot, "n_live", snapshot.n_live - 2)
    violation = engine.check_invariants()
    assert violation is not None
    assert "live slots" in violation
    assert engine.stats["invariant_rebuilds"] == 1
    assert engine.check_invariants() is None  # rebuilt state is coherent
    assert engine.digest() == expected


def test_clean_queries_are_memoized(component_model):
    engine = StreamingReconstructor(component_model)
    engine.apply(random_edit_stream(5, n_edits=25, n_nodes=12))
    engine.reconstruction()
    passes = engine.stats["refresh_passes"]
    for _ in range(5):
        engine.reconstruction()
    assert engine.stats["refresh_passes"] == passes


# ---------------------------------------------------------------------------
# Edit vocabulary
# ---------------------------------------------------------------------------
def test_normalize_edit_accepts_all_ops():
    assert normalize_edit(["add_edge", 0, 1]) == ("add_edge", 0, 1, 1)
    assert normalize_edit(("add_edge", 0, 1, 3)) == ("add_edge", 0, 1, 3)
    assert normalize_edit(["remove_edge", 2, 1, 9]) == ("remove_edge", 2, 1, 0)
    assert normalize_edit(["reweight", 0, 1, 0]) == ("reweight", 0, 1, 0)
    assert set(EDIT_OPS) == {"add_edge", "remove_edge", "reweight"}


@pytest.mark.parametrize(
    "bad",
    [
        ["add_edge", 0, 1, 0],          # increment < 1
        ["reweight", 0, 1],             # missing target
        ["reweight", 0, 1, -1],         # negative target
        ["add_edge", 2, 2],             # self-loop
        ["add_edge", "a", 1],           # non-integer endpoint
        ["grow_edge", 0, 1],            # unknown op
        ["add_edge", 0],                # arity
        "add_edge 0 1",                 # not a sequence of fields
        ["reweight", 0, 1, 0.5],        # fractional weight (not 0)
        ["add_edge", 1.9, 2],           # fractional endpoint (not 1)
        ["add_edge", True, 2],          # bool endpoint (not node 1)
        ["add_edge", "3", 1],           # numeric string (not node 3)
    ],
)
def test_normalize_edit_rejects(bad):
    with pytest.raises(ValueError):
        normalize_edit(bad)


def test_malformed_batch_applies_nothing(component_model):
    engine = StreamingReconstructor(component_model)
    with pytest.raises(ValueError):
        engine.apply([("add_edge", 0, 1, 1), ("add_edge", 2, 2, 1)])
    assert engine.stats["edits_applied"] == 0
    assert engine.graph.num_edges == 0


def test_remove_absent_edge_creates_no_nodes():
    graph = WeightedGraph()
    apply_edit(graph, ("remove_edge", 7, 8, 0))
    assert not graph.nodes


def test_random_edit_stream_is_deterministic():
    a = random_edit_stream(42, n_edits=80)
    b = random_edit_stream(42, n_edits=80)
    assert a == b
    assert a != random_edit_stream(43, n_edits=80)
    ops = {op for op, *_ in a}
    assert ops == set(EDIT_OPS)
