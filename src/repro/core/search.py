"""Bidirectional search over candidate cliques (Algorithm 3).

One call performs one iteration: enumerate the maximal cliques of the
intermediate graph ``G'``, score them, greedily convert the most
promising (score > θ) into hyperedges while updating the graph, then
sample sub-cliques from the least promising r% and convert those whose
scores clear θ as well.  The caller (Algorithm 1) loops until the graph
runs out of edges, decaying θ after every iteration.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.classifier import CliqueClassifier
from repro.hypergraph.cliques import Clique, maximal_cliques_list
from repro.hypergraph.graph import Node, WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph

# SplitMix64 primitives live in repro.rng so the orchestrator and the
# sharding partitioner share the exact same mix.
from repro.rng import MASK64, mix64, mix64_int


def _replace_if_present(
    clique: Clique, graph: WeightedGraph, reconstruction: Hypergraph
) -> Optional[List[Tuple[int, int]]]:
    """Convert ``clique`` into a hyperedge if all its edges still exist.

    On success, every internal edge's multiplicity drops by one (removed
    at zero), the clique is added to the reconstruction, and the list of
    pairs whose edges *vanished* (hit weight zero) is returned.  Returns
    ``None`` when the clique no longer exists in the graph.
    """
    members = sorted(clique)
    if any(
        not graph.has_edge(u, v) for u, v in combinations(members, 2)
    ):
        return None
    reconstruction.add(members)
    # Weight-only decrements patch the cached CSR snapshot in place and
    # stamp the members' touch versions; only vanished edges trigger a
    # structural invalidation (and a pool notification).
    return graph.decrement_clique(members)


#: Per-clique memo of :func:`sample_subcliques_stable`: clique ->
#: ``((stamp, seed, local_stamps), draws before deduplication)``.
DrawMemo = Dict[Clique, Tuple[Tuple[int, int, bool], List[Clique]]]


def sample_subcliques_stable(
    cliques: Sequence[Clique],
    graph: WeightedGraph,
    seed: int,
    members_of: Optional[Callable[[Clique], List[Node]]] = None,
    local_stamps: bool = False,
    memo: Optional[DrawMemo] = None,
) -> List[Clique]:
    """Counter-based Phase 2 sampling: one k-subset per size, per clique.

    Samples the paper's ``Q_sub``: one ``k``-subset for every
    ``k in [2, |Q|-1]`` of each clique ``Q``, sum_Q (|Q| - 2) sub-cliques
    before deduplication.  Each subset is a *pure function* of
    ``(seed, members, stamp, k)`` where ``stamp`` is the clique's current
    :meth:`~repro.hypergraph.graph.WeightedGraph.clique_touch_stamp`:
    every member is ranked by a SplitMix64 hash of its id under that
    salt and the ``k`` lowest ranks form the subset.  The key matrix
    for all sizes of one clique is produced by a single vectorized mix.

    Two properties follow.  First, sampling is **decoupled**: it
    consumes no shared sequential RNG stream, so it cannot perturb (or
    be perturbed by) the classifier's generator, the engine choice, or
    how often the feature-row cache recomputes.  Second, sampling is
    **cache-coherent**: a clique whose members are untouched since the
    previous iteration re-proposes exactly the same sub-cliques - whose
    feature rows are then served from the cache - while any touched
    clique automatically draws a fresh subset (its stamp advanced).

    Because every key is a pure counter-based hash, the whole tail is
    hashed and ranked as *one ragged batch*: cliques are grouped by
    size and each group's ``(m, n - 2, n)`` key tensor is produced by a
    single vectorized mix + one stable argsort, instead of ~m separate
    small-array passes.  Subsets are then emitted in the original
    clique order, so the output - including the deduplication order -
    is bit-for-bit the stream the per-clique loop produced.

    ``members_of`` optionally supplies each clique's sorted member list
    (the incremental engine passes the candidate pool's cached lists,
    :meth:`~repro.core.pool.CliqueCandidatePool.sorted_members`, saving
    a re-sort per clique per iteration).

    ``local_stamps`` switches the per-clique salt from
    :meth:`~repro.hypergraph.graph.WeightedGraph.clique_touch_stamp`
    (graph-wide version at touch time - the legacy stream) to
    :meth:`~repro.hypergraph.graph.WeightedGraph.clique_touch_count`
    (mutation counts local to the members).  The local salt is a pure
    function of the clique's own component, so sampling decomposes over
    connected components - the property ``phase2_scope="component"``
    and sharded reconstruction's exact-parity guarantee require.

    ``memo`` optionally keeps each clique's draws (before
    deduplication) under the ``(stamp, seed, local_stamps)`` they were
    drawn with.  The draws are a pure function of that key and the
    members, so a clique whose key is unchanged reuses its list - the
    same frozenset objects, whose cached hashes also speed up the
    feature-row cache lookups - and only the other cliques are hashed,
    ranked and re-stored.  Either stamp changes only when a member is
    touched, so every tail clique left untouched since its last draw
    is a memo hit.  The output is the same with or without a memo.  The
    incremental engine passes
    :attr:`~repro.core.pool.CliqueCandidatePool.subclique_draws`, which
    drops an entry with its clique.
    """
    salt_base = mix64_int(seed & MASK64)
    stamp_of = (
        graph.clique_touch_count if local_stamps else graph.clique_touch_stamp
    )
    if members_of is None:
        members_of = sorted
    # Each clique's draws before deduplication, by position: memo hits
    # are filled in here, the rest by the size groups below.
    drawn: List[Optional[List[Clique]]] = [None] * len(cliques)
    groups: Dict[int, List[Tuple[int, List[Node], int]]] = {}
    for position, clique in enumerate(cliques):
        members = members_of(clique)
        n = len(members)
        if n <= 2:
            continue
        stamp = stamp_of(members)
        if memo is not None:
            entry = memo.get(clique)
            if entry is not None and entry[0] == (stamp, seed, local_stamps):
                drawn[position] = entry[1]
                continue
        groups.setdefault(n, []).append((position, members, stamp))
    for n, group in groups.items():
        ids = np.array([members for _, members, _ in group], dtype=np.int64)
        stamps = np.array([stamp for _, _, stamp in group], dtype=np.uint64)
        clique_salts = mix64(np.uint64(salt_base) ^ stamps)  # (m,)
        salts = mix64(
            clique_salts[:, None] ^ np.arange(2, n, dtype=np.uint64)[None, :]
        )  # (m, n - 2)
        # (m, n - 2, n) keys: row j ranks the members for size j + 2.
        order = np.argsort(
            mix64(ids.astype(np.uint64)[:, None, :] ^ salts[:, :, None]),
            axis=2,
            kind="stable",
        )
        ranked = np.take_along_axis(ids[:, None, :], order, axis=2).tolist()
        for (position, _, stamp), rows in zip(group, ranked):
            draws = [frozenset(row[: j + 2]) for j, row in enumerate(rows)]
            drawn[position] = draws
            if memo is not None:
                memo[cliques[position]] = ((stamp, seed, local_stamps), draws)
    # Emit in the original clique order so deduplication matches the
    # per-clique loop's stream exactly.
    sampled: List[Clique] = []
    seen = set()
    for draws in drawn:
        if draws is None:
            continue
        for subclique in draws:
            if subclique not in seen:
                seen.add(subclique)
                sampled.append(subclique)
    return sampled


def _clique_components(cliques: Sequence[Clique]) -> List[int]:
    """Connected-component label of each clique, via shared nodes.

    Union-find over clique indices: two cliques join when they share a
    node.  Because every edge of the graph lies inside some maximal
    clique, cliques of the same graph component are always transitively
    joined, so the labels equal the graph's connected components
    restricted to non-isolated nodes.  Labels are the component's
    smallest clique index - a pure function of the clique *contents*,
    independent of what other components exist.
    """
    parent = list(range(len(cliques)))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    owner: Dict[Node, int] = {}
    for index, clique in enumerate(cliques):
        for node in clique:
            if node in owner:
                ru, rv = find(owner[node]), find(index)
                if ru != rv:
                    if ru < rv:
                        parent[rv] = ru
                    else:
                        parent[ru] = rv
            else:
                owner[node] = index
    return [find(i) for i in range(len(cliques))]


def phase2_tail_indices(
    remaining: Sequence[int],
    r: float,
    scope: str,
    cliques: Sequence[Clique],
) -> List[int]:
    """Indices of the Phase-2 tail under the given quota scope.

    ``remaining`` is the sub-θ candidate list in ascending-score order.
    ``scope="global"`` takes the first ``ceil(len(remaining) * r%)``
    entries - the paper's rule, which couples every component of the
    graph through one shared quota.  ``scope="component"`` computes the
    same ``r%`` quota *per connected component*, so each component's
    tail is a pure function of that component alone; this is the
    decomposable rule sharded reconstruction relies on for exact parity
    on boundary-free partitions.
    """
    if scope == "global":
        n_negative = int(np.ceil(len(remaining) * r / 100.0))
        return list(remaining[:n_negative])
    if scope != "component":
        raise ValueError(
            f"phase2_scope must be 'global' or 'component', got {scope!r}"
        )
    labels = _clique_components(cliques)
    counts: Dict[int, int] = {}
    for index in remaining:
        label = labels[index]
        counts[label] = counts.get(label, 0) + 1
    quotas = {
        label: int(np.ceil(count * r / 100.0))
        for label, count in counts.items()
    }
    taken: Dict[int, int] = {}
    tail: List[int] = []
    for index in remaining:
        label = labels[index]
        used = taken.get(label, 0)
        if used < quotas[label]:
            taken[label] = used + 1
            tail.append(index)
    return tail


def bidirectional_search(
    graph: WeightedGraph,
    classifier: CliqueClassifier,
    theta: float,
    r: float,
    reconstruction: Hypergraph,
    reference_graph: Optional[WeightedGraph] = None,
    skip_negative_phase: bool = False,
    pool: Optional["CliqueCandidatePool"] = None,
    recorder: Optional[List[Tuple[Clique, str, float]]] = None,
    *,
    sample_seed: int,
    phase2_scope: str = "global",
) -> Tuple[WeightedGraph, Hypergraph, int, float]:
    """One iteration of Algorithm 3, mutating ``graph`` and ``reconstruction``.

    Parameters
    ----------
    graph:
        The intermediate graph ``G'`` (mutated in place).
    classifier:
        The trained multiplicity-aware classifier ``M``.
    theta:
        Current classification threshold θ.
    r:
        Negative prediction processing ratio, in percent.
    reconstruction:
        The reconstructed hypergraph so far (mutated in place).
    reference_graph:
        Graph used for the maximality feature (the original ``G``);
        defaults to the current graph.
    skip_negative_phase:
        When True, Phase 2 is skipped entirely - this is the MARIOH-B
        ablation.
    pool:
        Optional :class:`~repro.core.pool.CliqueCandidatePool` tracking
        ``graph``; when given, maximal cliques come from the pool and
        edge removals are pushed back into it instead of re-enumerating
        from scratch (the ``engine="incremental"`` fast path).
    recorder:
        Optional list collecting ``(clique, phase, score)`` tuples for
        every conversion (``phase`` is ``"phase1"`` or ``"phase2"``) -
        the raw material of reconstruction provenance.
    sample_seed:
        Seed of the counter-based Phase-2 sampler,
        :func:`sample_subcliques_stable` (decoupled from every
        sequential RNG stream and coherent with the feature-row cache).
    phase2_scope:
        How the Phase-2 ``r%`` tail quota is computed:
        ``"global"`` (the paper's rule) over the whole sub-θ list,
        ``"component"`` per connected component (see
        :func:`phase2_tail_indices`) - the decomposable variant used by
        sharded reconstruction.

    Returns ``(graph, reconstruction, n_converted, top_score)``: how many
    cliques became hyperedges this iteration, and the highest score it
    gave a clique or a sampled sub-clique (``-inf`` when it scored
    nothing).  An iteration that converts nothing leaves ``graph``, its
    touch stamps and ``pool`` as they were, so a repeat at any
    ``theta >= top_score`` scores the same candidates and converts
    nothing either.
    """
    if not 0.0 <= r <= 100.0:
        raise ValueError(f"r must be a percentage in [0, 100], got {r}")

    cliques = pool.current() if pool is not None else maximal_cliques_list(graph)
    if not cliques:
        return graph, reconstruction, 0, float("-inf")
    scores = np.asarray(
        classifier.score(cliques, graph, reference_graph), dtype=np.float64
    )
    top_score = float(scores.max())

    # Stable argsorts keep the tie order of the equivalent Python sorts:
    # descending score (ties by index) for positives, ascending score
    # (ties by index) for the negative tail.
    descending = np.argsort(-scores, kind="stable")
    positive_indices = descending[scores[descending] > theta].tolist()
    ascending = np.argsort(scores, kind="stable")
    remaining = ascending[scores[ascending] <= theta].tolist()
    negative_indices = phase2_tail_indices(
        remaining, r, phase2_scope, cliques
    )

    converted = 0
    vanished_pairs: List[Tuple[int, int]] = []

    # Phase 1: most promising maximal cliques, in descending score order.
    for index in positive_indices:
        vanished = _replace_if_present(cliques[index], graph, reconstruction)
        if vanished is not None:
            converted += 1
            vanished_pairs.extend(vanished)
            if recorder is not None:
                recorder.append((cliques[index], "phase1", float(scores[index])))

    # Phase 2: sub-cliques hidden inside the least promising cliques.
    if not skip_negative_phase and negative_indices:
        tail = [cliques[i] for i in negative_indices]
        subcliques = sample_subcliques_stable(
            tail,
            graph,
            sample_seed,
            members_of=pool.sorted_members if pool is not None else None,
            local_stamps=phase2_scope == "component",
            memo=pool.subclique_draws if pool is not None else None,
        )
        if subcliques:
            sub_scores = classifier.score(subcliques, graph, reference_graph)
            top_score = max(top_score, float(np.max(sub_scores)))
            passing = [
                (score, subclique)
                for score, subclique in zip(sub_scores, subcliques)
                if score > theta
            ]
            passing.sort(key=lambda pair: -pair[0])
            for score, subclique in passing:
                vanished = _replace_if_present(subclique, graph, reconstruction)
                if vanished is not None:
                    converted += 1
                    vanished_pairs.extend(vanished)
                    if recorder is not None:
                        recorder.append((subclique, "phase2", float(score)))

    if pool is not None:
        pool.notify_edges_removed(vanished_pairs)
    return graph, reconstruction, converted, top_score


def decay_threshold(theta: float, theta_init: float, alpha: float) -> float:
    """Adaptive threshold update: ``θ <- max(θ - α·θ_init, 0)``."""
    return max(theta - alpha * theta_init, 0.0)
