"""Incremental maintenance of a graph's maximal cliques.

MARIOH's search loop (Algorithm 3) re-enumerates the maximal cliques of
the shrinking intermediate graph every iteration.  That rescan is simple
and matches the paper's pseudocode, but most of the graph is untouched
between iterations.  :class:`CliqueCandidatePool` keeps the maximal
cliques up to date under edge *removals* using two facts:

1. An unaffected maximal clique stays maximal: removing edges elsewhere
   cannot extend it (no adjacency is added) and cannot break it.
2. A *newly* maximal clique must contain an endpoint of some removed
   edge: for it to have been non-maximal before, it had an extender
   vertex adjacent to all members, and that extender can only have been
   disqualified by losing an edge into the clique.

So after removals it suffices to (a) discard cliques containing a
removed pair and (b) enumerate the maximal cliques through a
removed-edge endpoint, adding the ones not pooled yet.  Step (a) uses
an inverted node -> cliques index, so it touches only the cliques
through a removed endpoint instead of scanning the whole clique set.
Step (b) is anchored Bron-Kerbosch
(:func:`~repro.hypergraph.cliques.maximal_cliques_through`) on the live
graph: each clique is found once, at its smallest endpoint, and is
maximal in the whole graph by construction, so no subgraph is built and
no clique is re-checked.  The clique set is a set whose sorted view -
cached between changes - is what the search loop iterates, so the order
in which step (b) finds cliques cannot reach the output.  The
``engine="rescan"`` mode of :class:`~repro.core.marioh.MARIOH` remains
the reference implementation; equivalence is covered by tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.search import DrawMemo
from repro.hypergraph.cliques import (
    Clique,
    is_maximal_clique,
    maximal_cliques,
    maximal_cliques_through,
)
from repro.hypergraph.graph import Node, WeightedGraph

_NO_CLIQUES: Set[Clique] = set()


class CliqueCandidatePool:
    """The maximal cliques of ``graph``, maintained under edge removals.

    The pool holds a reference to the graph it tracks; callers mutate
    the graph (only via edge-weight decrements / removals) and then call
    :meth:`notify_edges_removed` with the pairs whose last unit of
    weight disappeared.

    Attributes
    ----------
    subclique_draws : dict
        The Phase-2 sampler's memo
        (:func:`repro.core.search.sample_subcliques_stable`): at most
        one entry per pooled clique, holding the key it was last drawn
        under and its sub-clique draws.  An entry leaves with its
        clique, so the memo never outgrows the pool.
    """

    def __init__(self, graph: WeightedGraph) -> None:
        self._graph = graph
        self._cliques: Set[Clique] = set(maximal_cliques(graph))
        self._by_node: Dict[Node, Set[Clique]] = {}
        self._sort_keys: Dict[Clique, Tuple[int, List[Node]]] = {}
        self.subclique_draws: DrawMemo = {}
        for clique in self._cliques:
            self._index_add(clique)
        self._sorted: Optional[List[Clique]] = None
        # The pool's view of the graph is current as of this structural
        # version; every notify_edges_removed call advances it.  A gap
        # between the expected and actual counters means a structural
        # mutation happened that the pool was never told about.
        self._synced_structure_version = graph.structure_version
        self._desync: Optional[str] = None

    def _index_add(self, clique: Clique) -> None:
        for node in clique:
            self._by_node.setdefault(node, set()).add(clique)
        if clique not in self._sort_keys:
            self._sort_keys[clique] = (len(clique), sorted(clique))

    def _index_discard(self, clique: Clique) -> None:
        for node in clique:
            bucket = self._by_node.get(node)
            if bucket is not None:
                bucket.discard(clique)
        self._sort_keys.pop(clique, None)
        self.subclique_draws.pop(clique, None)

    def current(self) -> List[Clique]:
        """The maximal cliques, sorted for deterministic iteration
        (same order as :func:`maximal_cliques_list`).

        The sorted view is cached and only rebuilt after the clique set
        changes, so iterations that convert nothing pay O(1) instead of
        an O(C log C) re-sort.  Callers must not mutate the returned
        list.
        """
        if self._sorted is None:
            self._sorted = sorted(self._cliques, key=self._sort_keys.__getitem__)
        return self._sorted

    def __len__(self) -> int:
        return len(self._cliques)

    def sorted_members(self, clique: Clique) -> List[Node]:
        """Sorted member list of ``clique``, reusing the pool's cached
        sort keys for tracked cliques (the Phase-2 sampler's fast path;
        callers must not mutate the returned list)."""
        entry = self._sort_keys.get(clique)
        if entry is not None:
            return entry[1]
        return sorted(clique)

    def notify_edges_removed(
        self, pairs: Iterable[Tuple[Node, Node]]
    ) -> None:
        """Update the clique set after the given edges vanished.

        ``pairs`` are edges whose weight reached zero (they no longer
        exist in the graph).  Decrements that leave positive weight do
        not change the clique structure and need no notification.
        """
        removed = [frozenset(pair) for pair in pairs]
        if not removed:
            # Even an empty notification re-syncs nothing: structural
            # changes without a matching notification stay detectable.
            return
        # Each vanished edge bumped structure_version exactly once, so a
        # caller that notifies promptly after every decrement keeps the
        # counters in lockstep.  A gap means some structural mutation
        # (an unreported vanish, an out-of-band add/remove) bypassed the
        # pool, whose clique set may now be silently stale.
        expected = self._synced_structure_version + len(set(removed))
        actual = self._graph.structure_version
        if expected != actual and self._desync is None:
            self._desync = (
                f"pool expected structure_version {expected} after "
                f"{len(set(removed))} removal(s) but graph is at {actual}; "
                "a structural mutation bypassed notify_edges_removed"
            )
        self._synced_structure_version = actual
        # (a) Broken cliques: any clique containing a removed pair.  The
        # inverted index narrows the scan to cliques through a removed
        # endpoint; a clique lies in by_node[u] & by_node[v] exactly
        # when it contains the pair {u, v}.
        broken: Set[Clique] = set()
        for pair in removed:
            u, v = tuple(pair)
            broken |= self._by_node.get(u, _NO_CLIQUES) & self._by_node.get(
                v, _NO_CLIQUES
            )
        changed = bool(broken)
        for clique in broken:
            self._cliques.discard(clique)
            self._index_discard(clique)

        # (b) Newly maximal cliques all contain a removed-edge endpoint.
        endpoints = {node for pair in removed for node in pair}
        for clique in maximal_cliques_through(self._graph, endpoints):
            if clique not in self._cliques:
                self._cliques.add(clique)
                self._index_add(clique)
                changed = True
        if changed:
            self._sorted = None

    def matches_rescan(self) -> bool:
        """Debug helper: does the pool equal a fresh enumeration?"""
        return self._cliques == set(maximal_cliques(self._graph))

    def check_invariants(self) -> Optional[str]:
        """Cheap self-audit; a description of the first violation or None.

        Designed to run once per reconstruction iteration, so it avoids
        the O(full rescan) of :meth:`matches_rescan`:

        1. any desync recorded by :meth:`notify_edges_removed` (a
           structural mutation the pool was never told about);
        2. the structural counter itself (catches mutations made since
           the last notification);
        3. the graph's cached CSR snapshot coherence (catches mutations
           that bypassed the version-stamp protocol entirely);
        4. a sampled staleness probe: the first clique of the sorted
           view must still be a maximal clique of the live graph.

        The engine loop treats a non-None return as grounds to fall
        back to the rescan engine (or to raise, under
        ``strict_invariants``).
        """
        if self._desync is not None:
            return self._desync
        if self._synced_structure_version != self._graph.structure_version:
            return (
                f"graph structure_version advanced from "
                f"{self._synced_structure_version} to "
                f"{self._graph.structure_version} without a "
                "notify_edges_removed call"
            )
        incoherence = self._graph.check_snapshot_coherence()
        if incoherence is not None:
            return f"graph snapshot incoherent: {incoherence}"
        view = self.current()
        if view:
            probe = view[0]
            if not is_maximal_clique(self._graph, probe):
                return (
                    f"pooled clique {sorted(probe)} is no longer a "
                    "maximal clique of the live graph"
                )
        return None
