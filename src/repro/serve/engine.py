"""The streaming reconstruction engine.

:class:`StreamingReconstructor` maintains, under a stream of
projected-graph edits, the exact hypergraph a one-shot
:meth:`~repro.core.marioh.MARIOH.reconstruct` call would produce on the
current graph.  Three existing mechanisms make that cheap:

1. **In-place graph maintenance.**  Edits mutate one long-lived
   :class:`~repro.hypergraph.graph.WeightedGraph`; weight-only edits
   queue lazy CSR weight patches and structural edits tombstone /
   slack-insert into the cached snapshot, so no edit triggers a full
   snapshot rebuild (only compaction boundaries do - the PR 7
   machinery, inherited wholesale).
2. **Component decomposability.**  With ``phase2_scope="component"``
   the reconstruction of a graph is exactly the disjoint union of the
   reconstructions of its connected components (the sharded-parity
   property).  :meth:`StreamingReconstructor.apply` records the
   endpoints each edit touched, and a refresh re-derives only the
   components that hold such a *dirty* node - patching a copy of the
   previous result, so no other component is walked, digested or
   re-added.  A re-derived component's edge list comes from an LRU
   keyed by a content digest of its edges, so a component that recurs
   across refreshes is not reconstructed again.  With no previous
   result, after an invariant rebuild, or when something wrote into
   :attr:`~StreamingReconstructor.graph` other than ``apply()``, the
   refresh falls back to a full pass over every component.  A model
   with ``phase2_scope="global"`` is refused: its coupled quota would
   force a whole-graph recompute per refresh.
3. **Engine degradation.**  Each per-component reconstruction runs the
   incremental :class:`~repro.core.pool.CliqueCandidatePool` engine
   under MARIOH's per-iteration ``check_invariants`` audit; a violation
   degrades that reconstruction to the rescan engine (counted in
   :attr:`StreamingReconstructor.stats`).  The streaming layer adds its
   own audit, :meth:`StreamingReconstructor.check_invariants`: live
   graph snapshot incoherence rebuilds the graph from its own edge
   list and drops every cached component.

The module also hosts the edit vocabulary (:func:`normalize_edit`,
:func:`apply_edit`) shared by the daemon, the parity test harness, and
the benchmark replayer - one implementation, so "replay the same edits"
means exactly that - plus :func:`random_edit_stream`, the seeded
edit-stream generator the property/fuzz suites draw from.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hypergraph.graph import Node, WeightedGraph, connected_components
from repro.hypergraph.hypergraph import Hypergraph
from repro.rng import derive_seed
from repro.sharding.stitch import canonical_edge_list, hypergraph_digest

#: the edit vocabulary, in documentation order.
EDIT_OPS = ("add_edge", "remove_edge", "reweight")

#: an edit, normalized: ``(op, u, v, amount)``.
Edit = Tuple[str, Node, Node, int]


def normalize_edit(edit: Sequence[object]) -> Edit:
    """Validate and normalize one edit into ``(op, u, v, amount)``.

    Accepts ``[op, u, v]`` or ``[op, u, v, amount]`` (lists or tuples,
    e.g. straight out of a JSON request).  ``add_edge`` defaults its
    increment to 1; ``remove_edge`` ignores any amount; ``reweight``
    requires an explicit target weight (0 removes the edge).  Raises
    ``ValueError`` on unknown ops, self-loops, non-integer endpoints,
    or out-of-range amounts - *before* anything touches a graph, so a
    malformed edit can never half-apply.
    """
    if not isinstance(edit, (list, tuple)) or not 3 <= len(edit) <= 4:
        raise ValueError(
            f"edit must be [op, u, v] or [op, u, v, amount], got {edit!r}"
        )
    op = edit[0]
    if op not in EDIT_OPS:
        raise ValueError(f"unknown edit op {op!r}; expected one of {EDIT_OPS}")
    try:
        u = int(edit[1])
        v = int(edit[2])
    except (TypeError, ValueError):
        raise ValueError(f"edit endpoints must be integers, got {edit!r}")
    if u == v:
        raise ValueError(f"self-loops are not allowed (node {u})")
    if op == "remove_edge":
        return (op, u, v, 0)
    if len(edit) == 4:
        try:
            amount = int(edit[3])
        except (TypeError, ValueError):
            raise ValueError(f"edit amount must be an integer, got {edit!r}")
    elif op == "add_edge":
        amount = 1
    else:
        raise ValueError("reweight requires an explicit target weight")
    if op == "add_edge" and amount < 1:
        raise ValueError(f"add_edge increments must be >= 1, got {amount}")
    if op == "reweight" and amount < 0:
        raise ValueError(f"reweight targets must be >= 0, got {amount}")
    return (op, u, v, amount)


def apply_edit(graph: WeightedGraph, edit: Sequence[object]) -> Edit:
    """Apply one edit to ``graph``; returns the normalized form.

    The single definition of edit semantics - the streaming engine, the
    parity harness's batch replay, and the benchmark client all route
    through here, so live and batch graphs can never drift:

    - ``add_edge u v [w]``: add ``w`` (default 1) to the multiplicity;
    - ``remove_edge u v``: delete the edge entirely (no-op if absent,
      and an absent edge's endpoints are *not* created);
    - ``reweight u v w``: set the multiplicity to ``w`` (0 removes).
    """
    op, u, v, amount = normalize_edit(edit)
    if op == "add_edge":
        graph.add_edge(u, v, amount)
    elif op == "remove_edge":
        graph.remove_edge(u, v)
    else:
        graph.set_weight(u, v, amount)
    return (op, u, v, amount)


def replay_edits(
    graph: WeightedGraph, edits: Iterable[Sequence[object]]
) -> WeightedGraph:
    """Apply ``edits`` to ``graph`` in order; returns the graph."""
    for edit in edits:
        apply_edit(graph, edit)
    return graph


def component_digest(
    edges: Sequence[Tuple[Node, Node, int]], nodes: Sequence[Node]
) -> str:
    """sha256 content key of one component's (sorted) edges and nodes.

    A pure function of the component's content, so a component that an
    edit stream tears down and later rebuilds identically resolves to
    the same key - and the cached reconstruction is reused.
    """
    blob = json.dumps([list(nodes), [list(e) for e in edges]],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class StreamingReconstructor:
    """Keep a reconstruction continuously equal to one-shot output.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.marioh.MARIOH` with
        ``phase2_scope="component"``, so that refreshes re-derive only
        the connected components an edit touched.
    graph:
        Optional initial projected graph (copied); default empty.
    max_cached_components:
        Bound on the component-result cache (LRU eviction).

    Notes
    -----
    The class is not thread-safe by itself; the daemon serializes all
    access through its single engine thread.

    The headline contract - for any edit sequence,
    ``engine.reconstruction()`` is byte-identical to
    ``model.reconstruct(g)`` where ``g`` is a fresh graph with the same
    edits replayed - is pinned by ``tests/test_streaming_parity.py``.
    """

    def __init__(
        self,
        model,
        graph: Optional[WeightedGraph] = None,
        max_cached_components: int = 1024,
    ) -> None:
        if not model.is_fitted:
            raise RuntimeError(
                "StreamingReconstructor needs a fitted model; call fit() "
                "or MARIOH.load() first"
            )
        if model.phase2_scope != "component":
            raise ValueError(
                f"StreamingReconstructor needs a model fitted with "
                f"phase2_scope='component', got {model.phase2_scope!r}"
            )
        if max_cached_components < 1:
            raise ValueError(
                f"max_cached_components must be >= 1, "
                f"got {max_cached_components}"
            )
        self.model = model
        self.graph = graph.copy() if graph is not None else WeightedGraph()
        self._max_cached = max_cached_components
        #: component content digest -> canonical [(members, mult), ...]
        self._cache: "OrderedDict[str, List[Tuple[List[Node], int]]]" = (
            OrderedDict()
        )
        #: smallest member -> (sorted members, canonical edge list) of
        #: every component in :attr:`_result`, and node -> that key.
        self._components: Dict[
            Node, Tuple[List[Node], List[Tuple[List[Node], int]]]
        ] = {}
        self._component_of: Dict[Node, Node] = {}
        #: nodes an edit touched since the last refresh, and the graph
        #: version the last apply() or refresh left; any other version
        #: means the graph was written behind apply()'s back.
        self._dirty: set = set()
        self._applied_version: int = self.graph.version
        self._result: Optional[Hypergraph] = None
        self._result_version: int = -1
        self.stats: Dict[str, int] = {
            "edits_applied": 0,
            "edits_add": 0,
            "edits_remove": 0,
            "edits_reweight": 0,
            "refresh_passes": 0,
            "component_reconstructs": 0,
            "component_cache_hits": 0,
            "engine_fallbacks": 0,
            "invariant_rebuilds": 0,
        }

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------
    def apply(self, edits: Iterable[Sequence[object]]) -> int:
        """Apply a batch of edits in order; returns how many applied.

        Every edit is validated *before* touching the graph (the whole
        batch is rejected atomically on a malformed entry), then applied
        through :func:`apply_edit`.  The memoized reconstruction is
        invalidated lazily - nothing is recomputed until the next
        :meth:`reconstruction` call, so bursts of edits between queries
        cost exactly one refresh.  The endpoints of every edit that
        changed the graph (and so are both in it) become dirty.
        """
        normalized = [normalize_edit(edit) for edit in edits]
        counters = {"add_edge": "edits_add", "remove_edge": "edits_remove",
                    "reweight": "edits_reweight"}
        graph = self.graph
        tracked = graph.version == self._applied_version
        for edit in normalized:
            before = graph.version
            apply_edit(graph, edit)
            if graph.version != before:
                self._dirty.update(edit[1:3])
            self.stats[counters[edit[0]]] += 1
        if tracked:
            self._applied_version = graph.version
        self.stats["edits_applied"] += len(normalized)
        return len(normalized)

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def reconstruction(self) -> Hypergraph:
        """The reconstruction of the current graph (refreshed if stale).

        Byte-identical to ``model.reconstruct()`` on an identical
        graph.  Clean calls (no edits since the last refresh) return
        the memoized hypergraph without touching the model.  A
        hypergraph once returned is never mutated: a refresh patches a
        copy of it.
        """
        graph = self.graph
        if self._result is not None and self._result_version == graph.version:
            return self._result
        self.stats["refresh_passes"] += 1
        if self._result is None or self._applied_version != graph.version:
            # Nothing to patch, or edits the dirty set never saw: derive
            # every component.
            self._components.clear()
            self._component_of.clear()
            result = self._patch(Hypergraph(), graph.nodes)
        else:
            result = self._patch(self._result.copy(), self._dirty)
        self._dirty = set()
        self._result = result
        self._result_version = self._applied_version = graph.version
        return result

    def _patch(self, result: Hypergraph, dirty: Iterable[Node]) -> Hypergraph:
        """Replace, in ``result``, every component holding a dirty node.

        Exact because a component with no dirty node kept every edge of
        every member, so it is still a whole component of the graph; and
        every component that changed - each piece of a split, every
        merge, every new one - holds a dirty node.  Clean components
        are counted as cache hits, so hits plus reconstructs per pass
        equal the number of components.
        """
        components, component_of = self._components, self._component_of
        stale = {component_of[node] for node in dirty if node in component_of}
        for key in stale:
            members, edges = components.pop(key)
            for node in members:
                del component_of[node]
            for edge_members, multiplicity in edges:
                result.remove(edge_members, multiplicity)
        derived = 0
        for start in sorted(dirty):
            result.add_node(start)
            if start in component_of or self.graph.degree(start) == 0:
                continue
            members, _ = next(connected_components(self.graph, [start]))
            edges = self._component_edges(members)
            components[members[0]] = (members, edges)
            for node in members:
                component_of[node] = members[0]
            for edge_members, multiplicity in edges:
                result.add(edge_members, multiplicity)
            derived += 1
        self.stats["component_cache_hits"] += len(components) - derived
        return result

    def digest(self) -> str:
        """sha256 identity of the current reconstruction."""
        return hypergraph_digest(self.reconstruction())

    def _component_edges(
        self, members: List[Node]
    ) -> List[Tuple[List[Node], int]]:
        """Canonical edge list of one component, via the LRU cache."""
        subgraph = self.graph.subgraph(members)
        edges = sorted(subgraph.edges_with_weights())
        key = component_digest(edges, members)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats["component_cache_hits"] += 1
            return cached
        self.stats["component_reconstructs"] += 1
        edge_list = canonical_edge_list(self.model.reconstruct(subgraph))
        if self.model.engine_fallback_ is not None:
            self.stats["engine_fallbacks"] += 1
        self._cache[key] = edge_list
        while len(self._cache) > self._max_cached:
            self._cache.popitem(last=False)
        return edge_list

    # ------------------------------------------------------------------
    # Self-audit
    # ------------------------------------------------------------------
    def check_invariants(self) -> Optional[str]:
        """Audit the live graph; degrade by rebuilding on violation.

        Runs the graph's own snapshot-coherence audit (the same check
        MARIOH's per-iteration engine degradation uses).  On violation
        the live graph is rebuilt from its edge list - discarding the
        possibly-corrupt snapshot and every derived cache - and the
        component memo is dropped, so the next refresh is a full pass
        from clean state.  Returns the violation description
        (after recovering) or ``None``.
        """
        violation = self.graph.check_snapshot_coherence()
        if violation is None:
            return None
        self.stats["invariant_rebuilds"] += 1
        self.graph = WeightedGraph.from_edges(
            self.graph.edges_with_weights(), nodes=self.graph.nodes
        )
        self._cache.clear()
        self._result = None
        self._result_version = -1
        return violation


def random_edit_stream(
    seed: int,
    n_edits: int,
    n_nodes: int = 24,
    max_weight: int = 4,
    p_add: float = 0.6,
    p_remove: float = 0.2,
) -> List[Edit]:
    """Seeded random edit stream shared by tests and benchmarks.

    A pure function of its arguments (seeded through
    :func:`repro.rng.derive_seed` with a domain tag, so it cannot alias
    any other subsystem's stream).  Removals and reweights are biased
    toward currently-live edges - the stream tracks a weight mirror -
    so streams exercise real structural churn (tombstones, slack
    inserts, vanishing components) instead of mostly no-op removals;
    some misses are kept on purpose (removing an absent edge must be a
    no-op end to end).  The remaining probability mass
    ``1 - p_add - p_remove`` goes to reweights, including occasional
    reweight-to-zero (a structural delete in disguise).
    """
    if n_nodes < 2:
        raise ValueError(f"need >= 2 nodes, got {n_nodes}")
    if not 0.0 <= p_add + p_remove <= 1.0:
        raise ValueError("p_add + p_remove must be within [0, 1]")
    rng = np.random.default_rng(
        derive_seed(seed, ("serve-edit-stream", n_edits, n_nodes))
    )
    weights: Dict[Tuple[Node, Node], int] = {}
    edits: List[Edit] = []
    for _ in range(n_edits):
        roll = rng.random()
        if weights and roll >= p_add and rng.random() < 0.8:
            # Target a live edge (deterministic pick from sorted keys).
            pairs = sorted(weights)
            u, v = pairs[int(rng.integers(len(pairs)))]
        else:
            u = int(rng.integers(n_nodes))
            v = int(rng.integers(n_nodes))
            if u == v:
                v = (v + 1) % n_nodes
            u, v = (u, v) if u < v else (v, u)
        if roll < p_add:
            amount = int(rng.integers(1, max_weight + 1))
            edit: Edit = ("add_edge", u, v, amount)
            weights[(u, v)] = weights.get((u, v), 0) + amount
        elif roll < p_add + p_remove:
            edit = ("remove_edge", u, v, 0)
            weights.pop((u, v), None)
        else:
            amount = int(rng.integers(0, max_weight + 1))
            edit = ("reweight", u, v, amount)
            if amount == 0:
                weights.pop((u, v), None)
            else:
                weights[(u, v)] = amount
        edits.append(edit)
    return edits
