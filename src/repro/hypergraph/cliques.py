"""Maximal-clique enumeration (Bron-Kerbosch with pivoting).

The paper uses the same maximal-clique detection algorithm across all
methods for fairness (Sect. IV-A); we do the same by routing every method
through this module.  The implementation is the classic Bron-Kerbosch
algorithm [36] with Tomita-style pivot selection, written iteratively so
that deep recursion on large sparse graphs cannot hit Python's recursion
limit.
"""

from __future__ import annotations

from typing import (
    Callable,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
)

from repro.hypergraph.graph import Node, WeightedGraph, connected_components

Clique = FrozenSet[Node]


def is_clique(graph: WeightedGraph, nodes: Iterable[Node]) -> bool:
    """True iff every pair of distinct nodes is connected in ``graph``."""
    members = list(set(nodes))
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if not graph.has_edge(u, v):
                return False
    return True


def _pivot(candidates: Set[Node], excluded: Set[Node], adj) -> Node:
    """Tomita pivot: the vertex of P ∪ X with most neighbors inside P."""
    best, best_count = None, -1
    for u in candidates | excluded:
        count = len(candidates & adj(u))
        if count > best_count:
            best, best_count = u, count
    return best  # type: ignore[return-value]


def _bron_kerbosch(
    r: Set[Node], p: Set[Node], x: Set[Node], adj: Callable
) -> Iterator[Clique]:
    """Maximal cliques ``R ∪ C`` with ``C ⊆ P``, excluding those ``X``
    extends; only cliques of two or more nodes are reported.

    ``adj(u)`` returns ``u``'s neighbors as a set or a dict-keys view;
    the algorithm never mutates it.
    """
    if not p:
        if not x and len(r) >= 2:
            yield frozenset(r)
        return
    # Each stack frame is (R, P, X, iterator over pivot-excluded vertices).
    pivot = _pivot(p, x, adj)
    stack: List = [(r, p, x, iter(list(p - adj(pivot))))]
    while stack:
        r, p, x, vertices = stack[-1]
        advanced = False
        for v in vertices:
            if v not in p:
                continue
            neighbors = adj(v)
            new_p = p & neighbors
            new_x = x & neighbors
            p.discard(v)
            x.add(v)
            new_r = r | {v}
            if not new_p and not new_x:
                if len(new_r) >= 2:
                    yield frozenset(new_r)
                continue
            if not new_p:
                continue
            new_pivot = _pivot(new_p, new_x, adj)
            stack.append(
                (
                    new_r,
                    new_p,
                    new_x,
                    iter(list(new_p - adj(new_pivot))),
                )
            )
            advanced = True
            break
        if not advanced:
            stack.pop()


def maximal_cliques(graph: WeightedGraph) -> Iterator[Clique]:
    """Yield every maximal clique of ``graph`` as a frozenset, in no
    particular order (:func:`maximal_cliques_list` sorts).

    Isolated nodes are *not* reported (a clique needs at least one edge to
    matter for reconstruction); single edges are reported as size-2
    cliques when maximal.

    Each connected component is enumerated on its own.  A component of
    ``n`` nodes whose degrees sum to ``n(n - 1)`` is complete, so it is
    its own only maximal clique and needs no search; every other
    component runs Bron-Kerbosch with ``P`` = its nodes.
    """
    adj = None
    for members, n_edges in connected_components(graph, graph.nodes):
        n = len(members)
        if n < 2:
            continue
        if 2 * n_edges == n * (n - 1):
            yield frozenset(members)
            continue
        if adj is None:
            # The graph caches its neighbor sets (invalidated on
            # mutation), so repeated enumerations between mutations
            # share one snapshot.
            adj = graph.neighbor_sets().__getitem__
        yield from _bron_kerbosch(set(), set(members), set(), adj)


def maximal_cliques_through(
    graph: WeightedGraph, anchors: Iterable[Node]
) -> Iterator[Clique]:
    """Yield each maximal clique of ``graph`` holding an anchor, once.

    Anchored enumeration (Das, Svendsen & Tirthapura, "Incremental
    maintenance of maximal cliques in a dynamic graph", VLDB Journal
    2019): for each anchor ``a`` in sorted order, Bron-Kerbosch starts
    from ``R = {a}``, ``P = N(a)`` minus the earlier anchors and
    ``X`` = the earlier anchors in ``N(a)``, so a clique is reported at
    its smallest anchor only.  Reads live adjacency: no neighbor-set
    cache or subgraph is built, so the cost follows the anchors'
    neighborhoods, not the graph.
    """
    neighbor_weights = graph.neighbor_weights

    def adj(u: Node):
        return neighbor_weights(u).keys()

    earlier: Set[Node] = set()
    for anchor in sorted(set(anchors)):
        neighbors = set(adj(anchor))
        yield from _bron_kerbosch(
            {anchor}, neighbors - earlier, neighbors & earlier, adj
        )
        earlier.add(anchor)


def maximal_cliques_list(graph: WeightedGraph) -> List[Clique]:
    """Materialized :func:`maximal_cliques`, sorted for determinism."""
    return sorted(maximal_cliques(graph), key=lambda c: (len(c), sorted(c)))


def is_maximal_clique(graph: WeightedGraph, nodes: Iterable[Node]) -> bool:
    """True iff ``nodes`` is a clique no neighbor can extend.

    Reads live adjacency (the keys of each member's
    :meth:`~repro.hypergraph.graph.WeightedGraph.neighbor_weights`), so
    a check costs O(members' degrees) and never makes the graph build
    or rebuild a whole-graph neighbor-set cache.
    """
    members = list(dict.fromkeys(nodes))
    needed = len(members) - 1
    member_keys = []
    for u in members:
        adjacent = graph.neighbor_weights(u)
        if len(adjacent) < needed:
            return False  # cannot be adjacent to every other member
        member_keys.append(adjacent.keys())
    for i, u_keys in enumerate(member_keys):
        for v in members[i + 1 :]:
            if v not in u_keys:
                return False
    # A clique is maximal iff no outside vertex is adjacent to all
    # members; such a vertex lies in the intersection of every member's
    # neighborhood (which never contains a member itself).
    common: Optional[Set[Node]] = None
    for keys in member_keys:
        common = set(keys) if common is None else common & keys
        if not common:
            return True
    return not common


def cliques_containing_edge(
    graph: WeightedGraph, u: Node, v: Node
) -> Iterator[Clique]:
    """Maximal cliques of ``graph`` that contain the edge ``{u, v}``.

    Enumerates maximal cliques of the subgraph induced by the common
    neighborhood of u and v, extended by {u, v}.
    """
    if not graph.has_edge(u, v):
        return
    common = graph.common_neighbors(u, v)
    if not common:
        yield frozenset((u, v))
        return
    sub = graph.subgraph(common)
    seen_any = False
    for clique in maximal_cliques(sub):
        seen_any = True
        yield clique | {u, v}
    # Common neighbors that are isolated within the subgraph still extend
    # {u, v} to a triangle.
    covered = {z for z in common if any(graph.has_edge(z, w) for w in common if w != z)}
    for z in common - covered:
        seen_any = True
        yield frozenset((u, v, z))
    if not seen_any:
        yield frozenset((u, v))
