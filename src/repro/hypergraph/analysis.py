"""General hypergraph analysis utilities.

Library-level tools a downstream adopter expects alongside the
reconstruction stack: connectivity, the line graph and dual, k-core
style pruning, and neighborhood queries.  All operate on unique
hyperedges unless stated otherwise.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Edge, Hypergraph


def node_neighbors(hypergraph: Hypergraph, node: int) -> Set[int]:
    """Nodes co-appearing with ``node`` in at least one hyperedge."""
    neighbors: Set[int] = set()
    for edge in hypergraph.incident_edges(node):
        neighbors.update(edge)
    neighbors.discard(node)
    return neighbors


def connected_components(hypergraph: Hypergraph) -> List[FrozenSet[int]]:
    """Connected components over hyperedge co-membership.

    Isolated nodes form singleton components.  Returned sorted by
    (size desc, smallest member) for determinism.
    """
    parent: Dict[int, int] = {node: node for node in hypergraph.nodes}

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for edge in hypergraph:
        members = sorted(edge)
        for other in members[1:]:
            union(members[0], other)

    groups: Dict[int, Set[int]] = {}
    for node in hypergraph.nodes:
        groups.setdefault(find(node), set()).add(node)
    return sorted(
        (frozenset(group) for group in groups.values()),
        key=lambda component: (-len(component), min(component)),
    )


def is_connected(hypergraph: Hypergraph) -> bool:
    """True when all nodes sit in one co-membership component."""
    components = connected_components(hypergraph)
    return len(components) <= 1


def line_graph(hypergraph: Hypergraph) -> WeightedGraph:
    """The line graph: one node per unique hyperedge (indexed by sorted
    order), edges weighted by intersection size."""
    edges: List[Edge] = sorted(hypergraph.edges(), key=sorted)
    by_node: Dict[int, List[int]] = {}
    for index, edge in enumerate(edges):
        for node in edge:
            by_node.setdefault(node, []).append(index)
    weights: Dict[tuple, int] = {}
    for indices in by_node.values():
        for i, a in enumerate(indices):
            for b in indices[i + 1 :]:
                key = (a, b) if a < b else (b, a)
                weights[key] = weights.get(key, 0) + 1
    return WeightedGraph.from_edges(
        ((a, b, shared) for (a, b), shared in weights.items()),
        nodes=range(len(edges)),
    )


def dual_hypergraph(hypergraph: Hypergraph) -> Hypergraph:
    """The dual: nodes become hyperedges and vice versa.

    Node ``u``'s dual hyperedge is the set of indices (sorted-order) of
    the unique hyperedges containing ``u``; nodes in fewer than two
    hyperedges contribute no dual edge (duals need >= 2 members).
    """
    edges: List[Edge] = sorted(hypergraph.edges(), key=sorted)
    index_of = {edge: i for i, edge in enumerate(edges)}
    dual = Hypergraph(nodes=range(len(edges)))
    for node in sorted(hypergraph.nodes):
        incident = [index_of[edge] for edge in hypergraph.incident_edges(node)]
        if len(incident) >= 2:
            dual.add(incident)
    return dual


def degree_core(hypergraph: Hypergraph, k: int) -> Hypergraph:
    """The k-core: iteratively drop nodes with unique-degree < k.

    Hyperedges shrink-by-removal is *not* performed (a hyperedge either
    survives intact or disappears when it loses a member), matching the
    strong-deletion convention of hypergraph cores.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    surviving = set(hypergraph.edges())
    while True:
        degree: Dict[int, int] = {}
        for edge in surviving:
            for node in edge:
                degree[node] = degree.get(node, 0) + 1
        weak = {node for node, d in degree.items() if d < k}
        if not weak:
            break
        next_surviving = {
            edge for edge in surviving if not (edge & weak)
        }
        if next_surviving == surviving:
            break
        surviving = next_surviving

    core = Hypergraph()
    for edge in surviving:
        core.add(edge, hypergraph.multiplicity(edge))
    return core
