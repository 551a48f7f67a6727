"""Deterministic graph partitioning: the :class:`ShardPlan`.

The plan is computed *up front*, before any reconstruction work starts
(the pyoptsparse idiom: declare the sparse block structure, then fill
it).  It is an explicit, serializable value - shard memberships, the
boundary-edge cut set, per-shard edge counts, and a content hash - so
per-shard results can be keyed by the plan they belong to and a
checkpoint can never be resumed against a different partitioning.

Partitioning runs in two stages:

1. **Connected components.**  Components never share edges, so they are
   the free parallelism: components that fit the ``max_shard_edges``
   budget are packed whole into shards (first-fit in ascending
   min-node order), contributing *zero* boundary edges.
2. **Seeded refinement of oversized components.**  A component over
   budget is split by greedy weighted region growing: each part starts
   from the heaviest remaining node and repeatedly absorbs the
   frontier node with the largest attachment weight to the part (a
   local min-cut heuristic - heavy edges are pulled inside, light
   edges are left on the cut), stopping just before the part would
   exceed the budget.  All tie-breaks hash the node's *rank* in the
   sorted node order through a SplitMix64 stream keyed by the plan
   seed, so the plan is a pure function of ``(graph, budget, seed)``
   and equivariant under order-preserving relabelings of the nodes.

Every decision is keyed by node rank / weight structure - never by
iteration order of a set or dict - which is what makes the plan
byte-identical across re-runs, worker counts, and platforms.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hypergraph.graph import Node, WeightedGraph, connected_components
from repro.rng import mix64, mix_tokens


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """An explicit partitioning of a weighted graph into shards.

    ``shards`` holds each shard's sorted node tuple (shards ordered by
    their smallest node); ``boundary`` the sorted ``(u, v, weight)``
    cut edges whose endpoints landed in different shards;
    ``shard_edge_counts`` the number of intra-shard edges per shard
    (each guaranteed ``<= max_shard_edges``).  ``seed`` keys the
    refinement tie-break stream; ``n_nodes`` / ``n_edges`` pin the
    input's size so a plan cannot silently be applied to a different
    graph.
    """

    shards: Tuple[Tuple[Node, ...], ...]
    boundary: Tuple[Tuple[Node, Node, int], ...]
    shard_edge_counts: Tuple[int, ...]
    max_shard_edges: int
    seed: int
    n_nodes: int
    n_edges: int

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_boundary_edges(self) -> int:
        return len(self.boundary)

    @property
    def boundary_weight(self) -> int:
        return sum(weight for _, _, weight in self.boundary)

    @property
    def plan_hash(self) -> str:
        """sha256 of the canonical JSON serialization - the plan's identity."""
        canonical = json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def shard_of(self) -> Dict[Node, int]:
        """Node -> shard-index lookup (rebuilt on demand)."""
        lookup: Dict[Node, int] = {}
        for index, members in enumerate(self.shards):
            for node in members:
                lookup[node] = index
        return lookup

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "shards": [list(members) for members in self.shards],
            "boundary": [list(edge) for edge in self.boundary],
            "shard_edge_counts": list(self.shard_edge_counts),
            "max_shard_edges": self.max_shard_edges,
            "seed": self.seed,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ShardPlan":
        return cls(
            shards=tuple(
                tuple(int(node) for node in members)
                for members in payload["shards"]
            ),
            boundary=tuple(
                (int(u), int(v), int(w)) for u, v, w in payload["boundary"]
            ),
            shard_edge_counts=tuple(
                int(count) for count in payload["shard_edge_counts"]
            ),
            max_shard_edges=int(payload["max_shard_edges"]),
            seed=int(payload["seed"]),
            n_nodes=int(payload["n_nodes"]),
            n_edges=int(payload["n_edges"]),
        )

    def to_json(self, path) -> None:
        # dumps, not dump: json.dump always takes the pure-Python
        # encoder, whose closures leave a reference cycle per call.
        text = json.dumps(self.as_dict(), sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)

    @classmethod
    def from_json(cls, path) -> "ShardPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


# ----------------------------------------------------------------------
def _tie_salts(seed: int, n_nodes: int) -> List[int]:
    """``mix_tokens(seed, ("shard-tie", rank))`` for every rank below
    ``n_nodes``, as one table.

    The fold of ``seed`` and the tag is the same for every rank, and
    the rank is only the last SplitMix64 round, so the whole table is
    one vectorized round over ``arange(n_nodes)``.
    """
    prefix = np.uint64(mix_tokens(seed, ("shard-tie",)))
    return mix64(prefix ^ np.arange(n_nodes, dtype=np.uint64)).tolist()


def _split_component(
    graph: WeightedGraph,
    component: Sequence[Node],
    budget: int,
    salts: Sequence[int],
    rank: Dict[Node, int],
) -> List[Tuple[Node, ...]]:
    """Greedy weighted region growing of one oversized component.

    Frontier candidates are kept in a lazy-deletion heap keyed by
    ``(-attachment_weight, salted_rank, rank)``, the salted rank being
    ``salts[rank]`` (see :func:`_tie_salts`); stale entries (the
    node was absorbed, or its attachment grew since the push) are
    skipped on pop.  A part closes when its best candidate would push
    it past ``budget`` intra-part edges, so every emitted part
    honors the budget by construction (a lone node has zero).
    """

    def salt(node: Node) -> int:
        return salts[rank[node]]

    remaining = set(component)
    start_heap = [
        (-graph.weighted_degree(node), salt(node), rank[node], node)
        for node in component
    ]
    heapq.heapify(start_heap)
    parts: List[Tuple[Node, ...]] = []
    while remaining:
        while start_heap and start_heap[0][3] not in remaining:
            heapq.heappop(start_heap)
        start = heapq.heappop(start_heap)[3]
        remaining.discard(start)
        part = {start}
        part_edges = 0
        attach: Dict[Node, int] = {}
        links: Dict[Node, int] = {}
        frontier: List[Tuple[int, int, int, Node]] = []

        def absorb(absorbed: Node) -> None:
            for neighbor, weight in graph.neighbor_weights(absorbed).items():
                if neighbor in remaining:
                    attach[neighbor] = attach.get(neighbor, 0) + weight
                    links[neighbor] = links.get(neighbor, 0) + 1
                    heapq.heappush(
                        frontier,
                        (
                            -attach[neighbor],
                            salt(neighbor),
                            rank[neighbor],
                            neighbor,
                        ),
                    )

        absorb(start)
        while frontier:
            negative_attach, _, _, candidate = heapq.heappop(frontier)
            if candidate not in remaining or -negative_attach != attach[candidate]:
                continue
            if part_edges + links[candidate] > budget:
                break
            remaining.discard(candidate)
            part.add(candidate)
            part_edges += links[candidate]
            absorb(candidate)
        parts.append(tuple(sorted(part)))
    return parts


def partition(
    graph: WeightedGraph, max_shard_edges: int, seed: int = 0
) -> ShardPlan:
    """Partition ``graph`` into shards of at most ``max_shard_edges`` edges.

    A pure function of ``(graph, max_shard_edges, seed)``: the returned
    :class:`ShardPlan` is byte-identical across re-runs and equivariant
    under order-preserving node relabelings (see the module docstring).
    Components that fit the budget are packed whole (no cut edges);
    only oversized components contribute boundary edges.
    """
    if max_shard_edges < 1:
        raise ValueError(
            f"max_shard_edges must be >= 1, got {max_shard_edges}"
        )
    nodes = sorted(graph.nodes)
    rank = {node: position for position, node in enumerate(nodes)}
    salts: Optional[List[int]] = None  # built at the first split

    shards: List[Tuple[Node, ...]] = []
    bin_nodes: List[Node] = []
    bin_edges = 0
    for component, edges in connected_components(graph, nodes):
        if edges > max_shard_edges:
            if salts is None:
                salts = _tie_salts(seed, len(nodes))
            shards.extend(
                _split_component(graph, component, max_shard_edges, salts, rank)
            )
            continue
        # First-fit packing of whole (in-budget) components, in
        # ascending min-node order: boundary-free by construction.
        if bin_nodes and bin_edges + edges > max_shard_edges:
            shards.append(tuple(bin_nodes))
            bin_nodes, bin_edges = [], 0
        bin_nodes.extend(component)
        bin_edges += edges
    if bin_nodes:
        shards.append(tuple(bin_nodes))

    shards.sort(key=lambda members: members[0])
    shard_of = {
        node: index
        for index, members in enumerate(shards)
        for node in members
    }
    boundary: List[Tuple[Node, Node, int]] = []
    edge_counts = [0] * len(shards)
    for u, v, weight in graph.edges_with_weights():
        su, sv = shard_of[u], shard_of[v]
        if su == sv:
            edge_counts[su] += 1
        else:
            boundary.append((u, v, weight) if u < v else (v, u, weight))
    boundary.sort()

    return ShardPlan(
        shards=tuple(shards),
        boundary=tuple(boundary),
        shard_edge_counts=tuple(edge_counts),
        max_shard_edges=max_shard_edges,
        seed=seed,
        n_nodes=graph.num_nodes,
        n_edges=graph.num_edges,
    )
