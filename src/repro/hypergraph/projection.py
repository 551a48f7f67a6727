"""Clique expansion: hypergraph -> weighted projected graph.

Implements the projection of Sect. II-A: ``E_G`` contains every node pair
co-appearing in at least one hyperedge, and the weight ``w_uv`` counts the
hyperedges (with hyperedge multiplicity) containing both endpoints.
"""

from __future__ import annotations

from itertools import combinations

from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph


def project(hypergraph: Hypergraph) -> WeightedGraph:
    """Clique-expand ``hypergraph`` into its weighted projected graph.

    Every hyperedge of size k contributes +M_H(e) to the weight of each of
    its C(k, 2) node pairs.  Isolated nodes of the hypergraph are kept.
    """
    return WeightedGraph.from_edges(
        (
            (u, v, multiplicity)
            for edge, multiplicity in hypergraph.items()
            for u, v in combinations(sorted(edge), 2)
        ),
        nodes=hypergraph.nodes,
    )


def unweighted_projection(hypergraph: Hypergraph) -> WeightedGraph:
    """Projection with all edge weights forced to 1.

    This is the input available to multiplicity-oblivious baselines
    (SHyRe's main setting, Bayesian-MDL, community detection methods).
    """
    # Each pair once, in first-occurrence order.
    pairs = dict.fromkeys(
        pair for edge in hypergraph for pair in combinations(sorted(edge), 2)
    )
    return WeightedGraph.from_edges(
        ((u, v, 1) for u, v in pairs), nodes=hypergraph.nodes
    )
