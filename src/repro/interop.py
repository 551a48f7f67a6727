"""NetworkX interoperability.

The library's internal structures are self-contained (the paper requires
the *same* maximal-clique routine across all methods, so we ship our
own), but downstream users live in the NetworkX ecosystem.  These
converters translate both directions without information loss: edge
multiplicities ride on the ``weight`` attribute, hyperedges on bipartite
"hyperedge nodes" (the standard NetworkX encoding of hypergraphs).
"""

from __future__ import annotations

from typing import Tuple

import networkx as nx

from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph


def to_networkx(graph: WeightedGraph) -> "nx.Graph":
    """Convert a :class:`WeightedGraph` to ``nx.Graph`` with weights."""
    result = nx.Graph()
    result.add_nodes_from(graph.nodes)
    for u, v, w in graph.edges_with_weights():
        result.add_edge(u, v, weight=w)
    return result


def from_networkx(graph: "nx.Graph") -> WeightedGraph:
    """Convert an ``nx.Graph`` to :class:`WeightedGraph`.

    Missing ``weight`` attributes default to 1; non-integer weights are
    rejected because edge multiplicities are counts.
    """

    def triples():
        for u, v, data in graph.edges(data=True):
            weight = data.get("weight", 1)
            if int(weight) != weight or weight < 1:
                raise ValueError(
                    f"edge ({u}, {v}) weight {weight!r} is not a positive "
                    "integer multiplicity"
                )
            yield u, v, int(weight)

    return WeightedGraph.from_edges(triples(), nodes=graph.nodes)


def hypergraph_to_bipartite(
    hypergraph: Hypergraph, edge_prefix: str = "e"
) -> Tuple["nx.Graph", dict]:
    """Encode a hypergraph as a bipartite NetworkX graph.

    Nodes keep their ids; each unique hyperedge becomes a node named
    ``f"{edge_prefix}{i}"`` carrying a ``multiplicity`` attribute.
    Returns ``(bipartite_graph, {edge_node_name: frozenset})``.
    """
    result = nx.Graph()
    result.add_nodes_from(hypergraph.nodes, bipartite=0)
    mapping = {}
    for index, (edge, multiplicity) in enumerate(
        sorted(hypergraph.items(), key=lambda item: sorted(item[0]))
    ):
        name = f"{edge_prefix}{index}"
        mapping[name] = edge
        result.add_node(name, bipartite=1, multiplicity=multiplicity)
        for node in edge:
            result.add_edge(name, node)
    return result, mapping


def bipartite_to_hypergraph(graph: "nx.Graph") -> Hypergraph:
    """Decode the bipartite encoding back into a :class:`Hypergraph`."""
    hypergraph = Hypergraph(
        nodes=(
            n for n, d in graph.nodes(data=True) if d.get("bipartite", 0) == 0
        )
    )
    for node, data in graph.nodes(data=True):
        if data.get("bipartite", 0) != 1:
            continue
        members = list(graph.neighbors(node))
        hypergraph.add(members, multiplicity=int(data.get("multiplicity", 1)))
    return hypergraph
