"""JSON serialization for hypergraphs and weighted graphs.

The plain-text format (``repro.hypergraph.io``) is line-oriented and
diff-friendly; the JSON format here is for interchange with other tools
and for bundling metadata.  Schema::

    {"format": "repro-hypergraph", "version": 1,
     "nodes": [0, 1, ...],
     "edges": [{"nodes": [0, 1, 2], "multiplicity": 2}, ...]}

    {"format": "repro-graph", "version": 1,
     "nodes": [0, 1, ...],
     "edges": [{"u": 0, "v": 1, "weight": 3}, ...]}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph

PathLike = Union[str, Path]

HYPERGRAPH_FORMAT = "repro-hypergraph"
GRAPH_FORMAT = "repro-graph"
VERSION = 1


def hypergraph_to_dict(hypergraph: Hypergraph) -> dict:
    """JSON-serializable dict of a hypergraph (sorted, deterministic)."""
    return {
        "format": HYPERGRAPH_FORMAT,
        "version": VERSION,
        "nodes": sorted(hypergraph.nodes),
        "edges": [
            {"nodes": sorted(edge), "multiplicity": multiplicity}
            for edge, multiplicity in sorted(
                hypergraph.items(), key=lambda item: sorted(item[0])
            )
        ],
    }


def hypergraph_from_dict(payload: dict) -> Hypergraph:
    """Inverse of :func:`hypergraph_to_dict` with schema validation."""
    if payload.get("format") != HYPERGRAPH_FORMAT:
        raise ValueError(
            f"expected format {HYPERGRAPH_FORMAT!r}, got {payload.get('format')!r}"
        )
    if payload.get("version") != VERSION:
        raise ValueError(f"unsupported version {payload.get('version')!r}")
    hypergraph = Hypergraph(nodes=payload.get("nodes", ()))
    for entry in payload.get("edges", ()):
        hypergraph.add(entry["nodes"], entry.get("multiplicity", 1))
    return hypergraph


def graph_to_dict(graph: WeightedGraph) -> dict:
    """JSON-serializable dict of a weighted graph."""
    return {
        "format": GRAPH_FORMAT,
        "version": VERSION,
        "nodes": sorted(graph.nodes),
        "edges": [
            {"u": u, "v": v, "weight": w}
            for u, v, w in sorted(graph.edges_with_weights())
        ],
    }


def graph_from_dict(payload: dict) -> WeightedGraph:
    """Inverse of :func:`graph_to_dict` with schema validation."""
    if payload.get("format") != GRAPH_FORMAT:
        raise ValueError(
            f"expected format {GRAPH_FORMAT!r}, got {payload.get('format')!r}"
        )
    if payload.get("version") != VERSION:
        raise ValueError(f"unsupported version {payload.get('version')!r}")
    return WeightedGraph.from_edges(
        (
            (entry["u"], entry["v"], entry.get("weight", 1))
            for entry in payload.get("edges", ())
        ),
        nodes=payload.get("nodes", ()),
    )


def write_hypergraph_json(hypergraph: Hypergraph, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(hypergraph_to_dict(hypergraph), handle, indent=1)


def read_hypergraph_json(path: PathLike) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as handle:
        return hypergraph_from_dict(json.load(handle))


def write_graph_json(graph: WeightedGraph, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(graph_to_dict(graph), handle, indent=1)


def read_graph_json(path: PathLike) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return graph_from_dict(json.load(handle))
