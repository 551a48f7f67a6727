"""Plain-text IO for hypergraphs and weighted graphs.

Format choices follow the conventions of the public hypergraph benchmark
releases the paper draws from: one hyperedge per line as whitespace
separated node ids, with an optional trailing ``# m=<multiplicity>``
annotation; weighted edge lists are ``u v w`` triples.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.hypergraph.graph import WeightedGraph, check_increment
from repro.hypergraph.hypergraph import Hypergraph

PathLike = Union[str, Path]


def write_hypergraph(hypergraph: Hypergraph, path: PathLike) -> None:
    """Write one ``node node ... # m=<multiplicity>`` line per unique edge."""
    with open(path, "w", encoding="utf-8") as handle:
        for edge, multiplicity in sorted(
            hypergraph.items(), key=lambda item: sorted(item[0])
        ):
            nodes = " ".join(str(n) for n in sorted(edge))
            if multiplicity == 1:
                handle.write(f"{nodes}\n")
            else:
                handle.write(f"{nodes} # m={multiplicity}\n")


def read_hypergraph(path: PathLike) -> Hypergraph:
    """Parse the format produced by :func:`write_hypergraph`."""
    hypergraph = Hypergraph()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            multiplicity = 1
            if "#" in line:
                line, _, comment = line.partition("#")
                comment = comment.strip()
                if comment.startswith("m="):
                    try:
                        multiplicity = int(comment[2:])
                    except ValueError as exc:
                        raise ValueError(
                            f"{path}:{lineno}: bad multiplicity annotation {comment!r}"
                        ) from exc
            try:
                nodes = [int(token) for token in line.split()]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad node id in {line!r}") from exc
            if len(set(nodes)) < 2:
                raise ValueError(
                    f"{path}:{lineno}: hyperedge needs >= 2 distinct nodes"
                )
            hypergraph.add(nodes, multiplicity)
    return hypergraph


def write_weighted_graph(graph: WeightedGraph, path: PathLike) -> None:
    """Write one ``u v w`` line per edge (and ``u`` alone for isolates)."""
    with open(path, "w", encoding="utf-8") as handle:
        connected = set()
        for u, v, w in sorted(graph.edges_with_weights()):
            handle.write(f"{u} {v} {w}\n")
            connected.update((u, v))
        for node in sorted(set(graph.nodes) - connected):
            handle.write(f"{node}\n")


def read_weighted_graph(path: PathLike) -> WeightedGraph:
    """Parse the format produced by :func:`write_weighted_graph`.

    Nodes are listed to :meth:`WeightedGraph.from_edges` in order of
    first appearance, so the adjacency is the one a line-by-line
    ``add_node`` / ``add_edge`` replay would build.
    """
    nodes: Dict[int, None] = {}
    edges: List[Tuple[int, int, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            try:
                if len(tokens) == 1:
                    nodes[int(tokens[0])] = None
                elif len(tokens) in (2, 3):
                    u, v = int(tokens[0]), int(tokens[1])
                    w = int(tokens[2]) if len(tokens) == 3 else 1
                    check_increment(u, v, w)
                    nodes[u] = nodes[v] = None
                    edges.append((u, v, w))
                else:
                    raise ValueError("expected 1-3 tokens")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad line {line!r}") from exc
    return WeightedGraph.from_edges(edges, nodes)


def hypergraph_to_string(hypergraph: Hypergraph) -> str:
    """In-memory variant of :func:`write_hypergraph` (useful in tests)."""
    buffer = io.StringIO()
    for edge, multiplicity in sorted(
        hypergraph.items(), key=lambda item: sorted(item[0])
    ):
        nodes = " ".join(str(n) for n in sorted(edge))
        suffix = "" if multiplicity == 1 else f" # m={multiplicity}"
        buffer.write(f"{nodes}{suffix}\n")
    return buffer.getvalue()
