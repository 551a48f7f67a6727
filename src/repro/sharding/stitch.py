"""Deterministic stitching of per-shard reconstructions.

The stitch has two jobs.  First, the cut: edges whose endpoints landed
in different shards were excluded from every shard's subgraph, so their
weight is still unconsumed.  They form the *boundary graph*, which is
reconstructed with the same fitted model - its cliques are scored
through the identical batched MHH / featurize kernels as every shard's,
so a boundary clique clears exactly the same bar it would have in an
unsharded run.  Second, the merge: hyperedge multisets are combined by
multiplicity addition (a commutative fold over a canonically sorted
edge list), so overlapping hyperedges - the same node set emitted by a
shard and by the boundary pass - accumulate multiplicity in a stable
order and the result is byte-identical regardless of which shard
finished first.

Weight conservation holds end to end: each shard's reconstruction
consumes exactly its intra-shard weight and the boundary pass consumes
exactly the cut weight, so ``project(stitched)`` equals the original
target graph - the same invariant unsharded ``reconstruct()``
guarantees.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

from repro.hypergraph.graph import Node, WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.sharding.plan import ShardPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.marioh import MARIOH


def canonical_edge_list(
    hypergraph: Hypergraph,
) -> List[Tuple[List[Node], int]]:
    """``[ (sorted members, multiplicity), ... ]`` in canonical order.

    Sorted by (size, members): the same content-based order the
    candidate pool uses, so two runs that produced the same multiset
    serialize to the same bytes.
    """
    return sorted(
        ((sorted(edge), multiplicity) for edge, multiplicity in hypergraph.items()),
        key=lambda entry: (len(entry[0]), entry[0]),
    )


def hypergraph_digest(hypergraph: Hypergraph) -> str:
    """sha256 over the canonical edge list - the reconstruction's identity."""
    canonical = json.dumps(
        canonical_edge_list(hypergraph), separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def boundary_graph(plan: ShardPlan) -> WeightedGraph:
    """The cut edges of ``plan`` as a weighted graph."""
    return WeightedGraph.from_edges(plan.boundary)


def stitch(
    model: "MARIOH",
    plan: ShardPlan,
    shard_edge_lists: Sequence[Iterable[Tuple[Sequence[Node], int]]],
    nodes: Iterable[Node],
) -> Tuple[Hypergraph, Dict[str, object]]:
    """Merge per-shard edge lists and the re-scored boundary cut.

    ``shard_edge_lists`` carries, per shard (ascending shard index),
    the ``(members, multiplicity)`` pairs its cell reconstructed.
    Returns the stitched hypergraph plus stitch telemetry
    (``stitch_seconds``, boundary sizes, the boundary pass's iteration
    count).
    """
    started = time.perf_counter()
    stitched = Hypergraph(nodes=nodes)
    for edge_list in shard_edge_lists:
        for members, multiplicity in edge_list:
            stitched.add(members, int(multiplicity))

    boundary_iterations = 0
    if plan.boundary:
        cut = boundary_graph(plan)
        # Plain (unsharded) reconstruction of the cut: its cliques are
        # scored through the same batched kernels as every shard's.
        boundary_reconstruction = model.reconstruct(cut)
        boundary_iterations = model.n_iterations_
        for edge, multiplicity in boundary_reconstruction.items():
            stitched.add(edge, multiplicity)

    stats: Dict[str, object] = {
        "stitch_seconds": time.perf_counter() - started,
        "boundary_edges": plan.n_boundary_edges,
        "boundary_weight": plan.boundary_weight,
        "boundary_iterations": boundary_iterations,
    }
    return stitched, stats
