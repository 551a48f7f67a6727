"""Theoretically-guaranteed size-2 hyperedge filtering (Algorithm 2).

For an edge ``{u, v}`` of the projected graph, every higher-order
hyperedge (size >= 3) containing both u and v must also contain some
common neighbor ``z``, and contributes one unit to *both* ``w_uz`` and
``w_vz``.  Hence

    MHH(u, v) = sum_{z in N(u) ∩ N(v)} min(w_uz, w_vz)        (Eq. 1)

upper-bounds the number of higher-order hyperedges through ``{u, v}``
(Lemma 1), so the residual ``r_uv = w_uv - MHH(u, v)``, when positive,
lower-bounds the number of pure size-2 hyperedges ``{u, v}`` (Lemma 2).
The filter adds those guaranteed size-2 hyperedges to the reconstruction
and strips their weight from the graph.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.hypergraph.graph import Node, WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph


def mhh(graph: WeightedGraph, u: Node, v: Node) -> int:
    """Eq. (1): the maximum number of higher-order hyperedges over {u, v}."""
    weights_u = graph.neighbor_weights(u)
    weights_v = graph.neighbor_weights(v)
    if len(weights_u) > len(weights_v):
        weights_u, weights_v = weights_v, weights_u
    return sum(
        min(w_uz, weights_v[z]) for z, w_uz in weights_u.items() if z in weights_v
    )


def residual_multiplicity(graph: WeightedGraph, u: Node, v: Node) -> int:
    """``r_uv = w_uv - MHH(u, v)``; positive values certify size-2 edges."""
    return graph.weight(u, v) - mhh(graph, u, v)


def filter_guaranteed_pairs(
    graph: WeightedGraph, reconstruction: Hypergraph
) -> Tuple[WeightedGraph, Hypergraph]:
    """Algorithm 2: extract provable size-2 hyperedges.

    Returns the intermediate graph ``G'`` (a modified *copy* of ``graph``)
    and the updated reconstruction.  For every edge with positive residual
    ``r_uv``, the pair ``{u, v}`` enters the reconstruction with
    multiplicity ``r_uv`` and its weight is reduced accordingly; edges
    that drop to weight zero disappear.

    MHH values are computed against the *input* graph (as in the paper's
    pseudocode, line 3 reads ``G``'s weights), then applied to the copy.
    All residuals come from one vectorized batch-MHH pass over the CSR
    snapshot instead of E independent :func:`mhh` calls; the per-edge
    updates commute, so the result is independent of edge order.
    """
    intermediate = graph.copy()
    snapshot = graph.snapshot()
    if len(snapshot.keys) == 0:
        return intermediate, reconstruction
    rows = snapshot.keys // snapshot.key_base
    cols = snapshot.keys % snapshot.key_base
    # Each undirected edge once; the alive mask skips the slots of
    # pairs a decrement emptied since the snapshot was built.
    upper = (rows < cols) & snapshot.alive
    a, b, weights = rows[upper], cols[upper], snapshot.wts[upper]
    residuals = weights - snapshot.batch_mhh(a, b)
    node_ids = snapshot.node_ids
    for i in np.flatnonzero(residuals > 0):
        u, v = int(node_ids[a[i]]), int(node_ids[b[i]])
        residual = int(residuals[i])
        reconstruction.add((u, v), multiplicity=residual)
        intermediate.decrement_edge(u, v, residual)
    return intermediate, reconstruction
