"""Hashed dataset manifests and deterministic bundle serialization.

Every registry dataset is summarized by a *manifest*: the sha256 of its
generator config (the "what would be generated"), the sha256 of the
generated bundle bytes at a given seed (the "what actually was"), sizes
of each piece, and a schema tag.  The same canonical byte encoding is
what the artifact store caches under ``kind="bundle"``, so a warm
``datasets.load`` round-trips through bytes whose hash the manifest
records - any BENCH number is auditable back to these hashes.

Serialization is fully deterministic: nodes and edges are sorted, floats
go through ``repr``-exact JSON, and dict keys are ordered - the same
bundle always encodes to the same bytes.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.datasets.registry import DATASETS, DatasetBundle, DatasetSpec
from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.store.atomic import sha256_bytes
from repro.store.artifacts import config_hash

#: schema tag of the canonical bundle encoding; bump on layout change so
#: old cached bundles stop matching and are regenerated.
BUNDLE_SCHEMA = "repro-bundle-v1"


# ----------------------------------------------------------------------
# Canonical payloads
# ----------------------------------------------------------------------
def hypergraph_payload(hypergraph: Hypergraph) -> Dict[str, object]:
    """Sorted, JSON-able encoding of a hypergraph (nodes + multiset)."""
    return {
        "nodes": sorted(hypergraph.nodes),
        "edges": sorted(
            [sorted(edge), int(count)] for edge, count in hypergraph.items()
        ),
    }


def hypergraph_from_payload(payload: Dict[str, object]) -> Hypergraph:
    hypergraph = Hypergraph(nodes=payload["nodes"])
    for members, count in payload["edges"]:
        hypergraph.add(members, multiplicity=int(count))
    return hypergraph


def graph_payload(graph: WeightedGraph) -> Dict[str, object]:
    """Sorted, JSON-able encoding of a weighted graph."""
    return {
        "nodes": sorted(graph.nodes),
        "edges": sorted(
            [u, v, int(w)] for u, v, w in graph.edges_with_weights()
        ),
    }


def graph_from_payload(payload: Dict[str, object]) -> WeightedGraph:
    return WeightedGraph.from_edges(
        ((u, v, int(w)) for u, v, w in payload["edges"]),
        nodes=payload["nodes"],
    )


#: (payload field, bundle attribute) of every hypergraph in a bundle.
_HYPERGRAPH_FIELDS = (
    "hypergraph",
    "source_hypergraph",
    "target_hypergraph",
    "target_hypergraph_reduced",
)
_GRAPH_FIELDS = ("source_graph", "target_graph", "target_graph_reduced")


def bundle_payload(bundle: DatasetBundle) -> Dict[str, object]:
    """The canonical JSON-able encoding of a whole dataset bundle."""
    payload: Dict[str, object] = {
        "schema": BUNDLE_SCHEMA,
        "name": bundle.name,
        "domain": bundle.domain,
    }
    for field in _HYPERGRAPH_FIELDS:
        payload[field] = hypergraph_payload(getattr(bundle, field))
    for field in _GRAPH_FIELDS:
        payload[field] = graph_payload(getattr(bundle, field))
    payload["labels"] = (
        sorted([node, label] for node, label in bundle.labels.items())
        if bundle.labels is not None
        else None
    )
    return payload


def bundle_from_payload(payload: Dict[str, object]) -> DatasetBundle:
    if payload.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(
            f"unsupported bundle schema {payload.get('schema')!r}; "
            f"expected {BUNDLE_SCHEMA!r}"
        )
    kwargs: Dict[str, object] = {
        "name": payload["name"],
        "domain": payload["domain"],
    }
    for field in _HYPERGRAPH_FIELDS:
        kwargs[field] = hypergraph_from_payload(payload[field])
    for field in _GRAPH_FIELDS:
        kwargs[field] = graph_from_payload(payload[field])
    labels = payload.get("labels")
    kwargs["labels"] = (
        {node: label for node, label in labels} if labels is not None else None
    )
    return DatasetBundle(**kwargs)


def bundle_to_bytes(bundle: DatasetBundle) -> bytes:
    """Deterministic bytes of a bundle (what the store caches)."""
    return json.dumps(
        bundle_payload(bundle), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def bundle_from_bytes(data: bytes) -> DatasetBundle:
    return bundle_from_payload(json.loads(data.decode("utf-8")))


# ----------------------------------------------------------------------
# Hashes and manifests
# ----------------------------------------------------------------------
def spec_config_hash(spec: DatasetSpec) -> str:
    """Hex sha256 of a dataset spec's generator configuration.

    The *input* half of the bundle store key: covers every generator
    knob plus the encoding schema, so a config tweak or an encoding
    change regenerates instead of reusing stale bytes.
    """
    return config_hash(
        {
            "schema": BUNDLE_SCHEMA,
            "name": spec.name,
            "has_labels": spec.has_labels,
            "config": dataclasses.asdict(spec.config),
        }
    )


def bundle_sha256(bundle: DatasetBundle) -> str:
    """Hex sha256 of a bundle's canonical byte encoding."""
    return sha256_bytes(bundle_to_bytes(bundle))


def hypergraph_sha256(hypergraph: Hypergraph) -> str:
    """Hex sha256 of a hypergraph's canonical byte encoding.

    The *input* half of the fitted-model store key: two hypergraphs
    hash equal exactly when they compare equal, regardless of insertion
    order.
    """
    data = json.dumps(
        hypergraph_payload(hypergraph), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return sha256_bytes(data)


def dataset_manifest(
    name: str, seed: int = 0, bundle: Optional[DatasetBundle] = None
) -> Dict[str, object]:
    """The hashed manifest of one ``(dataset, seed)`` pair.

    Generates the bundle (unless one is passed in) and records the spec
    config hash, the generated-bundle sha256 and byte size, and the node
    and edge counts of every piece.
    """
    from repro.datasets import registry

    spec = DATASETS[name.lower()]
    if bundle is None:
        bundle = registry.load(name, seed=seed, store=False)
    data = bundle_to_bytes(bundle)
    return {
        "schema": BUNDLE_SCHEMA,
        "name": spec.name,
        "domain": spec.domain,
        "seed": seed,
        "config_hash": spec_config_hash(spec),
        "bundle_sha256": sha256_bytes(data),
        "n_bytes": len(data),
        "sizes": {
            "nodes": bundle.hypergraph.num_nodes,
            "hyperedges": bundle.hypergraph.num_unique_edges,
            "hyperedges_multi": bundle.hypergraph.num_edges_with_multiplicity,
            "source_hyperedges": bundle.source_hypergraph.num_unique_edges,
            "target_hyperedges": bundle.target_hypergraph.num_unique_edges,
            "target_edges": bundle.target_graph.num_edges,
            "target_edges_reduced": bundle.target_graph_reduced.num_edges,
        },
    }


def registry_manifest(
    names: Optional[Iterable[str]] = None, seed: int = 0
) -> Dict[str, object]:
    """Manifests of every (or the named) registry dataset at ``seed``."""
    selected = sorted(names) if names is not None else sorted(DATASETS)
    return {
        "schema": BUNDLE_SCHEMA,
        "seed": seed,
        "datasets": {name: dataset_manifest(name, seed=seed) for name in selected},
    }
