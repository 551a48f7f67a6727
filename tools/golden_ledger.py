#!/usr/bin/env python
"""The golden ledger: sha256 hashes of the repo's fixed-seed outputs.

Every change to this repo promises that fixed-seed outputs stay
byte-identical unless it says otherwise.  ``tests/golden_ledger.json``
pins those outputs, one sha256 per entry:

- ``datasets/<name>/seed<s>/{hypergraph,timestamps,labels}``: each
  registry dataset generated at seeds 0-2, plus ``eu-x30`` (eu with
  nodes, interactions and communities x30) at seeds 0 and 3 and
  ``dblp-x5`` at seed 3, the inputs of the benchmark of record.  Each
  is hashed in iteration order, because that order reaches the
  projections built from it;
- ``project/<name>/seed<s>/target``: the projection of each generated
  dataset's time-split target, and ``project/chain-100k/seed3`` the
  100k-edge chained-clique graph, hashed as ``edges_with_weights()`` in
  iteration order (row order feeds the fit's negative sampling);
- ``reconstruct/<name>/<scope>/{sha256,multi_jaccard}``: each registry
  dataset reconstructed at seed 0 under both Phase-2 scopes by a model
  fitted on its source half (the multi-Jaccard is stored as a number);
- ``model/eu-x30/content_sha256``: the eu x30 seed-0 model, and
  ``reconstruct/chain-2k/<scope>/sha256`` a 2k-edge chain reconstructed
  with it.

Generated data depends on numpy's ``Generator`` streams, so the ledger
also records the numpy version it was written under: a mismatch after a
numpy upgrade points there rather than at a code change.

Usage (from the repository root)::

    python tools/golden_ledger.py           # rewrite the ledger
    python tools/golden_ledger.py --check   # list moved entries, exit 1

A change that moves outputs on purpose rewrites the ledger and says why;
the diff of the JSON then shows exactly which entries moved.
``tests/test_golden_ledger.py`` recomputes the ledger in tier-1.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

REPO_ROOT = Path(__file__).resolve().parent.parent
LEDGER_PATH = REPO_ROOT / "tests" / "golden_ledger.json"
SCHEMA = "repro-golden-ledger-v1"

if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.marioh import MARIOH  # noqa: E402
from repro.datasets.largescale import (  # noqa: E402
    LargeScaleConfig,
    chained_clique_projection,
)
from repro.datasets.registry import DATASETS  # noqa: E402
from repro.datasets.synthetic import generate_group_hypergraph  # noqa: E402
from repro.hypergraph.graph import WeightedGraph  # noqa: E402
from repro.hypergraph.hypergraph import Hypergraph  # noqa: E402
from repro.hypergraph.projection import project  # noqa: E402
from repro.hypergraph.split import split_source_target  # noqa: E402
from repro.metrics.jaccard import multi_jaccard_similarity  # noqa: E402
from repro.sharding.stitch import hypergraph_digest  # noqa: E402

Entry = Union[str, float]

REGISTRY_SEEDS = (0, 1, 2)
#: (ledger name, registry dataset, scale factor, seeds)
SCALED = (("eu-x30", "eu", 30, (0, 3)), ("dblp-x5", "dblp", 5, (3,)))
SCOPES = ("global", "component")


def _sha(value: object) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def graph_sha(graph) -> str:
    """A weighted graph in ``edges_with_weights()`` order, plus its nodes."""
    return _sha([list(graph.edges_with_weights()), sorted(graph.nodes)])


def scaled_config(name: str, factor: int):
    """A registry config with nodes, interactions and communities
    multiplied by ``factor`` (the benchmark's eu x30 and dblp x5)."""
    config = DATASETS[name].config
    return dataclasses.replace(
        config,
        n_nodes=config.n_nodes * factor,
        n_interactions=config.n_interactions * factor,
        n_communities=config.n_communities * factor,
    )


def _generation_entries(
    entries: Dict[str, Entry], label: str, config, seed: int
) -> Tuple[Hypergraph, Hypergraph, WeightedGraph]:
    """Hash one generation and its target projection; returns the source
    and target halves and the target's projection."""
    hypergraph, timestamps, labels = generate_group_hypergraph(config, seed=seed)
    prefix = f"datasets/{label}/seed{seed}"
    entries[f"{prefix}/hypergraph"] = _sha(
        [sorted(hypergraph.nodes),
         [[sorted(edge), m] for edge, m in hypergraph.items()]]
    )
    entries[f"{prefix}/timestamps"] = _sha(
        [[sorted(edge), t] for edge, t in timestamps.items()]
    )
    entries[f"{prefix}/labels"] = _sha(list(labels.items()))
    source, target = split_source_target(hypergraph, timestamps=timestamps)
    target_graph = project(target)
    entries[f"project/{label}/seed{seed}/target"] = graph_sha(target_graph)
    return source, target, target_graph


def _reconstruction_entries(
    entries: Dict[str, Entry],
    name: str,
    source: Hypergraph,
    target: Hypergraph,
    target_graph: WeightedGraph,
) -> None:
    """Fit on ``source`` at seed 0; reconstruct under both scopes."""
    model = MARIOH(seed=0).fit(source)
    for scope in SCOPES:
        # The fit does not read the scope; only reconstruct does.
        model.phase2_scope = scope
        reconstruction = model.reconstruct(target_graph)
        prefix = f"reconstruct/{name}/{scope}"
        entries[f"{prefix}/sha256"] = hypergraph_digest(reconstruction)
        entries[f"{prefix}/multi_jaccard"] = multi_jaccard_similarity(
            target, reconstruction
        )


def compute_entries() -> Dict[str, Entry]:
    """Recompute every ledger entry."""
    entries: Dict[str, Entry] = {}
    for name in sorted(DATASETS):
        for seed in REGISTRY_SEEDS:
            halves = _generation_entries(
                entries, name, DATASETS[name].config, seed
            )
            if seed == 0:
                _reconstruction_entries(entries, name, *halves)
    eu_source = None
    for label, name, factor, seeds in SCALED:
        for seed in seeds:
            source, _, _ = _generation_entries(
                entries, label, scaled_config(name, factor), seed
            )
            if label == "eu-x30" and seed == 0:
                eu_source = source
    entries["project/chain-100k/seed3"] = graph_sha(
        chained_clique_projection(LargeScaleConfig(n_edges=100_000), 3)
    )

    # The benchmark's model: MARIOH at seed 0 fitted on eu x30's source.
    model = MARIOH(seed=0).fit(eu_source)
    entries["model/eu-x30/content_sha256"] = model.content_sha256()
    chain = chained_clique_projection(LargeScaleConfig(n_edges=2_000), 0)
    for scope in SCOPES:
        model.phase2_scope = scope
        entries[f"reconstruct/chain-2k/{scope}/sha256"] = hypergraph_digest(
            model.reconstruct(chain)
        )
    return entries


def load_ledger() -> dict:
    ledger = json.loads(LEDGER_PATH.read_text(encoding="utf-8"))
    if ledger.get("schema") != SCHEMA:
        raise ValueError(f"{LEDGER_PATH}: not a {SCHEMA} file")
    return ledger


def write_ledger(entries: Dict[str, Entry]) -> None:
    ledger = {"schema": SCHEMA, "numpy": np.__version__, "entries": entries}
    text = json.dumps(ledger, indent=1, sort_keys=True) + "\n"
    LEDGER_PATH.write_text(text, encoding="utf-8")


def moved_entries(
    expected: Dict[str, Entry], actual: Dict[str, Entry]
) -> List[str]:
    """Names of entries that differ, appeared or disappeared, sorted."""
    names = expected.keys() | actual.keys()
    return sorted(n for n in names if expected.get(n) != actual.get(n))


def describe_moves(ledger: dict, actual: Dict[str, Entry]) -> str:
    """A report of every moved entry, naming both numpy versions."""
    expected = ledger["entries"]
    moved = moved_entries(expected, actual)
    lines = [
        f"{len(moved)} of {len(expected)} golden-ledger entries moved "
        f"(ledger written under numpy {ledger.get('numpy')}, "
        f"running numpy {np.__version__}):"
    ]
    for name in moved:
        lines.append(
            f"  {name}: {expected.get(name, '<absent>')} -> "
            f"{actual.get(name, '<absent>')}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with the committed ledger instead of rewriting it",
    )
    args = parser.parse_args(argv)
    entries = compute_entries()
    if not args.check:
        write_ledger(entries)
        print(f"wrote {len(entries)} entries to {LEDGER_PATH}")
        return 0
    ledger = load_ledger()
    if not moved_entries(ledger["entries"], entries):
        print(f"all {len(entries)} golden-ledger entries match")
        return 0
    print(describe_moves(ledger, entries))
    return 1


if __name__ == "__main__":
    sys.exit(main())
