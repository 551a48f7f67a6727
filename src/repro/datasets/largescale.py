"""Million-edge synthetic projections for sharded-reconstruction tests.

The group-interaction generator in :mod:`repro.datasets.synthetic`
materializes the full hypergraph (and its history) in memory, which is
exactly what a scalability benchmark must avoid.  This generator builds
the *projected graph* directly, edge by edge, as a chain of planted
clique blocks:

- each block is a clique of ``min_block_size..max_block_size`` nodes
  (the size drawn from a SplitMix64 stream keyed by the block index, so
  the graph is a pure function of ``(config, seed)`` - no sequential
  RNG state);
- consecutive blocks are joined by one light bridge edge, making the
  graph connected but trivially separable: the partitioner's weighted
  region growing leaves bridges on the cut, so boundary size stays a
  tiny fraction of the total.

Because every block is a genuine clique, reconstruction behaves like it
does on real projections (cliques convert to hyperedges and consume
their weight), while the block chain gives the partitioner the
structure the paper's million-edge scaling argument assumes.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Tuple

from repro.hypergraph.graph import WeightedGraph
from repro.rng import MASK64, mix64_int, mix_tokens


@dataclasses.dataclass(frozen=True)
class LargeScaleConfig:
    """Parameters of the chained-clique projection generator.

    ``n_edges`` is a floor: generation emits whole blocks until the
    running edge count reaches it, so the result overshoots by at most
    one block (``max_block_size`` choose 2 edges plus a bridge).
    """

    n_edges: int
    min_block_size: int = 5
    max_block_size: int = 9
    bridge_weight: int = 1

    def validate(self) -> None:
        if self.n_edges < 1:
            raise ValueError(f"n_edges must be >= 1, got {self.n_edges}")
        if not 3 <= self.min_block_size <= self.max_block_size:
            raise ValueError(
                "need 3 <= min_block_size <= max_block_size, got "
                f"[{self.min_block_size}, {self.max_block_size}]"
            )
        if self.bridge_weight < 1:
            raise ValueError(
                f"bridge_weight must be >= 1, got {self.bridge_weight}"
            )


def chained_clique_projection(
    config: LargeScaleConfig, seed: int = 0
) -> WeightedGraph:
    """Generate the chained-clique projected graph for ``config``.

    Deterministic: block sizes are counter-based hashes of the block
    index under ``seed``, so the same arguments always produce the
    byte-identical graph - across runs, platforms, and processes.
    """
    config.validate()
    return WeightedGraph.from_edges(_chain_edges(config, seed))


def _chain_edges(
    config: LargeScaleConfig, seed: int
) -> Iterator[Tuple[int, int, int]]:
    """The blocks' pairs and the bridges, in block order."""
    span = config.max_block_size - config.min_block_size + 1
    # mix_tokens(seed, ("largescale-block", block)) folds the tag first,
    # so its state after the tag is shared by every block.
    tagged = mix_tokens(seed, ("largescale-block",))
    next_node = 0
    previous_anchor = None
    block = 0
    edges = 0
    while edges < config.n_edges:
        size = config.min_block_size + (
            mix64_int(tagged ^ (block & MASK64)) % span
        )
        end = next_node + size
        for i in range(next_node, end):
            for j in range(i + 1, end):
                yield i, j, 1
        edges += size * (size - 1) // 2
        if previous_anchor is not None:
            yield previous_anchor, next_node, config.bridge_weight
            edges += 1
        previous_anchor = end - 1
        next_node = end
        block += 1
