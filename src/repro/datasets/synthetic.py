"""Group-interaction hypergraph generator.

A single parameterized generator produces all dataset regimes the paper
evaluates on.  Nodes belong to (soft) communities; hyperedges are group
interactions drawn inside a community with preferential member selection.
Two knobs create the higher-order signal MARIOH exploits:

- ``repeat_prob`` - probability that a new interaction repeats an earlier
  group verbatim (drives hyperedge multiplicity, i.e. Table I's Avg. M_H);
- ``nested_prob`` - probability that a new interaction is a sub-group of
  an earlier one (drives nested cliques and edge-multiplicity structure).

Timestamps are sequential emission indices, so the time-based
source/target split behaves like the paper's.

The two weighted draws - an interaction's size and a community's
members - read cumulative tables built once per generation
(inverse-transform sampling, Devroye 1986) instead of calling
``Generator.choice(..., p=...)``, which re-validates and re-accumulates
the same weights on every call.  They consume the generator's stream
exactly as ``choice`` does, so every output is identical to what
``choice`` would draw (property-tested in ``tests/test_datasets.py``).
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hypergraph.hypergraph import Edge, Hypergraph


@dataclasses.dataclass(frozen=True)
class GroupInteractionConfig:
    """Parameters of the group-interaction generator.

    Attributes
    ----------
    n_nodes:
        Number of nodes.
    n_interactions:
        Number of hyperedge *instances* to emit (multiset size).
    size_weights:
        Unnormalized probability of each hyperedge size, starting at
        size 2 (e.g. ``(4, 3, 2, 1)`` covers sizes 2-5).
    n_communities:
        Number of planted communities (also the node labels).
    intra_prob:
        Probability that an interaction stays inside one community (the
        remainder mixes members from two communities).
    repeat_prob:
        Probability of re-emitting a previously emitted group verbatim.
    nested_prob:
        Probability of emitting a strict sub-group of an earlier group.
    concentration:
        Dirichlet concentration of node popularity inside a community;
        small values make a few members dominate (skewed degrees).
    """

    n_nodes: int
    n_interactions: int
    size_weights: Sequence[float] = (4.0, 3.0, 2.0, 1.0)
    n_communities: int = 8
    intra_prob: float = 0.9
    repeat_prob: float = 0.0
    nested_prob: float = 0.0
    concentration: float = 1.0

    def validate(self) -> None:
        if self.n_nodes < 4:
            raise ValueError(f"need >= 4 nodes, got {self.n_nodes}")
        if self.n_interactions < 2:
            raise ValueError(f"need >= 2 interactions, got {self.n_interactions}")
        if self.n_communities < 1 or self.n_communities > self.n_nodes // 2:
            raise ValueError(
                f"n_communities must be in [1, n_nodes/2], got {self.n_communities}"
            )
        if not 0.0 <= self.repeat_prob + self.nested_prob <= 1.0:
            raise ValueError("repeat_prob + nested_prob must be within [0, 1]")
        if not (math.isfinite(self.concentration) and self.concentration > 0):
            raise ValueError(
                "concentration must be finite and > 0, got "
                f"{self.concentration}"
            )
        weights = np.asarray(self.size_weights, dtype=np.float64)
        if (
            weights.ndim != 1
            or len(weights) == 0
            or not np.isfinite(weights).all()
            or (weights < 0).any()
            or not 0.0 < weights.sum() < math.inf
        ):
            raise ValueError(
                "size_weights must be a non-empty sequence of finite, "
                f"non-negative weights with a positive sum, got "
                f"{tuple(self.size_weights)}"
            )


def cumulative_table(weights: np.ndarray) -> np.ndarray:
    """The normalized cumulative sums ``Generator.choice`` draws from."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def draw_index(rng: np.random.Generator, cdf: Sequence[float]) -> int:
    """One index drawn like ``rng.choice(len(cdf), p=weights)``.

    ``cdf`` is :func:`cumulative_table` of ``weights`` (a list is
    fastest); ``bisect_right`` is ``searchsorted(side="right")``.
    """
    return bisect_right(cdf, rng.random())


def draw_distinct(
    rng: np.random.Generator,
    weights: np.ndarray,
    cdf: Sequence[float],
    k: int,
) -> List[int]:
    """``k`` distinct indices drawn like
    ``rng.choice(len(weights), size=k, replace=False, p=weights)``.

    ``cdf`` is :func:`cumulative_table` of ``weights``, and ``weights``
    must have at least ``k`` non-zero entries.  As ``choice`` does, it
    draws ``k`` uniforms, keeps the first occurrence of each index, and
    while some are missing zeroes the found weights and draws only the
    shortfall from the renormalized table.  A zero weight spans an empty
    interval of its table, so a redraw can never repeat a found index.
    """
    draws = rng.random(k).tolist()
    found = list(dict.fromkeys(bisect_right(cdf, x) for x in draws))
    if len(found) < k:
        remaining = weights.copy()
        while len(found) < k:
            remaining[found] = 0.0
            fresh = cumulative_table(remaining).searchsorted(
                rng.random(k - len(found)), side="right"
            )
            found.extend(dict.fromkeys(fresh.tolist()))
    return found


def generate_group_hypergraph(
    config: GroupInteractionConfig, seed: Optional[int] = None
) -> Tuple[Hypergraph, Dict[Edge, int], Dict[int, int]]:
    """Generate ``(hypergraph, timestamps, node_labels)`` from ``config``.

    ``timestamps`` maps each unique hyperedge to its *first* emission
    index; ``node_labels`` maps node -> community id.
    """
    config.validate()
    rng = np.random.default_rng(seed)

    # Assign nodes to communities round-robin, then shuffle for realism.
    assignment = np.array(
        [i % config.n_communities for i in range(config.n_nodes)]
    )
    rng.shuffle(assignment)
    node_labels = {node: int(assignment[node]) for node in range(config.n_nodes)}
    members_of: Dict[int, np.ndarray] = {
        c: np.flatnonzero(assignment == c) for c in range(config.n_communities)
    }

    # Popularity of each node inside its community (preferential pick),
    # with its cumulative table and the count of members it can pick.
    popularity: Dict[int, np.ndarray] = {}
    popularity_cdf: Dict[int, List[float]] = {}
    support: Dict[int, int] = {}
    for community, members in members_of.items():
        weights = rng.dirichlet(
            np.full(len(members), config.concentration)
        )
        popularity[community] = weights
        popularity_cdf[community] = cumulative_table(weights).tolist()
        support[community] = int(np.count_nonzero(weights))

    size_probs = np.asarray(config.size_weights, dtype=np.float64)
    size_cdf = cumulative_table(size_probs / size_probs.sum()).tolist()

    hypergraph = Hypergraph(nodes=range(config.n_nodes))
    timestamps: Dict[Edge, int] = {}
    history: List[Edge] = []

    def sample_members(k: int) -> Optional[List[int]]:
        if rng.random() < config.intra_prob or config.n_communities == 1:
            community = int(rng.integers(config.n_communities))
            # Fewer than k members with non-zero popularity (or fewer
            # than k members at all): no k distinct picks exist.
            if support[community] < k:
                return None
            pool = members_of[community]
            picks = draw_distinct(
                rng, popularity[community], popularity_cdf[community], k
            )
            return [int(pool[i]) for i in picks]
        first, second = rng.choice(config.n_communities, size=2, replace=False)
        pool = np.concatenate([members_of[int(first)], members_of[int(second)]])
        if len(pool) < k:
            return None
        picks = rng.choice(pool, size=k, replace=False)
        return [int(p) for p in picks]

    emitted = 0
    attempts = 0
    max_attempts = config.n_interactions * 50
    while emitted < config.n_interactions and attempts < max_attempts:
        attempts += 1
        roll = rng.random()
        edge: Optional[Edge] = None
        if history and roll < config.repeat_prob:
            edge = history[int(rng.integers(len(history)))]
        elif history and roll < config.repeat_prob + config.nested_prob:
            parent = history[int(rng.integers(len(history)))]
            if len(parent) > 2:
                members = sorted(parent)
                k = int(rng.integers(2, len(members)))
                chosen = rng.choice(len(members), size=k, replace=False)
                edge = frozenset(members[int(i)] for i in chosen)
        if edge is None:
            k = 2 + draw_index(rng, size_cdf)
            members = sample_members(k)
            if members is None:
                continue
            edge = frozenset(members)
        hypergraph.add(edge)
        if edge not in timestamps:
            timestamps[edge] = emitted
        history.append(edge)
        emitted += 1

    if emitted < config.n_interactions:
        raise RuntimeError(
            f"generator stalled after {attempts} attempts "
            f"({emitted}/{config.n_interactions} interactions); "
            "check size_weights against community sizes"
        )
    return hypergraph, timestamps, node_labels
