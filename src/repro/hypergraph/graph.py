"""Weighted (projected) graph substrate.

The projected graph ``G = (V, E_G, w)`` of a hypergraph stores, for each
node pair, its *edge multiplicity* ``w_uv`` - the number of hyperedges
(counting hyperedge multiplicity) containing both endpoints.  MARIOH's
reconstruction loop repeatedly *decrements* these weights as cliques are
converted into hyperedges, so the structure supports cheap decrement +
edge removal and cheap copies.

Aggregate quantities the reconstruction loop reads every iteration
(``num_edges``, ``total_weight``, per-node weighted degrees, the
``is_empty`` stop condition) are maintained incrementally under every
mutation, so they are O(1) instead of O(V) / O(E) scans.

Mutations are classified into two kinds with different cache behavior:

- **Weight-only** mutations (a decrement that leaves positive weight, a
  ``set_weight`` between two positive values, an ``add_edge`` on an
  existing edge) keep the adjacency *structure* intact.  They bump the
  ``version`` counter and the two endpoints' ``touch_version`` stamps;
  structure-dependent caches (neighbor sets, maximality memo) survive.
- **Structural** mutations (an edge appearing or vanishing, a new node)
  additionally bump ``structure_version`` and invalidate the
  structure-dependent caches (:meth:`neighbor_sets`, the maximality
  memo).

MARIOH only ever takes multiplicity away from a projected graph
(filtering strips provable size-2 weight, clique conversion decrements
pairs), so only the decrement path patches the cached CSR snapshot in
place: a surviving pair queues a weight patch (two binary searches plus
a handful of array writes, applied lazily in one batch) and a vanished
pair tombstones its two slots (``alive`` mask + weight 0).  A periodic
tombstone-compaction pass drops the snapshot.  A live edit
(``add_edge`` / ``set_weight``) or a new node drops it too, and the
next :meth:`WeightedGraph.snapshot` call rebuilds it dense;
:meth:`WeightedGraph.snapshot_patch_stats` counts each outcome.

Every mutation stamps the nodes it touches with the new ``version``
(``touch_version``).  The stamps are kept in touch order - a re-touched
node moves to the newest end - so :meth:`WeightedGraph.touched_since`
lists the nodes touched after a given version in O(nodes touched).
That list is the featurizers' row-cache invalidation feed
(:mod:`repro.core.features`): each reconstruction iteration drops and
re-featurizes only the cliques through a touched node.

A clique conversion (:meth:`WeightedGraph.decrement_clique`) walks its
pairs once, updating the dicts and counters inline and tombstoning all
of its vanished pairs in one snapshot patch.

A graph built from a list of weighted pairs - a projection, a parsed
file, a decoded payload - goes through :meth:`WeightedGraph.from_edges`,
which fills the adjacency exactly as an ``add_edge`` loop would but sets
the counters once and stamps nothing, like :meth:`WeightedGraph.copy`.
``add_edge`` is for live edits.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from itertools import combinations
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

Node = int

_EMPTY_SET: FrozenSet[Node] = frozenset()

#: Monotone source of per-instance identifiers; the featurizers' row
#: cache keys on ``graph.uid`` so that a recycled ``id()`` can never
#: alias two different graphs.
_UID_COUNTER = itertools.count()

#: Snapshot patch batches up to these many pairs are applied one pair at
#: a time: below them, numpy's fixed cost of assembling index arrays
#: outweighs the scalar binary searches per pair.  Measured on the eu
#: and chained-clique reconstructions (queued weight patches, and the
#: vanished pairs of one clique conversion).
_SCALAR_PATCH_MAX = 16
_SCALAR_TOMBSTONE_MAX = 8

#: The batch MHH and common-neighbor kernels run at most this many pairs
#: at a time, which bounds their temporary arrays (one entry per probed
#: neighbor slot) on a large filter pass.  Exact: each pair's matches
#: stay in its own block, in slot order.
_KERNEL_BLOCK_PAIRS = 8192


def _in_pair_blocks(kernel):
    """Run the batch kernel ``kernel(snapshot, a, b)`` on consecutive
    blocks of at most ``_KERNEL_BLOCK_PAIRS`` row-index pairs and
    concatenate the results."""

    @functools.wraps(kernel)
    def blocked(snapshot, a, b):
        a = np.atleast_1d(np.asarray(a, dtype=np.int64))
        b = np.atleast_1d(np.asarray(b, dtype=np.int64))
        step = _KERNEL_BLOCK_PAIRS
        if len(a) <= step:
            return kernel(snapshot, a, b)
        return np.concatenate([
            kernel(snapshot, a[start:start + step], b[start:start + step])
            for start in range(0, len(a), step)
        ])

    return blocked


def _ordered(u: Node, v: Node) -> Tuple[Node, Node]:
    return (u, v) if u <= v else (v, u)


def check_increment(u: Node, v: Node, weight: int) -> None:
    """Raise ``ValueError`` unless ``weight`` may be added to ``{u, v}``:
    self-loops are not allowed and increments are at least 1."""
    if u == v:
        raise ValueError(f"self-loops are not allowed (node {u})")
    if weight < 1:
        raise ValueError(f"edge weight increments must be >= 1, got {weight}")


@dataclasses.dataclass(frozen=True)
class GraphSnapshot:
    """CSR-style export of a :class:`WeightedGraph`.

    Rows are ordered by ascending node id and columns are sorted within
    each row, so ``keys`` (``row * (V + 1) + col``) is globally sorted
    and supports binary-search edge lookups.  Row index ``V`` is a
    phantom row with no neighbors; node ids absent from the graph map
    there, which makes every batch kernel total (unknown nodes simply
    have weight 0, degree 0, and no common neighbors).

    A snapshot is built dense - ``indptr`` spans each row's degree at
    build time - and the owning graph's decrements patch it in place:

    - :meth:`_patch_weight` rewrites a live edge's weight (weight-only
      mutations);
    - :meth:`_patch_delete` tombstones an edge's two slots (``alive``
      False, weight 0, key kept so binary searches still resolve the
      slot).

    ``keys`` therefore never changes after the build, and every
    binary-search consumer masks hits through ``alive``.  Aggregates
    (``degrees``, ``weighted_degrees``, ``n_live``, ``n_tombstones``)
    track the live edges only.  Treat a snapshot you obtained from
    :meth:`WeightedGraph.snapshot` as a live view, not a frozen copy;
    :meth:`compacted_arrays` exports a tombstone-free copy.
    """

    node_ids: np.ndarray  #: (V,) sorted node identifiers
    index: Dict[Node, int]  #: node id -> row index
    indptr: np.ndarray  #: (V + 2,) row pointers incl. phantom row, as built
    nbr: np.ndarray  #: (S,) column indices, row-major / col-sorted
    wts: np.ndarray  #: (S,) float64 edge weights aligned with ``nbr``
    keys: np.ndarray  #: (S,) int64 ``row * (V + 1) + col``, ascending
    degrees: np.ndarray  #: (V + 1,) live unweighted degree per row
    weighted_degrees: np.ndarray  #: (V + 1,) float64 live weighted degree
    version: int  #: graph version this snapshot reflects
    alive: np.ndarray  #: (S,) bool mask of live slots
    n_live: int  #: number of live directed slots (= 2E)
    n_tombstones: int  #: number of tombstoned slots

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def key_base(self) -> int:
        return len(self.node_ids) + 1

    def index_of(self, nodes: Iterable[Node]) -> np.ndarray:
        """Row indices for ``nodes`` (unknown ids map to the phantom row)."""
        phantom = len(self.node_ids)
        index = self.index
        return np.fromiter(
            (index.get(u, phantom) for u in nodes), dtype=np.int64
        )

    def index_of_array(self, ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index_of`: one binary search over ``node_ids``.

        Unknown ids map to the phantom row, like ``index_of``.  This is
        the batch featurizer's translation step, so a ragged batch of
        clique members resolves to row indices in a single pass instead
        of one dict probe per member.
        """
        ids = np.asarray(ids, dtype=np.int64)
        phantom = len(self.node_ids)
        if phantom == 0 or len(ids) == 0:
            return np.full(len(ids), phantom, dtype=np.int64)
        pos = np.searchsorted(self.node_ids, ids)
        pos = np.minimum(pos, phantom - 1)
        return np.where(self.node_ids[pos] == ids, pos, phantom)

    def _patch_weight(self, iu: int, iv: int, weight: float, version: int) -> bool:
        """Rewrite the weight of the existing edge ``(iu, iv)`` in place.

        Only valid for weight-only mutations: the edge must already be
        present in both CSR directions (the adjacency *structure* is
        unchanged, so ``keys`` / ``indptr`` / ``degrees`` stay valid).
        Updates both weight slots and both endpoints' weighted degrees,
        then advances :attr:`version`.  Returns False - leaving the
        snapshot untouched - when either slot cannot be found, in which
        case the caller must fall back to a full rebuild.
        """
        positions = self._live_slot_pair(iu, iv)
        if positions is None:
            return False
        delta = float(weight) - self.wts[positions[0]]
        self.wts[positions[0]] = weight
        self.wts[positions[1]] = weight
        self.weighted_degrees[iu] += delta
        self.weighted_degrees[iv] += delta
        object.__setattr__(self, "version", version)
        return True

    def _live_slot_pair(self, iu: int, iv: int) -> Optional[Tuple[int, int]]:
        """Slot positions of the live edge ``(iu, iv)`` in both directions."""
        base = self.key_base
        keys = self.keys
        alive = self.alive
        n = len(keys)
        key = iu * base + iv
        p1 = keys.searchsorted(key)
        if p1 >= n or keys[p1] != key or not alive[p1]:
            return None
        key = iv * base + iu
        p2 = keys.searchsorted(key)
        if p2 >= n or keys[p2] != key or not alive[p2]:
            return None
        return int(p1), int(p2)

    def _patch_weights_batch(
        self, pending: List[Tuple[int, int, float]], version: int
    ) -> bool:
        """Apply many weight-only patches in one vectorized pass.

        ``pending`` holds ``(iu, iv, weight)`` triples for *distinct*
        pairs (a clique conversion decrements each internal edge once).
        Equivalent to ``_patch_weight`` per triple - the weight deltas
        are integer-valued, so the grouped weighted-degree sums are
        exact regardless of application order - but pays two binary
        searches per batch instead of two per edge.  Returns False (and
        leaves the snapshot untouched) when any slot is missing or
        dead; the caller rebuilds.
        """
        n = len(self.keys)
        if n == 0:
            return False
        triples = np.asarray(pending, dtype=np.int64)
        iu = triples[:, 0]
        iv = triples[:, 1]
        weights = triples[:, 2].astype(np.float64)
        search = np.concatenate([iu * self.key_base + iv,
                                 iv * self.key_base + iu])
        pos = np.minimum(np.searchsorted(self.keys, search), n - 1)
        ok = (self.keys[pos] == search) & self.alive[pos]
        if not ok.all():
            return False
        m = len(iu)
        delta = weights - self.wts[pos[:m]]
        self.wts[pos[:m]] = weights
        self.wts[pos[m:]] = weights
        np.add.at(self.weighted_degrees, iu, delta)
        np.add.at(self.weighted_degrees, iv, delta)
        object.__setattr__(self, "version", version)
        return True

    def _patch_delete(self, iu: int, iv: int, version: int) -> bool:
        """Tombstone the live edge ``(iu, iv)`` in place.

        The two slots keep their keys (binary searches still land on
        them) but drop out of the
        ``alive`` mask with weight 0, so every kernel reads the edge as
        absent.  Returns False - snapshot untouched - when either slot
        is missing, in which case the caller rebuilds.
        """
        positions = self._live_slot_pair(iu, iv)
        if positions is None:
            return False
        weight = float(self.wts[positions[0]])
        for pos in positions:
            self.alive[pos] = False
            self.wts[pos] = 0.0
        self.degrees[iu] -= 1
        self.degrees[iv] -= 1
        self.weighted_degrees[iu] -= weight
        self.weighted_degrees[iv] -= weight
        object.__setattr__(self, "n_live", self.n_live - 2)
        object.__setattr__(self, "n_tombstones", self.n_tombstones + 2)
        object.__setattr__(self, "version", version)
        return True

    def _patch_delete_many(
        self, pairs: List[Tuple[int, int]], version: int
    ) -> bool:
        """Tombstone many *distinct* live edges in one vectorized pass.

        Equivalent to :meth:`_patch_delete` per pair: each pair's stored
        weight leaves both endpoints' weighted degrees (integer-valued,
        so the grouped sums are exact in any order).  Returns False -
        snapshot untouched - when any slot is missing or dead.
        """
        n = len(self.keys)
        if n == 0:
            return False
        rows = np.asarray(pairs, dtype=np.int64)
        iu = rows[:, 0]
        iv = rows[:, 1]
        search = np.concatenate([iu * self.key_base + iv,
                                 iv * self.key_base + iu])
        pos = np.minimum(np.searchsorted(self.keys, search), n - 1)
        if not ((self.keys[pos] == search) & self.alive[pos]).all():
            return False
        m = len(iu)
        weights = self.wts[pos[:m]]
        self.alive[pos] = False
        self.wts[pos] = 0.0
        ends = np.concatenate([iu, iv])
        np.subtract.at(self.degrees, ends, 1)
        np.subtract.at(self.weighted_degrees, ends, np.tile(weights, 2))
        object.__setattr__(self, "n_live", self.n_live - 2 * m)
        object.__setattr__(self, "n_tombstones", self.n_tombstones + 2 * m)
        object.__setattr__(self, "version", version)
        return True

    def compacted_arrays(self) -> Dict[str, np.ndarray]:
        """Dense copies of the CSR arrays with tombstones dropped.

        Two snapshots of the same logical graph - however their
        tombstone histories differ - compare equal on these arrays; the
        snapshot-patching fuzz tests pin patched-vs-rebuilt equivalence
        through this view.
        """
        mask = self.alive
        indptr = np.zeros(len(self.indptr), dtype=np.int64)
        np.cumsum(self.degrees, out=indptr[1:])
        return {
            "node_ids": self.node_ids.copy(),
            "indptr": indptr,
            "keys": self.keys[mask],
            "nbr": self.nbr[mask],
            "wts": self.wts[mask],
            "degrees": self.degrees.copy(),
            "weighted_degrees": self.weighted_degrees.copy(),
        }

    def _lookup_weights(self, search: np.ndarray) -> np.ndarray:
        """Weights for encoded edge keys; 0 where the edge is absent."""
        out = np.zeros(len(search), dtype=np.float64)
        if len(self.keys) == 0 or len(search) == 0:
            return out
        pos = np.searchsorted(self.keys, search)
        pos = np.minimum(pos, len(self.keys) - 1)
        found = self.keys[pos] == search
        out[found] = self.wts[pos[found]]
        return out

    def pair_weights(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Edge weights ``w_{a[i] b[i]}`` for row-index pairs."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return self._lookup_weights(a * self.key_base + b)

    def expand_rows(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated live neighbor-slot positions for a batch of rows.

        For ``rows[i]``, the result enumerates the positions of its
        *live* CSR entries (tombstones are masked out):
        ``flat`` indexes into ``nbr``/``wts``, and ``owner`` maps each
        position back to ``i``.  This is the shared expansion step of
        every batch kernel that walks neighbor lists.
        """
        rows = np.asarray(rows, dtype=np.int64)
        counts = self.indptr[rows + 1] - self.indptr[rows]
        total = int(counts.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        starts = self.indptr[rows]
        ends = np.cumsum(counts)
        offsets = np.repeat(ends - counts, counts)
        flat = np.arange(total, dtype=np.int64) - offsets + np.repeat(
            starts, counts
        )
        owner = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
        keep = self.alive[flat]
        return flat[keep], owner[keep]

    def _intersect(
        self, a: np.ndarray, b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live common neighbors of row-index pairs ``(a[i], b[i])``.

        Walks the sparser endpoint's sorted neighbor row and binary-
        searches the other endpoint's row via ``keys``.  Returns, for
        every match, the owning pair's position and the two incident
        edge weights, in per-pair slot order - the order that fixes the
        float accumulation of the callers' ``bincount`` sums.
        """
        empty = np.zeros(0, dtype=np.float64)
        swap = self.degrees[a] > self.degrees[b]
        probe = np.where(swap, b, a)
        other = np.where(swap, a, b)
        flat, pair_of = self.expand_rows(probe)
        if len(flat) == 0:
            return np.zeros(0, dtype=np.int64), empty, empty
        search = other[pair_of] * self.key_base + self.nbr[flat]
        pos = np.searchsorted(self.keys, search)
        pos = np.minimum(pos, len(self.keys) - 1)
        found = (self.keys[pos] == search) & self.alive[pos]
        return pair_of[found], self.wts[flat[found]], self.wts[pos[found]]

    @_in_pair_blocks
    def batch_mhh(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Eq. (1) for every row-index pair: sorted-neighbor intersection
        with ``min`` sums, one pass per block of pairs."""
        if len(a) == 0 or len(self.keys) == 0:
            return np.zeros(len(a), dtype=np.float64)
        pair_of, w1, w2 = self._intersect(a, b)
        sums = np.bincount(
            pair_of, weights=np.minimum(w1, w2), minlength=len(a)
        )
        # bincount returns int64 for empty inputs even with float weights
        return sums.astype(np.float64, copy=False)

    @_in_pair_blocks
    def batch_common_neighbor_counts(
        self, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """``|N(a[i]) ∩ N(b[i])|`` for every row-index pair."""
        if len(a) == 0 or len(self.keys) == 0:
            return np.zeros(len(a), dtype=np.int64)
        return np.bincount(self._intersect(a, b)[0], minlength=len(a))


class WeightedGraph:
    """Undirected graph with positive integer edge weights (multiplicities).

    Attributes
    ----------
    version : int
        Monotone counter bumped by *every* mutation; derived caches key
        off it.
    structure_version : int
        Bumped only when the adjacency structure changes (an edge
        appears or vanishes, a node is added); weight-only mutations
        leave it alone.
    uid : int
        Process-unique identifier of this instance (stable across the
        graph's lifetime, never recycled); used as a cache key by the
        featurizers' feature-row cache.
    """

    #: Compaction trigger: after a tombstone patch, the snapshot is
    #: dropped (rebuilt lazily, dense) once tombstones exceed both this
    #: absolute count and this fraction of all slots.  Class-level
    #: defaults; assign on an instance to tune (tests shrink them to
    #: cross the compaction boundary).
    snapshot_tombstone_min = 64
    snapshot_tombstone_fraction = 0.5

    def __init__(self, nodes: Optional[Iterable[Node]] = None) -> None:
        self._adj: Dict[Node, Dict[Node, int]] = {}
        self._weighted_degree: Dict[Node, int] = {}
        self._num_edges = 0
        self._total_weight = 0
        self._version = 0
        self._structure_version = 0
        self._uid = next(_UID_COUNTER)
        self._touch_version: Dict[Node, int] = {}
        self._touch_count: Dict[Node, int] = {}
        self._snapshot_cache: Optional[GraphSnapshot] = None
        self._neighbor_sets_cache: Optional[Dict[Node, Set[Node]]] = None
        self._maximality_memo: Optional[Dict[Tuple[Node, ...], float]] = None
        self._clique_rows_cache: Optional[Dict] = None
        self._patch_stats: Dict[str, int] = {
            "weight_hits": 0,
            "weight_misses": 0,
            "structural_hits": 0,
            "structural_misses": 0,
            "compactions": 0,
        }
        # Weight-only snapshot patches are queued here (keyed by the
        # normalized snapshot index pair, last write wins) and applied
        # lazily - in one batch - when the snapshot is next read.
        # Entries are only meaningful for the currently cached snapshot;
        # every site that drops ``_snapshot_cache`` clears the queue.
        self._pending_weight_patches: Dict[Tuple[int, int], int] = {}
        if nodes is not None:
            for node in nodes:
                self.add_node(node)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Node, Node, int]],
        nodes: Iterable[Node] = (),
    ) -> "WeightedGraph":
        """The graph of ``nodes`` plus the weighted pairs ``edges``.

        The one way to build a graph from a pair list.  The adjacency
        equals - dict and row order included - that of
        ``WeightedGraph(nodes)`` followed by ``add_edge(u, v, w)`` per
        ``(u, v, w)`` triple: a repeated pair adds up, and self-loops
        and increments below 1 raise as in :meth:`add_edge`.  Unlike
        that loop it sets the counters once and stamps no node, as
        :meth:`copy` does; the reconstruction loop and the fit only ever
        mutate copies, so no output depends on an input's stamps.
        """
        graph = cls()
        adj = graph._adj
        for node in nodes:
            if node not in adj:
                adj[node] = {}
        total = 0
        for u, v, w in edges:
            if u == v or w < 1:
                check_increment(u, v, w)
            row = adj.get(u)
            if row is None:
                row = adj[u] = {}
            other = adj.get(v)
            if other is None:
                other = adj[v] = {}
            row[v] = other[u] = row.get(v, 0) + w
            total += w
        graph._weighted_degree = {
            u: sum(row.values()) for u, row in adj.items()
        }
        graph._num_edges = sum(map(len, adj.values())) // 2
        graph._total_weight = total
        return graph

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _touch(self, u: Node, v: Node) -> None:
        """Stamp both endpoints of one mutated pair with :attr:`version`.

        A stamped node moves to the newest end of ``_touch_version``,
        which keeps that dict in touch order for :meth:`touched_since`.
        """
        version = self._version
        touch = self._touch_version
        touch.pop(u, None)
        touch[u] = version
        touch.pop(v, None)
        touch[v] = version
        counts = self._touch_count
        counts[u] = counts.get(u, 0) + 1
        counts[v] = counts.get(v, 0) + 1

    def _drop_snapshot(self) -> None:
        self._snapshot_cache = None
        self._pending_weight_patches.clear()

    def _bump(self, node: Node) -> None:
        """Record the insertion of ``node``.

        Row indices shift wholesale, so the snapshot is dropped along
        with every structure-dependent view.
        """
        self._version += 1
        self._structure_version += 1
        # A new node goes to the newest end of the touch order.
        self._touch_version[node] = self._version
        self._touch_count[node] = 1
        self._drop_snapshot()
        self._neighbor_sets_cache = None
        self._maximality_memo = None

    def _should_compact(self, snapshot: GraphSnapshot) -> bool:
        tombstones = snapshot.n_tombstones
        used = tombstones + snapshot.n_live
        return (
            tombstones > self.snapshot_tombstone_min
            and tombstones > self.snapshot_tombstone_fraction * used
        )

    def add_node(self, node: Node) -> None:
        """Insert an isolated node (no-op if already present)."""
        if node not in self._adj:
            self._adj[node] = {}
            self._weighted_degree[node] = 0
            # A new node can shift every row index in the sorted order.
            self._clique_rows_cache = None
            self._bump(node)

    def add_edge(self, u: Node, v: Node, weight: int = 1) -> None:
        """Add ``weight`` to the multiplicity of edge ``{u, v}``."""
        check_increment(u, v, weight)
        self._edit(u, v, self.weight(u, v) + weight)

    def set_weight(self, u: Node, v: Node, weight: int) -> None:
        """Set the multiplicity of edge ``{u, v}``; 0 removes the edge."""
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u})")
        if weight < 0:
            raise ValueError(f"edge weights must be >= 0, got {weight}")
        if weight == 0:
            self.remove_edge(u, v)
            return
        self._edit(u, v, weight)

    def _edit(self, u: Node, v: Node, weight: int) -> None:
        """The live-edit step of :meth:`add_edge` / :meth:`set_weight`:
        set ``{u, v}`` to the positive ``weight``.

        Bumps :attr:`version` and stamps both endpoints; an edge that
        appears also bumps :attr:`structure_version` and invalidates the
        neighbor sets and the maximality memo.  A cached snapshot is
        dropped and counted as one structural or weight miss - the next
        :meth:`snapshot` rebuilds it - since only decrements patch it.
        """
        self.add_node(u)
        self.add_node(v)
        current = self._adj[u].get(v, 0)
        delta = weight - current
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._total_weight += delta
        self._weighted_degree[u] += delta
        self._weighted_degree[v] += delta
        self._version += 1
        self._touch(u, v)
        if current == 0:
            self._num_edges += 1
            self._structure_version += 1
            self._neighbor_sets_cache = None
            self._maximality_memo = None
        if self._snapshot_cache is not None:
            miss = "structural_misses" if current == 0 else "weight_misses"
            self._patch_stats[miss] += 1
            self._drop_snapshot()

    def decrement_edge(self, u: Node, v: Node, amount: int = 1) -> int:
        """Decrease the weight of ``{u, v}``; remove the edge at zero.

        Returns the remaining weight.  Raises ``KeyError`` if absent and
        ``ValueError`` on over-decrement, since both indicate a logic bug
        in a reconstruction loop.
        """
        if self._decrement_pairs((u, v), amount):
            return 0
        return self._adj[u][v]

    def decrement_clique(
        self, members: Iterable[Node], amount: int = 1
    ) -> List[Tuple[Node, Node]]:
        """Decrement every internal edge of a clique by ``amount``.

        This is the mutation a clique-to-hyperedge conversion performs:
        each of the ``k*(k-1)/2`` pair weights drops by ``amount`` (edges
        vanish at zero).  Pairs are processed in sorted order for
        determinism, and each one is numbered exactly as a
        :meth:`decrement_edge` call would be.  Returns the list of pairs
        whose edges *vanished* (reached weight zero) - the notification
        payload of
        :meth:`repro.core.pool.CliqueCandidatePool.notify_edges_removed`.

        Raises ``KeyError`` / ``ValueError`` (as :meth:`decrement_edge`)
        at the first missing or under-weight pair, after the pairs
        before it were decremented; callers are expected to check
        existence first.
        """
        return self._decrement_pairs(sorted(members), amount)

    def _decrement_pairs(
        self, nodes: Sequence[Node], amount: int
    ) -> List[Tuple[Node, Node]]:
        """The one decrement path: every pair of ``nodes``, walked once.

        Pairs go in ``combinations(nodes, 2)`` order.  Each advances
        :attr:`version` by one and stamps both endpoints with it; a
        vanished pair also advances :attr:`structure_version`.  The
        adjacency is updated inline; surviving pairs queue their weight
        patch, and vanished pairs drop theirs and are tombstoned
        together, in one snapshot patch, once the walk ends.  Returns
        the vanished pairs.
        """
        adj = self._adj
        pending = self._pending_weight_patches
        snapshot = self._snapshot_cache
        index = snapshot.index if snapshot is not None else None
        walked = 0
        vanished: List[Tuple[Node, Node]] = []
        dead: List[Tuple[int, int]] = []
        try:
            for i, u in enumerate(nodes):
                row = adj.get(u, {})
                iu = index.get(u) if index is not None else None
                for v in nodes[i + 1 :]:
                    current = row.get(v, 0)
                    if current == 0:
                        raise KeyError(f"edge ({u}, {v}) not present")
                    if amount > current:
                        raise ValueError(
                            f"cannot decrement edge ({u}, {v}) by {amount}; "
                            f"weight is {current}"
                        )
                    remaining = current - amount
                    if remaining:
                        row[v] = remaining
                        adj[v][u] = remaining
                    else:
                        del row[v]
                        del adj[v][u]
                        vanished.append((u, v))
                    walked += 1
                    if index is None:
                        continue
                    # Every node of the graph has a row (adding a node
                    # drops the snapshot).
                    iv = index[v]
                    key = (iu, iv) if iu < iv else (iv, iu)
                    if remaining:
                        pending[key] = remaining
                    else:
                        pending.pop(key, None)
                        dead.append(key)
        finally:
            self._account_walk(nodes, walked, amount)
            if vanished:
                self._num_edges -= len(vanished)
                self._structure_version += len(vanished)
                self._neighbor_sets_cache = None
                self._maximality_memo = None
            if dead:
                self._tombstone(dead)
        return vanished

    def _account_walk(
        self, nodes: Sequence[Node], walked: int, amount: int
    ) -> None:
        """Version, stamps and node totals for the first ``walked`` pairs
        of ``combinations(nodes, 2)``.

        Stamped nodes move to the newest end of ``_touch_version``,
        oldest stamp first, which keeps that dict in touch order.
        """
        touch = self._touch_version
        counts = self._touch_count
        weighted = self._weighted_degree
        start = self._version
        k = len(nodes)
        if walked == k * (k - 1) // 2:
            # Every pair was walked: node i is in k - 1 pairs and its
            # last one, (i, k - 1), closes row i of the walk.
            stamp = start
            for i, node in enumerate(nodes):
                stamp += k - 1 - i
                touch.pop(node, None)
                touch[node] = stamp
                counts[node] = counts.get(node, 0) + k - 1
                weighted[node] -= amount * (k - 1)
        else:
            stamps: Dict[Node, int] = {}
            pairs = itertools.islice(combinations(nodes, 2), walked)
            for stamp, pair in enumerate(pairs, start + 1):
                for node in pair:
                    stamps[node] = stamp
                    counts[node] = counts.get(node, 0) + 1
                    weighted[node] -= amount
            for node in sorted(stamps, key=stamps.__getitem__):
                touch.pop(node, None)
                touch[node] = stamps[node]
        self._version = start + walked
        self._total_weight -= amount * walked

    def _tombstone(self, dead: List[Tuple[int, int]]) -> None:
        """Tombstone the vanished snapshot pairs ``dead`` in one patch.

        Each pair counts as one structural hit, except that a patch
        that trips the compaction threshold counts its last pair as the
        compaction's miss.  A failed patch drops the snapshot and
        counts every pair as a miss.
        """
        snapshot = self._snapshot_cache
        stats = self._patch_stats
        count = len(dead)
        if count <= _SCALAR_TOMBSTONE_MAX:
            patched = all(
                snapshot._patch_delete(iu, iv, self._version)
                for iu, iv in dead
            )
        else:
            patched = snapshot._patch_delete_many(dead, self._version)
        if not patched:
            stats["structural_misses"] += count
            self._drop_snapshot()
        elif self._should_compact(snapshot):
            stats["structural_hits"] += count - 1
            stats["structural_misses"] += 1
            stats["compactions"] += 1
            self._drop_snapshot()
        else:
            stats["structural_hits"] += count

    def _flush_weight_patches(self) -> None:
        """Apply every queued weight-only patch to the cached snapshot.

        Queued entries accumulate across mutations (deduplicated per
        pair, last write wins) and land here in one pass - scalar for a
        handful, vectorized beyond that - right before the snapshot is
        read.  On failure (a slot missing or dead, which means the queue
        went stale) the snapshot is dropped and the next
        :meth:`snapshot` call rebuilds from the live dicts.
        """
        pending = self._pending_weight_patches
        snapshot = self._snapshot_cache
        if snapshot is None:
            pending.clear()
            return
        count = len(pending)
        if count == 0:
            return
        version = self._version
        if count <= _SCALAR_PATCH_MAX:
            patched = all(
                snapshot._patch_weight(iu, iv, weight, version)
                for (iu, iv), weight in pending.items()
            )
        else:
            triples = [(iu, iv, w) for (iu, iv), w in pending.items()]
            patched = snapshot._patch_weights_batch(triples, version)
        if patched:
            self._patch_stats["weight_hits"] += count
            pending.clear()
        else:
            self._patch_stats["weight_misses"] += count
            self._drop_snapshot()

    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete edge ``{u, v}`` entirely (no-op when absent)."""
        current = self._adj.get(u, {}).get(v)
        if current is not None:
            self._decrement_pairs((u, v), current)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> FrozenSet[Node]:
        return frozenset(self._adj)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def version(self) -> int:
        """Mutation counter; derived caches key off this value."""
        return self._version

    @property
    def structure_version(self) -> int:
        """Counter of *structural* mutations (edges appearing/vanishing,
        nodes added).  Weight-only mutations do not advance it, so
        purely structural caches (clustering coefficients, maximality)
        can key off this instead of :attr:`version`."""
        return self._structure_version

    @property
    def uid(self) -> int:
        """Process-unique instance identifier (never recycled)."""
        return self._uid

    def touch_version(self, node: Node) -> int:
        """The :attr:`version` at which ``node`` was last touched.

        A node is *touched* by any mutation incident to it: a weight
        change on an incident edge, an incident edge appearing or
        vanishing, or the node itself being added.  Unknown nodes
        return 0 (they have never been touched).
        """
        return self._touch_version.get(node, 0)

    def touched_since(self, version: int) -> List[Node]:
        """Nodes whose :meth:`touch_version` is above ``version``.

        Newest first.  The stamps are kept in touch order, so the walk
        starts at the newest end and stops at the first node stamped at
        or below ``version``: O(nodes returned), however large the
        graph.  This is the feature-row cache's invalidation feed.
        """
        touched: List[Node] = []
        for node, stamp in reversed(self._touch_version.items()):
            if stamp <= version:
                break
            touched.append(node)
        return touched

    def clique_touch_stamp(self, members: Iterable[Node]) -> int:
        """``max(touch_version)`` over ``members`` (0 for no members).

        The Phase-2 sampler's per-clique salt under the global scope
        (:func:`repro.core.search.sample_subcliques_stable`): it
        advances exactly when a mutation touches a member.
        """
        touch = self._touch_version
        return max((touch.get(u, 0) for u in members), default=0)

    def clique_touch_count(self, members: Iterable[Node]) -> int:
        """Sum of per-node mutation counts over ``members``.

        Unlike :meth:`clique_touch_stamp` - whose stamps carry the
        graph-wide :attr:`version` at touch time, and therefore shift
        with mutations *anywhere* in the graph - this is a pure function
        of the mutation history local to the members' own edges.  It is
        the sampling salt of ``phase2_scope="component"``: restricted to
        one connected component it takes the same values whether that
        component is reconstructed alone or as part of a larger graph,
        which is what sharded reconstruction's exact-parity guarantee
        rests on.
        """
        counts = self._touch_count
        return sum(counts.get(u, 0) for u in members)

    def has_edge(self, u: Node, v: Node) -> bool:
        return v in self._adj.get(u, {})

    def weight(self, u: Node, v: Node) -> int:
        """Edge multiplicity ``w_uv`` (0 when the edge is absent)."""
        return self._adj.get(u, {}).get(v, 0)

    def neighbors(self, node: Node) -> Iterator[Node]:
        return iter(self._adj.get(node, {}))

    def neighbor_weights(self, node: Node) -> Dict[Node, int]:
        """Mapping neighbor -> edge weight for ``node`` (read-only view)."""
        return self._adj.get(node, {})

    def degree(self, node: Node) -> int:
        """Number of distinct neighbors."""
        return len(self._adj.get(node, {}))

    def weighted_degree(self, node: Node) -> int:
        """Sum of incident edge multiplicities (node-level MARIOH feature)."""
        return self._weighted_degree.get(node, 0)

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        """Iterate each undirected edge once as an ordered pair (u <= v)."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u <= v:
                    yield (u, v)

    def edges_with_weights(self) -> Iterator[Tuple[Node, Node, int]]:
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u <= v:
                    yield (u, v, w)

    def total_weight(self) -> int:
        """Sum of all edge multiplicities."""
        return self._total_weight

    def common_neighbors(self, u: Node, v: Node) -> Set[Node]:
        nu = self._adj.get(u, {})
        nv = self._adj.get(v, {})
        if len(nu) > len(nv):
            nu, nv = nv, nu
        return {z for z in nu if z in nv}

    def is_empty(self) -> bool:
        """True when no edges remain (the MARIOH loop's stop condition)."""
        return self._num_edges == 0

    # ------------------------------------------------------------------
    # Cached derived views
    # ------------------------------------------------------------------
    def neighbor_sets(self) -> Dict[Node, Set[Node]]:
        """Per-node neighbor sets, cached until the next structural
        mutation.

        Shared by whole-graph clique enumerations between mutations;
        callers must treat the returned sets as read-only.  Local
        queries (maximality checks, anchored enumeration) read the live
        adjacency instead, so the loop never rebuilds this per change.
        """
        if self._neighbor_sets_cache is None:
            self._neighbor_sets_cache = {
                u: set(nbrs) for u, nbrs in self._adj.items()
            }
        return self._neighbor_sets_cache

    def clique_rows_cache(self) -> Dict:
        """Scratch table mapping cliques to (members, row indices).

        Row indices depend only on the sorted *node set*, which edge
        decrements never change, so this cache survives the edge
        mutations of the reconstruction loop (it is cleared when a node
        is added).  Used by the batch featurizer to avoid re-deriving
        member lists for cliques that are re-scored every iteration.
        """
        if self._clique_rows_cache is None:
            self._clique_rows_cache = {}
        return self._clique_rows_cache

    def maximality_memo(self) -> Dict[Tuple[Node, ...], float]:
        """Scratch table for per-clique maximality flags, cleared on
        structural mutation.

        The reconstruction loop evaluates maximality against the
        *immutable* original graph, so candidate cliques that survive
        across iterations resolve to one cached flag instead of a fresh
        adjacency walk per scoring round.
        """
        if self._maximality_memo is None:
            self._maximality_memo = {}
        return self._maximality_memo

    def snapshot(self) -> GraphSnapshot:
        """CSR-style export for numpy batch kernels, cached until mutation."""
        if self._pending_weight_patches:
            self._flush_weight_patches()
        if self._snapshot_cache is None:
            self._snapshot_cache = self._build_snapshot()
        return self._snapshot_cache

    def snapshot_patch_stats(self) -> Dict[str, int]:
        """Counters of in-place snapshot patch outcomes (copy).

        ``weight_hits`` / ``weight_misses`` count weight-only mutations
        that patched / failed to patch a cached snapshot;
        ``structural_hits`` / ``structural_misses`` the same for edges
        that vanish.  A miss is a forced rebuild: a failed patch, a
        tripped compaction threshold, or a live edit (``add_edge`` /
        ``set_weight``), which always drops the snapshot and counts one
        weight miss, or one structural miss when the edge is new.
        ``compactions`` counts tombstone-compaction rebuilds
        specifically (each also counted as a structural miss, so hit
        rates derived as ``hits / (hits + misses)`` reflect every
        rebuild actually paid).  Weight patches are queued and
        deduplicated per edge before they land, so ``weight_hits``
        counts *applied* patches: repeated updates of one pair between
        snapshot reads collapse into a single hit.  Mutations with no
        cached snapshot to patch are not counted.
        """
        return dict(self._patch_stats)

    def check_snapshot_coherence(self) -> Optional[str]:
        """Audit the cached snapshot against the live graph state.

        The incremental-patch protocol promises the cached
        :class:`GraphSnapshot` is either absent or stamped with the
        current :attr:`version` and sized to the current node set; a
        mismatch means a mutation bypassed the mutation methods'
        bookkeeping and every consumer of the snapshot may be scoring
        stale weights.
        Returns a description of the first violation, or ``None`` when
        coherent.  Cheap (counter comparisons only) - safe to call once
        per reconstruction iteration.
        """
        if self._pending_weight_patches:
            self._flush_weight_patches()
        snapshot = self._snapshot_cache
        if snapshot is None:
            return None
        if snapshot.version != self._version:
            return (
                f"cached snapshot stamped version {snapshot.version} but "
                f"graph is at version {self._version}"
            )
        if snapshot.num_nodes != len(self._adj):
            return (
                f"cached snapshot holds {snapshot.num_nodes} nodes but "
                f"graph has {len(self._adj)}"
            )
        if snapshot.n_live != 2 * self._num_edges:
            return (
                f"cached snapshot holds {snapshot.n_live} live slots but "
                f"graph has {self._num_edges} edges "
                f"(expected {2 * self._num_edges})"
            )
        if snapshot.n_tombstones < 0 or snapshot.n_live < 0:
            return (
                "cached snapshot slot accounting went negative "
                f"(n_live={snapshot.n_live}, "
                f"n_tombstones={snapshot.n_tombstones})"
            )
        return None

    def _build_snapshot(self) -> GraphSnapshot:
        node_ids = sorted(self._adj)
        n = len(node_ids)
        index = {u: i for i, u in enumerate(node_ids)}
        base = n + 1
        n_dir = 2 * self._num_edges
        keys = np.fromiter(
            (
                index[u] * base + index[v]
                for u, nbrs in self._adj.items()
                for v in nbrs
            ),
            dtype=np.int64,
            count=n_dir,
        )
        wts = np.fromiter(
            (w for nbrs in self._adj.values() for w in nbrs.values()),
            dtype=np.float64,
            count=n_dir,
        )
        # One global sort yields row-major order with columns sorted
        # within each row (keys are unique).
        order = np.argsort(keys)
        keys = keys[order]
        wts = wts[order]
        degrees = np.zeros(n + 1, dtype=np.int64)
        degrees[:n] = np.fromiter(
            (len(self._adj[u]) for u in node_ids), dtype=np.int64, count=n
        )
        weighted = np.zeros(n + 1, dtype=np.float64)
        weighted[:n] = np.fromiter(
            (self._weighted_degree[u] for u in node_ids),
            dtype=np.float64,
            count=n,
        )
        indptr = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        return GraphSnapshot(
            node_ids=np.asarray(node_ids, dtype=np.int64),
            index=index,
            indptr=indptr,
            nbr=keys % base,
            wts=wts,
            keys=keys,
            degrees=degrees,
            weighted_degrees=weighted,
            version=self._version,
            alive=np.ones(n_dir, dtype=bool),
            n_live=n_dir,
            n_tombstones=0,
        )

    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[Node]) -> "WeightedGraph":
        """Induced subgraph on ``nodes`` (weights preserved)."""
        keep = set(nodes) & self._adj.keys()
        sub = WeightedGraph()
        adj: Dict[Node, Dict[Node, int]] = {}
        weighted: Dict[Node, int] = {}
        directed_edges = 0
        directed_weight = 0
        for u in keep:
            row = {v: w for v, w in self._adj[u].items() if v in keep}
            adj[u] = row
            row_weight = sum(row.values())
            weighted[u] = row_weight
            directed_edges += len(row)
            directed_weight += row_weight
        sub._adj = adj
        sub._weighted_degree = weighted
        sub._num_edges = directed_edges // 2
        sub._total_weight = directed_weight // 2
        return sub

    def copy(self) -> "WeightedGraph":
        clone = WeightedGraph()
        clone._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        clone._weighted_degree = dict(self._weighted_degree)
        clone._num_edges = self._num_edges
        clone._total_weight = self._total_weight
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"WeightedGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def connected_components(
    graph: WeightedGraph, roots: Iterable[Node]
) -> Iterator[Tuple[List[Node], int]]:
    """``(sorted members, edge count)`` of each connected component of
    ``graph`` that holds one of ``roots``, once per component, in the
    order of its first root.  An isolated root is a one-node component.
    """
    adj = graph._adj
    seen: Set[Node] = set()
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        members = [root]
        degree_sum = 0
        for u in members:  # breadth-first: the list is its own queue
            row = adj.get(u)
            if row:
                degree_sum += len(row)
                fresh = row.keys() - seen
                seen |= fresh
                members.extend(fresh)
        members.sort()
        yield members, degree_sum // 2
