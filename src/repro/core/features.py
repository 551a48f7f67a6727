"""Clique feature representations (Sect. III-D).

:class:`CliqueFeaturizer` implements MARIOH's multiplicity-aware features:

- node level: weighted degree of each clique member;
- edge level: multiplicity ``w_uv``, its MHH bound, and the maximum
  portion of higher-order hyperedges ``MHH / w_uv``;
- clique level: clique size, clique cut ratio (internal multiplicity over
  total multiplicity touching the clique), and a maximality indicator.

Node- and edge-level feature sets are summarized into 5-dim vectors
(sum, mean, min, max, std) and concatenated with the clique-level
features, giving 5 + 3*5 + 3 = 23 dimensions.

:class:`StructuralFeaturizer` is the multiplicity-oblivious featurizer
(SHyRe-Count style) that the MARIOH-M ablation and the SHyRe baselines
use: connectivity-only statistics of the clique and its boundary.

``featurize`` is the scalar reference implementation; ``featurize_many``
is the hot path and computes the whole batch with numpy kernels: one
table of *unique* node pairs per batch, edge weights / MHH (Eq. 1) /
Jaccard overlaps looked up against the graph's CSR snapshot, grouped
``reduceat`` reductions for the 5-stat summaries, and maximality checks
against the reference graph's live adjacency, memoized per clique.
Parity between the two paths is covered by property tests
(``tests/test_featurizer_parity``).

On top of the batch kernels sits a **feature-row cache**
(:class:`_RowCachedFeaturizer`): each computed row is stored under the
clique's frozenset, with a node -> cached-cliques index beside it.
Every feature derived from the scoring graph's weights depends only on
edges incident to a clique member, so a row is stale exactly when one
of its members was touched by a mutation.  Each call therefore asks
the graph which nodes were touched since the previous call
(:meth:`~repro.hypergraph.graph.WeightedGraph.touched_since`) and drops
the rows through them: the reconstruction loop only re-featurizes
cliques whose nodes actually changed between iterations, and an
untouched clique resolves to one dictionary get.  Cached and
freshly-computed rows are bit-identical because every per-clique
quantity is computed independently of the rest of the batch (also
property-tested).
"""

from __future__ import annotations

import dataclasses
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.filtering import mhh
from repro.hypergraph.cliques import Clique, is_maximal_clique
from repro.hypergraph.graph import GraphSnapshot, WeightedGraph


def _five_stats(values: Sequence[float]) -> List[float]:
    """(sum, mean, min, max, std) summary of a non-empty value list."""
    array = np.asarray(values, dtype=np.float64)
    return [
        float(array.sum()),
        float(array.mean()),
        float(array.min()),
        float(array.max()),
        float(array.std()),
    ]


def _grouped_five_stats(
    values: np.ndarray, offsets: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-group (sum, mean, min, max, std) over contiguous groups.

    ``offsets`` are the group start positions into ``values`` and every
    group is non-empty (cliques have >= 2 members and >= 1 pair).
    """
    sums = np.add.reduceat(values, offsets)
    means = sums / counts
    mins = np.minimum.reduceat(values, offsets)
    maxs = np.maximum.reduceat(values, offsets)
    centered = values - np.repeat(means, counts)
    stds = np.sqrt(np.add.reduceat(centered * centered, offsets) / counts)
    return np.column_stack([sums, means, mins, maxs, stds])


@dataclasses.dataclass(frozen=True)
class _CliqueBatch:
    """Shared index tables for one ``featurize_many`` batch.

    Pairs are deduplicated across the batch: candidate cliques overlap
    heavily (maximal cliques plus their sub-cliques), so per-pair
    quantities are computed once on the ``(ua, ub)`` unique-pair table
    and scattered back through ``inverse``.
    """

    snapshot: GraphSnapshot
    members_list: List[List[int]]  #: sorted, deduplicated member ids
    sizes: np.ndarray  #: (n,) member count per clique
    node_idx: np.ndarray  #: concatenated member row indices
    node_offsets: np.ndarray  #: group starts into ``node_idx``
    pair_counts: np.ndarray  #: (n,) pair count per clique
    pair_offsets: np.ndarray  #: group starts into the pair slots
    inverse: np.ndarray  #: pair slot -> unique-pair row
    ua: np.ndarray  #: unique-pair first row index
    ub: np.ndarray  #: unique-pair second row index


_TRIU_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _triu_indices(k: int) -> Tuple[np.ndarray, np.ndarray]:
    cached = _TRIU_CACHE.get(k)
    if cached is None:
        cached = np.triu_indices(k, 1)
        _TRIU_CACHE[k] = cached
    return cached


def _prepare_batch(
    cliques: Sequence[Clique], graph: WeightedGraph
) -> _CliqueBatch:
    snapshot = graph.snapshot()
    # Candidates are re-scored every search iteration while the node set
    # (and hence every row index) stays fixed, so member lists and row
    # lookups are cached on the graph across edge mutations.
    rows_cache = graph.clique_rows_cache()
    members_list: List[List[int]] = []
    rows_list: List[np.ndarray] = [None] * len(cliques)  # type: ignore[list-item]
    pending: List[int] = []
    for position, clique in enumerate(cliques):
        entry = rows_cache.get(clique) if isinstance(clique, frozenset) else None
        if entry is None:
            members = sorted(set(clique))
            if len(members) < 2:
                raise ValueError(f"cliques need >= 2 nodes, got {members}")
            members_list.append(members)
            pending.append(position)
        else:
            members_list.append(entry[0])
            rows_list[position] = entry[1]
    if pending:
        # All cache-missing cliques translate member ids -> row indices
        # through one vectorized binary search over the ragged batch.
        lengths = [len(members_list[position]) for position in pending]
        concat = np.fromiter(
            (
                member
                for position in pending
                for member in members_list[position]
            ),
            dtype=np.int64,
            count=sum(lengths),
        )
        rows_concat = snapshot.index_of_array(concat)
        start = 0
        for position, length in zip(pending, lengths):
            rows = rows_concat[start : start + length].copy()
            start += length
            rows_list[position] = rows
            clique = cliques[position]
            if isinstance(clique, frozenset):
                rows_cache[clique] = (members_list[position], rows)
    sizes = np.fromiter(
        (len(m) for m in members_list), dtype=np.int64, count=len(members_list)
    )
    node_idx = np.concatenate(rows_list)
    node_ends = np.cumsum(sizes)
    node_offsets = node_ends - sizes
    pair_counts = sizes * (sizes - 1) // 2
    pair_ends = np.cumsum(pair_counts)
    pair_offsets = pair_ends - pair_counts
    n_pairs = int(pair_ends[-1])
    pu = np.empty(n_pairs, dtype=np.int64)
    pv = np.empty(n_pairs, dtype=np.int64)
    # One gather/scatter per distinct clique size instead of per clique.
    for k in np.unique(sizes):
        k = int(k)
        at = np.flatnonzero(sizes == k)
        iu, iv = _triu_indices(k)
        rows = node_idx[node_offsets[at][:, None] + np.arange(k)]
        dest = (
            pair_offsets[at][:, None] + np.arange(k * (k - 1) // 2)
        ).ravel()
        pu[dest] = rows[:, iu].ravel()
        pv[dest] = rows[:, iv].ravel()
    unique_keys, inverse = np.unique(
        pu * snapshot.key_base + pv, return_inverse=True
    )
    return _CliqueBatch(
        snapshot=snapshot,
        members_list=members_list,
        sizes=sizes,
        node_idx=node_idx,
        node_offsets=node_offsets,
        pair_counts=pair_counts,
        pair_offsets=pair_offsets,
        inverse=inverse,
        ua=unique_keys // snapshot.key_base,
        ub=unique_keys % snapshot.key_base,
    )


def _maximality_flags(
    reference: WeightedGraph, members_list: Sequence[Sequence[int]]
) -> np.ndarray:
    """Maximality indicator per clique, measured on ``reference``.

    ``reference`` is immutable for the duration of a scoring batch (and,
    in the reconstruction loop, for the whole ``reconstruct()`` call),
    so the per-clique verdicts are memoized until the graph next
    mutates structurally - candidates that survive across search
    iterations are re-scored many times but resolve their flag once.
    """
    memo = reference.maximality_memo()
    flags = np.zeros(len(members_list), dtype=np.float64)
    for i, members in enumerate(members_list):
        key = tuple(members)
        flag = memo.get(key)
        if flag is None:
            flag = 1.0 if is_maximal_clique(reference, members) else 0.0
            memo[key] = flag
        flags[i] = flag
    return flags


def _structural_feature_matrix(
    cliques: Sequence[Clique],
    graph: WeightedGraph,
    reference_graph: WeightedGraph = None,
    batch: "_CliqueBatch" = None,
) -> np.ndarray:
    """Vectorized 13-dim connectivity-only feature matrix.

    Module-level so :class:`~repro.baselines.shyre.MotifFeaturizer` can
    reuse it for its base columns regardless of method overrides;
    callers that already built the batch tables pass them via ``batch``.
    """
    if batch is None:
        batch = _prepare_batch(cliques, graph)
    snapshot = batch.snapshot
    reference = reference_graph if reference_graph is not None else graph

    degrees = snapshot.degrees.astype(np.float64)
    degree_stats = _grouped_five_stats(
        degrees[batch.node_idx], batch.node_offsets, batch.sizes
    )

    inter = snapshot.batch_common_neighbor_counts(batch.ua, batch.ub).astype(
        np.float64
    )
    union = degrees[batch.ua] + degrees[batch.ub] - inter
    unique_overlap = np.divide(
        inter, union, out=np.zeros_like(inter), where=union > 0
    )
    overlap_stats = _grouped_five_stats(
        unique_overlap[batch.inverse], batch.pair_offsets, batch.pair_counts
    )

    sizes = batch.sizes.astype(np.float64)
    boundary = _boundary_counts(batch)
    boundary_ratio = sizes / (sizes + boundary)
    maximal = _maximality_flags(reference, batch.members_list)
    return np.column_stack(
        [degree_stats, overlap_stats, sizes, boundary_ratio, maximal]
    )


def _boundary_counts(batch: _CliqueBatch) -> np.ndarray:
    """Per clique, the number of distinct outside neighbors of its members."""
    snapshot = batch.snapshot
    n = len(batch.sizes)
    member_clique = np.repeat(np.arange(n, dtype=np.int64), batch.sizes)
    flat, owner = snapshot.expand_rows(batch.node_idx)
    if len(flat) == 0:
        return np.zeros(n, dtype=np.float64)
    neighborhood_keys = member_clique[owner] * snapshot.key_base + (
        snapshot.nbr[flat]
    )
    unique_keys = np.unique(neighborhood_keys)
    distinct = np.bincount(
        unique_keys // snapshot.key_base, minlength=n
    ).astype(np.float64)
    # Members that appear inside the neighborhood union must not count
    # towards the boundary.
    member_keys = member_clique * snapshot.key_base + batch.node_idx
    pos = np.searchsorted(unique_keys, member_keys)
    pos = np.minimum(pos, len(unique_keys) - 1)
    present = unique_keys[pos] == member_keys
    in_union = np.bincount(member_clique[present], minlength=n).astype(
        np.float64
    )
    return distinct - in_union


class _RowCachedFeaturizer:
    """Feature-row cache shared by every batch featurizer.

    Entries map a frozenset clique to its row; a node -> cached-cliques
    index sits beside them.  Each call records ``(graph.version,
    reference.version, extra)`` - ``extra`` being the per-class tuple
    of structure stamps from :meth:`_cache_stamp_extra`.  On the next
    call, every cached clique through a node the scoring graph reports
    as :meth:`~repro.hypergraph.graph.WeightedGraph.touched_since` the
    recorded version is dropped (and the same on the reference graph
    when it is a distinct object); a changed ``extra`` drops every
    row.  A lookup then hits exactly when no mutation has touched a
    member since the row was computed, and a hit is one dict get.  The
    cache is scoped to one ``(graph, reference)`` pair via their
    ``uid``s and resets whenever the featurizer is pointed at different
    graphs.

    Rows flow through untouched numerically: a cache hit returns the
    exact float64 row the batch kernel produced, so cached and uncached
    featurization are bit-identical (property-tested in
    ``tests/test_feature_cache.py``).

    Attributes
    ----------
    row_cache_limit : int
        Soft entry cap; when an insert pushes the cache past it, the
        oldest half of the entries is evicted (insertion order).
    row_cache_hits, row_cache_misses : int
        Lookup counters since the last :meth:`reset_row_cache`.
    """

    row_cache_limit = 200_000

    def __init__(self) -> None:
        self._row_cache: Dict[Clique, np.ndarray] = {}
        self._rows_through: Dict[int, Set[Clique]] = {}
        self._row_cache_scope: Optional[Tuple[int, int]] = None
        self._row_cache_seen: Optional[tuple] = None
        self.row_cache_hits = 0
        self.row_cache_misses = 0

    # -- hooks ---------------------------------------------------------
    def _cache_stamp_extra(
        self, graph: WeightedGraph, reference: WeightedGraph
    ) -> tuple:
        """Structure stamps whose change drops every cached row.

        Empty by default: every base feature - including the maximality
        indicator, since an extender vertex must be adjacent to a member
        - depends only on edges *incident to clique members*, which the
        per-member touch feed already covers (on both the scoring and
        the reference graph).  Subclasses with features that reach
        beyond the members' incident edges (e.g. clustering
        coefficients, two hops out) must add a structure stamp here.
        """
        return ()

    def _compute_rows(
        self,
        cliques: Sequence[Clique],
        graph: WeightedGraph,
        reference: WeightedGraph,
    ) -> np.ndarray:
        """Vectorized batch featurization (implemented per class)."""
        raise NotImplementedError

    # -- cache machinery ----------------------------------------------
    def reset_row_cache(self) -> None:
        """Drop every cached row and zero the hit/miss counters."""
        self._clear_rows()
        self._row_cache_scope = None
        self.row_cache_hits = 0
        self.row_cache_misses = 0

    def _clear_rows(self) -> None:
        self._row_cache.clear()
        self._rows_through.clear()
        self._row_cache_seen = None

    def row_cache_stats(self) -> Dict[str, float]:
        """Lookup counters plus the derived hit rate.

        Returns a dict with ``hits``, ``misses``, ``entries``, and
        ``hit_rate`` (0.0 when no lookups happened yet).
        """
        total = self.row_cache_hits + self.row_cache_misses
        return {
            "hits": self.row_cache_hits,
            "misses": self.row_cache_misses,
            "entries": len(self._row_cache),
            "hit_rate": self.row_cache_hits / total if total else 0.0,
        }

    def _drop_touched(self, graph: WeightedGraph, version: int) -> None:
        """Drop every cached row through a node touched after ``version``."""
        if graph.version == version:
            return
        cache = self._row_cache
        through = self._rows_through
        for node in graph.touched_since(version):
            for clique in through.pop(node, ()):
                del cache[clique]
                for member in clique:
                    if member != node:
                        through[member].discard(clique)

    def featurize_many(
        self,
        cliques: Sequence[Clique],
        graph: WeightedGraph,
        reference_graph: Optional[WeightedGraph] = None,
    ) -> np.ndarray:
        """Stack feature rows for several cliques, shape (n, n_features).

        Rows are served from the cache; only the misses are computed,
        in one :meth:`_compute_rows` batch.  Non-frozenset candidates
        (ad-hoc lists/tuples) bypass the cache: they are featurized with
        the misses but never stored, since the pool and the samplers
        always hand the hot path frozensets.
        """
        if not cliques:
            return np.zeros((0, self.n_features))
        reference = reference_graph if reference_graph is not None else graph
        scope = (graph.uid, reference.uid)
        extra = self._cache_stamp_extra(graph, reference)
        seen = self._row_cache_seen
        if scope != self._row_cache_scope or seen is None or seen[2] != extra:
            self._clear_rows()
            self._row_cache_scope = scope
        else:
            self._drop_touched(graph, seen[0])
            if reference is not graph:
                self._drop_touched(reference, seen[1])
        self._row_cache_seen = (graph.version, reference.version, extra)
        cache = self._row_cache
        rows: List[Optional[np.ndarray]] = [None] * len(cliques)
        misses: List[int] = []
        for i, clique in enumerate(cliques):
            row = cache.get(clique) if isinstance(clique, frozenset) else None
            if row is None:
                misses.append(i)
            else:
                rows[i] = row
        self.row_cache_hits += len(cliques) - len(misses)
        self.row_cache_misses += len(misses)
        if misses:
            computed = self._compute_rows(
                [cliques[i] for i in misses], graph, reference
            )
            through = self._rows_through
            for j, i in enumerate(misses):
                # Copy so the cache entry owns its 8*n_features bytes
                # instead of being a view pinning the whole miss batch.
                row = computed[j].copy()
                rows[i] = row
                clique = cliques[i]
                if isinstance(clique, frozenset):
                    cache[clique] = row
                    for node in clique:
                        through.setdefault(node, set()).add(clique)
            if len(cache) > self.row_cache_limit:
                self._evict()
        # One copy for the whole batch: vstack would first promote every
        # row to 2-D.
        return np.concatenate(rows).reshape(len(rows), -1)

    def _evict(self) -> None:
        """Keep the most recently inserted half of the cache."""
        keep = max(1, self.row_cache_limit // 2)
        items = list(self._row_cache.items())
        through = self._rows_through
        for clique, _ in items[:-keep]:
            for node in clique:
                through[node].discard(clique)
        self._row_cache = dict(items[-keep:])


class CliqueFeaturizer(_RowCachedFeaturizer):
    """Multiplicity-aware clique features (the paper's Sect. III-D).

    Feature layout (23 float64 columns): 5-stat summaries (sum, mean,
    min, max, std) of the members' weighted degrees, of the internal
    edge multiplicities ``w_uv``, of their MHH bounds (Eq. 1), and of
    the MHH portions ``MHH/w_uv``, followed by clique size, clique cut
    ratio, and the maximality indicator measured on the reference graph.

    ``featurize`` returns shape ``(23,)``; ``featurize_many`` returns
    shape ``(n, 23)`` and is deterministic: no RNG is consumed, and the
    feature-row cache never changes values, only whether they are
    recomputed.
    """

    #: node stats (5) + 3 edge feature groups (15) + clique level (3)
    n_features = 23

    def featurize(
        self,
        clique: Iterable[int],
        graph: WeightedGraph,
        reference_graph: WeightedGraph = None,
    ) -> np.ndarray:
        """Feature vector for ``clique`` measured on ``graph``.

        This is the scalar reference implementation; ``featurize_many``
        is the vectorized hot path.  ``reference_graph`` is the graph
        against which the maximality indicator is evaluated (the paper
        uses the original projected graph ``G``); it defaults to
        ``graph``.
        """
        members = sorted(set(clique))
        if len(members) < 2:
            raise ValueError(f"cliques need >= 2 nodes, got {members}")
        reference = reference_graph if reference_graph is not None else graph

        node_degrees = [float(graph.weighted_degree(u)) for u in members]

        multiplicities: List[float] = []
        mhh_values: List[float] = []
        mhh_portions: List[float] = []
        internal_weight = 0.0
        for u, v in combinations(members, 2):
            weight = float(graph.weight(u, v))
            bound = float(mhh(graph, u, v))
            multiplicities.append(weight)
            mhh_values.append(bound)
            mhh_portions.append(bound / weight if weight > 0 else 0.0)
            internal_weight += weight

        total_weight = sum(node_degrees)  # counts internal edges twice
        boundary_weight = total_weight - 2.0 * internal_weight
        denominator = internal_weight + boundary_weight
        cut_ratio = internal_weight / denominator if denominator > 0 else 0.0

        maximal = 1.0 if is_maximal_clique(reference, members) else 0.0

        features = (
            _five_stats(node_degrees)
            + _five_stats(multiplicities)
            + _five_stats(mhh_values)
            + _five_stats(mhh_portions)
            + [float(len(members)), cut_ratio, maximal]
        )
        return np.asarray(features, dtype=np.float64)

    def featurize_many(
        self,
        cliques: Sequence[Clique],
        graph: WeightedGraph,
        reference_graph: WeightedGraph = None,
    ) -> np.ndarray:
        """Stack features for several cliques, shape (n, 23).

        One vectorized pass over the cache misses: per-pair quantities
        (edge weight, MHH, portion) are computed once per *unique* node
        pair of the batch against the graph's CSR snapshot, then
        scattered to pair slots and reduced per clique with grouped
        ``reduceat`` kernels.  Cliques whose members are untouched since
        their last featurization are served from the feature-row cache.
        """
        # Defined on this class, not only inherited, so that perfbench's
        # tracer can wrap it as the featurization layer.
        return super().featurize_many(cliques, graph, reference_graph)

    def _compute_rows(
        self,
        cliques: Sequence[Clique],
        graph: WeightedGraph,
        reference: WeightedGraph,
    ) -> np.ndarray:
        batch = _prepare_batch(cliques, graph)
        snapshot = batch.snapshot

        node_stats = _grouped_five_stats(
            snapshot.weighted_degrees[batch.node_idx],
            batch.node_offsets,
            batch.sizes,
        )

        unique_weights = snapshot.pair_weights(batch.ua, batch.ub)
        unique_mhh = snapshot.batch_mhh(batch.ua, batch.ub)
        weights = unique_weights[batch.inverse]
        mhh_values = unique_mhh[batch.inverse]
        portions = np.divide(
            mhh_values, weights, out=np.zeros_like(mhh_values), where=weights > 0
        )
        weight_stats = _grouped_five_stats(
            weights, batch.pair_offsets, batch.pair_counts
        )
        mhh_stats = _grouped_five_stats(
            mhh_values, batch.pair_offsets, batch.pair_counts
        )
        portion_stats = _grouped_five_stats(
            portions, batch.pair_offsets, batch.pair_counts
        )

        internal = weight_stats[:, 0]
        total = node_stats[:, 0]  # counts internal edges twice
        denominator = total - internal  # == internal + boundary weight
        cut_ratio = np.divide(
            internal,
            denominator,
            out=np.zeros_like(internal),
            where=denominator > 0,
        )
        maximal = _maximality_flags(reference, batch.members_list)
        return np.column_stack(
            [
                node_stats,
                weight_stats,
                mhh_stats,
                portion_stats,
                batch.sizes.astype(np.float64),
                cut_ratio,
                maximal,
            ]
        )


class StructuralFeaturizer(_RowCachedFeaturizer):
    """Connectivity-only clique features (no multiplicity information).

    Used by MARIOH-M and the SHyRe baselines.  All quantities ignore edge
    weights: unweighted degrees, neighborhood-overlap (Jaccard) per edge,
    boundary size, clique size, and a maximality indicator.

    ``featurize`` returns shape ``(13,)``; ``featurize_many`` returns
    shape ``(n, 13)``.  Every column is a 1-hop statistic of the
    members' incident edges (or reference-graph maximality), so the
    inherited feature-row cache invalidates on the members' touch
    versions alone - on the scoring graph, plus the reference graph
    when the two are distinct (see
    :meth:`_RowCachedFeaturizer._cache_stamp_extra`).
    """

    #: degree stats (5) + overlap stats (5) + size, boundary ratio, maximal
    n_features = 13

    def featurize(
        self,
        clique: Iterable[int],
        graph: WeightedGraph,
        reference_graph: WeightedGraph = None,
    ) -> np.ndarray:
        members = sorted(set(clique))
        if len(members) < 2:
            raise ValueError(f"cliques need >= 2 nodes, got {members}")
        reference = reference_graph if reference_graph is not None else graph

        degrees = [float(graph.degree(u)) for u in members]

        overlaps: List[float] = []
        for u, v in combinations(members, 2):
            neighbors_u = set(graph.neighbors(u))
            neighbors_v = set(graph.neighbors(v))
            union = neighbors_u | neighbors_v
            overlap = (
                len(neighbors_u & neighbors_v) / len(union) if union else 0.0
            )
            overlaps.append(overlap)

        member_set = set(members)
        boundary = set()
        for u in members:
            boundary.update(z for z in graph.neighbors(u) if z not in member_set)
        size = float(len(members))
        boundary_ratio = size / (size + len(boundary))

        maximal = 1.0 if is_maximal_clique(reference, members) else 0.0

        features = (
            _five_stats(degrees)
            + _five_stats(overlaps)
            + [size, boundary_ratio, maximal]
        )
        return np.asarray(features, dtype=np.float64)

    def _compute_rows(
        self,
        cliques: Sequence[Clique],
        graph: WeightedGraph,
        reference: WeightedGraph,
    ) -> np.ndarray:
        return _structural_feature_matrix(cliques, graph, reference)
