"""In-memory span tracer installed around the program's public calls.

The traced run times each layer from outside: :func:`install` replaces
a public function or method with a wrapper under the name its caller
looks up (``repro.core.marioh.bidirectional_search``, not
``repro.core.search.bidirectional_search``, because ``marioh`` imports
it by name), and :meth:`Tracer.installed` puts every original back on
exit, so untraced ops run the program exactly as shipped.

Each wrapped call becomes a span ``(id, name, start, end, parent, op,
self)``; self time is the span's duration minus the time its child
calls cover.  Calls made hundreds of thousands of times per op
(``aggregate=True``) are kept as a per-op count and total instead of
one span each.  ``clique_touch_stamp`` is deliberately not wrapped: it
runs once per cached row and a wrapper would dominate what it measures.
Spans stay in memory and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Spans, aggregated calls and counters, keyed by op.

    ``op`` labels everything recorded until it changes; when it is
    ``None`` (inside the daemon), each root span labels itself, so the
    caller can later pick the ops that fall in a time window.
    """

    def __init__(self) -> None:
        self.op: Optional[str] = None
        self.spans: List[Tuple] = []
        self.aggregates: Dict[Tuple[str, str], List[float]] = {}
        self.counters: Dict[Tuple[str, str], float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float, op: str) -> None:
        self.counters[(op, name)] = self.counters.get((op, name), 0.0) + value

    def wrap(
        self,
        name: str,
        fn: Callable,
        aggregate: bool = False,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as ``name``.

        ``before(args, kwargs)`` runs ahead of the timed region and its
        return value reaches ``after(tracer, op, args, kwargs, result,
        state)``, which runs once the call has returned - the hook that
        turns a call's arguments and result into counters.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = None if aggregate else next(tracer._ids)
            if parent is not None:
                op = parent[2]
            elif tracer.op is not None:
                op = tracer.op
            else:
                op = f"root-{span_id}" if span_id is not None else "none"
            state = before(args, kwargs) if before is not None else None
            frame = [span_id, 0.0, op]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self_time = duration - frame[1]
            if aggregate:
                totals = tracer.aggregates.setdefault((op, name), [0, 0.0, 0.0])
                totals[0] += 1
                totals[1] += duration
                totals[2] += self_time
            else:
                tracer.spans.append((
                    span_id, name, start, end,
                    parent[0] if parent is not None else None, op, self_time,
                ))
            if after is not None:
                after(tracer, op, args, kwargs, result, state)
            return result

        return traced

    @contextmanager
    def installed(self, targets) -> Iterator["Tracer"]:
        """Install ``targets`` (see :func:`install`) for the block."""
        install(self, targets)
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write every span, aggregate and counter to ``path`` (JSON)."""
        payload = {
            "spans": self.spans,
            "aggregates": [[op, name, *totals]
                           for (op, name), totals in self.aggregates.items()],
            "counters": [[op, name, value]
                         for (op, name), value in self.counters.items()],
        }
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    @classmethod
    def load(cls, path) -> "Tracer":
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        tracer = cls()
        tracer.spans = [tuple(span) for span in payload["spans"]]
        tracer.aggregates = {(op, name): [count, total, self_time]
                             for op, name, count, total, self_time
                             in payload["aggregates"]}
        tracer.counters = {(op, name): value
                           for op, name, value in payload["counters"]}
        return tracer


# -- hooks turning arguments and results into counters ------------------
def _after_filter(tracer, op, args, kwargs, result, state):
    graph = args[0]
    tracer.count("filter_input_weight", graph.total_weight(), op)
    tracer.count("filter_consumed_weight",
                 graph.total_weight() - result[0].total_weight(), op)


def _after_pool(tracer, op, args, kwargs, result, state):
    tracer.count("pool_cliques", len(args[0]), op)


def _before_featurize(args, kwargs):
    stats = args[0].row_cache_stats()
    return stats["hits"], stats["misses"]


def _after_featurize(tracer, op, args, kwargs, result, state):
    stats = args[0].row_cache_stats()
    tracer.count("rows", len(args[1]), op)
    tracer.count("row_cache_hits", stats["hits"] - state[0], op)
    tracer.count("row_cache_lookups",
                 stats["hits"] + stats["misses"] - state[0] - state[1], op)


def _after_score(tracer, op, args, kwargs, result, state):
    tracer.count("candidates", len(args[1]), op)


def _after_search(tracer, op, args, kwargs, result, state):
    tracer.count("converted", result[2], op)


def _after_sample(tracer, op, args, kwargs, result, state):
    tracer.count("subcliques", len(result), op)


def _after_partition(tracer, op, args, kwargs, result, state):
    tracer.count("shards", result.n_shards, op)
    tracer.count("boundary_edges", result.n_boundary_edges, op)


def _after_run_grid(tracer, op, args, kwargs, result, state):
    tracer.count("retries", result.stats.get("retries", 0), op)


def _after_checkpoint(tracer, op, args, kwargs, result, state):
    tracer.count("checkpoint_bytes", os.path.getsize(args[0].path), op)


#: (module, attribute path, span name, options) of every wrapped call.
CORE_TARGETS = (
    ("repro.core.marioh", "MARIOH.reconstruct", "marioh.reconstruct", {}),
    ("repro.core.marioh", "filter_guaranteed_pairs", "filtering",
     {"after": _after_filter}),
    ("repro.core.marioh", "bidirectional_search", "search.iteration",
     {"after": _after_search}),
    ("repro.core.search", "sample_subcliques_stable", "search.phase2_sample",
     {"after": _after_sample}),
    ("repro.core.pool", "CliqueCandidatePool.__init__", "pool.build",
     {"after": _after_pool}),
    ("repro.core.pool", "CliqueCandidatePool.notify_edges_removed",
     "pool.maintain", {}),
    ("repro.core.pool", "CliqueCandidatePool.check_invariants", "pool.audit",
     {}),
    ("repro.core.features", "CliqueFeaturizer.featurize_many",
     "features.featurize", {"before": _before_featurize,
                            "after": _after_featurize}),
    ("repro.core.classifier", "CliqueClassifier.score", "classifier.score",
     {"after": _after_score}),
    ("repro.core.classifier", "CliqueClassifier.fit", "classifier.fit", {}),
    ("repro.ml.mlp", "MLPClassifier.fit", "mlp.fit", {}),
    ("repro.ml.mlp", "MLPClassifier.predict_score", "mlp.predict", {}),
    ("repro.hypergraph.graph", "GraphSnapshot.batch_mhh", "kernels",
     {"aggregate": True}),
    ("repro.hypergraph.graph", "GraphSnapshot.batch_common_neighbor_counts",
     "kernels", {"aggregate": True}),
    ("repro.hypergraph.graph", "WeightedGraph.decrement_clique",
     "graph.decrement", {"aggregate": True}),
    ("repro.hypergraph.graph", "WeightedGraph.snapshot", "graph.snapshot",
     {"aggregate": True}),
    ("repro.hypergraph.graph", "WeightedGraph.subgraph", "graph.subgraph",
     {"aggregate": True}),
    ("repro.sharding.execute", "partition", "sharding.partition",
     {"after": _after_partition}),
    ("repro.sharding.execute", "execute_shard_cell", "sharding.cell", {}),
    ("repro.sharding.execute", "stitch", "sharding.stitch", {}),
    ("repro.sharding.execute", "read_weighted_graph", "io", {}),
    ("repro.sharding.execute", "write_weighted_graph", "io", {}),
    ("repro.experiments.orchestrator", "run_grid", "orchestrator.run_grid",
     {"after": _after_run_grid}),
    ("repro.store.atomic", "atomic_write_bytes", "store.atomic_write", {}),
    ("repro.datasets.synthetic", "generate_group_hypergraph",
     "datasets.generate", {}),
    ("repro.hypergraph.split", "split_source_target", "datasets.generate", {}),
    ("repro.datasets.largescale", "chained_clique_projection",
     "datasets.generate", {}),
)

#: the daemon's own layers, wrapped only inside the daemon.
SERVE_TARGETS = (
    ("repro.serve.engine", "StreamingReconstructor.apply", "serve.apply", {}),
    ("repro.serve.engine", "StreamingReconstructor.reconstruction",
     "serve.refresh", {}),
    ("repro.serve.engine", "StreamingReconstructor.check_invariants",
     "serve.audit", {}),
    ("repro.resilience.checkpoint", "CheckpointStore.write",
     "checkpoint.write", {"after": _after_checkpoint}),
)


def install(tracer: Tracer, targets) -> None:
    """Replace every target with its traced wrapper on ``tracer``."""
    for module_name, path, name, options in targets:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(name, original, **options))
        tracer._patches.append((owner, attr, original))


def layer_metrics(tracer: Tracer, ops, setup_ops,
                  n_ops: Optional[int] = None) -> Dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` (per op) and of
    ``setup_ops`` (per set-up).

    Metrics that need the daemon's own counters (``serve.daemon.*``,
    the component cache) or two runs (``trace.overhead_ratio``) are
    left to the caller.
    """
    ops, setup_ops = set(ops), set(setup_ops)
    n_ops = len(ops) if n_ops is None else n_ops
    by_id = {span[0]: span for span in tracer.spans}
    incl: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    setup: Dict[str, float] = {}
    outermost = 0.0
    for span_id, name, start, end, parent, op, own in tracer.spans:
        if op in setup_ops:
            setup[name] = setup.get(name, 0.0) + end - start
        if op not in ops:
            continue
        incl[name] = incl.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if name == "marioh.reconstruct":
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[1] != name:
                ancestor = by_id.get(ancestor[4])
            if ancestor is None:
                outermost += end - start
    agg_count: Dict[str, float] = {}
    agg_total: Dict[str, float] = {}
    for (op, name), (count, total, _) in tracer.aggregates.items():
        if op in ops:
            agg_count[name] = agg_count.get(name, 0) + count
            agg_total[name] = agg_total.get(name, 0.0) + total
    counters: Dict[str, float] = {}
    for (op, name), value in tracer.counters.items():
        if op in ops:
            counters[name] = counters.get(name, 0.0) + value

    def per_op(value: float) -> float:
        return value / n_ops if n_ops else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    n_setups = max(len(setup_ops), 1)
    return {
        "datasets.generate_s": setup.get("datasets.generate", 0.0) / n_setups,
        "core.classifier.fit_s": setup.get("classifier.fit", 0.0) / n_setups,
        "ml.mlp.fit_s": setup.get("mlp.fit", 0.0) / n_setups,
        "core.marioh.reconstruct_s": per_op(outermost),
        "core.marioh.reconstruct_calls":
            per_op(calls.get("marioh.reconstruct", 0)),
        "core.filtering.s": per_op(incl.get("filtering", 0.0)),
        "core.filtering.weight_share": ratio(
            counters.get("filter_consumed_weight", 0.0),
            counters.get("filter_input_weight", 0.0)),
        "core.pool.build_s": per_op(incl.get("pool.build", 0.0)),
        "core.pool.cliques": per_op(counters.get("pool_cliques", 0.0)),
        "core.pool.maintain_s": per_op(incl.get("pool.maintain", 0.0)),
        "core.pool.audit_s": per_op(incl.get("pool.audit", 0.0)),
        "core.features.featurize_s":
            per_op(self_s.get("features.featurize", 0.0)),
        "core.features.rows": per_op(counters.get("rows", 0.0)),
        "core.features.row_cache_hit_ratio": ratio(
            counters.get("row_cache_hits", 0.0),
            counters.get("row_cache_lookups", 0.0)),
        "kernels.s": per_op(agg_total.get("kernels", 0.0)),
        "core.classifier.score_s":
            per_op(self_s.get("classifier.score", 0.0)),
        "core.classifier.candidates": per_op(counters.get("candidates", 0.0)),
        "ml.mlp.predict_s": per_op(incl.get("mlp.predict", 0.0)),
        "core.search.iterations": per_op(calls.get("search.iteration", 0)),
        "core.search.iteration_self_s":
            per_op(self_s.get("search.iteration", 0.0)),
        "core.search.phase2_sample_s":
            per_op(incl.get("search.phase2_sample", 0.0)),
        "core.search.subcliques": per_op(counters.get("subcliques", 0.0)),
        "core.search.converted": per_op(counters.get("converted", 0.0)),
        "core.search.conversion_yield": ratio(
            counters.get("converted", 0.0), counters.get("candidates", 0.0)),
        "hypergraph.graph.decrement_s":
            per_op(agg_total.get("graph.decrement", 0.0)),
        "hypergraph.graph.decrements":
            per_op(agg_count.get("graph.decrement", 0)),
        "hypergraph.graph.snapshot_s":
            per_op(agg_total.get("graph.snapshot", 0.0)),
        "hypergraph.graph.subgraph_s":
            per_op(agg_total.get("graph.subgraph", 0.0)),
        "hypergraph.io.s": per_op(incl.get("io", 0.0)),
        "sharding.partition_s": per_op(incl.get("sharding.partition", 0.0)),
        "sharding.shards": per_op(counters.get("shards", 0.0)),
        "sharding.boundary_edges": per_op(counters.get("boundary_edges", 0.0)),
        "sharding.cell_s": per_op(incl.get("sharding.cell", 0.0)),
        "sharding.stitch_s": per_op(incl.get("sharding.stitch", 0.0)),
        "experiments.orchestrator.self_s":
            per_op(self_s.get("orchestrator.run_grid", 0.0)),
        "experiments.orchestrator.retries":
            per_op(counters.get("retries", 0.0)),
        "store.atomic_write_s": per_op(incl.get("store.atomic_write", 0.0)),
        "serve.engine.apply_s": per_op(incl.get("serve.apply", 0.0)),
        "serve.engine.refresh_s": per_op(self_s.get("serve.refresh", 0.0)),
        "serve.engine.audit_s": per_op(incl.get("serve.audit", 0.0)),
        "resilience.checkpoint.writes":
            per_op(calls.get("checkpoint.write", 0)),
        "resilience.checkpoint.write_s": ratio(
            incl.get("checkpoint.write", 0.0),
            calls.get("checkpoint.write", 0)),
        "resilience.checkpoint.bytes": ratio(
            counters.get("checkpoint_bytes", 0.0),
            calls.get("checkpoint.write", 0)),
    }
