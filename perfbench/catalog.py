"""Every workload and metric of the benchmark of record, in one table.

``BENCHMARK.json`` lists names, units and directions only; this module
also records what each per-layer metric measures, which end-to-end
metric and workload it should move (``moves``), and on which workloads
the layer does real work (``exercised``).  The traced run fails when a
metric reads zero on a workload listed in its ``exercised`` set, and
``test_perfbench.py`` keeps ``BENCHMARK.json`` in step with this table.

Per-layer times and counts are per timed op: one ``reconstruct`` call
on the batch workloads, one apply-then-query step on ``serve-window``.
The set-up metrics (``datasets.*``, ``*.fit_s``) are per set-up.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

EU_X30 = "eu-x30"
CHAIN_100K = "chain-100k"
CHAIN_SHARDED = "chain-sharded"
SERVE_WINDOW = "serve-window"
WORKLOADS = (EU_X30, CHAIN_100K, CHAIN_SHARDED, SERVE_WINDOW)
BATCH = (EU_X30, CHAIN_100K, CHAIN_SHARDED)

#: raw seconds of timed ops per run and workload (``--seconds``).
RUN_SECONDS = 15

#: the "why" of each workload, with its input sizes (BENCHMARK.json).
WHY: Dict[str, str] = {
    EU_X30: (
        "eu spec x30 split by time, 12.4k-edge target, ~30 iterations: "
        "multiplicity-rich overlapping groups, where pool maintenance and "
        "clique conversion dominate"
    ),
    CHAIN_100K: (
        "100k-edge chained cliques, multiplicity 1, unsharded, global "
        "Phase 2: the ROADMAP scale target, dominated by feature-row "
        "cache keying and pool build"
    ),
    CHAIN_SHARDED: (
        "the same 100k-edge chain, 10k-edge shards run inline: the only "
        "path through sharding, orchestrator cells, shard files, atomic "
        "model saves and component Phase 2"
    ),
    SERVE_WINDOW: (
        "dblp x5, 2 replica daemons, 400-interaction sliding window, one "
        "closed-loop client, apply then query per step: writes beside "
        "reads on ~230 small components, checkpoints every 500 edits"
    ),
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    meaning: str
    moves: str = ""
    exercised: Tuple[str, ...] = ()
    bound: float = 0.0


#: end-to-end metrics, measured with tracing off.  Times are scaled to
#: the host's speed (see perfbench/clock.py); raw wall times are printed
#: and recorded beside them.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "median of the run's set-ups: input generation and fit; "
           "serve-window adds daemon start-up and the window preload",
           bound=0.25),
    Metric("throughput_per_s", "1/s", "higher",
           "projected-graph edges reconstructed (batch) or edits applied "
           "(serve) per second of timed ops", bound=0.2),
    Metric("latency_p50_ms", "ms", "lower",
           "median op: one reconstruct call, or one serve step from "
           "sending its apply to receiving its query answer", bound=0.2),
    Metric("latency_p99_ms", "ms", "lower",
           "nearest-rank 99th-percentile op: the slowest op of a batch run "
           "(under 100 ops); on serve-window, of the steps, each taken at "
           "its fastest over the replica daemons", bound=0.25),
    Metric("multi_jaccard", "ratio", "higher",
           "multi_jaccard_similarity(truth, reconstruction); "
           "deterministic for a seed", bound=0.1),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss of the benchmark process (batch) or the daemon's "
           "VmHWM (serve)", bound=0.1),
)

_SETUP = "setup_s on every workload"
_ALL = WORKLOADS

#: per-layer metrics, measured in the traced run.
PER_LAYER: Tuple[Metric, ...] = (
    Metric("datasets.generate_s", "s", "lower",
           "generate_group_hypergraph + split_source_target + "
           "chained_clique_projection, per set-up", _SETUP, _ALL),
    Metric("core.classifier.fit_s", "s", "lower",
           "CliqueClassifier.fit, per set-up",
           "setup_s: over half of it on eu-x30 and chain-*", _ALL),
    Metric("ml.mlp.fit_s", "s", "lower", "MLPClassifier.fit, per set-up",
           "setup_s: over half of it on eu-x30 and chain-*", _ALL),
    Metric("core.marioh.reconstruct_s", "s", "lower",
           "outermost MARIOH.reconstruct calls",
           "latency_p50_ms on batch workloads", _ALL),
    Metric("core.marioh.reconstruct_calls", "count", "lower",
           "MARIOH.reconstruct calls, nested ones included (per-component "
           "reconstructs on serve-window)",
           "latency_p50_ms on batch workloads", _ALL),
    Metric("core.filtering.s", "s", "lower", "filter_guaranteed_pairs",
           "throughput_per_s on chain-100k (~5%); ~2% on eu-x30", _ALL),
    Metric("core.filtering.weight_share", "ratio", "higher",
           "input weight consumed by provable size-2 hyperedges",
           "throughput_per_s on chain-100k", _ALL),
    Metric("core.pool.build_s", "s", "lower",
           "CliqueCandidatePool constructor",
           "throughput_per_s on chain-100k (~11%) vs eu-x30 (~5%)", _ALL),
    Metric("core.pool.cliques", "count", "lower",
           "maximal cliques in freshly built pools",
           "peak_rss_mb on chain-100k", _ALL),
    Metric("core.pool.maintain_s", "s", "lower",
           "CliqueCandidatePool.notify_edges_removed",
           "throughput_per_s on eu-x30 (~27%) vs chain-100k (~6%)", _ALL),
    Metric("core.pool.audit_s", "s", "lower",
           "CliqueCandidatePool.check_invariants",
           "latency_p50_ms on batch workloads", _ALL),
    Metric("core.features.featurize_s", "s", "lower",
           "featurize_many self time: cache keying plus row assembly",
           "throughput_per_s on chain-100k (keying ~26%) vs eu-x30 (~11%); "
           "~0 on serve-window", _ALL),
    Metric("core.features.rows", "count", "lower",
           "cliques passed to featurize_many",
           "throughput_per_s on chain-100k", _ALL),
    Metric("core.features.row_cache_hit_ratio", "ratio", "higher",
           "row-cache hits / lookups, from row_cache_stats()",
           "throughput_per_s on chain-100k vs eu-x30", BATCH),
    Metric("kernels.s", "s", "lower",
           "GraphSnapshot.batch_mhh + batch_common_neighbor_counts",
           "small on every workload", _ALL),
    Metric("core.classifier.score_s", "s", "lower",
           "CliqueClassifier.score self time",
           "throughput_per_s on eu-x30 and chain-100k (a few %)", _ALL),
    Metric("core.classifier.candidates", "count", "lower",
           "cliques scored by CliqueClassifier.score",
           "throughput_per_s on eu-x30 and chain-100k", _ALL),
    Metric("ml.mlp.predict_s", "s", "lower", "MLPClassifier.predict_score",
           "throughput_per_s on eu-x30 and chain-100k (a few %)", _ALL),
    Metric("core.search.iterations", "count", "lower",
           "bidirectional_search calls", "latency_p50_ms on batch "
           "workloads", _ALL),
    Metric("core.search.iteration_self_s", "s", "lower",
           "bidirectional_search self time",
           "latency_p50_ms on batch workloads", _ALL),
    Metric("core.search.phase2_sample_s", "s", "lower",
           "sample_subcliques_stable",
           "throughput_per_s on chain-100k (~10%) vs eu-x30 (~5%)", BATCH),
    Metric("core.search.subcliques", "count", "lower",
           "sub-cliques sampled in Phase 2",
           "throughput_per_s on chain-100k vs eu-x30", BATCH),
    Metric("core.search.converted", "count", "higher",
           "cliques converted (bidirectional_search's n_converted)",
           "latency_p50_ms on batch workloads", _ALL),
    Metric("core.search.conversion_yield", "ratio", "higher",
           "converted / candidates scored",
           "latency_p50_ms on batch workloads", _ALL),
    Metric("hypergraph.graph.decrement_s", "s", "lower",
           "WeightedGraph.decrement_clique (count and total only)",
           "throughput_per_s on eu-x30 (~17%) and chain-100k (~17%)", _ALL),
    Metric("hypergraph.graph.decrements", "count", "lower",
           "WeightedGraph.decrement_clique calls",
           "throughput_per_s on eu-x30 and chain-100k", _ALL),
    Metric("hypergraph.graph.snapshot_s", "s", "lower",
           "WeightedGraph.snapshot (count and total only)",
           "throughput_per_s on every workload", _ALL),
    Metric("hypergraph.graph.subgraph_s", "s", "lower",
           "WeightedGraph.subgraph (count and total only)",
           "latency_p50_ms on serve-window", (SERVE_WINDOW,)),
    Metric("hypergraph.io.s", "s", "lower",
           "read_weighted_graph + write_weighted_graph of shard files",
           "latency_p50_ms on chain-sharded only", (CHAIN_SHARDED,)),
    Metric("sharding.partition_s", "s", "lower", "partition",
           "latency_p50_ms on chain-sharded (12-16% of the op); zero "
           "elsewhere", (CHAIN_SHARDED,)),
    Metric("sharding.shards", "count", "lower", "shards in the plan",
           "latency_p50_ms on chain-sharded", (CHAIN_SHARDED,)),
    Metric("sharding.boundary_edges", "count", "lower",
           "cut edges in the plan", "latency_p50_ms on chain-sharded",
           (CHAIN_SHARDED,)),
    Metric("sharding.cell_s", "s", "lower", "execute_shard_cell",
           "latency_p50_ms on chain-sharded", (CHAIN_SHARDED,)),
    Metric("sharding.stitch_s", "s", "lower", "stitch",
           "latency_p50_ms on chain-sharded", (CHAIN_SHARDED,)),
    Metric("experiments.orchestrator.self_s", "s", "lower",
           "run_grid minus its cells", "latency_p50_ms on chain-sharded "
           "only", (CHAIN_SHARDED,)),
    Metric("experiments.orchestrator.retries", "count", "lower",
           "retries in run_grid's result stats",
           "latency_p50_ms on chain-sharded only"),
    Metric("store.atomic_write_s", "s", "lower",
           "atomic_write_bytes (the model save of every sharded op)",
           "latency_p50_ms on chain-sharded only", (CHAIN_SHARDED,)),
    Metric("serve.engine.apply_s", "s", "lower",
           "StreamingReconstructor.apply",
           "latency_p50_ms on serve-window; zero on batch workloads",
           (SERVE_WINDOW,)),
    Metric("serve.engine.refresh_s", "s", "lower",
           "StreamingReconstructor.reconstruction self time",
           "latency_p50_ms on serve-window; zero on batch workloads",
           (SERVE_WINDOW,)),
    Metric("serve.engine.component_reconstructs", "count", "lower",
           "component reconstructs, from the stats op",
           "latency_p50_ms on serve-window", (SERVE_WINDOW,)),
    Metric("serve.engine.component_cache_hit_ratio", "ratio", "higher",
           "component cache hits / lookups, from the stats op",
           "latency_p50_ms on serve-window", (SERVE_WINDOW,)),
    Metric("serve.engine.audit_s", "s", "lower",
           "StreamingReconstructor.check_invariants",
           "latency_p50_ms on serve-window", (SERVE_WINDOW,)),
    Metric("serve.daemon.requests", "count", "lower",
           "requests handled, from the stats op",
           "latency_p50_ms on serve-window", (SERVE_WINDOW,)),
    Metric("serve.daemon.batches", "count", "lower",
           "engine batches, from the stats op",
           "latency_p50_ms on serve-window", (SERVE_WINDOW,)),
    Metric("serve.daemon.overhead_ms", "ms", "lower",
           "step latency minus engine busy time: sockets, JSON, query "
           "filtering and the two 2 ms lingers",
           "latency_p50_ms on serve-window", (SERVE_WINDOW,)),
    Metric("resilience.checkpoint.writes", "count", "lower",
           "CheckpointStore.write calls",
           "latency_p99_ms on serve-window", (SERVE_WINDOW,)),
    Metric("resilience.checkpoint.write_s", "s", "lower",
           "seconds per CheckpointStore.write",
           "latency_p99_ms on serve-window", (SERVE_WINDOW,)),
    Metric("resilience.checkpoint.bytes", "count", "lower",
           "bytes per checkpoint file", "latency_p99_ms on serve-window",
           (SERVE_WINDOW,)),
    Metric("trace.overhead_ratio", "ratio", "lower",
           "traced op median / untraced op median", "none", _ALL),
)


def benchmark_json() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }

