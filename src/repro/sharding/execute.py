"""Per-shard reconstruction cells on the experiment orchestrator.

:func:`reconstruct_sharded` is the coordinator: it computes the
:class:`~repro.sharding.plan.ShardPlan`, materializes a shard workdir
(the fitted model as a payload-v2 file, one edge file per shard, the
plan itself), and submits one orchestrator cell per shard through
:func:`repro.experiments.orchestrator.run_grid` - inheriting its
process-pool fan-out, checkpoint/resume, retry-with-backoff, and crash
quarantine without any new machinery.  Cells are keyed by the plan
hash and the grid pins the model file's sha256, so a persistent workdir
can resume a killed run but can never mix results from two different
partitionings or two different models: resuming with either changed
raises the orchestrator's "written for a different grid" error.

Workers never see the full graph: each cell reads only its shard's
edge file and the shared model file (cached per process), which is what
caps per-process memory at the shard budget instead of the input size.
Every execution path - inline, pooled, resumed - loads the model from
the same file, so results are byte-identical at any worker count.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.io import read_weighted_graph, write_weighted_graph
from repro.store.atomic import atomic_write_text, sha256_bytes, sha256_file
from repro.sharding.plan import ShardPlan, partition
from repro.sharding.stitch import (
    canonical_edge_list,
    hypergraph_digest,
    stitch,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.marioh import MARIOH

#: method name of shard cells (their ``dataset`` is the plan hash).
SHARD_METHOD = "reconstruct-shard"

#: workdir file names.
PLAN_FILE = "plan.json"
MODEL_FILE = "model.json"
MANIFEST_FILE = "manifest.json"
SHARD_DIR = "shards"
CHECKPOINT_FILE = "cells.ckpt.json"


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (0.0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; Windows has
    no ``resource`` module at all, hence the defensive import.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


@dataclasses.dataclass(frozen=True)
class ShardingConfig:
    """How :func:`reconstruct_sharded` partitions and executes.

    Parameters
    ----------
    max_shard_edges:
        Intra-shard edge budget of the partitioner.  When ``None``,
        derived from ``n_shards`` as ``ceil(n_edges / n_shards)``.
    n_shards:
        Target shard count (used only to derive the budget; the actual
        count depends on the graph's component structure).
    workers:
        Orchestrator worker processes; ``1`` runs cells inline.
        Results are byte-identical for any value.
    seed:
        Seed of the partitioner's tie-break stream.
    workdir:
        Directory for the shard files and the cell checkpoint.  When
        given, it persists and a rerun with the same plan resumes from
        completed cells; when ``None``, a temporary directory is used
        and removed afterwards (no checkpointing).
    max_attempts:
        Retry budget per shard cell (crash/timeout/transient failures
        are re-executed before quarantine).
    cell_timeout:
        Optional per-attempt watchdog deadline in seconds.
    """

    max_shard_edges: Optional[int] = None
    n_shards: Optional[int] = None
    workers: int = 1
    seed: int = 0
    workdir: Optional[str] = None
    max_attempts: int = 2
    cell_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_shard_edges is None and self.n_shards is None:
            raise ValueError(
                "ShardingConfig needs max_shard_edges or n_shards"
            )
        if self.max_shard_edges is not None and self.max_shard_edges < 1:
            raise ValueError(
                f"max_shard_edges must be >= 1, got {self.max_shard_edges}"
            )
        if self.n_shards is not None and self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def budget(self, n_edges: int) -> int:
        """The resolved ``max_shard_edges`` for a graph of ``n_edges``."""
        if self.max_shard_edges is not None:
            return self.max_shard_edges
        return max(1, -(-n_edges // int(self.n_shards)))


def shard_file(workdir, index: int) -> Path:
    """Path of shard ``index``'s edge file inside ``workdir``."""
    return Path(workdir) / SHARD_DIR / f"shard_{index:05d}.edges"


#: per-process parsed-model cache, keyed by content sha256; small
#: because one run shares one model and the entries hold MLP weights.
_MODEL_CACHE: "OrderedDict[str, MARIOH]" = OrderedDict()
_MODEL_CACHE_SIZE = 4


def _load_model(path: str) -> "Tuple[MARIOH, str]":
    """Load (and per-process cache) a payload-v2 model; returns the
    parsed model and the hex sha256 of the file's bytes.

    Pool workers persist across cells, so each worker pays the JSON
    parse + weight materialization once per model *content* instead of
    once per shard.  The cache key is the sha256 of the bytes, never
    stat metadata: a same-size in-place rewrite within mtime
    granularity - which a ``(path, mtime_ns, size)`` key silently
    serves stale - hashes differently and is parsed fresh, while path
    aliases (relative vs absolute, symlinks) of identical bytes share
    one entry.  The file is re-read and re-hashed on every call; only
    the parse is skipped on a hit.
    """
    with open(os.path.realpath(path), "rb") as handle:
        data = handle.read()
    digest = sha256_bytes(data)
    model = _MODEL_CACHE.get(digest)
    if model is None:
        from repro.core.marioh import MARIOH

        model = MARIOH.loads(data)
        _MODEL_CACHE[digest] = model
        while len(_MODEL_CACHE) > _MODEL_CACHE_SIZE:
            _MODEL_CACHE.popitem(last=False)
    else:
        _MODEL_CACHE.move_to_end(digest)
    return model, digest


def execute_shard_cell(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one shard cell: load model + shard edges, reconstruct, digest.

    Called by the orchestrator's cell executor (inline or in a pool
    worker) for payloads with ``kind="shard"``.  Returns the fields
    merged into the cell record; ``edges`` is the canonical edge list
    (the payload the stitch consumes), ``result_digest`` its sha256 -
    the scheduling-invariant identity the determinism tests compare.
    """
    workdir = str(payload["workdir"])
    index = int(payload["seed_index"])
    model, model_sha256 = _load_model(os.path.join(workdir, MODEL_FILE))
    graph = read_weighted_graph(shard_file(workdir, index))
    started = time.perf_counter()
    reconstruction = model.reconstruct(graph)
    runtime = time.perf_counter() - started
    edges = canonical_edge_list(reconstruction)
    return {
        "edges": edges,
        "result_digest": hypergraph_digest(reconstruction),
        "n_edges": len(edges),
        "runtime_seconds": runtime,
        "n_iterations": model.n_iterations_,
        "peak_rss_mb": round(peak_rss_mb(), 2),
        "model_sha256": model_sha256,
    }


def _materialize_workdir(
    model: "MARIOH", graph: WeightedGraph, plan: ShardPlan, workdir: Path
) -> Dict[str, object]:
    """Write the plan, the fitted model, one edge file per shard, and a
    hashed manifest binding them; returns the manifest.

    The manifest (written last, atomically) records the sha256 of the
    model file and of every shard edge file, so a resumed or audited run
    can verify the workdir matches the plan hash it claims.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / SHARD_DIR).mkdir(exist_ok=True)
    plan.to_json(workdir / PLAN_FILE)
    model_sha256 = model.save(workdir / MODEL_FILE)
    shard_hashes = []
    for index, members in enumerate(plan.shards):
        path = shard_file(workdir, index)
        write_weighted_graph(graph.subgraph(members), path)
        shard_hashes.append(sha256_file(path))
    manifest = {
        "schema": "repro-shard-workdir-v1",
        "plan_hash": plan.plan_hash,
        "model_sha256": model_sha256,
        "shard_sha256": shard_hashes,
    }
    # One line: an indented dump takes the pure-Python encoder, whose
    # closures leave a reference cycle for the paused collector.
    atomic_write_text(
        workdir / MANIFEST_FILE, json.dumps(manifest, sort_keys=True)
    )
    return manifest


def reconstruct_sharded(
    model: "MARIOH", target_graph: WeightedGraph, config: ShardingConfig
) -> Hypergraph:
    """Partition, reconstruct per shard on the orchestrator, stitch.

    The implementation behind ``MARIOH.reconstruct(sharding=...)``.
    Fills ``model.shard_stats_`` with the run's telemetry (plan hash,
    partition/stitch seconds, per-shard runtimes and peak RSS, boundary
    sizes, the stitched result's digest).
    """
    from repro.experiments.orchestrator import (
        GridSpec,
        cell_key,
        run_grid,
    )
    from repro.resilience.retry import RetryPolicy

    if not model.is_fitted:
        raise RuntimeError("call fit() before reconstruct()")

    total_started = time.perf_counter()
    budget = config.budget(target_graph.num_edges)
    plan = partition(target_graph, budget, seed=config.seed)
    partition_seconds = time.perf_counter() - total_started

    if plan.n_shards == 0 or plan.n_edges == 0:
        # Edgeless graph: nothing to execute, nothing to stitch.
        model.shard_stats_ = {
            "plan_hash": plan.plan_hash,
            "n_shards": 0,
            "n_edges": 0,
            "max_shard_edges": budget,
            "partition_seconds": partition_seconds,
        }
        return Hypergraph(nodes=target_graph.nodes)

    persistent = config.workdir is not None
    workdir = (
        Path(config.workdir)
        if persistent
        else Path(tempfile.mkdtemp(prefix="repro-shards-"))
    )
    try:
        write_started = time.perf_counter()
        manifest = _materialize_workdir(model, target_graph, plan, workdir)
        write_seconds = time.perf_counter() - write_started

        spec = GridSpec(
            kind="shard",
            methods=(SHARD_METHOD,),
            datasets=(plan.plan_hash,),
            seeds=tuple(range(plan.n_shards)),
            context=(
                ("workdir", str(workdir)),
                ("model_sha256", str(manifest["model_sha256"])),
            ),
        )
        result = run_grid(
            spec,
            workers=config.workers,
            checkpoint_path=(
                workdir / CHECKPOINT_FILE if persistent else None
            ),
            retry_policy=RetryPolicy(
                max_attempts=config.max_attempts,
                cell_timeout=config.cell_timeout,
            ),
        )
        if result.failures:
            quarantined = ", ".join(
                f"{record['seed_index']}: {record.get('error_type')} "
                f"({record.get('error_message')})"
                for record in result.failures.values()
            )
            raise RuntimeError(
                f"{len(result.failures)} shard cell(s) quarantined after "
                f"retries - {quarantined}"
            )

        records = [
            result.cells[cell_key(SHARD_METHOD, plan.plan_hash, index)]
            for index in range(plan.n_shards)
        ]
        stitched, stitch_stats = stitch(
            model,
            plan,
            [record["edges"] for record in records],
            target_graph.nodes,
        )
    finally:
        if not persistent:
            shutil.rmtree(workdir, ignore_errors=True)

    shard_runtimes = [
        float(record["runtime_seconds"]) for record in records
    ]
    shard_rss = [float(record["peak_rss_mb"]) for record in records]
    model.shard_stats_ = {
        "plan_hash": plan.plan_hash,
        "model_sha256": manifest["model_sha256"],
        "n_shards": plan.n_shards,
        "max_shard_edges": budget,
        "n_nodes": plan.n_nodes,
        "n_edges": plan.n_edges,
        "workers": config.workers,
        "partition_seconds": partition_seconds,
        "write_seconds": write_seconds,
        "grid_wall_seconds": result.wall_seconds,
        "shard_runtime_seconds": shard_runtimes,
        "shard_peak_rss_mb": shard_rss,
        "peak_rss_mb_max": max(shard_rss) if shard_rss else 0.0,
        "result_digest": hypergraph_digest(stitched),
        "total_seconds": time.perf_counter() - total_started,
        **stitch_stats,
    }
    return stitched
