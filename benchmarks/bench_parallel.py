"""Multi-core checks: the experiment grid and sharded reconstruction.

Both runs compare 1 worker against ``--workers`` (at least 2):

- a 20-cell (SHyRe-Count, MARIOH) x (enron, eu) x 5-seed grid, so pool
  startup and per-worker bundle loads amortize: the results must be
  byte-identical, and the parallel run at least 2x faster with no
  per-cell slowdown;
- a ~100k-edge chained-clique projection reconstructed in 10k-edge
  shards: the stitched outputs must hash identically under one plan
  hash and conserve every unit of edge weight, and the parallel run
  must be at least 1.5x faster.

The speedup bounds arm only with at least 4 workers on at least 4
cores; on fewer cores the pool time-slices and the ratio measures
nothing.  Nothing is written to disk.  Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_parallel.py --workers 4
"""

from __future__ import annotations

import os
import time

from repro.core.marioh import MARIOH
from repro.datasets.largescale import (
    LargeScaleConfig,
    chained_clique_projection,
)
from repro.datasets.synthetic import (
    GroupInteractionConfig,
    generate_group_hypergraph,
)
from repro.experiments.orchestrator import GridSpec, run_grid
from repro.hypergraph.projection import project
from repro.sharding import ShardingConfig, hypergraph_digest

#: one shard budget (10k edges) forces a real multi-shard plan with
#: cut edges at this scale.
N_EDGES = 100_000
MAX_SHARD_EDGES = 10_000


def _speedup_armed(workers: int) -> bool:
    return workers >= 4 and (os.cpu_count() or 1) >= 4


def test_grid_scales_across_workers(grid_workers):
    workers = max(grid_workers, 2)
    spec = GridSpec(
        methods=("SHyRe-Count", "MARIOH"),
        datasets=("enron", "eu"),
        seeds=(0, 1, 2, 3, 4),
    )
    serial = run_grid(spec, workers=1)
    parallel = run_grid(spec, workers=workers)

    assert not serial.failures, serial.failures
    assert serial.canonical_json() == parallel.canonical_json(), (
        f"grid results diverged between 1 and {workers} workers"
    )
    if _speedup_armed(workers):
        speedup = serial.wall_seconds / max(parallel.wall_seconds, 1e-9)
        assert speedup >= 2.0, (
            f"{workers}-worker grid only {speedup:.2f}x faster on "
            f"{os.cpu_count()} cores"
        )
        # Cells are independent, so a real per-cell slowdown means
        # contention; the slack absorbs scheduler noise.
        n_cells = len(spec.cells())
        mean_serial = sum(
            record["runtime_seconds"] for record in serial.cells.values()
        ) / n_cells
        mean_parallel = sum(
            record["runtime_seconds"] for record in parallel.cells.values()
        ) / n_cells
        assert mean_parallel <= 2.0 * mean_serial + 0.05, (
            f"per-cell runtime regressed under sharding: "
            f"{mean_serial:.4f}s -> {mean_parallel:.4f}s"
        )


def test_sharded_reconstruction_scales_across_workers(grid_workers):
    workers = max(grid_workers, 2)
    graph = chained_clique_projection(
        LargeScaleConfig(n_edges=N_EDGES), seed=1
    )
    source, _, _ = generate_group_hypergraph(
        GroupInteractionConfig(
            n_nodes=200, n_interactions=600, n_communities=10
        ),
        seed=3,
    )
    model = MARIOH(seed=3, phase2_scope="component").fit(source)

    def run(n_workers: int):
        started = time.perf_counter()
        result = model.reconstruct(
            graph,
            sharding=ShardingConfig(
                max_shard_edges=MAX_SHARD_EDGES, workers=n_workers
            ),
        )
        return result, time.perf_counter() - started, model.shard_stats_

    serial, serial_wall, serial_stats = run(1)
    parallel, parallel_wall, parallel_stats = run(workers)

    assert hypergraph_digest(serial) == hypergraph_digest(parallel), (
        f"sharded output diverged between 1 and {workers} workers"
    )
    assert serial_stats["plan_hash"] == parallel_stats["plan_hash"]
    assert project(serial) == graph, "weight conservation violated"
    if _speedup_armed(workers):
        speedup = serial_wall / max(parallel_wall, 1e-9)
        assert speedup >= 1.5, (
            f"sharded fan-out only {speedup:.2f}x on {os.cpu_count()} cores"
        )
