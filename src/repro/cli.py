"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List registered datasets with their Table I-style statistics.
``reconstruct``
    Run a method on a dataset (or a hypergraph file) and report accuracy.
``evaluate``
    Sweep several methods over one dataset and print a mini Table II.
``storage``
    Report storage savings of hypergraph vs projected-graph form.
``run-grid``
    Shard a (method x dataset x seed) experiment grid over worker
    processes with checkpoint/resume.
``serve``
    Run the streaming reconstruction daemon: a long-lived line-JSON TCP
    service that accepts projected-graph edits, keeps the reconstruction
    live (byte-identical to one-shot ``reconstruct()``), coalesces
    concurrent queries, and checkpoints through the verified store.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.datasets.registry import available, load
from repro.datasets.stats import table_one_stats
from repro.experiments.harness import make_method, method_registry, run_method
from repro.experiments.tables import format_table
from repro.hypergraph.io import read_hypergraph, write_hypergraph
from repro.hypergraph.projection import project
from repro.hypergraph.split import split_source_target
from repro.metrics.jaccard import jaccard_similarity, multi_jaccard_similarity
from repro.metrics.storage import storage_report


def _cmd_datasets(args: argparse.Namespace) -> int:
    print("registered datasets (Table I-style statistics, generated):")
    for name in available():
        bundle = load(name, seed=args.seed)
        stats = table_one_stats(bundle.hypergraph)
        print("  " + stats.as_row(name))
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    if args.input:
        # A missing or malformed file, or one too small to split.
        try:
            hypergraph = read_hypergraph(args.input)
            source, target = split_source_target(hypergraph, seed=args.seed)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}")
            return 2
        target_graph = project(target)
        name = args.input
    else:
        bundle = load(args.dataset, seed=args.seed)
        source = bundle.source_hypergraph
        target = bundle.target_hypergraph
        target_graph = bundle.target_graph
        name = bundle.name

    sharding = None
    if args.shards or args.max_shard_edges:
        from repro.core.marioh import MARIOH
        from repro.sharding import ShardingConfig

        sharding = ShardingConfig(
            max_shard_edges=args.max_shard_edges,
            n_shards=args.shards,
            workers=args.workers,
            seed=args.seed,
            workdir=args.shard_workdir,
        )

    method = make_method(args.method, seed=args.seed)
    if sharding is not None and not isinstance(method, MARIOH):
        print(f"error: --shards/--max-shard-edges require MARIOH, "
              f"not {args.method}")
        return 2
    method.fit(source)
    if sharding is not None:
        reconstruction = method.reconstruct(target_graph, sharding=sharding)
    else:
        reconstruction = method.reconstruct(target_graph)
    print(f"{args.method} on {name}:")
    if sharding is not None:
        stats = method.shard_stats_
        print(
            f"  sharded: {stats['n_shards']} shard(s) "
            f"(budget {stats['max_shard_edges']} edges, "
            f"{stats.get('boundary_edges', 0)} boundary edges, "
            f"{args.workers} worker(s))"
        )
        print(
            f"  plan {str(stats['plan_hash'])[:12]}: partition "
            f"{stats['partition_seconds']:.2f}s, grid "
            f"{stats.get('grid_wall_seconds', 0.0):.2f}s, stitch "
            f"{stats.get('stitch_seconds', 0.0):.2f}s"
        )
    print(f"  reconstructed hyperedges: {reconstruction.num_unique_edges}")
    print(f"  Jaccard:       {jaccard_similarity(target, reconstruction):.4f}")
    print(
        f"  multi-Jaccard: "
        f"{multi_jaccard_similarity(target, reconstruction):.4f}"
    )
    if args.output:
        write_hypergraph(reconstruction, args.output)
        print(f"  wrote reconstruction to {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.experiments.harness import accuracy_table

    bundle = load(args.dataset, seed=args.seed)
    methods = args.methods or ["SHyRe-Count", "SHyRe-Unsup", "MARIOH"]
    table = accuracy_table(
        methods,
        [bundle],
        preserve_multiplicity=args.preserve_multiplicity,
        seeds=[args.seed],
    )
    metric = "multi-Jaccard" if args.preserve_multiplicity else "Jaccard"
    print(
        format_table(
            table, [bundle.name], title=f"{metric} x100 on {bundle.name}"
        )
    )
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    if args.input:
        try:
            hypergraph = read_hypergraph(args.input)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}")
            return 2
        name = args.input
    else:
        hypergraph = load(args.dataset, seed=args.seed).hypergraph
        name = args.dataset
    report = storage_report(hypergraph)
    print(f"storage comparison for {name}:")
    print(f"  hypergraph records: {report.hypergraph_cost}")
    print(f"  projected-graph records: {report.graph_cost}")
    print(f"  savings ratio: {report.savings_ratio:.1%}")
    print(f"  compression factor: {report.compression_factor:.2f}x")
    return 0


def _apply_store_args(args: argparse.Namespace) -> None:
    """Export the ``--store``/``--no-store`` choice as ``REPRO_STORE``.

    The environment variable - not Python state - is the source of
    truth, so orchestrator pool workers (which inherit the environment)
    resolve the same store as the coordinator.  An empty value disables
    the store even when the parent environment set one.
    """
    if getattr(args, "no_store", False):
        os.environ["REPRO_STORE"] = ""
    elif getattr(args, "store", None):
        os.environ["REPRO_STORE"] = os.path.abspath(args.store)


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from repro.store import default_store, registry_manifest

    if args.manifest:
        payload = registry_manifest(
            names=args.datasets or None, seed=args.seed
        )
    else:
        cache = default_store()
        if cache is None:
            print(
                "no artifact store configured; pass --store DIR or set "
                "REPRO_STORE"
            )
            return 2
        payload = cache.summary()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MARIOH hypergraph reconstruction (ICDE 2025 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed")
    store_group = parser.add_mutually_exclusive_group()
    store_group.add_argument(
        "--store", metavar="DIR",
        help="content-addressed artifact store directory: dataset "
        "bundles and fitted models are cached there and reused on "
        "sha256-verified hits (exported as REPRO_STORE so worker "
        "processes inherit it)",
    )
    store_group.add_argument(
        "--no-store", action="store_true",
        help="disable the artifact store even if REPRO_STORE is set",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list datasets with statistics")

    reconstruct = commands.add_parser(
        "reconstruct", help="reconstruct one dataset with one method"
    )
    reconstruct.add_argument(
        "--dataset", default="crime", choices=list(available())
    )
    reconstruct.add_argument(
        "--method", default="MARIOH", choices=list(method_registry())
    )
    reconstruct.add_argument(
        "--input", help="hypergraph file to split/reconstruct instead"
    )
    reconstruct.add_argument(
        "--output", help="write the reconstruction to this file"
    )
    reconstruct.add_argument(
        "--shards", type=int,
        help="reconstruct shard-by-shard on the orchestrator, targeting "
        "this many shards (MARIOH only; results are byte-identical to "
        "any other worker count)",
    )
    reconstruct.add_argument(
        "--max-shard-edges", type=int,
        help="shard budget as an explicit intra-shard edge cap "
        "(alternative to --shards)",
    )
    reconstruct.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for sharded reconstruction (default 1)",
    )
    reconstruct.add_argument(
        "--shard-workdir",
        help="persistent shard working directory: per-shard cells "
        "checkpoint here and a rerun resumes from completed shards",
    )

    evaluate = commands.add_parser(
        "evaluate", help="compare methods on one dataset"
    )
    evaluate.add_argument(
        "--dataset", default="crime", choices=list(available())
    )
    evaluate.add_argument(
        "--methods", nargs="*", choices=list(method_registry())
    )
    evaluate.add_argument(
        "--preserve-multiplicity", action="store_true",
        help="Table III setting (multi-Jaccard) instead of Table II",
    )

    storage = commands.add_parser(
        "storage", help="hypergraph vs graph storage comparison"
    )
    storage.add_argument(
        "--dataset", default="pschool", choices=list(available())
    )
    storage.add_argument("--input", help="hypergraph file instead of a dataset")

    store = commands.add_parser(
        "store",
        help="inspect the artifact store / emit hashed dataset manifests",
    )
    store.add_argument(
        "--manifest", action="store_true",
        help="emit the hashed registry manifest (config hash + generated-"
        "bundle sha256 + sizes per dataset) instead of the store summary",
    )
    store.add_argument(
        "--datasets", nargs="*", choices=list(available()),
        help="restrict the manifest to these datasets (default: all)",
    )
    store.add_argument("--output", help="write the JSON here instead of stdout")

    report = commands.add_parser(
        "report", help="run the condensed reproduction report"
    )
    report.add_argument(
        "--full", action="store_true",
        help="standard dataset/method set instead of the quick subset",
    )
    report.add_argument("--output", help="write the markdown report here")

    grid = commands.add_parser(
        "run-grid", help="shard an experiment grid over worker processes"
    )
    grid.add_argument(
        "--preset", choices=["table2", "table3", "ablation", "quick"],
        help="named grid (paper table/ablation); overrides methods/datasets",
    )
    grid.add_argument(
        "--methods", nargs="*", help="method names (default: full registry)"
    )
    grid.add_argument(
        "--datasets", nargs="*", choices=list(available()),
        help="dataset names (default: crime)",
    )
    grid.add_argument(
        "--seeds", nargs="*", type=int,
        help="explicit sweep seeds (default: the preset's, or 0)",
    )
    grid.add_argument(
        "--n-seeds", type=int,
        help="derive this many per-cell seeds from a SplitMix64 stream "
        "keyed by --base-seed instead of listing them explicitly",
    )
    grid.add_argument(
        "--base-seed", type=int, default=0,
        help="base of the derived per-cell seed stream (with --n-seeds)",
    )
    grid.add_argument(
        "--preserve-multiplicity", action="store_true",
        help="Table III setting (multi-Jaccard) instead of Table II",
    )
    grid.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; 1 runs inline (results are byte-identical "
        "for any worker count)",
    )
    grid.add_argument(
        "--checkpoint",
        help="JSON checkpoint path: completed cells persist here and a "
        "rerun resumes from them",
    )
    grid.add_argument(
        "--max-cells", type=int,
        help="stop after this many new cells (checkpoint keeps them)",
    )
    grid.add_argument(
        "--retries", type=int,
        help="attempt budget per cell: retryable failures (crash/timeout/"
        "transient) are re-executed with backed-off, deterministically "
        "jittered delays before quarantine (default 2; with "
        "--inject-faults, the plan's max_faults cap + 1)",
    )
    grid.add_argument(
        "--cell-timeout", type=float,
        help="per-attempt watchdog deadline in seconds; a hung cell is "
        "classified 'timeout' and retried instead of stalling the grid",
    )
    grid.add_argument(
        "--inject-faults", metavar="SPEC",
        help="deterministic chaos testing: e.g. "
        "'crash=0.2,timeout=0.1,transient=0.1,corrupt=0.1' (also accepts "
        "max_faults=N); faults are a pure function of --fault-seed",
    )
    grid.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault-injection stream (with --inject-faults)",
    )
    grid.add_argument("--output", help="write the full grid result JSON here")

    serve = commands.add_parser(
        "serve", help="run the streaming reconstruction daemon"
    )
    serve.add_argument(
        "--model",
        help="fitted MARIOH payload file (from MARIOH.save); when absent "
        "the daemon fits on --fit-dataset at startup",
    )
    serve.add_argument(
        "--fit-dataset", default="crime", choices=list(available()),
        help="dataset whose source hypergraph to fit on when no --model "
        "is given (default crime)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 (default) picks a free port, printed at startup",
    )
    serve.add_argument(
        "--checkpoint",
        help="sha256-verified checkpoint file: state persists here "
        "periodically and a restart resumes from the newest verified copy",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=500,
        help="applied-edit cadence between automatic checkpoints "
        "(default 500)",
    )
    serve.add_argument(
        "--batch-linger-ms", type=float, default=2.0,
        help="milliseconds the engine waits after the first in-flight "
        "request so concurrent requests coalesce into one batch; taken "
        "only while more than one client is connected (default 2.0; 0 "
        "disables)",
    )
    return parser


def _cmd_run_grid(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.orchestrator import GridSpec, preset_grid, run_grid
    from repro.resilience import (
        FaultPlan,
        RetryPolicy,
        format_quarantine_table,
        format_resilience_summary,
    )

    if args.preset:
        spec = preset_grid(args.preset, seeds=args.seeds)
        if args.preserve_multiplicity:
            import dataclasses

            spec = dataclasses.replace(spec, preserve_multiplicity=True)
    else:
        methods = tuple(args.methods) if args.methods else tuple(method_registry())
        datasets = tuple(args.datasets) if args.datasets else ("crime",)
        if args.n_seeds:
            spec = GridSpec(
                methods=methods,
                datasets=datasets,
                preserve_multiplicity=args.preserve_multiplicity,
                seed_mode="derived",
                base_seed=args.base_seed,
                n_seeds=args.n_seeds,
            )
        else:
            spec = GridSpec(
                methods=methods,
                datasets=datasets,
                seeds=tuple(args.seeds) if args.seeds else (args.seed,),
                preserve_multiplicity=args.preserve_multiplicity,
            )

    try:
        plan = (
            FaultPlan.from_string(args.inject_faults, seed=args.fault_seed)
            if args.inject_faults
            else None
        )
        if args.retries is not None:
            retries = args.retries
        elif plan is not None and plan.has_cell_faults:
            # Default to a budget that honors the completion guarantee:
            # one clean attempt beyond the plan's sabotage cap.
            retries = plan.max_faults_per_cell + 1
        else:
            retries = 2
        policy = RetryPolicy(
            max_attempts=retries, cell_timeout=args.cell_timeout
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2

    n_cells = len(spec.cells())
    print(
        f"grid: {len(spec.methods)} methods x {len(spec.datasets)} datasets "
        f"x {len(spec.seed_indices)} seeds = {n_cells} cells, "
        f"{args.workers} worker(s)"
    )
    if plan is not None:
        print(
            f"fault injection: {args.inject_faults} (seed {args.fault_seed})"
        )
    try:
        result = run_grid(
            spec,
            workers=args.workers,
            checkpoint_path=args.checkpoint,
            max_cells=args.max_cells,
            retry_policy=policy,
            fault_plan=plan,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    metric = "multi-Jaccard" if spec.preserve_multiplicity else "Jaccard"
    print(
        format_table(
            result.table(), list(spec.datasets), title=f"{metric} x100"
        )
    )
    print(
        f"\ncompleted {result.n_completed}/{n_cells} cells in "
        f"{result.wall_seconds:.2f}s wall"
        + (f" ({len(result.failures)} failed)" if result.failures else "")
    )
    stats = result.stats or {}
    if plan is not None or stats.get("retries"):
        print(format_resilience_summary(stats))
    if stats.get("store_hits") or stats.get("store_misses"):
        rate = stats.get("store_hit_rate")
        print(
            f"store: {stats['store_hits']} hit(s) / "
            f"{stats['store_misses']} miss(es)"
            + (f", hit rate {rate:.2f}" if rate is not None else "")
        )
    if result.failures:
        print(f"\nFAILED: {len(result.failures)} cell(s) quarantined")
        print(format_quarantine_table(result.failures))
    if args.output:
        payload = {
            "spec": spec.as_dict(),
            "cells": result.cells,
            "wall_seconds": result.wall_seconds,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote grid result to {args.output}")
    return 1 if result.failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.core.marioh import MARIOH
    from repro.serve import StreamingReconstructor
    from repro.serve.daemon import ReconstructionServer

    if args.model:
        # A missing or corrupt file, or a model the engine cannot serve.
        try:
            engine = StreamingReconstructor(MARIOH.load(args.model))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}")
            return 2
        print(f"loaded model from {args.model}")
    else:
        bundle = load(args.fit_dataset, seed=args.seed)
        model = MARIOH(seed=args.seed, phase2_scope="component")
        engine = StreamingReconstructor(model.fit(bundle.source_hypergraph))
        print(f"fitted on {bundle.name}")
    server = ReconstructionServer(
        engine,
        host=args.host,
        port=args.port,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        batch_linger=max(args.batch_linger_ms, 0.0) / 1000.0,
    )
    try:
        server.start()
    except RuntimeError as exc:
        print(f"error: {exc}")
        return 2
    if server.stats["resumed_from_checkpoint"]:
        print(f"resumed from checkpoint: {server.stats['resume_edits']} "
              f"edit(s) already applied")
    # Parsed by subprocess harnesses; keep the format stable and flushed.
    print(f"serving on {server.host}:{server.port}", flush=True)

    def _signal_shutdown(signum: int, frame: object) -> None:
        server.request_shutdown(reason=signal.Signals(signum).name)

    signal.signal(signal.SIGTERM, _signal_shutdown)
    signal.signal(signal.SIGINT, _signal_shutdown)
    try:
        server.wait()
    finally:
        server.close()
    print(f"drained: {server.stats['requests_total']} request(s) in "
          f"{server.stats['batches_total']} batch(es), "
          f"{engine.stats['edits_applied']} edit(s) applied, "
          f"{server.stats['checkpoints_written']} checkpoint(s) written")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import full_report

    text = full_report(seed=args.seed, quick=not args.full)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\nwrote report to {args.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _apply_store_args(args)
    handlers = {
        "datasets": _cmd_datasets,
        "reconstruct": _cmd_reconstruct,
        "evaluate": _cmd_evaluate,
        "storage": _cmd_storage,
        "store": _cmd_store,
        "report": _cmd_report,
        "run-grid": _cmd_run_grid,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
