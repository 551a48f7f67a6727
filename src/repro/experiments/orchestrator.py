"""Parallel experiment orchestrator: sharded (method, dataset, seed) grids.

The paper's Tables II/III and Figs. 4-7 are embarrassingly parallel
grids - every (method, dataset, seed) cell is independent of every
other.  This module shards those cells across a process pool while
keeping the *results* byte-identical no matter how many workers run or
in what order cells complete:

- **Per-cell seeding is counter-based.**  A cell's seed is a pure
  SplitMix64 function of its coordinates (or the explicit sweep seed),
  never a draw from a shared sequential stream, so scheduling cannot
  perturb it.
- **Cells are pure functions.**  A worker reloads the dataset bundle
  from its ``(name, dataset_seed)`` key (bundle generation is bitwise
  deterministic) and runs the method with the cell seed; no state flows
  between cells.
- **Checkpointing is incremental, atomic, and integrity-verified.**
  After every completed cell the full result map is rewritten through
  :class:`~repro.resilience.checkpoint.CheckpointStore` (fsync before
  rename, sha256 footer, rollback to the last verified copy), so a
  killed grid resumes from its last completed cell and a corrupted
  checkpoint is detected and recovered instead of silently trusted.
- **Failures are retried, then quarantined with a taxonomy.**  Each
  cell runs under a :class:`~repro.resilience.retry.RetryPolicy`:
  retryable failures (``crash`` / ``timeout`` / ``transient``) are
  re-executed with exponentially backed-off, deterministically
  jittered delays until the attempt budget runs out; deterministic
  failures quarantine immediately.  Quarantine records carry the
  structured ``error_class`` taxonomy plus the attempts consumed, and
  either way the rest of the grid completes.
- **Faults are injectable, deterministically.**  A
  :class:`~repro.resilience.faults.FaultPlan` sabotages chosen
  (cell, attempt) pairs and checkpoint writes as a pure function of
  its seed, which is how the retry/recovery machinery is itself
  regression-tested: a fault-injected grid must complete with results
  byte-identical to a fault-free serial run.

``accuracy_table`` and ``seed_sweep`` route through :func:`run_grid`, so
the serial experiment surface and the sharded one share a single cell
executor.  The ``python -m repro run-grid`` subcommand drives the same
machinery (and the ``bench_table*``/``bench_fig*`` scripts) from the
command line.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.errors import (
    CellTimeout,
    InjectedCrash,
    TransientCellError,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import (
    RETRYABLE_CLASSES,
    RetryPolicy,
    classify_error,
    watchdog,
)
from repro.rng import derive_seed

#: Method-name prefix that triggers deliberate cell failure.  Used by the
#: determinism/regression harness to exercise the failure paths:
#: ``FAULT:raise`` raises inside the cell executor (recorded failure),
#: ``FAULT:exit`` kills the executing process outright (simulates a
#: crashed worker; with ``workers=1`` this kills the caller, so only use
#: it against a pool), and ``FAULT:sleep:<seconds>`` hangs the cell for
#: that long before raising (exercises the watchdog).
FAULT_PREFIX = "FAULT:"

#: Checkpoint schema version (v2 added the sha256 integrity footer).
CHECKPOINT_VERSION = 2


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """A (methods x datasets x seeds) experiment grid.

    ``seed_mode="explicit"`` runs cell ``(m, d, i)`` with seed
    ``seeds[i]`` - exactly what the serial ``accuracy_table`` /
    ``seed_sweep`` loops did, preserving their numbers.
    ``seed_mode="derived"`` ignores ``seeds`` and derives the cell seed
    as ``derive_seed(base_seed, (method, dataset, seed_index))`` for
    ``seed_index in range(n_seeds)``: every cell gets a decorrelated
    63-bit seed that is a pure function of its coordinates.

    ``kind`` selects the cell executor.  The default ``"experiment"``
    runs ``(method, dataset, seed)`` cells through the harness;
    ``"shard"`` runs sharded-reconstruction cells (one per shard of a
    :class:`~repro.sharding.plan.ShardPlan`) whose working files are
    named by ``context`` - a tuple of ``(key, value)`` string pairs
    merged into every cell payload and pinned into the grid
    fingerprint, so a checkpoint can never resume against a different
    plan, model or workdir.
    """

    methods: Tuple[str, ...]
    datasets: Tuple[str, ...]
    seeds: Tuple[int, ...] = (0,)
    preserve_multiplicity: bool = False
    dataset_seed: int = 0
    seed_mode: str = "explicit"
    base_seed: int = 0
    n_seeds: int = 1
    kind: str = "experiment"
    context: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("experiment", "shard"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.seed_mode not in ("explicit", "derived"):
            raise ValueError(f"unknown seed_mode {self.seed_mode!r}")
        if self.seed_mode == "explicit" and not self.seeds:
            raise ValueError("explicit seed_mode needs at least one seed")
        if self.seed_mode == "derived" and self.n_seeds < 1:
            raise ValueError("derived seed_mode needs n_seeds >= 1")
        if not self.methods or not self.datasets:
            raise ValueError("grid needs at least one method and one dataset")

    @property
    def seed_indices(self) -> range:
        if self.seed_mode == "explicit":
            return range(len(self.seeds))
        return range(self.n_seeds)

    def cell_seed(self, method: str, dataset: str, seed_index: int) -> int:
        if self.seed_mode == "explicit":
            return int(self.seeds[seed_index])
        return derive_seed(self.base_seed, (method, dataset, seed_index))

    def cells(self) -> List[Dict[str, object]]:
        """Cell payloads in canonical (method, dataset, seed) order."""
        payloads = [
            {
                "key": cell_key(method, dataset, index),
                "method": method,
                "dataset": dataset,
                "seed_index": index,
                "cell_seed": self.cell_seed(method, dataset, index),
                "preserve_multiplicity": self.preserve_multiplicity,
                "dataset_seed": self.dataset_seed,
            }
            for method in self.methods
            for dataset in self.datasets
            for index in self.seed_indices
        ]
        if self.kind != "experiment":
            extra = dict(self.context)
            for payload in payloads:
                payload["kind"] = self.kind
                payload.update(extra)
        return payloads

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "methods": list(self.methods),
            "datasets": list(self.datasets),
            "seeds": list(self.seeds),
            "preserve_multiplicity": self.preserve_multiplicity,
            "dataset_seed": self.dataset_seed,
            "seed_mode": self.seed_mode,
            "base_seed": self.base_seed,
            "n_seeds": self.n_seeds,
        }
        # Only non-experiment grids serialize the executor fields, so
        # fingerprints (and thus resumable checkpoints) of every grid
        # written before ``kind`` existed stay valid.
        if self.kind != "experiment" or self.context:
            payload["kind"] = self.kind
            payload["context"] = [list(pair) for pair in self.context]
        return payload

    def fingerprint(self) -> str:
        """Canonical identity of the grid, pinned into checkpoints."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GridSpec":
        return cls(
            methods=tuple(payload["methods"]),
            datasets=tuple(payload["datasets"]),
            seeds=tuple(int(s) for s in payload["seeds"]),
            preserve_multiplicity=bool(payload["preserve_multiplicity"]),
            dataset_seed=int(payload["dataset_seed"]),
            seed_mode=str(payload["seed_mode"]),
            base_seed=int(payload["base_seed"]),
            n_seeds=int(payload["n_seeds"]),
            kind=str(payload.get("kind", "experiment")),
            context=tuple(
                (str(key), str(value))
                for key, value in payload.get("context", [])
            ),
        )


def cell_key(method: str, dataset: str, seed_index: int) -> str:
    """Stable identifier of one grid cell."""
    return f"{method}|{dataset}|{seed_index}"


@lru_cache(maxsize=16)
def _load_bundle(name: str, seed: int):
    """Per-process bundle cache: generation is deterministic, so cells
    sharing a dataset reuse one bitwise-identical bundle."""
    from repro.datasets.registry import load

    return load(name, seed=seed)


def _inject_fault(
    kind: str, attempt: int, watchdog_armed: bool, cell_timeout
) -> None:
    """Raise (or hang into) the injected fault ``kind``.

    ``timeout`` faults prefer to *hang* past an armed watchdog so the
    real ``SIGALRM`` machinery fires; without a watchdog they raise
    :class:`CellTimeout` directly, which classifies identically.
    """
    if kind == "crash":
        raise InjectedCrash(f"injected worker crash (attempt {attempt})")
    if kind == "transient":
        raise TransientCellError(
            f"injected transient fault (attempt {attempt})"
        )
    if kind == "timeout":
        if watchdog_armed and cell_timeout:
            # The watchdog interrupts this sleep with CellTimeout.
            time.sleep(float(cell_timeout) * 4.0 + 0.05)
        raise CellTimeout(f"injected cell timeout (attempt {attempt})")
    raise ValueError(f"unknown injected fault kind {kind!r}")


def _execute_cell(
    payload: Dict[str, object], bundle: Optional[object] = None
) -> Dict[str, object]:
    """Run one grid cell attempt; always returns a record, never raises.

    Importable at module top level so process pools can pickle it under
    any start method.  ``bundle`` is an inline-only shortcut (the pool
    always reloads from the registry, which is bitwise-identical).

    The payload may carry resilience fields set by the driver:
    ``attempt`` (0-based), ``backoff_seconds`` (slept before executing,
    so retries back off inside the worker without blocking the
    coordinator), ``cell_timeout`` (watchdog deadline), and ``fault``
    (a :class:`FaultPlan` injection for this attempt).  ``FAULT:*``
    methods are the legacy harness injections: ``raise`` exercises the
    recorded-failure path, ``exit`` kills the process to exercise real
    pool breakage, ``sleep:<seconds>`` hangs to exercise the watchdog.
    """
    from repro.experiments.harness import run_method
    from repro.store import artifacts as store_artifacts

    method = str(payload["method"])
    kind = str(payload.get("kind", "experiment"))
    attempt = int(payload.get("attempt", 0))
    record: Dict[str, object] = {
        "key": payload["key"],
        "method": method,
        "dataset": payload["dataset"],
        "seed_index": payload["seed_index"],
        "cell_seed": payload["cell_seed"],
        "attempt": attempt,
    }
    # Artifact-store telemetry: everything this attempt loads or fits
    # (bundles, models) goes through the default store when one is
    # configured; the per-cell hit/miss delta lands on the record (and
    # is aggregated into ``GridResult.stats``).  Run-varying cold vs
    # warm, hence excluded from ``deterministic_payload``.
    art_store = store_artifacts.default_store()
    store_before = art_store.stats_snapshot() if art_store is not None else None
    backoff = float(payload.get("backoff_seconds") or 0.0)
    if backoff > 0.0:
        time.sleep(backoff)
    cell_timeout = payload.get("cell_timeout")
    try:
        # Bundle loading is infrastructure, not cell work: it happens
        # before the watchdog arms so a pool worker's cold first cell
        # (imports + dataset generation) cannot spuriously trip a tight
        # deadline meant for the method itself.
        if (
            bundle is None
            and kind == "experiment"
            and not method.startswith(FAULT_PREFIX)
        ):
            bundle = _load_bundle(
                str(payload["dataset"]), int(payload["dataset_seed"])
            )
        with watchdog(cell_timeout) as armed:
            fault = payload.get("fault")
            if fault:
                _inject_fault(str(fault), attempt, armed, cell_timeout)
            if method.startswith(FAULT_PREFIX):
                fault_kind = method[len(FAULT_PREFIX) :]
                if fault_kind == "exit":
                    os._exit(1)
                if fault_kind.startswith("sleep:"):
                    time.sleep(float(fault_kind.split(":", 1)[1]))
                raise RuntimeError(f"injected fault {fault_kind!r}")
            started = time.perf_counter()
            if kind == "shard":
                from repro.sharding.execute import execute_shard_cell

                shard_record = execute_shard_cell(payload)
                record.update(
                    status="ok",
                    wall_seconds=time.perf_counter() - started,
                    **shard_record,
                )
            else:
                result = run_method(
                    method,
                    bundle,
                    preserve_multiplicity=bool(
                        payload["preserve_multiplicity"]
                    ),
                    seed=int(payload["cell_seed"]),
                )
                record.update(
                    status="ok",
                    jaccard=result.jaccard,
                    multi_jaccard=result.multi_jaccard,
                    runtime_seconds=result.runtime_seconds,
                    wall_seconds=time.perf_counter() - started,
                )
    except Exception as exc:
        # Cell isolation: no *error* escapes.  KeyboardInterrupt and
        # SystemExit deliberately propagate - an operator's Ctrl+C must
        # abort the grid (completed cells stay checkpointed), not be
        # recorded as a permanent cell failure.
        record.update(
            status="failed",
            error_type=type(exc).__name__,
            error_class=classify_error(type(exc).__name__),
            error_message=str(exc),
            error_traceback=traceback.format_exc(),
        )
    if art_store is not None:
        record["store_hits"] = art_store.stats["hits"] - store_before["hits"]
        record["store_misses"] = (
            art_store.stats["misses"] - store_before["misses"]
        )
    return record


class GridResult:
    """Completed (or partially completed) grid: one record per cell."""

    def __init__(
        self,
        spec: GridSpec,
        cells: Dict[str, Dict[str, object]],
        wall_seconds: float = 0.0,
        stats: Optional[Dict[str, object]] = None,
    ) -> None:
        self.spec = spec
        self.cells = cells
        self.wall_seconds = wall_seconds
        #: Resilience telemetry of the producing run (retries, injected
        #: faults, corruption detections, rollbacks).  Run-varying by
        #: nature, so excluded from :meth:`deterministic_payload`.
        self.stats: Dict[str, object] = stats if stats is not None else {}

    @property
    def n_completed(self) -> int:
        return len(self.cells)

    @property
    def failures(self) -> Dict[str, Dict[str, object]]:
        return {
            key: record
            for key, record in self.cells.items()
            if record.get("status") != "ok"
        }

    def deterministic_payload(self) -> Dict[str, object]:
        """The scheduling-invariant view of the result.

        Everything here is a pure function of the grid spec: scores,
        seeds, statuses, and failure identities (including the
        ``error_class`` taxonomy, which is a pure function of the error
        type).  Timings, tracebacks (whose frames differ between inline
        and pooled execution), and attempt counts are excluded - they
        legitimately vary run to run.
        """
        cells = {}
        for key, record in sorted(self.cells.items()):
            kept = {
                field: record[field]
                for field in (
                    "method",
                    "dataset",
                    "seed_index",
                    "cell_seed",
                    "status",
                    "jaccard",
                    "multi_jaccard",
                    "result_digest",
                    "n_edges",
                    "error_type",
                    "error_class",
                    "error_message",
                )
                if field in record
            }
            cells[key] = kept
        return {"fingerprint": self.spec.fingerprint(), "cells": cells}

    def canonical_json(self) -> str:
        """Byte-comparable serialization of the deterministic payload."""
        return json.dumps(
            self.deterministic_payload(), sort_keys=True, separators=(",", ":")
        )

    def table(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Aggregate to the ``accuracy_table`` shape.

        Scores are collected in seed order and reduced with the exact
        same float operations as the historical serial loop, so the
        (method, dataset) summary values are byte-identical to it.
        Pairs with any failed or missing cell are omitted (rendered as
        ``-`` by ``format_table``).
        """
        table: Dict[str, Dict[str, Dict[str, float]]] = {}
        for method in self.spec.methods:
            table[method] = {}
            for dataset in self.spec.datasets:
                scores: List[float] = []
                runtimes: List[float] = []
                complete = True
                for index in self.spec.seed_indices:
                    record = self.cells.get(cell_key(method, dataset, index))
                    if record is None or record.get("status") != "ok":
                        complete = False
                        break
                    score = (
                        record["multi_jaccard"]
                        if self.spec.preserve_multiplicity
                        else record["jaccard"]
                    )
                    scores.append(100.0 * float(score))
                    runtimes.append(float(record["runtime_seconds"]))
                if complete:
                    table[method][dataset] = {
                        "mean": float(np.mean(scores)),
                        "std": float(np.std(scores)),
                        "runtime": float(np.mean(runtimes)),
                    }
        return table


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
def _checkpoint_payload(
    spec: GridSpec, cells: Dict[str, Dict[str, object]]
) -> Dict[str, object]:
    return {
        "version": CHECKPOINT_VERSION,
        "fingerprint": spec.fingerprint(),
        "spec": spec.as_dict(),
        "cells": cells,
    }


def load_checkpoint(path) -> Optional[Dict[str, object]]:
    """Read a checkpoint, tolerating missing/torn/corrupt files (→ ``None``).

    Routes through :class:`CheckpointStore`, so a primary that fails
    its sha256 verification transparently falls back to the ``.bak``
    copy.  Checkpoints from other schema versions read as ``None`` (the
    caller starts fresh) rather than being misinterpreted.
    """
    payload = CheckpointStore(Path(path)).read()
    if payload is None or payload.get("version") != CHECKPOINT_VERSION:
        return None
    return payload


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _failure_record(
    cell: Dict[str, object],
    error_type: str,
    error_message: str,
    error_traceback: Optional[str] = None,
) -> Dict[str, object]:
    """The canonical failed-cell record (single construction point)."""
    record = {
        "key": cell["key"],
        "method": cell["method"],
        "dataset": cell["dataset"],
        "seed_index": cell["seed_index"],
        "cell_seed": cell["cell_seed"],
        "status": "failed",
        "error_type": error_type,
        "error_class": classify_error(error_type),
        "error_message": error_message,
    }
    if error_traceback is not None:
        record["error_traceback"] = error_traceback
    return record


def _infrastructure_failure(
    cell: Dict[str, object], exc: BaseException
) -> Dict[str, object]:
    """Failure record for an exception raised *outside* the cell executor
    (pickling, submission): ``_execute_cell`` itself never raises."""
    return _failure_record(
        cell, type(exc).__name__, str(exc), traceback.format_exc()
    )


def run_grid(
    spec: GridSpec,
    workers: int = 1,
    checkpoint_path: Optional[os.PathLike] = None,
    max_cells: Optional[int] = None,
    max_attempts: int = 2,
    retry_failed: bool = False,
    inline_bundles: Optional[Dict[str, object]] = None,
    retry_policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> GridResult:
    """Execute the grid, sharding cells over ``workers`` processes.

    Parameters
    ----------
    spec:
        The grid to run.
    workers:
        ``1`` executes cells inline (no pool, no pickling); ``>1``
        shards them over a ``ProcessPoolExecutor``.  Results are
        byte-identical either way (see :meth:`GridResult.canonical_json`).
    checkpoint_path:
        When given, every completed cell atomically rewrites this JSON
        file through :class:`CheckpointStore` (fsync-before-rename,
        sha256 footer, ``.bak`` rollback); a later call with the same
        spec resumes from it, skipping completed cells.  A checkpoint
        written for a *different* spec raises ``ValueError`` instead of
        silently mixing grids.
    max_cells:
        Stop after completing this many *new* cells (the checkpoint
        keeps them); used to bound one call's work and by the harness to
        simulate a mid-grid kill.
    max_attempts:
        Attempt budget per cell when no ``retry_policy`` is given
        (kept for backward compatibility; equivalent to
        ``RetryPolicy(max_attempts=max_attempts)``).
    retry_failed:
        Re-run cells whose checkpointed status is ``failed`` instead of
        keeping the failure record.
    inline_bundles:
        Optional ``{dataset_name: DatasetBundle}`` used directly by the
        inline executor, letting ``accuracy_table`` / ``seed_sweep``
        reuse already-loaded bundles when ``workers=1``.  Pool workers
        always reload from the registry by ``(name, dataset_seed)``, so
        with ``workers>1`` each provided bundle is first verified equal
        to its registry reload - a modified or differently-seeded bundle
        raises ``ValueError`` instead of being silently replaced by
        pristine registry data.
    retry_policy:
        Attempt budget, backoff schedule, and watchdog deadline per
        cell.  Retryable failures (``crash``/``timeout``/``transient``)
        are re-executed with deterministic jittered backoff before
        being quarantined; deterministic failures quarantine on first
        contact.
    fault_plan:
        Deterministic fault injection (testing/chaos): sabotages chosen
        (cell, attempt) pairs and checkpoint writes as a pure function
        of the plan seed.  Requires a retry budget exceeding the plan's
        ``max_faults_per_cell`` so injected faults can never quarantine
        a healthy cell.

    Returns a :class:`GridResult` whose ``stats`` dict carries the
    resilience telemetry: ``retries``, ``faults_injected``,
    ``fault_log`` (sorted ``(key, attempt, kind)`` triples),
    ``corruptions_injected``, ``corruptions_detected``, ``rollbacks``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    policy = (
        retry_policy
        if retry_policy is not None
        else RetryPolicy(max_attempts=max_attempts)
    )
    if (
        fault_plan is not None
        and fault_plan.has_cell_faults
        and policy.max_attempts <= fault_plan.max_faults_per_cell
    ):
        raise ValueError(
            f"retry budget ({policy.max_attempts} attempts) does not exceed "
            f"the fault plan's max_faults_per_cell "
            f"({fault_plan.max_faults_per_cell}); injected faults could "
            "quarantine healthy cells.  Raise max_attempts or lower the cap."
        )
    if workers > 1 and inline_bundles:
        for name, bundle in inline_bundles.items():
            try:
                reloaded = _load_bundle(name, spec.dataset_seed)
            except KeyError:
                reloaded = None
            if bundle != reloaded:
                raise ValueError(
                    f"bundle {name!r} does not match its registry reload "
                    f"load({name!r}, seed={spec.dataset_seed}); pool "
                    "workers would score different data than the caller "
                    "provided.  Pass dataset_seed to match how the bundle "
                    "was loaded, or run with workers=1 for ad-hoc bundles."
                )
    store = (
        CheckpointStore(Path(checkpoint_path)) if checkpoint_path else None
    )
    stats: Dict[str, object] = {
        "retries": 0,
        "faults_injected": 0,
        "fault_log": [],
        "corruptions_injected": 0,
        "corruptions_detected": 0,
        "rollbacks": 0,
    }

    cells: Dict[str, Dict[str, object]] = {}
    if store is not None:
        existing = store.read()
        if existing is not None and existing.get("version") != CHECKPOINT_VERSION:
            existing = None
        if existing is not None:
            if existing["fingerprint"] != spec.fingerprint():
                raise ValueError(
                    f"checkpoint {store.path} was written for a different "
                    "grid; delete it or point at a fresh path"
                )
            cells = dict(existing["cells"])
            if retry_failed:
                cells = {
                    key: record
                    for key, record in cells.items()
                    if record.get("status") == "ok"
                }

    pending = [cell for cell in spec.cells() if cell["key"] not in cells]
    if max_cells is not None:
        pending = pending[:max_cells]

    started = time.perf_counter()
    fault_seen = set()

    def attempt_payload(cell: Dict[str, object], attempt: int) -> Dict[str, object]:
        """Cell payload for one execution attempt, fault/backoff included."""
        key = str(cell["key"])
        payload = dict(cell)
        payload["attempt"] = attempt
        payload["cell_timeout"] = policy.cell_timeout
        payload["backoff_seconds"] = (
            policy.backoff_seconds(key, attempt) if attempt else 0.0
        )
        fault = (
            fault_plan.fault_for(key, attempt) if fault_plan is not None else None
        )
        payload["fault"] = fault
        if fault is not None and (key, attempt) not in fault_seen:
            fault_seen.add((key, attempt))
            stats["faults_injected"] += 1
            stats["fault_log"].append((key, attempt, fault))
        return payload

    def needs_retry(record: Dict[str, object], attempt: int) -> bool:
        return (
            record.get("status") != "ok"
            and record.get("error_class") in RETRYABLE_CLASSES
            and attempt + 1 < policy.max_attempts
        )

    def record_done(record: Dict[str, object], attempts: int) -> None:
        record["attempts"] = attempts
        key = str(record["key"])
        cells[key] = record
        if store is not None:
            store.write(_checkpoint_payload(spec, cells))
            if fault_plan is not None and fault_plan.corrupts_checkpoint(key):
                if store.corrupt():
                    stats["corruptions_injected"] += 1

    if workers == 1 or not pending:
        provided = inline_bundles or {}
        for cell in pending:
            bundle = provided.get(str(cell["dataset"]))
            attempt = 0
            while True:
                record = _execute_cell(
                    attempt_payload(cell, attempt), bundle=bundle
                )
                if not needs_retry(record, attempt):
                    break
                stats["retries"] += 1
                attempt += 1
            record_done(record, attempt + 1)
    else:
        crashed: List[Tuple[Dict[str, object], int]] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures: Dict[object, Tuple[Dict[str, object], int]] = {}

            def submit(cell: Dict[str, object], attempt: int) -> None:
                payload = attempt_payload(cell, attempt)
                try:
                    futures[pool.submit(_execute_cell, payload)] = (
                        cell,
                        attempt,
                    )
                except (BrokenProcessPool, RuntimeError):
                    # Pool already broken: route to isolated execution.
                    crashed.append((cell, attempt))

            for cell in pending:
                submit(cell, 0)
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    cell, attempt = futures.pop(future)
                    try:
                        record = future.result()
                    except BrokenProcessPool:
                        crashed.append((cell, attempt))
                        continue
                    except Exception as exc:
                        record_done(
                            _infrastructure_failure(cell, exc), attempt + 1
                        )
                        continue
                    if needs_retry(record, attempt):
                        stats["retries"] += 1
                        submit(cell, attempt + 1)
                    else:
                        record_done(record, attempt + 1)
        # A broken pool cannot attribute the crash to one future: every
        # unfinished cell lands here, innocents included.  Re-running
        # each crashed cell in its own dedicated single-worker pool makes
        # the attribution conclusive - a cell that breaks its private
        # pool until the retry budget runs out is the culprit and is
        # quarantined with ``error_class="crash"``; bystanders simply
        # complete - so one poisoned cell never sinks the grid.
        for cell, attempt in crashed:
            isolated = 0
            record = None
            while True:
                isolated += 1
                with ProcessPoolExecutor(max_workers=1) as solo:
                    try:
                        record = solo.submit(
                            _execute_cell, attempt_payload(cell, attempt)
                        ).result()
                    except BrokenProcessPool:
                        record = _failure_record(
                            cell,
                            "WorkerCrash",
                            "worker process died while executing this "
                            f"cell ({isolated} isolated attempts)",
                        )
                    except Exception as exc:
                        record = _infrastructure_failure(cell, exc)
                        break
                if not needs_retry(record, attempt):
                    break
                stats["retries"] += 1
                attempt += 1
            record_done(record, attempt + 1)

    # End-of-run audit: a checkpoint corrupted after its final write
    # (e.g. by an injected corruption on the last cell) is detected and
    # repaired from the authoritative in-memory state, so what survives
    # on disk always verifies.
    if store is not None:
        if cells and not store.verify():
            stats["corruptions_detected"] += 1
            store.write(_checkpoint_payload(spec, cells))
        for event in store.events:
            if event["event"] == "corrupt-checkpoint":
                stats["corruptions_detected"] += 1
            elif event["event"] == "rollback":
                stats["rollbacks"] += 1
    stats["fault_log"] = sorted(stats["fault_log"])
    store_hits = sum(
        int(record.get("store_hits", 0)) for record in cells.values()
    )
    store_misses = sum(
        int(record.get("store_misses", 0)) for record in cells.values()
    )
    stats["store_hits"] = store_hits
    stats["store_misses"] = store_misses
    stats["store_hit_rate"] = (
        store_hits / (store_hits + store_misses)
        if (store_hits + store_misses)
        else None
    )

    return GridResult(
        spec,
        cells,
        wall_seconds=time.perf_counter() - started,
        stats=stats,
    )


# ----------------------------------------------------------------------
# Named grids (the paper's tables, drivable from the CLI and benches)
# ----------------------------------------------------------------------
def preset_grid(name: str, seeds: Optional[Sequence[int]] = None) -> GridSpec:
    """Grid specs for the paper's main experiment surfaces.

    ``table2``/``table3`` mirror ``bench_table2_accuracy_reduced`` /
    ``bench_table3_accuracy_preserved`` (methods, datasets, seeds), and
    ``ablation`` mirrors ``bench_ablation_variants``; ``quick`` is a
    three-cell smoke grid.
    """
    from repro.experiments.harness import MULTIPLICITY_CAPABLE, method_registry

    full_datasets = (
        "crime",
        "hosts",
        "directors",
        "foursquare",
        "enron",
        "pschool",
        "hschool",
        "eu",
        "dblp",
        "mag-topcs",
    )
    presets = {
        "table2": GridSpec(
            methods=tuple(method_registry()),
            datasets=full_datasets,
            seeds=tuple(seeds) if seeds else (0, 1),
        ),
        "table3": GridSpec(
            methods=tuple(MULTIPLICITY_CAPABLE),
            datasets=full_datasets,
            seeds=tuple(seeds) if seeds else (0, 1),
            preserve_multiplicity=True,
        ),
        "ablation": GridSpec(
            methods=("MARIOH-M", "MARIOH-F", "MARIOH-B", "MARIOH"),
            datasets=("crime", "hosts", "enron", "eu", "dblp"),
            seeds=tuple(seeds) if seeds else (0, 1, 2),
        ),
        "quick": GridSpec(
            methods=("MaxClique", "CliqueCovering", "MARIOH"),
            datasets=("crime",),
            seeds=tuple(seeds) if seeds else (0,),
        ),
    }
    if name not in presets:
        raise KeyError(
            f"unknown grid preset {name!r}; known: {', '.join(sorted(presets))}"
        )
    return presets[name]
