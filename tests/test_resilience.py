"""Tests for the resilience subsystem: fault injection, retries,
checkpoint integrity, and engine degradation.

The headline property (``@pytest.mark.faults``, also run by CI's chaos
job): a grid executed under deterministic fault injection - worker
crashes, cell timeouts, transient errors, checkpoint corruption, each
at p >= 0.2 - completes via retries with results *byte-identical* to a
fault-free serial run, at 1, 2, and 4 workers; and the same plan seed
reproduces the exact same fault sequence on every run.
"""

import json
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.core.marioh import MARIOH
from repro.core.pool import CliqueCandidatePool
from repro.experiments.orchestrator import GridSpec, cell_key, run_grid
from repro.hypergraph.graph import WeightedGraph
from repro.resilience import (
    CellTimeout,
    CheckpointStore,
    FaultPlan,
    InvariantViolation,
    RetryPolicy,
    classify_error,
    format_quarantine_table,
    format_resilience_summary,
    summarize_failures,
    watchdog,
)
from repro.resilience.checkpoint import decode_checkpoint, encode_checkpoint
from repro.rng import unit_uniform
from tests.conftest import structured_triangles_hypergraph

FAST_METHODS = ("MaxClique", "CliqueCovering")


def fast_spec(**overrides):
    spec = dict(methods=FAST_METHODS, datasets=("directors",), seeds=(0, 1))
    spec.update(overrides)
    return GridSpec(**spec)


#: Cheap backoff so retry-heavy tests stay fast.
FAST_POLICY = dict(backoff_base=0.005, backoff_factor=2.0, backoff_max=0.02)


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        keys = [cell_key("m", "d", i) for i in range(20)]
        a = FaultPlan(seed=42, p_crash=0.3, p_timeout=0.2, p_corrupt=0.4)
        b = FaultPlan(seed=42, p_crash=0.3, p_timeout=0.2, p_corrupt=0.4)
        assert a.sequence(keys, 4) == b.sequence(keys, 4)
        assert a.sequence(keys, 4), "p=0.5 over 80 draws injected nothing"

    def test_different_seeds_differ(self):
        keys = [cell_key("m", "d", i) for i in range(50)]
        a = FaultPlan(seed=1, p_crash=0.5)
        b = FaultPlan(seed=2, p_crash=0.5)
        assert a.sequence(keys, 4) != b.sequence(keys, 4)

    def test_fault_decision_is_pure(self):
        plan = FaultPlan(seed=9, p_crash=0.4, p_transient=0.4)
        # Querying attempts in any order gives the same answers: the
        # schedule is a function, not a consumed stream.
        forward = [plan.fault_for("k", a) for a in range(6)]
        backward = [plan.fault_for("k", a) for a in reversed(range(6))]
        assert forward == list(reversed(backward))

    def test_max_faults_per_cell_cap(self):
        plan = FaultPlan(seed=0, p_crash=1.0, max_faults_per_cell=2)
        assert plan.fault_for("cell", 0) == "crash"
        assert plan.fault_for("cell", 1) == "crash"
        # The cap guarantees the third attempt runs clean.
        assert plan.fault_for("cell", 2) is None
        assert plan.fault_for("cell", 3) is None

    def test_zero_probability_injects_nothing(self):
        plan = FaultPlan(seed=0)
        keys = [f"k{i}" for i in range(10)]
        assert plan.sequence(keys, 5) == []
        assert not plan.has_any_faults

    def test_from_string(self):
        plan = FaultPlan.from_string(
            "crash=0.2, timeout=0.1, transient=0.3, corrupt=0.4, max_faults=1",
            seed=5,
        )
        assert plan == FaultPlan(
            seed=5,
            p_crash=0.2,
            p_timeout=0.1,
            p_transient=0.3,
            p_corrupt=0.4,
            max_faults_per_cell=1,
        )

    def test_from_string_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_string("meteor=0.5")
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.from_string("crash")

    def test_validation(self):
        with pytest.raises(ValueError, match="p_crash"):
            FaultPlan(p_crash=1.5)
        with pytest.raises(ValueError, match="sum"):
            FaultPlan(p_crash=0.5, p_timeout=0.4, p_transient=0.2)
        with pytest.raises(ValueError, match="max_faults_per_cell"):
            FaultPlan(max_faults_per_cell=-1)

    def test_dict_roundtrip(self):
        plan = FaultPlan(seed=3, p_timeout=0.25, max_faults_per_cell=1)
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_fault_stream_independent_of_retry_stream(self):
        # Same integer seed, same (key, attempt): the domain tags keep
        # the fault and backoff-jitter draws decorrelated.
        for key in ("a|b|0", "a|b|1", "c|d|0"):
            for attempt in range(3):
                assert unit_uniform(
                    7, ("cell-fault", key, attempt)
                ) != unit_uniform(7, ("retry-backoff", key, attempt))


# ----------------------------------------------------------------------
# RetryPolicy + taxonomy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            max_attempts=6,
            backoff_base=0.1,
            backoff_factor=2.0,
            backoff_max=0.5,
            jitter=0.0,
        )
        delays = [policy.backoff_seconds("k", a) for a in range(6)]
        assert delays[0] == 0.0
        assert delays[1:5] == [0.1, 0.2, 0.4, 0.5]
        assert delays[5] == 0.5  # capped

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=4, backoff_base=0.1, jitter=0.5, retry_seed=11
        )
        again = RetryPolicy(
            max_attempts=4, backoff_base=0.1, jitter=0.5, retry_seed=11
        )
        for attempt in (1, 2, 3):
            delay = policy.backoff_seconds("cell", attempt)
            assert delay == again.backoff_seconds("cell", attempt)
            raw = min(0.1 * 2.0 ** (attempt - 1), policy.backoff_max)
            assert raw * 0.75 <= delay <= raw * 1.25

    def test_jitter_varies_across_cells(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=1.0, retry_seed=0)
        delays = {policy.backoff_seconds(f"cell{i}", 1) for i in range(8)}
        assert len(delays) > 1, "retry storms would not decorrelate"

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="cell_timeout"):
            RetryPolicy(cell_timeout=0.0)

    def test_classify_error_taxonomy(self):
        assert classify_error("InjectedCrash") == "crash"
        assert classify_error("WorkerCrash") == "crash"
        assert classify_error("CellTimeout") == "timeout"
        assert classify_error("TransientCellError") == "transient"
        assert classify_error("InvariantViolation") == "invariant-violation"
        assert classify_error("CheckpointCorruption") == "corrupt-checkpoint"
        # Ordinary exceptions are deterministic, hence non-retryable.
        assert classify_error("KeyError") == "error"
        assert classify_error("RuntimeError") == "error"


class TestWatchdog:
    def test_interrupts_hung_block(self):
        with watchdog(0.2) as armed:
            if not armed:
                pytest.skip("watchdog cannot arm in this environment")
            started = time.perf_counter()
            with pytest.raises(CellTimeout, match="watchdog deadline"):
                time.sleep(5.0)
                raise AssertionError("sleep was not interrupted")
            assert time.perf_counter() - started < 2.0

    def test_disarms_cleanly_after_fast_block(self):
        with watchdog(0.05) as armed:
            if not armed:
                pytest.skip("watchdog cannot arm in this environment")
        # Past the deadline with the block already exited: no signal
        # may fire now that the timer is disarmed.
        time.sleep(0.1)

    def test_no_deadline_is_a_noop(self):
        with watchdog(None) as armed:
            assert armed is False

    def test_off_main_thread_yields_disarmed(self):
        seen = {}

        def probe():
            with watchdog(5.0) as armed:
                seen["armed"] = armed

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert seen["armed"] is False


# ----------------------------------------------------------------------
# CheckpointStore
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_write_read_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.write({"cells": {"a": 1}})
        assert store.read() == {"cells": {"a": 1}}
        assert store.verify()
        assert store.events == []

    def test_footer_rejects_tampering(self):
        text = encode_checkpoint({"x": 1})
        assert decode_checkpoint(text) == {"x": 1}
        assert decode_checkpoint(text.replace('"x": 1', '"x": 2')) is None
        assert decode_checkpoint(text[:-10]) is None
        assert decode_checkpoint("{}") is None  # no footer at all

    def test_corrupt_primary_rolls_back_to_backup(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.write({"state": "old"})
        store.write({"state": "new"})  # rotates verified old -> .bak
        assert store.corrupt()
        assert store.read() == {"state": "old"}
        events = [event["event"] for event in store.events]
        assert "corrupt-checkpoint" in events
        assert "rollback" in events

    def test_corrupt_primary_is_never_rotated_into_backup(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.write({"state": "good"})
        store.write({"state": "better"})
        store.corrupt()
        # The next write must not push the corrupt primary over the
        # good backup - that would let one corruption poison both: the
        # corrupt "better" bytes are discarded and "good" stays backed
        # up until a verified primary replaces it.
        store.write({"state": "best"})
        assert store.read() == {"state": "best"}
        fresh = CheckpointStore(store.path)
        assert fresh._read_verified(store.backup_path) == {"state": "good"}
        store.write({"state": "beyond"})
        assert fresh._read_verified(store.backup_path) == {"state": "best"}

    def test_unreadable_bytes_treated_as_corruption(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        store.write({"n": 1})
        blob = bytearray(store.path.read_bytes())
        blob[len(blob) // 2] = 0x84  # invalid UTF-8 start byte
        store.path.write_bytes(bytes(blob))
        assert not store.verify()
        assert store.read() is None  # no backup yet -> start fresh

    def test_missing_file_reads_none(self, tmp_path):
        store = CheckpointStore(tmp_path / "absent.json")
        assert store.read() is None
        assert not store.verify()
        assert not store.corrupt()

    def test_killed_writer_leaves_verifiable_state(self, tmp_path):
        """SIGKILL mid-flush: disk holds a complete verified checkpoint.

        The child publishes one small checkpoint, then rewrites large
        payloads in a tight loop until killed.  Whenever the kill
        lands - during the temp-file write, the fsync, or the rename -
        the surviving file must decode and verify: either the last
        published payload or the one before it, never a torn hybrid.
        """
        path = tmp_path / "ck.json"
        script = textwrap.dedent(
            """
            import sys
            from repro.resilience.checkpoint import CheckpointStore

            store = CheckpointStore(sys.argv[1])
            store.write({"generation": 0, "blob": "x"})
            print("READY", flush=True)
            generation = 0
            while True:
                generation += 1
                store.write({"generation": generation, "blob": "y" * 500000})
            """
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert child.stdout.readline().strip() == "READY"
            time.sleep(0.05)
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
        survivor = CheckpointStore(path).read()
        assert survivor is not None, "kill published a torn checkpoint"
        assert set(survivor) == {"generation", "blob"}


# ----------------------------------------------------------------------
# Retry engine (orchestrator integration)
# ----------------------------------------------------------------------
class TestRetryEngine:
    def test_transient_fault_retried_to_success_inline(self):
        spec = fast_spec(methods=("MaxClique",), seeds=(0,))
        plan = FaultPlan(seed=0, p_transient=1.0, max_faults_per_cell=1)
        policy = RetryPolicy(max_attempts=2, **FAST_POLICY)
        clean = run_grid(spec, workers=1)
        result = run_grid(spec, workers=1, retry_policy=policy, fault_plan=plan)
        assert not result.failures
        record = result.cells[cell_key("MaxClique", "directors", 0)]
        assert record["attempts"] == 2
        assert result.stats["retries"] == 1
        assert result.stats["faults_injected"] == 1
        assert result.canonical_json() == clean.canonical_json()

    def test_transient_fault_retried_to_success_pooled(self):
        spec = fast_spec(seeds=(0,))
        plan = FaultPlan(seed=0, p_transient=1.0, max_faults_per_cell=1)
        policy = RetryPolicy(max_attempts=2, **FAST_POLICY)
        clean = run_grid(spec, workers=1)
        result = run_grid(spec, workers=2, retry_policy=policy, fault_plan=plan)
        assert not result.failures
        assert result.stats["retries"] == len(spec.cells())
        assert result.canonical_json() == clean.canonical_json()

    def test_plans_outlasting_the_budget_are_rejected_not_run(self):
        # A plan that could sabotage more attempts than the budget
        # grants would let injected faults quarantine healthy cells, so
        # run_grid refuses it up front (tested below) - meaning budget
        # exhaustion by *injected* faults is unreachable by design.
        spec = fast_spec(methods=("MaxClique",), seeds=(0,))
        plan = FaultPlan(seed=0, p_crash=1.0, max_faults_per_cell=5)
        policy = RetryPolicy(max_attempts=3, **FAST_POLICY)
        with pytest.raises(ValueError, match="retry budget"):
            run_grid(spec, workers=1, retry_policy=policy, fault_plan=plan)

    def test_persistent_crasher_exhausts_budget_with_taxonomy(self):
        # A cell that genuinely kills its worker on every attempt burns
        # the whole budget and quarantines as a classified crash.
        spec = GridSpec(
            methods=("MaxClique", "FAULT:exit"),
            datasets=("directors",),
            seeds=(0,),
        )
        policy = RetryPolicy(max_attempts=2, **FAST_POLICY)
        result = run_grid(spec, workers=2, retry_policy=policy)
        record = result.cells[cell_key("FAULT:exit", "directors", 0)]
        assert record["status"] == "failed"
        assert record["error_class"] == "crash"
        assert record["error_type"] == "WorkerCrash"
        assert record["attempts"] == 2
        assert result.stats["retries"] >= 1
        assert (
            result.cells[cell_key("MaxClique", "directors", 0)]["status"]
            == "ok"
        )

    def test_hung_cell_times_out_and_quarantines(self):
        spec = GridSpec(
            methods=("MaxClique", "FAULT:sleep:30"),
            datasets=("directors",),
            seeds=(0,),
        )
        policy = RetryPolicy(
            max_attempts=2, cell_timeout=0.3, **FAST_POLICY
        )
        started = time.perf_counter()
        # workers=2 so the watchdog arms on the pool workers' main
        # threads regardless of how this test process is threaded.
        result = run_grid(spec, workers=2, retry_policy=policy)
        elapsed = time.perf_counter() - started
        hung = result.cells[cell_key("FAULT:sleep:30", "directors", 0)]
        assert hung["status"] == "failed"
        assert hung["error_class"] == "timeout"
        assert hung["error_type"] == "CellTimeout"
        assert hung["attempts"] == 2
        healthy = result.cells[cell_key("MaxClique", "directors", 0)]
        assert healthy["status"] == "ok"
        assert elapsed < 25.0, "watchdog failed to interrupt the hung cell"

    def test_deterministic_failure_not_retried(self):
        spec = GridSpec(
            methods=("FAULT:raise",), datasets=("directors",), seeds=(0,)
        )
        policy = RetryPolicy(max_attempts=4, **FAST_POLICY)
        result = run_grid(spec, workers=1, retry_policy=policy)
        record = result.cells[cell_key("FAULT:raise", "directors", 0)]
        assert record["status"] == "failed"
        assert record["error_class"] == "error"
        assert record["attempts"] == 1, (
            "a deterministic failure burned retry budget"
        )
        assert result.stats["retries"] == 0

    def test_insufficient_budget_for_plan_rejected(self):
        spec = fast_spec()
        plan = FaultPlan(seed=0, p_crash=0.5, max_faults_per_cell=2)
        with pytest.raises(ValueError, match="retry budget"):
            run_grid(
                spec,
                workers=1,
                retry_policy=RetryPolicy(max_attempts=2),
                fault_plan=plan,
            )

    def test_legacy_max_attempts_kw_still_works(self):
        spec = fast_spec(methods=("MaxClique",), seeds=(0,))
        result = run_grid(spec, workers=1, max_attempts=3)
        assert not result.failures


# ----------------------------------------------------------------------
# The headline property: fault-injected grids are byte-identical
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestFaultInjectionDeterminism:
    PLAN = dict(
        p_crash=0.2,
        p_timeout=0.2,
        p_transient=0.2,
        p_corrupt=0.2,
        max_faults_per_cell=2,
    )

    def _policy(self):
        # 0.5s is ~500x the warm per-cell runtime of the fast methods,
        # so only injected timeouts (which sleep past the deadline on
        # purpose) ever trip the watchdog.
        return RetryPolicy(max_attempts=3, cell_timeout=0.5, **FAST_POLICY)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_faulted_grid_matches_clean_serial_run(self, tmp_path, workers):
        spec = fast_spec()
        baseline = run_grid(spec, workers=1)
        assert not baseline.failures
        plan = FaultPlan(seed=1234, **self.PLAN)
        result = run_grid(
            spec,
            workers=workers,
            checkpoint_path=tmp_path / f"ck{workers}.json",
            retry_policy=self._policy(),
            fault_plan=plan,
        )
        assert not result.failures, result.failures
        assert result.canonical_json() == baseline.canonical_json(), (
            f"fault-injected grid diverged at workers={workers}"
        )
        assert result.stats["faults_injected"] > 0, (
            "plan with p=0.2 per channel injected nothing - the property "
            "test exercised no fault path"
        )

    def test_same_plan_seed_reproduces_fault_sequence(self, tmp_path):
        spec = fast_spec()
        runs = []
        for tag in ("first", "second"):
            result = run_grid(
                spec,
                workers=1,
                checkpoint_path=tmp_path / f"{tag}.json",
                retry_policy=self._policy(),
                fault_plan=FaultPlan(seed=99, **self.PLAN),
            )
            runs.append(result)
        first, second = runs
        assert first.stats["fault_log"], "seed 99 injected no faults"
        assert first.stats["fault_log"] == second.stats["fault_log"]
        assert (
            first.stats["faults_injected"] == second.stats["faults_injected"]
        )
        assert (
            first.stats["corruptions_injected"]
            == second.stats["corruptions_injected"]
        )
        assert first.canonical_json() == second.canonical_json()

    def test_injected_corruption_is_detected_and_survivable(self, tmp_path):
        spec = fast_spec(methods=("MaxClique",))
        plan = FaultPlan(seed=0, p_corrupt=1.0)
        checkpoint = tmp_path / "ck.json"
        result = run_grid(
            spec,
            workers=1,
            checkpoint_path=checkpoint,
            retry_policy=self._policy(),
            fault_plan=plan,
        )
        assert not result.failures
        assert result.stats["corruptions_injected"] == len(spec.cells())
        assert result.stats["corruptions_detected"] > 0
        # The end-of-run audit repaired the final corruption: what is
        # on disk verifies and a resume sees every cell as complete.
        assert CheckpointStore(checkpoint).verify()
        resumed = run_grid(spec, workers=1, checkpoint_path=checkpoint)
        assert resumed.canonical_json() == result.canonical_json()

    def test_corruption_after_run_rolls_back_on_resume(self, tmp_path):
        spec = fast_spec()
        checkpoint = tmp_path / "ck.json"
        first = run_grid(spec, workers=1, checkpoint_path=checkpoint)
        store = CheckpointStore(checkpoint)
        assert store.corrupt()
        resumed = run_grid(spec, workers=1, checkpoint_path=checkpoint)
        assert resumed.canonical_json() == first.canonical_json()
        assert resumed.stats["rollbacks"] >= 1


# ----------------------------------------------------------------------
# Engine degradation
# ----------------------------------------------------------------------
def _complete_graph(n):
    graph = WeightedGraph()
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v)
    return graph


class TestEngineInvariants:
    def test_clean_pool_passes_self_check(self):
        graph = _complete_graph(5)
        pool = CliqueCandidatePool(graph)
        assert pool.check_invariants() is None
        vanished = graph.decrement_clique(frozenset(range(4)))
        pool.notify_edges_removed(vanished)
        assert pool.check_invariants() is None
        assert pool.matches_rescan()

    def test_unreported_structural_mutation_detected(self):
        graph = _complete_graph(5)
        pool = CliqueCandidatePool(graph)
        graph.remove_edge(0, 1)  # structural change, pool never told
        violation = pool.check_invariants()
        assert violation is not None
        assert "structure_version" in violation

    def test_partial_notification_detected(self):
        graph = _complete_graph(4)
        pool = CliqueCandidatePool(graph)
        graph.remove_edge(0, 1)
        graph.remove_edge(2, 3)
        pool.notify_edges_removed([(0, 1)])  # under-reports: (2,3) lost
        violation = pool.check_invariants()
        assert violation is not None
        assert "bypassed notify_edges_removed" in violation

    def test_snapshot_coherence_detects_version_skew(self):
        graph = _complete_graph(4)
        assert graph.check_snapshot_coherence() is None
        graph.snapshot()
        assert graph.check_snapshot_coherence() is None
        # Simulate a mutation that bypassed _bump/_patch entirely.
        graph._version += 1
        violation = graph.check_snapshot_coherence()
        assert violation is not None
        assert "version" in violation


class TestEngineDegradation:
    def _fitted(self, **kwargs):
        hypergraph = structured_triangles_hypergraph(seed=0, n_groups=6)
        model = MARIOH(seed=0, max_epochs=20, **kwargs)
        model.fit(hypergraph)
        return model, hypergraph

    def test_clean_run_records_no_fallback(self):
        from repro.hypergraph.projection import project

        model, hypergraph = self._fitted()
        model.reconstruct(project(hypergraph))
        assert model.engine_fallback_ is None

    def test_violation_degrades_to_rescan_with_identical_result(
        self, monkeypatch, caplog
    ):
        import logging

        from repro.hypergraph.projection import project

        model, hypergraph = self._fitted()
        reference = MARIOH(seed=0, max_epochs=20, engine="rescan")
        reference.fit(hypergraph)
        expected = reference.reconstruct(project(hypergraph))

        monkeypatch.setattr(
            CliqueCandidatePool,
            "check_invariants",
            lambda self: "synthetic corruption for testing",
        )
        with caplog.at_level(logging.WARNING, logger="repro.core.marioh"):
            degraded = model.reconstruct(project(hypergraph))
        assert model.engine_fallback_ == {
            "iteration": 0,
            "violation": "synthetic corruption for testing",
        }
        assert "falling back to the rescan engine" in caplog.text
        assert degraded == expected

    def test_strict_invariants_raises(self, monkeypatch):
        from repro.hypergraph.projection import project

        model, hypergraph = self._fitted(strict_invariants=True)
        monkeypatch.setattr(
            CliqueCandidatePool,
            "check_invariants",
            lambda self: "synthetic corruption for testing",
        )
        with pytest.raises(InvariantViolation, match="iteration 0"):
            model.reconstruct(project(hypergraph))


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
class TestReporting:
    FAILURES = {
        "m|d|0": {
            "error_class": "timeout",
            "error_type": "CellTimeout",
            "error_message": "cell exceeded its 0.3s watchdog deadline",
            "attempts": 3,
        },
        "m|d|1": {
            "error_class": "crash",
            "error_type": "WorkerCrash",
            "error_message": "worker process died " + "x" * 60,
            "attempts": 2,
        },
    }

    def test_summarize_failures_counts_by_class(self):
        assert summarize_failures(self.FAILURES) == {"crash": 1, "timeout": 1}

    def test_quarantine_table_contents(self):
        table = format_quarantine_table(self.FAILURES)
        assert "quarantined cells (2):" in table
        assert "m|d|0" in table and "timeout" in table
        assert "by class: crash=1, timeout=1" in table
        # Long messages are truncated to keep the table scannable.
        assert "..." in table

    def test_empty_quarantine(self):
        assert "empty" in format_quarantine_table({})

    def test_resilience_summary_line(self):
        line = format_resilience_summary(
            {"retries": 3, "faults_injected": 5, "rollbacks": 1}
        )
        assert line == (
            "resilience: retries=3 faults_injected=5 corruptions_injected=0 "
            "corruptions_detected=0 rollbacks=1"
        )


def test_checkpoint_carries_integrity_footer(tmp_path):
    """run_grid's checkpoints are v2: sha256-verified on disk."""
    spec = fast_spec(methods=("MaxClique",), seeds=(0,))
    checkpoint = tmp_path / "ck.json"
    run_grid(spec, workers=1, checkpoint_path=checkpoint)
    text = checkpoint.read_text(encoding="utf-8")
    assert "#sha256=" in text
    payload = decode_checkpoint(text)
    assert payload is not None
    assert payload["version"] == 2
    assert json.loads(json.dumps(payload))  # plain JSON all the way down
