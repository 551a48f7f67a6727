"""The reconstruction daemon: protocol, batching, durability, drain.

Covers the :class:`~repro.serve.daemon.ReconstructionServer` end to
end - request/response semantics over real sockets, per-connection
FIFO ordering under pipelining, checkpoint write/resume (including
corruption rollback and refuse-to-serve on digest drift), the
``@pytest.mark.soak`` concurrency test (threaded clients, coalescing
assertion, consistency vs one-shot), and the SIGTERM drain and SIGKILL
recovery paths of the ``python -m repro serve`` subprocess.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.marioh import MARIOH
from repro.hypergraph.graph import WeightedGraph
from repro.resilience.checkpoint import CheckpointStore
from repro.serve.client import ServeClient, drain
from repro.serve.daemon import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    ReconstructionServer,
)
from repro.serve.engine import (
    StreamingReconstructor,
    random_edit_stream,
    replay_edits,
)
from repro.sharding.stitch import hypergraph_digest

from tests.conftest import structured_triangles_hypergraph

REPO_ROOT = Path(__file__).resolve().parents[1]

# Fast defaults; REPRO_SOAK=1 widens the concurrency soak.
SOAK = os.environ.get("REPRO_SOAK") == "1"
SOAK_EDIT_THREADS = 4 if SOAK else 2
SOAK_QUERY_THREADS = 4 if SOAK else 2
SOAK_EDITS_PER_THREAD = 120 if SOAK else 40
SOAK_QUERIES_PER_THREAD = 60 if SOAK else 20


@pytest.fixture(scope="module")
def model() -> MARIOH:
    fitted = MARIOH(seed=0, phase2_scope="component", max_epochs=30)
    fitted.fit(structured_triangles_hypergraph(seed=0, n_groups=10))
    return fitted


@pytest.fixture
def server(model):
    """A started in-process server; tests read its port, teardown closes."""
    instance = ReconstructionServer(StreamingReconstructor(model))
    instance.start()
    yield instance
    instance.close()


def connect(instance: ReconstructionServer) -> ServeClient:
    return ServeClient(instance.host, instance.port, timeout=30.0)


# ---------------------------------------------------------------------------
# Protocol basics
# ---------------------------------------------------------------------------
def test_roundtrip_all_ops(server):
    with connect(server) as client:
        applied = client.apply([["add_edge", 0, 1], ["add_edge", 1, 2, 2]])
        assert applied["ok"] and applied["applied"] == 2
        assert applied["edits_applied"] == 2

        queried = client.query()
        assert queried["ok"] and queried["n_edges"] == len(queried["edges"])

        snap = client.snapshot(include_edges=True)
        assert snap["ok"] and len(snap["digest"]) == 64
        assert snap["n_graph_edges"] == 2
        assert "checkpointed" not in snap  # no store configured

        stats = client.stats()
        assert stats["ok"]
        assert stats["server"]["requests_total"] >= 3
        assert stats["engine"]["edits_applied"] == 2
        assert stats["graph"]["num_edges"] == 2


def test_query_filters_by_nodes(server):
    with connect(server) as client:
        client.apply(
            [["add_edge", 0, 1], ["add_edge", 1, 2], ["add_edge", 0, 2],
             ["add_edge", 10, 11]]
        )
        everything = client.query()
        only_ten = client.query(nodes=[10])
        assert 0 < only_ten["n_edges"] < everything["n_edges"]
        for members, _multiplicity in only_ten["edges"]:
            assert 10 in members or 11 in members


def test_query_rejects_non_integer_nodes(server):
    with connect(server) as client:
        client.apply([["add_edge", 0, 1], ["add_edge", 1, 2]])
        for nodes in ([1.5], [True], ["1"], 1):
            response = client.request({"op": "query", "nodes": nodes})
            assert response["ok"] is False, nodes
            assert "list of integers" in response["error"]
        assert client.query(nodes=[1])["ok"]


def test_request_id_is_echoed(server):
    with connect(server) as client:
        response = client.request({"op": "stats", "id": "abc-123"})
        assert response["id"] == "abc-123"
        failure = client.request({"op": "apply", "id": 7, "edits": "nope"})
        assert failure["ok"] is False and failure["id"] == 7


def test_protocol_errors(server):
    with connect(server) as client:
        unknown = client.request({"op": "explode"})
        assert unknown["ok"] is False and "unknown op" in unknown["error"]

        client._sock.sendall(b"this is not json\n")
        garbage = client.recv()
        assert garbage["ok"] is False and "not valid JSON" in garbage["error"]

        client._sock.sendall(b"[1,2,3]\n")
        array = client.recv()
        assert array["ok"] is False and "JSON object" in array["error"]

        # The connection survives errors and keeps serving.
        assert client.stats()["ok"]
        assert client.stats()["server"]["errors_total"] >= 3


def test_malformed_edit_rejects_batch_atomically(server):
    with connect(server) as client:
        response = client.apply([["add_edge", 0, 1], ["add_edge", 2, 2]])
        assert response["ok"] is False
        assert "self-loops" in response["error"]
        assert client.stats()["engine"]["edits_applied"] == 0


def test_pipelined_responses_keep_fifo_order(server):
    with connect(server) as client:
        for index in range(20):
            op = "stats" if index % 3 else "query"
            client.send({"op": op, "id": index})
        responses = drain(client, 20)
        assert [r["id"] for r in responses] == list(range(20))
        assert all(r["ok"] for r in responses)


def test_lone_client_does_not_wait_for_the_batch_linger(model):
    """The linger only lets other clients' requests join a batch, so
    one connection's round trips never pay it."""
    instance = ReconstructionServer(
        StreamingReconstructor(model), batch_linger=1.0
    )
    instance.start()
    try:
        with connect(instance) as client:
            started = time.monotonic()
            for base in (0, 10, 20):
                assert client.apply([["add_edge", base, base + 1]])["ok"]
                assert client.query(nodes=[base])["n_edges"] == 1
            elapsed = time.monotonic() - started
    finally:
        instance.close()
    assert elapsed < 1.0


def test_shutdown_drains_pipelined_requests(server):
    with connect(server) as client:
        client.send({"op": "apply", "id": 0, "edits": [["add_edge", 4, 5]]})
        client.send({"op": "shutdown", "id": 1})
        client.send({"op": "query", "id": 2})  # queued behind shutdown
        responses = drain(client, 3)
        assert [r["id"] for r in responses] == [0, 1, 2]
        assert responses[1]["draining"] is True
        assert responses[2]["ok"] is True  # still answered before exit
    assert server.wait(timeout=10.0)


# ---------------------------------------------------------------------------
# Checkpoint durability
# ---------------------------------------------------------------------------
def test_checkpoint_resume_roundtrip(model, tmp_path):
    path = str(tmp_path / "serve.ckpt")
    edits = random_edit_stream(1, n_edits=50, n_nodes=14)

    first = ReconstructionServer(
        StreamingReconstructor(model), checkpoint_path=path,
        checkpoint_every=10,
    )
    first.start()
    try:
        with connect(first) as client:
            client.apply(edits)
            digest = client.snapshot()["digest"]
            client.shutdown()
        assert first.wait(timeout=10.0)
    finally:
        first.close()
    assert first.stats["checkpoints_written"] >= 1
    assert CheckpointStore(path).verify()

    second = ReconstructionServer(
        StreamingReconstructor(model), checkpoint_path=path
    )
    second.start()
    try:
        assert second.stats["resumed_from_checkpoint"] == 1
        assert second.stats["resume_edits"] == len(edits)
        with connect(second) as client:
            assert client.snapshot()["digest"] == digest
            assert client.stats()["engine"]["edits_applied"] == len(edits)
    finally:
        second.close()


def test_corrupted_checkpoint_rolls_back_to_backup(model, tmp_path):
    path = str(tmp_path / "serve.ckpt")
    server = ReconstructionServer(
        StreamingReconstructor(model), checkpoint_path=path,
        checkpoint_every=5,
    )
    server.start()
    try:
        with connect(server) as client:
            client.apply([["add_edge", 0, 1], ["add_edge", 1, 2]])
            client.snapshot()  # forces checkpoint 1
            client.apply([["add_edge", 0, 2]])
            digest = client.snapshot()["digest"]  # checkpoint 2
            client.shutdown()  # final drain checkpoint rotates 2 to .bak
        server.wait(timeout=10.0)
    finally:
        server.close()

    store = CheckpointStore(path)
    assert store.corrupt()  # flip bytes in the primary
    resumed = ReconstructionServer(
        StreamingReconstructor(model), checkpoint_path=path
    )
    resumed.start()
    try:
        # The .bak held the last pre-drain state: all 3 edits.
        assert resumed.stats["resumed_from_checkpoint"] == 1
        assert resumed.stats["resume_edits"] == 3
        assert any(
            e["event"] == "rollback" for e in resumed.store.events
        )
        with connect(resumed) as client:
            assert client.snapshot()["digest"] == digest
    finally:
        resumed.close()


def test_resume_refuses_foreign_or_drifted_checkpoints(model, tmp_path):
    foreign = str(tmp_path / "foreign.ckpt")
    CheckpointStore(foreign).write({"format": "something-else", "version": 1})
    with pytest.raises(RuntimeError, match="not a serve checkpoint"):
        ReconstructionServer(
            StreamingReconstructor(model), checkpoint_path=foreign
        ).start()

    drifted = str(tmp_path / "drifted.ckpt")
    CheckpointStore(drifted).write(
        {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "edits_applied": 1,
            "nodes": [0, 1],
            "edges": [[0, 1, 1]],
            "digest": "0" * 64,  # cannot match the re-derived digest
        }
    )
    with pytest.raises(RuntimeError, match="digest mismatch"):
        ReconstructionServer(
            StreamingReconstructor(model), checkpoint_path=drifted
        ).start()


# ---------------------------------------------------------------------------
# Concurrency soak
# ---------------------------------------------------------------------------
@pytest.mark.soak
def test_concurrent_clients_coalesce_and_stay_consistent(model):
    """Threaded edit + query clients: batching observable, state exact.

    Edit threads apply disjoint add_edge-only streams (commutative, so
    the final graph is interleaving-independent); query threads hammer
    pipelined queries/stats.  Afterwards the daemon must show fewer
    engine batches than requests (coalescing happened), agree with the
    one-shot reconstruction of the union graph, and drain cleanly.
    """
    server = ReconstructionServer(
        StreamingReconstructor(model), batch_linger=0.005
    )
    server.start()
    errors: list = []
    all_edits: list = []
    for thread_index in range(SOAK_EDIT_THREADS):
        stream = random_edit_stream(
            100 + thread_index, n_edits=SOAK_EDITS_PER_THREAD, n_nodes=30,
            p_add=1.0, p_remove=0.0,
        )
        assert all(op == "add_edge" for op, *_ in stream)
        all_edits.append(stream)

    def edit_worker(stream):
        try:
            with connect(server) as client:
                for start in range(0, len(stream), 5):
                    response = client.apply(stream[start:start + 5])
                    assert response["ok"], response
        except Exception as exc:  # noqa: BLE001 - collected for the main thread
            errors.append(exc)

    def query_worker():
        try:
            with connect(server) as client:
                for index in range(SOAK_QUERIES_PER_THREAD):
                    client.send({"op": "query" if index % 2 else "stats",
                                 "id": index})
                responses = drain(client, SOAK_QUERIES_PER_THREAD)
                assert [r["id"] for r in responses] == list(
                    range(SOAK_QUERIES_PER_THREAD)
                )
                assert all(r["ok"] for r in responses)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=edit_worker, args=(stream,))
        for stream in all_edits
    ] + [
        threading.Thread(target=query_worker)
        for _ in range(SOAK_QUERY_THREADS)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors

        with connect(server) as client:
            snap = client.snapshot()
            stats = client.stats()
            client.shutdown()
        assert server.wait(timeout=10.0)

        # 1. Coalescing: strictly fewer engine batches than requests.
        assert 0 < stats["server"]["batches_total"] < (
            stats["server"]["requests_total"]
        )
        # 2. Exactness: identical to one-shot on the union of all edits.
        reference = replay_edits(
            WeightedGraph(), [e for stream in all_edits for e in stream]
        )
        assert snap["digest"] == hypergraph_digest(
            model.reconstruct(reference)
        )
        total_edits = sum(len(stream) for stream in all_edits)
        assert snap["edits_applied"] == total_edits
    finally:
        server.close()


# ---------------------------------------------------------------------------
# SIGTERM drain and SIGKILL recovery of the real subprocess
# ---------------------------------------------------------------------------
def _spawn_daemon(arguments, env):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + 60
    port = None
    for line in process.stdout:
        if line.startswith("serving on "):
            port = int(line.rsplit(":", 1)[1])
            break
        if time.monotonic() > deadline:
            break
    if port is None:
        process.kill()
        raise RuntimeError("daemon never reported its port")
    return process, port


@pytest.mark.parametrize(
    "signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"]
)
def test_sigterm_drains_and_restart_resumes(model, tmp_path, signum):
    """SIGTERM drains and writes a final checkpoint; SIGKILL leaves only
    the last one written.  Either way the restarted daemon resumes from
    a verified checkpoint, the client replays the stream from its
    ``edits_applied`` watermark, and the final digest equals one-shot
    ``reconstruct()`` of the whole stream."""
    model_path = str(tmp_path / "model.json")
    checkpoint = str(tmp_path / "serve.ckpt")
    model.save(model_path)
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    edits = random_edit_stream(9, n_edits=40, n_nodes=12)
    sent = 35

    process, port = _spawn_daemon(
        ["--model", model_path, "--checkpoint", checkpoint,
         "--checkpoint-every", "10"],
        env,
    )
    try:
        with ServeClient("127.0.0.1", port) as client:
            client.apply(edits[:30])
            client.snapshot()  # forces a checkpoint at 30 edits
            client.apply(edits[30:sent])  # below the cadence
        process.send_signal(signum)
        output, _ = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
    if signum == signal.SIGTERM:
        assert process.returncode == 0
        assert "drained:" in output

    restarted, port = _spawn_daemon(
        ["--model", model_path, "--checkpoint", checkpoint], env
    )
    try:
        with ServeClient("127.0.0.1", port) as client:
            stats = client.stats()
            resumed = int(stats["engine"]["edits_applied"])
            client.apply(edits[resumed:])
            snap = client.snapshot()
            client.shutdown()
        restarted.communicate(timeout=60)
    finally:
        if restarted.poll() is None:
            restarted.kill()
    assert stats["server"]["resumed_from_checkpoint"] == 1
    assert 0 < resumed <= sent
    if signum == signal.SIGTERM:
        assert resumed == sent
    assert snap["edits_applied"] == len(edits)
    assert snap["digest"] == hypergraph_digest(
        model.reconstruct(replay_edits(WeightedGraph(), edits))
    )
