"""The long-lived reconstruction daemon behind ``python -m repro serve``.

:class:`ReconstructionServer` owns one
:class:`~repro.serve.engine.StreamingReconstructor` and serializes all
access to it through a single *engine thread*.  Per-connection reader
threads parse request lines and push them onto one FIFO queue; the
engine thread drains **everything in flight** into one batch per pass
(after an optional linger window that lets concurrent requests pile
up, taken only while more than one client is connected), so N clients
hammering queries between edits share one refresh - one vectorized
pass through ``featurize_many`` and the batched MHH kernels - instead
of N.  Ordering stays per-connection FIFO because the queue is FIFO
and only the engine thread writes responses.

Durability: with ``--checkpoint`` the daemon writes sha256-verified
checkpoints through :class:`~repro.resilience.checkpoint.CheckpointStore`
every ``checkpoint_every`` applied edits, on every explicit
``snapshot`` request, and once more during shutdown.  A restart resumes
from the newest *verified* copy (primary, else ``.bak``), replays the
stored edge list into a fresh graph, and re-derives the reconstruction
- refusing to serve if its digest does not match the one the
checkpoint recorded, so a code-drifted or tampered state can never
silently masquerade as the live one.

Shutdown is drain-and-flush: a ``shutdown`` request (or SIGTERM, wired
up by the CLI entry point) stops the accept loop, lets the engine
thread finish every queued request, flushes the final checkpoint, and
only then closes connections.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.hypergraph.graph import WeightedGraph
from repro.resilience.checkpoint import CheckpointStore
from repro.serve.engine import StreamingReconstructor, is_integer
from repro.serve.protocol import (
    ProtocolError,
    decode_request,
    encode,
    error_response,
    ok_response,
)

#: checkpoint file-format tag; a checkpoint of any other subsystem (or
#: a future incompatible layout) is rejected on resume.
CHECKPOINT_FORMAT = "repro-serve"
CHECKPOINT_VERSION = 1
#: The shutdown drain ends once no request has arrived for this long,
#: so a request a client pipelined behind ``shutdown`` is answered even
#: when its reader thread had not queued it yet.
DRAIN_IDLE_S = 0.05

logger = logging.getLogger(__name__)


class _Connection:
    """One accepted client socket plus its reader state.

    ``on_oserror`` observes every ``OSError`` the connection would
    otherwise swallow (send failures, teardown), called as
    ``on_oserror(where, exc)`` - the server counts and logs them so
    flush failures are visible in the ``stats`` op instead of vanishing.
    """

    def __init__(
        self,
        sock: socket.socket,
        on_oserror: Optional[Callable[[str, OSError], None]] = None,
    ) -> None:
        self.sock = sock
        self.closed = False
        self._on_oserror = on_oserror

    def _note(self, where: str, exc: OSError) -> None:
        if self._on_oserror is not None:
            self._on_oserror(where, exc)

    def send(self, message: Dict[str, object]) -> None:
        if self.closed:
            return
        try:
            self.sock.sendall(encode(message))
        except OSError as exc:
            self.closed = True
            self._note("send", exc)

    def close(self) -> None:
        self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError as exc:
            self._note("shutdown", exc)
        try:
            self.sock.close()
        except OSError as exc:
            self._note("close", exc)


class ReconstructionServer:
    """Streaming reconstruction over line-JSON TCP.

    Parameters
    ----------
    reconstructor:
        The engine to serve.
    host, port:
        Bind address; port 0 picks a free port (read :attr:`port` after
        :meth:`start`).
    checkpoint_path:
        Optional path of the sha256-verified checkpoint file; ``None``
        disables checkpointing entirely.
    checkpoint_every:
        Applied-edit cadence between automatic checkpoints.
    batch_linger:
        Seconds the engine thread waits after dequeuing the first
        request of a batch before draining the rest - the knob that
        trades a bounded latency floor for coalescing under concurrent
        load.  The wait is taken only while more than one connection is
        open, since it can only pull in other clients' requests.  0
        disables it (requests still coalesce whenever they genuinely
        queue up).
    """

    def __init__(
        self,
        reconstructor: StreamingReconstructor,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 500,
        batch_linger: float = 0.002,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if batch_linger < 0:
            raise ValueError(f"batch_linger must be >= 0, got {batch_linger}")
        self.engine = reconstructor
        self.host = host
        self._requested_port = port
        self.checkpoint_every = checkpoint_every
        self.batch_linger = batch_linger
        self.store = (
            CheckpointStore(checkpoint_path) if checkpoint_path else None
        )
        self.stats: Dict[str, int] = {
            "requests_total": 0,
            "batches_total": 0,
            "applies_total": 0,
            "queries_total": 0,
            "snapshots_total": 0,
            "stats_requests_total": 0,
            "errors_total": 0,
            "checkpoints_written": 0,
            "checkpoint_write_errors_total": 0,
            "resumed_from_checkpoint": 0,
            "resume_edits": 0,
            "teardown_oserrors_total": 0,
        }
        #: sha256 of the engine model's payload bytes, computed lazily
        #: once and pinned into every checkpoint so a resume under a
        #: different model is refused instead of silently served.
        self._model_digest: Optional[str] = None
        self._queue: "queue.Queue[Tuple[Optional[_Connection], object]]" = (
            queue.Queue()
        )
        self._connections: List[_Connection] = []
        self._conn_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._engine_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._drained = threading.Event()
        self._edits_at_checkpoint = 0
        self._started = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[1]

    def start(self) -> "ReconstructionServer":
        """Resume from the checkpoint (if any), bind, and spin up threads."""
        if self.store is not None:
            self._resume()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self._requested_port))
        self._listener.listen(64)
        self._started = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._engine_thread = threading.Thread(
            target=self._engine_loop, name="repro-serve-engine", daemon=True
        )
        self._accept_thread.start()
        self._engine_thread.start()
        return self

    def request_shutdown(self, reason: str = "requested") -> None:
        """Enqueue an internal shutdown (the SIGTERM drain path)."""
        self._queue.put((None, {"op": "shutdown", "_reason": reason}))

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the engine thread has drained and exited."""
        if self._engine_thread is None:
            return True
        self._engine_thread.join(timeout)
        return not self._engine_thread.is_alive()

    def _note_oserror(self, where: str, exc: OSError) -> None:
        """Count (and log) an OSError swallowed during socket teardown.

        ``ENOTCONN`` from ``shutdown()`` is the normal peer-closed-first
        race and logs at debug; anything else is a genuine flush/teardown
        failure and logs at warning.  Either way the counter surfaces it
        in the ``stats`` op payload.
        """
        self.stats["teardown_oserrors_total"] += 1
        import errno

        level = (
            logging.DEBUG
            if where == "shutdown" and exc.errno == errno.ENOTCONN
            else logging.WARNING
        )
        logger.log(level, "socket %s failed: %s", where, exc)

    def close(self) -> None:
        """Tear everything down (idempotent; used by tests' finally)."""
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError as exc:
                self._note_oserror("listener-close", exc)
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            connection.close()
        # Unblock the engine thread if it never saw a shutdown request.
        if self._engine_thread is not None and self._engine_thread.is_alive():
            self._queue.put((None, {"op": "shutdown", "_reason": "close"}))
            self._engine_thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _model_sha256(self) -> Optional[str]:
        """Content identity of the served model (None when unfitted)."""
        model = getattr(self.engine, "model", None)
        if model is None or not model.is_fitted:
            return None
        if self._model_digest is None:
            self._model_digest = model.content_sha256()
        return self._model_digest

    def _checkpoint_payload(self) -> Dict[str, object]:
        graph = self.engine.graph
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            # Additive to checkpoint v1: older checkpoints lack the key
            # and skip the identity check on resume.
            "model_sha256": self._model_sha256(),
            "edits_applied": self.engine.stats["edits_applied"],
            "nodes": sorted(graph.nodes),
            "edges": sorted(
                [u, v, w] for u, v, w in graph.edges_with_weights()
            ),
            "digest": self.engine.digest(),
        }

    def _write_checkpoint(self) -> None:
        """Flush a checkpoint; an OSError is counted and logged, not
        swallowed silently and not fatal to the engine thread."""
        if self.store is None:
            return
        try:
            self.store.write(self._checkpoint_payload())
        except OSError as exc:
            self.stats["checkpoint_write_errors_total"] += 1
            logger.warning(
                "checkpoint write to %s failed: %s", self.store.path, exc
            )
            return
        self.stats["checkpoints_written"] += 1
        self._edits_at_checkpoint = self.engine.stats["edits_applied"]

    def _maybe_checkpoint(self) -> None:
        if self.store is None:
            return
        applied = self.engine.stats["edits_applied"]
        if applied - self._edits_at_checkpoint >= self.checkpoint_every:
            self._write_checkpoint()

    def _resume(self) -> None:
        """Rebuild engine state from the newest verified checkpoint.

        The :class:`CheckpointStore` already guarantees byte integrity
        (sha256 footer, ``.bak`` rollback); on top of that the resumed
        *reconstruction* is re-derived from the replayed graph and must
        reproduce the digest the checkpoint recorded - a semantic
        self-test that catches state/code drift, not just bit rot.
        """
        payload = self.store.read()
        if payload is None:
            return
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise RuntimeError(
                f"not a serve checkpoint: format={payload.get('format')!r}"
            )
        if payload.get("version") != CHECKPOINT_VERSION:
            raise RuntimeError(
                f"unsupported serve checkpoint version "
                f"{payload.get('version')!r}"
            )
        recorded_model = payload.get("model_sha256")
        current_model = self._model_sha256()
        if (
            recorded_model is not None
            and current_model is not None
            and recorded_model != current_model
        ):
            raise RuntimeError(
                f"serve checkpoint was written under model sha256 "
                f"{recorded_model} but the server is running "
                f"{current_model}; refusing to resume state produced by "
                f"a different model"
            )
        self.engine.graph = WeightedGraph.from_edges(
            ((int(u), int(v), int(w)) for u, v, w in payload.get("edges", [])),
            nodes=(int(node) for node in payload.get("nodes", [])),
        )
        self.engine.stats["edits_applied"] = int(payload["edits_applied"])
        digest = self.engine.digest()
        if digest != payload.get("digest"):
            raise RuntimeError(
                "resumed reconstruction digest mismatch: checkpoint says "
                f"{payload.get('digest')!r} but replayed state derives "
                f"{digest!r}; refusing to serve from inconsistent state"
            )
        self.stats["resumed_from_checkpoint"] = 1
        self.stats["resume_edits"] = int(payload["edits_applied"])
        self._edits_at_checkpoint = int(payload["edits_applied"])

    # ------------------------------------------------------------------
    # Socket plumbing
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            connection = _Connection(sock, on_oserror=self._note_oserror)
            with self._conn_lock:
                self._connections.append(connection)
            threading.Thread(
                target=self._reader_loop,
                args=(connection,),
                name="repro-serve-reader",
                daemon=True,
            ).start()

    def _reader_loop(self, connection: _Connection) -> None:
        reader = connection.sock.makefile("r", encoding="utf-8", newline="\n")
        try:
            for line in reader:
                if not line.strip():
                    continue
                try:
                    request: object = decode_request(line)
                except ProtocolError as exc:
                    # Routed through the queue (not answered inline) so
                    # responses keep per-connection FIFO order.
                    request = ProtocolError(str(exc))
                self._queue.put((connection, request))
        except (OSError, ValueError):
            pass
        finally:
            with self._conn_lock:
                if connection in self._connections:
                    self._connections.remove(connection)
            connection.close()

    # ------------------------------------------------------------------
    # Engine thread: the only place that touches the reconstructor
    # ------------------------------------------------------------------
    def _engine_loop(self) -> None:
        stop = False
        while not stop:
            try:
                first = self._queue.get(timeout=0.25)
            except queue.Empty:
                continue
            with self._conn_lock:
                peers = len(self._connections) > 1
            if self.batch_linger and peers:
                # Let other clients' in-flight requests land in this
                # batch.  A lone client's pipelined requests are queued
                # already and drain below without the wait.
                time.sleep(self.batch_linger)
            batch = [first]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            self.stats["batches_total"] += 1
            for connection, request in batch:
                if self._handle(connection, request):
                    stop = True
            self._maybe_checkpoint()
        # Drain-and-flush: everything queued behind the shutdown request
        # still gets an answer before the final checkpoint lands.
        while True:
            try:
                connection, request = self._queue.get(timeout=DRAIN_IDLE_S)
            except queue.Empty:
                break
            self._handle(connection, request)
        if self.store is not None:
            self._write_checkpoint()
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError as exc:
                self._note_oserror("listener-close", exc)
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            connection.close()
        self._drained.set()

    def _handle(
        self, connection: Optional[_Connection], request: object
    ) -> bool:
        """Process one request; returns True when it was a shutdown."""
        self.stats["requests_total"] += 1
        if isinstance(request, ProtocolError):
            self.stats["errors_total"] += 1
            if connection is not None:
                connection.send(error_response(str(request)))
            return False
        assert isinstance(request, dict)
        op = request["op"]
        try:
            handler = getattr(self, f"_op_{op}")
            response, is_shutdown = handler(request)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            self.stats["errors_total"] += 1
            response, is_shutdown = error_response(str(exc), request), False
        if connection is not None:
            connection.send(response)
        return is_shutdown

    # -- op handlers ----------------------------------------------------
    def _op_apply(self, request) -> Tuple[Dict[str, object], bool]:
        edits = request.get("edits")
        if not isinstance(edits, list):
            raise ValueError("apply needs an 'edits' list")
        applied = self.engine.apply(edits)
        violation = self.engine.check_invariants()
        self.stats["applies_total"] += 1
        response = ok_response(
            "apply",
            request,
            applied=applied,
            edits_applied=self.engine.stats["edits_applied"],
        )
        if violation is not None:
            response["invariant_violation"] = violation
        return response, False

    def _op_query(self, request) -> Tuple[Dict[str, object], bool]:
        self.stats["queries_total"] += 1
        nodes = request.get("nodes")
        if nodes is not None and not (
            isinstance(nodes, list) and all(map(is_integer, nodes))
        ):
            raise ValueError("query 'nodes' must be a list of integers")
        items = self.engine.reconstruction().items()
        if nodes is not None:
            wanted = {int(node) for node in nodes}
            items = [item for item in items if not wanted.isdisjoint(item[0])]
        edges = [
            [sorted(edge), multiplicity]
            for edge, multiplicity in sorted(
                items, key=lambda item: (len(item[0]), sorted(item[0]))
            )
        ]
        return (
            ok_response("query", request, edges=edges, n_edges=len(edges)),
            False,
        )

    def _op_snapshot(self, request) -> Tuple[Dict[str, object], bool]:
        self.stats["snapshots_total"] += 1
        digest = self.engine.digest()
        reconstruction = self.engine.reconstruction()
        response = ok_response(
            "snapshot",
            request,
            digest=digest,
            n_hyperedges=reconstruction.num_unique_edges,
            n_graph_edges=self.engine.graph.num_edges,
            edits_applied=self.engine.stats["edits_applied"],
        )
        if request.get("include_edges"):
            from repro.sharding.stitch import canonical_edge_list

            response["edges"] = [
                [members, multiplicity]
                for members, multiplicity in canonical_edge_list(
                    reconstruction
                )
            ]
        if self.store is not None:
            self._write_checkpoint()
            response["checkpointed"] = True
        return response, False

    def _op_stats(self, request) -> Tuple[Dict[str, object], bool]:
        self.stats["stats_requests_total"] += 1
        graph = self.engine.graph
        return (
            ok_response(
                "stats",
                request,
                server=dict(self.stats),
                engine=dict(self.engine.stats),
                graph={
                    "num_nodes": graph.num_nodes,
                    "num_edges": graph.num_edges,
                    "total_weight": graph.total_weight(),
                },
                uptime_seconds=round(time.monotonic() - self._started, 3),
            ),
            False,
        )

    def _op_shutdown(self, request) -> Tuple[Dict[str, object], bool]:
        self._stopping.set()  # stop accepting new connections
        return ok_response("shutdown", request, draining=True), True
