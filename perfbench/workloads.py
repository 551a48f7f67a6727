"""The four workloads: inputs from a seed, timed ops, and their checks.

Every input is generated here and handed to the program's public API: ``MARIOH.fit`` / ``MARIOH.reconstruct``,
``reconstruct(sharding=...)``, and ``python -m repro serve`` driven
through ``ServeClient``.  Everything runs in this process except the
serve daemon, with one BLAS thread (set by ``run.py`` before numpy is
imported), no artifact store and no process pools.

The seed drives the inputs each op works on: the eu x30 target, the
chain, the dblp x5 interaction stream.  The models are fitted with
:data:`MODEL_SEED` on sources generated with it, whatever the workload
seed: early stopping and the learned scores make the fit time vary by
1.9x and the reconstruct time by 2.6x across seeds (measured on seeds
1-5), which would swamp every bound.  With the model pinned, the
chain-100k reconstruct runs 21 iterations on every seed.

Correctness checks hold for any seed, so no golden digest or accuracy
floor appears here: every op must conserve the input graph
(``project(reconstruction) == input``), every op of a run must return
the same digest, the traced run must reproduce the untraced digest, and
the daemon's final digest must equal a batch ``reconstruct`` of the same
edits replayed in this process.

Times are scaled to the host's speed (see :mod:`perfbench.clock`); the
raw wall times are kept in :attr:`Run.raw`.

``serve-window`` runs every step on :data:`SERVE_REPLICAS` identical
daemons in turn and takes its ``latency_p99_ms`` over each step's
fastest replica.  With one daemon, host stalls decided the 99th
percentile: on shared two-vCPU hosts its interquartile range over ten
seeds reached 42-46% of the median.  Over each step's fastest replica
it was 6-9%.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
from collections import deque
from itertools import combinations
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import catalog
from perfbench.clock import (busy_scaled, cpu_ticks, probe, speed_factor,
                             timed)
from perfbench.tracing import CORE_TARGETS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[1]

#: seed of every fitted model and of the sources it is fitted on.
MODEL_SEED = 0
#: serve steps between two speed probes.
PROBE_EVERY_STEPS = 20
#: identical serve daemons that each run every step (see serve_steps).
SERVE_REPLICAS = 2


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes; :data:`FULL` is the benchmark, :data:`TINY` its tests."""

    eu_factor: int = 30
    chain_edges: int = 100_000
    max_shard_edges: int = 10_000
    dblp_factor: int = 5
    window: int = 400
    setups: int = 3
    checkpoint_every: int = 500
    #: a fixed number of serve steps in place of the time budget
    steps: Optional[int] = None


FULL = Scale()
TINY = Scale(eu_factor=1, chain_edges=2_000, max_shard_edges=500,
             dblp_factor=1, window=50, setups=1, checkpoint_every=8,
             steps=20)


UNITS = {m.name: m.unit for m in catalog.END_TO_END + catalog.PER_LAYER}
#: per-layer metrics of the set-up rather than of the timed ops.
SETUP_METRICS = ("datasets.generate_s", "core.classifier.fit_s",
                 "ml.mlp.fit_s")


class Run:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.raw: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}

    def metric(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (float(value), UNITS[name], samples)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors


# -- inputs ---------------------------------------------------------------
def scaled_spec(name: str, factor: int):
    """A registry spec with its node, interaction and community counts
    multiplied by ``factor``."""
    from repro.datasets.registry import DATASETS

    config = DATASETS[name].config
    return dataclasses.replace(
        config,
        n_nodes=config.n_nodes * factor,
        n_interactions=config.n_interactions * factor,
        n_communities=config.n_communities * factor,
    )


def time_split(name: str, factor: int, seed: int):
    """Generate a scaled spec and split it by time.

    Returns ``(source, target, stream)`` where ``stream`` lists the
    target's interactions in time order.  Calls go through the module
    attributes so the traced run's wrappers see them.
    """
    from repro.datasets import synthetic
    from repro.hypergraph import split

    hypergraph, timestamps, _ = synthetic.generate_group_hypergraph(
        scaled_spec(name, factor), seed=seed
    )
    source, target = split.split_source_target(
        hypergraph, timestamps=timestamps
    )
    stream = sorted(target.iter_multiset(),
                    key=lambda edge: (timestamps.get(edge, 0), sorted(edge)))
    return source, target, stream


@dataclasses.dataclass
class BatchInputs:
    graph: object
    op: Callable[[], object]
    truth: Callable[[], object]


def fitted_model(dataset: str, factor: int, phase2_scope: str = "global"):
    """MARIOH fitted on the source half of a pinned-seed generation."""
    from repro.core.marioh import MARIOH

    source, _, _ = time_split(dataset, factor, MODEL_SEED)
    return MARIOH(seed=MODEL_SEED, phase2_scope=phase2_scope).fit(source)


def setup_eu(seed: int, scale: Scale) -> BatchInputs:
    from repro.hypergraph.projection import project

    _, target, _ = time_split("eu", scale.eu_factor, seed)
    graph = project(target)
    model = fitted_model("eu", scale.eu_factor)
    return BatchInputs(graph, lambda: model.reconstruct(graph), lambda: target)


def _chain(seed: int, scale: Scale, phase2_scope: str):
    from repro.datasets import largescale

    model = fitted_model("eu", scale.eu_factor, phase2_scope)
    graph = largescale.chained_clique_projection(
        largescale.LargeScaleConfig(n_edges=scale.chain_edges), seed
    )
    return model, graph


def _planted(graph):
    """The planted blocks and bridges: exactly the input's maximal cliques."""
    from repro.hypergraph.cliques import maximal_cliques_list
    from repro.hypergraph.hypergraph import Hypergraph

    truth = Hypergraph(nodes=graph.nodes)
    for clique in maximal_cliques_list(graph):
        truth.add(clique)
    return truth


def setup_chain(seed: int, scale: Scale) -> BatchInputs:
    model, graph = _chain(seed, scale, "global")
    return BatchInputs(graph, lambda: model.reconstruct(graph),
                       lambda: _planted(graph))


def setup_sharded(seed: int, scale: Scale) -> BatchInputs:
    from repro.sharding import ShardingConfig

    model, graph = _chain(seed, scale, "component")
    config = ShardingConfig(max_shard_edges=scale.max_shard_edges, workers=1)
    return BatchInputs(graph, lambda: model.reconstruct(graph, sharding=config),
                       lambda: _planted(graph))


BATCH_SETUPS = {
    catalog.EU_X30: setup_eu,
    catalog.CHAIN_100K: setup_chain,
    catalog.CHAIN_SHARDED: setup_sharded,
}


# -- checks ---------------------------------------------------------------
def conservation_error(graph, reconstruction) -> Optional[str]:
    """None when ``project(reconstruction)`` equals ``graph`` exactly."""
    from repro.hypergraph.projection import project

    projected = project(reconstruction)
    if projected == graph:
        return None
    return (f"project(reconstruction) != input graph "
            f"({projected.num_edges} vs {graph.num_edges} edges, weight "
            f"{projected.total_weight()} vs {graph.total_weight()})")


def serve_parity_error(daemon_digest: str, model, edits) -> Optional[str]:
    """None when the daemon's digest equals a batch reconstruct of the
    same edits replayed into a fresh graph in this process."""
    from repro.hypergraph.graph import WeightedGraph
    from repro.serve.engine import replay_edits
    from repro.sharding.stitch import hypergraph_digest

    expected = hypergraph_digest(
        model.reconstruct(replay_edits(WeightedGraph(), edits))
    )
    if daemon_digest == expected:
        return None
    return (f"serve parity: daemon digest {daemon_digest} != batch "
            f"reconstruct digest {expected}")


# -- batch workloads ------------------------------------------------------
def _traced(tracer: Optional[Tracer], op: str, fn: Callable[[], object]):
    """``fn`` itself, or ``fn`` run under ``tracer``'s wrappers as ``op``."""
    if tracer is None:
        return fn

    def run_traced():
        tracer.op = op
        with tracer.installed(CORE_TARGETS):
            return fn()

    return run_traced


def _timed_ops(run: Run, inputs: BatchInputs, seconds: float,
               digests: List[str], tracer: Optional[Tracer] = None,
               first_op: int = 0) -> Tuple[List[float], List[float], object]:
    """Run ops until their raw times sum to ``seconds`` (at least one);
    every op is checked.  Returns scaled and raw op times and the last
    reconstruction."""
    from repro.sharding.stitch import hypergraph_digest

    times: List[float] = []
    raw_times: List[float] = []
    reconstruction = None
    while not times or sum(raw_times) < seconds:
        gc.collect()
        run.attempted += 1
        op = _traced(tracer, f"op-{first_op + len(times)}", inputs.op)
        try:
            reconstruction, raw, scaled = timed(op)
        except Exception as exc:  # noqa: BLE001 - a failed op is reported
            run.fail(f"op raised {type(exc).__name__}: {exc}")
            break
        times.append(scaled)
        raw_times.append(raw)
        error = conservation_error(inputs.graph, reconstruction)
        digest = hypergraph_digest(reconstruction)
        if error is None and digests and digest != digests[0]:
            error = f"op digest {digest} != first op digest {digests[0]}"
        digests.append(digest)
        if error is not None:
            run.fail(error)
            break
    return times, raw_times, reconstruction


def _record_layers(run: Run, metrics: Dict[str, float], n_ops: int,
                   op_factor: float, setup_factor: float) -> None:
    """Record per-layer metrics, their times scaled to the host's speed
    by the factor of the ops (or set-up) they were measured in."""
    for name, value in metrics.items():
        setup = name in SETUP_METRICS
        if UNITS[name] in ("s", "ms"):
            value *= setup_factor if setup else op_factor
        run.metric(name, value, 1 if setup else n_ops)


def run_batch(name: str, seed: int, seconds: float, trace: bool,
              scale: Scale = FULL) -> Run:
    from repro.metrics.jaccard import multi_jaccard_similarity

    run = Run()
    setup = BATCH_SETUPS[name]
    tracer = Tracer() if trace else None
    setup_times, raw_setups = [], []
    for _ in range(1 if trace else scale.setups):
        inputs = None
        gc.collect()
        inputs, raw, scaled = timed(
            _traced(tracer, "setup", lambda: setup(seed, scale)))
        setup_times.append(scaled)
        raw_setups.append(raw)

    digests: List[str] = []
    times, raw_times, reconstruction = _timed_ops(
        run, inputs, seconds / 2 if trace else seconds, digests
    )
    if not run.correct:
        return run
    if trace:
        untraced = len(times)
        traced, raw_traced, _ = _timed_ops(run, inputs, seconds / 2, digests,
                                           tracer, first_op=untraced)
        if not run.correct:
            return run
        ops = [f"op-{untraced + i}" for i in range(len(traced))]
        metrics = layer_metrics(tracer, ops, ["setup"])
        metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                           / statistics.median(times))
        _record_layers(run, metrics, len(ops), sum(traced) / sum(raw_traced),
                       setup_times[0] / raw_setups[0])
        run.notes["spans"] = tracer
    else:
        edges = inputs.graph.num_edges
        _record_timings(run, edges * len(times), setup_times, raw_setups,
                        times, raw_times)
        run.metric("multi_jaccard",
                   multi_jaccard_similarity(inputs.truth(), reconstruction))
        run.metric("peak_rss_mb", peak_rss_mb())
    run.notes["digest"] = digests[0]
    return run


def _timings(work: float, setups: List[float], times: List[float],
             tail: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": work / sum(times),
        "latency_p50_ms": 1000.0 * statistics.median(times),
        "latency_p99_ms": 1000.0 * percentile(tail, 0.99),
    }


def _record_timings(run: Run, work: float, setups: List[float],
                    raw_setups: List[float], times: List[float],
                    raw_times: List[float],
                    tails: Optional[Tuple[List[float], List[float]]] = None
                    ) -> None:
    """The timing metrics from scaled times, and their raw twins.

    ``tails`` (scaled, raw) replaces ``times`` for ``latency_p99_ms``.
    """
    tail, raw_tail = tails or (times, raw_times)
    samples = {"setup_s": len(setups), "latency_p99_ms": len(tail)}
    for name, value in _timings(work, setups, times, tail).items():
        run.metric(name, value, samples.get(name, len(times)))
    run.raw = _timings(work, raw_setups, raw_times, raw_tail)
    run.notes["op_seconds"] = {"scaled": times, "raw": raw_times,
                               "setup_scaled": setups,
                               "setup_raw": raw_setups}


def peak_rss_mb() -> float:
    """This process's ``ru_maxrss`` in MiB (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- serve-window ---------------------------------------------------------
class EditWindow:
    """A sliding window over the time-ordered target interactions.

    Each step adds +1 to every member pair of the next interaction and,
    once the window is full, expires the oldest one by ``reweight``-ing
    each of its pairs to its current weight minus one.  The stream wraps
    around at its end.  ``log`` keeps every edit sent, for the batch
    replay of the parity check.
    """

    def __init__(self, stream, size: int) -> None:
        self.stream = [sorted(edge) for edge in stream]
        self.size = size
        self.position = 0
        self.live: deque = deque()
        self.weights: Dict[Tuple[int, int], int] = {}
        self.log: List[List[object]] = []

    def step(self) -> Tuple[List[int], List[List[object]]]:
        members = self.stream[self.position % len(self.stream)]
        self.position += 1
        edits: List[List[object]] = []
        for u, v in combinations(members, 2):
            self.weights[(u, v)] = self.weights.get((u, v), 0) + 1
            edits.append(["add_edge", u, v, 1])
        self.live.append(members)
        if len(self.live) > self.size:
            for u, v in combinations(self.live.popleft(), 2):
                weight = self.weights.pop((u, v)) - 1
                if weight:
                    self.weights[(u, v)] = weight
                edits.append(["reweight", u, v, weight])
        self.log.extend(edits)
        return members, edits


class Daemon:
    """A ``repro serve`` subprocess, plain or under the traced launcher."""

    def __init__(self, model_path: Path, checkpoint: Path, scale: Scale,
                 spans: Optional[Path] = None) -> None:
        serve_args = ["--model", str(model_path), "--checkpoint",
                      str(checkpoint)]
        if scale.checkpoint_every != FULL.checkpoint_every:
            serve_args += ["--checkpoint-every", str(scale.checkpoint_every)]
        if spans is None:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py"),
                    str(spans), *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self.output: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=ROOT,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = self._wait_for_port(timeout=60.0)

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_for_port(self, timeout: float) -> int:
        deadline = perf_counter() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - perf_counter(),
                                                   0.01))
            except queue.Empty:
                raise TimeoutError("daemon did not print 'serving on'")
            if line is None:
                raise RuntimeError("daemon exited before serving: "
                                   + "".join(self.output[-20:]))
            self.output.append(line)
            if line.startswith("serving on "):
                return int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` in MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, client=None) -> None:
        """Shut down through the protocol; kill if that does not work."""
        try:
            if client is not None:
                client.shutdown()
                client.close()
            self.process.wait(timeout=60)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait(timeout=30)
            self._reader.join(timeout=30)


def _ok(response: Dict[str, object], what: str) -> Dict[str, object]:
    if not response.get("ok"):
        raise RuntimeError(f"{what} answered {response}")
    return response


class ServeSession:
    """Fitted model, running daemon, connected client, preloaded window."""

    def __init__(self, seed: int, scale: Scale, out: Path, tag: str,
                 model=None, stream=None, spans: Optional[Path] = None):
        from repro.serve.client import ServeClient

        if stream is None:
            stream = time_split("dblp", scale.dblp_factor, seed)[2]
        if model is None:
            model = fitted_model("dblp", scale.dblp_factor, "component")
        self.model, self.stream = model, stream
        out.mkdir(parents=True, exist_ok=True)
        model_path = out / "serve-model.json"
        model.save(model_path)
        checkpoint = out / f"serve-{tag}.ckpt"
        for stale in (checkpoint, Path(f"{checkpoint}.bak")):
            if stale.exists():
                stale.unlink()
        self.daemon = Daemon(model_path, checkpoint, scale, spans)
        self.client = None
        try:
            self.client = ServeClient("127.0.0.1", self.daemon.port,
                                      timeout=60.0)
            self.window = EditWindow(stream, scale.window)
            preload: List[List[object]] = []
            for _ in range(scale.window):
                preload.extend(self.window.step()[1])
            _ok(self.client.apply(preload), "preload apply")
            self.preload = _ok(self.client.snapshot(include_edges=True),
                               "preload snapshot")
        except BaseException:
            self.close()
            raise

    def preload_truth(self):
        """The preloaded window's interactions, as a hypergraph."""
        from repro.hypergraph.hypergraph import Hypergraph

        truth = Hypergraph()
        for members in self.window.stream[:self.window.size]:
            truth.add(members)
        return truth

    def preload_reconstruction(self):
        """The daemon's reconstruction of the preloaded window."""
        from repro.hypergraph.hypergraph import Hypergraph

        reconstruction = Hypergraph()
        for members, multiplicity in self.preload["edges"]:
            reconstruction.add(members, multiplicity)
        return reconstruction

    def step(self, run: Run) -> Optional[float]:
        """One closed-loop step; its latency, or None when it failed."""
        members, edits = self.window.step()
        run.attempted += 1
        try:
            started = perf_counter()
            applied = self.client.apply(edits)
            answer = self.client.query(members)
            elapsed = perf_counter() - started
            _ok(applied, "apply")
            _ok(answer, "query")
        except Exception as exc:  # noqa: BLE001 - a failed op is reported
            run.fail(f"serve step raised {type(exc).__name__}: {exc}")
            return None
        return elapsed

    def close(self) -> None:
        self.daemon.stop(self.client)


def serve_steps(sessions: List[ServeSession], run: Run, seconds: float,
                scale: Scale) -> Tuple[List[List[float]], List[List[float]]]:
    """Closed-loop steps on every session until their raw latencies sum
    to ``seconds`` (or each session has run ``scale.steps`` steps).

    The sessions are replicas: the same model, window and edits.  They
    take turns, :data:`PROBE_EVERY_STEPS` steps each between two speed
    probes, so every step runs once on each replica a few hundred
    milliseconds apart.  A block's latencies are scaled by the probes'
    speed factor on the share of the block the CPUs were busy.  Returns
    the scaled and the raw latencies, one list per session, aligned by
    step.
    """
    scaled: List[List[float]] = [[] for _ in sessions]
    raw: List[List[float]] = [[] for _ in sessions]
    elapsed = 0.0
    while run.correct:
        count = PROBE_EVERY_STEPS
        if scale.steps is not None:
            count = min(count, scale.steps - len(raw[0]))
        elif raw[0] and elapsed >= seconds:
            count = 0
        if count <= 0:
            break
        before = probe()
        blocks = []
        for session in sessions:
            chunk: List[float] = []
            ticks = cpu_ticks()
            while len(chunk) < count and run.correct:
                latency = session.step(run)
                if latency is not None:
                    chunk.append(latency)
            blocks.append((chunk, ticks, cpu_ticks()))
        factor = speed_factor([before, probe()])
        for i, (chunk, ticks, ticks_after) in enumerate(blocks):
            multiplier = busy_scaled(factor, ticks, ticks_after)
            raw[i].extend(chunk)
            scaled[i].extend(latency * multiplier for latency in chunk)
            elapsed += sum(chunk)
    return scaled, raw


def step_minima(latencies: List[List[float]]) -> List[float]:
    """Each step's fastest latency over the replicas: a host stall hits
    one replica's run of a step, while slowness of the program itself
    hits every replica's."""
    return [min(step) for step in zip(*latencies)]


def close_all(sessions: List[ServeSession]) -> None:
    """Close every session, even when closing one of them raises."""
    errors = []
    for session in sessions:
        try:
            session.close()
        except Exception as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
    if errors:
        raise errors[0]


def check_parity(sessions: List[ServeSession], run: Run) -> None:
    """Check the first daemon's final digest against a batch replay of
    its edits, and every other replica's against the first's."""
    digests = [_ok(session.client.snapshot(), "final snapshot")["digest"]
               for session in sessions]
    first = sessions[0]
    error = serve_parity_error(digests[0], first.model, first.window.log)
    if error is None and len(set(digests)) > 1:
        error = f"replica digests differ: {digests}"
    if error is not None:
        run.fail(error)


def run_serve(seed: int, seconds: float, trace: bool, out: Path,
              scale: Scale = FULL) -> Run:
    from repro.metrics.jaccard import multi_jaccard_similarity

    run = Run()
    if trace:
        return _run_serve_traced(run, seed, seconds, out, scale)
    setup_times, raw_setups = [], []
    sessions: List[ServeSession] = []
    try:
        # Every set-up is timed; the last SERVE_REPLICAS sessions serve.
        for index in range(max(scale.setups, SERVE_REPLICAS)):
            if len(sessions) == SERVE_REPLICAS:
                sessions.pop(0).close()
            gc.collect()
            session, raw, scaled = timed(
                lambda: ServeSession(seed, scale, out, tag=f"plain{index}"))
            sessions.append(session)
            setup_times.append(scaled)
            raw_setups.append(raw)
        logged = sum(len(session.window.log) for session in sessions)
        latencies, raw_latencies = serve_steps(sessions, run, seconds, scale)
        if run.correct:
            check_parity(sessions, run)
        if run.correct:
            first = sessions[0]
            edits = sum(len(session.window.log)
                        for session in sessions) - logged
            _record_timings(run, edits, setup_times, raw_setups,
                            [t for replica in latencies for t in replica],
                            [t for replica in raw_latencies for t in replica],
                            (step_minima(latencies),
                             step_minima(raw_latencies)))
            run.metric("multi_jaccard", multi_jaccard_similarity(
                first.preload_truth(), first.preload_reconstruction()))
            run.metric("peak_rss_mb", max(session.daemon.peak_rss_mb()
                                          for session in sessions))
            run.notes["digest"] = first.preload["digest"]
    finally:
        close_all(sessions)
    return run


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _run_serve_traced(run: Run, seed: int, seconds: float, out: Path,
                      scale: Scale) -> Run:
    """Untraced daemon for half the time, then a traced one."""
    tracer = Tracer()

    def setup():
        return (time_split("dblp", scale.dblp_factor, seed)[2],
                fitted_model("dblp", scale.dblp_factor, "component"))

    (stream, model), raw_setup, setup_time = timed(
        _traced(tracer, "setup", setup))

    plain = ServeSession(seed, scale, out, "plain", model, stream)
    try:
        (untraced,), _ = serve_steps([plain], run, seconds / 2, scale)
        if run.correct:
            check_parity([plain], run)
    finally:
        plain.close()
    if not run.correct:
        return run

    spans_path = out / "serve-daemon-spans.json"
    if spans_path.exists():
        spans_path.unlink()
    traced_session = ServeSession(seed, scale, out, "traced", model, stream,
                                  spans=spans_path)
    try:
        if traced_session.preload["digest"] != plain.preload["digest"]:
            run.fail("traced daemon's preload digest differs from the "
                     "untraced daemon's")
            return run
        before = _ok(traced_session.client.stats(), "stats")
        window_start = perf_counter()
        (traced,), (raw_traced,) = serve_steps([traced_session], run,
                                               seconds / 2, scale)
        window_end = perf_counter()
        after = _ok(traced_session.client.stats(), "stats")
        if run.correct:
            check_parity([traced_session], run)
    finally:
        traced_session.close()
    if not run.correct:
        return run

    daemon = Tracer.load(spans_path)
    roots = [span for span in daemon.spans
             if span[4] is None and window_start <= span[2] <= window_end]
    ops = {span[5] for span in roots}
    metrics = layer_metrics(daemon, ops, [], n_ops=len(traced))
    metrics.update({name: value for name, value
                    in layer_metrics(tracer, [], ["setup"]).items()
                    if name in SETUP_METRICS})
    steps = len(traced)
    engine = {key: after["engine"][key] - before["engine"][key]
              for key in ("component_reconstructs", "component_cache_hits")}
    # The closing stats request counts itself, in its own batch.
    server = {key: after["server"][key] - before["server"][key] - 1
              for key in ("requests_total", "batches_total")}
    lookups = engine["component_reconstructs"] + engine["component_cache_hits"]
    busy = sum(span[3] - span[2] for span in roots)
    metrics.update({
        "serve.engine.component_reconstructs":
            engine["component_reconstructs"] / steps,
        "serve.engine.component_cache_hit_ratio":
            engine["component_cache_hits"] / lookups if lookups else 0.0,
        "serve.daemon.requests": server["requests_total"] / steps,
        "serve.daemon.batches": server["batches_total"] / steps,
        "serve.daemon.overhead_ms": 1000.0 * (sum(raw_traced) - busy) / steps,
        "trace.overhead_ratio":
            statistics.median(traced) / statistics.median(untraced),
    })
    _record_layers(run, metrics, steps, sum(traced) / sum(raw_traced),
                   setup_time / raw_setup)
    run.notes["digest"] = plain.preload["digest"]
    run.notes["spans"] = tracer
    return run


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out: Path, scale: Scale = FULL) -> Run:
    if name == catalog.SERVE_WINDOW:
        run = run_serve(seed, seconds, trace, out, scale)
    else:
        run = run_batch(name, seed, seconds, trace, scale)
    if trace and run.correct:
        for metric in catalog.PER_LAYER:
            if metric.name not in run.metrics:
                run.metric(metric.name, 0.0, 0)
            elif name in metric.exercised and run.metrics[metric.name][0] <= 0:
                run.fail(f"{metric.name} reads zero on {name}, which "
                         f"exercises that layer")
    run.metrics = {metric: run.metrics[metric] for metric in UNITS
                   if metric in run.metrics}
    return run
