"""Op times scaled to the host's current speed.

This benchmark runs on shared two-vCPU hosts whose speed drifts in
phases lasting seconds: the same chain-5k reconstruct takes 100 ms in
one phase and 200 ms in the next, with CPU time tracking wall time.
Over 300 s of back-to-back ops, the medians of 10-s windows spread by
24% (interquartile range over median), too much for a 20% bound.

A fixed reference loop (:func:`probe`) slows down in the same phases:
on the same trace, op time divided by the probe time spread by 3%.
:func:`timed` therefore probes just before and just after each timed
region and, through a profiling timer, every :data:`SAMPLE_EVERY_S`
seconds of CPU time inside it; the probes' own time is taken out of
the region's time.  The scaled time is the raw time times
``PROBE_NOMINAL_S / mean(probe times)``: seconds on a host where the
probe takes ``PROBE_NOMINAL_S``.  A probe that touches a large array
tracked op times worse than this compute-only one, so the slowdown is
in the core, not in memory.

A serve step is partly waiting - the daemon's batch lingers, wake-ups
across processes - and waiting does not speed up with the host.  For
serve steps only the share of a block of steps during which the CPUs
were busy (:func:`cpu_ticks`) is scaled (:func:`busy_scaled`).  On ten
seeds, serve-window's median step spread by 7.6% with whole steps
scaled and by 5.2% with their busy share scaled; its throughput by
9.1% and 4.6%.
"""

from __future__ import annotations

import os
import signal
from time import perf_counter
from typing import Callable, List, Tuple

import numpy as np

#: the probe's time in a fast phase of a two-vCPU 2026 cloud host.
PROBE_NOMINAL_S = 0.003
#: CPU seconds between two probes inside a timed region.
SAMPLE_EVERY_S = 0.25

_MATRIX = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)


def _reference_loop() -> float:
    """Dictionary updates and small matrix products, like the program's
    hot paths; returns the seconds they took."""
    started = perf_counter()
    counts: dict = {}
    for i in range(20_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    for _ in range(50):
        _MATRIX @ _MATRIX
    return perf_counter() - started


def probe() -> float:
    """Seconds the reference loop takes now (median of three runs, which
    drops a run hit by an interrupt)."""
    return sorted(_reference_loop() for _ in range(3))[1]


def speed_factor(probes: List[float]) -> float:
    """Multiplier from raw seconds to seconds at nominal host speed."""
    return PROBE_NOMINAL_S * len(probes) / sum(probes)


def cpu_ticks() -> Tuple[int, int]:
    """``(busy, total)`` clock ticks so far of the CPUs this process may
    run on, from ``/proc/stat``; idle and iowait ticks are not busy."""
    cpus = {f"cpu{n}" for n in os.sched_getaffinity(0)}
    busy = total = 0
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            name, *fields = line.split()
            if name in cpus:
                ticks = [int(field) for field in fields[:8]]
                total += sum(ticks)
                busy += sum(ticks) - ticks[3] - ticks[4]
    return busy, total


def busy_scaled(factor: float, before: Tuple[int, int],
                after: Tuple[int, int]) -> float:
    """Multiplier that scales by ``factor`` only the busy share of the
    interval between two :func:`cpu_ticks` readings (all of it when the
    interval is shorter than a tick)."""
    total = after[1] - before[1]
    share = (after[0] - before[0]) / total if total > 0 else 1.0
    return 1.0 - share + share * factor


def timed(fn: Callable[[], object]) -> Tuple[object, float, float]:
    """``(fn(), raw seconds, seconds scaled to the host's speed)``.

    Raw seconds exclude the probes run inside ``fn`` by the timer.
    """
    probes = [probe()]
    paused: List[Tuple[float, float]] = []

    def on_tick(signum, frame) -> None:
        started = perf_counter()
        probes.append(_reference_loop())
        paused.append((started, perf_counter() - started))

    previous = signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    started = perf_counter()
    try:
        result = fn()
    finally:
        ended = perf_counter()
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, previous)
    raw = ended - started - sum(spent for at, spent in paused if at < ended)
    probes.append(probe())
    return result, raw, raw * speed_factor(probes)
