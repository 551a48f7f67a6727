"""Counter-based deterministic randomness shared across subsystems.

The SplitMix64 finalizer is a bijective avalanche mix on 64-bit
integers.  Everything that needs *order-independent* determinism -
Phase-2 sub-clique sampling, the experiment orchestrator's per-cell
seeds, the shard partitioner's tie salts, fault injection and retry
jitter - derives its values as pure
functions of ``(seed, counter)`` through this mix instead of consuming a
shared sequential RNG stream.  A consumer can therefore be added,
removed, re-ordered, or sharded across processes without perturbing any
other consumer's draws.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF

#: Weyl-sequence increment of the SplitMix64 generator.
_GAMMA = 0x9E3779B97F4A7C15


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on uint64 arrays.

    Overflow is the point - all arithmetic wraps modulo 2**64 (numpy
    array integer ops wrap silently; only scalars would warn, and this
    helper is only ever called on arrays).
    """
    x = x + np.uint64(_GAMMA)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def mix64_int(x: int) -> int:
    """SplitMix64 finalizer on a plain Python int (same permutation)."""
    x = (x + _GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def mix_tokens(seed: int, tokens: Iterable[object]) -> int:
    """Fold ``tokens`` into ``seed`` through repeated SplitMix64 rounds.

    Strings hash via their UTF-8 bytes (stable across processes and
    interpreter runs, unlike the salted builtin ``hash``); integers fold
    directly.  The result is a pure function of the inputs, so two
    processes that name the same cell derive the same stream.
    """
    state = mix64_int(seed & MASK64)
    for token in tokens:
        if isinstance(token, str):
            for byte in token.encode("utf-8"):
                state = mix64_int(state ^ byte)
        elif isinstance(token, (int, np.integer)):
            state = mix64_int(state ^ (int(token) & MASK64))
        else:
            raise TypeError(f"cannot fold token of type {type(token).__name__}")
    return state


def derive_seed(seed: int, tokens: Iterable[object]) -> int:
    """Derive a decorrelated 63-bit child seed keyed by ``(seed, tokens)``.

    The single source of truth for seed derivation across subsystems:
    the orchestrator's per-cell seeds, the sharding partitioner's
    per-shard streams, and any future consumer all fold their
    coordinates through this helper.  The result is a pure function of
    its inputs (no stream state) masked to 63 bits so it is always a
    valid non-negative seed for ``numpy.random.SeedSequence`` and
    friends.  Distinct domain tags in ``tokens`` (e.g. ``"shard-plan"``
    vs a grid cell's method name) yield statistically independent
    streams from the same base seed.
    """
    return mix_tokens(seed & MASK64, tokens) & 0x7FFFFFFFFFFFFFFF


def unit_uniform(seed: int, tokens: Iterable[object]) -> float:
    """Deterministic uniform draw in ``[0, 1)`` keyed by ``(seed, tokens)``.

    A pure function of its inputs (no stream state), built on
    :func:`mix_tokens`; two call sites that salt their tokens with
    distinct domain tags (e.g. ``"cell-fault"`` vs ``"retry-backoff"``)
    obtain statistically independent values from the same seed.  This is
    what lets the fault-injection and retry-jitter streams coexist with
    the orchestrator's per-cell seed stream without any cross-talk.
    """
    return mix_tokens(seed, tokens) / 2.0**64
