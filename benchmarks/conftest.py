"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures (the
rows/series, not the absolute numbers - see EXPERIMENTS.md) and stores
the rendered output under ``benchmarks/results/`` so the run leaves an
inspectable artifact even though pytest captures stdout.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def grid_workers(request) -> int:
    """The ``--workers`` option (registered in the repo-root conftest).

    Grid-shaped benchmarks (tables, ablation) shard their (method,
    dataset, seed) cells across that many orchestrator workers; results
    are byte-identical for any worker count, so this only trades wall
    clock for cores.  Non-grid benchmarks ignore it.
    """
    return int(request.config.getoption("--workers", 1))


def emit(name: str, text: str, payload: dict | None = None) -> None:
    """Print a rendered table and persist it to benchmarks/results/.

    Always writes ``<name>.txt`` (the human-readable artifact).  When
    ``payload`` is given, a machine-readable ``<name>.json`` is written
    next to it so CI and later sessions can diff exact values instead of
    re-parsing rendered tables.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    if payload is not None:
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    print(f"\n{text}\n")
