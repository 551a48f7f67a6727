"""Fixed-seed outputs match the golden ledger (tests/golden_ledger.json).

The ledger is written by ``tools/golden_ledger.py``; see its docstring
for the entries.  A change that moves an output on purpose rewrites the
ledger with that script and says why.  The failure message names every
moved entry and the numpy version, because generated data follows
numpy's ``Generator`` streams.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.datasets.registry import DATASETS

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "golden_ledger", REPO_ROOT / "tools" / "golden_ledger.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


@pytest.fixture(scope="module")
def ledger():
    return tool.load_ledger()


@pytest.fixture(scope="module")
def computed():
    """Every entry, recomputed once for the module (one eu x30 fit)."""
    return tool.compute_entries()


def test_every_entry_matches(ledger, computed):
    moved = tool.moved_entries(ledger["entries"], computed)
    assert not moved, tool.describe_moves(ledger, computed)


def test_ledger_covers_every_registry_dataset(ledger):
    entries = ledger["entries"]
    for name in DATASETS:
        for seed in tool.REGISTRY_SEEDS:
            assert f"datasets/{name}/seed{seed}/hypergraph" in entries
        for scope in tool.SCOPES:
            assert f"reconstruct/{name}/{scope}/sha256" in entries


def test_a_moved_entry_is_named(ledger, computed):
    tampered = dict(ledger, entries=dict(ledger["entries"]))
    tampered["entries"]["reconstruct/eu/global/sha256"] = "0" * 64
    del tampered["entries"]["project/chain-100k/seed3"]
    assert tool.moved_entries(tampered["entries"], computed) == [
        "project/chain-100k/seed3",
        "reconstruct/eu/global/sha256",
    ]
    report = tool.describe_moves(tampered, computed)
    assert "2 of" in report and "numpy" in report
    assert "reconstruct/eu/global/sha256: 0000" in report
    assert "project/chain-100k/seed3: <absent> -> " in report
