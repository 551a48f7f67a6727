"""The reconstruct, shard and serve paths run without SciPy or networkx.

Only the Table IV structure metrics (:mod:`repro.metrics.structure`),
the downstream spectral/GCN tasks (:mod:`repro.ml.spectral`,
:mod:`repro.ml.gcn`) and :mod:`repro.interop` need them.  A fresh
interpreter with both modules blocked - ``sys.modules[name] = None``
makes every import of them raise - must still import the core, the CLI,
the daemon and sharding, fit and reconstruct a registry dataset, and
refresh a streaming reconstruction.  The tests of those SciPy-backed
modules are the positive control that the block is not vacuous.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.modules["scipy"] = sys.modules["networkx"] = None

import repro
import repro.cli
import repro.metrics.jaccard
import repro.serve.daemon
import repro.sharding
from repro import MARIOH
from repro.datasets import load
from repro.serve.engine import StreamingReconstructor

bundle = load("crime", seed=0)
model = MARIOH(seed=0, phase2_scope="component")
model.fit(bundle.source_hypergraph)
model.reconstruct(bundle.target_graph)
engine = StreamingReconstructor(model, bundle.target_graph)
u, v = next(iter(bundle.target_graph.edges()))
engine.apply([("add_edge", u, v, 1)])
engine.reconstruction()
"""


def test_core_shard_and_serve_paths_import_neither_scipy_nor_networkx():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
