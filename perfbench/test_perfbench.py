"""Tiny-scale runs of every workload, and the checks' negative cases.

Each workload's code path runs at :data:`perfbench.workloads.TINY`
(``eu`` x1, a 2k-edge chain, 20 serve steps per daemon), untraced and
traced, and every metric must come out with its unit.
"""

from __future__ import annotations

import json
import re

import pytest

from perfbench import catalog, run, workloads


def _main(capsys, tmp_path, trace: int):
    code = run.main(["--workload", "all", "--seed", "3", "--seconds", "0.05",
                     "--trace", str(trace)], scale=workloads.TINY,
                    out=tmp_path)
    printed = capsys.readouterr().out
    return code, printed, json.loads(printed.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, metrics", [(0, catalog.END_TO_END),
                                            (1, catalog.PER_LAYER)])
def test_every_workload_prints_every_metric(capsys, tmp_path, trace, metrics):
    code, printed, result = _main(capsys, tmp_path, trace)
    assert code == 0, printed
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(catalog.WORKLOADS)
    for workload in catalog.WORKLOADS:
        record = json.loads(
            (tmp_path / f"{workload}-seed3-trace{trace}.json").read_text()
        )
        assert list(record["metrics"]) == [m.name for m in metrics]
        for metric in metrics:
            entry = result["metrics"][f"{workload}/{metric.name}"]
            assert entry["unit"] == metric.unit
            assert record["samples"][metric.name] >= (trace == 0)
            assert f"{metric.name} " in printed


def test_conservation_check_fires_on_tampered_reconstruction():
    from repro.hypergraph.hypergraph import Hypergraph
    from repro.hypergraph.projection import project

    truth = Hypergraph()
    truth.add([0, 1, 2], 2)
    truth.add([2, 3])
    graph = project(truth)
    assert workloads.conservation_error(graph, truth) is None
    tampered = truth.copy()
    tampered.add([0, 1])
    assert "project(reconstruction)" in workloads.conservation_error(
        graph, tampered)


def test_serve_parity_check_fires_on_tampered_digest():
    from repro.core.marioh import MARIOH
    from repro.hypergraph.hypergraph import Hypergraph
    from repro.hypergraph.graph import WeightedGraph
    from repro.serve.engine import replay_edits
    from repro.sharding.stitch import hypergraph_digest

    source = Hypergraph()
    for base in range(0, 12, 3):
        source.add([base, base + 1, base + 2])
        source.add([base, base + 1])
    model = MARIOH(seed=0, phase2_scope="component", max_epochs=5)
    model.fit(source)
    window = workloads.EditWindow([[0, 1, 2], [1, 2], [4, 5, 6]], size=2)
    for _ in range(5):
        window.step()
    digest = hypergraph_digest(
        model.reconstruct(replay_edits(WeightedGraph(), window.log)))
    assert workloads.serve_parity_error(digest, model, window.log) is None
    assert "serve parity" in workloads.serve_parity_error(
        "0" * 64, model, window.log)


def test_edit_window_expires_what_it_added():
    window = workloads.EditWindow([[0, 1, 2], [1, 2]], size=1)
    for _ in range(4):
        window.step()
    assert window.weights == {(1, 2): 1}
    assert list(window.live) == [[1, 2]]


def test_benchmark_json_matches_catalog():
    path = workloads.ROOT / "BENCHMARK.json"
    assert json.loads(path.read_text()) == catalog.benchmark_json()
    names = [m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names + list(catalog.WORKLOADS))
    assert all(len(why) <= 200 for why in catalog.WHY.values())
    assert all(0 < m.bound <= 0.25 for m in catalog.END_TO_END)
