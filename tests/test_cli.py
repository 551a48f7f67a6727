"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.marioh import MARIOH
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.io import read_hypergraph, write_hypergraph


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reconstruct", "--dataset", "nope"])

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reconstruct", "--method", "nope"])

    def test_defaults(self):
        args = build_parser().parse_args(["reconstruct"])
        assert args.dataset == "crime"
        assert args.method == "MARIOH"
        assert args.seed == 0


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("crime", "dblp", "pschool"):
            assert name in out

    def test_reconstruct_prints_scores(self, capsys):
        assert main(["reconstruct", "--dataset", "crime"]) == 0
        out = capsys.readouterr().out
        assert "Jaccard" in out
        assert "multi-Jaccard" in out

    def test_reconstruct_sharded(self, capsys):
        assert main(["reconstruct", "--dataset", "crime", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "sharded:" in out
        assert "Jaccard" in out

    def test_reconstruct_sharding_requires_marioh(self, capsys):
        assert (
            main(
                [
                    "reconstruct",
                    "--dataset",
                    "crime",
                    "--method",
                    "SHyRe-Count",
                    "--shards",
                    "2",
                ]
            )
            == 2
        )
        assert "require MARIOH" in capsys.readouterr().out

    def test_reconstruct_writes_output(self, capsys, tmp_path):
        output = tmp_path / "recon.txt"
        assert (
            main(
                [
                    "reconstruct",
                    "--dataset",
                    "directors",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        reconstruction = read_hypergraph(output)
        assert reconstruction.num_unique_edges > 0

    def test_reconstruct_from_file(self, capsys, tmp_path):
        hypergraph = Hypergraph()
        for base in range(0, 24, 3):
            hypergraph.add([base, base + 1, base + 2])
            hypergraph.add([base, base + 1, base + 2])
        path = tmp_path / "input.txt"
        write_hypergraph(hypergraph, path)
        assert main(["reconstruct", "--input", str(path)]) == 0
        assert "Jaccard" in capsys.readouterr().out

    def test_evaluate_prints_table(self, capsys):
        assert (
            main(
                [
                    "evaluate",
                    "--dataset",
                    "directors",
                    "--methods",
                    "MaxClique",
                    "MARIOH",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "MaxClique" in out
        assert "MARIOH" in out

    def test_evaluate_preserved_setting(self, capsys):
        assert (
            main(
                [
                    "evaluate",
                    "--dataset",
                    "directors",
                    "--methods",
                    "MARIOH",
                    "--preserve-multiplicity",
                ]
            )
            == 0
        )
        assert "multi-Jaccard" in capsys.readouterr().out

    def test_storage_on_dataset(self, capsys):
        assert main(["storage", "--dataset", "crime"]) == 0
        out = capsys.readouterr().out
        assert "savings ratio" in out

    def test_storage_on_file(self, capsys, tmp_path):
        hypergraph = Hypergraph(edges=[list(range(8))])
        path = tmp_path / "big.txt"
        write_hypergraph(hypergraph, path)
        assert main(["storage", "--input", str(path)]) == 0
        assert "compression factor" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, content",
        [
            ("reconstruct", None),
            ("reconstruct", "1 2 x\n"),
            ("reconstruct", ""),
            ("storage", None),
            ("storage", "1 2 x\n"),
        ],
        ids=[
            "reconstruct-missing",
            "reconstruct-malformed",
            "reconstruct-empty",
            "storage-missing",
            "storage-malformed",
        ],
    )
    def test_unreadable_input_rejected(
        self, capsys, tmp_path, command, content
    ):
        path = tmp_path / "input.txt"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        assert main([command, "--input", str(path)]) == 2
        assert capsys.readouterr().out.startswith("error: ")

    @pytest.mark.parametrize("model", ["global", "missing", "corrupt"])
    def test_serve_refuses_unservable_model(self, capsys, tmp_path, model):
        path = tmp_path / "model.json"
        if model == "global":
            fitted = MARIOH(seed=0, phase2_scope="global", max_epochs=5)
            fitted.fit(Hypergraph(edges=[[0, 1, 2], [2, 3], [3, 4, 5]]))
            fitted.save(path)
        elif model == "corrupt":
            path.write_text("not a model", encoding="utf-8")
        assert main(["serve", "--model", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ")
        if model == "global":
            assert "phase2_scope" in out


class TestRunGrid:
    def test_parser_accepts_grid_options(self):
        args = build_parser().parse_args(
            ["run-grid", "--preset", "table2", "--workers", "4"]
        )
        assert args.preset == "table2"
        assert args.workers == 4

    def test_custom_grid_runs_and_prints_table(self, capsys):
        assert (
            main(
                [
                    "run-grid",
                    "--methods", "MaxClique", "CliqueCovering",
                    "--datasets", "directors",
                    "--seeds", "0", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 cells" in out
        assert "MaxClique" in out

    def test_checkpoint_and_output_written(self, capsys, tmp_path):
        checkpoint = tmp_path / "grid.json"
        output = tmp_path / "result.json"
        argv = [
            "run-grid",
            "--methods", "MaxClique",
            "--datasets", "directors",
            "--seeds", "0",
            "--checkpoint", str(checkpoint),
            "--output", str(output),
        ]
        assert main(argv) == 0
        assert checkpoint.exists()
        assert output.exists()
        # A rerun resumes (zero new cells) and succeeds.
        assert main(argv) == 0

    def test_derived_seed_grid(self, capsys):
        assert (
            main(
                [
                    "run-grid",
                    "--methods", "MaxClique",
                    "--datasets", "directors",
                    "--n-seeds", "2",
                    "--base-seed", "7",
                ]
            )
            == 0
        )
        assert "2 cells" in capsys.readouterr().out

    def test_failures_set_exit_code(self, capsys):
        assert (
            main(
                [
                    "run-grid",
                    "--methods", "FAULT:raise",
                    "--datasets", "directors",
                    "--seeds", "0",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "FAILED" in out
        # The quarantine table: cell key, taxonomy class, attempts, and
        # the per-class summary line.
        assert "quarantined cells (1):" in out
        assert "FAULT:raise|directors|0" in out
        assert "by class: error=1" in out

    def test_fault_injection_flags(self, capsys, tmp_path):
        assert (
            main(
                [
                    "run-grid",
                    "--methods", "MaxClique",
                    "--datasets", "directors",
                    "--seeds", "0", "1",
                    "--inject-faults", "transient=1.0,max_faults=1",
                    "--fault-seed", "3",
                    "--checkpoint", str(tmp_path / "ck.json"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fault injection: transient=1.0,max_faults=1 (seed 3)" in out
        assert "resilience: retries=2 faults_injected=2" in out

    def test_bad_fault_spec_rejected(self, capsys):
        assert (
            main(
                [
                    "run-grid",
                    "--methods", "MaxClique",
                    "--datasets", "directors",
                    "--inject-faults", "meteor=0.5",
                ]
            )
            == 2
        )
        assert "unknown fault kind" in capsys.readouterr().out

    def test_insufficient_retry_budget_rejected(self, capsys):
        assert (
            main(
                [
                    "run-grid",
                    "--methods", "MaxClique",
                    "--datasets", "directors",
                    "--inject-faults", "crash=0.5,max_faults=2",
                    "--retries", "2",
                ]
            )
            == 2
        )
        assert "retry budget" in capsys.readouterr().out

    def test_unknown_bench_rejected(self, capsys):
        assert main(["run-grid", "--bench", "no_such_bench"]) == 2
        assert "known:" in capsys.readouterr().out
