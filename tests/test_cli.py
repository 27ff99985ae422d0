"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "sgsc"
        assert args.profile == "smoke"

    def test_invalid_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "bogus"])


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("cora", "citeseer", "arxiv", "dblp", "reddit", "facebook"):
            assert name in out

    def test_run_prints_table(self, capsys):
        code = main(["run", "--scenario", "sgsc", "--dataset", "citeseer",
                     "--methods", "CTC", "--profile", "smoke", "--shots", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CTC" in out
        assert "F1" in out

    def test_train_then_query_roundtrip(self, tmp_path, capsys):
        """`query` needs no architecture flags: config travels in the bundle."""
        model_path = str(tmp_path / "model.npz")
        code = main(["train", "--dataset", "cora", "--out", model_path,
                     "--epochs", "2", "--tasks", "3",
                     "--subgraph-nodes", "50", "--hidden-dim", "8",
                     "--layers", "2", "--conv", "gcn", "--scale", "0.2"])
        assert code == 0
        assert "saved to" in capsys.readouterr().out

        code = main(["query", "--dataset", "cora", "--model", model_path,
                     "--node", "0", "--subgraph-nodes", "50",
                     "--scale", "0.2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "predicted community" in captured.out
        assert "loaded" in captured.out
        assert "deprecated" not in captured.err

    def test_index_dtype_flag_roundtrip(self, tmp_path, capsys):
        """--index-dtype threads the run; the bundle records it."""
        from repro.api import ModelBundle

        model_path = str(tmp_path / "model.npz")
        code = main(["train", "--dataset", "cora", "--out", model_path,
                     "--epochs", "1", "--tasks", "2",
                     "--subgraph-nodes", "40", "--hidden-dim", "8",
                     "--layers", "1", "--conv", "gcn", "--scale", "0.2",
                     "--index-dtype", "int64"])
        assert code == 0
        capsys.readouterr()
        bundle = ModelBundle.load(model_path)
        assert bundle.backend == "numpy"
        assert bundle.index_dtype == "int64"

        code = main(["query", "--dataset", "cora", "--model", model_path,
                     "--node", "0", "--subgraph-nodes", "40",
                     "--scale", "0.2", "--index-dtype", "int64"])
        assert code == 0
        assert "backend numpy" in capsys.readouterr().out

    def test_shard_flags_roundtrip(self, tmp_path, capsys):
        """--shards/--memmap-dir shard the query-side task graph; train
        records the layout in bundle provenance."""
        from repro.api import ModelBundle

        model_path = str(tmp_path / "model.npz")
        memmap_dir = str(tmp_path / "shards")
        code = main(["train", "--dataset", "cora", "--out", model_path,
                     "--epochs", "1", "--tasks", "2",
                     "--subgraph-nodes", "40", "--hidden-dim", "8",
                     "--layers", "1", "--conv", "gcn", "--scale", "0.2",
                     "--shards", "2"])
        assert code == 0
        capsys.readouterr()
        bundle = ModelBundle.load(model_path)
        assert bundle.provenance["shards"] == 2
        assert bundle.provenance["memmap_dir"] == ""

        code = main(["query", "--dataset", "cora", "--model", model_path,
                     "--node", "0", "--subgraph-nodes", "40",
                     "--scale", "0.2", "--shards", "2",
                     "--memmap-dir", memmap_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded task graph: 2 shard(s)" in out
        assert "predicted community" in out

    def test_shard_flags_default_off(self):
        args = build_parser().parse_args(
            ["query", "--model", "x.npz", "--node", "0"])
        assert args.shards is None
        assert args.memmap_dir is None

    def test_omitted_index_flag_keeps_ambient_policy(self):
        """The flag defaults to None so REPRO_INDEX_DTYPE (the process
        default) stays effective on the CLI entry points."""
        import contextlib

        from repro.cli import _index_scope

        args = build_parser().parse_args(
            ["query", "--model", "x.npz", "--node", "0"])
        assert args.index_dtype is None
        assert isinstance(_index_scope(args), contextlib.nullcontext)

    def test_query_legacy_weight_only_checkpoint(self, tmp_path, capsys):
        """Bare weight arrays carry no architecture: `query` rejects them
        with exit code 2, as `serve` does."""
        from repro.api import ModelBundle
        from repro.nn.serialize import save_state

        model_path = str(tmp_path / "model.npz")
        legacy_path = str(tmp_path / "legacy.npz")
        main(["train", "--dataset", "cora", "--out", model_path,
              "--epochs", "1", "--tasks", "3", "--subgraph-nodes", "50",
              "--hidden-dim", "8", "--layers", "2", "--conv", "gcn",
              "--scale", "0.2"])
        capsys.readouterr()
        save_state(ModelBundle.load(model_path).state, legacy_path)
        code = main(["query", "--dataset", "cora", "--model", legacy_path,
                     "--node", "0", "--subgraph-nodes", "50",
                     "--scale", "0.2"])
        assert code == 2
        captured = capsys.readouterr()
        assert "predicted community" not in captured.out
        assert "legacy weight-only checkpoint" in captured.err
        assert "`repro query` needs the architecture header" in captured.err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--model", model_path,
                                       "--node", "0", "--hidden-dim", "8"])

    def test_query_node_out_of_range(self, tmp_path, capsys):
        model_path = str(tmp_path / "model.npz")
        main(["train", "--dataset", "cora", "--out", model_path,
              "--epochs", "1", "--tasks", "3", "--subgraph-nodes", "50",
              "--hidden-dim", "8", "--layers", "2", "--conv", "gcn",
              "--scale", "0.2"])
        capsys.readouterr()
        code = main(["query", "--dataset", "cora", "--model", model_path,
                     "--node", "99999", "--subgraph-nodes", "50",
                     "--scale", "0.2"])
        assert code == 2

    def test_serve_and_loadgen_roundtrip(self, tmp_path, capsys):
        """train -> serve -> loadgen on a tiny model and short schedules."""
        model_path = str(tmp_path / "model.npz")
        metrics_path = str(tmp_path / "metrics.prom")
        main(["train", "--dataset", "cora", "--out", model_path,
              "--epochs", "1", "--tasks", "3", "--subgraph-nodes", "50",
              "--hidden-dim", "8", "--layers", "2", "--conv", "gcn",
              "--scale", "0.2"])
        capsys.readouterr()

        code = main(["serve", "--dataset", "cora", "--model", model_path,
                     "--subgraph-nodes", "50", "--scale", "0.2",
                     "--rate", "60", "--duration", "0.3",
                     "--metrics-out", metrics_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "gateway" in out
        assert "decoder pass" in out
        metrics = open(metrics_path).read()
        assert metrics.startswith("# HELP ")
        assert 'repro_serve_requests_total{outcome="completed"}' in metrics

        code = main(["loadgen", "--dataset", "cora", "--model", model_path,
                     "--subgraph-nodes", "50", "--scale", "0.2",
                     "--rates", "40,80", "--duration", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline-loop" in out
        assert "gateway" in out
        assert "p99 ms" in out

    def test_serve_rejects_legacy_checkpoint(self, tmp_path, capsys):
        from repro.api import ModelBundle
        from repro.nn.serialize import save_state

        model_path = str(tmp_path / "model.npz")
        legacy_path = str(tmp_path / "legacy.npz")
        main(["train", "--dataset", "cora", "--out", model_path,
              "--epochs", "1", "--tasks", "2", "--subgraph-nodes", "40",
              "--hidden-dim", "8", "--layers", "1", "--conv", "gcn",
              "--scale", "0.2"])
        capsys.readouterr()
        save_state(ModelBundle.load(model_path).state, legacy_path)
        code = main(["serve", "--dataset", "cora", "--model", legacy_path,
                     "--subgraph-nodes", "40", "--scale", "0.2",
                     "--rate", "40", "--duration", "0.2"])
        assert code == 2
        assert "legacy" in capsys.readouterr().err

    def test_serve_rejects_bad_shard_count(self, capsys):
        code = main(["serve", "--model", "x.npz", "--shards", "-1",
                     "--subgraph-nodes", "40", "--scale", "0.2"])
        assert code == 2
        assert "num_shards must be >= 1" in capsys.readouterr().err

    def test_loadgen_rejects_empty_rates(self, capsys):
        code = main(["loadgen", "--model", "x.npz", "--rates", ","])
        assert code == 2
        assert "--rates" in capsys.readouterr().err

    def test_methods_lists_registry(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("CTC", "MAML", "CGNP-IP", "CGNP-GNN"):
            assert name in out

    def test_run_store_results_select_train_pipeline(self, tmp_path, capsys):
        """run --store -> results -> select-train, the full meta pipeline."""
        store_path = str(tmp_path / "runs.jsonl")
        selector_path = str(tmp_path / "selector.npz")
        code = main(["run", "--scenario", "sgsc", "--dataset", "citeseer",
                     "--methods", "CTC,ATC", "--profile", "smoke",
                     "--shots", "1", "--store", store_path])
        assert code == 0
        out = capsys.readouterr().out
        assert f"record(s) to {store_path}" in out

        code = main(["results", store_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "CTC" in out and "ATC" in out
        assert "Runs" in out and "f1" in out

        code = main(["results", store_path, "--by", "method",
                     "--filter", "method=CTC"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CTC" in out and "ATC" not in out

        code = main(["select-train", store_path, "--out", selector_path,
                     "--hidden-dim", "8", "--epochs", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "method vocabulary" in out
        assert selector_path in out

        from repro.meta import MethodSelector
        selector = MethodSelector.load(selector_path)
        assert sorted(selector.methods) == ["ATC", "CTC"]

    def test_results_missing_store_is_empty_not_fatal(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.jsonl")
        assert main(["results", absent]) == 0
        assert "no records" in capsys.readouterr().out

    def test_results_bad_filter_exits_2(self, tmp_path, capsys):
        store_path = str(tmp_path / "runs.jsonl")
        open(store_path, "w").close()
        assert main(["results", store_path, "--filter", "flavour=x"]) == 2
        assert "unknown filter" in capsys.readouterr().err
        assert main(["results", store_path, "--filter", "notapair"]) == 2
        assert "FIELD=VALUE" in capsys.readouterr().err

    def test_results_warns_on_torn_lines(self, tmp_path, capsys):
        from repro.eval import ResultsStore, RunRecord

        store = ResultsStore(tmp_path / "runs.jsonl")
        store.append(RunRecord(method="CTC", task="t0",
                               metrics={"f1": 0.5}))
        with open(store.path, "ab") as handle:
            handle.write(b'{"method": "torn')
        assert main(["results", str(store.path)]) == 0
        captured = capsys.readouterr()
        assert "CTC" in captured.out
        assert "skipped 1" in captured.err

    def test_select_train_underfed_store_exits_2(self, tmp_path, capsys):
        from repro.eval import ResultsStore, RunRecord

        store = ResultsStore(tmp_path / "runs.jsonl")
        store.append(RunRecord(method="CTC", task="t0",
                               metrics={"f1": 0.5},
                               meta_features={"density": 0.1}))
        code = main(["select-train", str(store.path),
                     "--out", str(tmp_path / "selector.npz")])
        assert code == 2
        assert "at least" in capsys.readouterr().err
