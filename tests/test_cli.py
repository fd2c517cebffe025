"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "netflix"
        assert args.solver == "cg"
        assert args.precision == "fp16"

    def test_bad_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "movielens"])

    def test_advise_required_args(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise"])

    def test_bench_workers_default_is_the_training_layout(self):
        # None = RuntimePlan(), the in-process threaded default; 0 = serial plan.
        assert build_parser().parse_args(["bench"]).workers is None
        assert build_parser().parse_args(
            ["bench", "--workers", "0"]
        ).workers == 0


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Tesla K40" in out
        assert "Tesla P100" in out
        assert "tensor" in out  # V100 row

    def test_advise(self, capsys):
        rc = main(
            ["advise", "--users", "480189", "--items", "17770",
             "--ratings", "99072112", "--implicit"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ALS" in out
        assert "implicit" in out

    def test_train_small(self, capsys):
        rc = main(
            ["train", "--scale", "0.05", "--factors", "8", "--epochs", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "test-RMSE" in out
        assert "netflix" in out

    def test_train_multi_gpu(self, capsys):
        rc = main(
            ["train", "--scale", "0.05", "--factors", "8", "--epochs", "1",
             "--gpus", "2", "--device", "pascal"]
        )
        assert rc == 0
        assert "2x Tesla P100" in capsys.readouterr().out

    def test_tune(self, capsys):
        rc = main(["tune", "--device", "maxwell"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "regs/thread" in out


class TestAnalyze:
    def test_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.device == "maxwell"
        assert args.read_scheme == "noncoal-l1"
        assert args.fs == 6
        assert args.format == "text"

    def test_json_output_is_structured(self, capsys):
        """ISSUE acceptance: `repro analyze --device maxwell-titanx
        --workload netflix --format json` emits structured diagnostics."""
        rc = main(["analyze", "--device", "maxwell-titanx",
                   "--workload", "netflix", "--format", "json"])
        assert rc == 0  # warnings only: the tuned config is structural
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.analysis/v1"
        assert payload["count"] >= 1
        assert any(d["rule"] == "KL002" for d in payload["diagnostics"])

    def test_bad_config_hits_three_distinct_rules(self, capsys):
        """ISSUE acceptance: 96 threads + coalesced reads at f=100."""
        rc = main(["analyze", "--read-scheme", "coalesced",
                   "--threads-per-block", "96", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len({d["rule"] for d in payload["diagnostics"]}) >= 3

    def test_strict_fails_on_warnings(self, capsys):
        rc = main(["analyze", "--strict"])
        assert rc == 1
        assert "KL002" in capsys.readouterr().out

    def test_use_l1_surfaces_figure5(self, capsys):
        rc = main(["analyze", "--use-l1"])
        assert rc == 0
        assert "KL007" in capsys.readouterr().out

    def test_self_lint_is_clean(self, capsys):
        """ISSUE acceptance: the shipped tree passes its own AST lint."""
        rc = main(["analyze", "--self"])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out

    def test_self_lint_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text("def f():\n    import math\n    return math.pi\n")
        rc = main(["analyze", "--self", "--path", str(tmp_path)])
        assert rc == 1
        assert "AL004" in capsys.readouterr().out


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.seed == 0
        assert args.requests == 200
        assert not args.smoke
        assert not args.chaos
        assert args.index is True
        assert args.nprobe is None

    def test_parser_index_flags(self):
        assert build_parser().parse_args(["serve", "--no-index"]).index is (
            False
        )
        assert build_parser().parse_args(["serve", "--nprobe", "9"]).nprobe == 9

    def test_smoke_is_green(self, capsys):
        rc = main(["serve", "--smoke", "--requests", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serve: ok" in out
        assert "fault-free smoke" in out
        assert "recall@10" in out

    def test_smoke_without_index(self, capsys):
        rc = main(["serve", "--smoke", "--requests", "40", "--no-index"])
        assert rc == 0
        assert "index disabled" in capsys.readouterr().out

    def test_nprobe_at_ncells_reports_exact_recall(self, tmp_path, capsys):
        report_path = tmp_path / "serve-report.json"
        rc = main(
            ["serve", "--smoke", "--requests", "30", "--nprobe", "99",
             "--output", str(report_path)]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        retrieval = report["retrieval"]
        assert retrieval["nprobe"] == retrieval["ncells"]
        assert retrieval["recall_at_k"] == 1.0

    def test_chaos_drill_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "serve-report.json"
        rc = main(
            ["serve", "--requests", "60", "--seed", "1",
             "--output", str(report_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "injected and accounted" in out
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["mode"] == "chaos"
        assert report["accounting_violations"] == []
        assert report["availability"] >= report["availability_floor"]

    def test_workers_defaults_to_single_process(self):
        assert build_parser().parse_args(["serve"]).workers == 0
        assert build_parser().parse_args(
            ["serve", "--workers", "3"]
        ).workers == 3

    def test_fleet_smoke_is_green(self, capsys):
        rc = main(["serve", "--workers", "2", "--smoke", "--requests", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serve: ok" in out
        assert "2 worker(s)" in out
        assert "bit-identical" in out

    def test_fleet_chaos_drill_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "fleet-report.json"
        rc = main(
            ["serve", "--workers", "3", "--requests", "80", "--seed", "3",
             "--output", str(report_path)]
        )
        assert rc == 0
        assert "injected and accounted" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["mode"] == "fleet-chaos"
        assert report["workers"] == 3
        assert report["checks"]["equivalence_bit_identical"] is True
        assert report["accounting_violations"] == []
        assert report["availability"] >= report["availability_floor"]
        assert report["throughput"]["requests_per_s"] > 0

    def test_train_checkpoint_keep_flag(self, tmp_path, capsys):
        rc = main(
            ["train", "--scale", "0.05", "--factors", "8", "--epochs", "3",
             "--checkpoint-dir", str(tmp_path), "--checkpoint-keep", "1"]
        )
        assert rc == 0
        names = [p.name for p in tmp_path.iterdir()]
        assert names == ["ckpt-000003.npz"]
