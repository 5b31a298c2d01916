"""Tests for the experiment CLI."""

import pytest

from repro.experiments import cli
from repro.experiments.cli import (
    EXPERIMENTS,
    build_parser,
    main,
    run_one,
    supports_workers,
)
from repro.service import cli as service_cli


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.scale == "smoke"
        assert args.seed == 0

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig1", "--scale", "giant"])

    def test_rejects_threads(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fig1", "--threads", "2"])
        assert exc.value.code == 2


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_fig1(self, capsys):
        assert main(["fig1", "--scale", "smoke", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "completed in" in out

    def test_run_one_returns_table(self):
        text = run_one("fig4", "smoke", 0)
        assert "Figure 4" in text

    def test_workers_support_detection(self):
        assert supports_workers("table2")
        assert supports_workers("table3")
        assert not supports_workers("fig1")

    def test_workers_notice_on_unsupported_experiment(self):
        text = run_one("fig4", "smoke", 0, workers=2)
        assert "does not support --workers" in text
        assert "Figure 4" in text  # the experiment still ran

    def test_invalid_workers_rejected(self, capsys):
        assert main(["table2", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig3", "fig4", "fig5", "fig6", "table2", "table3",
            "theory", "frontier", "mia", "concentration", "trace", "sparse",
        }


class TestOutputPaths:
    """An output flag into a missing directory fails before any work runs."""

    @pytest.fixture(autouse=True)
    def _no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work ran despite an unwritable output path")

        monkeypatch.setattr(cli, "run_one", fail)
        monkeypatch.setattr(cli, "run_report", fail)
        monkeypatch.setattr(service_cli, "_open_server", fail)

    @pytest.mark.parametrize(
        "flag,argv",
        [
            ("--telemetry", ["trace"]),
            ("--profile", ["fig1"]),
            ("--chrome", ["report", "t.jsonl"]),
            ("--profile", ["serve", "--state-dir", "{tmp}/state"]),
        ],
        ids=["telemetry", "profile", "chrome", "serve-profile"],
    )
    def test_missing_directory_exits_2(self, tmp_path, capsys, flag, argv):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv + [flag, str(tmp_path / "missing" / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(flag) and err.count("\n") == 1
        assert not (tmp_path / "state").exists()
