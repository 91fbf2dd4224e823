"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.netlist import save_blif
from repro.circuits import load_circuit


class TestSubcommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cm85" in out and "k2" in out

    def test_info_benchmark(self, capsys):
        assert main(["info", "decod"]) == 0
        out = capsys.readouterr().out
        assert "inputs:      5" in out
        assert "gates:" in out

    def test_info_blif_file(self, tmp_path, capsys):
        path = tmp_path / "decod.blif"
        save_blif(load_circuit("decod"), str(path))
        assert main(["info", str(path)]) == 0
        assert "inputs:      5" in capsys.readouterr().out

    def test_build(self, capsys):
        assert main(["build", "decod", "--max-nodes", "100"]) == 0
        out = capsys.readouterr().out
        assert "final nodes:" in out
        assert "max C:" in out

    def test_build_max_strategy(self, capsys):
        assert main(["build", "decod", "--strategy", "max"]) == 0
        assert "strategy:     max" in capsys.readouterr().out

    def test_evaluate(self, capsys):
        code = main(
            [
                "evaluate",
                "decod",
                "--sequence-length",
                "200",
                "--train-length",
                "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ADD" in out and "Con" in out and "Lin" in out

    def test_bound_conservative_exit_code(self, capsys):
        code = main(["bound", "decod", "--samples", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "violations:      0" in out

    def test_unknown_circuit_reports_error(self, capsys):
        assert main(["info", "nonesuch"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestNewSubcommands:
    def test_worst_case(self, capsys):
        assert main(["worst-case", "decod"]) == 0
        out = capsys.readouterr().out
        assert "x_i:" in out and "gate-level:" in out

    def test_activity(self, capsys):
        assert main(["activity", "decod", "--sp", "0.5", "--st", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "average switching capacitance" in out
        assert "P(rising)" in out

    def test_save_and_eval_model(self, tmp_path, capsys):
        path = tmp_path / "decod.json"
        assert main(["save-model", "decod", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["eval-model", str(path)]) == 0
        out = capsys.readouterr().out
        assert "macro:    decod" in out

    def test_eval_model_with_transition(self, tmp_path, capsys):
        path = tmp_path / "decod.json"
        main(["save-model", "decod", str(path)])
        capsys.readouterr()
        assert main(["eval-model", str(path), "--transition", "0000011111"]) == 0
        assert "C(x_i, x_f)" in capsys.readouterr().out

    def test_eval_model_bad_transition_width(self, tmp_path, capsys):
        path = tmp_path / "decod.json"
        main(["save-model", "decod", str(path)])
        capsys.readouterr()
        assert main(["eval-model", str(path), "--transition", "01"]) == 2

    def test_iscas_path(self, tmp_path, capsys):
        from tests.test_iscas import C17

        path = tmp_path / "c17.isc"
        path.write_text(C17)
        assert main(["info", str(path)]) == 0
        assert "inputs:      5" in capsys.readouterr().out


class TestTelemetry:
    def test_stats_prints_report(self, capsys):
        assert main(["stats", "decod", "--pairs", "64"]) == 0
        out = capsys.readouterr().out
        assert "=== telemetry: decod ===" in out
        for prefix in ("add.build.count", "dd.apply.cache_hits",
                       "compiled.eval.rows", "sim.patterns"):
            assert prefix in out
        assert "span profile" in out
        assert "max |ADD - gate-level| = 0" in out

    def test_stats_writes_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "stats",
                "decod",
                "--pairs",
                "64",
                "--trace",
                str(trace),
                "--metrics",
                str(metrics),
            ]
        )
        assert code == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert {e["name"] for e in events} >= {"add.build", "sim.pairs"}
        payload = json.loads(metrics.read_text())
        assert payload["format"] == "repro-metrics"
        names = payload["metrics"]
        for prefix in ("dd.apply.", "add.build.", "compiled.eval.", "sim."):
            assert any(n.startswith(prefix) for n in names), prefix

    def test_trace_flag_on_other_subcommands(self, tmp_path, capsys):
        import json

        trace = tmp_path / "build-trace.json"
        assert main(["build", "decod", "--trace", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["name"] == "add.build" for e in events)
        # The global tracer must be restored to the no-op afterwards.
        from repro.obs import get_tracer

        assert not get_tracer().enabled

    def test_fuzz_metrics_flag(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "fuzz-metrics.json"
        code = main(
            ["fuzz", "--iterations", "2", "--metrics", str(metrics)]
        )
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert payload["metrics"]["fuzz.iterations"]["value"] == 2
        assert "fuzz.failures" in payload["metrics"]


class TestServeDefaults:
    """``repro serve`` declares no tuning default of its own."""

    def _config(self, *flags):
        from repro.cli import _serve_config, build_parser

        return _serve_config(build_parser().parse_args(["serve", "cm85", *flags]))

    def test_no_tuning_flags_give_server_config_defaults(self):
        from repro.serve import ServerConfig

        assert self._config("--port", "0") == ServerConfig()

    def test_given_flags_override_only_their_field(self):
        from dataclasses import replace

        from repro.serve import ServerConfig

        config = self._config(
            "--port", "0", "--max-wait-ms", "2", "--kernel", "levelized",
            "--request-timeout", "5", "--no-batching",
        )
        assert config == replace(
            ServerConfig(), max_wait_ms=2.0, kernel="levelized",
            request_timeout_s=5.0, batching=False,
        )
