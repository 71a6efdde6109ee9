"""Tests for the command-line interface."""

import io
import json
from pathlib import Path

import pytest

from repro.api import PROTOCOLS
from repro.cli import build_parser, main
from repro.obs import REPORT_EXPERIMENTS, collect_report, load_checkpoint_results
from repro.replay import result_to_dict


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--protocol", "bogus"])

    def test_all_protocol_factories_construct(self):
        for name, factory in PROTOCOLS.items():
            protocol = factory()
            assert protocol.name, name


class TestAnalyze:
    def test_paper_stream_default(self):
        code, text = run_cli("analyze")
        assert code == 0
        assert "R = 9, RI = 4" in text
        assert "polling" in text and "invalidation" in text and "ttl" in text
        assert "<= 8" in text

    def test_custom_stream(self):
        code, text = run_cli("analyze", "--stream", "r m r")
        assert code == 0
        assert "R = 2, RI = 2" in text


class TestSummarize:
    def test_profile_summary(self):
        code, text = run_cli("summarize", "--trace", "SDSC", "--scale", "0.02")
        assert code == 0
        assert "SDSC" in text

    def test_clf_summary(self, tmp_path):
        log = tmp_path / "mini.log"
        log.write_text(
            'h1 - - [01/Jul/1995:00:00:01 -0400] "GET /a HTTP/1.0" 200 100\n'
            'h2 - - [01/Jul/1995:00:00:05 -0400] "GET /a HTTP/1.0" 200 100\n'
        )
        code, text = run_cli("summarize", "--clf", str(log))
        assert code == 0
        assert "req=      2" in text or "req=" in text


class TestGenerate:
    def test_roundtrip(self, tmp_path):
        out_path = tmp_path / "trace.log"
        code, text = run_cli(
            "generate", "--trace", "SDSC", "--scale", "0.02",
            "--out", str(out_path),
        )
        assert code == 0
        assert "wrote" in text
        # The generated CLF file is readable back.
        code, text = run_cli("summarize", "--clf", str(out_path))
        assert code == 0


class TestReplay:
    def test_replay_invalidation_prints_costs(self):
        code, text = run_cli(
            "replay", "--trace", "SDSC", "--scale", "0.02",
            "--protocol", "invalidation", "--lifetime-days", "2",
        )
        assert code == 0
        assert "Total Messages" in text
        assert "Invalidation costs" in text

    def test_replay_ttl_no_costs_block(self):
        code, text = run_cli(
            "replay", "--trace", "SDSC", "--scale", "0.02",
            "--protocol", "ttl", "--lifetime-days", "2",
        )
        assert code == 0
        assert "Invalidation costs" not in text

    def test_replay_json_output(self):
        import json

        code, text = run_cli(
            "replay", "--trace", "SDSC", "--scale", "0.02",
            "--protocol", "invalidation", "--lifetime-days", "2", "--json",
        )
        assert code == 0
        data = json.loads(text)
        assert data[0]["protocol"] == "invalidation"
        assert data[0]["counters"]["violations"] == 0

    def test_replay_with_hierarchy(self):
        code, text = run_cli(
            "replay", "--trace", "SDSC", "--scale", "0.02",
            "--protocol", "invalidation", "--lifetime-days", "2",
            "--hierarchy", "2",
        )
        assert code == 0
        assert "Total Messages" in text


class TestSweep:
    def test_serial_sweep_table(self):
        code, text = run_cli(
            "sweep", "--trace", "SDSC", "--scale", "0.02",
            "--protocols", "polling,invalidation", "--lifetime-days", "2",
        )
        assert code == 0
        assert "polling" in text and "invalidation" in text
        assert "total_messages" in text

    def test_parallel_matches_serial(self, tmp_path):
        argv = (
            "sweep", "--trace", "SDSC", "--scale", "0.02",
            "--protocols", "polling,invalidation", "--lifetimes", "2,5",
            "--json",
        )
        code, serial = run_cli(*argv)
        assert code == 0
        code, parallel = run_cli(
            *argv, "--parallel", "2",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        )
        assert code == 0
        import json

        assert json.loads(parallel) == json.loads(serial)
        # Resume: same output again, straight from the checkpoints.
        code, resumed = run_cli(
            *argv, "--parallel", "2", "--resume",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        )
        assert code == 0
        assert json.loads(resumed) == json.loads(serial)

    def test_unknown_protocol_fails_cleanly(self):
        code, text = run_cli("sweep", "--protocols", "polling,bogus")
        assert code == 2
        assert "bogus" in text

    def test_resume_without_checkpoint_dir_fails_cleanly(self):
        code, text = run_cli(
            "sweep", "--trace", "SDSC", "--scale", "0.02", "--resume"
        )
        assert code == 2
        assert "checkpoint" in text


TABLE4_GOLDEN = Path(__file__).parent / "data" / "table4_scale0.02.txt"


class TestTable:
    def test_table4_output_is_pinned(self):
        # stdout of ``repro table --table 4 --scale 0.02``, byte for byte.
        code, text = run_cli("table", "--table", "4", "--scale", "0.02")
        assert code == 0
        assert text == TABLE4_GOLDEN.read_text()

    def test_table4_checkpoints_are_the_report_matrix(self, tmp_path):
        code, _ = run_cli(
            "table", "--table", "4", "--scale", "0.02",
            "--checkpoint-dir", str(tmp_path),
        )
        assert code == 0
        rows = [row for row in REPORT_EXPERIMENTS if row[0] == 4]
        loaded = load_checkpoint_results(str(tmp_path), rows)
        report = collect_report(scale=0.02, seed=42, experiments=rows)
        assert list(loaded) == list(report.results)
        for label, result in report.results.items():
            assert result_to_dict(loaded[label]) == result_to_dict(result)

    def test_table4_lists_all_trace_rows(self):
        code, text = run_cli("table", "--table", "4", "--scale", "0.02")
        assert code == 0
        assert "Trace NASA, lifetime 7 days" in text
        assert "Trace SDSC, lifetime 25 days" in text
        assert "Trace SDSC, lifetime 2.5 days" in text
        for proto in ("poll-every-time", "invalidation", "adaptive-ttl"):
            assert proto in text


class TestCompare:
    def test_compare_three_protocols(self):
        code, text = run_cli(
            "compare", "--trace", "SDSC", "--scale", "0.02",
            "--lifetime-days", "2",
        )
        assert code == 0
        for name in ("poll-every-time", "invalidation", "adaptive-ttl"):
            assert name in text
