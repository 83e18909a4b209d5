"""Command-line interface: run, list, plot-data, acceptance plumbing."""

from dataclasses import replace

import pytest

from pentabft import cli, scenarios
from pentabft.metrics import Metrics
from pentabft.runner import run_record
from pentabft.scenarios import ScenarioConfig, fault_free

from oracles import config_text


class TestSeedParsing:
    def test_forms(self):
        assert cli.parse_seeds("7") == [7]
        assert cli.parse_seeds("1..4") == [1, 2, 3, 4]
        assert cli.parse_seeds("3,9,12") == [3, 9, 12]


class TestConfigFiles:
    def test_roundtrip(self, tmp_path):
        cfg = fault_free(1, rounds=9)
        path = tmp_path / "scenario.cfg"
        path.write_text(config_text(cfg))
        again = ScenarioConfig.from_text(path.read_text())
        assert again == cfg

    def test_fault_fields_roundtrip(self):
        from pentabft.scenarios import crash_f_plus_1, byz_guard_recover

        for cfg in (crash_f_plus_1(), byz_guard_recover()):
            assert ScenarioConfig.from_text(config_text(cfg)) == cfg


class TestRunCommand:
    def test_writes_metrics_and_aggregate(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = cli.main(
            ["run", "fault-free-f1", "--seeds", "1..2", "--rounds", "8", "--out", str(out)]
        )
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "fault-free-f1-aggregate.metrics",
            "fault-free-f1-seed1.metrics",
            "fault-free-f1-seed2.metrics",
        ]
        m = Metrics.from_text((out / "fault-free-f1-seed1.metrics").read_text())
        assert m.slots_direct_committed > 0
        assert m.modal_delay() == 2

    def test_async_mode_has_modal_delay_three(self, tmp_path):
        out = tmp_path / "res"
        code = cli.main(
            ["run", "async-fault-free", "--seeds", "1", "--rounds", "15", "--out", str(out)]
        )
        assert code == 0
        m = Metrics.from_text((out / "async-fault-free-f1-seed1.metrics").read_text())
        assert m.modal_delay() == 3

    def test_guard_scenario_populates_recovery_fields(self, tmp_path):
        out = tmp_path / "res"
        code = cli.main(["run", "splitview-3f", "--seeds", "7", "--out", str(out)])
        assert code == 0
        m = Metrics.from_text((out / "splitview-3f-seed7.metrics").read_text())
        assert m.blameset.startswith("safety:")
        assert m.recovery_vtime is not None
        assert m.guard_detection_vtime is not None

    def test_config_file_selector(self, tmp_path):
        cfg = fault_free(1, rounds=6)
        path = tmp_path / "mine.cfg"
        path.write_text(config_text(cfg))
        out = tmp_path / "res"
        assert cli.main(["run", str(path), "--seeds", "1", "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "line, message",
        [
            ("round=7", "unknown scenario key 'round'"),
            ("crash=4", "malformed value '4' for crash"),
            # empty delay ranges: each would fail mid-run, or never end a draw
            ("network=async-adversarial\nprotocol_mode=async\nasync_cap=500",
             "async_cap 500 is below async_base 1000"),
            ("network=async-benign\nprotocol_mode=async\nasync_base=0",
             "async_base 0 is below 1 us"),
            ("delta=0", "delta 0 is below 1 us"),
            ("network=partial\ngst=-1", "gst -1 is negative"),
            # n = 5f+1 holds, but no committee has a negative fault budget
            ("n=-4\nf=-1", "fault budget f=-1 is negative"),
            # beyond the guard layer's budget: each would fail at the restart
            ("crash=0@3;1@3;2@3;3@3;4@3\nbeyond_f=1\nguards=5",
             "beyond_f: 5 corrupt validators of 6 reach 3n/5"),
            ("crash=4@3;5@3\nbeyond_f=1\nguards=5\nleaders_per_round=6",
             "beyond_f: excluding 2 corrupt validators leaves 4, fewer than leaders_per_round=6"),
            # only guards recover, so the run would fail its recovery check
            ("crash=4@3;5@3\nbeyond_f=1",
             "beyond_f needs guards: only guards recover from more than f faults"),
        ],
        ids=[
            "unknown-key", "crash-without-round", "cap-below-base", "zero-base",
            "zero-delta", "negative-gst", "negative-f", "corrupt-three-fifths",
            "too-few-left-to-lead", "beyond-f-without-guards",
        ],
    )
    def test_malformed_config_file_exit_code(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(config_text(fault_free(1, rounds=6)) + line + "\n")
        out = tmp_path / "res"
        assert cli.main(["run", str(path), "--seeds", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_scenario_exit_code(self, capsys):
        assert cli.main(["run", "no-such-thing", "--seeds", "1"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unwritable_output_dir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = cli.main(
            ["run", "fault-free-f1", "--seeds", "1", "--rounds", "5",
             "--out", str(blocker / "sub")]
        )
        assert code == 2

    def test_records_flag_writes_run_record(self, tmp_path):
        out = tmp_path / "res"
        code = cli.main(
            ["run", "fault-free-f1", "--seeds", "1", "--rounds", "5",
             "--out", str(out), "--records"]
        )
        assert code == 0
        record = (out / "fault-free-f1-seed1.record").read_text()
        assert record.startswith("run scenario=fault-free-f1")
        # written piece by piece, byte for byte the record text
        cfg = replace(scenarios.by_name("fault-free-f1"), rounds=5)
        assert record == run_record(cfg, 1).to_text()


class TestPlotData:
    def test_two_series_table(self, tmp_path, capsys):
        out = tmp_path / "res"
        cli.main(["run", "fault-free-f1", "--seeds", "1", "--rounds", "8", "--out", str(out)])
        cli.main(["run", "async-fault-free", "--seeds", "1", "--rounds", "8", "--out", str(out)])
        table = tmp_path / "table.tsv"
        code = cli.main(
            [
                "plot-data",
                str(out / "fault-free-f1-aggregate.metrics"),
                str(out / "async-fault-free-f1-aggregate.metrics"),
                "--out",
                str(table),
            ]
        )
        assert code == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0].startswith("scenario\tseed\tmode")
        modes = {line.split("\t")[4] for line in lines[1:]}
        assert modes == {"2", "3"}

    def test_empty_input_is_empty_table(self, capsys):
        assert cli.main(["plot-data"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "\t".join(
            __import__("pentabft.metrics", fromlist=["PLOT_COLUMNS"]).PLOT_COLUMNS
        )

    def test_missing_file_errors(self, capsys):
        assert cli.main(["plot-data", "does-not-exist.metrics"]) == 2

    def test_metrics_text_with_a_dropped_key_still_parses(self):
        m = Metrics(scenario="s", seed=2, mode="sync", slots_direct_committed=3, slots_skipped=1)
        text = m.to_text()
        assert "slots_undecided" not in text
        old = text.replace("slots_skipped=1\n", "slots_skipped=1\nslots_undecided=0\n")
        assert old != text and Metrics.from_text(old) == m


class TestListCommand:
    def test_lists_catalog(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fault-free-f1", "splitview-3f", "async-fault-free"):
            assert name in out


class TestAcceptanceCommand:
    def test_single_fast_suite(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        code = cli.main(["acceptance", "quorum-math", "--out", str(report)])
        assert code == 0
        text = report.read_text()
        assert "[PASS] C5" in text
        assert text.strip().endswith("acceptance: PASS")

    def test_unknown_suite(self, capsys):
        assert cli.main(["acceptance", "bogus"]) == 2
