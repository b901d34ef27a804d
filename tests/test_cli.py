import csv
import json
import os

import numpy as np
import pytest

from contacttrack.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, build_parser, main
from contacttrack.io import read_calibration
from contacttrack.scenes import crossing_clean
from contacttrack.semantic_map import write_label_grid


class TestParser:
    def test_subcommands_present(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--calib", "c.json", "--in", "a", "--out", "b"]
        )
        assert args.command == "run"
        assert args.input == "a"

    def test_no_stitch_flag(self):
        args = build_parser().parse_args(
            ["run", "--calib", "c", "--in", "a", "--out", "b", "--no-stitch"]
        )
        assert args.no_stitch


class TestSimulate:
    def test_scene_file(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        scene = crossing_clean(frame_count=5)
        scene["persons"] = scene["persons"][:1]
        scene_path.write_text(json.dumps(scene))
        out = tmp_path / "ds"
        assert main(["simulate", "--scene", str(scene_path),
                     "--out", str(out), "--seed", "1"]) == EXIT_OK
        for name in ("calibration.json", "detections.jsonl", "scene.json",
                     "hand_schema.json", "label_table.txt"):
            assert (out / name).exists()

    def test_unknown_builtin(self, tmp_path, capsys):
        assert main(["simulate", "--scene", "builtin:nope",
                     "--out", str(tmp_path / "x")]) == EXIT_INPUT
        assert "unknown builtin" in capsys.readouterr().err

    def test_unreadable_scene(self, tmp_path):
        assert main(["simulate", "--scene", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "x")]) == EXIT_INPUT


class TestRun:
    def test_bad_config_exit_code(self, tmp_path, mini_induction):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"voxel_size": -1}')
        ds = mini_induction["ds"]
        assert main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", ds, "--out", str(tmp_path / "out"),
                     "--config", str(cfg)]) == EXIT_CONFIG

    def test_unknown_config_key_exit_code(self, tmp_path, mini_induction):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"no_such_parameter": 1}')
        ds = mini_induction["ds"]
        assert main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", ds, "--out", str(tmp_path / "out"),
                     "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_input_exit_code(self, tmp_path, mini_induction):
        ds = mini_induction["ds"]
        assert main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", str(tmp_path), "--out", str(tmp_path / "out")]) \
            == EXIT_INPUT


def _lbl_without_dep(lbl):
    write_label_grid(lbl, np.ones((4, 4)))
    return str(lbl)[:-len(".lbl")] + ".dep"


def _lbl_bad_magic(lbl):
    lbl.write_bytes(b"NOPE" + b"\x00" * 16)
    return str(lbl)


def _lbl_truncated(lbl):
    write_label_grid(lbl, np.ones((4, 4)))
    lbl.write_bytes(lbl.read_bytes()[:-3])
    return str(lbl)


class TestRunBadDepthInput:
    """Malformed grids/ files or label table: exit 2, message names the file."""

    def _input_dir(self, tmp_path, ds):
        inp = tmp_path / "in"
        (inp / "grids").mkdir(parents=True)
        with open(os.path.join(ds, "detections.jsonl")) as f:
            first_frame = [line for line in f if json.loads(line)["frame"] == 0]
        (inp / "detections.jsonl").write_text("".join(first_frame))
        return inp

    def _run(self, tmp_path, ds, inp):
        return main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", str(inp), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("make", [_lbl_without_dep, _lbl_bad_magic, _lbl_truncated],
                             ids=["lbl-without-dep", "lbl-bad-magic", "lbl-truncated"])
    def test_bad_grid_file(self, tmp_path, mini_induction, capsys, make):
        ds = mini_induction["ds"]
        inp = self._input_dir(tmp_path, ds)
        cam = sorted(read_calibration(os.path.join(ds, "calibration.json")))[0]
        named = make(inp / "grids" / f"frame_000000_{cam}.lbl")
        assert self._run(tmp_path, ds, inp) == EXIT_INPUT
        assert f"input error: {named}: " in capsys.readouterr().err

    def test_label_table_line_without_name(self, tmp_path, mini_induction, capsys):
        ds = mini_induction["ds"]
        inp = self._input_dir(tmp_path, ds)
        (inp / "label_table.txt").write_text("0 background\n1\n")
        assert self._run(tmp_path, ds, inp) == EXIT_INPUT
        assert f"input error: {inp / 'label_table.txt'}:2: " in capsys.readouterr().err


class TestEvaluate:
    def test_report_files(self, tmp_path, mini_induction, capsys):
        out = tmp_path / "eval"
        assert main(["evaluate", "--pred", mini_induction["out"],
                     "--gt", mini_induction["ds"], "--out", str(out)]) == EXIT_OK
        report = json.load(open(out / "report.json"))
        assert 0.0 <= report["idf1"] <= 1.0
        with open(out / "report.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 2 and len(rows[0]) == len(rows[1])
        printed = capsys.readouterr().out
        assert "Binary Contact F1" in printed
        assert "Episode ID Acc." in printed

    def test_missing_pred_episodes(self, tmp_path, mini_induction):
        assert main(["evaluate", "--pred", str(tmp_path),
                     "--gt", mini_induction["ds"],
                     "--out", str(tmp_path / "eval")]) == EXIT_INPUT


class TestSweep:
    def test_bad_grid(self, tmp_path, mini_induction):
        assert main(["sweep", "--in", mini_induction["out"],
                     "--gt", mini_induction["ds"], "--grid", "0.4:0.1:0.1",
                     "--out", str(tmp_path / "s.csv")]) == EXIT_INPUT

    def test_grid_row_count(self, tmp_path, mini_induction):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--in", mini_induction["out"],
                     "--gt", mini_induction["ds"], "--grid", "0.02:0.40:0.02",
                     "--out", str(out)]) == EXIT_OK
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 20
        assert [r["tau_on"] for r in rows[:3]] == ["0.02", "0.04", "0.06"]

    def test_single_point_grid_matches_evaluate(self, tmp_path, mini_induction):
        # Replaying the default threshold from cached traces must reproduce
        # the binary F1 that the full evaluation reports.
        ev = tmp_path / "eval"
        assert main(["evaluate", "--pred", mini_induction["out"],
                     "--gt", mini_induction["ds"], "--out", str(ev)]) == EXIT_OK
        report = json.load(open(ev / "report.json"))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--in", mini_induction["out"],
                     "--gt", mini_induction["ds"], "--grid", "0.12:0.12:0.01",
                     "--out", str(out)]) == EXIT_OK
        with open(out) as f:
            (row,) = list(csv.DictReader(f))
        assert abs(float(row["binary_f1"]) - report["binary_f1"]) < 1e-6
