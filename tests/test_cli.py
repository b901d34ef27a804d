import csv
import json
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from contacttrack.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, build_parser, main
from contacttrack.config import MAX_PATCH_W, load_pipeline_config
from contacttrack.io import read_calibration
from contacttrack.scenes import crossing_clean, induction_lite, induction_lite_noisy
from contacttrack.simulator import emit_dataset

from helpers import write_depth_grid, write_label_grid


class TestUnwritableOut:
    """An --out that cannot be written exits 2 naming the path: an existing
    file where simulate, run and evaluate make a directory, a directory
    where sweep writes its CSV."""

    @pytest.mark.parametrize("command", ["simulate", "run", "evaluate", "sweep"])
    def test_exit_code_and_message(self, tmp_path, mini_induction, capsys, command):
        ds, run = mini_induction["ds"], mini_induction["out"]
        out = tmp_path / "out"
        if command == "sweep":
            out.mkdir()
        else:
            out.write_text("")
        args = {
            "simulate": ["--scene", "builtin:crossing-clean"],
            "run": ["--calib", os.path.join(ds, "calibration.json"), "--in", ds],
            "evaluate": ["--pred", run, "--gt", ds],
            "sweep": ["--in", run, "--gt", ds, "--grid", "0.1:0.1:0.1"],
        }[command]
        assert main([command, *args, "--out", str(out)]) == EXIT_INPUT
        assert f"error: {out}: " in capsys.readouterr().err


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

    def test_top_level_raw_key_is_an_ordinary_key(self, tmp_path):
        # A scene file is always parsed, whatever keys it holds.
        scene = crossing_clean(frame_count=3)
        detections = []
        for name, data in (("plain", scene), ("raw", scene | {"raw": {"note": 1}})):
            scene_path = tmp_path / f"{name}.json"
            scene_path.write_text(json.dumps(data))
            out = tmp_path / name
            assert main(["simulate", "--scene", str(scene_path), "--out", str(out)]) == EXIT_OK
            detections.append((out / "detections.jsonl").read_bytes())
        assert detections[0] and detections[1] == detections[0]

    def test_unknown_builtin(self, tmp_path, capsys):
        assert main(["simulate", "--scene", "builtin:nope",
                     "--out", str(tmp_path / "x")]) == EXIT_INPUT
        assert "unknown builtin" in capsys.readouterr().err

    def test_unreadable_scene(self, tmp_path):
        assert main(["simulate", "--scene", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "x")]) == EXIT_INPUT

    def _simulate_edited(self, tmp_path, edit):
        scene = crossing_clean(frame_count=2)
        edit(scene)
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        return main(["simulate", "--scene", str(scene_path), "--out", str(tmp_path / "x")])

    # ROADMAP item 12: simulate used to exit 0 on each of these, merging
    # the persons, dropping a camera or writing a label_table.txt that run
    # rejects.
    @pytest.mark.parametrize("edit, message", [
        (lambda scene: scene["persons"][1].__setitem__("id", 1), "person id 1 listed twice"),
        (lambda scene: scene["cameras"][1].__setitem__("id", scene["cameras"][0]["id"]),
         "camera 'cam0' listed twice"),
        (lambda scene: scene["surfaces"][0].__setitem__("name", ""),
         "name must be a non-blank single-line string, got ''"),
        (lambda scene: scene["surfaces"][0].__setitem__("name", " \t"),
         "name must be a non-blank single-line string, got ' \\t'"),
        (lambda scene: scene["surfaces"][0].__setitem__("name", "a\nb"),
         "name must be a non-blank single-line string, got 'a\\nb'"),
        (lambda scene: scene["surfaces"][0].__setitem__("name", 7),
         "name must be a non-blank single-line string, got 7"),
        (lambda scene: scene["surfaces"][0].__setitem__("name", ["x"]),
         "name must be a non-blank single-line string, got ['x']"),
    ], ids=["person-id-twice", "camera-id-twice", "name-empty", "name-blank", "name-two-lines",
            "name-number", "name-list"])
    def test_scene_field_run_would_not_read(self, tmp_path, capsys, edit, message):
        # A copy: the builtin's surface records are shared module constants.
        scene = json.loads(json.dumps(induction_lite(frame_count=4)))
        edit(scene)
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        assert main(["simulate", "--scene", str(scene_path),
                     "--out", str(tmp_path / "x")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {scene_path}: bad scene config: {message}\n")
        assert not (tmp_path / "x").exists()

    def test_camera_looking_at_its_position(self, tmp_path, capsys):
        def edit(scene):
            cam = scene["cameras"][0]
            cam["look_at"] = list(cam["position"])

        assert self._simulate_edited(tmp_path, edit) == EXIT_INPUT
        assert "look_at must differ from its position" in capsys.readouterr().err
        assert not (tmp_path / "x" / "calibration.json").exists()

    def test_hand_vertex_count_below_blob_size(self, tmp_path, capsys):
        def edit(scene):
            scene["hand_vertex_count"] = 12

        assert self._simulate_edited(tmp_path, edit) == EXIT_INPUT
        assert "hand_vertex_count 12 is below 13" in capsys.readouterr().err

    def test_noise_not_a_mapping(self, tmp_path, capsys):
        def edit(scene):
            scene["noise"] = 1

        assert self._simulate_edited(tmp_path, edit) == EXIT_INPUT
        assert f"input error: {tmp_path / 'scene.json'}: bad scene config: " \
            in capsys.readouterr().err

    # 1e400 reads as inf, which is no integer; a waypoint position is x
    # and y.
    @pytest.mark.parametrize("edit, message", [
        (lambda scene: scene.__setitem__("frame_count", 1e400),
         "frame_count must be an integer, got Infinity"),
        (lambda scene: scene["persons"][0]["waypoints"][0].__setitem__("position", []),
         "position shape (0,), want (2,)"),
        (lambda scene: scene.__setitem__("hand_vertex_count", 10**12),
         "hand_vertex_count 1000000000000 is above 10000"),
        (lambda scene: scene["noise"].__setitem__("hand_jitter", -0.01),
         "hand_jitter must be >= 0, got -0.01"),
        (lambda scene: scene["noise"].__setitem__("pixel_sigma", -1),
         "pixel_sigma must be >= 0, got -1.0"),
        (lambda scene: scene["noise"].__setitem__("depth_sigma", -0.1),
         "depth_sigma must be >= 0, got -0.1"),
        (lambda scene: scene["noise"].__setitem__("dropout", 1.5),
         "dropout must be <= 1, got 1.5"),
    ], ids=["frame-count-overflow", "waypoint-position-empty", "hand-vertex-count-above-cap",
            "hand-jitter-negative", "pixel-sigma-negative", "depth-sigma-negative",
            "dropout-above-one"])
    def test_scene_value_out_of_range(self, tmp_path, capsys, edit, message):
        assert self._simulate_edited(tmp_path, edit) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {tmp_path / 'scene.json'}: bad scene config: {message}" in err
        assert "Traceback" not in err


    # A scene file follows the rule of every other input file: int() and
    # float() would read 2.5 as 2 frames and "0" as 0.0.
    @pytest.mark.parametrize("edit, message", [
        (lambda scene: scene.__setitem__("frame_count", 2.5),
         "frame_count must be an integer, got 2.5"),
        (lambda scene: scene["persons"][0].__setitem__("id", 1.7),
         "id must be an integer, got 1.7"),
        (lambda scene: scene.__setitem__("surfaces", [
            {"type": "box", "label": 1, "min": ["0", 0, 0], "max": [1, 1, 1]}]),
         "min must be numbers in evenly nested arrays"),
        (lambda scene: scene["noise"].__setitem__("pixel_sigma", "1"),
         'pixel_sigma must be a number, got "1"'),
        (lambda scene: scene["cameras"][0].__setitem__("width", 640.0),
         "width must be an integer, got 640.0"),
        (lambda scene: scene["persons"][0].__setitem__("hands", [{"side": "up"}]),
         'hand side must be left or right, got "up"'),
        # These two ended in a traceback once simulate rendered the person.
        (lambda scene: scene["persons"][0].__setitem__("absent", [[1, 2, 3]]),
         "a person needs waypoints, and absent [start, stop] pairs"),
        (lambda scene: scene["persons"][0].__setitem__("waypoints", []),
         "a person needs waypoints, and absent [start, stop] pairs"),
    ], ids=["frame-count-fraction", "person-id-fraction", "surface-min-string",
            "noise-string", "camera-width-float", "hand-side", "absent-triple",
            "no-waypoints"])
    def test_scene_value_of_the_wrong_type(self, tmp_path, capsys, edit, message):
        assert self._simulate_edited(tmp_path, edit) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {tmp_path / 'scene.json'}: bad scene config: {message}" in err
        assert not (tmp_path / "x").exists()


class TestRun:
    @pytest.mark.parametrize("config, message", [
        ('{"voxel_size": -1}', "voxel_size must be positive"),
        ('{"stride": 0}', "stride must be >= 1"),
        # Integers that float64 or int64 cannot hold.
        (f'{{"voxel_size": {10**400}}}', f"voxel_size must be a finite number, got {10**400}"),
        (f'{{"fusion": {{"fps": {10**400}}}}}', f"fusion.fps must be a finite number, got {10**400}"),
        (f'{{"tracker": {{"eps_tri": {-10**400}}}}}',
         f"tracker.eps_tri must be a finite number, got {-10**400}"),
        (f'{{"stride": {10**400}}}', f"stride must be an int64 integer, got {10**400}"),
        (f'{{"stride": {2**63}}}', f"stride must be an int64 integer, got {2**63}"),
        # A range error in a section names the field with its section.
        ('{"fusion": {"v_max": 0}}', "fusion.v_max must be positive"),
        ('{"contact": {"tau_on": 0.2}}', "contact.tau_off > contact.tau_on > 0 must hold"),
        ('{"tracker": {"bone_beta": 0.9}}', "tracker.bone_alpha < 1 < tracker.bone_beta must hold"),
        # A patch this wide ended in a traceback from the patch array's allocation.
        ('{"tracker": {"patch_w": 99999999999}}',
         f"tracker.patch_w must be a positive odd size <= {MAX_PATCH_W}"),
        (f'{{"tracker": {{"patch_w": {MAX_PATCH_W + 2}}}}}',
         f"tracker.patch_w must be a positive odd size <= {MAX_PATCH_W}"),
        # Negative gap limits were taken without a word: a hand_gap_frames
        # of -1 gave 0 episodes.
        ('{"fusion": {"hand_gap_frames": -1}}', "fusion.hand_gap_frames must be >= 0"),
        ('{"tracker": {"max_inactive_frames": -1}}', "tracker.max_inactive_frames must be >= 0"),
    ], ids=["voxel-size-negative", "stride-zero", "voxel-size-beyond-float",
            "fusion-fps-beyond-float", "eps-tri-beyond-float", "stride-beyond-int64",
            "stride-just-beyond-int64", "fusion-v-max-zero", "contact-tau-on-above-off",
            "tracker-bone-beta-below-one", "tracker-patch-w-huge", "tracker-patch-w-above-max",
            "fusion-hand-gap-negative", "tracker-max-inactive-negative"])
    def test_bad_config_exit_code(self, tmp_path, mini_induction, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        ds = mini_induction["ds"]
        assert main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", ds, "--out", str(tmp_path / "out"),
                     "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: config {cfg}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_min_birth_joints_below_one_exit_code(self, tmp_path, mini_induction, capsys):
        # A track must always hold an available joint, and births are
        # what give it one.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tracker": {"min_birth_joints": 0}}')
        ds = mini_induction["ds"]
        assert main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", ds, "--out", str(tmp_path / "out"),
                     "--config", str(cfg)]) == EXIT_CONFIG
        assert (capsys.readouterr().err
                == f"config error: config {cfg}: tracker.min_birth_joints must be >= 1\n")

    # A key unknown to a section is named with its section.
    @pytest.mark.parametrize("config, names", [
        ('{"no_such_parameter": 1}', "['no_such_parameter']"),
        ('{"tracker": {"no_such": 1, "also_not": 2}}', "['tracker.also_not', 'tracker.no_such']"),
    ], ids=["top-level", "in-section"])
    def test_unknown_config_key_exit_code(self, tmp_path, mini_induction, capsys,
                                          config, names):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        ds = mini_induction["ds"]
        assert main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", ds, "--out", str(tmp_path / "out"),
                     "--config", str(cfg)]) == EXIT_CONFIG
        assert (capsys.readouterr().err
                == f"config error: config {cfg}: unknown parameter(s) {names}\n")

    @pytest.mark.parametrize("config, message", [
        ('{"voxel_size": "a"}', 'voxel_size must be a finite number, got "a"'),
        ('{"voxel_size": NaN}', "voxel_size must be a finite number, got NaN"),
        ('{"fusion": {"fps": -Infinity}}', "fusion.fps must be a finite number, got -Infinity"),
        ('{"stride": 2.5}', "stride must be an integer, got 2.5"),
        ('{"stride": true}', "stride must be an integer, got true"),
        ('{"tracker": {"tau_joint": "x"}}', 'tracker.tau_joint must be a finite number, got "x"'),
        ('{"tracker": {"max_inactive_frames": "x"}}',
         'tracker.max_inactive_frames must be an integer, got "x"'),
        ('{"contact": {"min_episode_frames": null}}',
         "contact.min_episode_frames must be an integer, got null"),
        ('{"fusion": {"fps": false}}', "fusion.fps must be a finite number, got false"),
        ('{"static_map": "no"}', 'static_map must be true or false, got "no"'),
        ('{"static_map": 1}', "static_map must be true or false, got 1"),
    ])
    def test_config_value_of_the_wrong_type(self, tmp_path, mini_induction, capsys,
                                            config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        ds = mini_induction["ds"]
        assert main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", ds, "--out", str(tmp_path / "out"),
                     "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: config {cfg}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_config_integer_for_a_float_kept_as_given(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"voxel_size": 1, "contact": {"tau_off": 1}}')
        loaded = load_pipeline_config(str(cfg)).to_json()
        assert type(loaded["voxel_size"]) is int
        assert type(loaded["contact"]["tau_off"]) is int

    def test_voxel_grid_past_key_range(self, tmp_path, mini_induction, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"voxel_size": 1e-9}')
        ds = mini_induction["ds"]
        assert main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", ds, "--out", str(tmp_path / "out"),
                     "--config", str(cfg)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: voxel_size 1e-09 m gives a ")
        assert err.endswith(" labels, past the 2**53 packed-key range\n")
        assert "Traceback" not in err

    def test_config_not_an_object(self, tmp_path, mini_induction, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        ds = mini_induction["ds"]
        assert main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", ds, "--out", str(tmp_path / "out"),
                     "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: config {cfg}: the file must hold a JSON object, got list" in err

    def test_config_section_not_an_object(self, tmp_path, mini_induction, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tracker": [1]}')
        ds = mini_induction["ds"]
        assert main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", ds, "--out", str(tmp_path / "out"),
                     "--config", str(cfg)]) == EXIT_CONFIG
        assert "'tracker' must hold a JSON object, got list" in capsys.readouterr().err

    def test_calibration_not_an_object(self, tmp_path, mini_induction, capsys):
        calib = tmp_path / "calibration.json"
        calib.write_text("[]")
        ds = mini_induction["ds"]
        assert main(["run", "--calib", str(calib), "--in", ds,
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {calib}: calibration must hold a JSON object, got list" in err

    def test_missing_input_exit_code(self, tmp_path, mini_induction):
        ds = mini_induction["ds"]
        assert main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", str(tmp_path), "--out", str(tmp_path / "out")]) \
            == EXIT_INPUT

    # T_cw is stored row-major: entry 1 is in the rotation, entry 3 in the
    # translation.
    @pytest.mark.parametrize("entry", [1, 3], ids=["rotation", "translation"])
    def test_non_finite_extrinsics(self, tmp_path, mini_induction, capsys, entry):
        ds = mini_induction["ds"]
        with open(os.path.join(ds, "calibration.json")) as f:
            calib = json.load(f)
        calib["cameras"][0]["T_cw"][entry] = float("nan")
        calib_path = tmp_path / "calibration.json"
        calib_path.write_text(json.dumps(calib))
        assert main(["run", "--calib", str(calib_path), "--in", ds,
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {calib_path}: bad camera record: " in err
        assert "T_cw must be finite" in err

    def _edit_calibration(self, tmp_path, ds, edit):
        with open(os.path.join(ds, "calibration.json")) as f:
            calib = json.load(f)
        edit(calib["cameras"])
        calib_path = tmp_path / "calibration.json"
        calib_path.write_text(json.dumps(calib))
        return calib_path

    @pytest.mark.parametrize("key, value, message", [
        ("fx", float("inf"), "fx must be finite, got inf"),
        ("fy", float("nan"), "fy must be finite, got nan"),
        ("fx", 0.0, "focal lengths must be finite and positive"),
        ("fy", -600.0, "focal lengths must be finite and positive"),
    ], ids=["fx-inf", "fy-nan", "fx-0.0", "fy--600.0"])
    def test_bad_focal_length(self, tmp_path, mini_induction, capsys, key, value, message):
        ds = mini_induction["ds"]
        calib_path = self._edit_calibration(
            tmp_path, ds, lambda cams: cams[0].__setitem__(key, value))
        assert main(["run", "--calib", str(calib_path), "--in", ds,
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {calib_path}: bad camera record: {message}" in err

    def test_camera_id_not_a_string(self, tmp_path, mini_induction, capsys):
        ds = mini_induction["ds"]
        calib_path = self._edit_calibration(
            tmp_path, ds, lambda cams: cams[0].__setitem__("camera_id", 0))
        assert main(["run", "--calib", str(calib_path), "--in", ds,
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {calib_path}: bad camera record: " \
               "camera_id must be a string, got int" in err

    # int() and float() would read the first two, and true as 1; 1e400
    # reads as inf, which int() cannot convert.
    @pytest.mark.parametrize("key, value, message", [
        ("fx", "360", 'fx must be a number, got "360"'),
        ("width", 640.9, "width must be an integer, got 640.9"),
        ("width", True, "width must be an integer, got true"),
        ("width", 1e400, "width must be an integer, got Infinity"),
    ], ids=["fx-string", "width-fraction", "width-bool", "width-overflow"])
    def test_camera_field_of_the_wrong_type(self, tmp_path, mini_induction, capsys,
                                            key, value, message):
        ds = mini_induction["ds"]
        calib_path = self._edit_calibration(
            tmp_path, ds, lambda cams: cams[0].__setitem__(key, value))
        assert main(["run", "--calib", str(calib_path), "--in", ds,
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {calib_path}: bad camera record: {message}" in err

    def test_coincident_camera_centers(self, tmp_path, mini_induction, capsys):
        # Two cameras at one centre share no epipolar geometry; the file
        # is rejected before any frame is read.
        ds = mini_induction["ds"]
        calib_path = self._edit_calibration(
            tmp_path, ds, lambda cams: cams[1].__setitem__("T_cw", cams[0]["T_cw"]))
        assert main(["run", "--calib", str(calib_path), "--in", ds,
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {calib_path}: camera centers of 'cam0' and 'cam1' "
            "coincide (within 1e-6 m)\n")

    def test_camera_listed_twice(self, tmp_path, mini_induction, capsys):
        ds = mini_induction["ds"]
        calib_path = self._edit_calibration(
            tmp_path, ds, lambda cams: cams.append(dict(cams[1])))
        assert main(["run", "--calib", str(calib_path), "--in", ds,
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {calib_path}: bad camera record: camera 'cam1' listed twice" in err


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


def _huge_header(magic):
    # w = h = 2**32 - 1: w * h bytes cannot be read, nor even allocated.
    return magic + b"\xff" * 8 + b"\x00" * 16


def _lbl_huge_header(lbl):
    lbl.write_bytes(_huge_header(b"LBL1"))
    return str(lbl)


def _dep_huge_header(lbl):
    write_label_grid(lbl, np.ones((4, 4)))
    dep = str(lbl)[:-len(".lbl")] + ".dep"
    with open(dep, "wb") as f:
        f.write(_huge_header(b"DEP1"))
    return dep


def _lbl_dep_shapes_differ(lbl):
    write_label_grid(lbl, np.ones((4, 4)))
    write_depth_grid(str(lbl)[:-len(".lbl")] + ".dep", np.ones((4, 5)))
    return str(lbl)


class TestRunBadDepthInput:
    """Malformed grids/ files or label table: exit 2, message names the file."""

    def _input_dir(self, tmp_path, ds):
        inp = tmp_path / "in"
        (inp / "grids").mkdir(parents=True)
        with open(os.path.join(ds, "detections.jsonl")) as f:
            first_frame = [line for line in f if json.loads(line)["frame"] == 0]
        (inp / "detections.jsonl").write_text("".join(first_frame))
        for name in ("hand_schema.json", "label_table.txt"):
            shutil.copy(os.path.join(ds, name), inp / name)
        return inp

    def _run(self, tmp_path, ds, inp):
        return main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", str(inp), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "make",
        [_lbl_without_dep, _lbl_bad_magic, _lbl_truncated, _lbl_huge_header, _dep_huge_header,
         _lbl_dep_shapes_differ],
        ids=["lbl-without-dep", "lbl-bad-magic", "lbl-truncated", "lbl-huge-header",
             "dep-huge-header", "lbl-dep-shapes-differ"])
    def test_bad_grid_file(self, tmp_path, mini_induction, capsys, make):
        ds = mini_induction["ds"]
        inp = self._input_dir(tmp_path, ds)
        cam = sorted(read_calibration(os.path.join(ds, "calibration.json")))[0]
        named = make(inp / "grids" / f"frame_000000_{cam}.lbl")
        assert self._run(tmp_path, ds, inp) == EXIT_INPUT
        assert f"input error: {named}: " in capsys.readouterr().err

    def test_grids_of_half_the_image_size(self, tmp_path, capsys):
        # A grids/ export at 320x240 for 640x480 cameras would map each
        # lattice cell as the pixel at twice its coordinates.
        ds = tmp_path / "ds"
        emit_dataset(induction_lite(frame_count=3), str(ds), seed=0)
        (ds / "scene.json").unlink()
        (ds / "grids").mkdir()
        cals = read_calibration(str(ds / "calibration.json"))
        assert {(c.image_width, c.image_height) for c in cals.values()} == {(640, 480)}
        for frame in range(3):
            for cam_id in cals:
                base = ds / "grids" / f"frame_{frame:06d}_{cam_id}"
                write_label_grid(f"{base}.lbl", np.ones((240, 320)))
                write_depth_grid(f"{base}.dep", np.full((240, 320), 2.0))
        cam = sorted(cals)[0]
        assert main(["run", "--calib", str(ds / "calibration.json"), "--in", str(ds),
                     "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {ds / 'grids' / f'frame_000000_{cam}.lbl'}: "
            f"grid is 320x240 but camera {cam} is 640x480\n")

    def test_label_table_line_without_name(self, tmp_path, mini_induction, capsys):
        ds = mini_induction["ds"]
        inp = self._input_dir(tmp_path, ds)
        (inp / "label_table.txt").write_text("0 background\n1\n")
        assert self._run(tmp_path, ds, inp) == EXIT_INPUT
        assert f"input error: {inp / 'label_table.txt'}:2: " in capsys.readouterr().err


class TestRunLabelTable:
    """label_table.txt is required beside scene.json or grids/ and must
    name every label the map holds: exit 2, message names the file."""

    def _input_dir(self, tmp_path, ds):
        inp = tmp_path / "in"
        inp.mkdir()
        with open(os.path.join(ds, "detections.jsonl")) as f:
            (inp / "detections.jsonl").write_text(
                "".join(line for line in f if json.loads(line)["frame"] < 5))
        for name in ("hand_schema.json", "scene.json"):
            shutil.copy(os.path.join(ds, name), inp / name)
        return inp

    def _run(self, tmp_path, ds, inp):
        return main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", str(inp), "--out", str(tmp_path / "out")])

    def test_missing_table(self, tmp_path, mini_induction, capsys):
        ds = mini_induction["ds"]
        inp = self._input_dir(tmp_path, ds)
        assert self._run(tmp_path, ds, inp) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {inp / 'label_table.txt'}: missing label_table.txt" in err

    # write_label_table writes ASCII ids of the LBL1 byte, each once; int()
    # would read 1_0 and a full-width 5, and a repeated id would replace
    # the earlier name.
    @pytest.mark.parametrize("table, line, message", [
        ("1 bed\n1_0 rail\n", 2, "label id must be an integer, got '1_0'"),
        ("\uff15 rail\n", 1, "label id must be an integer, got '\uff15'"),
        ("-4 rail\n", 1, "label id must be in 0..255, got -4"),
        ("300 rail\n", 1, "label id must be in 0..255, got 300"),
        ("1 bed\n2 monitor\n\n1 rail\n", 4, "label id 1 listed twice"),
    ], ids=["underscore", "full-width", "negative", "beyond-a-byte", "twice"])
    def test_bad_label_id(self, tmp_path, mini_induction, capsys, table, line, message):
        ds = mini_induction["ds"]
        inp = self._input_dir(tmp_path, ds)
        (inp / "label_table.txt").write_text(table, encoding="utf-8")
        assert self._run(tmp_path, ds, inp) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: {inp / 'label_table.txt'}:{line}: {message}\n"

    def test_table_without_a_map_label(self, tmp_path, mini_induction, capsys):
        ds = mini_induction["ds"]
        inp = self._input_dir(tmp_path, ds)
        (inp / "label_table.txt").write_text("1 bed\n")
        assert self._run(tmp_path, ds, inp) == EXIT_INPUT
        err = capsys.readouterr().err
        assert (f"input error: {inp / 'label_table.txt'}: label id 2 missing from label table"
                in err)


def _camera_not_calibrated(recs):
    recs[0]["camera_id"] = "nope"
    return 1


def _joint_nan(recs):
    recs[1]["persons"][0]["joints"][4][0] = float("nan")
    return 2


def _joint_inf(recs):
    recs[2]["persons"][1]["joints"][0][1] = float("inf")
    return 3


def _duplicate_frame_camera(recs):
    recs[2]["camera_id"] = recs[0]["camera_id"]
    return 3


def _frame_fraction(recs):
    recs[1]["frame"] = 0.5
    return 2


def _frame_string(recs):
    recs[0]["frame"] = "0"
    return 1


def _frame_bool(recs):
    recs[2]["frame"] = True
    return 3


def _frame_backwards(recs):
    recs[2]["frame"] = -1
    return 3


def _persons_object(recs):
    recs[1]["persons"] = {}
    return 2


def _hands_object(recs):
    recs[3]["hands"] = {}
    return 4


def _hand_side(recs):
    recs[1]["hands"][0]["side"] = "middle"
    return 2


def _hand_sigma_negative(recs):
    recs[2]["hands"][3]["sigma_fit"] = -0.5
    return 3


def _hand_vertices_not_n_by_3(recs):
    recs[0]["hands"][1]["vertices"] = [v[:2] for v in recs[0]["hands"][1]["vertices"]]
    return 1


def _hand_vertices_not_finite(recs):
    recs[3]["hands"][0]["vertices"][5][2] = float("nan")
    return 4


def _joints_strings(recs):
    p = recs[0]["persons"][0]
    p["joints"] = [[str(v) for v in row] for row in p["joints"]]
    return 1


def _joints_bools(recs):
    p = recs[1]["persons"][0]
    p["joints"] = [[True, False, True] for _ in p["joints"]]
    return 2


def _joints_ragged(recs):
    recs[2]["persons"][0]["joints"][3].pop()
    return 3


def _hand_vertices_string(recs):
    recs[1]["hands"][0]["vertices"][2][1] = "0.5"
    return 2


def _hand_sigma_string(recs):
    recs[0]["hands"][0]["sigma_fit"] = "0.01"
    return 1


def _hand_sigma_bool(recs):
    recs[3]["hands"][1]["sigma_fit"] = True
    return 4


def _hand_sigma_huge_int(recs):
    recs[2]["hands"][0]["sigma_fit"] = 10 ** 400
    return 3


class TestRunBadDetections:
    """Malformed detection records: exit 2, message names the file and line."""

    def _run(self, tmp_path, ds, corrupt=None, schema=True):
        inp = tmp_path / "in"
        inp.mkdir()
        with open(os.path.join(ds, "detections.jsonl")) as f:
            recs = [json.loads(next(f)) for _ in range(4)]
        line = corrupt(recs) if corrupt else None
        (inp / "detections.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs))
        if schema:
            shutil.copy(os.path.join(ds, "hand_schema.json"), inp / "hand_schema.json")
        code = main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", str(inp), "--out", str(tmp_path / "out")])
        return code, inp / "detections.jsonl", line

    def test_valid_copy_runs(self, tmp_path, mini_induction):
        assert self._run(tmp_path, mini_induction["ds"])[0] == EXIT_OK

    @pytest.mark.parametrize("corrupt, message", [
        (_camera_not_calibrated, "camera 'nope' is not in the calibration"),
        (_joint_nan, "joints must be finite, got nan"),
        (_joint_inf, "joints must be finite, got inf"),
        (_duplicate_frame_camera, "second record for frame 0"),
        (_frame_fraction, "frame must be an integer, got 0.5"),
        (_frame_string, 'frame must be an integer, got "0"'),
        (_frame_bool, "frame must be an integer, got true"),
        (_frame_backwards, "detections not frame-ordered (-1 after 0)"),
        (_persons_object, "persons must be an array, got {}"),
        (_hands_object, "hands must be an array, got {}"),
        (_hand_side, "hand side must be left or right"),
        (_hand_sigma_negative, "sigma_fit must be finite and >= 0"),
        (_hand_vertices_not_n_by_3, "vertices shape (40, 2), want (N, 3)"),
        (_hand_vertices_not_finite, "vertices must be finite, got nan"),
        (_joints_strings, "joints must be numbers in evenly nested arrays"),
        (_joints_bools, "joints must be numbers in evenly nested arrays"),
        (_joints_ragged, "joints must be numbers in evenly nested arrays"),
        (_hand_vertices_string, "vertices must be numbers in evenly nested arrays"),
        (_hand_sigma_string, 'sigma_fit must be a number, got "0.01"'),
        (_hand_sigma_bool, "sigma_fit must be a number, got true"),
        (_hand_sigma_huge_int, "int too large to convert to float"),
    ], ids=["camera-not-calibrated", "joint-nan", "joint-inf", "duplicate-frame-camera",
            "frame-fraction", "frame-string", "frame-bool", "frame-backwards",
            "persons-object", "hands-object", "hand-side", "hand-sigma-negative", "hand-vertices-not-n-by-3",
            "hand-vertices-not-finite", "joints-strings", "joints-bools", "joints-ragged",
            "hand-vertices-string", "hand-sigma-string", "hand-sigma-bool",
            "hand-sigma-huge-int"])
    def test_bad_record(self, tmp_path, mini_induction, capsys, corrupt, message):
        code, det, line = self._run(tmp_path, mini_induction["ds"], corrupt)
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {det}:{line}: " in err
        assert message in err

    def test_hand_vertex_count_without_schema_file(self, tmp_path, mini_induction, capsys):
        code, det, _ = self._run(tmp_path, mini_induction["ds"], schema=False)
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {det}:1: " in err
        assert "hand_schema.json missing" in err


class TestRunNotUtf8:
    """An input file starting with a byte that is not UTF-8, or with JSON
    nested deeper than the parser follows: exit 2 and a message naming the
    file (and line), or exit 3 for --config."""

    def _input_dir(self, tmp_path, ds):
        inp = tmp_path / "in"
        inp.mkdir()
        with open(os.path.join(ds, "detections.jsonl")) as f:
            (inp / "detections.jsonl").write_text("".join(next(f) for _ in range(4)))
        for name in ("calibration.json", "scene.json", "label_table.txt", "hand_schema.json"):
            shutil.copy(os.path.join(ds, name), inp / name)
        return inp

    def _run(self, tmp_path, inp, *extra):
        return main(["run", "--static-map", "--calib", str(inp / "calibration.json"),
                     "--in", str(inp), "--out", str(tmp_path / "out"), *extra])

    def test_valid_copy_runs(self, tmp_path, mini_induction):
        assert self._run(tmp_path, self._input_dir(tmp_path, mini_induction["ds"])) == EXIT_OK

    @pytest.mark.parametrize("name, where", [
        ("detections.jsonl", ":1: "),
        ("calibration.json", ": "),
        ("scene.json", ": "),
        ("label_table.txt", ":1: "),
    ])
    def test_input_file(self, tmp_path, mini_induction, capsys, name, where):
        inp = self._input_dir(tmp_path, mini_induction["ds"])
        path = inp / name
        path.write_bytes(b"\xff" + path.read_bytes())
        assert self._run(tmp_path, inp) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {path}{where}" in err
        assert "can't decode byte 0xff in position 0" in err

    @pytest.mark.parametrize("name, where", [
        ("detections.jsonl", ":1: "),
        ("calibration.json", ": "),
        ("scene.json", ": "),
        ("hand_schema.json", ": "),
    ])
    def test_input_nested_too_deep(self, tmp_path, mini_induction, capsys, name, where):
        inp = self._input_dir(tmp_path, mini_induction["ds"])
        path = inp / name
        path.write_text("[" * 100_000 + "\n")
        assert self._run(tmp_path, inp) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {path}{where}" in err
        assert "maximum recursion depth exceeded" in err

    def test_config_file(self, tmp_path, mini_induction, capsys):
        inp = self._input_dir(tmp_path, mini_induction["ds"])
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff{}")
        assert self._run(tmp_path, inp, "--config", str(cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: config {cfg} is not valid UTF-8 JSON: " in err
        assert "can't decode byte 0xff in position 0" in err

    def test_config_nested_too_deep(self, tmp_path, mini_induction, capsys):
        inp = self._input_dir(tmp_path, mini_induction["ds"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000)
        assert self._run(tmp_path, inp, "--config", str(cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: config {cfg} is not valid UTF-8 JSON: " in err
        assert "maximum recursion depth exceeded" in err


class TestRunBadSceneFile:
    """A scene.json whose content is malformed: exit 2, message names the
    file."""

    def _run_edited(self, tmp_path, ds, edit):
        """Exit code of a run over the first frame with scene.json edited,
        and the scene.json path."""
        inp = tmp_path / "in"
        inp.mkdir()
        with open(os.path.join(ds, "detections.jsonl")) as f:
            (inp / "detections.jsonl").write_text("".join(next(f) for _ in range(4)))
        for name in ("hand_schema.json", "label_table.txt"):
            shutil.copy(os.path.join(ds, name), inp / name)
        with open(os.path.join(ds, "scene.json")) as f:
            data = json.load(f)
        edit(data)
        path = inp / "scene.json"
        path.write_text(json.dumps(data))
        return main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", str(inp), "--out", str(tmp_path / "out")]), path

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data["scene"]["surfaces"][0].__setitem__("type", "cone"),
         "bad scene config: unknown surface type 'cone'"),
        (lambda data: data.__setitem__("seed", 1e400),
         "bad scene file: seed must be an integer, got Infinity"),
        (lambda data: data.__setitem__("seed", 0.5), "bad scene file: seed must be an integer, got 0.5"),
    ], ids=["unknown-surface-type", "seed-overflow", "seed-fraction"])
    def test_bad_scene(self, tmp_path, mini_induction, capsys, edit, message):
        code, path = self._run_edited(tmp_path, mini_induction["ds"], edit)
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {path}: {message}" in err

    # LBL1 grids and the map hold labels as uint8, 0 for background: 257
    # and 300 would wrap, -1 would drop the surface and 10**400 would
    # overflow a C long.
    @pytest.mark.parametrize("label", [257, -1, 300, 10**400],
                             ids=["257", "negative", "300", "beyond-c-long"])
    def test_surface_label_outside_a_byte(self, tmp_path, mini_induction, capsys, label):
        def edit(data):
            data["scene"]["surfaces"][0]["label"] = label

        code, path = self._run_edited(tmp_path, mini_induction["ds"], edit)
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {path}: bad scene config: label must be in 1..255, got {label}\n")

    def test_camera_the_calibration_lacks(self, tmp_path, mini_induction, capsys):
        def edit(data):
            data["scene"]["cameras"][0]["id"] = "x"

        code, path = self._run_edited(tmp_path, mini_induction["ds"], edit)
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {path}: scene has no camera 'cam0' of the calibration\n")


class TestRunBadHandSchema:
    """A malformed hand_schema.json: exit 2, message names the file."""

    @pytest.mark.parametrize("schema, message", [
        ("{not json", "bad hand schema: "),
        ({"vertex_count": 40, "palm_indices": [0, 1, 2],
          "fingertip_indices": [35, 36, 37, 38]}, "exactly five fingertip indices"),
        ({"vertex_count": 40, "palm_indices": [-1, 0, 1],
          "fingertip_indices": [35, 36, 37, 38, 39]}, "anchor index out of range"),
        ({"vertex_count": 40, "palm_indices": [],
          "fingertip_indices": [35, 36, 37, 38, 39]}, "palm_indices must name at least one vertex"),
        ({"vertex_count": 40, "palm_indices": [0, 1, 2],
          "fingertip_indices": []}, "exactly five fingertip indices"),
        ({"vertex_count": 40, "palm_indices": [0.9, 1, 2],
          "fingertip_indices": [35, 36, 37, 38, 39]}, "palm_indices must be an integer, got 0.9"),
        ({"vertex_count": "40", "palm_indices": [0, 1, 2],
          "fingertip_indices": [35, 36, 37, 38, 39]}, 'vertex_count must be an integer, got "40"'),
    ], ids=["not-json", "four-fingertips", "negative-index", "empty-palm", "empty-fingertips",
            "fractional-index", "string-count"])
    def test_bad_schema(self, tmp_path, mini_induction, capsys, schema, message):
        ds = mini_induction["ds"]
        inp = tmp_path / "in"
        inp.mkdir()
        with open(os.path.join(ds, "detections.jsonl")) as f:
            (inp / "detections.jsonl").write_text("".join(next(f) for _ in range(4)))
        path = inp / "hand_schema.json"
        path.write_text(schema if isinstance(schema, str) else json.dumps(schema))
        assert main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", str(inp), "--out", str(tmp_path / "out")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {path}: " in err
        assert message in err


class TestEvaluate:
    def test_report_files(self, tmp_path, mini_induction, capsys):
        out = tmp_path / "eval"
        assert main(["evaluate", "--pred", mini_induction["out"],
                     "--gt", mini_induction["ds"], "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["idf1"] <= 1.0
        with open(out / "report.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 2 and len(rows[0]) == len(rows[1])
        printed = capsys.readouterr().out
        assert "Binary Contact F1" in printed
        assert "Episode ID Acc." in printed

    def test_tracking_only_scene(self, tmp_path):
        # crossing-clean has no surfaces, so its ground truth holds no
        # episodes; recall is vacuously 1.0 and the tracking scores stand.
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(crossing_clean(frame_count=30)))
        ds, run, out = (str(tmp_path / d) for d in ("ds", "run", "eval"))
        assert main(["simulate", "--scene", str(scene), "--out", ds]) == EXIT_OK
        assert main(["run", "--calib", os.path.join(ds, "calibration.json"),
                     "--in", ds, "--out", run]) == EXIT_OK
        assert main(["evaluate", "--pred", run, "--gt", ds, "--out", out]) == EXIT_OK
        with open(os.path.join(out, "report.json")) as f:
            report = json.load(f)
        assert 0.0 < report["idf1"] <= 1.0
        assert (report["gt_episodes"], report["episode_recall"]) == (0, 1.0)

    def test_missing_pred_episodes(self, tmp_path, mini_induction):
        assert main(["evaluate", "--pred", str(tmp_path),
                     "--gt", mini_induction["ds"],
                     "--out", str(tmp_path / "eval")]) == EXIT_INPUT


def _first_line_edit(path, key, value):
    """Set one field of the first record of a JSON-lines file."""
    head, rest = path.read_text().split("\n", 1)
    rec = json.loads(head)
    rec[key] = value
    path.write_text(json.dumps(rec) + "\n" + rest)


class TestScoringBadInput:
    """Malformed evaluate and sweep inputs: exit 2, and a message naming
    the file and line."""

    def _copies(self, tmp_path, run):
        """Copies of the run's outputs and of the dataset's gt/ directory."""
        pred = tmp_path / "pred"
        pred.mkdir()
        for name in ("tracks.jsonl", "episodes.csv", "distance_traces.jsonl"):
            shutil.copy(os.path.join(run["out"], name), pred / name)
        gt = tmp_path / "gt"
        shutil.copytree(os.path.join(run["ds"], "gt"), gt)
        return pred, gt

    def _evaluate(self, tmp_path, pred, gt):
        return main(["evaluate", "--pred", str(pred), "--gt", str(gt),
                     "--out", str(tmp_path / "eval")])

    def test_valid_copies_score(self, tmp_path, mini_induction):
        pred, gt = self._copies(tmp_path, mini_induction)
        assert self._evaluate(tmp_path, pred, gt) == EXIT_OK
        assert main(["sweep", "--in", str(pred), "--gt", str(gt), "--grid", "0.1:0.1:0.1",
                     "--out", str(tmp_path / "s.csv")]) == EXIT_OK

    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_episodes_not_utf8(self, tmp_path, mini_induction, capsys, side):
        dirs = dict(zip(("pred", "gt"), self._copies(tmp_path, mini_induction)))
        path = dirs[side] / "episodes.csv"
        head, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(head + b"\n\xff" + rest)
        assert self._evaluate(tmp_path, dirs["pred"], dirs["gt"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {path}:2: " in err
        assert "can't decode byte 0xff in position" in err

    @pytest.mark.parametrize("side, name, key", [
        ("pred", "tracks.jsonl", "frame"),
        ("pred", "tracks.jsonl", "id"),
        ("gt", "tracks.jsonl", "id"),
        ("gt", "visibility.jsonl", "person_id"),
    ], ids=["pred-track-frame", "pred-track-id", "gt-track-id", "visibility-person"])
    def test_fraction_in_an_integer_field(self, tmp_path, mini_induction, capsys, side, name, key):
        dirs = dict(zip(("pred", "gt"), self._copies(tmp_path, mini_induction)))
        path = dirs[side] / name
        _first_line_edit(path, key, 0.5)
        assert self._evaluate(tmp_path, dirs["pred"], dirs["gt"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {path}:1: " in err
        assert f"{key} must be an integer, got 0.5" in err

    @pytest.mark.parametrize("key, value, message", [
        ("visible", "false", 'visible must be true or false, got "false"'),
        ("side", "middle", 'side must be left or right, got "middle"'),
    ], ids=["visible-string", "side-middle"])
    def test_bad_visibility_record(self, tmp_path, mini_induction, capsys, key, value, message):
        pred, gt = self._copies(tmp_path, mini_induction)
        path = gt / "visibility.jsonl"
        _first_line_edit(path, key, value)
        assert self._evaluate(tmp_path, pred, gt) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {path}:1: " in err
        assert message in err

    @pytest.mark.parametrize("side, column, value, message", [
        ("pred", "side", "up", "side must be left or right, got 'up'"),
        ("gt", "t_start", "100000", "t_start 100000 is after t_stop"),
        # write_episodes writes finite numbers only, so nan and inf are no
        # number at all; 1e+400 is written as a float is, and reads as inf.
        ("pred", "py", "nan", "py must be a number, got 'nan'"),
        ("gt", "min_distance_m", "-5", "min_distance_m must be finite and >= 0, got -5.0"),
        ("pred", "min_distance_m", "inf", "min_distance_m must be a number, got 'inf'"),
        ("pred", "pz", "1e+400", "contact point holds a non-finite value"),
        ("gt", "min_distance_m", "1e+400", "min_distance_m must be finite and >= 0, got inf"),
    ], ids=["side", "start-after-stop", "point-nan", "distance-negative", "distance-inf",
            "point-beyond-range", "distance-beyond-range"])
    def test_bad_episode_row(self, tmp_path, mini_induction, capsys, side, column, value, message):
        dirs = dict(zip(("pred", "gt"), self._copies(tmp_path, mini_induction)))
        path = dirs[side] / "episodes.csv"
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) > 1
        rows[1][rows[0].index(column)] = value
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        assert self._evaluate(tmp_path, dirs["pred"], dirs["gt"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {path}:2: bad episode row: {message}" in err

    @pytest.mark.parametrize("side, edit, message", [
        ("pred", lambda rec: rec.__setitem__("E", float("nan")), "E must be finite, got nan"),
        ("gt", lambda rec: rec["joints"][3].__setitem__(1, float("inf")),
         "joints must be finite, got inf"),
    ], ids=["pred-E-nan", "gt-joint-inf"])
    def test_non_finite_track(self, tmp_path, mini_induction, capsys, side, edit, message):
        dirs = dict(zip(("pred", "gt"), self._copies(tmp_path, mini_induction)))
        path = dirs[side] / "tracks.jsonl"
        head, rest = path.read_text().split("\n", 1)
        rec = json.loads(head)
        edit(rec)
        path.write_text(json.dumps(rec) + "\n" + rest)
        assert self._evaluate(tmp_path, dirs["pred"], dirs["gt"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {path}:1: bad track record: {message}" in err

    def test_fraction_in_a_trace(self, tmp_path, mini_induction, capsys):
        pred, gt = self._copies(tmp_path, mini_induction)
        path = pred / "distance_traces.jsonl"
        _first_line_edit(path, "hand", 1.5)
        assert main(["sweep", "--in", str(pred), "--gt", str(gt), "--grid", "0.1:0.1:0.1",
                     "--out", str(tmp_path / "s.csv")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {path}:1: " in err
        assert "hand must be an integer, got 1.5" in err


class TestSweep:
    # An infinite lo or hi never leaves the grid loop where it is not
    # rejected; a NaN one gives an empty grid. A lo <= 0 would sweep
    # tau_on values at which no contact can start. The last three hold
    # more than MAX_GRID_POINTS: 10**12 and 10**20 points, and a step so
    # far below 1e12's float spacing that tau never moves.
    @pytest.mark.parametrize("grid", [
        "0.4:0.1:0.1", "nan:0.1:0.01", "0.01:nan:0.01", "0.01:0.1:nan",
        "0.01:inf:0.01", "-inf:0.1:0.01", "0.01:0.1:inf", "0:0.1:0.02", "-0.1:0.1:0.05",
        "1:1e12:1", "1:2:1e-20", "1e12:1e12:1e-5",
    ], ids=["hi-below-lo", "nan-lo", "nan-hi", "nan-step", "inf-hi", "minus-inf-lo", "inf-step",
            "zero-lo", "negative-lo", "too-many-points", "step-far-too-small",
            "step-below-resolution"])
    def test_bad_grid(self, tmp_path, mini_induction, grid, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--in", mini_induction["out"], "--gt", mini_induction["ds"],
                     f"--grid={grid}", "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert repr(grid) in capsys.readouterr().err

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
        report = json.loads((ev / "report.json").read_text())
        out = tmp_path / "s.csv"
        assert main(["sweep", "--in", mini_induction["out"],
                     "--gt", mini_induction["ds"], "--grid", "0.12:0.12:0.01",
                     "--out", str(out)]) == EXIT_OK
        with open(out) as f:
            (row,) = list(csv.DictReader(f))
        assert abs(float(row["binary_f1"]) - report["binary_f1"]) < 1e-6


def _tree_bytes(root):
    """{relative path: bytes} of every file under the directory root."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestHashInputsAnyInteger:
    """Seeds, scene person ids and detection frames may be any JSON
    integer: each is reduced modulo 2**64 where it enters a hash, so runs
    exit 0 and repeat byte for byte."""

    def _twice(self, tmp_path, args):
        trees = []
        for name in ("a", "b"):
            assert main([*args, "--out", str(tmp_path / name)]) == EXIT_OK
            trees.append(_tree_bytes(tmp_path / name))
        assert trees[0] and trees[1] == trees[0]

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_simulate_seed(self, tmp_path, seed):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(induction_lite_noisy(frame_count=3)))
        self._twice(tmp_path, ["simulate", "--scene", str(scene_path), "--seed", seed])

    def test_scene_person_id_negative(self, tmp_path):
        scene = induction_lite_noisy(frame_count=3)
        scene["persons"][0]["id"] = -2
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        self._twice(tmp_path, ["simulate", "--scene", str(scene_path)])

    def _run_noisy(self, tmp_path, edit_record=lambda rec: None, edit_scene=lambda data: None):
        """Run twice over a short noisy recording, whose scene.json makes
        every frame hash depth noise, with its records and scene edited."""
        ds = tmp_path / "ds"
        scene_path = tmp_path / "noisy.json"
        scene_path.write_text(json.dumps(induction_lite_noisy(frame_count=4)))
        assert main(["simulate", "--scene", str(scene_path), "--out", str(ds)]) == EXIT_OK
        inp = tmp_path / "in"
        inp.mkdir()
        for name in ("hand_schema.json", "label_table.txt"):
            shutil.copy(ds / name, inp / name)
        with open(ds / "detections.jsonl") as f:
            recs = [json.loads(line) for line in f]
        for rec in recs:
            edit_record(rec)
        (inp / "detections.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs))
        data = json.loads((ds / "scene.json").read_text())
        edit_scene(data)
        (inp / "scene.json").write_text(json.dumps(data))
        self._twice(tmp_path, ["run", "--calib", str(ds / "calibration.json"), "--in", str(inp)])

    @pytest.mark.parametrize("frame, new_frame", [(0, -5), (3, 10**30)],
                             ids=["first-frame-negative", "last-frame-above-2-64"])
    def test_detection_frame(self, tmp_path, frame, new_frame):
        def edit(rec):
            if rec["frame"] == frame:
                rec["frame"] = new_frame

        self._run_noisy(tmp_path, edit_record=edit)

    def test_scene_file_seed_negative(self, tmp_path):
        self._run_noisy(tmp_path, edit_scene=lambda data: data.__setitem__("seed", -3))


class TestWithoutScipy:
    """Every command runs in a process where scipy cannot be imported."""

    CHILD = textwrap.dedent("""
        import json, os, sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        from contacttrack.cli import main
        from contacttrack.scenes import induction_lite

        root = sys.argv[1]
        scene = os.path.join(root, "scene.json")
        with open(scene, "w") as f:
            json.dump(induction_lite(frame_count=120), f)
        ds, run, static = (os.path.join(root, d) for d in ("ds", "run", "static"))
        codes = [
            main(["simulate", "--scene", scene, "--out", ds, "--seed", "0"]),
            main(["run", "--calib", os.path.join(ds, "calibration.json"), "--in", ds,
                  "--out", run]),
            main(["run", "--calib", os.path.join(ds, "calibration.json"), "--in", ds,
                  "--out", static, "--static-map"]),
            main(["evaluate", "--pred", static, "--gt", ds,
                  "--out", os.path.join(root, "eval")]),
            main(["sweep", "--in", run, "--gt", ds, "--grid", "0.02:0.20:0.02",
                  "--out", os.path.join(root, "sweep.csv")]),
        ]
        print(json.dumps(codes))
    """)

    def test_all_commands(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        child = subprocess.run([sys.executable, "-c", self.CHILD, str(tmp_path)],
                               env=env, capture_output=True, text=True, timeout=600)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout.splitlines()[-1]) == [EXIT_OK] * 5, child.stderr


class TestRunStartup:
    """`run` loads only the numpy modules it uses: numpy.ma and
    numpy.random each cost about 20 ms of CPU to import, a fixed cost of
    every run process."""

    CHILD = textwrap.dedent("""
        import json, os, sys
        from contacttrack import person_tracker, simulator
        from contacttrack.cli import main

        calls = {}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            setattr(owner, name, wrapper)

        # The steps that once loaded them: depth patches (the simulator's
        # hand blobs) and the tracker's groupings (np.unique).
        counted(simulator.SceneDepthProvider, "patch")
        for name in ("_masked_mean", "update_triangulated", "_birth_pairs"):
            counted(person_tracker, name)
        ds, out = sys.argv[1], sys.argv[2]
        code = main(["run", "--calib", os.path.join(ds, "calibration.json"), "--in", ds,
                     "--out", out])
        print(json.dumps({"code": code, "calls": calls,
                          "loaded": sorted(m for m in ("numpy.ma", "numpy.random")
                                           if m in sys.modules)}))
    """)

    def test_run_loads_neither_numpy_ma_nor_numpy_random(self, tmp_path):
        from contacttrack.simulator import emit_dataset

        ds = str(tmp_path / "ds")
        emit_dataset(induction_lite_noisy(frame_count=8), ds, seed=0)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        child = subprocess.run([sys.executable, "-c", self.CHILD, ds, str(tmp_path / "out")],
                               env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        result = json.loads(child.stdout.splitlines()[-1])
        assert result["code"] == EXIT_OK
        assert set(result["calls"]) == {"patch", "_masked_mean", "update_triangulated",
                                        "_birth_pairs"}
        assert result["loaded"] == []
