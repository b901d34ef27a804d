import json
import os
import shutil
import sys

import numpy as np
import pytest

from contacttrack import pipeline, simulator
from contacttrack.config import PipelineConfig
from contacttrack.errors import InputFormatError
from contacttrack.geometry import project_many
from contacttrack.io import read_episodes, write_calibration, write_depth_grid
from contacttrack.pipeline import (
    load_ground_truth,
    load_track_stream,
    run_pipeline,
)
from contacttrack.person_tracker import PersonTrack, Tracker
from contacttrack.scenes import crossing_clean, induction_lite
from contacttrack.schema import TEMPLATE_JOINTS
from contacttrack.semantic_map import write_label_grid
from contacttrack.simulator import SceneDepthProvider, Simulator, emit_dataset

from helpers import make_camera, make_ring


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


class TestOutputs:
    def test_emits_all_artifacts(self, mini_induction):
        out = mini_induction["out"]
        for name in ("tracks.jsonl", "hand_tracks.jsonl", "episodes.csv",
                     "distance_traces.jsonl", "run_meta.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "run_meta.json")) as f:
            meta = json.load(f)
        assert meta["frames"] == 160
        assert meta["missing_frames"] == 0

    def test_tracks_cover_all_persons(self, mini_induction):
        pred = load_track_stream(os.path.join(mini_induction["out"], "tracks.jsonl"))
        ids = {tid for fr in pred.values() for tid in fr}
        assert len(ids) == 3

    def test_episodes_detected(self, mini_induction):
        eps = read_episodes(os.path.join(mini_induction["out"], "episodes.csv"))
        gt = load_ground_truth(mini_induction["ds"])
        assert len(eps) == len(gt.episodes) > 0


class TestInputHandling:
    def test_missing_detections(self, tmp_path):
        calib = tmp_path / "calibration.json"
        write_calibration(calib, {"a": make_camera("a", [0, 0, 2.5], [1, 1, 1])})
        with pytest.raises(InputFormatError, match="detections"):
            run_pipeline(str(calib), str(tmp_path), str(tmp_path / "out"))

    def test_empty_detections_give_empty_outputs(self, tmp_path):
        calib = tmp_path / "calibration.json"
        write_calibration(calib, {"a": make_camera("a", [0, 0, 2.5], [1, 1, 1])})
        (tmp_path / "detections.jsonl").write_text("")
        out = tmp_path / "out"
        summary = run_pipeline(str(calib), str(tmp_path), str(out))
        assert summary["frames"] == 0
        assert summary["episodes"] == 0
        assert read_episodes(out / "episodes.csv") == []
        assert (out / "tracks.jsonl").read_text() == ""

    def test_out_of_order_frames_rejected(self, tmp_path, mini_induction):
        ds = mini_induction["ds"]
        lines = open(os.path.join(ds, "detections.jsonl")).readlines()
        (tmp_path / "detections.jsonl").write_text("".join(lines[40:44] + lines[:4]))
        shutil.copy(os.path.join(ds, "hand_schema.json"), tmp_path / "hand_schema.json")
        with pytest.raises(InputFormatError, match="frame-ordered"):
            run_pipeline(os.path.join(ds, "calibration.json"),
                         str(tmp_path), str(tmp_path / "out"))

    def test_missing_frames_counted(self, tmp_path, mini_induction):
        ds = mini_induction["ds"]
        kept = []
        for line in open(os.path.join(ds, "detections.jsonl")):
            frame = json.loads(line)["frame"]
            if not 20 <= frame < 25:
                kept.append(line)
        (tmp_path / "detections.jsonl").write_text("".join(kept))
        schema = open(os.path.join(ds, "hand_schema.json")).read()
        (tmp_path / "hand_schema.json").write_text(schema)
        summary = run_pipeline(
            os.path.join(ds, "calibration.json"), str(tmp_path),
            str(tmp_path / "out"), PipelineConfig(static_map=True),
        )
        assert summary["missing_frames"] == 5


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path, mini_induction):
        ds = mini_induction["ds"]
        out2 = tmp_path / "rerun"
        run_pipeline(os.path.join(ds, "calibration.json"), ds, str(out2),
                     PipelineConfig(static_map=True))
        assert tree_bytes(mini_induction["out"]) == tree_bytes(str(out2))

    def test_static_map_matches_per_frame_map(self, tmp_path, mini_induction):
        # The simulated surfaces never move, so building the map once must
        # give the same episodes as rebuilding it per frame.
        ds = mini_induction["ds"]
        out2 = tmp_path / "perframe"
        run_pipeline(os.path.join(ds, "calibration.json"), ds, str(out2),
                     PipelineConfig(static_map=False))
        a = read_episodes(os.path.join(mini_induction["out"], "episodes.csv"))
        b = read_episodes(out2 / "episodes.csv")
        assert [vars(e).keys() for e in a] == [vars(e).keys() for e in b]
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert (ea.person_id, ea.side, ea.surface_label, ea.t_start, ea.t_stop) \
                == (eb.person_id, eb.side, eb.surface_label, eb.t_start, eb.t_stop)


@pytest.fixture(scope="module")
def grid_dataset(tmp_path_factory):
    """A 10-frame induction-lite dataset twice: as simulated (scene.json),
    and with its map input exported to grids/ and scene.json removed."""
    root = tmp_path_factory.mktemp("grid_dataset")
    scene_ds = root / "scene"
    sim = emit_dataset(induction_lite(frame_count=10), str(scene_ds), seed=0)
    grid_ds = root / "grids"
    shutil.copytree(scene_ds, grid_ds)
    (grid_ds / "scene.json").unlink()
    (grid_ds / "grids").mkdir()
    provider = SceneDepthProvider(sim)
    for frame in range(10):
        for cam_id in sim.cals:
            labels, depth = provider.grids(frame, cam_id, stride=4)
            base = grid_ds / "grids" / f"frame_{frame:06d}_{cam_id}"
            write_label_grid(f"{base}.lbl", labels)
            write_depth_grid(f"{base}.dep", depth)
    return str(scene_ds), str(grid_ds)


class TestGridsInput:
    @pytest.mark.parametrize("static_map", [False, True], ids=["per-frame", "static"])
    def test_matches_scene_input(self, tmp_path, grid_dataset, static_map):
        outs = []
        for ds in grid_dataset:
            out = tmp_path / os.path.basename(ds)
            run_pipeline(os.path.join(ds, "calibration.json"), ds, str(out),
                         PipelineConfig(static_map=static_map))
            outs.append(tree_bytes(str(out)))
        assert sorted(outs[0]) == ["distance_traces.jsonl", "episodes.csv",
                                   "hand_tracks.jsonl", "run_meta.json", "tracks.jsonl"]
        assert outs[0]["distance_traces.jsonl"]  # the map was built and queried
        assert outs[0] == outs[1]


class TestStitchRewrite:
    def test_streams_remapped_in_place(self, tmp_path, mini_induction):
        out = tmp_path / "run"
        shutil.copytree(mini_induction["out"], out)
        before = tree_bytes(str(out))
        pipeline._rewrite_ids(str(out), {1: 7})
        after = tree_bytes(str(out))
        assert sorted(after) == sorted(before)  # no temporary file left behind
        tracks = load_track_stream(os.path.join(out, "tracks.jsonl"))
        ids = {tid for fr in tracks.values() for tid in fr}
        assert 7 in ids and 1 not in ids
        for name in ("hand_tracks.jsonl", "distance_traces.jsonl"):
            want = before[name].replace(b'"person_id":1,', b'"person_id":7,') \
                .replace(b'"person":1,', b'"person":7,')
            assert want != before[name]
            assert after[name] == want


class TestBenchmarkHooks:
    @pytest.fixture
    def tracer(self, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        monkeypatch.delitem(sys.modules, "tracer", raising=False)
        import tracer
        return tracer

    def test_tracer_patch_targets_exist(self, tracer):
        # The benchmark's tracer patches pipeline and class attributes by
        # name; a rename in src/ must fail here, not at benchmark time.
        original = pipeline.write_traces
        with tracer.patched(tracer.instrument(tracer.Tracer())):
            assert pipeline.write_traces is not original
        assert pipeline.write_traces is original

    def test_tracer_sees_the_triangulation_kernel(self, tracer):
        # The tracer times the kernel and the epipolar test under the names
        # person_tracker calls them by; calling them under other names
        # would leave their per-layer figures at 0.
        cams = {c.camera_id: c for c in make_ring(3, radius=4.0, height=1.8)}
        joints = TEMPLATE_JOINTS.copy()
        dets = {}
        for cam_id, cal in cams.items():
            uv, _ = project_many(joints, cal)
            dets[cam_id] = np.c_[uv, np.full(len(uv), 0.95)][None]
        tracker = Tracker(cams)
        tracker.tracks.append(PersonTrack(
            id=1, joints=joints + 0.01, available=np.ones(len(joints), dtype=bool),
            existence=0.9, last_update_frame=0, confirmed=True,
        ))
        t = tracer.Tracer()
        with tracer.patched(tracer.instrument(t)):
            tracker.step(1, dets)
        assert t.calls("geometry.triangulate_weighted") >= 1
        assert t.calls("geometry.epipolar_distance") >= 1
        assert t.counts["geometry.triangulate_weighted.from_update"] >= 1

    def test_tracer_sees_one_sighting_cast_per_camera_and_person(self, tracer, tmp_path):
        # The simulator casts one ray bundle per (frame, camera, present
        # person), shared by the detections and the visibility ground truth.
        scene = crossing_clean(frame_count=3)
        scene["persons"][2]["absent"] = [[1, 1]]
        t = tracer.Tracer()
        with tracer.patched(tracer.instrument(t)):
            emit_dataset(scene, str(tmp_path), seed=0)
        bundles = (3 + 2 + 3) * len(scene["cameras"])  # present persons x cameras
        assert t.calls("primitives.cast_rays.render") == bundles
        assert t.counts["primitives.cast_rays.render.rays"] == bundles * len(TEMPLATE_JOINTS)
        assert t.calls("simulator.gt_visibility") >= 1
        assert t.calls("simulator.gt_episodes") == 1

    def test_depth_patches_of_a_frame_build_its_capsules_once(self, tracer, monkeypatch):
        # Each present person's capsule stack is built once per frame and
        # shared by every patch; the tracer's cast counts stay one call and
        # one ray per patch pixel.
        built = []
        body_capsules = simulator.body_capsules
        monkeypatch.setattr(simulator, "body_capsules",
                            lambda joints: built.append(body_capsules(joints)) or built[-1])
        provider = SceneDepthProvider(Simulator(crossing_clean(frame_count=2)))
        t = tracer.Tracer()
        with tracer.patched(tracer.instrument(t)):
            for u in range(100, 400, 25):
                provider.patch(1, "cam0", u, 240, 5)
        assert sum(len(caps) for caps in built) == 3 * 10  # three persons, ten capsules each
        assert t.calls("primitives.cast_rays.depth") == 12
        assert t.counts["primitives.cast_rays.depth.rays"] == 12 * 25


class TestGroundTruthLoader:
    def test_descends_into_gt_subdir(self, mini_induction):
        gt = load_ground_truth(mini_induction["ds"])
        assert gt.episodes and gt.tracks

    def test_missing_episodes_rejected(self, tmp_path):
        with pytest.raises(InputFormatError, match="episodes"):
            load_ground_truth(str(tmp_path))
