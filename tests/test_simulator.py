import copy
import json
import os
from collections import Counter

import numpy as np
import pytest

from contacttrack.geometry import project
from contacttrack.io import read_visibility
from contacttrack.primitives import Box
from contacttrack.schema import JOINT_COUNT, JointSchema, TEMPLATE_JOINTS
from contacttrack import simulator
from contacttrack.scenes import builtin_scene, crossing_clean, crossing_noisy, induction_lite
from contacttrack.simulator import (
    SceneDepthProvider,
    Simulator,
    emit_dataset,
    place_template,
    two_bone_reach,
)

from helpers import reference_cast_rays

SCHEMA = JointSchema()


def tiny_scene(frame_count=10, **noise):
    scene = crossing_clean(frame_count)
    scene["persons"] = scene["persons"][:1]
    scene["noise"] = dict(noise)
    return scene


class TestReach:
    L1 = SCHEMA.bone_length(5, 7)
    L2 = SCHEMA.bone_length(7, 9)

    def test_idle_pose_is_template(self):
        joints = place_template((2.0, 3.0), 0.0)
        assert np.allclose(joints[:, :2] - TEMPLATE_JOINTS[:, :2], (2.0, 3.0))
        assert np.allclose(joints[:, 2], TEMPLATE_JOINTS[:, 2])

    def test_full_extension_collinear(self):
        s = np.array([0.0, 0.0, 1.45])
        target = s + np.array([self.L1 + self.L2, 0.0, 0.0])
        elbow, wrist, clamped = two_bone_reach(s, target, self.L1, self.L2, (0, 1, 0))
        assert not clamped
        assert np.allclose(wrist, target, atol=1e-9)
        cross = np.cross(elbow - s, wrist - s)
        assert np.linalg.norm(cross) < 1e-6

    def test_bone_lengths_preserved(self):
        rng = np.random.default_rng(3)
        s = np.array([0.0, 0.0, 1.45])
        for _ in range(50):
            target = s + rng.normal(0, 0.3, size=3)
            elbow, wrist, _ = two_bone_reach(s, target, self.L1, self.L2, (0, 1, 0))
            assert np.linalg.norm(elbow - s) == pytest.approx(self.L1, abs=1e-9)
            assert np.linalg.norm(wrist - elbow) == pytest.approx(self.L2, abs=1e-9)

    def test_beyond_reach_clamped(self):
        s = np.zeros(3)
        elbow, wrist, clamped = two_bone_reach(
            s, np.array([2.0, 0.0, 0.0]), self.L1, self.L2, (0, 1, 0)
        )
        assert clamped
        assert np.linalg.norm(wrist) == pytest.approx(self.L1 + self.L2)

    def test_scripted_touch_reaches_target(self):
        scene = induction_lite()
        sim = Simulator(scene, seed=0)
        p = sim.scene["persons"][0]
        ev = p.events["right"][0]
        for frame in range(ev.start + ev.approach, ev.start + ev.approach + ev.dwell):
            joints, clamped = sim.skeleton(p, frame)
            wrist = joints[SCHEMA.side_joints["right"]["wrist"]]
            assert not clamped.get("right", False)
            assert np.linalg.norm(wrist - ev.target) < 0.01


class TestRendering:
    def test_noiseless_exact_projection(self):
        sim = Simulator(tiny_scene(), seed=0)
        state = sim.frame_state(0)
        for frame, cam_id, persons, hands in sim.render_frame(0):
            cal = sim.cals[cam_id]
            assert len(persons) == 1
            joints = state[1][0]
            for k in range(JOINT_COUNT):
                u, v, s = persons[0][k]
                if s <= 0:
                    continue
                assert np.allclose((u, v), project(joints[k], cal), atol=1e-9)

    def test_all_joints_confident_without_occluders(self):
        sim = Simulator(tiny_scene(), seed=0)
        recs = {cam: persons for _, cam, persons, _ in sim.render_frame(0)}
        for persons in recs.values():
            scores = persons[0][:, 2]
            assert np.all((scores == 0.0) | (np.abs(scores - 0.95) < 1e-9))
        # The far camera has the whole body in frame.
        assert np.all(recs["cam2"][0][:, 2] == pytest.approx(0.95))

    def test_box_occluder_hides_joints(self):
        scene = tiny_scene()
        # A wall between cam0 (corner near origin) and the person at (1, 1).
        scene["surfaces"] = [
            {"type": "box", "label": 1, "name": "wall",
             "min": [0.55, 0.0, 0.0], "max": [0.75, 7.0, 2.5]},
        ]
        sim = Simulator(scene, seed=0)
        recs = {cam: persons for _, cam, persons, _ in sim.render_frame(0)}
        assert len(recs["cam0"]) == 0 or not recs["cam0"]
        # Far corner camera still sees the person.
        assert len(recs["cam2"]) == 1

    def test_hands_follow_wrists(self):
        sim = Simulator(tiny_scene(), seed=0)
        state = sim.frame_state(0)
        joints = state[1][0]
        for _, cam_id, _, hands in sim.render_frame(0):
            cal = sim.cals[cam_id]
            for h in hands:
                wrist = joints[SCHEMA.side_joints[h.side]["wrist"]]
                palm = cal.camera_to_world(h.vertices[:8].mean(axis=0))
                assert np.linalg.norm(palm - wrist) < 1e-9

    def test_pixel_noise_statistics(self):
        sim = Simulator(tiny_scene(frame_count=10, pixel_sigma=2.0), seed=0)
        clean = Simulator(tiny_scene(frame_count=10), seed=0)
        diffs = []
        for f in range(10):
            noisy_recs = sim.render_frame(f)
            clean_recs = clean.render_frame(f)
            for (_, _, pn, _), (_, _, pc, _) in zip(noisy_recs, clean_recs):
                diffs.extend((pn[0][:, :2] - pc[0][:, :2]).ravel())
        sd = np.std(diffs)
        assert 1.5 < sd < 2.5

    def test_dropout_removes_whole_person(self):
        sim = Simulator(tiny_scene(frame_count=50, dropout=0.5), seed=1)
        seen = sum(
            len(persons) for f in range(50) for _, _, persons, _ in sim.render_frame(f)
        )
        assert 40 < seen < 160  # ~100 expected at 50% of 200 camera-frames


class TestDepthProvider:
    def test_patch_on_box_face(self):
        scene = tiny_scene()
        scene["persons"] = []
        scene["surfaces"] = [
            {"type": "box", "label": 1, "name": "slab",
             "min": [-10.0, -10.0, -10.0], "max": [10.0, 10.0, 0.0]},
        ]
        sim = Simulator(scene, seed=0)
        # Replace cameras by one synthetic camera looking straight down the
        # world z axis is awkward here; instead query the floor through cam0.
        provider = SceneDepthProvider(sim)
        cal = sim.cals["cam0"]
        patch = provider.patch(0, "cam0", int(cal.cx), int(cal.cy), 5)
        assert patch.shape == (5, 5)
        assert np.all(patch > 0)

    def test_patch_depth_matches_geometry(self):
        scene = tiny_scene()
        scene["persons"] = []
        scene["surfaces"] = [
            {"type": "sphere", "label": 1, "name": "ball",
             "center": list((3.5, 3.5, 1.1)), "radius": 0.5},
        ]
        sim = Simulator(scene, seed=0)
        provider = SceneDepthProvider(sim)
        cal = sim.cals["cam0"]
        u, v = project(np.array([3.5, 3.5, 1.1]), cal)
        patch = provider.patch(0, "cam0", int(round(u)), int(round(v)), 1)
        center_depth = cal.world_to_camera(np.array([3.5, 3.5, 1.1]))[2]
        assert patch[0, 0] == pytest.approx(center_depth - 0.5, abs=2e-3)

    def test_order_free_determinism(self):
        scene = tiny_scene(depth_sigma=0.01)
        sim = Simulator(scene, seed=3)
        p1 = SceneDepthProvider(sim).patch(2, "cam1", 320, 240, 5)
        other = SceneDepthProvider(sim)
        other.patch(5, "cam0", 100, 100, 3)
        p2 = other.patch(2, "cam1", 320, 240, 5)
        assert np.array_equal(p1, p2)

    def test_grids_consistent_with_backprojection(self):
        from contacttrack.semantic_map import backproject_labeled

        scene = tiny_scene()
        scene["persons"] = []
        scene["surfaces"] = [
            {"type": "box", "label": 2, "name": "desk",
             "min": [3.0, 3.0, 0.0], "max": [4.0, 4.0, 1.0]},
        ]
        sim = Simulator(scene, seed=0)
        provider = SceneDepthProvider(sim)
        labels, depths = provider.grids(0, "cam0", stride=4)
        cloud = backproject_labeled(labels, depths, sim.cals["cam0"], stride=4)
        assert len(cloud.positions) > 50
        box = Box([3.0, 3.0, 0.0], [4.0, 4.0, 1.0])
        for p in cloud.positions[::10]:
            assert box.distance(p) < 0.01


class TestGroundTruth:
    def test_induction_scene_has_twelve_episodes(self):
        sim = Simulator(induction_lite(), seed=0)
        eps = sim.gt_episodes()
        assert len(eps) == 12
        labels = {e.surface_label for e in eps}
        assert labels == {1, 2, 3, 4, 5}

    def test_visibility_flags_wrists_seen_by_fewer_than_two_cameras(self, tmp_path):
        # A box around the person's right wrist hides it from at least
        # three cameras; the other wrist stays in view.
        scene = tiny_scene(frame_count=3)
        wk = {side: SCHEMA.side_joints[side]["wrist"] for side in ("left", "right")}
        wrist = Simulator(scene).frame_state(0)[1][0][wk["right"]]
        scene["surfaces"] = [
            {"type": "box", "label": 1, "name": "sleeve",
             "min": list(wrist - 0.12), "max": list(wrist + 0.12)},
        ]
        sim = emit_dataset(scene, str(tmp_path), seed=0)
        expected = set()
        for frame in range(3):
            seen = Counter()
            for _, _, persons, _ in sim.render_frame(frame):
                for det in persons:  # one person, id 1
                    seen.update(side for side, k in wk.items() if det[k, 2] > 0)
            assert seen["right"] <= 1
            expected |= {(frame, 1, side) for side in wk if seen[side] < 2}
        flagged = {
            (frame, pid, side)
            for frame, pid, side, visible in read_visibility(tmp_path / "gt" / "visibility.jsonl")
            if not visible
        }
        assert flagged == expected
        assert flagged

    def test_every_surface_of_a_label_counts(self):
        # A far copy of the bed shares its label; the bed still scores
        # its touches (one of the three episodes in these frames).
        scene = induction_lite(frame_count=160)
        base = Simulator(scene).gt_episodes()
        bed = copy.deepcopy(next(s for s in scene["surfaces"] if s["label"] == 1))
        bed["min"][2] += 5.0
        bed["max"][2] += 5.0
        scene["surfaces"] = scene["surfaces"] + [bed]
        dup = Simulator(scene).gt_episodes()

        def rows(eps):
            return [(e.person_id, e.side, e.surface_label, e.t_start, e.t_stop,
                     e.min_distance, e.contact_point.tolist()) for e in eps]

        assert 1 in {e.surface_label for e in base} and len(base) == 3
        assert rows(dup) == rows(base)

    def test_absent_person_missing_from_tracks(self):
        scene = tiny_scene(frame_count=10)
        scene["persons"][0]["absent"] = [[3, 6]]
        sim = Simulator(scene, seed=0)
        frames = {f for f, pid, _ in sim.gt_tracks()}
        assert frames == {0, 1, 2, 7, 8, 9}


class TestEmission:
    def test_same_seed_byte_identical(self, tmp_path):
        scene = tiny_scene(frame_count=5, pixel_sigma=1.0, depth_sigma=0.01)
        a = tmp_path / "a"
        b = tmp_path / "b"
        emit_dataset(scene, str(a), seed=7)
        emit_dataset(scene, str(b), seed=7)
        for name in ("calibration.json", "detections.jsonl", "label_table.txt",
                     "gt/tracks.jsonl", "gt/episodes.csv", "gt/visibility.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        scene = tiny_scene(frame_count=5, pixel_sigma=1.0)
        a = tmp_path / "a"
        b = tmp_path / "b"
        emit_dataset(scene, str(a), seed=1)
        emit_dataset(scene, str(b), seed=2)
        assert (a / "detections.jsonl").read_bytes() != (b / "detections.jsonl").read_bytes()

    def test_zero_frames_valid_empty(self, tmp_path):
        scene = tiny_scene(frame_count=0)
        emit_dataset(scene, str(tmp_path / "e"), seed=0)
        assert (tmp_path / "e" / "detections.jsonl").read_text() == ""
        assert (tmp_path / "e" / "gt" / "tracks.jsonl").read_text() == ""

    def test_builtin_scene_lookup(self):
        assert builtin_scene("crossing-clean")["frame_count"] == 600
        with pytest.raises(KeyError):
            builtin_scene("nope")


class TestStackedKernel:
    @staticmethod
    def crowd(frames):
        """The induction persons and surfaces plus the three crossing
        persons, with depth noise: six bodies, five surface labels."""
        scene = induction_lite(frame_count=frames)
        for p in crossing_noisy(frames)["persons"]:
            scene["persons"].append(dict(p, id=p["id"] + 10))
        scene["noise"] = {"pixel_sigma": 1.0, "dropout": 0.1, "depth_sigma": 0.01}
        return scene

    def outputs(self, out_dir):
        """Every dataset file's bytes and the depth patches at every seen
        joint pixel."""
        sim = emit_dataset(self.crowd(2), str(out_dir), seed=3)
        files = {str(path.relative_to(out_dir)): path.read_bytes()
                 for path in out_dir.rglob("*") if path.is_file()}
        provider = SceneDepthProvider(sim)
        patches = []
        for frame in range(2):
            for (cam_id, _), (uv, _, seen) in sorted(sim.sightings(frame).items()):
                for u, v in np.round(uv[seen]).astype(int):
                    patches.append(provider.patch(frame, cam_id, u, v, 5).tobytes())
        return files, patches

    def test_matches_reference_kernel_byte_for_byte(self, tmp_path, monkeypatch):
        files, patches = self.outputs(tmp_path / "stacked")
        monkeypatch.setattr(simulator, "cast_rays", reference_cast_rays)
        ref_files, ref_patches = self.outputs(tmp_path / "reference")
        assert len(files) == 9 and len(patches) > 200
        assert files == ref_files
        assert patches == ref_patches
