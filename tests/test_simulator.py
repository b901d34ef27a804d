import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contacttrack.config import ContactConfig
from contacttrack.contact import ContactTracker, run_hysteresis
from contacttrack.io import read_tracks, read_visibility
from contacttrack.primitives import Box, Rect, Sphere
from contacttrack.schema import BONE_LENGTH, JOINT_COUNT, SIDE_JOINTS, TEMPLATE_JOINTS
from contacttrack import simulator
from contacttrack.semantic_map import backproject_labeled
from contacttrack.scenes import (
    builtin_scene,
    crossing_clean,
    crossing_noisy,
    induction_lite,
    induction_lite_noisy,
)
from contacttrack.simulator import (
    SceneDepthProvider,
    Simulator,
    SurfaceDistances,
    emit_dataset,
    place_template,
    two_bone_reach,
)

from helpers import (
    camera_patch,
    crowd_crossing,
    per_camera_sightings,
    per_person_sightings,
    per_point_nearest_per_label,
    project,
    cells_lattice,
    per_camera_clouds,
    reference_cast_rays,
    reference_measured,
    scene_grids,
    scene_patch,
    tree_bytes,
    window,
)


def tiny_scene(frame_count=10, **noise):
    scene = crossing_clean(frame_count)
    scene["persons"] = scene["persons"][:1]
    scene["noise"] = dict(noise)
    return scene


class TestReach:
    L1 = BONE_LENGTH[5, 7]
    L2 = BONE_LENGTH[7, 9]

    def test_idle_pose_is_template(self):
        joints = place_template((2.0, 3.0), 0.0)
        assert np.allclose(joints[:, :2] - TEMPLATE_JOINTS[:, :2], (2.0, 3.0))
        assert np.allclose(joints[:, 2], TEMPLATE_JOINTS[:, 2])

    def test_full_extension_collinear(self):
        s = np.array([0.0, 0.0, 1.45])
        target = s + np.array([self.L1 + self.L2, 0.0, 0.0])
        elbow, wrist = two_bone_reach(s, target, self.L1, self.L2, (0, 1, 0))
        assert np.allclose(wrist, target, atol=1e-9)
        cross = np.cross(elbow - s, wrist - s)
        assert np.linalg.norm(cross) < 1e-6

    def test_bone_lengths_preserved(self):
        rng = np.random.default_rng(3)
        s = np.array([0.0, 0.0, 1.45])
        for _ in range(50):
            target = s + rng.normal(0, 0.3, size=3)
            elbow, wrist = two_bone_reach(s, target, self.L1, self.L2, (0, 1, 0))
            assert np.linalg.norm(elbow - s) == pytest.approx(self.L1, abs=1e-9)
            assert np.linalg.norm(wrist - elbow) == pytest.approx(self.L2, abs=1e-9)

    def test_beyond_reach_clamped(self):
        s = np.array([0.3, -0.2, 1.45])
        toward = np.array([2.0, 1.0, -0.5])
        _, wrist = two_bone_reach(s, s + toward, self.L1, self.L2, (0, 1, 0))
        assert np.linalg.norm(wrist - s) == pytest.approx(self.L1 + self.L2, abs=1e-12)
        # Clamped along the line to the target.
        assert np.allclose(np.cross(wrist - s, toward), 0.0, atol=1e-12)

    def test_scripted_touch_reaches_target(self):
        sim = Simulator(induction_lite(), seed=0)
        checked = 0
        for p in sim.scene["persons"]:
            for side, events in p.events.items():
                for ev in events:
                    full = [f for f in range(ev.start, ev.end) if ev.weight(f) == 1.0]
                    assert full
                    for frame in full:
                        wrist = sim.skeleton(p, frame)[SIDE_JOINTS[side]["wrist"]]
                        assert np.linalg.norm(wrist - ev.target) < 1e-9
                    checked += 1
        assert checked == 12


class TestRendering:
    def test_noiseless_exact_projection(self):
        sim = Simulator(tiny_scene(), seed=0)
        state = sim.frame_state(0)
        for frame, cam_id, persons, hands in sim.render_frame(0):
            cal = sim.cals[cam_id]
            assert len(persons) == 1
            joints = state[1]
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
        joints = state[1]
        for _, cam_id, _, hands in sim.render_frame(0):
            cal = sim.cals[cam_id]
            for h in hands:
                wrist = joints[SIDE_JOINTS[h.side]["wrist"]]
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
        patch = camera_patch(provider, 0, "cam0", [int(cal.cx)], [int(cal.cy)], 5)
        assert patch.shape == (1, 5, 5)
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
        patch = camera_patch(provider, 0, "cam0", [int(round(u))], [int(round(v))], 1)
        center_depth = cal.world_to_camera(np.array([3.5, 3.5, 1.1]))[2]
        assert patch[0, 0, 0] == pytest.approx(center_depth - 0.5, abs=2e-3)

    def test_order_free_determinism(self):
        scene = tiny_scene(depth_sigma=0.01)
        sim = Simulator(scene, seed=3)
        p1 = camera_patch(SceneDepthProvider(sim), 2, "cam1", [320], [240], 5)
        other = SceneDepthProvider(sim)
        camera_patch(other, 5, "cam0", [100], [100], 3)
        p2 = camera_patch(other, 2, "cam1", [500, 320], [60, 240], 5)
        assert np.array_equal(p1[0], p2[1])

    def test_one_call_gives_each_camera_its_own_patches(self):
        # One cast for several cameras gives each the bytes of a call for
        # it alone; centres all outside the image give zero patches.
        sim = Simulator(induction_lite(3) | {"noise": {"depth_sigma": 0.01}}, seed=5)
        pelvis = [np.round(project(joints[19], sim.cals["cam0"])).astype(int)
                  for joints in sim.frame_state(2).values()]
        centres = {"cam0": ([u for u, _ in pelvis] + [0], [v for _, v in pelvis] + [479]),
                   "cam1": ([320], [240]), "cam3": ([-40, 700], [-40, 100])}
        got = SceneDepthProvider(sim).patch(2, centres, 5)
        assert list(got) == sorted(centres)
        for cam_id, (us, vs) in centres.items():
            alone = camera_patch(SceneDepthProvider(sim), 2, cam_id, us, vs, 5)
            assert got[cam_id].tobytes() == alone.tobytes()
        assert got["cam0"].any() and not got["cam3"].any()
        assert SceneDepthProvider(sim).patch(2, {}, 5) == {}

    def test_multi_camera_call_equals_single_centre_oracle(self):
        # Every camera's patch pixels get their noise in one hash pass,
        # and each patch keeps the bits of the reference cast and hash of
        # its centre alone.
        sim = Simulator(induction_lite(3) | {"noise": {"depth_sigma": 0.01}}, seed=11)
        rng = np.random.default_rng(1)
        centres = {}
        for cam_id in ("cam0", "cam1", "cam2", "cam3"):
            pelvis = [np.round(project(joints[19], sim.cals[cam_id])).astype(int)
                      for joints in sim.frame_state(1).values()]
            extra = rng.integers(-3, 640, size=(3, 2))
            centres[cam_id] = tuple(np.array([p[k] for p in pelvis] + list(extra[:, k]))
                                    for k in (0, 1))
        got = SceneDepthProvider(sim).patch(1, centres, 5)
        for cam_id, (us, vs) in centres.items():
            want = [scene_patch(sim, 1, cam_id, u, v, 5) for u, v in zip(us, vs)]
            assert got[cam_id].tobytes() == np.array(want).tobytes()
        assert all(got[cam_id].any() for cam_id in centres)

    @staticmethod
    def centres(width, height):
        """Pixel coordinates on, across and outside an image's border."""
        def axis(n):
            inside = st.integers(0, n - 1)
            return st.one_of(inside, st.integers(-9, 9), inside, st.integers(n - 9, n + 9))
        return st.lists(st.tuples(axis(width), axis(height)), min_size=10, max_size=40)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), size=st.sampled_from([1, 3, 5, 7]), frame=st.integers(0, 2))
    def test_batched_patches_equal_single_centre_oracle(self, data, size, frame):
        # Bodies and depth noise included; the batch is one cast of every
        # in-image patch pixel.
        sim = Simulator(induction_lite(3) | {"noise": {"depth_sigma": 0.01}}, seed=5)
        provider = SceneDepthProvider(sim)
        cal = sim.cals["cam2"]
        centres = data.draw(self.centres(cal.image_width, cal.image_height))
        casts = []
        cast_rays = simulator.cast_rays

        def counted(prims, origin, dirs, **cull):
            casts.append(len(dirs))
            return cast_rays(prims, origin, dirs, **cull)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "cast_rays", counted)
            us, vs = np.array(centres, dtype=int).reshape(-1, 2).T
            got = camera_patch(provider, frame, "cam2", us, vs, size)
        want = [scene_patch(sim, frame, "cam2", u, v, size) for u, v in centres]
        assert got.shape == (len(centres), size, size)
        assert np.array_equal(got, np.array(want).reshape(got.shape))
        r = size // 2
        rays = sum(len(range(max(u - r, 0), min(u + r + 1, cal.image_width)))
                   * len(range(max(v - r, 0), min(v + r + 1, cal.image_height)))
                   for u, v in centres)
        assert casts == ([rays] if rays else [])

    @pytest.mark.parametrize("width, height", [(101, 77), (64, 48)])
    @pytest.mark.parametrize("stride", range(1, 9))
    def test_lattice_grids_equal_sliced_oracle(self, width, height, stride):
        scene = induction_lite(frame_count=2)
        scene["noise"] = {"depth_sigma": 0.01}
        for cam in scene["cameras"]:
            cam.update(width=width, height=height, cx=width / 2, cy=height / 2, fx=90.0, fy=90.0)
        sim = Simulator(scene, seed=1)
        shape = (-(-height // stride), -(-width // stride))
        for frame in (0, 1):
            cells = SceneDepthProvider(sim).grids(frame, stride)
            assert cells.cameras == sorted(sim.cals)
            assert sum(cells.counts) == len(cells) and min(cells.counts) > 0
            assert cells.labels.dtype == np.uint8 and (cells.labels > 0).all()
            assert (cells.depth > 0).all()
            for cam_id in sim.cals:
                labels, depth = cells_lattice(cells, cam_id, shape, stride)
                full_labels, full_depth = scene_grids(sim, frame, cam_id, stride)
                want_depth = full_depth[::stride, ::stride]
                assert np.array_equal(labels, full_labels[::stride, ::stride] * (want_depth > 0))
                assert depth.tobytes() == want_depth.tobytes()

    def test_grids_consistent_with_backprojection(self):
        scene = tiny_scene()
        scene["persons"] = []
        scene["surfaces"] = [
            {"type": "box", "label": 2, "name": "desk",
             "min": [3.0, 3.0, 0.0], "max": [4.0, 4.0, 1.0]},
        ]
        sim = Simulator(scene, seed=0)
        provider = SceneDepthProvider(sim)
        clouds = backproject_labeled(provider.grids(0, stride=4), sim.cals)
        assert [c.source_camera for c in clouds] == sorted(sim.cals)
        box = Box([3.0, 3.0, 0.0], [4.0, 4.0, 1.0])
        for cloud in clouds:
            assert len(cloud.positions) > 50
            assert (box.distances(cloud.positions[::10]) < 0.01).all()

    @pytest.mark.parametrize("cameras", [None, ["cam3", "cam1"]], ids=["all", "two"])
    def test_frame_pass_equals_per_camera_oracle(self, cameras):
        # One cast, one noise draw and one back-projection per frame give
        # every camera's points the bits of its lattice cast, hashed and
        # back-projected alone, on noisy frames.
        sim = Simulator(window(induction_lite_noisy(), 60, 4), seed=3)
        assert sim.scene["depth_sigma"] > 0
        provider = SceneDepthProvider(sim, cameras)
        cals = {c: sim.cals[c] for c in provider.cameras}
        for frame in range(4):
            got = backproject_labeled(provider.grids(frame, stride=4), cals)
            want = per_camera_clouds(provider, cals, frame)
            assert [c.source_camera for c in got] == sorted(cals)
            assert [c.source_camera for c in want] == sorted(cals)
            for g, w in zip(got, want):
                assert g.positions.tobytes() == w.positions.tobytes()
                assert g.labels.tobytes() == w.labels.tobytes()

    def test_surfaceless_scene_gives_no_cells_and_casts_nothing(self, monkeypatch):
        sim = Simulator(tiny_scene(2, depth_sigma=0.01), seed=0)
        assert not sim.scene["surfaces"]
        casts = []
        monkeypatch.setattr(simulator, "cast_rays", lambda *a, **kw: casts.append(a))
        cells = SceneDepthProvider(sim).grids(1)
        assert len(cells) == 0 and cells.cameras == [] and cells.counts == []
        assert casts == []

    def test_frame_wide_noise_equals_reference(self):
        # One hash pass over several cameras' pixels, at a seed and a
        # frame past 2**64 (both enter the hash modulo 2**64), gives each
        # pixel the Python-integer reference's bits.
        scene = induction_lite(1) | {"noise": {"depth_sigma": 0.02}}
        sim = Simulator(scene, seed=2**64 + 7)
        provider = SceneDepthProvider(sim)
        rng = np.random.default_rng(0)
        frame = 2**64 + 3
        pixels, depths = [], []
        for cam_id in ("cam2", "cam0", "cam3"):
            cal = sim.cals[cam_id]
            us = rng.integers(0, cal.image_width, 40)
            vs = rng.integers(0, cal.image_height, 40)
            pixels.append((cam_id, us, vs))
            depths.append(np.where(rng.random(40) < 0.2, 0.0, rng.uniform(0.5, 6.0, 40)))
        depth = np.concatenate(depths)
        got = provider._measured(frame, *provider._keys(pixels), depth)
        want = np.concatenate([reference_measured(sim, frame, cam_id, us, vs, d)
                               for (cam_id, us, vs), d in zip(pixels, depths)])
        assert got.tobytes() == want.tobytes()
        noisy = got != np.round(depth * 1000.0) / 1000.0
        assert noisy[depth > 0].mean() > 0.9 and not noisy[depth == 0].any()


# Where a surface lies from the camera: its centre's depth range (m) and
# its lateral offset, as a multiple of the half image at that depth. In
# front, a surface (at most 1.6 m across) is too far to fill the image;
# centred on the camera plane, it reaches across it or lies in it; behind,
# it lies wholly behind.
PLACES = {
    "in-view": ((3.0, 6.0), 0.4),
    "off-image": ((3.0, 6.0), 1.0),  # straddling the image border
    "across-plane": ((0.0, 0.0), 1.0),
    "behind": ((-6.0, -1.5), 0.8),
}


class TestSurfaceCull:
    """The depth cast hands each surface only the pixels inside the image
    of its bounding box; grids and patches stay bit-equal to
    the oracles that cast every pixel."""

    W, H, F = 48, 36, 40.0

    @classmethod
    def scene(cls, data):
        """One camera in a random pose and a box, a rectangle and a sphere,
        each placed in view, across the image border, across the camera
        plane or behind it."""
        draw = lambda lo, hi: data.draw(st.floats(lo, hi))  # noqa: E731
        position = [draw(-3.0, 3.0), draw(-3.0, 3.0), draw(0.5, 3.0)]
        yaw, pitch = draw(-np.pi, np.pi), draw(-1.2, 0.5)
        target = list(np.array(position) + [np.cos(pitch) * np.cos(yaw),
                                            np.cos(pitch) * np.sin(yaw), np.sin(pitch)])
        R = simulator.look_at_extrinsics(position, target)[:3, :3]
        places, surfaces = [], []
        for label, kind in enumerate(("box", "rect", "sphere"), start=1):
            place = data.draw(st.sampled_from(sorted(PLACES)))
            (near, far), side = PLACES[place]
            depth = draw(near, far)
            half = max(abs(depth), 1.0) * cls.W / (2 * cls.F) * side
            lateral = [draw(-1.0, 1.0) * half, draw(-1.0, 1.0) * half]
            if place != "in-view":
                # Pushed out to the border (off-image) or, near and behind
                # the camera plane, far enough aside to keep the camera out.
                lateral[0] = (1 if lateral[0] >= 0 else -1) * max(half, 1.2)
            centre = np.array(position) + R.T @ [*lateral, depth]
            size = [draw(0.05, 0.8) for _ in range(3)]
            if kind == "box":
                rec = {"min": list(centre - size), "max": list(centre + size)}
            elif kind == "rect":
                rec = {"center": list(centre), "axis": data.draw(st.sampled_from("xyz")),
                       "half_sizes": size[:2]}
            else:
                rec = {"center": list(centre), "radius": size[0]}
            places.append(place)
            surfaces.append({"type": kind, "label": label, **rec})
        camera = {"id": "cam0", "position": position, "look_at": target, "width": cls.W,
                  "height": cls.H, "fx": cls.F, "fy": cls.F, "cx": cls.W / 2, "cy": cls.H / 2}
        scene = {"cameras": [camera], "surfaces": surfaces, "persons": [], "frame_count": 1,
                 "noise": {"depth_sigma": 0.01}}
        return scene, places

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_culled_cast_equals_full_cast_oracles(self, data):
        scene, places = self.scene(data)
        sim = Simulator(scene, seed=2)
        provider = SceneDepthProvider(sim)
        handed = []
        cast_rays = simulator.cast_rays

        def recorded(prims, origin, dirs, rows):
            handed.append([len(dirs) if r is None else len(r) for r in rows[:len(prims)]])
            return cast_rays(prims, origin, dirs, rows=rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "cast_rays", recorded)
            for stride in (1, 4):
                want_labels, want_depth = scene_grids(sim, 0, "cam0", stride)
                cells = provider.grids(0, stride)
                assert cells.cameras == (["cam0"] if (want_depth > 0).any() else [])
                labels, depth = cells_lattice(cells, "cam0", want_labels.shape, stride=1)
                assert np.array_equal(labels, want_labels * (want_depth > 0))
                assert depth.tobytes() == want_depth.tobytes()
            lattice = handed[0]  # stride 1: every pixel
            centres = data.draw(TestDepthProvider.centres(self.W, self.H))
            us, vs = np.array(centres, dtype=int).reshape(-1, 2).T
            got = camera_patch(provider, 0, "cam0", us, vs, 5)
        want = [scene_patch(sim, 0, "cam0", u, v, 5) for u, v in centres]
        assert got.tobytes() == np.array(want).reshape(got.shape).tobytes()
        # A surface in front of the camera, the sphere too, is handed only
        # the pixels near its image; one that reaches behind the camera
        # plane, every pixel.
        for place, rays in zip(places, lattice):
            if place in ("in-view", "off-image"):
                assert rays < self.W * self.H
            else:
                assert rays == self.W * self.H


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
        wk = {side: SIDE_JOINTS[side]["wrist"] for side in ("left", "right")}
        wrist = Simulator(scene).frame_state(0)[1][wk["right"]]
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

    def test_closest_points_only_for_kept_points(self, monkeypatch):
        # Ground truth measures every label on every hand update, but an
        # episode keeps a point only when a frame opens it or lowers its
        # least distance; only those frames may compute a closest point.
        # distances() measures whole batches through closest_point too, so
        # only single-point calls are counted.
        calls = Counter()
        for cls in (Box, Rect, Sphere):
            def counted(prim, p, original=cls.closest_point):
                calls["closest_point"] += np.ndim(p) == 1
                return original(prim, p)
            monkeypatch.setattr(cls, "closest_point", counted)
        steps = []

        def recorded(tracker, frame, hand_id, side, person_id, label, d, closest):
            steps.append((frame, (hand_id, label), d))
            return observe(tracker, frame, hand_id, side, person_id, label, d, closest)

        observe = ContactTracker.observe
        monkeypatch.setattr(ContactTracker, "observe", recorded)
        episodes = Simulator(induction_lite(frame_count=160), seed=0).gt_episodes()
        assert len(episodes) == 3

        cfg = ContactConfig()
        streams = {}
        for frame, key, d in steps:
            streams.setdefault(key, []).append((frame, d))
        kept = 0
        for seq in streams.values():
            active = run_hysteresis([d for _, d in seq], cfg.tau_on, cfg.tau_off)
            last = least = None
            for (frame, d), on in zip(seq, active):
                if not on:
                    continue
                if last is None or frame - last - 1 > cfg.max_gap_frames:
                    least = None  # the frame opens an episode
                if least is None or d < least:
                    kept, least = kept + 1, d
                last = frame
        assert calls["closest_point"] == kept > 0
        assert 20 * kept < len(steps)

    def test_absent_person_missing_from_tracks(self, tmp_path):
        scene = tiny_scene(frame_count=10)
        scene["persons"][0]["absent"] = [[3, 6]]
        emit_dataset(scene, str(tmp_path), seed=0)
        frames = {f for f, *_ in read_tracks(tmp_path / "gt" / "tracks.jsonl")}
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

    @pytest.mark.parametrize("name", ["induction-lite", "induction-lite-noisy"])
    def test_editing_a_builtin_scene_leaves_later_ones(self, name):
        # Each call returns surfaces of its own: editing one in place, a
        # field or a corner, changes no later builtin scene.
        fresh = copy.deepcopy(builtin_scene(name))
        edited = builtin_scene(name)
        edited["surfaces"][0]["name"] = ["x"]
        edited["surfaces"][0]["min"][0] = -99.0
        edited["surfaces"].append({"type": "sphere"})
        assert builtin_scene(name)["surfaces"] == fresh["surfaces"]
        assert builtin_scene(name)["surfaces"] != edited["surfaces"]


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
                us, vs = np.round(uv[seen]).astype(int).T
                patches.append(camera_patch(provider, frame, cam_id, us, vs, 5).tobytes())
        return files, patches

    def test_matches_reference_kernel_byte_for_byte(self, tmp_path, monkeypatch):
        files, patches = self.outputs(tmp_path / "stacked")
        monkeypatch.setattr(simulator, "cast_rays", reference_cast_rays)
        ref_files, ref_patches = self.outputs(tmp_path / "reference")
        assert len(files) == 9 and sum(map(len, patches)) > 200 * 25 * 8
        assert files == ref_files
        assert patches == ref_patches


class TestSightings:
    # simulate-score's window of induction-lite-noisy (its first touches),
    # and the eight crossing persons, whose bodies hide each other.
    SCENES = {"induction-noisy": lambda: window(induction_lite_noisy(), 60, 48),
              "crowd": crowd_crossing}

    @pytest.mark.parametrize("name", SCENES)
    def test_matches_per_camera_reference(self, name):
        # One cast per frame gives every camera's rays the bits of a cast
        # of that camera's rays alone.
        scene = self.SCENES[name]()
        sim = Simulator(scene, seed=0)
        occluded = 0
        for frame in range(scene["frame_count"]):
            got, ref = sim.sightings(frame), per_camera_sightings(sim, frame)
            assert list(got) == list(ref)
            for key, arrays in ref.items():
                assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                           for a, b in zip(got[key], arrays)), (frame, key)
            occluded += sum((occ > 0).sum() for _, occ, _ in ref.values())
        assert occluded > 100

    @pytest.mark.parametrize("name,start", [("induction-noisy", 0), ("crowd", 8)])
    def test_camera_order_leaves_outputs_unchanged(self, name, start, tmp_path):
        # Every output but scene.json, which records the scene as given, is
        # the same bytes with the scene's camera list reversed.
        scene = window(self.SCENES[name](), start, 8)
        trees = []
        for cameras in (scene["cameras"], scene["cameras"][::-1]):
            out = tmp_path / str(len(trees))
            emit_dataset(dict(scene, cameras=cameras), str(out), seed=1)
            trees.append(tree_bytes(out))
        assert trees[0].pop("scene.json") != trees[1].pop("scene.json")
        assert len(trees[0]) == 8 and trees[1] == trees[0]

    def test_matches_per_person_reference(self):
        # Frame 12 holds all eight crossing persons, 13 two, 14 one, 15 none.
        scene = crowd_crossing()
        for p in scene["persons"]:
            p["absent"] = [[{1: 15, 2: 14}.get(p["id"], 13), 23]]
        sim = Simulator(scene, seed=0)
        for frame, count in ((12, 8), (13, 2), (14, 1), (15, 0)):
            ref = per_person_sightings(sim, frame)
            got = sim.sightings(frame)
            assert len(ref) == 4 * count
            assert got.keys() == ref.keys()
            for key, arrays in ref.items():
                assert all(np.array_equal(a, b) for a, b in zip(got[key], arrays)), key
            if count == 8:  # the scene has no surfaces: other bodies hide these
                assert sum((occ == 2).sum() for _, occ, _ in got.values()) > 20


class TestSurfaceDistances:
    SURFACES = [
        Box([0.0, 0.0, 0.0], [1.0, 2.0, 0.5], label=1),
        Rect([0.0, -3.0, 1.0], "z", (0.5, 0.4), label=3),
        Sphere([-1.0, 5.0, 0.0], 0.5, label=2),
        Box([3.0, 0.0, 0.0], [4.0, 1.0, 1.0], label=1),
        Sphere([1.0, 5.0, 0.0], 0.5, label=2),
        Sphere([0.0, -6.0, 0.0], 0.5, label=4),
    ]
    # Label 2: the two spheres are 0.5 m from the first point. Label 4:
    # the second and third points are 1.5 m from its sphere. Label 1: the
    # centre of the second box is 0.5 m from all six faces.
    TIES = np.array([[0.0, 5.0, 0.0], [0.0, -6.0, 2.0], [0.0, -6.0, -2.0],
                     [10.0, 10.0, 10.0], [3.5, 0.5, 0.5], [10.0, -10.0, 10.0]])

    def batches(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            yield rng.uniform([-2.0, -7.0, -1.0], [5.0, 6.0, 2.0], size=(6, 3))
        inside = rng.uniform([0.0, 0.0, 0.0], [1.0, 2.0, 0.5], size=(6, 3))
        yield inside
        for axis, value in ((0, 0.0), (0, 1.0), (1, 2.0), (2, 0.0)):
            on_face = inside.copy()
            on_face[:, axis] = value
            yield on_face
        yield self.TIES

    def test_matches_per_point_reference(self):
        # Every batch is one group of a single call.
        batches = np.stack(list(self.batches()))
        labels, distances, closest = SurfaceDistances(self.SURFACES).nearest_per_label(batches)
        assert labels == [1, 2, 3, 4]
        inside = 0
        for h, queries in enumerate(batches):
            ref = per_point_nearest_per_label(self.SURFACES, queries)
            assert sorted(ref) == labels
            for k, label in enumerate(labels):
                assert distances[h, k] == ref[label][0]
                assert np.array_equal(closest(h, k), ref[label][1])
            box = self.SURFACES[0]
            inside += ((queries > box.lo) & (queries < box.hi)).all(axis=1).sum()
        assert inside >= 6

    def test_ties_go_to_the_first_surface_then_the_first_point(self):
        labels, d, closest = SurfaceDistances(self.SURFACES).nearest_per_label(self.TIES[None])
        got = {label: (d[0, k], closest(0, k).tolist()) for k, label in enumerate(labels)}
        assert got[2] == (0.5, [-0.5, 5.0, 0.0])
        assert got[4] == (1.5, [0.0, -6.0, 0.5])
        assert got[1] == (0.5, [4.0, 0.5, 0.5])
