import numpy as np
import pytest

from contacttrack.config import TrackerConfig
from contacttrack.geometry import fundamental_matrix, project, triangulate_weighted
from contacttrack.person_tracker import (
    PersonTrack,
    Tracker,
    associate_camera,
    association_cost,
    depth_lift,
    update_triangulated,
)
from contacttrack.schema import JOINT_COUNT, JointSchema, TEMPLATE_JOINTS

from helpers import make_ring, per_joint_update, per_pair_association_cost

SCHEMA = JointSchema()


def place_template(xy=(0.0, 0.0), yaw=0.0):
    c, s = np.cos(yaw), np.sin(yaw)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return TEMPLATE_JOINTS @ R.T + np.array([xy[0], xy[1], 0.0])


def detect(joints, cal, conf=0.95):
    det = np.zeros((JOINT_COUNT, 3))
    for k in range(JOINT_COUNT):
        det[k, :2] = project(joints[k], cal)
        det[k, 2] = conf
    return det


def track_at(joints, tid=1, existence=0.9):
    return PersonTrack(
        id=tid,
        joints=joints.copy(),
        available=np.ones(JOINT_COUNT, dtype=bool),
        existence=existence,
        last_update_frame=0,
        confirmed=True,
    )


class ConstantDepth:
    """Depth provider returning the true camera-frame z per joint pixel."""

    def __init__(self, fn):
        self.fn = fn

    def patch(self, frame, cam_id, u, v, size):
        return np.full((size, size), self.fn(cam_id, u, v))


@pytest.fixture
def cams():
    return {c.camera_id: c for c in make_ring(4, radius=4.0, height=1.8, target=(0, 0, 1.0))}


class TestAssociate:
    def test_exact_projection_matches(self, cams):
        cal = cams["cam0"]
        joints = place_template()
        tr = track_at(joints)
        det = detect(joints, cal)
        matches, um = associate_camera([tr], [det], cal, TrackerConfig())
        assert matches == [(0, 0)]
        assert um == []

    def test_low_confidence_unmatched(self, cams):
        cal = cams["cam0"]
        joints = place_template()
        det = detect(joints, cal, conf=0.1)
        matches, um = associate_camera([track_at(joints)], [det], cal, TrackerConfig())
        assert matches == []
        assert um == [0]

    def test_matches_min_cost_permutation(self, cams):
        from itertools import permutations

        cal = cams["cam0"]
        cfg = TrackerConfig()
        positions = [(0.0, 0.0), (0.8, 0.3), (-0.7, -0.4)]
        tracks = [track_at(place_template(p), tid=i) for i, p in enumerate(positions)]
        # Detections are the same persons with slight pixel offsets, shuffled.
        dets = []
        rng = np.random.default_rng(0)
        order = [2, 0, 1]
        for i in order:
            d = detect(place_template(positions[i]), cal)
            d[:, :2] += rng.normal(0, 3.0, size=(JOINT_COUNT, 2))
            dets.append(d)
        matches, _ = associate_camera(tracks, dets, cal, cfg)

        cost = np.zeros((3, 3))
        for ti, tr in enumerate(tracks):
            for di, d in enumerate(dets):
                uvs = np.array([project(tr.joints[k], cal) for k in range(JOINT_COUNT)])
                cost[ti, di] = np.linalg.norm(uvs - d[:, :2], axis=1).mean()
        best = min(
            permutations(range(3)), key=lambda p: sum(cost[i, p[i]] for i in range(3))
        )
        assert sorted(matches) == [(i, best[i]) for i in range(3)]

    def test_cost_matches_per_pair_reference(self, cams):
        # Bit for bit: partial availability and confidence, a track behind
        # the camera and a track with no available joint.
        rng = np.random.default_rng(5)
        cal = cams["cam0"]
        for _ in range(20):
            tracks = []
            for tid in range(5):
                tr = track_at(place_template(rng.uniform(-1.5, 1.5, 2), rng.uniform(0, 6)), tid)
                tr.available = rng.random(JOINT_COUNT) < rng.uniform(0.2, 1.0)
                tracks.append(tr)
            tracks[3].joints += 2 * (cal.center - tracks[3].joints.mean(axis=0))
            tracks[4].available[:] = False
            dets = []
            for _ in range(rng.integers(1, 7)):
                d = detect(place_template(rng.uniform(-1.5, 1.5, 2)), cal)
                d[:, :2] += rng.normal(0.0, 5.0, size=(JOINT_COUNT, 2))
                d[:, 2] = rng.uniform(0.0, 1.0, JOINT_COUNT)
                dets.append(d)
            cost = association_cost(tracks, dets, cal, TrackerConfig().tau_joint)
            ref = per_pair_association_cost(tracks, dets, cal, TrackerConfig().tau_joint)
            assert np.array_equal(cost, ref)
            assert np.isfinite(ref[:3]).mean() > 0.5 and np.isinf(ref[3:]).all()


class TestTriangulationUpdate:
    def _fmat(self, cams):
        cache = {}

        def f(a, b):
            if (a, b) not in cache:
                cache[(a, b)] = fundamental_matrix(cams[a], cams[b])
            return cache[(a, b)]

        return f

    def test_noiseless_three_views(self, cams):
        joints = place_template()
        tr = track_at(joints)
        tr.joints += 0.05  # stale state, should be re-estimated
        obs = {c: detect(joints, cams[c]) for c in ("cam0", "cam1", "cam2")}
        updated = update_triangulated(tr, obs, cams, self._fmat(cams), TrackerConfig())
        assert updated == set(range(JOINT_COUNT))
        assert np.all(np.linalg.norm(tr.joints - joints, axis=1) < 1e-6)

    def test_corrupt_view_excluded(self, cams):
        cfg = TrackerConfig(tau_epi=3.0)
        joints = place_template()
        tr = track_at(joints)
        obs = {c: detect(joints, cams[c]) for c in ("cam0", "cam1", "cam2")}
        obs["cam2"][:, 0] += 50.0  # corrupt every joint in cam2 by 50 px
        updated = update_triangulated(tr, obs, cams, self._fmat(cams), cfg)
        assert updated == set(range(JOINT_COUNT))
        for k in (0, 9, 15):
            two_view = [
                (cams[c], detect(joints, cams[c])[k, :2], 0.95) for c in ("cam0", "cam1")
            ]
            X, _ = triangulate_weighted(two_view)
            assert np.linalg.norm(tr.joints[k] - X) < 1e-9

    def test_matches_per_joint_reference(self, cams):
        # Noise, confidence dropouts, an outlier view on some joints, and a
        # track with some joints unavailable (DLT start) and some stale
        # (hinted start): the batched update equals the per-joint loop bit
        # for bit.
        rng = np.random.default_rng(17)
        cfg = TrackerConfig()
        fmat = self._fmat(cams)
        for trial in range(6):
            joints = place_template((rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                                    yaw=rng.uniform(0, 2 * np.pi))
            obs = {}
            for c in sorted(cams):
                d = detect(joints, cams[c])
                d[:, :2] += rng.normal(0, 1.5, size=(JOINT_COUNT, 2))
                d[:, 2] = rng.uniform(0.1, 1.0, size=JOINT_COUNT)
                obs[c] = d
            obs["cam3"][rng.choice(JOINT_COUNT, 8, replace=False), :2] += 40.0
            tr = track_at(joints + rng.normal(0, 0.02, size=joints.shape))
            tr.available[rng.choice(JOINT_COUNT, 10, replace=False)] = False
            ref = track_at(tr.joints)
            ref.available = tr.available.copy()
            got = update_triangulated(tr, obs, cams, fmat, cfg)
            want = per_joint_update(ref, obs, cams, fmat, cfg)
            assert got == want and len(got) > 10
            assert np.array_equal(tr.joints, ref.joints)
            assert np.array_equal(tr.available, ref.available)

    def test_single_view_not_triangulated(self, cams):
        tr = track_at(place_template())
        obs = {"cam0": detect(place_template(), cams["cam0"])}
        updated = update_triangulated(tr, obs, cams, self._fmat(cams), TrackerConfig())
        assert updated == set()


class TestDepthLift:
    def test_exact_depths_all_lifted(self, cams):
        cal = cams["cam0"]
        joints = place_template()
        tr = track_at(joints)
        tr.available[:] = False
        obs = {"cam0": detect(joints, cal)}
        depth_by_pixel = {}
        for k in range(JOINT_COUNT):
            u, v = np.round(project(joints[k], cal)).astype(int)
            depth_by_pixel[(u, v)] = cal.world_to_camera(joints[k])[2]
        provider = ConstantDepth(lambda c, u, v: depth_by_pixel[(u, v)])
        lifted = depth_lift(
            tr, list(range(JOINT_COUNT)), obs, provider, 0, cams, SCHEMA, TrackerConfig()
        )
        assert lifted == set(range(JOINT_COUNT))
        # Pixel rounding keeps lifted joints within a few mm at this range.
        assert np.all(np.linalg.norm(tr.joints - joints, axis=1) < 0.02)

    def test_background_depth_excluded_by_bones(self, cams):
        cal = cams["cam0"]
        joints = place_template()
        tr = track_at(joints)
        tr.available[:] = False
        obs = {"cam0": detect(joints, cal)}
        wrist = SCHEMA.side_joints["left"]["wrist"]
        uw, vw = np.round(project(joints[wrist], cal)).astype(int)
        depth_by_pixel = {}
        for k in range(JOINT_COUNT):
            u, v = np.round(project(joints[k], cal)).astype(int)
            depth_by_pixel[(u, v)] = cal.world_to_camera(joints[k])[2]
        depth_by_pixel[(uw, vw)] += 1.0  # wrist depth falls on a background plane
        provider = ConstantDepth(lambda c, u, v: depth_by_pixel[(u, v)])
        lifted = depth_lift(
            tr, list(range(JOINT_COUNT)), obs, provider, 0, cams, SCHEMA, TrackerConfig()
        )
        assert wrist not in lifted
        assert lifted == set(range(JOINT_COUNT)) - {wrist}

    def test_variance_gate(self, cams):
        cal = cams["cam0"]
        joints = place_template()
        tr = track_at(joints)
        tr.available[:] = False
        obs = {"cam0": detect(joints, cal)}

        class NoisyDepth:
            def patch(self, frame, cam_id, u, v, size):
                p = np.full((size, size), 3.0)
                p[0, 0] = 13.0  # variance way above (0.05)^2
                return p

        lifted = depth_lift(
            tr, list(range(JOINT_COUNT)), obs, NoisyDepth(), 0, cams, SCHEMA, TrackerConfig()
        )
        assert lifted == set()


class TestLifecycleAndBirths:
    def test_confirmed_after_two_updates(self, cams):
        cfg = TrackerConfig()
        tracker = Tracker(cams, cfg)
        joints = place_template()
        dets = {c: [detect(joints, cams[c])] for c in cams}
        out0 = tracker.step(0, dets)
        assert out0 == [] and tracker.tracks[0].existence == pytest.approx(0.3)
        out1 = tracker.step(1, dets)
        assert out1 == [] and tracker.tracks[0].existence == pytest.approx(0.5)
        out2 = tracker.step(2, dets)
        assert len(out2) == 1 and tracker.tracks[0].existence == pytest.approx(0.7)

    def test_decay_removal_count(self, cams):
        cfg = TrackerConfig(decay_lambda=0.9, e_off=0.1)
        tracker = Tracker(cams, cfg)
        tracker.tracks.append(track_at(place_template(), tid=5, existence=1.0))
        empty = {c: [] for c in cams}
        frames = 0
        while tracker.tracks:
            tracker.step(frames, empty)
            frames += 1
        assert frames == 22  # 0.9^22 ~ 0.098 <= 0.1

    def test_updated_track_capped(self, cams):
        tracker = Tracker(cams, TrackerConfig())
        joints = place_template()
        dets = {c: [detect(joints, cams[c])] for c in cams}
        last = 0.0
        for f in range(10):
            tracker.step(f, dets)
            e = tracker.tracks[0].existence
            assert e >= last
            last = e
        assert last == 1.0

    def test_single_camera_no_birth(self, cams):
        tracker = Tracker(cams, TrackerConfig())
        dets = {c: [] for c in cams}
        dets["cam0"] = [detect(place_template(), cams["cam0"])]
        tracker.step(0, dets)
        assert tracker.tracks == []

    def test_id_reuse_adopts_stale_track(self, cams):
        # Tight association gate keeps the displaced detections out of the
        # per-camera match, forcing them through the birth stage where the
        # nearby stale track should be adopted instead of spawning a new id.
        cfg = TrackerConfig(tau_mpjpe=5.0)
        tracker = Tracker(cams, cfg)
        stale = track_at(place_template((0.3, 0.0)), tid=7, existence=0.9)
        stale.idle_frames = 3
        tracker.tracks.append(stale)
        joints = place_template((0.0, 0.0))
        dets = {c: [detect(joints, cams[c])] for c in cams}
        tracker.step(10, dets)
        assert len(tracker.tracks) == 1
        assert tracker.tracks[0].id == 7
        assert tracker.next_id == 1
        assert np.all(np.linalg.norm(tracker.tracks[0].joints - joints, axis=1) < 1e-6)

    def test_two_persons_short_run(self, cams):
        tracker = Tracker(cams, TrackerConfig())
        a = place_template((0.0, 0.4))
        b = place_template((0.3, -0.6), yaw=1.0)
        dets = {c: [detect(a, cams[c]), detect(b, cams[c])] for c in cams}
        out = []
        for f in range(10):
            out = tracker.step(f, dets)
        assert len(out) == 2
        ids = sorted(s.id for s in out)
        assert ids == [1, 2]
        seen = set()
        for snap in out:
            errs = {
                name: np.linalg.norm(snap.joints - truth, axis=1).mean()
                for name, truth in (("a", a), ("b", b))
            }
            name = min(errs, key=errs.get)
            assert errs[name] < 0.005
            seen.add(name)
        assert seen == {"a", "b"}

    def test_empty_frames_no_tracks(self, cams):
        tracker = Tracker(cams, TrackerConfig())
        for f in range(5):
            assert tracker.step(f, {c: [] for c in cams}) == []
        assert tracker.tracks == []
