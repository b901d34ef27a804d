import copy

import numpy as np
import pytest

from contacttrack import person_tracker
from contacttrack.config import TrackerConfig
from contacttrack.geometry import fundamental_matrix, triangulate_weighted
from contacttrack.person_tracker import (
    PersonTrack,
    Tracker,
    associate_camera,
    association_costs,
    depth_lift,
    depth_patches,
    update_triangulated,
)
from contacttrack.schema import JOINT_COUNT, SIDE_JOINTS, TEMPLATE_JOINTS
from contacttrack.simulator import SceneDepthProvider, Simulator

from helpers import (
    DEPTH_SCENES,
    FRAME_SCENES,
    crowd_crossing,
    four_branch_merge,
    make_ring,
    per_group_spawn,
    per_camera_associate,
    per_camera_association_cost,
    per_camera_depth_patches,
    per_joint_update,
    per_pair_association_cost,
    per_pair_birth_pairs,
    per_pair_group_unmatched,
    per_track_depth_lift,
    project,
    rendered,
)


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
        confirmed=True,
    )


class ConstantDepth:
    """Depth provider returning the true camera-frame z per joint pixel;
    it records each patch call's (frame, {camera: centres})."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def patch(self, frame, centres, size):
        self.calls.append((frame, {c: list(zip(us, vs)) for c, (us, vs) in centres.items()}))
        return {c: np.array([np.full((size, size), self.fn(c, u, v)) for u, v in zip(us, vs)])
                for c, (us, vs) in centres.items()}


def lift(track, obs, provider, cams, cfg=TrackerConfig()):
    """The joints depth_lift lifts of one track, every joint unresolved and
    its patches fetched first."""
    requests = depth_patches(provider, 0, {0: (obs, list(range(JOINT_COUNT)))}, cfg)
    return {k for _, k in depth_lift([track], requests, cams, cfg, {})}


@pytest.fixture
def cams():
    return {c.camera_id: c for c in make_ring(4, radius=4.0, height=1.8, target=(0, 0, 1.0))}


class TestAssociate:
    def test_exact_projection_matches(self, cams):
        cal = cams["cam0"]
        joints = place_template()
        tr = track_at(joints)
        det = detect(joints, cal)
        matches, um = associate_camera([tr], {"cam0": [det]}, cams, TrackerConfig())["cam0"]
        assert matches == [(0, 0)]
        assert um == []

    def test_low_confidence_unmatched(self, cams):
        cal = cams["cam0"]
        joints = place_template()
        det = detect(joints, cal, conf=0.1)
        matches, um = associate_camera([track_at(joints)], {"cam0": [det]}, cams,
                                       TrackerConfig())["cam0"]
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
        matches, _ = associate_camera(tracks, {"cam0": dets}, cams, cfg)["cam0"]

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
        # Bit for bit, every camera of one stacked call: partial
        # availability and confidence, a track behind cam0, a track with
        # no available joint, and cameras with no detection.
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
            dets_by_cam = {}
            for cam_id in sorted(cams):
                dets = []
                for _ in range(rng.integers(0 if cam_id != "cam0" else 1, 7)):
                    d = detect(place_template(rng.uniform(-1.5, 1.5, 2)), cams[cam_id])
                    d[:, :2] += rng.normal(0.0, 5.0, size=(JOINT_COUNT, 2))
                    d[:, 2] = rng.uniform(0.0, 1.0, JOINT_COUNT)
                    dets.append(d)
                dets_by_cam[cam_id] = dets
            costs = association_costs(tracks, dets_by_cam, cams, TrackerConfig().tau_joint)
            assert list(costs) == sorted(cams)
            for cam_id, cost in costs.items():
                ref = per_pair_association_cost(tracks, dets_by_cam[cam_id], cams[cam_id],
                                                TrackerConfig().tau_joint)
                assert np.array_equal(cost, ref)
            ref = per_pair_association_cost(tracks, dets_by_cam["cam0"], cal,
                                            TrackerConfig().tau_joint)
            assert np.isfinite(ref[:3]).mean() > 0.5 and np.isinf(ref[3:]).all()


@pytest.mark.parametrize("name", sorted(FRAME_SCENES))
def test_stacked_association_equals_per_camera_oracle(name, monkeypatch):
    # The tracker's own frames, tracks and detections: each frame's
    # stacked pass gives every camera the cost table, matches and
    # unmatched detections of today's per-camera loop, bit for bit.
    sim, frames = rendered(name)
    associate = person_tracker.associate_camera
    solved = []

    def checked(tracks, dets_by_cam, cals, cfg):
        got = associate(tracks, dets_by_cam, cals, cfg)
        assert got == per_camera_associate(tracks, dets_by_cam, cals, cfg)
        costs = association_costs(tracks, dets_by_cam, cals, cfg.tau_joint)
        for cam_id, cost in costs.items():
            want = per_camera_association_cost(tracks, dets_by_cam[cam_id], cals[cam_id],
                                               cfg.tau_joint)
            assert np.array_equal(cost, want)
        solved.append(sum(np.isfinite(c).sum() for c in costs.values()))
        return got

    monkeypatch.setattr(person_tracker, "associate_camera", checked)
    tracker = Tracker(sim.cals, TrackerConfig())
    for frame, dets, _ in frames:
        tracker.step(frame, dets)
    assert len(solved) == len(frames) and sum(solved) > 10 * len(frames)


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
        updated = update_triangulated([tr], {0: obs}, cams, self._fmat(cams), TrackerConfig())
        assert updated == {(0, k) for k in range(JOINT_COUNT)}
        assert np.all(np.linalg.norm(tr.joints - joints, axis=1) < 1e-6)

    def test_corrupt_view_excluded(self, cams):
        cfg = TrackerConfig(tau_epi=3.0)
        joints = place_template()
        tr = track_at(joints)
        obs = {c: detect(joints, cams[c]) for c in ("cam0", "cam1", "cam2")}
        obs["cam2"][:, 0] += 50.0  # corrupt every joint in cam2 by 50 px
        updated = update_triangulated([tr], {0: obs}, cams, self._fmat(cams), cfg)
        assert updated == {(0, k) for k in range(JOINT_COUNT)}
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
            got = update_triangulated([tr], {0: obs}, cams, fmat, cfg)
            want = per_joint_update(ref, obs, cams, fmat, cfg)
            assert got == {(0, k) for k in want} and len(got) > 10
            assert np.array_equal(tr.joints, ref.joints)
            assert np.array_equal(tr.available, ref.available)

    def test_single_view_not_triangulated(self, cams):
        tr = track_at(place_template())
        obs = {"cam0": detect(place_template(), cams["cam0"])}
        updated = update_triangulated([tr], {0: obs}, cams, self._fmat(cams), TrackerConfig())
        assert updated == set()

    def test_frame_batch_matches_per_track_calls(self, cams):
        # Tracks over different camera subsets (2 of 4 on non-adjacent
        # cameras, 3 of 4, 4 of 4), with noise, dropouts, an outlier view
        # and hinted and unhinted rows, plus a track without observations:
        # one frame-wide call gives the joints and the accepted set of one
        # call per track, and of the per-joint reference.
        rng = np.random.default_rng(23)
        cfg = TrackerConfig()
        fmat = self._fmat(cams)
        subsets = [("cam1", "cam3"), ("cam0", "cam2", "cam3"), tuple(sorted(cams)),
                   tuple(sorted(cams)), ("cam0", "cam1")]
        tracks, obs_by_track = [], {}
        for ti, subset in enumerate(subsets):
            joints = place_template(rng.uniform(-1.0, 1.0, 2), yaw=rng.uniform(0, 2 * np.pi))
            obs = {}
            for c in subset:
                d = detect(joints, cams[c])
                d[:, :2] += rng.normal(0, 1.5, size=(JOINT_COUNT, 2))
                d[:, 2] = rng.uniform(0.1, 1.0, size=JOINT_COUNT)
                obs[c] = d
            obs[subset[-1]][rng.choice(JOINT_COUNT, 5, replace=False), :2] += 40.0
            tr = track_at(joints + rng.normal(0, 0.02, size=joints.shape), tid=ti + 1)
            tr.available[rng.choice(JOINT_COUNT, 10, replace=False)] = False
            tracks.append(tr)
            obs_by_track[ti] = obs
        tracks.append(track_at(place_template(), tid=len(tracks) + 1))
        obs_by_track[len(tracks) - 1] = {}

        def copies():
            out = [track_at(t.joints, tid=t.id) for t in tracks]
            for c, t in zip(out, tracks):
                c.available = t.available.copy()
            return out

        alone, oracle = copies(), copies()
        hinted = [t.available.copy() for t in tracks]
        got = update_triangulated(tracks, obs_by_track, cams, fmat, cfg)
        want = set()
        for ti, obs in obs_by_track.items():
            want |= update_triangulated(alone, {ti: obs}, cams, fmat, cfg)
            ref = per_joint_update(oracle[ti], obs, cams, fmat, cfg)
            assert {k for t, k in got if t == ti} == ref
        assert got == want
        assert {t for t, _ in got} == set(range(len(subsets)))
        assert {hinted[t][k] for t, k in got} == {True, False}
        for t, a, o in zip(tracks, alone, oracle):
            assert np.array_equal(t.joints, a.joints) and np.array_equal(t.joints, o.joints)
            assert np.array_equal(t.available, a.available)
            assert np.array_equal(t.available, o.available)

    def test_one_kernel_call_for_all_matched_tracks(self, cams, monkeypatch):
        # Three matched tracks (one seen by three cameras only) and two new
        # persons: one kernel call covers every matched track's joints,
        # then one more covers both birth groups.
        tracker = Tracker(cams, TrackerConfig())
        old = [place_template(xy) for xy in ((-1.0, 0.6), (1.0, 0.6), (0.0, -1.0))]
        tracker.step(0, {c: [detect(j, cams[c]) for j in old] for c in cams})
        assert len(tracker.tracks) == 3
        problems = []

        def counted(obs, init_hint=None, order=None):
            problems.append(len(obs[0][1]))
            return triangulate_weighted(obs, init_hint=init_hint, order=order)

        monkeypatch.setattr(person_tracker, "triangulate_weighted", counted)
        new = [place_template(xy, yaw=1.0) for xy in ((-1.2, -1.3), (1.2, -1.3))]
        dets = {c: [detect(j, cams[c]) for j in old + new] for c in cams}
        dets["cam3"] = dets["cam3"][1:]
        tracker.step(1, dets)
        assert len(tracker.tracks) == 5
        assert problems == [3 * JOINT_COUNT, 2 * JOINT_COUNT]


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
        lifted = lift(tr, obs, provider, cams)
        assert lifted == set(range(JOINT_COUNT))
        # Pixel rounding keeps lifted joints within a few mm at this range.
        assert np.all(np.linalg.norm(tr.joints - joints, axis=1) < 0.02)

    def test_background_depth_excluded_by_bones(self, cams):
        cal = cams["cam0"]
        joints = place_template()
        tr = track_at(joints)
        tr.available[:] = False
        obs = {"cam0": detect(joints, cal)}
        wrist = SIDE_JOINTS["left"]["wrist"]
        uw, vw = np.round(project(joints[wrist], cal)).astype(int)
        depth_by_pixel = {}
        for k in range(JOINT_COUNT):
            u, v = np.round(project(joints[k], cal)).astype(int)
            depth_by_pixel[(u, v)] = cal.world_to_camera(joints[k])[2]
        depth_by_pixel[(uw, vw)] += 1.0  # wrist depth falls on a background plane
        provider = ConstantDepth(lambda c, u, v: depth_by_pixel[(u, v)])
        lifted = lift(tr, obs, provider, cams)
        assert wrist not in lifted
        assert lifted == set(range(JOINT_COUNT)) - {wrist}

    def test_variance_gate(self, cams):
        cal = cams["cam0"]
        joints = place_template()
        tr = track_at(joints)
        tr.available[:] = False
        obs = {"cam0": detect(joints, cal)}

        class NoisyDepth:
            def patch(self, frame, centres, size):
                p = {c: np.full((len(us), size, size), 3.0) for c, (us, _) in centres.items()}
                for c in p:
                    p[c][:, 0, 0] = 13.0  # variance way above (0.05)^2
                return p

        lifted = lift(tr, obs, NoisyDepth(), cams)
        assert lifted == set()

    def test_frame_with_every_joint_triangulated_asks_no_depth(self, cams):
        tracker = Tracker(cams, TrackerConfig())
        joints = place_template()
        tracker.tracks = [track_at(joints)]
        provider = ConstantDepth(lambda c, u, v: 0.0)
        tracker.step(4, {c: [detect(joints, cams[c])] for c in cams}, provider)
        assert provider.calls == []
        assert tracker.tracks[0].idle_frames == 0

    def test_step_fetches_every_request_with_one_call_per_frame(self, cams):
        # Joints seen by one camera stay unresolved by triangulation; each
        # is requested from that camera, joints below tau_joint nowhere.
        cfg = TrackerConfig()
        people = [place_template((-0.6, 0.0)), place_template((0.6, 0.2), yaw=1.0)]
        tracker = Tracker(cams, cfg)
        tracker.tracks = [track_at(j, tid=i + 1) for i, j in enumerate(people)]
        dets = {c: [detect(j, cams[c]) for j in people] for c in cams}
        wrists = [SIDE_JOINTS[side]["wrist"] for side in ("left", "right")]
        for c in ("cam1", "cam2", "cam3"):
            for det in dets[c]:
                det[wrists, 2] = 0.1
        dets["cam0"][1][wrists[1], 2] = 0.1  # seen by no camera
        provider = ConstantDepth(lambda c, u, v: 0.0)
        tracker.step(4, dets, provider)
        want = [(4, {"cam0": sorted(
            (int(round(u)), int(round(v))) for u, v, s in
            (dets["cam0"][0][wrists[0]], dets["cam0"][0][wrists[1]], dets["cam0"][1][wrists[0]]))})]
        assert [(f, {c: sorted(uv) for c, uv in centres.items()})
                for f, centres in provider.calls] == want


@pytest.mark.parametrize("name", sorted(DEPTH_SCENES))
def test_frame_patches_and_lifts_equal_per_camera_and_per_track_oracles(name, monkeypatch):
    # The tracker's own frames against the scene depth source: each
    # frame's one patch call gives every request the patch of a per-camera
    # loop, and its one lift pass lifts, for every matched track, the
    # joints and positions of a per-track lift, bit for bit.
    sim, frames = rendered(name)
    fetch, lift_all = person_tracker.depth_patches, person_tracker.depth_lift
    asked, counts = {}, []

    def checked_patches(depth_provider, frame, wanted, cfg):
        got = fetch(depth_provider, frame, wanted, cfg)
        want = per_camera_depth_patches(depth_provider, frame, wanted, cfg)
        rows = {(ti, k, got.cam_ids[c]): patch.tobytes() for ti, k, c, patch in
                zip(got.tracks.tolist(), got.joints.tolist(), got.cams.tolist(), got.patches)}
        assert rows == {(ti, k, c): patch.tobytes()
                        for ti, patches in want.items() for (k, c), patch in patches.items()}
        asked.update(wanted=wanted, patches=want)
        return got

    def checked_lift(tracks, requests, cals, cfg, fixed):
        before = copy.deepcopy(tracks)
        got = lift_all(tracks, requests, cals, cfg, fixed)
        want = set()
        for ti, (obs, unresolved) in asked["wanted"].items():
            want |= {(ti, k) for k in per_track_depth_lift(
                before[ti], unresolved, obs, asked["patches"][ti], cals, cfg, fixed[ti])}
        assert got == want
        for track, ref in zip(tracks, before):
            assert track.joints.tobytes() == ref.joints.tobytes()
            assert np.array_equal(track.available, ref.available)
        counts.append((len(requests.patches), len(got)))
        return got

    monkeypatch.setattr(person_tracker, "depth_patches", checked_patches)
    monkeypatch.setattr(person_tracker, "depth_lift", checked_lift)
    tracker = Tracker(sim.cals, TrackerConfig())
    provider = SceneDepthProvider(sim)
    for frame, dets, _ in frames:
        tracker.step(frame, dets, provider)
    patches, lifted = map(sum, zip(*counts))
    assert len(counts) > len(frames) // 2 and patches > 5 * len(frames) and lifted > 20


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

    def test_snapshot_says_whether_detections_reached_the_track(self, cams):
        tracker = Tracker(cams, TrackerConfig())
        joints = place_template()
        dets = {c: [detect(joints, cams[c])] for c in cams}
        for f in range(6):  # existence climbs to its cap of 1.0
            out = tracker.step(f, dets)
        assert [(s.existence, s.detected) for s in out] == [(1.0, True)]
        (coasting,) = tracker.step(6, {c: [] for c in cams})
        assert coasting.existence < 1.0 and not coasting.detected
        (back,) = tracker.step(7, dets)
        assert back.detected

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


@pytest.fixture(scope="module")
def crowd():
    """The cameras of helpers.crowd_crossing at seed 0, and each frame's
    detections {camera_id: [(26, 3) arrays]}, rendered in memory."""
    sim = Simulator(crowd_crossing(), seed=0)
    frames = [{cam: persons for _, cam, persons, _ in sim.render_frame(f)}
              for f in range(sim.scene["frame_count"])]
    return sim.cals, frames


class TestBatchedBirths:
    def test_grouping_matches_per_pair_oracle(self, crowd, monkeypatch):
        cals, frames = crowd
        tracker = Tracker(cals, TrackerConfig())
        group = person_tracker._group_unmatched
        sizes = []

        def checked(unmatched, fmat, cfg):
            got = group(unmatched, fmat, cfg)
            assert got == per_pair_group_unmatched(unmatched, fmat, cfg)
            sizes.append(len(got))
            return got

        monkeypatch.setattr(person_tracker, "_group_unmatched", checked)
        for f, dets in enumerate(frames):
            tracker.step(f, dets)
        assert sizes[0] == 8

    def test_merge_rule_matches_four_branch_oracle(self, monkeypatch):
        # Random pair lists over detections of up to five cameras, not
        # only the pairs that epipolar affinities give: every pair of
        # different cameras may come, in any order.
        rng = np.random.default_rng(44)
        sizes = []
        for _ in range(3000):
            cams = rng.integers(0, 5, size=rng.integers(0, 13))
            unmatched = [(f"cam{c}", None) for c in cams]
            a, b = np.triu_indices(len(cams), 1)
            cross = rng.permutation(np.flatnonzero(cams[a] != cams[b]))
            pairs = [(float(i), int(a[k]), int(b[k]))
                     for i, k in enumerate(cross[:rng.integers(0, len(cross) + 1)])]
            monkeypatch.setattr(person_tracker, "_birth_pairs", lambda *_, p=pairs: p)
            got = person_tracker._group_unmatched(unmatched, None, None)
            assert got == four_branch_merge(unmatched, pairs)
            sizes += map(len, got)
        assert max(sizes) == 5

    def test_live_tracks_keep_an_available_joint(self, crowd):
        # PersonTrack.centroid relies on it: births need min_birth_joints
        # >= 1 joints, and nothing clears one.
        cals, frames = crowd
        for cfg in (TrackerConfig(), TrackerConfig(min_birth_joints=1)):
            tracker = Tracker(cals, cfg)
            for f, dets in enumerate(frames):
                tracker.step(f, dets)
                assert tracker.tracks
                assert all(t.available.any() for t in tracker.tracks)

    def test_affinities_of_shuffled_detections(self, crowd):
        # Frame 0's detections in random orders, so that a camera pair
        # comes in both orders, with random joints dropped, so that pairs
        # share anything from one joint to all of them. With no epipolar
        # gate every cross-camera pair's affinity is compared, bit for bit.
        cals, frames = crowd
        fmat = Tracker(cals)._fmat
        dets = [(cam, np.array(d)) for cam in sorted(frames[0]) for d in frames[0][cam]]
        rng = np.random.default_rng(43)
        for drop in (0.0, 0.5, 0.9):
            unmatched = []
            for i in rng.permutation(len(dets)):
                cam, j = dets[i][0], dets[i][1].copy()
                j[rng.random(JOINT_COUNT) < drop, 2] = 0.0
                unmatched.append((cam, j))
            for cfg in (TrackerConfig(), TrackerConfig(tau_epi=np.inf)):
                pairs = person_tracker._birth_pairs(unmatched, fmat, cfg)
                assert pairs == per_pair_birth_pairs(unmatched, fmat, cfg)
                assert pairs
                got = person_tracker._group_unmatched(unmatched, fmat, cfg)
                assert got == per_pair_group_unmatched(unmatched, fmat, cfg)

    def test_births_match_per_group_oracle(self, crowd):
        cals, frames = crowd
        batched, oracle = Tracker(cals, TrackerConfig()), Tracker(cals, TrackerConfig())
        oracle._spawn = lambda unmatched, updated: per_group_spawn(oracle, unmatched, updated)
        for f in (0, 1):
            got, want = batched.step(f, frames[f]), oracle.step(f, frames[f])
            assert [t.id for t in batched.tracks] == [t.id for t in oracle.tracks]
            for a, b in zip(batched.tracks, oracle.tracks):
                assert np.array_equal(a.joints, b.joints)
                assert np.array_equal(a.available, b.available)
                assert a.existence == b.existence
            assert [s.id for s in got] == [s.id for s in want]
        assert batched.next_id == 9

    def test_one_birth_kernel_call_per_frame(self, crowd, monkeypatch):
        cals, frames = crowd
        tracker = Tracker(cals, TrackerConfig())
        kernel = person_tracker.triangulate_weighted
        log = []

        def counted(*args, **kwargs):
            log.append("kernel")
            return kernel(*args, **kwargs)

        spawn = tracker._spawn

        def marked(*args):
            log.append("spawn")
            return spawn(*args)

        monkeypatch.setattr(person_tracker, "triangulate_weighted", counted)
        tracker._spawn = marked
        birth_calls = []
        for f, dets in enumerate(frames):
            log.clear()
            tracker.step(f, dets)
            birth_calls.append(log[log.index("spawn"):].count("kernel"))
        assert max(birth_calls) == 1
        assert birth_calls[0] == 1
