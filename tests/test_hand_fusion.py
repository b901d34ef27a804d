import numpy as np
import pytest

from contacttrack.config import FusionConfig, TrackerConfig
from contacttrack.hand_fusion import (
    SIDES,
    FusedHand,
    HandFusion,
    HandInstance,
    cluster_hands,
    dbscan,
    select_representative,
    stitch_ids,
)
from contacttrack.person_tracker import Tracker, TrackSnapshot
from contacttrack.schema import JOINT_COUNT, SIDE_JOINTS, HandSchema

from contacttrack.geometry import CameraCalibration

from helpers import (
    FRAME_SCENES,
    PerHandFusion,
    TwoPhaseHandFusion,
    identity_camera,
    naive_dbscan,
    rendered,
)

HAND_SCHEMA = HandSchema(vertex_count=16)


def hand_vertices(palm_center, spread=0.02):
    """16 vertices whose palm anchor (first 8) centroid equals palm_center."""
    rng = np.random.default_rng(int(abs(palm_center[0] * 1000)) + 7)
    v = rng.normal(0, spread, size=(16, 3)) + np.asarray(palm_center, dtype=float)
    v[:8] -= v[:8].mean(axis=0) - np.asarray(palm_center, dtype=float)
    return v


def person(pid, wrist_l=None, wrist_r=None, detected=True):
    joints = np.zeros((JOINT_COUNT, 3))
    avail = np.zeros(JOINT_COUNT, dtype=bool)
    for side, w in (("left", wrist_l), ("right", wrist_r)):
        if w is not None:
            k = SIDE_JOINTS[side]["wrist"]
            joints[k] = w
            avail[k] = True
    return TrackSnapshot(id=pid, existence=1.0, joints=joints, available=avail,
                         detected=detected)


class TestWorldTransform:
    def test_identity(self):
        h = HandInstance("cam0", "left", np.random.default_rng(0).normal(size=(16, 3)), 0.003)
        cal = identity_camera()
        assert np.allclose(cal.camera_to_world(h.vertices), h.vertices)

    def test_translation_only(self):
        T = np.eye(4)
        T[:3, 3] = [1.0, -2.0, 0.5]
        cal = CameraCalibration("cam0", 600.0, 600.0, 320.0, 240.0, T, 640, 480)
        h = HandInstance("cam0", "left", np.zeros((16, 3)), 0.0)
        assert np.allclose(cal.camera_to_world(h.vertices), -T[:3, 3])

    def test_round_trip(self):
        R = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
        if np.linalg.det(R) < 0:
            R[:, 0] *= -1
        T = np.eye(4)
        T[:3, :3] = R
        T[:3, 3] = [0.2, 0.1, 4.0]
        cal = CameraCalibration("cam0", 600.0, 600.0, 320.0, 240.0, T, 640, 480)
        pts = np.random.default_rng(4).normal(size=(16, 3))
        h = HandInstance("cam0", "right", cal.world_to_camera(pts), 0.001)
        assert np.allclose(cal.camera_to_world(h.vertices), pts, atol=1e-12)


class TestClustering:
    def test_close_pair_one_cluster(self):
        centers = np.array([[0, 0, 1.0], [0.02, 0, 1.0]])
        clusters = cluster_hands(centers, ["left", "left"], 0.10, 2)
        assert clusters == [[0, 1]]

    def test_far_pair_two_clusters(self):
        centers = np.array([[0, 0, 1.0], [0.5, 0, 1.0]])
        clusters = cluster_hands(centers, ["left", "left"], 0.10, 2)
        assert sorted(clusters) == [[0], [1]]

    def test_sides_never_merge(self):
        centers = np.array([[0, 0, 1.0], [0.01, 0, 1.0]])
        clusters = cluster_hands(centers, ["left", "right"], 0.10, 2)
        assert sorted(clusters) == [[0], [1]]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 0.6, size=(60, 3))
        got = dbscan(pts, 0.07, 2)
        want = naive_dbscan(pts, 0.07, 2)
        # Same partition: identical co-membership matrix.
        assert np.array_equal(got[:, None] == got[None, :], want[:, None] == want[None, :])

    def test_noise_survives_as_singleton(self):
        pts = np.array([[0, 0, 0], [0.01, 0, 0], [5.0, 5.0, 5.0]])
        labels = dbscan(pts, 0.05, 2)
        assert labels[0] == labels[1] != labels[2]


class TestRepresentative:
    def test_min_sigma(self):
        assert select_representative([0, 1, 2], [0.004, 0.002, 0.009], ["a", "b", "c"]) == 1

    def test_tie_breaks_on_camera(self):
        assert select_representative([0, 1], [0.003, 0.003], ["cam1", "cam0"]) == 1


class TestStitch:
    def test_empty(self):
        assert stitch_ids({}) == {}

    def test_dominant_pair(self):
        assert stitch_ids({(5, 2): 40, (5, 7): 2}) == {5: 2}

    def test_conflicting_targets(self):
        assert stitch_ids({(1, 2): 10, (3, 2): 8}) == {1: 2}

    def test_below_threshold_ignored(self):
        assert stitch_ids({(5, 2): 2}) == {}

    def test_transitive_chain(self):
        assert stitch_ids({(5, 2): 10, (2, 1): 8}) == {5: 1, 2: 1}

    def test_forbidden_pair_skipped(self):
        assert stitch_ids({(5, 2): 40, (5, 7): 5}, forbidden={(5, 2)}) == {5: 7}

    def test_injective(self):
        votes = {(i, 100 + i % 3): 5 + i for i in range(10)}
        mapping = stitch_ids(votes)
        assert len(set(mapping.values())) == len(mapping)


class TestFusionAndAssociation:
    def setup_method(self):
        self.cals = {"cam0": identity_camera("cam0"), "cam1": identity_camera("cam1")}
        self.hf = HandFusion(FusionConfig(), HAND_SCHEMA)

    def test_two_cameras_fuse_to_one_hand(self):
        c = np.array([0.1, 0.0, 2.0])
        hands = [
            HandInstance("cam0", "right", hand_vertices(c), 0.004),
            HandInstance("cam1", "right", hand_vertices(c + 0.01), 0.002),
        ]
        fused = self.hf.fuse(hands, self.cals)
        assert len(fused) == 1
        # The representative is cam1's hand, the one with the lower sigma_fit.
        want = HAND_SCHEMA.anchors(self.cals["cam1"].camera_to_world(hands[1].vertices))
        assert np.array_equal(fused[0].anchors, want)
        assert np.array_equal(fused[0].palm_center, fused[0].anchors[0])

    def test_hand_near_wrist_assigned(self):
        c = np.array([0.05, 0.0, 2.0])
        p = person(1, wrist_r=c + 0.03)
        out = self.hf.step(0, [HandInstance("cam0", "right", hand_vertices(c), 0.003)], self.cals, [p])
        assert out[0].person_id == 1

    def test_far_hand_unassociated(self):
        c = np.array([0.05, 0.0, 2.0])
        p = person(1, wrist_r=c + np.array([0.5, 0, 0]))
        out = self.hf.step(0, [HandInstance("cam0", "right", hand_vertices(c), 0.003)], self.cals, [p])
        assert out[0].person_id is None
        assert out[0].hand_track_id >= 1

    def test_closer_hand_evicts_slot(self):
        wrist = np.array([0.0, 0.0, 2.0])
        p = person(1, wrist_r=wrist)
        hands = [
            HandInstance("cam0", "right", hand_vertices(wrist + [0.10, 0, 0]), 0.003),
            HandInstance("cam0", "right", hand_vertices(wrist + [0, 0.30, 0]), 0.003),
        ]
        out = self.hf.step(0, hands, self.cals, [p])
        winner = min(out, key=lambda f: np.linalg.norm(f.palm_center - wrist))
        loser = max(out, key=lambda f: np.linalg.norm(f.palm_center - wrist))
        assert winner.person_id == 1
        assert loser.person_id is None

    def persisting_hand_with_newcomer(self, newcomer):
        """Hand A holds person 1 at frame 0. At frame 1 both wrists drift
        right, so A is nearer person 2's wrist but keeps person 1 by
        persistence; with newcomer, a new hand B appears nearer person 1's
        wrist than A. Returns (A's person, B's person or None)."""
        a0 = np.array([0.10, 0.0, 2.0])
        self.hf.step(0, [HandInstance("cam0", "right", hand_vertices(a0), 0.003)], self.cals,
                     [person(1, wrist_r=[0.0, 0.0, 2.0]), person(2, wrist_r=[0.30, 0.0, 2.0])])
        wrist1 = np.array([-0.05, 0.0, 2.0])
        hands = [HandInstance("cam0", "right", hand_vertices(a0 + [0.02, 0, 0]), 0.003)]
        if newcomer:
            hands.append(HandInstance("cam0", "right", hand_vertices(wrist1 + [0, 0.01, 0]), 0.003))
        out = self.hf.step(1, hands, self.cals,
                           [person(1, wrist_r=wrist1), person(2, wrist_r=[0.25, 0.0, 2.0])])
        assert out[0].hand_track_id == 1
        return out[0].person_id, out[1].person_id if newcomer else None

    @pytest.mark.parametrize("fusion", [HandFusion, TwoPhaseHandFusion])
    def test_persisting_hand_evicted_falls_to_next_choice(self, fusion):
        self.hf = fusion(FusionConfig(), HAND_SCHEMA)
        assert self.persisting_hand_with_newcomer(False) == (1, None)
        self.hf = fusion(FusionConfig(), HAND_SCHEMA)
        assert self.persisting_hand_with_newcomer(True) == (2, 1)
        assert self.hf.votes == {(2, 1): 1}

    def test_persistence_keeps_person(self):
        wrist = np.array([0.0, 0.0, 2.0])
        c = wrist + np.array([0.03, 0, 0])
        p = person(1, wrist_r=wrist)
        self.hf.step(0, [HandInstance("cam0", "right", hand_vertices(c), 0.003)], self.cals, [p])
        # Wrist estimate drifts a little; the hand barely moves, so
        # persistence keeps the assignment without a greedy re-match.
        p2 = person(1, wrist_r=wrist + np.array([0.25, 0, 0]))
        out = self.hf.step(
            1, [HandInstance("cam0", "right", hand_vertices(c + 0.01), 0.003)], self.cals, [p2]
        )
        assert out[0].person_id == 1

    def test_persistence_releases_distant_person(self):
        wrist = np.array([0.0, 0.0, 2.0])
        c = wrist + np.array([0.03, 0, 0])
        p = person(1, wrist_r=wrist)
        self.hf.step(0, [HandInstance("cam0", "right", hand_vertices(c), 0.003)], self.cals, [p])
        # The person moves far away while the hand stays put: the stale
        # association must break instead of following the person forever.
        p2 = person(1, wrist_r=wrist + np.array([3.0, 0, 0]))
        out = self.hf.step(
            1, [HandInstance("cam0", "right", hand_vertices(c + 0.01), 0.003)], self.cals, [p2]
        )
        assert out[0].person_id is None

    def test_side_slot_is_exclusive(self):
        wrist = np.array([0.0, 0.0, 2.0])
        p = person(1, wrist_l=wrist, wrist_r=wrist + [0.2, 0, 0])
        hands = [
            HandInstance("cam0", "left", hand_vertices(wrist + [0.02, 0, 0]), 0.003),
            HandInstance("cam0", "right", hand_vertices(wrist + [0.22, 0, 0]), 0.003),
        ]
        out = self.hf.step(0, hands, self.cals, [p])
        by_side = {f.side: f.person_id for f in out}
        assert by_side == {"left": 1, "right": 1}

    def test_fragment_votes_accumulate(self):
        wrist = np.array([0.0, 0.0, 2.0])
        c = wrist + np.array([0.03, 0, 0])
        mk = lambda: [HandInstance("cam0", "right", hand_vertices(c), 0.003)]
        # Frames 0-4: associated with person 2.
        for f in range(5):
            self.hf.step(f, mk(), self.cals, [person(2, wrist_r=wrist)])
        # Frames 5-9: person absent, hand unassociated.
        for f in range(5, 10):
            self.hf.step(f, mk(), self.cals, [])
        # Frames 10-19: person returns under fragment id 5.
        for f in range(10, 20):
            out = self.hf.step(f, mk(), self.cals, [person(5, wrist_r=wrist)])
            assert out[0].person_id == 5
        assert self.hf.votes == {(5, 2): 10}
        assert self.hf.stitch_mapping() == {5: 2}

    def fragment_with_bystander(self, bystander):
        """test_fragment_votes_accumulate's scene, with person 2 also
        present (far from the hand) while fragment 5 holds it:
        bystander(k) is whether person 2 received detections on the k-th
        such frame, or None when person 2 is absent."""
        wrist = np.array([0.0, 0.0, 2.0])
        c = wrist + np.array([0.03, 0, 0])
        mk = lambda: [HandInstance("cam0", "right", hand_vertices(c), 0.003)]
        for f in range(5):
            self.hf.step(f, mk(), self.cals, [person(2, wrist_r=wrist)])
        for f in range(5, 10):
            self.hf.step(f, mk(), self.cals, [])
        for k, f in enumerate(range(10, 20)):
            persons = [person(5, wrist_r=wrist)]
            detected = bystander(k)
            if detected is not None:
                persons.insert(0, person(2, wrist_r=wrist + [3.0, 0, 0], detected=detected))
            self.hf.step(f, mk(), self.cals, persons)
        assert self.hf.votes == {(5, 2): 10}
        return self.hf.stitch_mapping()

    def test_coexisting_ids_never_stitched(self):
        assert self.fragment_with_bystander(lambda k: True if k < 3 else None) == {}

    def test_brief_coexistence_does_not_block_stitch(self):
        assert self.fragment_with_bystander(lambda k: True if k < 2 else None) == {5: 2}

    def test_decaying_track_does_not_block_stitch(self):
        # Person 2 coasts beside its replacement without detections.
        assert self.fragment_with_bystander(lambda k: False) == {5: 2}

    def test_hand_track_survives_gap(self):
        c = np.array([0.05, 0.0, 2.0])
        mk = lambda: [HandInstance("cam0", "right", hand_vertices(c), 0.003)]
        out0 = self.hf.step(0, mk(), self.cals, [])
        tid = out0[0].hand_track_id
        out = self.hf.step(40, mk(), self.cals, [])
        assert out[0].hand_track_id == tid

    def test_hand_track_dies_after_long_gap(self):
        c = np.array([0.05, 0.0, 2.0])
        mk = lambda: [HandInstance("cam0", "right", hand_vertices(c), 0.003)]
        out0 = self.hf.step(0, mk(), self.cals, [])
        out = self.hf.step(200, mk(), self.cals, [])
        assert out[0].hand_track_id != out0[0].hand_track_id


def random_association_frames(rng, frames=25):
    """(frame, hands, persons) for one random sequence: up to four persons
    wandering in a 0.4 m box, arm joints dropping out at random (so the
    elbow and shoulder tiers come into play), and up to six hands that
    each follow one person at a fixed offset with jitter, missing some
    frames, in a random order each frame. Frames skip now and then."""
    n = int(rng.integers(1, 5))
    pids = rng.choice(np.arange(1, 9), n, replace=False)
    pos = rng.uniform(0.0, 0.4, size=(n, 3))
    hands = [(int(rng.integers(n)), SIDES[rng.integers(2)], rng.normal(0.0, 0.05, 3))
             for _ in range(rng.integers(1, 7))]
    frame = 0
    for _ in range(frames):
        frame += int(rng.integers(1, 3))
        pos += rng.normal(0.0, 0.02, pos.shape)
        persons = []
        for i, pid in enumerate(pids):
            if rng.random() < 0.1:
                continue
            joints = np.zeros((JOINT_COUNT, 3))
            avail = np.zeros(JOINT_COUNT, dtype=bool)
            for side in SIDES:
                for name, p in (("wrist", 0.8), ("elbow", 0.5), ("shoulder", 0.9)):
                    k = SIDE_JOINTS[side][name]
                    joints[k] = pos[i] + rng.normal(0.0, 0.03, 3)
                    avail[k] = rng.random() < p
            persons.append(TrackSnapshot(id=int(pid), existence=1.0, joints=joints,
                                         available=avail, detected=True))
        seen = [(side, pos[owner] + offset + rng.normal(0.0, 0.02, 3))
                for owner, side, offset in hands if rng.random() >= 0.15]
        yield frame, [seen[j] for j in rng.permutation(len(seen))], persons


class TestDeferredAcceptance:
    def test_matches_two_phase_oracle(self):
        """Deferred acceptance gives the two-phase method's person ids and
        votes on random sequences with persistence claims and evictions."""
        claims = evictions = 0
        for seed in range(150):
            new = HandFusion(FusionConfig(), HAND_SCHEMA)
            old = TwoPhaseHandFusion(FusionConfig(), HAND_SCHEMA)
            for frame, hands, persons in random_association_frames(np.random.default_rng(seed)):
                got = []
                for hf in (new, old):
                    fused = [FusedHand(side, np.tile(palm, (6, 1))) for side, palm in hands]
                    hf._match_hand_tracks(frame, fused)
                    hf.associate(frame, fused, persons)
                    got.append([(f.hand_track_id, f.person_id) for f in fused])
                assert got[0] == got[1], (seed, frame)
            assert new.votes == old.votes, seed
            claims += old.counts["claims"]
            evictions += old.counts["evictions"]
        assert claims > 0 and evictions > 0


@pytest.mark.parametrize("name", sorted(FRAME_SCENES))
def test_stacked_fusion_equals_per_hand_oracle(name):
    # The pipeline's hands and confirmed persons, frame by frame: the
    # stacked fusion gives each fused hand the anchors, track and person
    # of the per-hand loop, bit for bit, and keeps the same tracks, votes
    # and coexistence counts.
    sim, frames = rendered(name)
    tracker = Tracker(sim.cals, TrackerConfig())
    stacked = HandFusion(FusionConfig(), sim.hand_schema)
    oracle = PerHandFusion(FusionConfig(), sim.hand_schema)
    assigned = 0
    for frame, dets, hands in frames:
        persons = tracker.step(frame, dets)
        got = stacked.step(frame, hands, sim.cals, persons)
        want = oracle.step(frame, hands, sim.cals, persons)
        assert [(f.side, f.hand_track_id, f.person_id) for f in got] == [
            (f.side, f.hand_track_id, f.person_id) for f in want]
        for a, b in zip(got, want):
            assert np.array_equal(a.anchors, b.anchors)
        assigned += sum(f.person_id is not None for f in got)

    def tracks(hf):
        return {tid: (tr.side, tr.center.tolist(), tr.last_frame, tr.person, tr.prev_person)
                for tid, tr in hf.tracks.items()}

    assert tracks(stacked) == tracks(oracle)
    assert (stacked.votes, stacked.coexist, stacked.next_id) == (
        oracle.votes, oracle.coexist, oracle.next_id)
    assert assigned > len(frames)
