import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contacttrack.config import ContactConfig, FusionConfig, PipelineConfig, TrackerConfig
from contacttrack.contact import (
    ContactTracker,
    hysteresis_step,
    run_hysteresis,
    smooth_anchors,
)
from contacttrack.hand_fusion import FusedHand, HandFusion
from contacttrack.person_tracker import Tracker
from contacttrack.pipeline import _build_cloud
from contacttrack.semantic_map import SemanticCloud
from contacttrack.simulator import SceneDepthProvider, Simulator, SurfaceDistances

from helpers import (
    FRAME_SCENES,
    PerHandContactTracker,
    RecordContactTracker,
    induction_window,
    rendered,
)


def oracle_fsm(distances, tau_on, tau_off):
    """Literal transition-table reference for the hysteresis machine."""
    states = []
    active = False
    for d in distances:
        if active:
            if d > tau_off:
                active = False
        else:
            if d < tau_on:
                active = True
        states.append(active)
    return np.array(states)


class TestSmoothing:
    def test_alpha_one_passthrough(self):
        prev = np.zeros((6, 3))
        cur = np.random.default_rng(0).normal(size=(6, 3))
        assert np.allclose(smooth_anchors(prev, cur, 1.0), cur)

    def test_first_observation_passthrough(self):
        cur = np.ones((6, 3))
        assert np.allclose(smooth_anchors(None, cur, 0.5), cur)

    def test_half_step(self):
        prev = np.zeros((6, 3))
        cur = np.zeros((6, 3))
        cur[:, 0] = 1.0
        out = smooth_anchors(prev, cur, 0.5)
        assert np.allclose(out[:, 0], 0.5)
        assert np.allclose(out[:, 1:], 0.0)

    def test_constant_input_fixed_point(self):
        cur = np.full((6, 3), 0.3)
        s = smooth_anchors(None, cur, 0.5)
        for _ in range(5):
            s = smooth_anchors(s, cur, 0.5)
            assert np.allclose(s, cur)


class TestHysteresis:
    def test_never_active_above_on(self):
        assert not run_hysteresis([0.20] * 10, 0.12, 0.15).any()

    def test_hand_traced_sequence(self):
        seq = [0.20, 0.10, 0.13, 0.14, 0.16]
        out = run_hysteresis(seq, 0.12, 0.15)
        assert out.tolist() == [False, True, True, True, False]

    def test_boundary_is_strict(self):
        assert not hysteresis_step(False, 0.12, 0.12, 0.15)
        assert hysteresis_step(True, 0.15, 0.12, 0.15)  # holds at tau_off

    def test_matches_oracle_on_random_sequences(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            seq = rng.uniform(0.0, 0.3, size=rng.integers(1, 50))
            got = run_hysteresis(seq, 0.12, 0.15)
            assert np.array_equal(got, oracle_fsm(seq, 0.12, 0.15))

    def test_degenerate_equal_thresholds(self):
        rng = np.random.default_rng(8)
        seq = rng.uniform(0.0, 0.3, size=500)
        got = run_hysteresis(seq, 0.12, 0.12)
        assert np.array_equal(got, oracle_fsm(seq, 0.12, 0.12))

    def test_raising_tau_off_never_shrinks_active_set(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            seq = rng.uniform(0.0, 0.3, size=80)
            lo = run_hysteresis(seq, 0.12, 0.13)
            hi = run_hysteresis(seq, 0.12, 0.20)
            assert np.all(hi | ~lo)


def rec(frame, d=0.05, person=1, side="right", point=(0.0, 0.0, 0.0)):
    return (frame, d, np.asarray(point, dtype=float), person, side)


def merge_via_observe(records, cfg, label=-1):
    """Episodes from one (hand, label) stream of active-frame records fed
    through ContactTracker.observe; every record is below tau_on."""
    ct = ContactTracker(cfg)
    for frame, d, point, person, side in records:
        assert ct.observe(frame, 1, side, person, label, d, lambda: point)
    return ct.finalize()


class TestMergeEpisodes:
    """Episode assembly from active frames, through observe()."""

    def test_contiguous_run(self):
        cfg = ContactConfig()
        eps = merge_via_observe([rec(f) for f in range(10, 21)], cfg, label=3)
        assert len(eps) == 1
        assert (eps[0].t_start, eps[0].t_stop) == (10, 20)
        assert eps[0].surface_label == 3

    def test_gap_bridged(self):
        cfg = ContactConfig(max_gap_frames=2)
        frames = list(range(10, 15)) + list(range(17, 21))
        eps = merge_via_observe([rec(f) for f in frames], cfg)
        assert len(eps) == 1
        assert (eps[0].t_start, eps[0].t_stop) == (10, 20)

    def test_long_gap_splits(self):
        cfg = ContactConfig(max_gap_frames=2)
        frames = list(range(10, 15)) + list(range(20, 25))
        eps = merge_via_observe([rec(f) for f in frames], cfg)
        assert [(e.t_start, e.t_stop) for e in eps] == [(10, 14), (20, 24)]

    def test_short_episode_dropped(self):
        cfg = ContactConfig(min_episode_frames=3)
        assert merge_via_observe([rec(5), rec(6)], cfg) == []

    def test_contact_point_at_global_min(self):
        cfg = ContactConfig()
        records = [
            rec(10, 0.08, point=(1, 0, 0)),
            rec(11, 0.03, point=(2, 0, 0)),
            rec(12, 0.05, point=(3, 0, 0)),
        ]
        eps = merge_via_observe(records, cfg)
        assert eps[0].min_distance == pytest.approx(0.03)
        assert np.allclose(eps[0].contact_point, (2, 0, 0))

    def test_distance_tie_keeps_first_frame(self):
        cfg = ContactConfig()
        records = [
            rec(10, 0.05, point=(1, 0, 0)),
            rec(11, 0.03, point=(2, 0, 0)),
            rec(12, 0.03, point=(3, 0, 0)),
        ]
        eps = merge_via_observe(records, cfg)
        assert np.allclose(eps[0].contact_point, (2, 0, 0))

    def test_person_majority_vote(self):
        cfg = ContactConfig()
        records = [rec(10, person=2), rec(11, person=3), rec(12, person=3), rec(13, person=None)]
        eps = merge_via_observe(records, cfg)
        assert eps[0].person_id == 3

    def test_all_unassociated_person_none(self):
        cfg = ContactConfig()
        eps = merge_via_observe([rec(f, person=None) for f in range(5, 10)], cfg)
        assert eps[0].person_id is None

    def test_person_tie_goes_to_smallest_id(self):
        cfg = ContactConfig()
        records = [rec(10, person=7), rec(11, person=3), rec(12, person=7), rec(13, person=3)]
        assert merge_via_observe(records, cfg)[0].person_id == 3

    def test_first_side_kept(self):
        records = [rec(10, side="left"), rec(11), rec(12)]
        assert merge_via_observe(records, ContactConfig())[0].side == "left"


def flat_cloud(label=1, y=0.0, n=41):
    xs = np.linspace(-1.0, 1.0, n)
    pos = np.stack([xs, np.full(n, y), np.full(n, 0.8)], axis=1)
    return SemanticCloud(pos, np.full(n, label), {label: "table"})


def hand(anchors_center, hand_id=1, person=4, side="right"):
    a = np.tile(np.asarray(anchors_center, dtype=float), (6, 1))
    return FusedHand(side=side, anchors=a, hand_track_id=hand_id, person_id=person)


class TestContactTracker:
    def test_touch_produces_episode(self):
        cfg = ContactConfig()
        ct = ContactTracker(ContactConfig(ema_alpha=1.0))
        cloud = flat_cloud()
        # Approach, dwell within tau_on, retract.
        heights = [0.30, 0.20, 0.10, 0.05, 0.05, 0.05, 0.20, 0.30]
        for f, h in enumerate(heights):
            ct.update(f, [hand((0.0, 0.0, 0.8 + h))], cloud)
        eps = ct.finalize()
        assert len(eps) == 1
        ep = eps[0]
        assert ep.surface_label == 1
        assert ep.person_id == 4
        assert (ep.t_start, ep.t_stop) == (2, 5)
        assert ep.min_distance == pytest.approx(0.05)

    def test_ema_state_resets_after_gap(self):
        cfg = ContactConfig(ema_alpha=0.5, max_gap_frames=2)
        ct = ContactTracker(cfg)
        cloud = flat_cloud()
        ct.update(0, [hand((0.0, 0.0, 1.8))], cloud)
        # Long absence, then reappear touching; with a stale EMA the first
        # smoothed distance would be ~0.5 m, with a reset it is ~5 cm.
        ct.update(10, [hand((0.0, 0.0, 0.85))], cloud)
        key = (1, 1)
        assert ct._active[key]

    def test_traces_recorded(self):
        ct = ContactTracker(ContactConfig(ema_alpha=1.0))
        cloud = flat_cloud()
        rows = ct.update(0, [hand((0.0, 0.0, 1.0))], cloud)
        assert len(rows) == 1
        frame, hid, side, person, label, d = rows[0]
        assert (frame, hid, side, person, label) == (0, 1, "right", 4, 1)
        assert d == pytest.approx(0.2, abs=1e-6)

    def test_empty_cloud_no_state(self):
        ct = ContactTracker(ContactConfig())
        empty = SemanticCloud(np.zeros((0, 3)), np.zeros(0, dtype=int), {})
        assert ct.update(0, [hand((0, 0, 1.0))], empty) == []
        assert ct.finalize() == []

    def test_records_do_not_keep_the_cloud_alive(self):
        ct = ContactTracker(ContactConfig(ema_alpha=1.0))
        cloud = flat_cloud()
        positions = weakref.ref(cloud.positions.base)  # the array owning the points
        ct.update(0, [hand((0.0, 0.0, 0.85))], cloud)
        assert ct._open  # the hand is in contact, so an open episode holds a point
        del cloud
        gc.collect()
        assert positions() is None
        assert ct._open[(1, 1)].point.tolist() == [0.0, 0.0, 0.8]
        assert ct.finalize() == []  # one frame is shorter than min_episode_frames


class ScriptedCloud:
    """Stands in for a SemanticCloud: nearest_per_label answers the
    scripted {label: (distance, point)} for every hand, whatever the
    anchors."""

    def __init__(self, nearest):
        self.nearest = nearest

    def __len__(self):
        return len(self.nearest)

    def nearest_per_label(self, anchors):
        labels = sorted(self.nearest)
        d = np.array([[self.nearest[label][0] for label in labels]] * len(anchors))
        return labels, d, lambda h, k: self.nearest[labels[k]][1]


def episode_fields(episodes):
    return [
        (e.person_id, e.side, e.surface_label, e.t_start, e.t_stop,
         e.contact_point.tolist(), e.min_distance)
        for e in episodes
    ]


# Distances on and around the thresholds (0.12 on, 0.15 off), repeated so
# that ties on the least distance are common.
DISTANCES = st.one_of(
    st.sampled_from([0.0, 0.05, 0.05, 0.11999, 0.12, 0.13, 0.15, 0.15001, 0.3]),
    st.floats(0.0, 0.4),
)
HAND_STEP = st.tuples(
    st.sampled_from(["left", "right"]),
    st.sampled_from([None, 1, 2, 3]),
    st.dictionaries(st.integers(0, 2), st.tuples(DISTANCES, st.integers(0, 3)), max_size=3),
)
# Per frame: the frame increment (gaps of up to 4 frames) and the hands
# present, keyed by hand id.
FRAMES = st.lists(
    st.tuples(st.integers(1, 4), st.dictionaries(st.integers(1, 3), HAND_STEP, max_size=3)),
    max_size=40,
)
CONFIGS = st.builds(
    ContactConfig,
    ema_alpha=st.sampled_from([1.0, 0.5]),
    min_episode_frames=st.integers(1, 4),
    max_gap_frames=st.integers(0, 3),
)


def replay(tracker, frames):
    rows = []
    frame = 0
    for step, present in frames:
        frame += step
        for hand_id, (side, person, nearest) in present.items():
            cloud = ScriptedCloud({
                label: (d, np.array([d, label, k], dtype=float))
                for label, (d, k) in nearest.items()
            })
            one = hand((0.0, 0.0, 1.0), hand_id, person, side)
            rows.append(tracker.update(frame, [one], cloud))
    return rows, tracker.finalize()


class TestOnlineEpisodes:
    """Online folding matches merging every in-contact frame at the end."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(FRAMES, CONFIGS)
    def test_matches_per_frame_records(self, frames, cfg):
        rows, episodes = replay(ContactTracker(cfg), frames)
        want_rows, want = replay(RecordContactTracker(cfg), frames)
        assert rows == want_rows
        assert episode_fields(episodes) == episode_fields(want)

    def test_equal_sort_keys_order_by_hand_id(self):
        # Two hands of one person and side touch one label over the same
        # frames; hand 2 updates first but its episode sorts second.
        frames = [(1, {2: ("right", 4, {1: (0.05, 2)}), 1: ("right", 4, {1: (0.06, 1)})})] * 5
        cfg = ContactConfig()
        _, episodes = replay(ContactTracker(cfg), frames)
        _, want = replay(RecordContactTracker(cfg), frames)
        assert [e.min_distance for e in episodes] == [0.06, 0.05]
        assert episode_fields(episodes) == episode_fields(want)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(DISTANCES, max_size=60), st.floats(0.01, 0.3), st.floats(0.0, 0.1))
    def test_active_states_match_run_hysteresis(self, distances, tau_on, margin):
        ct = ContactTracker(ContactConfig(tau_on=tau_on, tau_off=tau_on + margin))
        got = [ct.observe(f, 1, "right", 1, 0, d, lambda: np.zeros(3))
               for f, d in enumerate(distances)]
        assert got == run_hysteresis(distances, tau_on, tau_on + margin).tolist()

    def test_memory_does_not_grow_with_contact_frames(self):
        cloud = ScriptedCloud({1: (0.05, np.array([0.0, 0.0, 0.8]))})

        def pickled_size(tracker, frames):
            for f in range(frames):
                tracker.update(f, [hand((0.0, 0.0, 0.85))], cloud)
            return len(pickle.dumps(tracker))

        small = pickled_size(ContactTracker(), 100)
        ct = ContactTracker()
        assert pickled_size(ct, 10_000) <= 2 * small
        assert list(ct._open) == [(1, 1)] and ct._closed == []
        # The per-frame reference grows past the bound, so the check bites.
        assert pickled_size(RecordContactTracker(), 10_000) > 2 * small


@pytest.fixture(scope="module")
def induction_surfaces():
    """The induction-lite surfaces as the pipeline's semantic map (built
    from the depth source's frame-0 lattice) and as the analytic
    SurfaceDistances that ground truth uses."""
    sim = Simulator(induction_window(), seed=0)
    table = {s.label: f"s{s.label}" for s in sim.scene["surfaces"]}
    cloud = _build_cloud(SceneDepthProvider(sim), sim.cals, 0, PipelineConfig(), table, "table")
    return {"map": cloud, "analytic": SurfaceDistances(sim.scene["surfaces"])}


@pytest.mark.parametrize("surfaces", ["map", "analytic"])
@pytest.mark.parametrize("name", sorted(FRAME_SCENES))
def test_frame_query_equals_per_hand_oracle(name, surfaces, induction_surfaces):
    # The pipeline's fused hands, frame by frame, against the induction
    # surfaces: one query per frame gives the trace rows and episodes of
    # one query per hand, bit for bit, contact points included.
    sim, frames = rendered(name)
    cloud = induction_surfaces[surfaces]
    tracker = Tracker(sim.cals, TrackerConfig())
    fusion = HandFusion(FusionConfig(), sim.hand_schema)
    stacked, oracle = ContactTracker(), PerHandContactTracker()
    rows = 0
    for frame, dets, hands in frames:
        fused = fusion.step(frame, hands, sim.cals, tracker.step(frame, dets))
        got = stacked.update(frame, fused, cloud)
        assert got == oracle.update(frame, fused, cloud)
        rows += len(got)
    assert rows >= 5 * len(frames)
    episodes, want = stacked.finalize(), oracle.finalize()
    assert episode_fields(episodes) == episode_fields(want)
    if name == "induction-window":
        assert episodes
