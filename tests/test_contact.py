import gc
import weakref

import numpy as np
import pytest

from contacttrack.config import ContactConfig
from contacttrack.contact import (
    ContactTracker,
    hysteresis_step,
    merge_episodes,
    run_hysteresis,
    smooth_anchors,
)
from contacttrack.hand_fusion import FusedHand
from contacttrack.semantic_map import SemanticCloud


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


class TestMergeEpisodes:
    def test_contiguous_run(self):
        cfg = ContactConfig()
        eps = merge_episodes([rec(f) for f in range(10, 21)], cfg, label=3)
        assert len(eps) == 1
        assert (eps[0].t_start, eps[0].t_stop) == (10, 20)
        assert eps[0].surface_label == 3

    def test_gap_bridged(self):
        cfg = ContactConfig(max_gap_frames=2)
        frames = list(range(10, 15)) + list(range(17, 21))
        eps = merge_episodes([rec(f) for f in frames], cfg)
        assert len(eps) == 1
        assert (eps[0].t_start, eps[0].t_stop) == (10, 20)

    def test_long_gap_splits(self):
        cfg = ContactConfig(max_gap_frames=2)
        frames = list(range(10, 15)) + list(range(20, 25))
        eps = merge_episodes([rec(f) for f in frames], cfg)
        assert [(e.t_start, e.t_stop) for e in eps] == [(10, 14), (20, 24)]

    def test_short_episode_dropped(self):
        cfg = ContactConfig(min_episode_frames=3)
        assert merge_episodes([rec(5), rec(6)], cfg) == []

    def test_contact_point_at_global_min(self):
        cfg = ContactConfig()
        records = [
            rec(10, 0.08, point=(1, 0, 0)),
            rec(11, 0.03, point=(2, 0, 0)),
            rec(12, 0.05, point=(3, 0, 0)),
        ]
        eps = merge_episodes(records, cfg)
        assert eps[0].min_distance == pytest.approx(0.03)
        assert np.allclose(eps[0].contact_point, (2, 0, 0))

    def test_person_majority_vote(self):
        cfg = ContactConfig()
        records = [rec(10, person=2), rec(11, person=3), rec(12, person=3), rec(13, person=None)]
        eps = merge_episodes(records, cfg)
        assert eps[0].person_id == 3

    def test_all_unassociated_person_none(self):
        cfg = ContactConfig()
        eps = merge_episodes([rec(f, person=None) for f in range(5, 10)], cfg)
        assert eps[0].person_id is None


def flat_cloud(label=1, y=0.0, n=41):
    xs = np.linspace(-1.0, 1.0, n)
    pos = np.stack([xs, np.full(n, y), np.full(n, 0.8)], axis=1)
    return SemanticCloud(0, 0.01, pos, np.full(n, label), {label: "table"})


def hand(anchors_center, frame, hand_id=1, person=4, side="right"):
    a = np.tile(np.asarray(anchors_center, dtype=float), (6, 1))
    return FusedHand(
        frame=frame,
        side=side,
        vertices_world=a.copy(),
        palm_center=a[0],
        anchors=a,
        sigma_fit=0.003,
        source_cameras=["cam0"],
        hand_track_id=hand_id,
        person_id=person,
    )


class TestContactTracker:
    def test_touch_produces_episode(self):
        cfg = ContactConfig()
        ct = ContactTracker(ContactConfig(ema_alpha=1.0))
        cloud = flat_cloud()
        # Approach, dwell within tau_on, retract.
        heights = [0.30, 0.20, 0.10, 0.05, 0.05, 0.05, 0.20, 0.30]
        for f, h in enumerate(heights):
            ct.update(f, hand((0.0, 0.0, 0.8 + h), f), cloud)
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
        ct.update(0, hand((0.0, 0.0, 1.8), 0), cloud)
        # Long absence, then reappear touching; with a stale EMA the first
        # smoothed distance would be ~0.5 m, with a reset it is ~5 cm.
        ct.update(10, hand((0.0, 0.0, 0.85), 10), cloud)
        key = (1, 1)
        assert ct._active[key]

    def test_traces_recorded(self):
        ct = ContactTracker(ContactConfig(ema_alpha=1.0))
        cloud = flat_cloud()
        rows = ct.update(0, hand((0.0, 0.0, 1.0), 0), cloud)
        assert len(rows) == 1
        frame, hid, side, person, label, d = rows[0]
        assert (frame, hid, side, person, label) == (0, 1, "right", 4, 1)
        assert d == pytest.approx(0.2, abs=1e-6)

    def test_empty_cloud_no_state(self):
        ct = ContactTracker(ContactConfig())
        empty = SemanticCloud(0, 0.01, np.zeros((0, 3)), np.zeros(0, dtype=int), {})
        assert ct.update(0, hand((0, 0, 1.0), 0), empty) == []
        assert ct.finalize() == []

    def test_records_do_not_keep_the_cloud_alive(self):
        ct = ContactTracker(ContactConfig(ema_alpha=1.0))
        cloud = flat_cloud()
        positions = weakref.ref(cloud.positions.base)  # the array owning the points
        ct.update(0, hand((0.0, 0.0, 0.85), 0), cloud)
        assert ct._records  # the hand is in contact, so a record holds a point
        del cloud
        gc.collect()
        assert positions() is None
        assert ct._records[(1, 1)][0][2].tolist() == [0.0, 0.0, 0.8]
