"""Hand-surface contact detection with hysteresis and online episode assembly.

Smoothed hand anchors are tested against the semantic surface cloud with
a per-(hand, label) hysteresis state machine. Each active frame folds into
its key's one open episode: gaps of at most max_gap_frames are bridged, a
longer gap closes the episode, and closed episodes shorter than
min_episode_frames are dropped. A key keeps no per-frame list, so memory
grows with the keys and the finished episodes, not with in-contact frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import ContactConfig


@dataclass
class ContactEpisode:
    person_id: int | None
    side: str
    surface_label: int
    t_start: int
    t_stop: int
    contact_point: np.ndarray
    min_distance: float


def episode_order(ep):
    """Episodes' canonical order: t_start, person (none as -1), side, label."""
    return ep.t_start, -1 if ep.person_id is None else ep.person_id, ep.side, ep.surface_label


def smooth_anchors(prev, current, alpha):
    """EMA step over the 6x3 anchor array; the first observation passes
    through unchanged."""
    current = np.asarray(current, dtype=float)
    if prev is None:
        return current.copy()
    return alpha * current + (1.0 - alpha) * np.asarray(prev, dtype=float)


def hysteresis_step(active, d, tau_on, tau_off):
    """One state-machine transition.

    Inactive turns active only on d strictly below tau_on; active turns
    inactive only on d strictly above tau_off; anything in between holds.
    """
    if not active:
        return d < tau_on
    return not (d > tau_off)


def run_hysteresis(distances, tau_on, tau_off, initial=False):
    """Apply the hysteresis machine over a distance sequence.

    Returns a boolean array of the per-step active state.
    """
    out = np.zeros(len(distances), dtype=bool)
    active = initial
    for i, d in enumerate(distances):
        active = hysteresis_step(active, d, tau_on, tau_off)
        out[i] = active
    return out


@dataclass
class _HandState:
    last_frame: int
    smoothed: np.ndarray


@dataclass
class _OpenEpisode:
    side: str
    t_start: int
    t_stop: int
    min_distance: float
    point: np.ndarray
    votes: dict  # person_id -> active frames


class ContactTracker:
    """Stateful per-sequence contact detector.

    Call update() once per frame with that frame's fused hands and
    semantic cloud, then finalize() for the episode list. update()
    returns the frame's per-(hand, label) distance trace rows for the
    caller to write out; replaying such rows through observe() yields the
    same episodes.

    A cloud is anything with len() and nearest_per_label(anchors), which
    takes the (H, 6, 3) smoothed anchors of H hands and returns (labels,
    distances, closest): the label ids in order, the (H, labels) table of
    least distances, and closest(h, k), which gives the surface point at
    distances[h, k]. Episodes keep few points, so observe() calls
    closest() only for a point it keeps.
    """

    def __init__(self, cfg: ContactConfig | None = None):
        self.cfg = cfg or ContactConfig()
        self._hands: dict[int, _HandState] = {}
        self._active: dict[tuple, bool] = {}
        self._open: dict[tuple, _OpenEpisode] = {}
        self._closed: list[tuple[int, ContactEpisode]] = []  # (hand_id, episode)

    def update(self, frame, hands, cloud):
        """Advance contact state for one frame's fused hands.

        hands: FusedHands with anchors, hand_track_id, side, person_id.
        Each hand's anchors are smoothed, then the cloud answers all hands
        in one nearest_per_label call. Returns the frame's trace rows in
        hand order and, per hand, in label order: (frame, hand_id, side,
        person_id, label, distance).
        """
        cfg = self.cfg
        smoothed = []
        for hand in hands:
            state = self._hands.get(hand.hand_track_id)
            if state is not None and frame - state.last_frame > cfg.max_gap_frames:
                state = None  # gap too long, restart the filter
            anchors = smooth_anchors(state.smoothed if state else None, hand.anchors, cfg.ema_alpha)
            self._hands[hand.hand_track_id] = _HandState(frame, anchors)
            smoothed.append(anchors)

        rows = []
        if not smoothed or len(cloud) == 0:
            return rows
        labels, distances, closest = cloud.nearest_per_label(np.stack(smoothed))
        for h, (hand, hand_d) in enumerate(zip(hands, distances.tolist())):
            hand_id, side, person = hand.hand_track_id, hand.side, hand.person_id
            for k, (label, d) in enumerate(zip(labels, hand_d)):
                self.observe(frame, hand_id, side, person, label, d, partial(closest, h, k))
                rows.append((frame, hand_id, side, person, label, d))
        return rows

    def observe(self, frame, hand_id, side, person_id, label, d, closest):
        """One hysteresis step for the (hand, label) key at distance d.

        An active frame folds into the key's open episode, which keeps its
        first side, the first frame of least distance and per-person frame
        counts; an active frame more than max_gap_frames after the open
        episode's last one closes it first. closest() gives the contact
        point at d, and is called only when the frame opens an episode or
        lowers its least distance. Frames must arrive in non-decreasing
        order per key. Returns the new active state.
        """
        cfg = self.cfg
        key = (hand_id, label)
        active = hysteresis_step(self._active.get(key, False), d, cfg.tau_on, cfg.tau_off)
        self._active[key] = active
        if not active:
            return False
        d = float(d)
        ep = self._open.get(key)
        if ep is not None and frame - ep.t_stop - 1 > cfg.max_gap_frames:
            self._close(key, ep)
            ep = None
        if ep is None:
            # Points are copied: a point is a row of the cloud's positions,
            # and a view would keep the whole frame's cloud alive.
            ep = self._open[key] = _OpenEpisode(
                side, frame, frame, d, np.array(closest(), dtype=float), {}
            )
        else:
            ep.t_stop = frame
            if d < ep.min_distance:
                ep.min_distance, ep.point = d, np.array(closest(), dtype=float)
        if person_id is not None:
            ep.votes[person_id] = ep.votes.get(person_id, 0) + 1
        return True

    def _close(self, key, ep):
        if ep.t_stop - ep.t_start + 1 < self.cfg.min_episode_frames:
            return
        votes = ep.votes
        person = min(votes, key=lambda p: (-votes[p], p)) if votes else None
        self._closed.append((key[0], ContactEpisode(
            person_id=person,
            side=ep.side,
            surface_label=key[1],
            t_start=ep.t_start,
            t_stop=ep.t_stop,
            contact_point=ep.point,
            min_distance=ep.min_distance,
        )))

    def finalize(self):
        """Close the open episodes at the end of the sequence and return
        all episodes, sorted by episode_order, then hand id."""
        for key, ep in self._open.items():
            self._close(key, ep)
        self._open.clear()
        self._closed.sort(key=lambda he: (*episode_order(he[1]), he[0]))
        return [ep for _, ep in self._closed]
