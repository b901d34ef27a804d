"""Hand-surface contact detection with hysteresis and episode assembly.

Smoothed hand anchors are tested against the semantic surface cloud with
a per-(hand, label) hysteresis state machine; active frames merge into
contact episodes with gap bridging and a minimum-duration filter.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def merge_episodes(records, cfg: ContactConfig, label=-1):
    """Assemble episodes from one (hand, label) stream of active frames.

    records: list of (frame, distance, point, person_id, side), sorted by
    frame, one entry per active frame. Gaps of at most max_gap_frames are
    bridged; merged intervals shorter than min_episode_frames are dropped.
    The contact point is taken at the global minimum-distance frame.
    """
    if not records:
        return []
    runs = [[records[0]]]
    for rec in records[1:]:
        if rec[0] - runs[-1][-1][0] - 1 <= cfg.max_gap_frames:
            runs[-1].append(rec)
        else:
            runs.append([rec])
    episodes = []
    for run in runs:
        t_start, t_stop = run[0][0], run[-1][0]
        if t_stop - t_start + 1 < cfg.min_episode_frames:
            continue
        best = min(run, key=lambda r: (r[1], r[0]))
        persons = [r[3] for r in run if r[3] is not None]
        if persons:
            counts = {}
            for p in persons:
                counts[p] = counts.get(p, 0) + 1
            person = min(counts, key=lambda p: (-counts[p], p))
        else:
            person = None
        episodes.append(
            ContactEpisode(
                person_id=person,
                side=run[0][4],
                surface_label=label,
                t_start=t_start,
                t_stop=t_stop,
                contact_point=np.asarray(best[2], dtype=float),
                min_distance=float(best[1]),
            )
        )
    return episodes


@dataclass
class _HandState:
    last_frame: int
    smoothed: np.ndarray


class ContactTracker:
    """Stateful per-sequence contact detector.

    Call update() once per frame per fused hand with the frame's semantic
    cloud, then finalize() for the episode list. update() returns the
    hand's per-label distance trace rows for the caller to write out.
    """

    def __init__(self, cfg: ContactConfig | None = None):
        self.cfg = cfg or ContactConfig()
        self._hands: dict[int, _HandState] = {}
        self._active: dict[tuple, bool] = {}
        self._records: dict[tuple, list] = {}

    def update(self, frame, hand, cloud):
        """Advance contact state for one fused hand on one frame.

        hand: FusedHand with anchors, hand_track_id, side, person_id.
        Returns the frame's trace rows, one per surface label in label
        order: (frame, hand_id, side, person_id, label, distance).
        """
        cfg = self.cfg
        state = self._hands.get(hand.hand_track_id)
        if state is not None and frame - state.last_frame > cfg.max_gap_frames:
            state = None  # gap too long, restart the filter
        smoothed = smooth_anchors(
            state.smoothed if state else None, hand.anchors, cfg.ema_alpha
        )
        self._hands[hand.hand_track_id] = _HandState(frame, smoothed)

        rows = []
        if len(cloud) == 0:
            return rows
        for label, (d, point) in sorted(cloud.nearest_per_label(smoothed).items()):
            key = (hand.hand_track_id, label)
            active = hysteresis_step(self._active.get(key, False), d, cfg.tau_on, cfg.tau_off)
            self._active[key] = active
            if active:
                # A copy: the point is a row of the cloud's positions, and a
                # view would keep the whole frame's cloud alive.
                self._records.setdefault(key, []).append(
                    (frame, float(d), np.array(point, dtype=float), hand.person_id, hand.side)
                )
            rows.append((frame, hand.hand_track_id, hand.side, hand.person_id, label, float(d)))
        return rows

    def finalize(self):
        """All contact episodes, sorted by (t_start, person, side, label)."""
        episodes = []
        for (hand_id, label), records in sorted(self._records.items()):
            episodes.extend(merge_episodes(records, self.cfg, label))
        episodes.sort(
            key=lambda e: (
                e.t_start,
                -1 if e.person_id is None else e.person_id,
                e.side,
                e.surface_label,
            )
        )
        return episodes
