"""Tracking and contact metrics over predicted vs. ground-truth streams.

Per-frame Hungarian matching of floor-projected person centers feeds
IDF1/IDSW, counted in one pass over the frames; episode recall and
identity accuracy come from one table of the frames each predicted and
gt episode share, and framewise F1/IoU from one frame-key rule under a
visibility mask; a threshold sweep re-runs the contact stage on cached
distance traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

import numpy as np

from .config import ContactConfig
from .contact import ContactTracker, episode_order
from .geometry import hungarian_assign
from .schema import TORSO_JOINTS

SWEEP_HYSTERESIS_MARGIN = 0.03  # m, tau_off - tau_on in a threshold sweep
MATCH_RADIUS = 0.2  # m, floor distance gate of the per-frame track matching


@dataclass
class GroundTruth:
    """Per-frame true tracks, episodes, and hand visibility flags."""

    tracks: dict  # frame -> {person_id: (joints (26,3), available (26,))}
    episodes: list  # ContactEpisode records (person_id always set)
    visibility: dict = field(default_factory=dict)  # (frame, person, side) -> bool

    def visible(self, frame, person, side):
        return self.visibility.get((frame, person, side), True)


@dataclass
class EvalReport:
    """mot_metrics' idf1 and id_switches, then contact_metrics' fields."""

    idf1: float
    id_switches: int
    episode_recall: float
    binary_f1: float
    binary_iou: float
    semantic_f1: float
    semantic_iou: float
    identity_accuracy: float
    detected_episodes: int
    gt_episodes: int


def floor_center(joints, available):
    """Planar (x, y) center: mean of available torso joints, gravity axis
    dropped. None when no torso joint is available."""
    idx = [k for k in TORSO_JOINTS if available[k]]
    if not idx:
        return None
    return np.asarray(joints, dtype=float)[idx, :2].mean(axis=0)


def match_tracks(pred_by_frame, gt_by_frame):
    """Per-frame Hungarian matching of floor-projected centers, gated at
    MATCH_RADIUS.

    pred_by_frame / gt_by_frame: frame -> {id: (joints, available)}.
    Returns {frame: {gt_id: pred_id}} over the union of frames.
    """
    out = {}
    for frame in sorted(set(pred_by_frame) | set(gt_by_frame)):
        gts = gt_by_frame.get(frame, {})
        preds = pred_by_frame.get(frame, {})
        gt_ids = sorted(gts)
        pred_ids = sorted(preds)
        centers_g = [floor_center(*gts[g]) for g in gt_ids]
        centers_p = [floor_center(*preds[p]) for p in pred_ids]
        cost = np.full((len(gt_ids), len(pred_ids)), np.inf)
        for i, cg in enumerate(centers_g):
            if cg is None:
                continue
            for j, cp in enumerate(centers_p):
                if cp is None:
                    continue
                cost[i, j] = np.linalg.norm(cg - cp)
        pairs = hungarian_assign(cost, MATCH_RADIUS)
        out[frame] = {gt_ids[i]: pred_ids[j] for i, j in pairs}
    return out


def mot_metrics(correspondence, pred_by_frame, gt_by_frame):
    """IDF1 and identity switches of a per-frame correspondence, in one pass.

    IDF1 uses the optimal global one-to-one mapping between gt and
    predicted identities that maximizes identity true positives (among
    equal optima, hungarian_assign's lexicographically smallest pairs of
    sorted gt and predicted ids); IDSW counts strictly consecutive
    matched frames where a gt id's predicted id changes.
    """
    overlap = {}
    last = {}  # gt id -> (frame, pred id) of its latest match
    switches = 0
    for frame in sorted(correspondence):
        for g, p in correspondence[frame].items():
            overlap[(g, p)] = overlap.get((g, p), 0) + 1
            prev = last.get(g)
            if prev is not None and prev[0] == frame - 1 and prev[1] != p:
                switches += 1
            last[g] = (frame, p)
    gt_ids = sorted({g for g, _ in overlap})
    pred_ids = sorted({p for _, p in overlap})
    w = np.zeros((len(gt_ids), len(pred_ids)))
    for (g, p), n in overlap.items():
        w[gt_ids.index(g), pred_ids.index(p)] = n
    # Pairs that never overlapped cost 0, as leaving both unmatched does.
    pairs = hungarian_assign(-w, 0.0)
    idtp = sum(int(w[r, c]) for r, c in pairs)
    id_map = {pred_ids[c]: gt_ids[r] for r, c in pairs}
    # 2 IDTP + IDFP + IDFN: every gt and every predicted box, once.
    denom = sum(map(len, gt_by_frame.values())) + sum(map(len, pred_by_frame.values()))
    idf1 = (2 * idtp / denom) if denom else 1.0
    return idf1, switches, id_map


def _framewise_sets(pred_episodes, gt, id_map, semantic):
    """Micro F1 and IoU over framewise contact indicators, with one
    frame-key rule for both sides: (frame, person, side[, label]), the
    person mapped into gt id space through id_map (an empty one for the
    gt side), leaving out frames where that person's gt hand is flagged
    invisible. Predictions without a mapped person count as false."""
    def keys(episodes, mapping):
        out = set()
        for ep in episodes:
            person = mapping.get(ep.person_id, ep.person_id)
            for f in range(ep.t_start, ep.t_stop + 1):
                if person is not None and not gt.visible(f, person, ep.side):
                    continue
                key = (f, person, ep.side)
                out.add(key + (ep.surface_label,) if semantic else key)
        return out

    gt_set = keys(gt.episodes, {})
    pred_set = keys(pred_episodes, id_map)
    tp = len(pred_set & gt_set)
    union = len(pred_set | gt_set)  # tp + fp + fn
    if not union:
        return 1.0, 1.0
    return 2 * tp / (tp + union), tp / union


def contact_metrics(pred_episodes, gt: GroundTruth, id_map=None):
    """Episode recall, framewise binary/semantic F1 and IoU, identity accuracy.

    One table holds the frames each (predicted, gt) episode pair shares on
    one side and label. A gt episode is detected when any prediction shares
    a frame with it. Identity accuracy scores each prediction that shares
    frames against the gt episode sharing most, through id_map (from
    mot_metrics); a tie goes to the earliest t_start, then the lowest person
    id (no person as -1), as episode_order sorts, whatever the gt row order.
    With no gt episodes the recall is 1.0 (0 of 0), as the framewise scores
    are on empty sets.
    """
    id_map = id_map or {}
    gt_episodes = sorted(gt.episodes, key=episode_order)  # max() keeps the first of equals
    shared = [
        [
            min(pep.t_stop, gep.t_stop) - max(pep.t_start, gep.t_start) + 1
            if (pep.side, pep.surface_label) == (gep.side, gep.surface_label) else 0
            for gep in gt_episodes
        ]
        for pep in pred_episodes
    ]
    detected = sum(any(n > 0 for n in column) for column in zip(*shared))
    recall = detected / len(gt_episodes) if gt_episodes else 1.0

    binary_f1, binary_iou = _framewise_sets(pred_episodes, gt, id_map, semantic=False)
    semantic_f1, semantic_iou = _framewise_sets(pred_episodes, gt, id_map, semantic=True)

    matched = correct = 0
    for pep, row in zip(pred_episodes, shared):
        n, gep = max(zip(row, gt_episodes), key=itemgetter(0), default=(0, None))
        if n > 0:
            matched += 1
            correct += id_map.get(pep.person_id, pep.person_id) == gep.person_id
    identity_accuracy = correct / matched if matched else 0.0

    return {
        "episode_recall": recall,
        "detected_episodes": detected,
        "gt_episodes": len(gt_episodes),
        "binary_f1": binary_f1,
        "binary_iou": binary_iou,
        "semantic_f1": semantic_f1,
        "semantic_iou": semantic_iou,
        "identity_accuracy": identity_accuracy,
    }


def evaluate(pred_by_frame, pred_episodes, gt: GroundTruth):
    """Full evaluation of one recording; returns an EvalReport."""
    corr = match_tracks(pred_by_frame, gt.tracks)
    idf1, switches, id_map = mot_metrics(corr, pred_by_frame, gt.tracks)
    return EvalReport(idf1, switches, **contact_metrics(pred_episodes, gt, id_map))


def threshold_sweep(traces, gt: GroundTruth, grid, id_map=None):
    """Re-run the contact stage per threshold on cached distance traces.

    traces: iterable of (frame, hand_id, side, person_id, label, distance),
    replayed in frame order through ContactTracker.observe with the default
    contact settings. Returns rows (tau_on, binary_f1, binary_iou); tau_off
    is kept at tau_on + SWEEP_HYSTERESIS_MARGIN.
    """
    rows = sorted(traces, key=itemgetter(0))
    no_point = partial(np.zeros, 3)  # traces hold no contact points
    out = []
    for tau_on in grid:
        tracker = ContactTracker(
            ContactConfig(tau_on=tau_on, tau_off=tau_on + SWEEP_HYSTERESIS_MARGIN)
        )
        for frame, hand_id, side, person, label, d in rows:
            tracker.observe(frame, hand_id, side, person, label, d, no_point)
        f1, iou = _framewise_sets(tracker.finalize(), gt, id_map or {}, semantic=False)
        out.append((float(tau_on), f1, iou))
    return out
