"""Tracking and contact metrics over predicted vs. ground-truth streams.

Per-frame Hungarian matching of floor-projected person centers feeds
IDF1/IDSW; episode and framewise contact metrics compare predicted
episodes against ground truth under a visibility mask; a threshold sweep
re-runs the contact stage on cached distance traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

import numpy as np

from .config import ContactConfig
from .contact import ContactTracker
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
    """IDF1 and identity switches from a per-frame correspondence.

    IDF1 uses the optimal global one-to-one mapping between gt and
    predicted identities that maximizes identity true positives (among
    equal optima, hungarian_assign's lexicographically smallest pairs of
    sorted gt and predicted ids); IDSW
    counts strictly consecutive matched frames where a gt id's predicted
    id changes.
    """
    overlap = {}
    for frame, pairs in correspondence.items():
        for g, p in pairs.items():
            overlap[(g, p)] = overlap.get((g, p), 0) + 1
    gt_total = sum(len(v) for v in gt_by_frame.values())
    pred_total = sum(len(v) for v in pred_by_frame.values())

    gt_ids = sorted({g for g, _ in overlap})
    pred_ids = sorted({p for _, p in overlap})
    idtp = 0
    id_map = {}
    if overlap:
        w = np.zeros((len(gt_ids), len(pred_ids)))
        for (g, p), n in overlap.items():
            w[gt_ids.index(g), pred_ids.index(p)] = n
        # Pairs that never overlapped cost 0, as leaving both unmatched does.
        for r, c in hungarian_assign(-w, 0.0):
            idtp += int(w[r, c])
            id_map[pred_ids[c]] = gt_ids[r]
    denom = 2 * idtp + (pred_total - idtp) + (gt_total - idtp)
    idf1 = (2 * idtp / denom) if denom else 1.0

    switches = 0
    frames = sorted(correspondence)
    for g in {g for pairs in correspondence.values() for g in pairs}:
        prev_frame = prev_pred = None
        for frame in frames:
            p = correspondence[frame].get(g)
            if p is None:
                continue
            if prev_pred is not None and frame == prev_frame + 1 and p != prev_pred:
                switches += 1
            prev_frame, prev_pred = frame, p
    return idf1, switches, id_map


def _episode_frames(ep):
    return range(ep.t_start, ep.t_stop + 1)


def _framewise_sets(pred_episodes, gt, id_map, semantic):
    """Micro TP/FP/FN counts over framewise contact indicators.

    Prediction person ids are mapped into gt id space through id_map;
    predictions without a mapped person still count as positives (false
    unless they land on a gt-active frame, which they cannot). Frames
    where the gt hand is flagged invisible are excluded on both sides.
    """
    def key(person, side, label):
        return (person, side, label) if semantic else (person, side)

    gt_set = set()
    for ep in gt.episodes:
        for f in _episode_frames(ep):
            if gt.visible(f, ep.person_id, ep.side):
                gt_set.add((f,) + key(ep.person_id, ep.side, ep.surface_label))
    pred_set = set()
    for ep in pred_episodes:
        person = id_map.get(ep.person_id, ep.person_id)
        for f in _episode_frames(ep):
            if person is not None and not gt.visible(f, person, ep.side):
                continue
            pred_set.add((f,) + key(person, ep.side, ep.surface_label))
    tp = len(pred_set & gt_set)
    fp = len(pred_set - gt_set)
    fn = len(gt_set - pred_set)
    f1 = 2 * tp / (2 * tp + fp + fn) if (tp + fp + fn) else 1.0
    iou = tp / (tp + fp + fn) if (tp + fp + fn) else 1.0
    return f1, iou


def contact_metrics(pred_episodes, gt: GroundTruth, id_map=None):
    """Episode recall, framewise binary/semantic F1 and IoU, identity accuracy.

    id_map translates predicted person ids into gt id space (from
    mot_metrics); identity accuracy scores matched predicted episodes
    against the gt episode identity. With no gt episodes the recall is
    1.0 (0 of 0 detected), as the framewise scores are on empty sets.
    """
    id_map = id_map or {}

    detected = 0
    for gep in gt.episodes:
        for pep in pred_episodes:
            if (
                pep.side == gep.side
                and pep.surface_label == gep.surface_label
                and pep.t_start <= gep.t_stop
                and pep.t_stop >= gep.t_start
            ):
                detected += 1
                break
    recall = detected / len(gt.episodes) if gt.episodes else 1.0

    binary_f1, binary_iou = _framewise_sets(pred_episodes, gt, id_map, semantic=False)
    semantic_f1, semantic_iou = _framewise_sets(pred_episodes, gt, id_map, semantic=True)

    matched = correct = 0
    for pep in pred_episodes:
        best = None
        for gep in gt.episodes:
            if pep.side != gep.side or pep.surface_label != gep.surface_label:
                continue
            lo = max(pep.t_start, gep.t_start)
            hi = min(pep.t_stop, gep.t_stop)
            if hi - lo + 1 >= 1 and (best is None or hi - lo > best[0]):
                best = (hi - lo, gep)
        if best is None:
            continue
        matched += 1
        mapped = id_map.get(pep.person_id, pep.person_id)
        if mapped == best[1].person_id:
            correct += 1
    identity_accuracy = correct / matched if matched else 0.0

    return {
        "episode_recall": recall,
        "detected_episodes": detected,
        "gt_episodes": len(gt.episodes),
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
