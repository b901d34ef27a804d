"""World-frame hand fusion, hand-to-person association, and ID stitching.

A frame's per-camera metric hand reconstructions are stacked and their
anchor vertices lifted to the world frame in one pass, clustered per
side on their palm centers, reduced to one representative per cluster,
and attached to tracked persons' side slots by deferred acceptance with
a persistence-first preference. Palm distances to the hand tracks and to
the persons' arm joints come from one table per frame. Re-association votes
accumulated across the sequence drive an end-of-run merge of fragmented
person IDs, vetoed for pairs of ids that were seen together.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .config import FusionConfig
from .geometry import cameras_to_world, norms
from .schema import SIDE_JOINTS, HandSchema

SIDES = ("left", "right")
COEXIST_FRAMES = 3  # frames two person ids share before they may never merge


@dataclass
class HandInstance:
    """One camera's metric hand reconstruction in that camera's frame."""

    camera_id: str
    side: str
    vertices: np.ndarray  # (N, 3) meters, camera frame
    sigma_fit: float


@dataclass
class FusedHand:
    """World-frame hand instance after cross-camera fusion."""

    side: str
    anchors: np.ndarray  # (6, 3): palm centroid then five fingertips
    hand_track_id: int = -1
    person_id: int | None = None

    @property
    def palm_center(self):
        return self.anchors[0]


def dbscan(points, eps, min_pts):
    """Plain DBSCAN over 3D points with deterministic index-order expansion.

    Returns an integer label per point. Noise points are kept as singleton
    clusters so a hand seen by a single camera survives fusion. Every
    point's neighbour list, in index order, comes from one pass over the
    pairwise distance table.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    rows, cols = np.nonzero(dist <= eps)
    counts = np.bincount(rows, minlength=n)
    cols = cols.tolist()
    ends = np.cumsum(counts).tolist()
    neighbors = [cols[end - count:end] for end, count in zip(ends, counts.tolist())]
    core = (counts >= min_pts).tolist()
    labels = [-1] * n
    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster
        queue = list(neighbors[i])
        qi = 0
        while qi < len(queue):
            j = queue[qi]
            qi += 1
            if labels[j] != -1:
                continue
            labels[j] = cluster
            if core[j]:
                queue.extend(neighbors[j])
        cluster += 1
    for i in range(n):
        if labels[i] == -1:
            labels[i] = cluster
            cluster += 1
    return np.array(labels, dtype=int)


def cluster_hands(palm_centers, sides, eps, min_pts):
    """Per-side DBSCAN partition of same-frame hand instances.

    palm_centers: (H, 3); sides: length-H side labels. Returns a list of
    index lists, ordered by (side, cluster id) with left before right.
    """
    palm_centers = np.asarray(palm_centers, dtype=float).reshape(-1, 3)
    clusters = []
    for side in SIDES:
        idx = [i for i, s in enumerate(sides) if s == side]
        if not idx:
            continue
        labels = dbscan(palm_centers[idx], eps, min_pts).tolist()
        members = [[] for _ in range(max(labels) + 1)]
        for i, label in zip(idx, labels):
            members[label].append(i)
        clusters.extend(members)
    return clusters


def select_representative(cluster, sigma_fits, camera_ids):
    """Index of the cluster member with minimum sigma_fit, ties to the
    lexicographically lowest camera_id."""
    return min(cluster, key=lambda i: (sigma_fits[i], camera_ids[i]))


def stitch_ids(votes, min_votes=3, forbidden=frozenset()):
    """Greedy one-to-one merge of fragment IDs into persistent IDs.

    votes: {(fragment_id, persistent_id): count}. Pairs are taken by
    descending count (deterministic tie-break on the id pair), pairs below
    min_votes or listed in forbidden are skipped, and each id is used at
    most once per role. Chains resolve transitively so the returned mapping
    sends every fragment directly to its final id.
    """
    order = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    mapping = {}
    used_targets = set()
    for (frag, pers), count in order:
        if count < min_votes or frag == pers:
            continue
        if (frag, pers) in forbidden:
            continue
        if frag in mapping or pers in used_targets:
            continue
        mapping[frag] = pers
        used_targets.add(pers)
    for frag in list(mapping):
        target = mapping[frag]
        seen = {frag}
        while target in mapping and target not in seen:
            seen.add(target)
            target = mapping[target]
        if target == frag:
            del mapping[frag]  # degenerate cycle, keep both ids
        else:
            mapping[frag] = target
    return mapping


@dataclass
class _HandTrack:
    id: int
    side: str
    center: np.ndarray
    last_frame: int
    person: int | None = None
    prev_person: int | None = None


class HandFusion:
    """Per-frame hand fusion and association against confirmed person tracks."""

    def __init__(self, cfg: FusionConfig | None = None, hand_schema: HandSchema | None = None):
        self.cfg = cfg or FusionConfig()
        self.hand_schema = hand_schema or HandSchema()
        # Cross-frame state.
        self.tracks = {}     # hand_track_id -> _HandTrack
        self.votes = {}      # (new_id, prev_id) -> count
        self.next_id = 1     # next hand_track_id
        self.coexist = {}    # (id, larger id) -> frames

    # -- fusion -----------------------------------------------------------

    def fuse(self, hands, cals):
        """Cluster per-camera hand instances and pick one per cluster.

        hands: list of HandInstance, pre-sorted by (camera_id, index).
        The hands are stacked, and only their anchor vertices move to the
        world frame. Returns FusedHand records without track or person
        assignment.
        """
        if not hands:
            return []
        schema = self.hand_schema
        local = schema.anchor_vertices(np.stack([h.vertices for h in hands]))
        anchors = schema.anchors_of(
            cameras_to_world(local, [cals[h.camera_id] for h in hands]))
        sides = [h.side for h in hands]
        sigma = [h.sigma_fit for h in hands]
        cam_ids = [h.camera_id for h in hands]
        fused = []
        for members in cluster_hands(anchors[:, 0], sides, self.cfg.dbscan_eps,
                                     self.cfg.dbscan_min_pts):
            rep = select_representative(members, sigma, cam_ids)
            fused.append(FusedHand(side=hands[rep].side, anchors=anchors[rep]))
        return fused

    # -- hand track continuity ---------------------------------------------

    def _motion_gate(self, frame, track):
        """Palm travel allowed since the track's last frame (a gap >= 1)."""
        cfg = self.cfg
        return cfg.v_max * max(frame - track.last_frame, 1) / cfg.fps + cfg.slack_delta

    def _match_hand_tracks(self, frame, fused):
        """Attach fused hands to surviving hand tracks by palm distance.

        The motion gate scales with the elapsed gap so a hand track can
        survive short occlusions. Unmatched hands open new tracks.
        """
        cfg = self.cfg
        alive = {
            tid: tr for tid, tr in self.tracks.items()
            if frame - tr.last_frame <= cfg.hand_gap_frames
        }
        self.tracks = dict(alive)
        pairs = []
        if fused and alive:
            tracks = list(alive.values())
            dist = norms(np.array([fh.palm_center for fh in fused])[:, None]
                         - np.array([tr.center for tr in tracks]))
            gate = np.array([self._motion_gate(frame, tr) for tr in tracks])
            same_side = np.array([fh.side for fh in fused])[:, None] == [tr.side for tr in tracks]
            fi, ti = np.nonzero(same_side & (dist < gate))
            pairs = [(d, f, tracks[t].id)
                     for d, f, t in zip(dist[fi, ti].tolist(), fi.tolist(), ti.tolist())]
        pairs.sort()
        taken_f, taken_t = set(), set()
        for d, fi, tid in pairs:
            if fi in taken_f or tid in taken_t:
                continue
            taken_f.add(fi)
            taken_t.add(tid)
            # Track center and last_frame update at commit time so the
            # persistence gate still sees the previous frame's center.
            fused[fi].hand_track_id = tid
        for fi, fh in enumerate(fused):
            if fi in taken_f:
                continue
            tid = self.next_id
            self.next_id += 1
            self.tracks[tid] = _HandTrack(
                id=tid, side=fh.side, center=fh.palm_center, last_frame=frame
            )
            fh.hand_track_id = tid

    # -- person association -------------------------------------------------

    @staticmethod
    def _person_distances(fused, persons):
        """(priority tier, distance) lists per fused hand and person, to
        the person's side-matching arm joint; tier None where the person
        has none.

        Tier 0 is the wrist, 1 the elbow, 2 the shoulder; the highest
        priority joint available on the person track is used.
        """
        if not persons:
            return [[] for _ in fused], [[] for _ in fused]
        joints = np.array([p.joints for p in persons])
        available = np.array([p.available for p in persons])
        tiers, targets = {}, {}
        for side in SIDES:
            arm = [SIDE_JOINTS[side][name] for name in ("wrist", "elbow", "shoulder")]
            tier = available[:, arm].argmax(axis=1)
            tiers[side] = [t if ok else None
                           for t, ok in zip(tier.tolist(), available[:, arm].any(axis=1))]
            targets[side] = joints[np.arange(len(persons)), np.array(arm)[tier]]
        palms = np.array([fh.palm_center for fh in fused])
        dist = norms(palms[:, None] - np.array([targets[fh.side] for fh in fused]))
        return [tiers[fh.side] for fh in fused], dist.tolist()

    def associate(self, frame, fused, persons):
        """Assign fused hands to person side slots by deferred acceptance;
        record stitch votes.

        Each hand ranks the persons within tau_assoc by (tier, distance,
        id), with its track's previous person first if that person is
        still confirmed and within tau_assoc, the palm moved less than the
        motion gate and no earlier hand in fused order keeps that slot.
        The radius check stops a hand swapped onto the wrong person while
        two people pass each other from staying locked to them. Free
        hands, persisting ones first, propose down their lists; a (person,
        side) slot keeps the strictly lower (tier, distance), the holder on
        a tie, and an evicted hand proposes on from where it stopped.

        persons: confirmed TrackSnapshot list for this frame. Mutates the
        fused records in place and returns them.
        """
        if not fused:
            return fused
        cfg = self.cfg
        prefs, free = [], deque()
        kept = set()  # (person_id, side) slots a persisting hand heads its list with
        tiers, dists = self._person_distances(fused, persons)
        tracks = [self.tracks[fh.hand_track_id] for fh in fused]
        moved = norms(np.array([fh.palm_center for fh in fused])
                      - np.array([tr.center for tr in tracks])).tolist()
        for fi, (fh, tr) in enumerate(zip(fused, tracks)):
            opts = sorted(
                (tier, d, p.id) for tier, d, p in zip(tiers[fi], dists[fi], persons)
                if tier is not None and d < cfg.tau_assoc
            )
            if (
                any(pid == tr.person for _, _, pid in opts)
                and (tr.person, fh.side) not in kept
                and moved[fi] < self._motion_gate(frame, tr)
            ):
                kept.add((tr.person, fh.side))
                opts.sort(key=lambda o: o[2] != tr.person)  # stable: the rest keep their order
                free.appendleft(fi)
            else:
                free.append(fi)
            prefs.append(iter(opts))

        held = {}  # (person_id, side) -> (tier, distance, fused index)
        while free:
            fi = free.popleft()
            side = fused[fi].side
            for tier, d, pid in prefs[fi]:
                holder = held.get((pid, side))
                if holder is None or (tier, d) < holder[:2]:
                    held[(pid, side)] = (tier, d, fi)
                    if holder is not None:
                        free.append(holder[2])
                    break
        person_of = {fi: pid for (pid, _), (_, _, fi) in held.items()}

        # Commit: update hand tracks, cast per-frame re-association votes.
        for fi, fh in enumerate(fused):
            tr = self.tracks[fh.hand_track_id]
            tr.center = fh.palm_center
            tr.last_frame = frame
            pid = person_of.get(fi)
            fh.person_id = pid
            if pid is not None:
                if pid != tr.person:
                    tr.prev_person = tr.person
                    tr.person = pid
                if tr.prev_person is not None and pid != tr.prev_person:
                    key = (pid, tr.prev_person)
                    self.votes[key] = self.votes.get(key, 0) + 1
        return fused

    def _count_coexistence(self, persons):
        """Count the frame for each pair of persons that both received
        detections this frame (TrackSnapshot.detected, which the tracker
        sets); a dying track coasting beside its replacement must not
        block stitching them."""
        active = sorted(p.id for p in persons if p.detected)
        for i, a in enumerate(active):
            for b in active[i + 1:]:
                self.coexist[(a, b)] = self.coexist.get((a, b), 0) + 1

    def step(self, frame, hands, cals, persons):
        """Fuse one frame of hand instances and associate them to persons."""
        self._count_coexistence(persons)
        fused = self.fuse(hands, cals)
        self._match_hand_tracks(frame, fused)
        return self.associate(frame, fused, persons)

    def stitch_mapping(self):
        """Fragment-to-persistent id mapping from the accumulated votes,
        never merging ids that coexisted for COEXIST_FRAMES frames."""
        strong = {pair for pair, n in self.coexist.items() if n >= COEXIST_FRAMES}
        forbidden = strong | {(b, a) for a, b in strong}
        return stitch_ids(self.votes, self.cfg.stitch_min_votes, forbidden)
