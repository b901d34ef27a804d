"""Multi-person 3D skeleton tracking across synchronized cameras.

Per-camera association against projected track joints, epipolar-gated
weighted triangulation, single-view depth lifting with a bone-length
plausibility gate, multi-camera births with ID reuse, and an
existence-score lifecycle. Triangulation is one batched kernel call per
track and per birth group, covering all of its joints that pass the view
gates; the epipolar gates take one stacked call per camera pair. All
state mutation happens in a single sequential commit per frame;
per-camera association is read-only on track state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TrackerConfig
from .geometry import (
    CameraCalibration,
    backproject,
    epipolar_distance,
    fundamental_matrix,
    hungarian_assign,
    project_many,
    triangulate_weighted,
)
from .schema import JOINT_COUNT, JointSchema


@dataclass
class PersonTrack:
    """One tracked person: 26 joints, availability flags, existence score."""

    id: int
    joints: np.ndarray  # (26, 3)
    available: np.ndarray  # (26,) bool
    existence: float
    last_update_frame: int
    confirmed: bool = False
    idle_frames: int = 0

    def centroid(self):
        if not self.available.any():
            return None
        return self.joints[self.available].mean(axis=0)


@dataclass
class TrackSnapshot:
    frame: int
    id: int
    existence: float
    joints: np.ndarray
    available: np.ndarray


def association_cost(tracks, dets, cal: CameraCalibration, tau_joint):
    """(n_tracks, n_dets) mean pixel error between each track's projected
    joints and each detection over the joints that are available, in front
    of the camera and detected with confidence >= tau_joint; inf where no
    joint qualifies. Each track is projected once."""
    dets = np.asarray(dets, dtype=float).reshape(-1, JOINT_COUNT, 3)
    cost = np.full((len(tracks), len(dets)), np.inf)
    if not len(tracks) or not len(dets):
        return cost
    uv, in_front = zip(*(project_many(t.joints, cal) for t in tracks))
    proj_ok = np.array([t.available for t in tracks]) & np.array(in_front)
    k = proj_ok[:, None, :] & (dets[:, :, 2] >= tau_joint)  # (n_t, n_d, 26)
    err = np.linalg.norm(np.array(uv)[:, None] - dets[:, :, :2], axis=3)
    # Mean over each pair's compressed row, grouped by its length, so the
    # sum adds the same values in the same order as a per-pair mean.
    rows = np.take_along_axis(err, np.argsort(~k, axis=2, kind="stable"), axis=2)
    count = k.sum(axis=2)
    for c in np.unique(count[count > 0]):
        pairs = count == c
        cost[pairs] = rows[pairs, :c].mean(axis=1)
    return cost


def associate_camera(tracks, dets, cal: CameraCalibration, cfg: TrackerConfig):
    """Match tracks to one camera's detections by mean pixel error over
    confident, available joints. Returns (matches, unmatched detection idxs);
    matches are (track_index, detection_index) pairs.
    """
    cost = association_cost(tracks, dets, cal, cfg.tau_joint)
    matches = hungarian_assign(cost, cfg.tau_mpjpe) if cost.size else []
    matched_d = {d for _, d in matches}
    return matches, [d for d in range(len(dets)) if d not in matched_d]


def _consistent_view_sets(dist, seen, tau_epi):
    """Greedy pairwise-consistent camera subsets, one per joint.

    dist: (K, n, n) symmetric epipolar distances, +inf on the diagonals;
    seen: (K, n) views that pass the confidence gate. For each joint,
    seeds with the lowest-distance pair of seen views under tau_epi (the
    first in row-major order on ties) and adds, in camera order, each seen
    view consistent with every member so far. Returns a (K, n) member
    mask, empty for joints without a seed pair.
    """
    K, n, _ = dist.shape
    d = np.where(seen[:, :, None] & seen[:, None, :], dist, np.inf)
    a, b = np.divmod(d.reshape(K, n * n).argmin(axis=1), n)
    rows = np.arange(K)
    seeded = d[rows, a, b] < tau_epi
    members = np.zeros((K, n), dtype=bool)
    members[rows[seeded], a[seeded]] = True
    members[rows[seeded], b[seeded]] = True
    close = d < tau_epi
    for c in range(n):
        members[:, c] |= seeded & (close[:, c, :] | ~members).all(axis=1)
    return members


def update_triangulated(track, obs_by_cam, cals, fmat, cfg: TrackerConfig):
    """Triangulate joints seen consistently in >= v_min cameras.

    obs_by_cam: {camera_id: (26, 3) joint array} of this track's matched
    detections. All joints that pass the view gates are triangulated in
    one batched call. Accepted joints overwrite the track with c=1 and are
    returned as a set of joint indices.
    """
    cam_ids = sorted(obs_by_cam)
    n = len(cam_ids)
    if n < cfg.v_min:
        return set()
    dets = np.stack([obs_by_cam[c] for c in cam_ids], axis=1)  # (26, n, 3)
    dist = np.full((JOINT_COUNT, n, n), np.inf)
    for a in range(n):
        for b in range(a + 1, n):
            F = fmat(cam_ids[a], cam_ids[b])
            dist[:, a, b] = dist[:, b, a] = epipolar_distance(dets[:, a, :2], dets[:, b, :2], F)
    members = _consistent_view_sets(dist, dets[:, :, 2] >= cfg.tau_joint, cfg.tau_epi)
    joints = np.flatnonzero(members.sum(axis=1) >= cfg.v_min)
    if not joints.size:
        return set()
    weights = np.where(members[joints], dets[joints, :, 2], 0.0)
    obs = [(cals[c], dets[joints, i, :2], weights[:, i]) for i, c in enumerate(cam_ids)]
    hint = np.where(track.available[joints, None], track.joints[joints], np.nan)
    X, err = triangulate_weighted(obs, init_hint=hint)
    ok = err < cfg.eps_tri
    track.joints[joints[ok]] = X[ok]
    track.available[joints[ok]] = True
    return set(joints[ok].tolist())


def depth_lift(track, unresolved, obs_by_cam, depth_provider, frame, cals,
               schema: JointSchema, cfg: TrackerConfig, fixed_joints=()):
    """Recover unresolved joints from single-view depth patches.

    Candidates pass the patch-variance and confidence gates, are
    back-projected, and survive only inside the largest bone-consistent
    connected component. Joints in fixed_joints (triangulated this frame)
    participate as immutable graph nodes. Returns the set of lifted joints.
    """
    candidates = {}
    for k in unresolved:
        best = None
        for cam_id in sorted(obs_by_cam):
            u, v, s = obs_by_cam[cam_id][k]
            if s < cfg.tau_joint:
                continue
            patch = depth_provider.patch(frame, cam_id, int(round(u)), int(round(v)), cfg.patch_w)
            valid = patch[patch > 0]
            if valid.size < 3:
                continue
            var = float(valid.var())
            if var > cfg.sigma_max_sq:
                continue
            key = (-s, cam_id, var)
            if best is None or key < best[0]:
                X = backproject(u, v, float(valid.mean()), cals[cam_id])
                best = (key, X, s)
        if best is not None:
            candidates[k] = (best[1], best[2])
    if not candidates:
        return set()

    # Bone-consistency graph over candidates plus fixed (triangulated) nodes.
    nodes = dict(candidates)
    for k in fixed_joints:
        nodes[k] = (track.joints[k], 1.0)
    parent = {k: k for k in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, L in schema.edges:
        if a in nodes and b in nodes:
            d = np.linalg.norm(nodes[a][0] - nodes[b][0])
            if cfg.bone_alpha * L <= d <= cfg.bone_beta * L:
                parent[find(a)] = find(b)

    comps = {}
    for k in nodes:
        comps.setdefault(find(k), []).append(k)
    # Largest component; ties break to the one holding the most confident joint.
    best_comp = max(
        comps.values(),
        key=lambda members: (len(members), max(nodes[m][1] for m in members), -min(members)),
    )
    lifted = set()
    for k in best_comp:
        if k in candidates:
            track.joints[k] = candidates[k][0]
            track.available[k] = True
            lifted.add(k)
    return lifted


def _group_unmatched(unmatched, cals, fmat, cfg: TrackerConfig):
    """Greedy epipolar grouping of unmatched detections into person hypotheses.

    unmatched: list of (camera_id, joints (26,3)). Returns groups as lists of
    indices into `unmatched`, each covering distinct cameras.
    """
    n = len(unmatched)
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            cam_a, ja = unmatched[a]
            cam_b, jb = unmatched[b]
            if cam_a == cam_b:
                continue
            shared = (ja[:, 2] >= cfg.tau_joint) & (jb[:, 2] >= cfg.tau_joint)
            if not shared.any():
                continue
            F = fmat(cam_a, cam_b)
            aff = float(np.mean(epipolar_distance(ja[shared, :2], jb[shared, :2], F)))
            if aff < cfg.tau_epi:
                pairs.append((aff, a, b))
    pairs.sort()

    group_of = {}
    groups = []
    for _, a, b in pairs:
        ga = group_of.get(a)
        gb = group_of.get(b)
        if ga is None and gb is None:
            groups.append([a, b])
            group_of[a] = group_of[b] = len(groups) - 1
        elif ga is not None and gb is None:
            cams = {unmatched[i][0] for i in groups[ga]}
            if unmatched[b][0] not in cams:
                groups[ga].append(b)
                group_of[b] = ga
        elif ga is None and gb is not None:
            cams = {unmatched[i][0] for i in groups[gb]}
            if unmatched[a][0] not in cams:
                groups[gb].append(a)
                group_of[a] = gb
        elif ga != gb:
            cams_a = {unmatched[i][0] for i in groups[ga]}
            cams_b = {unmatched[i][0] for i in groups[gb]}
            if not cams_a & cams_b:
                for i in groups[gb]:
                    group_of[i] = ga
                groups[ga].extend(groups[gb])
                groups[gb] = []
    return [g for g in groups if len({unmatched[i][0] for i in g}) >= 2]


class Tracker:
    """Owns track state; step() commits one frame in the spec's stage order."""

    def __init__(self, cals, cfg: TrackerConfig | None = None, schema: JointSchema | None = None):
        self.cals = dict(cals)
        self.cfg = cfg or TrackerConfig()
        self.schema = schema or JointSchema()
        self.tracks: list[PersonTrack] = []
        self.next_id = 1
        self._fcache = {}

    def _fmat(self, cam_a, cam_b):
        key = (cam_a, cam_b)
        if key not in self._fcache:
            self._fcache[key] = fundamental_matrix(self.cals[cam_a], self.cals[cam_b])
        return self._fcache[key]

    def step(self, frame, dets_by_cam, depth_provider=None):
        """Process one frame of per-camera detections.

        dets_by_cam: {camera_id: (P, 26, 3) array of (u, v, confidence)}.
        Returns snapshots of confirmed tracks.
        """
        cfg = self.cfg
        matched_obs = {i: {} for i in range(len(self.tracks))}  # track idx -> cam -> joints
        unmatched = []
        for cam_id in sorted(dets_by_cam):
            dets = [np.asarray(d, dtype=float) for d in dets_by_cam[cam_id]]
            matches, um = associate_camera(self.tracks, dets, self.cals[cam_id], cfg)
            for ti, di in matches:
                matched_obs[ti][cam_id] = dets[di]
            for di in um:
                unmatched.append((cam_id, dets[di]))

        updated_tracks = set()
        for ti, obs in matched_obs.items():
            if not obs:
                continue
            track = self.tracks[ti]
            tri = update_triangulated(track, obs, self.cals, self._fmat, cfg)
            lifted = set()
            if depth_provider is not None:
                unresolved = [k for k in range(JOINT_COUNT) if k not in tri]
                lifted = depth_lift(
                    track, unresolved, obs, depth_provider, frame, self.cals,
                    self.schema, cfg, fixed_joints=tri,
                )
            if tri or lifted:
                updated_tracks.add(ti)
                track.last_update_frame = frame

        born = self._spawn(unmatched, frame, updated_tracks)
        return self._lifecycle(frame, updated_tracks, born)

    # -- births ---------------------------------------------------------

    def _spawn(self, unmatched, frame, updated_tracks):
        cfg = self.cfg
        born = set()
        for group in _group_unmatched(unmatched, self.cals, self._fmat, cfg):
            members = [unmatched[i] for i in group]
            seen = np.stack([j[:, 2] >= cfg.tau_joint for _, j in members])
            todo = np.flatnonzero(seen.sum(axis=0) >= 2)
            joints = np.zeros((JOINT_COUNT, 3))
            avail = np.zeros(JOINT_COUNT, dtype=bool)
            if todo.size:
                obs = [
                    (self.cals[cam], j[todo, :2], np.where(seen[i, todo], j[todo, 2], 0.0))
                    for i, (cam, j) in enumerate(members)
                ]
                X, err = triangulate_weighted(obs)
                ok = err < cfg.eps_init
                joints[todo[ok]] = X[ok]
                avail[todo[ok]] = True
            if avail.sum() < cfg.min_birth_joints:
                continue
            centroid = joints[avail].mean(axis=0)

            # ID reuse: adopt into the nearest stale track within r_reuse.
            best = None
            for ti, track in enumerate(self.tracks):
                if ti in updated_tracks:
                    continue
                tc = track.centroid()
                if tc is None:
                    continue
                d = np.linalg.norm(tc - centroid)
                if d < cfg.r_reuse and (best is None or d < best[0]):
                    best = (d, ti)
            if best is not None:
                track = self.tracks[best[1]]
                track.joints[avail] = joints[avail]
                track.available |= avail
                track.last_update_frame = frame
                updated_tracks.add(best[1])
            else:
                self.tracks.append(
                    PersonTrack(
                        id=self.next_id,
                        joints=joints,
                        available=avail,
                        existence=cfg.e_init,
                        last_update_frame=frame,
                    )
                )
                self.next_id += 1
                born.add(len(self.tracks) - 1)
        return born

    # -- lifecycle ------------------------------------------------------

    def _lifecycle(self, frame, updated_tracks, born=()):
        cfg = self.cfg
        survivors = []
        out = []
        for ti, track in enumerate(self.tracks):
            if ti in born:
                pass  # fresh tracks keep e_init this frame
            elif ti in updated_tracks:
                track.existence = min(1.0, track.existence + cfg.e_up)
                track.idle_frames = 0
            else:
                track.existence *= cfg.decay_lambda
                track.idle_frames += 1
            if track.existence >= cfg.e_on:
                track.confirmed = True
            if track.existence <= cfg.e_off or track.idle_frames > cfg.max_inactive_frames:
                continue
            survivors.append(track)
            if track.confirmed:
                out.append(
                    TrackSnapshot(
                        frame=frame,
                        id=track.id,
                        existence=track.existence,
                        joints=track.joints.copy(),
                        available=track.available.copy(),
                    )
                )
        self.tracks = survivors
        return out
