"""Multi-person 3D skeleton tracking across synchronized cameras.

Association against track joints projected into every camera in one
stacked pass per frame (one gated assignment per camera, which
hungarian_assign solves component by component), epipolar-gated
weighted triangulation, single-view depth lifting with a bone-length
plausibility gate, multi-camera births with ID reuse, and an
existence-score lifecycle. Each frame triangulates every matched track's
joints that pass the view gates in one batched kernel call, after one
stacked epipolar call per camera pair over all of those tracks. Births
take one stacked epipolar call per camera pair over the unmatched
detections, and one more kernel call for every birth group's joints,
each group's views packed in its pair-merge order. Depth lifting reads
patches fetched before any track is lifted, with one depth-source call
per frame for every track's unresolved joints in every camera, and
lifts every matched track in one pass.
Association reads track state only. The frame then mutates
tracks in four steps, in order: update_triangulated writes the accepted
joints of the matched tracks, depth_lift writes the lifted joints of
every matched track, _spawn adopts birth groups into stale tracks or
appends new ones, and _lifecycle updates existence scores and drops
dead tracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import TrackerConfig
from .geometry import (
    epipolar_distance,
    fundamental_matrix,
    hungarian_assign,
    norms,
    project_cameras,
    triangulate_weighted,
)
from .schema import BONES, JOINT_COUNT


@dataclass
class PersonTrack:
    """One tracked person: 26 joints, availability flags, existence score."""

    id: int
    joints: np.ndarray  # (26, 3)
    available: np.ndarray  # (26,) bool
    existence: float
    confirmed: bool = False
    idle_frames: int = 0

    def centroid(self):
        """Mean of the available joints. Births need min_birth_joints >= 1
        of them and nothing clears one, so a track always has some."""
        return self.joints[self.available].mean(axis=0)


@dataclass
class TrackSnapshot:
    id: int
    existence: float
    joints: np.ndarray
    available: np.ndarray
    detected: bool  # born, updated or adopted from this frame's detections


def _compressed(values, mask):
    """(rows, count): values with each row's masked entries moved, in
    order, to its front, and their count per row (along the last axis).
    Rows averaged in groups of equal count, rows[same, :c], add the same
    values in the same order as a per-row mean of the masked entries."""
    rows = np.take_along_axis(values, np.argsort(~mask, axis=-1, kind="stable"), axis=-1)
    return rows, mask.sum(axis=-1)


def _masked_mean(values, mask):
    """Mean of values over mask along the last axis; inf where the mask is
    empty, each the float a per-row mean gives (see _compressed)."""
    rows, count = _compressed(values, mask)
    out = np.full(count.shape, np.inf)
    for c in np.flatnonzero(np.bincount(count.ravel())[1:]) + 1:
        same = count == c
        out[same] = rows[same, :c].mean(axis=-1)
    return out


def association_costs(tracks, dets_by_cam, cals, tau_joint):
    """{camera_id: (n_tracks, n_dets) cost} for the cameras of dets_by_cam,
    in camera order: the mean pixel error between each track's projected
    joints and each detection over the joints that are available, in
    front of the camera and detected with confidence >= tau_joint; inf
    where no joint qualifies. Every track is projected into every camera
    in one stacked pass, and each camera's detections are padded to the
    most any camera has, so one masked mean serves the whole frame."""
    cam_ids = sorted(dets_by_cam)
    counts = [len(dets_by_cam[c]) for c in cam_ids]
    if not tracks or not any(counts):
        return {c: np.full((len(tracks), n), np.inf) for c, n in zip(cam_ids, counts)}
    dets = np.zeros((len(cam_ids), max(counts), JOINT_COUNT, 3))
    for i, c in enumerate(cam_ids):
        dets[i, :counts[i]] = np.asarray(dets_by_cam[c], dtype=float).reshape(-1, JOINT_COUNT, 3)
    real = np.arange(dets.shape[1]) < np.array(counts)[:, None]  # (C, D)
    uv, in_front = project_cameras(np.concatenate([t.joints for t in tracks]),
                                   [cals[c] for c in cam_ids])
    shape = (len(cam_ids), len(tracks), 1, JOINT_COUNT)  # (C, T, 1, 26)
    proj_ok = np.array([t.available for t in tracks])[:, None] & in_front.reshape(shape)
    k = proj_ok & ((dets[:, :, :, 2] >= tau_joint) & real[:, :, None])[:, None]  # (C, T, D, 26)
    err = np.linalg.norm(uv.reshape(*shape, 2) - dets[:, None, :, :, :2], axis=4)
    cost = _masked_mean(err, k)
    return {c: cost[i, :, :n] for i, (c, n) in enumerate(zip(cam_ids, counts))}


def associate_camera(tracks, dets_by_cam, cals, cfg: TrackerConfig):
    """Match tracks to each camera's detections by mean pixel error over
    confident, available joints: one stacked cost pass for the frame, then
    one hungarian_assign call per camera. Returns {camera_id: (matches,
    unmatched detection idxs)} in camera order; matches are (track_index,
    detection_index) pairs.
    """
    out = {}
    for cam_id, cost in association_costs(tracks, dets_by_cam, cals, cfg.tau_joint).items():
        matches = hungarian_assign(cost, cfg.tau_mpjpe) if cost.size else []
        matched_d = {d for _, d in matches}
        out[cam_id] = matches, [d for d in range(cost.shape[1]) if d not in matched_d]
    return out


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


def update_triangulated(tracks, obs_by_track, cals, fmat, cfg: TrackerConfig):
    """Triangulate the joints of every matched track in one kernel call.

    obs_by_track: {track index: {camera_id: (26, 3) joint array}} of the
    tracks' matched detections this frame. The frame's cameras are the
    sorted union of the cameras in obs_by_track; each (track, joint) row
    gets zero weight in a camera that did not see its track. The epipolar
    gates take one stacked call per camera pair over the joints of every
    track seen in both, and each row's view set is picked as if its track
    were alone. Rows whose view set holds >= v_min cameras are solved in
    one batched triangulate_weighted call, which packs each problem's used
    views first in camera order, so a row's result does not depend on the
    other tracks. Accepted joints (err < eps_tri) overwrite their track
    with c=1 and are returned as a set of (track index, joint) pairs.
    """
    order = sorted(ti for ti, obs in obs_by_track.items() if obs)
    cam_ids = sorted(set().union(*(obs_by_track[ti] for ti in order)))
    n = len(cam_ids)
    if n < cfg.v_min:
        return set()
    dets = np.zeros((len(order), JOINT_COUNT, n, 3))
    has = np.zeros((len(order), n), dtype=bool)
    for r, ti in enumerate(order):
        for i, c in enumerate(cam_ids):
            if c in obs_by_track[ti]:
                dets[r, :, i] = obs_by_track[ti][c]
                has[r, i] = True
    dist = np.full((len(order), JOINT_COUNT, n, n), np.inf)
    for a in range(n):
        for b in range(a + 1, n):
            both = np.flatnonzero(has[:, a] & has[:, b])
            if not both.size:
                continue
            d = epipolar_distance(dets[both, :, a, :2].reshape(-1, 2),
                                  dets[both, :, b, :2].reshape(-1, 2),
                                  fmat(cam_ids[a], cam_ids[b])).reshape(-1, JOINT_COUNT)
            dist[both, :, a, b] = dist[both, :, b, a] = d
    # A camera that did not see a track has confidence 0 and distance inf
    # there, so it neither seeds nor joins a view set, and the track's own
    # cameras keep their relative order.
    seen = dets[..., 2] >= cfg.tau_joint
    members = _consistent_view_sets(dist.reshape(-1, n, n), seen.reshape(-1, n), cfg.tau_epi)
    rows = np.flatnonzero(members.sum(axis=1) >= cfg.v_min)
    if not rows.size:
        return set()
    dets = dets.reshape(-1, n, 3)[rows]
    weights = np.where(members[rows], dets[:, :, 2], 0.0)
    obs = [(cals[c], dets[:, i, :2], weights[:, i]) for i, c in enumerate(cam_ids)]
    state = np.concatenate([tracks[ti].joints for ti in order])[rows]
    known = np.concatenate([tracks[ti].available for ti in order])[rows]
    X, err = triangulate_weighted(obs, init_hint=np.where(known[:, None], state, np.nan))
    ok = err < cfg.eps_tri
    pos, joints = np.divmod(rows[ok], JOINT_COUNT)
    X = X[ok]
    for p in np.flatnonzero(np.bincount(pos)):
        track, mine = tracks[order[p]], pos == p
        track.joints[joints[mine]] = X[mine]
        track.available[joints[mine]] = True
    return {(order[p], k) for p, k in zip(pos.tolist(), joints.tolist())}


# The skeleton is a tree and BONES lists it parent first: each bone's
# first joint is the root or the second joint of an earlier bone. So one
# pass over the bones in order names, under any subset of them, each
# joint's component by its topmost joint.
_BONE_PAIRS = [(a, b) for a, b, _ in BONES]
_BONE_A, _BONE_B, _BONE_LEN = (np.array(x) for x in zip(*BONES))


class DepthRequests(NamedTuple):
    """A frame's depth patches, one row per (track, joint, camera) request
    in track, joint and camera order: track indices, joints, each
    camera's index in cam_ids (sorted ids), the detected (u, v,
    confidence) and the (patch_w, patch_w) patch."""

    tracks: np.ndarray  # (R,)
    joints: np.ndarray  # (R,)
    cams: np.ndarray  # (R,)
    cam_ids: list
    uvs: np.ndarray  # (R, 3)
    patches: np.ndarray  # (R, patch_w, patch_w)


def depth_patches(depth_provider, frame, wanted, cfg: TrackerConfig):
    """The DepthRequests depth_lift reads, fetched with one provider call
    for the frame.

    wanted: {track index: (obs_by_cam, unresolved joints)}, in track
    order. Each unresolved joint gets a patch in every camera of
    obs_by_cam that detected it with confidence >= tau_joint, centred on
    its rounded pixel (half to even, as round does). The requests are
    found in one pass over the tracks' detections stacked by (track,
    joint, camera); no request, no call.
    """
    cam_ids = sorted({c for obs_by_cam, _ in wanted.values() for c in obs_by_cam})
    col = {c: i for i, c in enumerate(cam_ids)}
    obs = np.zeros((len(wanted), JOINT_COUNT, len(cam_ids), 3))
    asked = np.zeros((len(wanted), JOINT_COUNT), dtype=bool)
    for r, (obs_by_cam, unresolved) in enumerate(wanted.values()):
        for c, joints in obs_by_cam.items():
            obs[r, :, col[c]] = joints
        asked[r, unresolved] = True
    r, joints, cams = np.nonzero(asked[:, :, None] & (obs[..., 2] >= cfg.tau_joint))
    uvs = obs[r, joints, cams]
    # Centres far outside any image are clipped, still outside, before the cast to int.
    px = np.clip(np.rint(uvs[:, :2]), -2**31, 2**31).astype(int)
    patches = np.zeros((len(uvs), cfg.patch_w, cfg.patch_w))
    by_cam = {cam_ids[c]: np.flatnonzero(cams == c)
              for c in np.flatnonzero(np.bincount(cams, minlength=len(cam_ids))).tolist()}
    if by_cam:
        got = depth_provider.patch(frame, {cam_id: (px[sel, 0], px[sel, 1])
                                           for cam_id, sel in by_cam.items()}, cfg.patch_w)
        for cam_id, sel in by_cam.items():
            patches[sel] = got[cam_id]
    tracks = np.array(list(wanted), dtype=int)[r]
    return DepthRequests(tracks, joints, cams, cam_ids, uvs, patches)


def _patch_stats(patches):
    """(count, mean, var) of each patch's positive pixels, mean and var
    nan below 3 of them; each the float the patch's own valid.mean() and
    valid.var() give, its pixels taken in row-major order (see
    _compressed)."""
    flat = patches.reshape(len(patches), -1)
    rows, count = _compressed(flat, flat > 0)
    mean = np.full(len(flat), np.nan)
    var = np.full(len(flat), np.nan)
    for c in np.flatnonzero(np.bincount(count, minlength=3)[3:]) + 3:
        same = count == c
        mean[same] = rows[same, :c].mean(axis=1)
        var[same] = rows[same, :c].var(axis=1)
    return count, mean, var


def depth_lift(tracks, requests: DepthRequests, cals, cfg: TrackerConfig, fixed):
    """Recover the unresolved joints of every matched track from
    single-view depth patches, in one pass for the frame.

    requests: what depth_patches fetched; fixed: {track index: joints
    triangulated this frame}. A patch is a candidate when at least 3 of
    its pixels are positive and their variance is at most sigma_max_sq;
    each (track, joint)'s best candidate (highest confidence, then camera
    order) is back-projected at the mean of those pixels, all in one
    stacked pass. A track's candidates survive only inside the largest
    connected component of its bone-consistency graph, whose nodes are
    the candidates and, as immutable nodes, the joints in fixed; ties
    break to the component holding the most confident joint, then the
    lowest one. Every bone length comes from one norms pass, and only the
    components are found track by track, in one pass over the bones.
    Returns the set of lifted (track index, joint) pairs.
    """
    if not len(requests.patches):
        return set()
    count, mean, var = _patch_stats(requests.patches)
    ok = np.flatnonzero((count >= 3) & (var <= cfg.sigma_max_sq))
    if not len(ok):
        return set()
    order = ok[np.lexsort((requests.cams[ok], -requests.uvs[ok, 2],
                           requests.joints[ok], requests.tracks[ok]))]
    key = requests.tracks[order] * JOINT_COUNT + requests.joints[order]
    best = order[np.r_[True, key[1:] != key[:-1]]]  # first of each (track, joint)
    cal = [cals[c] for c in requests.cam_ids]
    cam = requests.cams[best]
    intr = np.array([[c.cx, c.cy, c.fx, c.fy] for c in cal])[cam]
    u, v, s = requests.uvs[best].T
    d = mean[best]
    pc = np.stack([(u - intr[:, 0]) * d / intr[:, 2], (v - intr[:, 1]) * d / intr[:, 3], d], axis=1)
    t = np.array([c.t for c in cal])[cam]
    R = np.array([c.R for c in cal])[cam]
    lifted_xyz = ((pc - t)[:, None, :] @ R)[:, 0]  # camera_to_world, row by row

    first = np.r_[True, requests.tracks[best][1:] != requests.tracks[best][:-1]]
    ids, row = requests.tracks[best][first], np.cumsum(first) - 1  # tracks ascend in best
    pos = np.array([tracks[ti].joints for ti in ids])  # (T, 26, 3)
    conf = np.zeros((len(ids), JOINT_COUNT))
    cand = np.zeros((len(ids), JOINT_COUNT), dtype=bool)
    joints = requests.joints[best]
    pos[row, joints] = lifted_xyz
    conf[row, joints] = s
    cand[row, joints] = True
    node = cand.copy()
    for r, ti in enumerate(ids.tolist()):
        node[r, list(fixed.get(ti, ()))] = True
        conf[r, list(fixed.get(ti, ()))] = 1.0
    a, b, L = _BONE_A, _BONE_B, _BONE_LEN
    length = norms(pos[:, a] - pos[:, b])
    edge = (node[:, a] & node[:, b] & (cfg.bone_alpha * L <= length)
            & (length <= cfg.bone_beta * L))

    lifted = set()
    for r, ti in enumerate(ids.tolist()):
        # Each joint's top joint in its component: one pass, parent first.
        top = list(range(JOINT_COUNT))
        for (x, y), joined in zip(_BONE_PAIRS, edge[r].tolist()):
            if joined:
                top[y] = top[x]
        comps = {}
        for k in np.flatnonzero(node[r]).tolist():
            comps.setdefault(top[k], []).append(k)
        c = conf[r].tolist()
        members = max(comps.values(), key=lambda m: (len(m), max(c[k] for k in m), -m[0]))
        mine = [k for k in members if cand[r, k]]
        track = tracks[ti]
        track.joints[mine] = pos[r, mine]
        track.available[mine] = True
        lifted.update((ti, k) for k in mine)
    return lifted


def _birth_pairs(unmatched, fmat, cfg: TrackerConfig):
    """Sorted (affinity, a, b) of the pairs of unmatched detections a < b
    from different cameras whose affinity is under tau_epi.

    A pair's affinity is the mean epipolar distance over the joints both
    detect with confidence >= tau_joint; pairs sharing none are skipped.
    The distances take one stacked call per camera pair, and _masked_mean
    makes each affinity the float a per-pair mean gives.
    """
    n = len(unmatched)
    cam_ids = sorted({cam for cam, _ in unmatched})
    m = len(cam_ids)
    cam = np.array([cam_ids.index(c) for c, _ in unmatched], dtype=int)
    joints = np.array([j for _, j in unmatched]).reshape(n, JOINT_COUNT, 3)
    seen = joints[:, :, 2] >= cfg.tau_joint
    a, b = np.triu_indices(n, 1)
    shared = seen[a] & seen[b]
    keep = (cam[a] != cam[b]) & shared.any(axis=1)
    a, b, shared = a[keep], b[keep], shared[keep]
    dist = np.empty(shared.shape)
    key = cam[a] * m + cam[b]
    for k in np.flatnonzero(np.bincount(key)):
        sel = np.flatnonzero(key == k)
        dist[sel] = epipolar_distance(joints[a[sel], :, :2].reshape(-1, 2),
                                      joints[b[sel], :, :2].reshape(-1, 2),
                                      fmat(cam_ids[k // m], cam_ids[k % m])).reshape(-1, JOINT_COUNT)
    aff = _masked_mean(dist, shared)
    ok = aff < cfg.tau_epi
    return sorted(zip(aff[ok].tolist(), a[ok].tolist(), b[ok].tolist()))


def _group_unmatched(unmatched, fmat, cfg: TrackerConfig):
    """Greedy epipolar grouping of unmatched detections into person hypotheses.

    unmatched: list of (camera_id, joints (26,3)). Each detection starts
    as a group of its own, and the pairs (a, b) of _birth_pairs, in order,
    merge their two groups when no camera is in both: b's group is
    appended to a's, unless a is alone and b is not, when a is appended to
    b's. Returns the groups of two or more detections, in the order they
    formed, as lists of indices into `unmatched` in merge order.
    """
    group = [[i] for i in range(len(unmatched))]  # group[i]: the group holding i
    formed = []
    for _, a, b in _birth_pairs(unmatched, fmat, cfg):
        keep, other = group[a], group[b]
        if len(keep) == 1 < len(other):
            keep, other = other, keep
        if keep is other or ({unmatched[i][0] for i in keep}
                             & {unmatched[i][0] for i in other}):
            continue
        if len(keep) == 1:
            formed.append(keep)
        keep.extend(other)
        for i in other:
            group[i] = keep
        other.clear()
    return [g for g in formed if g]


class Tracker:
    """Owns track state; step() commits one frame in the spec's stage order."""

    def __init__(self, cals, cfg: TrackerConfig | None = None):
        self.cals = dict(cals)
        self.cfg = cfg or TrackerConfig()
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
        dets_by_cam = {cam_id: [np.asarray(d, dtype=float) for d in dets]
                       for cam_id, dets in dets_by_cam.items()}
        for cam_id, (matches, um) in associate_camera(
                self.tracks, dets_by_cam, self.cals, cfg).items():
            dets = dets_by_cam[cam_id]
            for ti, di in matches:
                matched_obs[ti][cam_id] = dets[di]
            for di in um:
                unmatched.append((cam_id, dets[di]))

        accepted = update_triangulated(self.tracks, matched_obs, self.cals, self._fmat, cfg)
        tri_by_track = {ti: set() for ti, obs in matched_obs.items() if obs}
        for ti, k in accepted:
            tri_by_track[ti].add(k)
        updated_tracks = {ti for ti, tri in tri_by_track.items() if tri}
        wanted = {ti: (matched_obs[ti], unresolved) for ti, tri in tri_by_track.items()
                  if (unresolved := [k for k in range(JOINT_COUNT) if k not in tri])}
        if depth_provider is not None and wanted:
            requests = depth_patches(depth_provider, frame, wanted, cfg)
            updated_tracks |= {ti for ti, _ in depth_lift(
                self.tracks, requests, self.cals, cfg, tri_by_track)}

        born = self._spawn(unmatched, updated_tracks)
        return self._lifecycle(updated_tracks, born)

    # -- births ---------------------------------------------------------

    def _spawn(self, unmatched, updated_tracks):
        """Birth groups from the unmatched detections: adopt each into the
        nearest stale track within r_reuse, or append it as a new track.

        Every group's joints seen by >= 2 of its members are triangulated
        in one batched kernel call over the groups' cameras, each problem
        packing its used views in its group's pair-merge order, so each
        group gets the joints a call of its own would give. A group with
        fewer than min_birth_joints joints under eps_init is dropped. ID
        reuse then runs group by group, in group order, so a later group
        may adopt a track born earlier in the frame.
        """
        cfg = self.cfg
        groups = [[unmatched[i] for i in group]
                  for group in _group_unmatched(unmatched, self._fmat, cfg)]
        cam_ids = sorted({cam for members in groups for cam, _ in members})
        V = len(cam_ids)
        todos, uv, w, order = [], [], [], []
        for members in groups:
            dets = np.stack([j for _, j in members])
            seen = dets[:, :, 2] >= cfg.tau_joint
            todo = np.flatnonzero(seen.sum(axis=0) >= 2)
            cols = [cam_ids.index(cam) for cam, _ in members]
            u = np.zeros((len(todo), V, 2))
            wt = np.zeros((len(todo), V))
            u[:, cols] = dets[:, todo, :2].swapaxes(0, 1)
            wt[:, cols] = np.where(seen[:, todo], dets[:, todo, 2], 0.0).T
            todos.append(todo)
            uv.append(u)
            w.append(wt)
            order.append(np.broadcast_to(cols + [c for c in range(V) if c not in cols],
                                         (len(todo), V)))
        X, err = np.empty((0, 3)), np.empty(0)
        if sum(map(len, todos)):
            uv, w = np.concatenate(uv), np.concatenate(w)
            X, err = triangulate_weighted(
                [(self.cals[c], uv[:, i], w[:, i]) for i, c in enumerate(cam_ids)],
                order=np.concatenate(order))
        cuts = np.cumsum([len(todo) for todo in todos])[:-1]
        born = set()
        for todo, Xg, eg in zip(todos, np.split(X, cuts), np.split(err, cuts)):
            ok = eg < cfg.eps_init
            joints = np.zeros((JOINT_COUNT, 3))
            avail = np.zeros(JOINT_COUNT, dtype=bool)
            joints[todo[ok]] = Xg[ok]
            avail[todo[ok]] = True
            if avail.sum() < cfg.min_birth_joints:
                continue
            centroid = joints[avail].mean(axis=0)

            # ID reuse: adopt into the nearest stale track within r_reuse.
            best = None
            for ti, track in enumerate(self.tracks):
                if ti in updated_tracks:
                    continue
                d = np.linalg.norm(track.centroid() - centroid)
                if d < cfg.r_reuse and (best is None or d < best[0]):
                    best = (d, ti)
            if best is not None:
                track = self.tracks[best[1]]
                track.joints[avail] = joints[avail]
                track.available |= avail
                updated_tracks.add(best[1])
            else:
                self.tracks.append(
                    PersonTrack(
                        id=self.next_id,
                        joints=joints,
                        available=avail,
                        existence=cfg.e_init,
                    )
                )
                self.next_id += 1
                born.add(len(self.tracks) - 1)
        return born

    # -- lifecycle ------------------------------------------------------

    def _lifecycle(self, updated_tracks, born=()):
        cfg = self.cfg
        survivors = []
        out = []
        for ti, track in enumerate(self.tracks):
            detected = ti in born or ti in updated_tracks
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
                        id=track.id,
                        existence=track.existence,
                        joints=track.joints.copy(),
                        available=track.available.copy(),
                        detected=detected,
                    )
                )
        self.tracks = survivors
        return out
