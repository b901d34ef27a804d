"""Shared fixtures/oracles for the test suite."""

from itertools import permutations

import numpy as np

from contacttrack.geometry import (
    CameraCalibration,
    IllConditioned,
    InsufficientViews,
    epipolar_distance,
    project_many,
    triangulate_weighted,
)
from contacttrack.primitives import Capsules
from contacttrack.schema import JOINT_COUNT


def look_at_extrinsics(position, target, up=(0.0, 0.0, 1.0)):
    """World->camera 4x4 for a camera at `position` looking at `target`."""
    position = np.asarray(position, dtype=float)
    z = np.asarray(target, dtype=float) - position
    z = z / np.linalg.norm(z)
    up = np.asarray(up, dtype=float)
    x = np.cross(z, up)
    if np.linalg.norm(x) < 1e-9:
        x = np.cross(z, np.array([1.0, 0.0, 0.0]))
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    R_wc = np.stack([x, y, z], axis=1)  # camera axes as world columns
    T = np.eye(4)
    T[:3, :3] = R_wc.T
    T[:3, 3] = -R_wc.T @ position
    return T


def make_camera(camera_id, position, target, fx=600.0, fy=600.0, w=640, h=480):
    return CameraCalibration(
        camera_id=camera_id,
        fx=fx,
        fy=fy,
        cx=w / 2.0,
        cy=h / 2.0,
        T_cw=look_at_extrinsics(position, target),
        image_width=w,
        image_height=h,
    )


def make_ring(n=4, radius=3.0, height=1.5, target=(0.0, 0.0, 1.0)):
    cams = []
    for i in range(n):
        a = 2 * np.pi * i / n + 0.3
        pos = (radius * np.cos(a), radius * np.sin(a), height)
        cams.append(make_camera(f"cam{i}", pos, target))
    return cams


def identity_camera(camera_id="cam0", fx=600.0, fy=600.0, cx=320.0, cy=240.0, w=640, h=480):
    return CameraCalibration(camera_id, fx, fy, cx, cy, np.eye(4), w, h)


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def grid_refine_cost(obs, center, half=0.3, levels=8, pts=9):
    """Brute-force grid refinement of the weighted reprojection cost around `center`."""

    def cost_at(X):
        total = 0.0
        for cal, uv, w in obs:
            pc = cal.world_to_camera(X)
            u = cal.fx * pc[0] / pc[2] + cal.cx
            v = cal.fy * pc[1] / pc[2] + cal.cy
            total += w * ((u - uv[0]) ** 2 + (v - uv[1]) ** 2)
        return total

    best = np.asarray(center, dtype=float)
    best_cost = cost_at(best)
    for _ in range(levels):
        axes = [np.linspace(b - half, b + half, pts) for b in best]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        for X in np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1):
            c = cost_at(X)
            if c < best_cost:
                best_cost = c
                best = X
        half /= pts - 1.0
    return best, best_cost


def brute_force_assign(cost, max_cost):
    """Exhaustive reference for hungarian_assign (small matrices only).

    Enumerates every partial injective row-to-column mapping, charging
    max_cost per unmatched row/column, and returns (matches, total cost)
    with the same lexicographic tie rule.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return [], 0.0
    m, n = cost.shape
    best = [None, None]  # total, sorted matches

    def recurse(r, used, total, sel):
        if r == m:
            total = total + max_cost * (n - len(used))
            if (
                best[0] is None
                or total < best[0] - 1e-12
                or (abs(total - best[0]) <= 1e-12 and sorted(sel) < best[1])
            ):
                best[0] = total
                best[1] = sorted(sel)
            return
        for c in range(n):
            if c in used:
                continue
            if np.isfinite(cost[r, c]) and cost[r, c] < max_cost:
                used.add(c)
                sel.append((r, c))
                recurse(r + 1, used, total + cost[r, c], sel)
                sel.pop()
                used.remove(c)
        recurse(r + 1, used, total + max_cost, sel)  # row r unmatched

    recurse(0, set(), 0.0, [])
    return best[1], best[0]


def brute_force_min_permutation_cost(cost):
    """Minimum total cost over all full row permutations of a square matrix."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    return min(sum(cost[r, c] for r, c in enumerate(p)) for p in permutations(range(n)))


def per_joint_update(track, obs_by_cam, cals, fmat, cfg):
    """Per-joint reference for update_triangulated: one epipolar check per
    (joint, camera pair), the greedy view set on each joint's own distance
    matrix, and one single-point triangulation per joint."""
    updated = set()
    cam_ids = sorted(obs_by_cam)
    for k in range(JOINT_COUNT):
        views = [c for c in cam_ids if obs_by_cam[c][k, 2] >= cfg.tau_joint]
        n = len(views)
        if n < max(cfg.v_min, 2):
            continue
        dist = np.full((n, n), np.inf)
        for a in range(n):
            for b in range(a + 1, n):
                dist[a, b] = dist[b, a] = epipolar_distance(
                    obs_by_cam[views[a]][k, :2], obs_by_cam[views[b]][k, :2],
                    fmat(views[a], views[b]),
                )
        seed = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[seed] >= cfg.tau_epi:
            continue
        members = [min(seed), max(seed)]
        for c in range(n):
            if c not in members and all(dist[c, m] < cfg.tau_epi for m in members):
                members.append(c)
        if len(members) < cfg.v_min:
            continue
        obs = [(cals[views[i]], obs_by_cam[views[i]][k, :2], obs_by_cam[views[i]][k, 2])
               for i in sorted(members)]
        hint = track.joints[k] if track.available[k] else None
        try:
            X, err = triangulate_weighted(obs, init_hint=hint)
        except (InsufficientViews, IllConditioned):
            continue
        if err < cfg.eps_tri:
            track.joints[k] = X
            track.available[k] = True
            updated.add(k)
    return updated


def reference_capsule_ray(p0, a, radius, origin, dirs):
    """Per-capsule reference for Capsules.hits: the first-hit formula of
    one capsule with segment start p0, axis a and radius, inf on a miss."""
    origin = np.asarray(origin, dtype=float)
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    aa = float(a @ a)
    out = np.full(len(dirs), np.inf)
    dd = (dirs * dirs).sum(axis=1)
    w = origin - p0
    da = dirs @ a
    dw = dirs @ w
    aw = float(a @ w) if aa > 1e-12 else 0.0
    denom = dd * aa - da * da
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 1e-12, (dd * aw - da * dw) / denom, 0.0)
    s = np.clip(s, 0.0, 1.0)
    seg = p0 + s[:, None] * a
    diff = seg - origin
    t = (dirs * diff).sum(axis=1) / dd
    pts = origin + t[:, None] * dirs
    dist = np.linalg.norm(pts - seg, axis=1)
    hit = (dist <= radius) & (t > 0)
    depth_back = np.sqrt(np.maximum(radius**2 - dist**2, 0.0))
    out[hit] = t[hit] - depth_back[hit] / np.sqrt(dd[hit])
    return out


def reference_cast_rays(primitives, origin, dirs):
    """Per-primitive reference for cast_rays: a Capsules stack is unrolled
    into its capsules, each cast alone by reference_capsule_ray, and the
    first hit is kept by a strict < over the list in order."""
    casts = []
    for prim in primitives:
        if isinstance(prim, Capsules):
            casts += [lambda o, d, c=c: reference_capsule_ray(*c, o, d)
                      for c in zip(prim.p0, prim.axis, prim.radius)]
        else:
            casts.append(prim.ray)
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    best_t = np.full(len(dirs), np.inf)
    best_i = np.full(len(dirs), -1, dtype=int)
    for i, cast in enumerate(casts):
        t = cast(origin, dirs)
        closer = t < best_t
        best_t[closer] = t[closer]
        best_i[closer] = i
    return best_t, best_i


def per_pair_association_cost(tracks, dets, cal, tau_joint):
    """Per-pair reference for association_cost: one masked mean pixel
    error per (track, detection)."""
    cost = np.full((len(tracks), len(dets)), np.inf)
    for ti, track in enumerate(tracks):
        uv, in_front = project_many(track.joints, cal)
        proj_ok = track.available & in_front
        for di, det in enumerate(dets):
            k = proj_ok & (det[:, 2] >= tau_joint)
            if k.any():
                cost[ti, di] = np.linalg.norm(uv[k] - det[k, :2], axis=1).mean()
    return cost
