"""Shared fixtures/oracles for the test suite."""

import copy
import functools
import math
import os
from collections import deque
from dataclasses import replace
from itertools import permutations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from contacttrack.config import ContactConfig, TrackerConfig
from contacttrack.errors import ContactTrackError
from contacttrack.contact import (
    ContactEpisode,
    ContactTracker,
    _HandState,
    hysteresis_step,
    run_hysteresis,
    smooth_anchors,
)
from contacttrack.evaluation import _framewise_sets
from contacttrack.hand_fusion import (
    FusedHand,
    HandFusion,
    _HandTrack,
    select_representative,
)
from contacttrack.io import DEPTH_GRID_MAGIC, LABEL_GRID_MAGIC
from contacttrack.geometry import (
    _min_cost_matching,
    CameraCalibration,
    IllConditioned,
    InsufficientViews,
    epipolar_distance,
    project_cameras,
    triangulate_weighted,
)
from contacttrack.person_tracker import PersonTrack, _masked_mean
from contacttrack.primitives import _EPS, Box, Capsules, Rect, Sphere, cast_rays
from contacttrack.scenes import (
    crossing_clean,
    crossing_noisy,
    induction_lite,
    induction_lite_noisy,
)
from contacttrack.schema import BONES, JOINT_COUNT, SIDE_JOINTS
from contacttrack.semantic_map import (
    INDEX_CELL,
    LabeledPointCloud,
    LatticeCells,
    SemanticCloud,
    SurfaceHit,
    _CellIndex,
    no_cells,
)
from contacttrack.simulator import (
    OCCLUSION_MARGIN,
    PARTIAL_MARGIN,
    Simulator,
    SurfaceDistances,
    _u64,
    body_capsules,
)


def tree_bytes(root):
    """{path relative to root: bytes} of every file under root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def crowd_crossing(frames=24, seed=0):
    """Eight persons in four pairs whose straight paths cross, 0.35 m apart
    on roughly perpendicular headings, each pair at its own frame, in the
    corner-camera room with crossing-noisy noise. Most joints have several
    other bodies between them and some camera."""
    rng = np.random.default_rng(seed)
    scene = crossing_clean(frames)
    scene["noise"] = dict(crossing_noisy(frames)["noise"])
    persons = []
    for k, (qx, qy) in enumerate(((2.3, 2.3), (4.7, 2.3), (4.7, 4.7), (2.3, 4.7))):
        cx, cy = qx + rng.uniform(-0.05, 0.05), qy + rng.uniform(-0.05, 0.05)
        t_cross = frames * (k + 2) / 6 + rng.uniform(-0.5, 0.5)
        base = math.pi / 4 + k * math.pi / 2 + rng.uniform(-0.05, 0.05)
        for j, (heading, lateral) in enumerate(((base, 0.0), (base + math.pi / 2, 0.35))):
            dx, dy = math.cos(heading), math.sin(heading)
            speed = rng.uniform(0.95, 1.05) / scene["fps"]
            px, py = cx - lateral * dy, cy + lateral * dx
            persons.append({
                "id": 2 * k + j + 1,
                "waypoints": [
                    {"frame": f, "position": [px + speed * (f - t_cross) * dx,
                                              py + speed * (f - t_cross) * dy],
                     "facing": math.degrees(heading)}
                    for f in (0, frames)
                ],
            })
    scene["persons"] = persons
    return scene


def window(scene, start, count):
    """Frames [start, start + count) of a scripted scene, renumbered from 0."""
    scene = copy.deepcopy(scene)
    scene["frame_count"] = count
    for person in scene["persons"]:
        for wp in person["waypoints"]:
            wp["frame"] -= start
        person["absent"] = [[a - start, b - start] for a, b in person.get("absent", [])]
        for hand in person.get("hands", []):
            for ev in hand["events"]:
                ev["frame"] -= start
    return scene


def induction_window(start=60, count=36):
    """induction-lite frames 60-95, which hold the first scripted touches."""
    return window(induction_lite(), start, count)


def induction_noisy_window(start=60, count=24):
    """induction-lite-noisy frames 60-83: the first touches under depth
    noise, pixel noise and dropout."""
    return window(induction_lite_noisy(), start, count)


@functools.cache
def rendered(name):
    """frame_inputs of FRAME_SCENES[name] or DEPTH_SCENES[name] at seed 0,
    rendered once per process; callers must not modify them."""
    return frame_inputs((FRAME_SCENES | DEPTH_SCENES)[name]())


def frame_inputs(scene, seed=0):
    """(simulator, frames) of a scene rendered in memory; each frame is
    (frame, {camera_id: persons}, hands), grouped as the pipeline groups
    a detections file: cameras without persons are left out and the
    hands run in camera order."""
    sim = Simulator(scene, seed=seed)
    frames = []
    for frame in range(sim.scene["frame_count"]):
        dets, hands = {}, []
        for _, cam_id, persons, cam_hands in sim.render_frame(frame):
            if persons:
                dets[cam_id] = persons
            hands.extend(cam_hands)
        frames.append((frame, dets, hands))
    return sim, frames


# The scenes the per-frame passes are checked on against their per-item
# oracles: eight persons crossing, whose crowd of hands and detections
# stresses association and fusion, and an induction window with touches.
FRAME_SCENES = {"crowd-8": crowd_crossing, "induction-window": induction_window}
# The scenes the frame's depth patches and lifts are checked on: the
# crowd, where many tracks lift joints at once, and a noisy induction
# window, whose depth noise and surfaces reach the patches.
DEPTH_SCENES = {"crowd-8": crowd_crossing, "induction-noisy-window": induction_noisy_window}


class BehindCamera(ContactTrackError):
    pass


def project(point, cal: CameraCalibration):
    """Project a world point to pixel coordinates (u, v).

    Raises BehindCamera if the point is at or behind the image plane.
    """
    pc = cal.world_to_camera(np.asarray(point, dtype=float))
    if pc[2] <= 1e-6:
        raise BehindCamera(f"camera-frame z={pc[2]:.3g} <= 1e-6")
    return np.array([cal.fx * pc[0] / pc[2] + cal.cx, cal.fy * pc[1] / pc[2] + cal.cy])


def write_depth_grid(path, depth_m):
    """Write a DEP1 grid: u16 little-endian millimeters, 0 marks invalid."""
    depth_m = np.asarray(depth_m, dtype=float)
    mm = np.clip(np.round(depth_m * 1000.0), 0, 65535).astype("<u2")
    mm[depth_m <= 0] = 0
    h, w = mm.shape
    with open(path, "wb") as f:
        f.write(DEPTH_GRID_MAGIC)
        f.write(np.uint32(w).tobytes())
        f.write(np.uint32(h).tobytes())
        f.write(mm.tobytes())


def write_label_grid(path, grid):
    grid = np.asarray(grid, dtype=np.uint8)
    h, w = grid.shape
    with open(path, "wb") as f:
        f.write(LABEL_GRID_MAGIC)
        f.write(np.uint32(w).tobytes())
        f.write(np.uint32(h).tobytes())
        f.write(grid.tobytes())


_MASK64 = (1 << 64) - 1


def _splitmix64_int(x):
    """splitmix64 of a Python int in [0, 2**64)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def reference_measured(sim, frame, cam_id, us, vs, depth):
    """The depth a sensor reports at pixels (us, vs) of true depth depth:
    each pixel's noise hashed on its own with Python integers from the
    seed, the frame, the camera's rank in sorted id order and the pixel
    id (v * width + u), turned into a standard normal by Box-Muller,
    scaled by depth_sigma and added where depth > 0, then rounded to the
    millimetres of a DEP1 cell."""
    depth = np.asarray(depth, dtype=float)
    sigma = sim.scene["depth_sigma"]
    noise = 0.0
    if sigma != 0.0:
        width = sim.cals[cam_id].image_width
        rank = sorted(sim.cals).index(cam_id)
        base = _splitmix64_int(
            (sim.seed % 2**64 * 0x100000001B3 & _MASK64)
            ^ (frame % 2**64 * 0x1000193 & _MASK64)
            ^ (rank + 1))
        u1, u2 = [], []
        for u, v in zip(np.ravel(us).tolist(), np.ravel(vs).tolist()):
            h1 = _splitmix64_int((v * width + u) ^ base)
            h2 = _splitmix64_int(h1 ^ 0xDEADBEEFCAFEF00D)
            u1.append(float(h1 >> 11) / float(1 << 53))
            u2.append(float(h2 >> 11) / float(1 << 53))
        u1 = np.clip(np.array(u1), 1e-12, 1.0)
        noise = sigma * (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * np.array(u2)))
    noisy = depth + np.where(depth > 0, noise, 0.0)
    return np.round(np.clip(noisy, 0.0, 65.535) * 1000.0) / 1000.0


def reference_pixel_cast(sim, cam_id, us, vs, prims):
    """(depth, label) of pixels (us, vs) cast against prims by
    reference_cast_rays. A pixel's ray runs from the camera centre along
    (x, y, 1) = ((u - cx) / fx, (v - cy) / fy, 1) turned to the world
    frame, so its parameter is the camera-frame depth: 0 on a miss. The
    label is the scene surface's, 0 on a miss or a body."""
    cal = sim.cals[cam_id]
    us = np.asarray(us, dtype=float).ravel()
    vs = np.asarray(vs, dtype=float).ravel()
    dirs = np.stack([(us - cal.cx) / cal.fx, (vs - cal.cy) / cal.fy, np.ones(len(us))], axis=1)
    t, idx = reference_cast_rays(prims, cal.center, dirs @ cal.R)
    surfaces = sim.scene["surfaces"]
    labels = [surfaces[i].label if 0 <= i < len(surfaces) else 0 for i in idx.tolist()]
    return np.where(np.isfinite(t), t, 0.0), np.array(labels, dtype=int)


# Single-centre patches and full-resolution grids of a scene depth
# source, built from the scene alone: the pixel rays, the reference ray
# cast, the surfaces' labels and the per-pixel hashed noise.

def scene_patch(sim, frame, cam_id, u, v, size):
    """The (size, size) depth patch centred on pixel (u, v), surfaces and
    bodies; 0 outside the image."""
    cal = sim.cals[cam_id]
    r = size // 2
    us, vs = np.meshgrid(np.arange(u - r, u + r + 1), np.arange(v - r, v + r + 1))
    shape = us.shape
    us = us.ravel()
    vs = vs.ravel()
    ok = (us >= 0) & (us < cal.image_width) & (vs >= 0) & (vs < cal.image_height)
    depth = np.zeros(len(us))
    if ok.any():
        d, _ = reference_pixel_cast(sim, cam_id, us[ok], vs[ok],
                                    sim.scene["surfaces"] + [sim.frame_capsules(frame)[0]])
        depth[ok] = reference_measured(sim, frame, cam_id, us[ok], vs[ok], d)
    return depth.reshape(shape)


def scene_grids(sim, frame, cam_id, stride=4):
    """Full-resolution (label, depth) grids populated on the stride
    lattice only, against the surfaces alone; other pixels are zero."""
    cal = sim.cals[cam_id]
    vs, us = np.meshgrid(np.arange(0, cal.image_height, stride),
                         np.arange(0, cal.image_width, stride), indexing="ij")
    depth, labels = reference_pixel_cast(sim, cam_id, us, vs, sim.scene["surfaces"])
    hit = labels > 0
    label_grid = np.zeros((cal.image_height, cal.image_width), dtype=np.uint8)
    depth_grid = np.zeros((cal.image_height, cal.image_width))
    label_grid[vs.ravel()[hit], us.ravel()[hit]] = labels[hit]
    depth_grid[vs.ravel()[hit], us.ravel()[hit]] = reference_measured(
        sim, frame, cam_id, us.ravel()[hit], vs.ravel()[hit], depth[hit])
    return label_grid, depth_grid


def camera_patch(provider, frame, cam_id, us, vs, size):
    """A depth source's (n, size, size) patches of one camera, centred on
    the n pixels (us[i], vs[i])."""
    return provider.patch(frame, {cam_id: (us, vs)}, size)[cam_id]


# The per-camera map lattice, the bit-equality oracle of the frame pass:
# one camera's lattice cast alone, its noise hashed alone, scattered into
# full lattice arrays and gathered back by the back-projection.

def camera_hash_normals(seed, frame, cam_index, pixel_ids):
    """Standard normals keyed by (seed, frame, camera, pixel) for the
    pixels of one camera, each uint64 step on a fresh array."""
    pixel_ids = np.asarray(pixel_ids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = _splitmix64_np(
            _u64(seed) * np.uint64(0x100000001B3)
            ^ _u64(frame) * np.uint64(0x1000193)
            ^ np.uint64(cam_index + 1)
        )
        h1 = _splitmix64_np(pixel_ids ^ base)
        h2 = _splitmix64_np(h1 ^ np.uint64(0xDEADBEEFCAFEF00D))
    u1 = (h1 >> np.uint64(11)).astype(float) / float(1 << 53)
    u2 = (h2 >> np.uint64(11)).astype(float) / float(1 << 53)
    u1 = np.clip(u1, 1e-12, 1.0)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _splitmix64_np(x):
    """splitmix64 of a uint64 scalar or array, each step on a new value."""
    with np.errstate(over="ignore"):
        z = x + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def camera_measured(sim, frame, cam_id, us, vs, depth):
    """One camera's measured depth at pixels (us, vs), hashed by
    camera_hash_normals."""
    sigma = sim.scene["depth_sigma"]
    noise = 0.0
    if sigma != 0.0:
        pixel_ids = (np.asarray(vs, dtype=np.uint64) * np.uint64(sim.cals[cam_id].image_width)
                     + np.asarray(us, dtype=np.uint64))
        noise = sigma * camera_hash_normals(sim.seed, frame, sim.cam_index[cam_id], pixel_ids)
    noisy = depth + np.where(depth > 0, noise, 0.0)
    return np.round(np.clip(noisy, 0.0, 65.535) * 1000.0) / 1000.0


def camera_grids(provider, frame, cam_id, stride=4):
    """(label, depth) on one camera's stride lattice, pixel (v, u) = (i,
    j) * stride, as (ceil(height / stride), ceil(width / stride)) arrays
    of a SceneDepthProvider's scene, or None when no cell sees a surface:
    the lattice cast alone and its hit cells measured by camera_measured."""
    sim = provider.sim
    cal = sim.cals[cam_id]
    vs, us = np.meshgrid(np.arange(0, cal.image_height, stride),
                         np.arange(0, cal.image_width, stride), indexing="ij")
    depth, labels = provider._cast([(cam_id, us, vs)])
    hit = (labels > 0).reshape(us.shape)
    if not hit.any():
        return None
    label_grid = np.zeros(hit.shape, dtype=np.uint8)
    depth_grid = np.zeros(hit.shape)
    label_grid[hit] = labels.reshape(us.shape)[hit]
    depth_grid[hit] = camera_measured(sim, frame, cam_id, us[hit], vs[hit],
                                      depth.reshape(us.shape)[hit])
    return label_grid, depth_grid


def backproject_lattice(label_grid, depth_grid, cal: CameraCalibration, stride=4):
    """One camera's stride lattice back-projected to a LabeledPointCloud:
    the labeled cells with depth > 0 in row-major order, u - cx taken per
    lattice column and v - cy per row."""
    lab = np.asarray(label_grid)
    dep = np.asarray(depth_grid)
    keep = (lab > 0) & (dep > 0)
    d = dep[keep]
    u = np.broadcast_to(np.arange(lab.shape[1]) * stride - cal.cx, lab.shape)[keep]
    v = np.broadcast_to(np.arange(lab.shape[0])[:, None] * stride - cal.cy, lab.shape)[keep]
    pc = np.stack([u * d / cal.fx, v * d / cal.fy, d], axis=1)
    return LabeledPointCloud(cal.camera_to_world(pc), lab[keep].astype(int), cal.camera_id)


def per_camera_clouds(provider, cals, frame, stride=4):
    """A frame's map input camera by camera: each calibrated camera's
    camera_grids lattice, back-projected alone, for the cameras whose
    lattice sees a surface."""
    clouds = []
    for cam_id in sorted(cals):
        grids = camera_grids(provider, frame, cam_id, stride)
        if grids is not None:
            clouds.append(backproject_lattice(*grids, cals[cam_id], stride))
    return clouds


def cells_lattice(cells, cam_id, shape, stride=4):
    """One camera's (label, depth) arrays of the given shape, zero but at
    its cells of cells, a LatticeCells, scattered to lattice cell (v, u)
    // stride; a shape of the full image and stride 1 gives full-resolution
    grids."""
    labels = np.zeros(shape, dtype=np.uint8)
    depth = np.zeros(shape)
    if cam_id in cells.cameras:
        k = cells.cameras.index(cam_id)
        lo = sum(cells.counts[:k])
        rows = slice(lo, lo + cells.counts[k])
        at = cells.vs[rows] // stride, cells.us[rows] // stride
        labels[at] = cells.labels[rows]
        depth[at] = cells.depth[rows]
    return labels, depth


def lattice_cells(lattices, stride=4):
    """The LatticeCells of lattices, {camera_id: (label, depth) stride
    lattice arrays}: each camera's cells with a label and depth > 0 in
    row-major order, the cameras in sorted order."""
    cameras, counts, parts = [], [], []
    for cam_id in sorted(lattices):
        lab, dep = map(np.asarray, lattices[cam_id])
        keep = (lab > 0) & (dep > 0)
        rows, cols = np.nonzero(keep)
        if len(rows):
            cameras.append(cam_id)
            counts.append(len(rows))
            parts.append((cols * stride, rows * stride, lab[keep].astype(np.uint8), dep[keep]))
    if not cameras:
        return no_cells()
    return LatticeCells(cameras, counts, *(np.concatenate(p) for p in zip(*parts)))


def grid_patch(self, frame, cam_id, u, v, size):
    grid = self._load(frame, cam_id)
    h, w = grid.shape
    r = size // 2
    u0, u1 = max(0, u - r), min(w, u + r + 1)
    v0, v1 = max(0, v - r), min(h, v + r + 1)
    if u0 >= u1 or v0 >= v1:
        return np.zeros((0, 0))
    return grid[v0:v1, u0:u1]


def backproject_many(uv, depths, cal: CameraCalibration):
    """Vectorized back-projection of pixels with positive depths."""
    uv = np.asarray(uv, dtype=float)
    depths = np.asarray(depths, dtype=float)
    pc = np.stack(
        [
            (uv[:, 0] - cal.cx) * depths / cal.fx,
            (uv[:, 1] - cal.cy) * depths / cal.fy,
            depths,
        ],
        axis=1,
    )
    return cal.camera_to_world(pc)


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


_BIG = 1e15


def _solve_augmented(A):
    rows, cols = linear_sum_assignment(A)
    return float(A[rows, cols].sum()), list(zip(rows.tolist(), cols.tolist()))


def scipy_hungarian_assign(cost, max_cost):
    """Oracle for hungarian_assign: scipy's linear_sum_assignment on the
    same augmented matrix, with each row fixed in order to its smallest
    choice that a full re-solve still finds optimal."""
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    m, n = cost.shape
    allowed = np.isfinite(cost) & (cost < max_cost)
    if not allowed.any():
        return []

    A = np.full((m + n, n + m), _BIG)
    A[:m, :n] = np.where(allowed, cost, _BIG)
    A[np.arange(m), n + np.arange(m)] = max_cost
    A[m + np.arange(n), np.arange(n)] = max_cost
    A[m:, n:] = 0.0

    opt, _ = _solve_augmented(A)
    tol = 1e-9 * max(1.0, abs(opt))

    # Fix rows in order to the lexicographically smallest optimal choice.
    fixed = A.copy()
    matches = []
    for r in range(m):
        row = fixed[r].copy()
        choices = [c for c in range(n) if row[c] < _BIG] + [n + r]
        for c in choices:
            fixed[r] = _BIG
            fixed[r, c] = row[c]
            total, _ = _solve_augmented(fixed)
            if total <= opt + tol:
                if c < n:
                    matches.append((r, c))
                break
            fixed[r] = row
    return matches


def whole_table_hungarian_assign(cost, max_cost):
    """Oracle for hungarian_assign: one solve of the whole table, without
    its split into gated components. Gated min-cost one-to-one assignment.

    Entries >= max_cost are never matched; leaving a row or column
    unmatched incurs max_cost, which must be finite. Among equal-cost
    optima the (row, col) lexicographically smallest matching is returned.

    The m x n problem becomes a square (m+n) x (n+m) one: row i may take
    its own "unmatched" column n+i and column j its own "unmatched" row
    m+j at max_cost, the unmatched rows and columns pair up at 0, and
    every other entry is _BIG. One shortest-augmenting-path solve gives an
    optimal matching and dual potentials u, v; by complementary slackness
    the optimal matchings are exactly the perfect matchings on the tight
    edges, those with reduced cost A[i][j] - u[i] - v[j] <= tol / (m+n)
    (tol = 1e-9 max(1, |optimum|)). Rows 0..m-1 are then fixed in order
    to their smallest tight choice (real columns in order, then n+i)
    that an alternating cycle of tight edges through the not yet fixed
    rows can swap into the matching.
    """
    if not np.isfinite(max_cost):
        raise ValueError(f"max_cost must be finite, got {max_cost}")
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    m, n = cost.shape
    allowed = np.isfinite(cost) & (cost < max_cost)
    if not allowed.any():
        return []

    N = m + n
    A = np.full((N, N), _BIG)
    A[:m, :n] = np.where(allowed, cost, _BIG)
    A[np.arange(m), n + np.arange(m)] = max_cost
    A[m + np.arange(n), np.arange(n)] = max_cost
    A[m:, n:] = 0.0
    A = A.tolist()

    col_of, row_of, u, v = _min_cost_matching(A)
    opt = sum(A[i][col_of[i]] for i in range(N))
    eps = 1e-9 * max(1.0, abs(opt)) / N

    def tight(i, j):
        return A[i][j] - u[i] - v[j] <= eps

    def swap_cycle(r, c):
        """Make (r, c) a matched edge by an alternating cycle of tight
        edges through rows after r; False if there is none."""
        target = col_of[r]
        start = row_of[c]
        if start < r:
            return False
        reached = {start: None}
        queue = [start]
        for x in queue:
            for y in range(N):
                if y == col_of[x] or not tight(x, y):
                    continue
                if y == target:
                    moves = [(r, c), (x, y)]
                    while reached[x] is not None:
                        x, y = reached[x]
                        moves.append((x, y))
                    for i, j in moves:
                        col_of[i] = j
                        row_of[j] = i
                    return True
                z = row_of[y]
                if z > r and z not in reached:
                    reached[z] = (x, y)
                    queue.append(z)
        return False

    matches = []
    for r in range(m):
        row = A[r]
        for c in [c for c in range(n) if row[c] < _BIG] + [n + r]:
            if c == col_of[r] or (tight(r, c) and swap_cycle(r, c)):
                break
        if col_of[r] < n:
            matches.append((r, col_of[r]))
    return matches


def kdtree_nearest(cloud, query):
    """Oracle for SemanticCloud.nearest: a cKDTree over the whole cloud,
    with exact ties re-scanned to the smallest point index."""
    tree = cKDTree(cloud.positions)
    query = np.asarray(query, dtype=float)
    d, i = tree.query(query)
    # Canonicalize exact ties by re-scanning the tie ball.
    ball = tree.query_ball_point(query, d + 1e-12 * max(d, 1.0))
    dists = np.linalg.norm(cloud.positions[ball] - query, axis=1)
    dmin = dists.min()
    best = min(int(ball[j]) for j in np.flatnonzero(dists == dmin))
    return SurfaceHit(float(dmin), int(cloud.labels[best]), cloud.positions[best], best)


def kdtree_nearest_per_label(cloud, queries):
    """Oracle for SemanticCloud.nearest_per_label: one cKDTree per label.
    Among exact distance ties the point is whichever the tree returns."""
    queries = np.asarray(queries, dtype=float).reshape(-1, 3)
    out = {}
    for label in cloud.label_ids:
        idx = np.flatnonzero(cloud.labels == label)
        tree = cKDTree(cloud.positions[idx])
        d, i = tree.query(queries)
        j = int(np.argmin(d))
        out[label] = (float(d[j]), cloud.positions[idx[i[j]]])
    return out


def brute_force_nearest_per_label(cloud, queries):
    """{label: (distance, point index)} by scanning every (query, point)
    pair: ties go to the first query, then the smallest point index."""
    queries = np.asarray(queries, dtype=float).reshape(-1, 3).tolist()
    points = cloud.positions.tolist()
    out = {}
    for label in cloud.label_ids:
        best = None
        for q in queries:
            for pi in np.flatnonzero(cloud.labels == label).tolist():
                dx, dy, dz = (a - b for a, b in zip(q, points[pi]))
                d = math.sqrt(dx * dx + dy * dy + dz * dz)
                if best is None or d < best[0]:
                    best = (d, pi)
        out[label] = best
    return out


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
                    obs_by_cam[views[a]][k:k + 1, :2], obs_by_cam[views[b]][k:k + 1, :2],
                    fmat(views[a], views[b]),
                )[0]
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


def svd_cond_gate(H):
    """SVD reference for geometry._ill_conditioned: cond(H) > 1e14 from
    the singular values of every matrix."""
    return np.linalg.cond(H) > 1e14


def per_camera_depth_patches(depth_provider, frame, wanted, cfg: TrackerConfig):
    """Per-camera reference for depth_patches: one provider call per
    camera.

    wanted: {key: (obs_by_cam, unresolved joints)}. Each unresolved joint
    gets a patch in every camera of obs_by_cam that detected it with
    confidence >= tau_joint, centred on its rounded pixel. Returns {key:
    {(joint, camera_id): (patch_w, patch_w) patch}}.
    """
    requests = {}  # camera_id -> [(key, joint, u, v)]
    for key, (obs_by_cam, unresolved) in wanted.items():
        for k in unresolved:
            for cam_id in sorted(obs_by_cam):
                u, v, s = obs_by_cam[cam_id][k]
                if s >= cfg.tau_joint:
                    requests.setdefault(cam_id, []).append((key, k, int(round(u)), int(round(v))))
    out = {key: {} for key in wanted}
    for cam_id, reqs in sorted(requests.items()):
        keys, joints, us, vs = zip(*reqs)
        patches = depth_provider.patch(frame, {cam_id: (us, vs)}, cfg.patch_w)[cam_id]
        for key, k, patch in zip(keys, joints, patches):
            out[key][(k, cam_id)] = patch
    return out


def per_track_depth_lift(track, unresolved, obs_by_cam, patches, cals, cfg: TrackerConfig,
                         fixed_joints=()):
    """Per-track reference for depth_lift: recover one track's unresolved
    joints from single-view depth patches.

    patches: {(joint, camera_id): patch} as per_camera_depth_patches
    fetches them.
    Candidates pass the patch-variance and confidence gates; each joint's
    best one (highest confidence, then camera order) is back-projected and
    survives only inside the largest bone-consistent connected component.
    Joints in fixed_joints (triangulated this frame) participate as
    immutable graph nodes. Returns the set of lifted joints.
    """
    candidates = {}
    for k in unresolved:
        best = None
        for cam_id in sorted(obs_by_cam):
            u, v, s = obs_by_cam[cam_id][k]
            if s < cfg.tau_joint:
                continue
            patch = patches[(k, cam_id)]
            valid = patch[patch > 0]
            if valid.size < 3:
                continue
            var = float(valid.var())
            if var > cfg.sigma_max_sq:
                continue
            key = (-s, cam_id, var)
            if best is None or key < best[0]:
                best = (key, cam_id, u, v, valid.mean(), s)
        if best is not None:
            _, cam_id, u, v, depth, s = best
            candidates[k] = (backproject_many([[u, v]], [depth], cals[cam_id])[0], s)
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

    for a, b, L in BONES:
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


def per_pair_birth_pairs(unmatched, fmat, cfg):
    """Per-pair reference for person_tracker._birth_pairs: one
    epipolar_distance call and one mean per cross-camera detection pair."""
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
    return sorted(pairs)


def per_pair_group_unmatched(unmatched, fmat, cfg):
    """Per-pair reference for person_tracker._group_unmatched: the pairs of
    per_pair_birth_pairs, merged by four_branch_merge."""
    return four_branch_merge(unmatched, per_pair_birth_pairs(unmatched, fmat, cfg))


def four_branch_merge(unmatched, pairs):
    """Reference for the merge rule of person_tracker._group_unmatched: the
    greedy loop over (affinity, a, b) pairs of detections of different
    cameras, one branch for each of a and b being grouped or not."""
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


def per_group_spawn(tracker, unmatched, updated_tracks):
    """Per-group reference for Tracker._spawn (bind it as the method): the
    per-pair grouping, then one triangulate_weighted call per group over
    its members' cameras in pair-merge order, each group adopted or born
    before the next is triangulated."""
    cfg = tracker.cfg
    born = set()
    for group in per_pair_group_unmatched(unmatched, tracker._fmat, cfg):
        members = [unmatched[i] for i in group]
        seen = np.stack([j[:, 2] >= cfg.tau_joint for _, j in members])
        todo = np.flatnonzero(seen.sum(axis=0) >= 2)
        joints = np.zeros((JOINT_COUNT, 3))
        avail = np.zeros(JOINT_COUNT, dtype=bool)
        if todo.size:
            obs = [
                (tracker.cals[cam], j[todo, :2], np.where(seen[i, todo], j[todo, 2], 0.0))
                for i, (cam, j) in enumerate(members)
            ]
            X, err = triangulate_weighted(obs)
            ok = err < cfg.eps_init
            joints[todo[ok]] = X[ok]
            avail[todo[ok]] = True
        if avail.sum() < cfg.min_birth_joints:
            continue
        centroid = joints[avail].mean(axis=0)
        best = None
        for ti, track in enumerate(tracker.tracks):
            if ti in updated_tracks:
                continue
            d = np.linalg.norm(track.centroid() - centroid)
            if d < cfg.r_reuse and (best is None or d < best[0]):
                best = (d, ti)
        if best is not None:
            track = tracker.tracks[best[1]]
            track.joints[avail] = joints[avail]
            track.available |= avail
            updated_tracks.add(best[1])
        else:
            tracker.tracks.append(PersonTrack(
                id=tracker.next_id, joints=joints, available=avail, existence=cfg.e_init))
            tracker.next_id += 1
            born.add(len(tracker.tracks) - 1)
    return born


def capsule_hits(caps, origin, dirs, counts=None):
    """(K, N) first-hit parameters of N rays against every capsule of a
    Capsules stack, inf on a miss or a skipped pair: the pairs
    hit_pairs finds, as a table."""
    k, n, t = caps.hit_pairs(origin, dirs, counts)
    out = np.full((len(caps), len(np.asarray(dirs).reshape(-1, 3))), np.inf)
    out[k, n] = t
    return out


def full_capsule_hits(caps, origin, dirs):
    """Full-pass oracle for Capsules.hit_pairs: the (K, N) first-hit formula
    evaluated on every (capsule, ray) pair, with no cull and no skip mask;
    inf on a miss. The first positive crossing counts, so a ray starting
    inside a capsule hits it where it leaves."""
    origin = np.asarray(origin, dtype=float)
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    a, r = caps.axis, caps.radius[:, None]
    aa = (a * a).sum(axis=1)
    dd = (dirs * dirs).sum(axis=1)
    # Closest-approach parameters between ray o + t d and segment p0 + s a.
    w = origin - caps.p0
    da = a @ dirs.T
    dw = w @ dirs.T
    aw = np.where(aa > _EPS, (a * w).sum(axis=1), 0.0)
    denom = dd * aa[:, None] - da * da
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > _EPS, (dd * aw[:, None] - da * dw) / denom, 0.0)
    s = np.clip(s, 0.0, 1.0)
    seg = caps.p0[:, None, :] + s[:, :, None] * a[:, None, :]
    diff = seg - origin
    t = (dirs * diff).sum(axis=2) / dd
    pts = origin + t[:, :, None] * dirs
    dist = np.linalg.norm(pts - seg, axis=2)
    back = np.sqrt(np.maximum(r**2 - dist**2, 0.0)) / np.sqrt(dd)
    t_in = t - back
    t_hit = np.where(t_in > 0, t_in, t + back)
    return np.where((dist <= r) & (t_hit > 0), t_hit, np.inf)


def reference_capsule_ray(p0, a, radius, origin, dirs):
    """Per-capsule reference for Capsules.hit_pairs: the first-hit formula of
    one capsule with segment start p0, axis a and radius, inf on a miss.
    The first positive crossing counts, the exit for an origin inside."""
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
    back = np.sqrt(np.maximum(radius**2 - dist**2, 0.0)) / np.sqrt(dd)
    for i in np.flatnonzero(dist <= radius):
        # The first positive crossing: the entry, else the exit (origin inside).
        for crossing in (t[i] - back[i], t[i] + back[i]):
            if crossing > 0:
                out[i] = crossing
                break
    return out


def reference_box_ray(box, origin, dirs):
    """Per-ray reference for Box.ray: the slab method in Python floats,
    one axis at a time; a ray parallel to a slab (|d| <= _EPS) misses
    unless its origin lies inside the slab."""
    out = []
    for d in np.asarray(dirs, dtype=float).reshape(-1, 3).tolist():
        tmin, tmax = -math.inf, math.inf
        for o, di, lo, hi in zip(np.asarray(origin, dtype=float).tolist(), d,
                                 box.lo.tolist(), box.hi.tolist()):
            if abs(di) <= _EPS:
                if not lo <= o <= hi:
                    tmin, tmax = math.inf, -math.inf
                continue
            ta, tb = (lo - o) / di, (hi - o) / di
            tmin, tmax = max(tmin, min(ta, tb)), min(tmax, max(ta, tb))
        hit = tmax >= tmin and tmax > 0
        out.append((tmin if tmin > 0 else tmax) if hit else math.inf)
    return np.array(out)


def reference_cast_rays(primitives, origin, dirs, rows=None, *, counts=None):
    """Per-primitive reference for cast_rays: a Capsules stack is unrolled
    into its capsules, each cast alone by reference_capsule_ray and missing
    the rays its skip-mask row marks, and the first hit is kept by a
    strict < over the list in order. rows, cast_rays' cull, is ignored:
    every primitive is cast over every ray. With counts, each camera's
    rays are cast alone from its own origin, with their skip-mask columns."""
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    if counts is not None:
        return per_camera_cast(reference_cast_rays, primitives, origin, dirs, counts)
    casts = []
    for prim in primitives:
        if isinstance(prim, Capsules):
            skip = np.zeros((len(prim), len(dirs)), dtype=bool) if prim.skip is None else prim.skip
            casts += [lambda o, d, c=c, s=s: np.where(s, np.inf, reference_capsule_ray(*c, o, d))
                      for c, s in zip(zip(prim.p0, prim.axis, prim.radius), skip)]
        else:
            casts.append(prim.ray)
    best_t = np.full(len(dirs), np.inf)
    best_i = np.full(len(dirs), -1, dtype=int)
    for i, cast in enumerate(casts):
        t = cast(origin, dirs)
        closer = t < best_t
        best_t[closer] = t[closer]
        best_i[closer] = i
    return best_t, best_i


def per_camera_cast(cast, primitives, origins, dirs, counts):
    """(t, index) of a multi-camera bundle cast one camera at a time by
    cast(primitives, origin, dirs): camera c's counts[c] rays, copied to
    an array of their own, from origins[c], each skip mask cut to that
    camera's columns."""
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    out, start = [], 0
    for origin, count in zip(origins, counts):
        rays = slice(start, start + count)
        start += count
        prims = [replace(p, skip=p.skip[:, rays])
                 if isinstance(p, Capsules) and p.skip is not None else p for p in primitives]
        out.append(cast(prims, origin, dirs[rays].copy()))
    return tuple(np.concatenate(x) for x in zip(*out))


def project_many(points, cal: CameraCalibration):
    """One camera's projection, project_cameras of that camera alone:
    (uv (N, 2), valid (N,)), valid=False behind the camera."""
    uv, valid = project_cameras(points, [cal])
    return uv[0], valid[0]


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


def per_camera_association_cost(tracks, dets, cal, tau_joint):
    """Per-camera reference for association_costs: each track projected
    into the one camera alone, and one masked mean over that camera's
    (tracks, detections) table."""
    dets = np.asarray(dets, dtype=float).reshape(-1, JOINT_COUNT, 3)
    if not len(tracks) or not len(dets):
        return np.full((len(tracks), len(dets)), np.inf)
    uv, in_front = zip(*(project_many(t.joints, cal) for t in tracks))
    proj_ok = np.array([t.available for t in tracks]) & np.array(in_front)
    k = proj_ok[:, None, :] & (dets[:, :, 2] >= tau_joint)  # (n_t, n_d, 26)
    err = np.linalg.norm(np.array(uv)[:, None] - dets[:, :, :2], axis=3)
    return _masked_mean(err, k)


def per_camera_associate(tracks, dets_by_cam, cals, cfg: TrackerConfig):
    """Per-camera reference for associate_camera: one cost table and one
    whole-table Hungarian solve per camera, in camera order."""
    out = {}
    for cam_id in sorted(dets_by_cam):
        dets = dets_by_cam[cam_id]
        cost = per_camera_association_cost(tracks, dets, cals[cam_id], cfg.tau_joint)
        matches = whole_table_hungarian_assign(cost, cfg.tau_mpjpe) if cost.size else []
        matched_d = {d for _, d in matches}
        out[cam_id] = matches, [d for d in range(len(dets)) if d not in matched_d]
    return out


def reference_fuse_clouds(clouds, voxel_size, label_table):
    """Two-sort reference for fuse_clouds: np.unique over (N, 3) voxel keys,
    then over (voxel, label) pairs, a lexsort for the per-voxel majority
    (smallest label on ties) and an unbuffered add for the centroids."""
    pos_list = [c.positions for c in clouds if len(c.positions)]
    lab_list = [c.labels for c in clouds if len(c.positions)]
    if not pos_list:
        return SemanticCloud(np.zeros((0, 3)), np.zeros(0, dtype=int), label_table)
    pos = np.concatenate(pos_list)
    lab = np.concatenate(lab_list).astype(int)

    keys = np.floor(pos / voxel_size).astype(np.int64)
    _, voxel_of = np.unique(keys, axis=0, return_inverse=True)
    n_vox = voxel_of.max() + 1

    pair = np.stack([voxel_of, lab], axis=1)
    pairs, pair_of = np.unique(pair, axis=0, return_inverse=True)
    counts = np.bincount(pair_of)
    order = np.lexsort((pairs[:, 1], -counts, pairs[:, 0]))
    sorted_vox = pairs[order, 0]
    first = np.ones(len(order), dtype=bool)
    first[1:] = sorted_vox[1:] != sorted_vox[:-1]
    win_rows = order[first]
    win_label = np.zeros(n_vox, dtype=int)
    win_label[pairs[win_rows, 0]] = pairs[win_rows, 1]

    winner = lab == win_label[voxel_of]
    sums = np.zeros((n_vox, 3))
    np.add.at(sums, voxel_of[winner], pos[winner])
    nums = np.bincount(voxel_of[winner], minlength=n_vox).astype(float)
    centroids = sums / nums[:, None]
    return SemanticCloud(centroids, win_label, label_table)


class LexsortCellIndex(_CellIndex):
    """Reference grouping for _CellIndex: the points ordered by a lexsort
    of four keys, label and the float x, y and z INDEX_CELL cells, ties
    in point order, with the groups, label runs and bounds read off that
    order. nearest_by_label is the index's own."""

    def __init__(self, positions, labels):
        cells = np.floor(positions / INDEX_CELL)
        self.order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0], labels))
        labels, cells = labels[self.order], cells[self.order]
        new = np.ones(len(labels), dtype=bool)
        new[1:] = (labels[1:] != labels[:-1]) | (cells[1:] != cells[:-1]).any(axis=1)
        self.starts = np.flatnonzero(new)
        self.ends = np.append(self.starts[1:], len(labels))
        self.xyz = np.ascontiguousarray(positions[self.order].T)
        self.lo = np.minimum.reduceat(self.xyz, self.starts, axis=1)
        self.hi = np.maximum.reduceat(self.xyz, self.starts, axis=1)
        self.heads = np.ascontiguousarray(self.xyz[:, (self.starts + self.ends - 1) // 2])
        new_label = np.ones(len(self.starts), dtype=bool)
        new_label[1:] = labels[self.starts[1:]] != labels[self.starts[:-1]]
        self.label_groups = np.flatnonzero(new_label)
        self.group_label = np.cumsum(new_label) - 1


def per_person_sightings(sim, frame):
    """Per-(camera, person) reference for Simulator.sightings: one ray
    bundle per camera and person, cast against the surfaces and the body
    capsules of the other persons."""
    state = sim.frame_state(frame)
    out = {}
    for pid, joints in state.items():
        others = body_capsules([j for q, j in state.items() if q != pid])
        occluders = sim.scene["surfaces"] + [others]
        for cam_id, cal in sim.cals.items():
            dirs = joints - cal.center
            dist = np.linalg.norm(dirs, axis=1)
            t, _ = cast_rays(occluders, cal.center, dirs / np.maximum(dist[:, None], 1e-12))
            near = dist - OCCLUSION_MARGIN
            occ = np.where(t < near, 2, np.where(t < near + PARTIAL_MARGIN, 1, 0))
            uv, in_front = project_many(joints, cal)
            out[(cam_id, pid)] = (uv, occ, in_front & (occ < 2) & cal.in_bounds(uv))
    return out


def per_camera_sightings(sim, frame):
    """Per-camera reference for Simulator.sightings: one ray bundle per
    camera, holding every present person's joints, cast against the
    surfaces and the frame's capsule stack, each ray skipping its own
    person's capsules, and each camera projected alone."""
    state = sim.frame_state(frame)
    caps, owner = sim.frame_capsules(frame)
    joints = np.array(list(state.values())).reshape(-1, 3)
    ray_owner = np.repeat(list(state), JOINT_COUNT)
    occluders = sim.scene["surfaces"] + [replace(caps, skip=owner[:, None] == ray_owner)]
    per_camera = {}
    for cam_id, cal in sim.cals.items():
        dirs = joints - cal.center
        dist = np.linalg.norm(dirs, axis=1)
        t, _ = cast_rays(occluders, cal.center, dirs / np.maximum(dist[:, None], 1e-12))
        near = dist - OCCLUSION_MARGIN
        occ = np.where(t < near, 2, np.where(t < near + PARTIAL_MARGIN, 1, 0))
        uv, in_front = project_many(joints, cal)
        per_camera[cam_id] = (uv, occ, in_front & (occ < 2) & cal.in_bounds(uv))
    return {
        (cam_id, pid): tuple(a[i * JOINT_COUNT:(i + 1) * JOINT_COUNT] for a in arrays)
        for i, pid in enumerate(state)
        for cam_id, arrays in per_camera.items()
    }


def reference_closest_point(prim, p):
    """One point's closest surface point, by each surface kind's scalar
    formula; inside a Box, the nearest face (lowest axis on ties)."""
    p = np.asarray(p, dtype=float)
    if isinstance(prim, Sphere):
        return prim.closest_point(p)
    if isinstance(prim, Rect):
        c, (hu, hv) = prim.center, prim.half_sizes
        u, v = prim._uv
        q = p.copy()
        q[prim._n] = c[prim._n]
        q[u] = np.clip(q[u], c[u] - hu, c[u] + hu)
        q[v] = np.clip(q[v], c[v] - hv, c[v] + hv)
        return q
    assert isinstance(prim, Box)
    q = np.clip(p, prim.lo, prim.hi)
    if np.any(q != p):
        return q
    d_lo = p - prim.lo
    d_hi = prim.hi - p
    axis = int(np.argmin(np.minimum(d_lo, d_hi)))
    q = p.copy()
    q[axis] = prim.lo[axis] if d_lo[axis] < d_hi[axis] else prim.hi[axis]
    return q


def reference_surface_distance(prim, p):
    """One point's distance to a surface, by the scalar formula."""
    p = np.asarray(p, dtype=float)
    if isinstance(prim, Sphere):
        return float(abs(np.linalg.norm(p - prim.center) - prim.radius))
    return float(np.linalg.norm(p - reference_closest_point(prim, p)))


def per_point_nearest_per_label(surfaces, queries):
    """Per-(surface, point) reference for SurfaceDistances.nearest_per_label:
    a nested list of scalar distances per label, its first minimum in
    (surface, point) order, and the closest point of that pair."""
    by_label = {}
    for prim in surfaces:
        by_label.setdefault(prim.label, []).append(prim)
    out = {}
    for label, prims in by_label.items():
        d = [[reference_surface_distance(prim, q) for q in queries] for prim in prims]
        i, j = np.unravel_index(np.argmin(d), np.shape(d))
        out[label] = (d[i][j], reference_closest_point(prims[i], queries[j]))
    return out


def _point_distances(queries, xyz):
    """(Q, P) distances from queries (Q, 3) to points xyz (3, P), the
    squares summed x, y, z in order."""
    return np.sqrt(sum((queries[:, a, None] - xyz[a]) ** 2 for a in range(3)))


def _point_box_distances(queries, lo, hi):
    """(Q, B) distances from queries (Q, 3) to the boxes lo, hi (3, B)."""
    q = queries[:, :, None]
    return np.sqrt(sum(np.maximum(np.maximum(lo[a] - q[:, a], q[:, a] - hi[a]), 0.0) ** 2
                       for a in range(3)))


def per_hand_nearest_by_label(index, queries):
    """Per-hand reference for _CellIndex.nearest_by_label: the (distance,
    point index) arrays of one hand's queries (Q, 3), each cell group
    bounded by its distance to every query."""
    lower = _point_box_distances(queries, index.lo, index.hi).min(axis=0)
    upper = _point_distances(queries, index.heads).min(axis=0)
    bound = np.minimum.reduceat(upper, index.label_groups)
    keep = np.flatnonzero(lower <= bound[index.group_label])
    lens = index.ends[keep] - index.starts[keep]
    rows = np.repeat(index.starts[keep] - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
    d = _point_distances(queries, index.xyz[:, rows])
    query = d.argmin(axis=0)
    d = d[query, np.arange(len(rows))]
    label = np.repeat(index.group_label[keep], lens)
    label_rows = np.flatnonzero(np.diff(label, prepend=-1))
    best = np.minimum.reduceat(d, label_rows)
    n = len(index.order)
    key = np.where(d == best[label], query * n + index.order[rows], len(queries) * n)
    return best, np.minimum.reduceat(key, label_rows) % n


def per_hand_nearest_per_label(cloud, queries):
    """Per-hand reference for nearest_per_label on a SemanticCloud or a
    SurfaceDistances: {label: (distance, closest)} for one hand's
    queries (Q, 3)."""
    queries = np.asarray(queries, dtype=float).reshape(-1, 3)
    out = {}
    if isinstance(cloud, SurfaceDistances):
        for label, prims in cloud._by_label.items():
            d = np.array([prim.distances(queries) for prim in prims])
            i, j = np.unravel_index(np.argmin(d), d.shape)
            out[label] = (float(d[i, j]), lambda p=prims[i], q=queries[j]: p.closest_point(q))
        return out
    cloud.nearest_per_label(queries[None])  # builds the index
    d, idx = per_hand_nearest_by_label(cloud._index, queries)
    for k, label in enumerate(cloud.label_ids):
        out[label] = (float(d[k]), lambda i=idx[k]: cloud.positions[i])
    return out


class PerHandContactTracker(ContactTracker):
    """ContactTracker whose update asks the cloud once per hand, through
    per_hand_nearest_per_label, and observes each hand's labels in sorted
    order."""

    def update(self, frame, hands, cloud):
        cfg = self.cfg
        rows = []
        for hand in hands:
            hand_id, side, person = hand.hand_track_id, hand.side, hand.person_id
            state = self._hands.get(hand_id)
            if state is not None and frame - state.last_frame > cfg.max_gap_frames:
                state = None
            smoothed = smooth_anchors(state.smoothed if state else None, hand.anchors,
                                      cfg.ema_alpha)
            self._hands[hand_id] = _HandState(frame, smoothed)
            if len(cloud) == 0:
                continue
            for label, (d, closest) in sorted(per_hand_nearest_per_label(cloud, smoothed).items()):
                self.observe(frame, hand_id, side, person, label, d, closest)
                rows.append((frame, hand_id, side, person, label, float(d)))
        return rows


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


class RecordContactTracker:
    """Reference contact detector that keeps one record per in-contact
    frame and merges them into episodes only at finalize()."""

    def __init__(self, cfg: ContactConfig | None = None):
        self.cfg = cfg or ContactConfig()
        self._hands: dict[int, _HandState] = {}
        self._active: dict[tuple, bool] = {}
        self._records: dict[tuple, list] = {}

    def update(self, frame, hands, cloud):
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
        for h, hand in enumerate(hands):
            for k, label in enumerate(labels):
                d = float(distances[h, k])
                key = (hand.hand_track_id, label)
                active = hysteresis_step(self._active.get(key, False), d, cfg.tau_on, cfg.tau_off)
                self._active[key] = active
                if active:
                    # A copy: the point is a row of the cloud's positions, and a
                    # view would keep the whole frame's cloud alive.
                    self._records.setdefault(key, []).append(
                        (frame, d, np.array(closest(h, k), dtype=float), hand.person_id,
                         hand.side)
                    )
                rows.append((frame, hand.hand_track_id, hand.side, hand.person_id, label, d))
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


def per_key_threshold_sweep(traces, gt, grid, base_cfg: ContactConfig | None = None,
                            id_map=None, hysteresis_margin=0.03):
    """Re-run the contact stage per threshold on cached distance traces.

    traces: iterable of (frame, hand_id, side, person_id, label, distance).
    Returns rows (tau_on, binary_f1, binary_iou); tau_off is kept at
    tau_on + hysteresis_margin.
    """
    base = base_cfg or ContactConfig()
    series = {}
    for frame, hand_id, side, person, label, d in traces:
        series.setdefault((hand_id, label), []).append((frame, d, person, side))
    for seq in series.values():
        seq.sort(key=lambda r: r[0])

    rows = []
    for tau_on in grid:
        cfg = ContactConfig(
            tau_on=tau_on, tau_off=tau_on + hysteresis_margin,
            ema_alpha=base.ema_alpha,
            min_episode_frames=base.min_episode_frames,
            max_gap_frames=base.max_gap_frames,
        )
        episodes = []
        for (hand_id, label), seq in sorted(series.items()):
            dists = [d for _, d, _, _ in seq]
            active = run_hysteresis(dists, cfg.tau_on, cfg.tau_off)
            records = [
                (f, d, np.zeros(3), person, side)
                for (f, d, person, side), a in zip(seq, active)
                if a
            ]
            episodes.extend(merge_episodes(records, cfg, label))
        f1, iou = _framewise_sets(episodes, gt, id_map or {}, semantic=False)
        rows.append((float(tau_on), f1, iou))
    return rows


def per_pair_person_distance(fh, snapshot):
    """(priority tier, distance) of a fused hand to the side-matching arm
    joint of one person track: tier 0 the wrist, 1 the elbow, 2 the
    shoulder, the highest priority joint available; None when none is."""
    joints = SIDE_JOINTS[fh.side]
    for tier, name in enumerate(("wrist", "elbow", "shoulder")):
        k = joints[name]
        if snapshot.available[k]:
            return tier, float(np.linalg.norm(fh.palm_center - snapshot.joints[k]))
    return None


def naive_dbscan(points, eps, min_pts):
    """Reference DBSCAN straight from the textbook definition."""
    n = len(points)
    dist = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    core = (dist <= eps).sum(axis=1) >= min_pts
    labels = np.full(n, -1)
    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster
        seeds = [j for j in range(n) if dist[i, j] <= eps]
        k = 0
        while k < len(seeds):
            j = seeds[k]
            k += 1
            if labels[j] == -1:
                labels[j] = cluster
                if core[j]:
                    seeds.extend(m for m in range(n) if dist[j, m] <= eps)
        cluster += 1
    for i in range(n):
        if labels[i] == -1:
            labels[i] = cluster
            cluster += 1
    return labels


def naive_cluster_hands(palm_centers, sides, eps, min_pts):
    """Reference for cluster_hands: naive_dbscan per side, left first,
    each cluster's members in index order."""
    palm_centers = np.asarray(palm_centers, dtype=float).reshape(-1, 3)
    clusters = []
    for side in ("left", "right"):
        idx = [i for i, s in enumerate(sides) if s == side]
        if idx:
            labels = naive_dbscan(palm_centers[idx], eps, min_pts)
            clusters += [[idx[j] for j in np.flatnonzero(labels == lab)]
                         for lab in range(labels.max() + 1)]
    return clusters


class PerHandFusion(HandFusion):
    """Per-hand reference for HandFusion: each hand moved to the world
    frame alone with all its vertices, naive_dbscan clusters, and one
    np.linalg.norm per (hand, track) and (hand, person) pair."""

    def fuse(self, hands, cals):
        if not hands:
            return []
        anchors = [self.hand_schema.anchors(cals[h.camera_id].camera_to_world(h.vertices))
                   for h in hands]
        centers = np.array([a[0] for a in anchors])
        sides = [h.side for h in hands]
        sigma = [h.sigma_fit for h in hands]
        cam_ids = [h.camera_id for h in hands]
        fused = []
        for members in naive_cluster_hands(centers, sides, self.cfg.dbscan_eps,
                                           self.cfg.dbscan_min_pts):
            rep = select_representative(members, sigma, cam_ids)
            fused.append(FusedHand(side=hands[rep].side, anchors=anchors[rep]))
        return fused

    def _match_hand_tracks(self, frame, fused):
        cfg = self.cfg
        alive = {
            tid: tr for tid, tr in self.tracks.items()
            if frame - tr.last_frame <= cfg.hand_gap_frames
        }
        self.tracks = dict(alive)
        pairs = []
        for fi, fh in enumerate(fused):
            for tid, tr in alive.items():
                if tr.side != fh.side:
                    continue
                d = float(np.linalg.norm(fh.palm_center - tr.center))
                if d < self._motion_gate(frame, tr):
                    pairs.append((d, fi, tid))
        pairs.sort()
        taken_f, taken_t = set(), set()
        for d, fi, tid in pairs:
            if fi in taken_f or tid in taken_t:
                continue
            taken_f.add(fi)
            taken_t.add(tid)
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

    def associate(self, frame, fused, persons):
        cfg = self.cfg
        prefs, free = [], deque()
        kept = set()
        for fi, fh in enumerate(fused):
            tr = self.tracks[fh.hand_track_id]
            opts = sorted(
                (*td, p.id) for p in persons
                if (td := per_pair_person_distance(fh, p)) is not None and td[1] < cfg.tau_assoc
            )
            if (
                any(pid == tr.person for _, _, pid in opts)
                and (tr.person, fh.side) not in kept
                and np.linalg.norm(fh.palm_center - tr.center) < self._motion_gate(frame, tr)
            ):
                kept.add((tr.person, fh.side))
                opts.sort(key=lambda o: o[2] != tr.person)
                free.appendleft(fi)
            else:
                free.append(fi)
            prefs.append(iter(opts))

        held = {}
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


def two_phase_associate(hf, frame, fused, persons, counts):
    """Reference for HandFusion.associate: a persistence pass in fused
    order, then a greedy pass that takes the globally smallest (tier,
    distance, person id) proposal among the free hands each round, with
    slot eviction. counts["claims"] and counts["evictions"] count the
    persistence claims and evictions it makes."""
    cfg = hf.cfg
    by_id = {p.id: p for p in persons}
    slots = {}  # (person_id, side) -> fused index
    assigned = {}  # fused index -> person_id

    pool = []
    for fi, fh in enumerate(fused):
        tr = hf.tracks[fh.hand_track_id]
        gap = max(frame - tr.last_frame, 1)
        gate = cfg.v_max * gap / cfg.fps + cfg.slack_delta
        td = (
            per_pair_person_distance(fh, by_id[tr.person])
            if tr.person is not None and tr.person in by_id
            else None
        )
        if (
            td is not None
            and td[1] < cfg.tau_assoc
            and np.linalg.norm(fh.palm_center - tr.center) < gate
            and (tr.person, fh.side) not in slots
        ):
            slots[(tr.person, fh.side)] = fi
            assigned[fi] = tr.person
            counts["claims"] += 1
        else:
            pool.append(fi)

    candidates = {}
    for fi in list(pool) + list(assigned):
        opts = []
        for p in persons:
            td = per_pair_person_distance(fused[fi], p)
            if td is not None and td[1] < cfg.tau_assoc:
                opts.append((td[0], td[1], p.id))
        opts.sort()
        candidates[fi] = opts
    rank_of = {}
    for fi, pid in assigned.items():
        td = per_pair_person_distance(fused[fi], by_id[pid])
        rank_of[fi] = td if td is not None else (2, float("inf"))

    cursor = {fi: 0 for fi in pool}
    while pool:
        best = None
        for fi in pool:
            opts = candidates[fi]
            if cursor[fi] >= len(opts):
                continue
            key = opts[cursor[fi]]
            if best is None or key < best[0]:
                best = (key, fi)
        if best is None:
            break
        (tier, d, pid), fi = best
        slot = (pid, fused[fi].side)
        holder = slots.get(slot)
        if holder is None:
            slots[slot] = fi
            assigned[fi] = pid
            rank_of[fi] = (tier, d)
            pool.remove(fi)
        elif (tier, d) < rank_of[holder]:
            slots[slot] = fi
            assigned[fi] = pid
            rank_of[fi] = (tier, d)
            pool.remove(fi)
            del assigned[holder]
            pool.append(holder)
            cursor[holder] = 0
            candidates[holder] = [
                c for c in candidates[holder] if c[2] != pid
            ]
            counts["evictions"] += 1
        else:
            cursor[fi] += 1

    for fi, fh in enumerate(fused):
        tr = hf.tracks[fh.hand_track_id]
        tr.center = fh.palm_center
        tr.last_frame = frame
        pid = assigned.get(fi)
        fh.person_id = pid
        if pid is not None:
            if pid != tr.person:
                tr.prev_person = tr.person
                tr.person = pid
            if tr.prev_person is not None and pid != tr.prev_person:
                key = (pid, tr.prev_person)
                hf.votes[key] = hf.votes.get(key, 0) + 1
    return fused


class TwoPhaseHandFusion(HandFusion):
    """HandFusion whose association is two_phase_associate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.counts = {"claims": 0, "evictions": 0}

    def associate(self, frame, fused, persons):
        return two_phase_associate(self, frame, fused, persons, self.counts)
