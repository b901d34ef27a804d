"""Synthetic multi-camera scene generator.

Scripted persons (rigid 26-joint template plus two-bone arm reaches),
labeled surface primitives, parametric hand blobs, and per-camera
projection with analytic occlusion. Emits the exact pipeline input
formats plus a ground-truth bundle. All randomness is derived from the
scene seed; depth queries use stateless per-pixel hashing so results do
not depend on query order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .config import ContactConfig
from .contact import hysteresis_step, merge_episodes, smooth_anchors, ContactEpisode
from .errors import InputFormatError
from .geometry import CameraCalibration, project_many
from .hand_fusion import HandInstance
from .io import (
    write_calibration,
    write_detections,
    write_episodes,
    write_track_line,
    write_visibility,
)
from .primitives import Capsule, cast_rays, surface_from_config
from .schema import HandSchema, JOINT_COUNT, JointSchema, TEMPLATE_JOINTS
from .semantic_map import write_label_table

OCCLUSION_MARGIN = 0.05  # m, occluder must be this much nearer than the joint
PARTIAL_MARGIN = 0.02    # m, near-miss band that only degrades confidence
BASE_CONFIDENCE = 0.95
PARTIAL_PENALTY = 0.3
TORSO_RADIUS = 0.14
LIMB_RADIUS = 0.05


# -- deterministic hashing -------------------------------------------------

def _splitmix64(x):
    with np.errstate(over="ignore"):
        z = (np.uint64(x) + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        return z ^ (z >> np.uint64(31))


def _hash_normals(seed, frame, cam_index, pixel_ids):
    """Standard normals keyed by (seed, frame, camera, pixel), order-free."""
    pixel_ids = np.asarray(pixel_ids, dtype=np.uint64)
    base = _splitmix64(
        np.uint64(seed) * np.uint64(0x100000001B3)
        ^ np.uint64(frame) * np.uint64(0x1000193)
        ^ np.uint64(cam_index + 1)
    )
    with np.errstate(over="ignore"):
        h1 = _splitmix64(pixel_ids ^ base)
        h2 = _splitmix64(h1 ^ np.uint64(0xDEADBEEFCAFEF00D))
    u1 = (h1 >> np.uint64(11)).astype(float) / float(1 << 53)
    u2 = (h2 >> np.uint64(11)).astype(float) / float(1 << 53)
    u1 = np.clip(u1, 1e-12, 1.0)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


# -- camera construction ---------------------------------------------------

def look_at_extrinsics(position, target, up=(0.0, 0.0, 1.0)):
    position = np.asarray(position, dtype=float)
    z = np.asarray(target, dtype=float) - position
    z = z / np.linalg.norm(z)
    up = np.asarray(up, dtype=float)
    x = np.cross(z, up)
    if np.linalg.norm(x) < 1e-9:
        x = np.cross(z, (1.0, 0.0, 0.0))
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.stack([x, y, z])
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = -R @ position
    return T


def camera_from_config(rec):
    return CameraCalibration(
        camera_id=rec["id"],
        fx=float(rec.get("fx", 520.0)),
        fy=float(rec.get("fy", 520.0)),
        cx=float(rec.get("cx", rec.get("width", 640) / 2.0)),
        cy=float(rec.get("cy", rec.get("height", 480) / 2.0)),
        T_cw=look_at_extrinsics(rec["position"], rec["look_at"]),
        image_width=int(rec.get("width", 640)),
        image_height=int(rec.get("height", 480)),
    )


# -- skeleton scripting ----------------------------------------------------

def _yaw_matrix(yaw):
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def place_template(position_xy, yaw):
    """Rigid template placement: pelvis above position_xy, facing yaw."""
    R = _yaw_matrix(yaw)
    out = TEMPLATE_JOINTS @ R.T
    out[:, 0] += position_xy[0]
    out[:, 1] += position_xy[1]
    return out


def two_bone_reach(shoulder, wrist_target, l_upper, l_fore, bend_hint):
    """Analytic elbow/wrist placement for a reach toward wrist_target.

    Targets beyond full extension clamp to the arm length and are flagged.
    Returns (elbow, wrist, clamped).
    """
    shoulder = np.asarray(shoulder, dtype=float)
    w = np.asarray(wrist_target, dtype=float)
    v = w - shoulder
    d = float(np.linalg.norm(v))
    reach = l_upper + l_fore
    clamped = False
    if d < 1e-9:
        w = shoulder + np.array([0.0, 0.0, -reach])
        v = w - shoulder
        d = reach
        clamped = True
    elif d > reach:
        w = shoulder + v * (reach / d)
        v = w - shoulder
        clamped = d > reach + 1e-9
        d = reach
    u = v / d
    a = (l_upper**2 - l_fore**2 + d * d) / (2 * d)
    h = np.sqrt(max(l_upper**2 - a * a, 0.0))
    bend = np.asarray(bend_hint, dtype=float)
    bend = bend - (bend @ u) * u
    n = np.linalg.norm(bend)
    if n < 1e-9:
        alt = np.array([0.0, 0.0, 1.0]) if abs(u[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        bend = alt - (alt @ u) * u
        n = np.linalg.norm(bend)
    bend = bend / n
    elbow = shoulder + a * u + h * bend
    return elbow, w, clamped


def hand_blob(vertex_count, seed, person_id, side):
    """Local-frame hand vertex set: palm ring (centroid exactly at the
    origin), ellipsoid filler, five fingertip protrusions at the end."""
    if vertex_count < 13:
        raise ValueError("hand blob needs at least 13 vertices")
    rng = np.random.default_rng(
        np.uint64(_splitmix64(np.uint64(seed) ^ np.uint64(person_id * 2 + (side == "right"))))
    )
    n_palm = 8
    ang = np.linspace(0, 2 * np.pi, n_palm, endpoint=False)
    palm = np.stack([0.03 * np.cos(ang), 0.03 * np.sin(ang), np.zeros(n_palm)], axis=1)
    palm -= palm.mean(axis=0)
    n_fill = vertex_count - n_palm - 5
    fill = rng.normal(0, 1.0, size=(n_fill, 3))
    fill /= np.linalg.norm(fill, axis=1, keepdims=True)
    fill *= np.array([0.045, 0.035, 0.015])
    tips_ang = np.linspace(-0.6, 0.6, 5)
    tips = np.stack(
        [0.09 * np.cos(tips_ang), 0.09 * np.sin(tips_ang), np.full(5, 0.01)], axis=1
    )
    return np.concatenate([palm, fill, tips])


@dataclass
class HandEvent:
    start: int
    approach: int
    dwell: int
    retract: int
    target: np.ndarray
    label: int

    @property
    def end(self):
        return self.start + self.approach + self.dwell + self.retract

    def weight(self, frame):
        """Reach interpolation weight in [0, 1] (smoothstep ramps)."""
        if frame < self.start or frame >= self.end:
            return 0.0
        t = frame - self.start
        if t < self.approach:
            x = (t + 1) / self.approach
        elif t < self.approach + self.dwell:
            x = 1.0
        else:
            x = 1.0 - (t - self.approach - self.dwell + 1) / self.retract
        x = min(max(x, 0.0), 1.0)
        return x * x * (3 - 2 * x)


@dataclass
class PersonScript:
    id: int
    waypoints: list  # (frame, x, y, yaw_rad)
    absences: list = field(default_factory=list)  # (start, stop) inclusive
    events: dict = field(default_factory=dict)  # side -> [HandEvent]

    def present(self, frame):
        return not any(a <= frame <= b for a, b in self.absences)

    def pose(self, frame):
        wp = self.waypoints
        if frame <= wp[0][0]:
            return np.array(wp[0][1:3]), wp[0][3]
        if frame >= wp[-1][0]:
            return np.array(wp[-1][1:3]), wp[-1][3]
        for (f0, x0, y0, a0), (f1, x1, y1, a1) in zip(wp, wp[1:]):
            if f0 <= frame <= f1:
                t = 0.0 if f1 == f0 else (frame - f0) / (f1 - f0)
                xy = np.array([x0 + t * (x1 - x0), y0 + t * (y1 - y0)])
                return xy, a0 + t * (a1 - a0)
        raise AssertionError("unreachable")

    def active_event(self, frame, side):
        for ev in self.events.get(side, []):
            if ev.start <= frame < ev.end:
                return ev
        return None


def parse_scene(data):
    """Validate and normalize a scene config dict."""
    try:
        cams = [camera_from_config(c) for c in data["cameras"]]
        surfaces = [surface_from_config(s) for s in data.get("surfaces", [])]
        label_table = {
            int(s["label"]): s.get("name", f"surface_{s['label']}")
            for s in data.get("surfaces", [])
        }
        persons = []
        for p in data.get("persons", []):
            events = {}
            for h in p.get("hands", []):
                side = h["side"]
                events.setdefault(side, [])
                for ev in h.get("events", []):
                    events[side].append(
                        HandEvent(
                            start=int(ev["frame"]),
                            approach=int(ev.get("approach", 20)),
                            dwell=int(ev.get("dwell", 45)),
                            retract=int(ev.get("retract", 20)),
                            target=np.asarray(ev["target"], dtype=float),
                            label=int(ev["label"]),
                        )
                    )
                events[side].sort(key=lambda e: e.start)
            persons.append(
                PersonScript(
                    id=int(p["id"]),
                    waypoints=[
                        (int(w["frame"]), float(w["position"][0]), float(w["position"][1]),
                         float(np.deg2rad(w.get("facing", 0.0))))
                        for w in p["waypoints"]
                    ],
                    absences=[tuple(int(v) for v in a) for a in p.get("absent", [])],
                    events=events,
                )
            )
    except (KeyError, ValueError, TypeError) as e:
        raise InputFormatError(f"bad scene config: {e}")
    if not cams:
        raise InputFormatError("scene config lists no cameras")
    noise = data.get("noise", {})
    return {
        "cameras": {c.camera_id: c for c in cams},
        "surfaces": surfaces,
        "label_table": label_table,
        "persons": persons,
        "fps": float(data.get("fps", 30.0)),
        "frame_count": int(data.get("frame_count", 0)),
        "pixel_sigma": float(noise.get("pixel_sigma", 0.0)),
        "dropout": float(noise.get("dropout", 0.0)),
        "depth_sigma": float(noise.get("depth_sigma", 0.0)),
        "hand_jitter": float(noise.get("hand_jitter", 0.0)),
        "hand_vertex_count": int(data.get("hand_vertex_count", 778)),
        "raw": data,
    }


class Simulator:
    """Deterministic scene state and per-frame rendering."""

    def __init__(self, scene, seed=0):
        if not isinstance(scene, dict) or "cameras" not in scene:
            raise InputFormatError("scene config must be a mapping with cameras")
        self.scene = parse_scene(scene) if "raw" not in scene else scene
        self.seed = int(seed)
        self.schema = JointSchema()
        self.hand_schema = HandSchema(vertex_count=self.scene["hand_vertex_count"])
        self.cals = self.scene["cameras"]
        self.cam_index = {c: i for i, c in enumerate(sorted(self.cals))}
        self._blobs = {}
        self._frame_cache = (None, None)
        for p in self.scene["persons"]:
            for side in ("left", "right"):
                self._blobs[(p.id, side)] = hand_blob(
                    self.scene["hand_vertex_count"], self.seed, p.id, side
                )
        self._l_upper = self.schema.bone_length(5, 7)
        self._l_fore = self.schema.bone_length(7, 9)

    # -- world state -------------------------------------------------------

    def skeleton(self, person: PersonScript, frame):
        """26 world joints for one person at one frame, plus reach flags."""
        xy, yaw = person.pose(frame)
        joints = place_template(xy, yaw)
        clamped = {}
        for side in ("left", "right"):
            ev = person.active_event(frame, side)
            if ev is None:
                continue
            sj = self.schema.side_joints[side]
            shoulder = joints[sj["shoulder"]]
            idle_wrist = joints[sj["wrist"]]
            w = ev.weight(frame)
            target = idle_wrist + w * (ev.target - idle_wrist)
            out_dir = _yaw_matrix(yaw) @ np.array([0.0, 1.0 if side == "left" else -1.0, 0.0])
            elbow, wrist, cl = two_bone_reach(
                shoulder, target, self._l_upper, self._l_fore, out_dir
            )
            joints[sj["elbow"]] = elbow
            joints[sj["wrist"]] = wrist
            clamped[side] = cl
        return joints, clamped

    def frame_state(self, frame):
        """{person_id: (joints, clamped)} for persons present at the frame."""
        if self._frame_cache[0] == frame:
            return self._frame_cache[1]
        state = {}
        for p in self.scene["persons"]:
            if p.present(frame):
                state[p.id] = self.skeleton(p, frame)
        self._frame_cache = (frame, state)
        return state

    def hand_vertices(self, person_id, side, joints):
        """World hand vertex set: the local blob carried by the wrist so
        that the palm centroid sits exactly on the wrist joint."""
        wrist = joints[self.schema.side_joints[side]["wrist"]]
        return self._blobs[(person_id, side)] + wrist

    def hand_anchors(self, person_id, side, joints):
        return self.hand_schema.anchors(self.hand_vertices(person_id, side, joints))

    def capsules(self, frame, exclude_person=None):
        """Body occlusion volumes for all present persons."""
        caps = []
        state = self.frame_state(frame)
        for pid, (joints, _) in state.items():
            if pid == exclude_person:
                continue
            caps.append(Capsule(joints[18], joints[19], TORSO_RADIUS))  # neck-pelvis
            for a, b in ((5, 7), (7, 9), (6, 8), (8, 10),
                         (11, 13), (13, 15), (12, 14), (14, 16)):
                caps.append(Capsule(joints[a], joints[b], LIMB_RADIUS))
            caps.append(Capsule(joints[0], joints[17], 0.10))  # head
        return caps

    # -- rendering ---------------------------------------------------------

    def _occlusion(self, cal, points, occluders):
        """Per-point occlusion class: 0 visible, 1 partial, 2 hidden."""
        origin = cal.center
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        dirs = points - origin
        dist = np.linalg.norm(dirs, axis=1)
        t, _ = cast_rays(occluders, origin, dirs / np.maximum(dist[:, None], 1e-12))
        out = np.zeros(len(points), dtype=int)
        out[t < dist - OCCLUSION_MARGIN] = 2
        out[(t >= dist - OCCLUSION_MARGIN) & (t < dist - OCCLUSION_MARGIN + PARTIAL_MARGIN)] = 1
        return out

    def render_frame(self, frame):
        """Per-camera detection records for one frame.

        Returns a list of (frame, camera_id, persons, hands) tuples in
        camera order, persons as (26, 3) [u, v, s] arrays, hands as
        HandInstance in the camera frame.
        """
        state = self.frame_state(frame)
        sigma = self.scene["pixel_sigma"]
        dropout = self.scene["dropout"]
        jitter = self.scene["hand_jitter"]
        records = []
        for cam_id in sorted(self.cals):
            cal = self.cals[cam_id]
            rng = np.random.default_rng(
                np.uint64(_splitmix64(
                    np.uint64(self.seed) ^ np.uint64(frame * 1024 + self.cam_index[cam_id])
                ))
            )
            persons_out = []
            hands_out = []
            for pid in sorted(state):
                joints, _ = state[pid]
                dropped = rng.random() < dropout
                occluders = self.scene["surfaces"] + self.capsules(frame, exclude_person=pid)
                occ = self._occlusion(cal, joints, occluders)
                uv, in_front = project_many(joints, cal)
                det = np.zeros((JOINT_COUNT, 3))
                noise = rng.normal(0.0, 1.0, size=(JOINT_COUNT, 2))
                for k in range(JOINT_COUNT):
                    visible = (
                        in_front[k]
                        and occ[k] < 2
                        and cal.in_bounds(uv[k])
                        and not dropped
                    )
                    if not visible:
                        continue
                    det[k, :2] = uv[k] + sigma * noise[k]
                    det[k, 2] = BASE_CONFIDENCE - (PARTIAL_PENALTY if occ[k] == 1 else 0.0)
                if det[:, 2].any():
                    persons_out.append(det)
                # Hands ride on the wrist; exported when the wrist is seen.
                for side in ("left", "right"):
                    vnoise = rng.normal(0.0, 1.0, size=(self.scene["hand_vertex_count"], 3))
                    wk = self.schema.side_joints[side]["wrist"]
                    if dropped or det[wk, 2] <= 0:
                        continue
                    verts = self.hand_vertices(pid, side, joints) + jitter * vnoise
                    hands_out.append(
                        HandInstance(
                            camera_id=cam_id,
                            side=side,
                            vertices=cal.world_to_camera(verts),
                            sigma_fit=jitter,
                        )
                    )
            records.append((frame, cam_id, persons_out, hands_out))
        return records

    # -- ground truth ------------------------------------------------------

    def gt_tracks(self):
        for frame in range(self.scene["frame_count"]):
            state = self.frame_state(frame)
            for pid in sorted(state):
                yield frame, pid, state[pid][0]

    def gt_visibility(self):
        """(frame, person, side, False) records where a wrist is seen by
        fewer than two cameras (hand not reconstructible)."""
        out = []
        for frame in range(self.scene["frame_count"]):
            state = self.frame_state(frame)
            for pid in sorted(state):
                joints, _ = state[pid]
                for side in ("left", "right"):
                    wk = self.schema.side_joints[side]["wrist"]
                    seen = 0
                    for cam_id in sorted(self.cals):
                        cal = self.cals[cam_id]
                        occluders = self.scene["surfaces"] + self.capsules(frame, exclude_person=pid)
                        occ = self._occlusion(cal, joints[wk][None, :], occluders)
                        uv, in_front = project_many(joints[wk][None, :], cal)
                        if in_front[0] and occ[0] < 2 and cal.in_bounds(uv[0]):
                            seen += 1
                    if seen < 2:
                        out.append((frame, pid, side, False))
        return out

    def gt_episodes(self, cfg: ContactConfig | None = None):
        """Rule-derived true episodes from analytic anchor-surface distances.

        Applies the same EMA and hysteresis machinery the pipeline uses,
        on noise-free anchors, so the gt timing matches what an ideal
        detector would produce under the same rule.
        """
        cfg = cfg or ContactConfig()
        episodes = []
        by_label = {s.label: s for s in self.scene["surfaces"]}
        for p in self.scene["persons"]:
            for side in ("left", "right"):
                smoothed = None
                last_frame = None
                active = {lab: False for lab in by_label}
                records = {lab: [] for lab in by_label}
                for frame in range(self.scene["frame_count"]):
                    if not p.present(frame):
                        continue
                    joints, _ = self.skeleton(p, frame)
                    anchors = self.hand_anchors(p.id, side, joints)
                    if last_frame is not None and frame - last_frame > cfg.max_gap_frames:
                        smoothed = None
                    smoothed = smooth_anchors(smoothed, anchors, cfg.ema_alpha)
                    last_frame = frame
                    for lab, prim in by_label.items():
                        d = min(prim.distance(a) for a in smoothed)
                        active[lab] = hysteresis_step(active[lab], d, cfg.tau_on, cfg.tau_off)
                        if active[lab]:
                            point = prim.closest_point(min(smoothed, key=prim.distance))
                            records[lab].append((frame, d, point, p.id, side))
                for lab in sorted(by_label):
                    episodes.extend(merge_episodes(records[lab], cfg, lab))
        episodes.sort(key=lambda e: (e.t_start, e.person_id, e.side, e.surface_label))
        return episodes


class SceneDepthProvider:
    """Lazy depth and label source backed by analytic ray casting.

    Depth noise is hashed per (seed, frame, camera, pixel) and quantized
    to millimeters, matching the DEP1 file format bit for bit.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._surface_cache = {}

    def _noise(self, frame, cam_id, us, vs):
        sigma = self.sim.scene["depth_sigma"]
        if sigma == 0.0:
            return 0.0
        cal = self.sim.cals[cam_id]
        pixel_ids = np.asarray(vs, dtype=np.uint64) * np.uint64(cal.image_width) + np.asarray(
            us, dtype=np.uint64
        )
        return sigma * _hash_normals(self.sim.seed, frame, self.sim.cam_index[cam_id], pixel_ids)

    def _cast(self, frame, cam_id, us, vs, include_bodies=True):
        cal = self.sim.cals[cam_id]
        us = np.asarray(us, dtype=float).ravel()
        vs = np.asarray(vs, dtype=float).ravel()
        x = (us - cal.cx) / cal.fx
        y = (vs - cal.cy) / cal.fy
        dirs_cam = np.stack([x, y, np.ones_like(x)], axis=1)
        dirs_world = dirs_cam @ cal.R  # R^T applied row-wise
        prims = list(self.sim.scene["surfaces"])
        n_surf = len(prims)
        if include_bodies:
            prims += self.sim.capsules(frame)
        t, idx = cast_rays(prims, cal.center, dirs_world)
        # The ray parameter along a direction with camera z = 1 is the
        # camera-frame depth directly.
        depth = t
        labels = np.where(
            (idx >= 0) & (idx < n_surf),
            [prims[i].label if 0 <= i < n_surf else 0 for i in idx],
            0,
        )
        depth = np.where(np.isfinite(depth), depth, 0.0)
        return depth, np.asarray(labels, dtype=int)

    def patch(self, frame, cam_id, u, v, size):
        cal = self.sim.cals[cam_id]
        r = size // 2
        us, vs = np.meshgrid(
            np.arange(u - r, u + r + 1), np.arange(v - r, v + r + 1)
        )
        shape = us.shape
        us = us.ravel()
        vs = vs.ravel()
        ok = (us >= 0) & (us < cal.image_width) & (vs >= 0) & (vs < cal.image_height)
        depth = np.zeros(len(us))
        if ok.any():
            d, _ = self._cast(frame, cam_id, us[ok], vs[ok], include_bodies=True)
            d = d + np.where(d > 0, self._noise(frame, cam_id, us[ok], vs[ok]), 0.0)
            depth[ok] = np.round(np.clip(d, 0.0, 65.535) * 1000.0) / 1000.0
        return depth.reshape(shape)

    def grids(self, frame, cam_id, stride=4):
        """Full-resolution (label, depth) grids populated on the stride
        lattice only; other pixels are zero. Surfaces only, so the map is
        built from static geometry."""
        cal = self.sim.cals[cam_id]
        key = (cam_id, stride)
        if key not in self._surface_cache:
            vs, us = np.meshgrid(
                np.arange(0, cal.image_height, stride),
                np.arange(0, cal.image_width, stride),
                indexing="ij",
            )
            us = us.ravel()
            vs = vs.ravel()
            depth, labels = self._cast(frame, cam_id, us, vs, include_bodies=False)
            self._surface_cache[key] = (us, vs, depth, labels)
        us, vs, depth, labels = self._surface_cache[key]
        noisy = depth + np.where(depth > 0, self._noise(frame, cam_id, us, vs), 0.0)
        noisy = np.round(np.clip(noisy, 0.0, 65.535) * 1000.0) / 1000.0
        label_grid = np.zeros((cal.image_height, cal.image_width), dtype=np.uint8)
        depth_grid = np.zeros((cal.image_height, cal.image_width))
        label_grid[vs, us] = labels
        depth_grid[vs, us] = np.where(labels > 0, noisy, 0.0)
        return label_grid, depth_grid


def emit_dataset(scene_data, out_dir, seed=0):
    """Write a complete synthetic dataset plus ground truth under out_dir."""
    sim = Simulator(scene_data, seed)
    os.makedirs(out_dir, exist_ok=True)
    gt_dir = os.path.join(out_dir, "gt")
    os.makedirs(gt_dir, exist_ok=True)

    write_calibration(os.path.join(out_dir, "calibration.json"), sim.cals)
    write_label_table(
        os.path.join(out_dir, "label_table.txt"), sim.scene["label_table"]
    )
    with open(os.path.join(out_dir, "hand_schema.json"), "w") as f:
        json.dump(sim.hand_schema.to_json(), f, indent=1)
        f.write("\n")
    with open(os.path.join(out_dir, "scene.json"), "w") as f:
        json.dump({"seed": seed, "scene": sim.scene["raw"]}, f, indent=1, sort_keys=True)
        f.write("\n")

    def det_records():
        for frame in range(sim.scene["frame_count"]):
            for rec in sim.render_frame(frame):
                yield rec

    write_detections(os.path.join(out_dir, "detections.jsonl"), det_records())

    with open(os.path.join(gt_dir, "tracks.jsonl"), "w") as f:
        for frame, pid, joints in sim.gt_tracks():
            write_track_line(f, frame, pid, 1.0, joints, np.ones(JOINT_COUNT, dtype=bool))
    episodes = sim.gt_episodes()
    write_episodes(os.path.join(gt_dir, "episodes.csv"), episodes)
    write_visibility(os.path.join(gt_dir, "visibility.jsonl"), sim.gt_visibility())
    with open(os.path.join(gt_dir, "meta.json"), "w") as f:
        json.dump(
            {
                "seed": seed,
                "frame_count": sim.scene["frame_count"],
                "fps": sim.scene["fps"],
                "episodes": len(episodes),
                "persons": [p.id for p in sim.scene["persons"]],
            },
            f, indent=1, sort_keys=True,
        )
        f.write("\n")
    return sim
