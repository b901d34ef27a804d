"""Synthetic multi-camera scene generator.

Scripted persons (rigid 26-joint template plus two-bone arm reaches),
labeled surface primitives, parametric hand blobs, and per-camera
projection with analytic occlusion. Emits the exact pipeline input
formats plus a ground-truth bundle. One sighting pass per frame feeds
both the detections and the visibility ground truth; ground-truth
episodes come from the pipeline's ContactTracker on noise-free anchors.
Each frame's body capsules are stacked once and shared by the sighting
pass and every depth patch of the frame.
All randomness is derived from the scene seed; depth queries use
stateless per-pixel hashing so results do not depend on query order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .config import ContactConfig
from .contact import ContactTracker
from .errors import InputFormatError
from .geometry import CameraCalibration, project_many
from .hand_fusion import FusedHand, HandInstance
from .io import (
    write_calibration,
    write_detections,
    write_episodes,
    write_track_line,
    write_visibility,
)
from .primitives import Capsules, cast_rays, surface_from_config
from .schema import HandSchema, JOINT_COUNT, JointSchema, TEMPLATE_JOINTS
from .semantic_map import write_label_table

OCCLUSION_MARGIN = 0.05  # m, occluder must be this much nearer than the joint
PARTIAL_MARGIN = 0.02    # m, near-miss band that only degrades confidence
BASE_CONFIDENCE = 0.95
PARTIAL_PENALTY = 0.3
TORSO_RADIUS = 0.14
LIMB_RADIUS = 0.05
MIN_HAND_VERTICES = 13  # hand blob: eight palm vertices and five fingertips
# Body capsules (start joint, end joint, radius): neck-pelvis torso, the
# upper and lower bone of each limb, head.
BODY_BONES = (
    (18, 19, TORSO_RADIUS),
    *((a, b, LIMB_RADIUS) for a, b in
      ((5, 7), (7, 9), (6, 8), (8, 10), (11, 13), (13, 15), (12, 14), (14, 16))),
    (0, 17, 0.10),
)


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
    if not np.linalg.norm(z) > 0:
        raise ValueError("camera look_at must differ from its position")
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
    if vertex_count < MIN_HAND_VERTICES:
        raise ValueError(f"hand blob needs at least {MIN_HAND_VERTICES} vertices")
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


def body_capsules(joints):
    """Occlusion volumes of the bodies posed by (P, 26, 3) joints (or one
    (26, 3) person), stacked person by person in BODY_BONES order."""
    joints = np.asarray(joints, dtype=float).reshape(-1, JOINT_COUNT, 3)
    a, b, radius = zip(*BODY_BONES)
    return Capsules.between(
        joints[:, a], joints[:, b], np.tile(radius, len(joints)))


class SurfaceDistances:
    """Analytic stand-in for a SemanticCloud of the scene surfaces: per
    label, the least distance over the label's surfaces and the query
    points, and the surface point closest to the first (surface, point)
    pair attaining it."""

    def __init__(self, surfaces):
        self._by_label = {}
        for prim in surfaces:
            self._by_label.setdefault(prim.label, []).append(prim)

    def __len__(self):
        return len(self._by_label)

    def nearest_per_label(self, queries):
        out = {}
        for label, prims in self._by_label.items():
            d = [[prim.distance(q) for q in queries] for prim in prims]
            i, j = np.unravel_index(np.argmin(d), np.shape(d))
            out[label] = (d[i][j], prims[i].closest_point(queries[j]))
        return out


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
        noise = data.get("noise", {})
        scene = {
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
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        raise InputFormatError(f"bad scene config: {e}")
    if not cams:
        raise InputFormatError("scene config lists no cameras")
    if scene["hand_vertex_count"] < MIN_HAND_VERTICES:
        raise InputFormatError(
            f"hand_vertex_count {scene['hand_vertex_count']} is below {MIN_HAND_VERTICES}")
    return scene


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
        self._capsule_cache = (None, None)
        self._sighting_cache = (None, None)
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

    def frame_capsules(self, frame):
        """(capsules, owner): the body capsules of the persons present at the
        frame, stacked in frame_state order, and each row's person id.
        Built once per frame (the last frame is cached like frame_state)
        for the sighting pass and every depth patch of the frame."""
        if self._capsule_cache[0] == frame:
            return self._capsule_cache[1]
        state = self.frame_state(frame)
        caps = body_capsules([joints for joints, _ in state.values()])
        owner = np.repeat(list(state), len(BODY_BONES))
        self._capsule_cache = (frame, (caps, owner))
        return caps, owner

    def hand_vertices(self, person_id, side, joints):
        """World hand vertex set: the local blob carried by the wrist so
        that the palm centroid sits exactly on the wrist joint."""
        wrist = joints[self.schema.side_joints[side]["wrist"]]
        return self._blobs[(person_id, side)] + wrist

    # -- rendering ---------------------------------------------------------

    def sightings(self, frame):
        """{(camera_id, person_id): (uv, occ, seen)} per present person: the
        joints' pixels, occlusion classes (0 visible, 1 partial, 2 hidden)
        and seen mask (in front, not hidden, in bounds). One ray bundle per
        (camera, person) against the surfaces and the other persons'
        capsules; the last frame is cached for render_frame and gt_visibility."""
        if self._sighting_cache[0] == frame:
            return self._sighting_cache[1]
        state = self.frame_state(frame)
        caps, owner = self.frame_capsules(frame)
        out = {}
        for pid, (joints, _) in state.items():
            occluders = self.scene["surfaces"] + [caps[owner != pid]]
            for cam_id, cal in self.cals.items():
                dirs = joints - cal.center
                dist = np.linalg.norm(dirs, axis=1)
                t, _ = cast_rays(occluders, cal.center, dirs / np.maximum(dist[:, None], 1e-12))
                near = dist - OCCLUSION_MARGIN
                occ = np.where(t < near, 2, np.where(t < near + PARTIAL_MARGIN, 1, 0))
                uv, in_front = project_many(joints, cal)
                out[(cam_id, pid)] = (uv, occ, in_front & (occ < 2) & cal.in_bounds(uv))
        self._sighting_cache = (frame, out)
        return out

    def render_frame(self, frame):
        """Per-camera detection records for one frame.

        Returns a list of (frame, camera_id, persons, hands) tuples in
        camera order, persons as (26, 3) [u, v, s] arrays, hands as
        HandInstance in the camera frame.
        """
        state = self.frame_state(frame)
        sightings = self.sightings(frame)
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
                uv, occ, seen = sightings[(cam_id, pid)]
                seen = seen & (not dropped)
                det = np.zeros((JOINT_COUNT, 3))
                noise = rng.normal(0.0, 1.0, size=(JOINT_COUNT, 2))
                det[seen, :2] = uv[seen] + sigma * noise[seen]
                det[seen, 2] = np.where(
                    occ[seen] == 1, BASE_CONFIDENCE - PARTIAL_PENALTY, BASE_CONFIDENCE
                )
                if seen.any():
                    persons_out.append(det)
                # Hands ride on the wrist; exported when the wrist is seen.
                for side in ("left", "right"):
                    vnoise = rng.normal(0.0, 1.0, size=(self.scene["hand_vertex_count"], 3))
                    if not seen[self.schema.side_joints[side]["wrist"]]:
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

    def gt_visibility(self, frame):
        """(frame, person, side, False) records of one frame for the wrists
        seen by fewer than two cameras (hand not reconstructible), read
        from the frame's sighting pass."""
        sightings = self.sightings(frame)
        out = []
        for pid in sorted(self.frame_state(frame)):
            for side in ("left", "right"):
                wk = self.schema.side_joints[side]["wrist"]
                if sum(bool(sightings[(cam_id, pid)][2][wk]) for cam_id in self.cals) < 2:
                    out.append((frame, pid, side, False))
        return out

    def gt_episodes(self, cfg: ContactConfig | None = None):
        """True episodes: the pipeline's ContactTracker fed noise-free
        anchors, one hand track per (person, side), against the analytic
        surfaces. The gt timing is what an ideal detector would produce
        under the pipeline's own contact rule."""
        tracker = ContactTracker(cfg)
        surfaces = SurfaceDistances(self.scene["surfaces"])
        for frame in range(self.scene["frame_count"]):
            for pid, (joints, _) in self.frame_state(frame).items():
                for side in ("left", "right"):
                    verts = self.hand_vertices(pid, side, joints)
                    anchors = self.hand_schema.anchors(verts)
                    hand = FusedHand(
                        frame=frame, side=side, vertices_world=verts, palm_center=anchors[0],
                        anchors=anchors, sigma_fit=0.0, source_cameras=[],
                        hand_track_id=2 * pid + (side == "right"), person_id=pid,
                    )
                    tracker.update(frame, hand, surfaces)
        return tracker.finalize()


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
        surfaces = self.sim.scene["surfaces"]
        prims = surfaces + [self.sim.frame_capsules(frame)[0]] if include_bodies else surfaces
        t, idx = cast_rays(prims, cal.center, dirs_world)
        # The ray parameter along a direction with camera z = 1 is the
        # camera-frame depth directly.
        depth = np.where(np.isfinite(t), t, 0.0)
        # Label 0 for bodies (idx past the surfaces) and misses (idx -1,
        # which reads the table's last entry).
        table = np.array([s.label for s in surfaces] + [0], dtype=int)
        return depth, table[np.minimum(idx, len(surfaces))]

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

    visibility = []  # filled from the same per-frame sightings as the detections

    def det_records():
        for frame in range(sim.scene["frame_count"]):
            yield from sim.render_frame(frame)
            visibility.extend(sim.gt_visibility(frame))

    write_detections(os.path.join(out_dir, "detections.jsonl"), det_records())
    write_visibility(os.path.join(gt_dir, "visibility.jsonl"), visibility)

    with open(os.path.join(gt_dir, "tracks.jsonl"), "w") as f:
        for frame, pid, joints in sim.gt_tracks():
            write_track_line(f, frame, pid, 1.0, joints, np.ones(JOINT_COUNT, dtype=bool))
    episodes = sim.gt_episodes()
    write_episodes(os.path.join(gt_dir, "episodes.csv"), episodes)
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
