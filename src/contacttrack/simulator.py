"""Synthetic multi-camera scene generator.

Scripted persons (rigid 26-joint template plus two-bone arm reaches),
labeled surface primitives, parametric hand blobs, and per-camera
projection with analytic occlusion. emit_dataset writes the exact
pipeline inputs and a ground-truth bundle in one frame loop (each
frame's detections, visibility rows and track lines), then the
ground-truth episodes: the pipeline's ContactTracker on noise-free
anchors, measured against the analytic surfaces in array passes. A
frame's person state, body capsules and sightings live in one record of
the last frame. The sighting pass feeds the detections and the
visibility ground truth; it casts one ray bundle per frame, holding
every camera's rays to every present person's joints, against the
surfaces and the frame's body capsules, each ray skipping its own body,
and gives each ray the bits of a cast of its camera's rays alone (see
primitives). SceneDepthProvider
answers every camera's patch centres of a frame in one call and one ray
bundle, cut into chunks of at most DEPTH_CHUNK_RAYS rays that each keep
the bits of a cast of their own, and the map in one call per frame with
every camera's stride-lattice cells that see a surface, cast once; both
draw the noise of all their cameras' pixels in one hash pass, under one
measurement rule, and cast through one method, in which each box and
rectangle surface is asked only about the pixels inside the image of its
bounding box.
All randomness is derived from the scene seed; depth queries use
stateless per-pixel hashing so results do not depend on query order. A
hand blob is drawn on first use, so a process that asks for no hand
vertices, as `run`'s depth source does, never loads numpy.random.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from functools import wraps

import numpy as np

from .contact import ContactTracker
from .errors import InputFormatError
from .geometry import CameraCalibration, project_cameras
from .hand_fusion import FusedHand, HandInstance
from .io import (
    RECORD_ERRORS,
    json_array,
    json_int,
    json_list,
    json_number,
    json_side,
    write_calibration,
    write_detection_line,
    write_episodes,
    write_json,
    write_label_table,
    write_track_line,
    write_visibility_line,
)
from .primitives import Box, Capsules, Rect, Sphere, cast_rays
from .schema import BONE_LENGTH, JOINT_COUNT, SIDE_JOINTS, TEMPLATE_JOINTS, HandSchema
from .semantic_map import LatticeCells, no_cells

OCCLUSION_MARGIN = 0.05  # m, occluder must be this much nearer than the joint
PARTIAL_MARGIN = 0.02    # m, near-miss band that only degrades confidence
BASE_CONFIDENCE = 0.95
PARTIAL_PENALTY = 0.3
TORSO_RADIUS = 0.14
LIMB_RADIUS = 0.05
MIN_HAND_VERTICES = 13  # hand blob: eight palm vertices and five fingertips
# Largest scene hand_vertex_count: well above MANO's 778 (the default) and
# denser hand meshes, it bounds the (count, 3) vertex and noise arrays
# drawn per person, side, camera and frame.
MAX_HAND_VERTICES = 10_000
# Rays per depth-patch chunk (8 patches at patch_w 5): bounds the
# (capsules, rays) cull arrays of a chunk, which a frame's one patch cast
# makes chunk by chunk.
DEPTH_CHUNK_RAYS = 200
# The depth cast's surface cull: a surface's pixel rectangle is the image
# of its bounding box widened by CULL_MARGIN_PX, and only a box whose
# corners all lie CULL_NEAR or more in front of the camera gets one.
# Rounding then moves a kernel hit's image by far less than the margin.
CULL_MARGIN_PX = 2.0
CULL_NEAR = 1e-3  # m
# Body capsules (start joint, end joint, radius): neck-pelvis torso, the
# upper and lower bone of each limb, head.
BODY_BONES = (
    (18, 19, TORSO_RADIUS),
    *((a, b, LIMB_RADIUS) for a, b in
      ((5, 7), (7, 9), (6, 8), (8, 10), (11, 13), (13, 15), (12, 14), (14, 16))),
    (0, 17, 0.10),
)


# -- deterministic hashing -------------------------------------------------

def _u64(n):
    """Integer n modulo 2**64 as a uint64 hash input: any seed, person id
    or frame hashes, and one in [0, 2**64) keeps its bits."""
    return np.uint64(int(n) % (1 << 64))


def _mix64(z):
    """SplitMix64's finalizer, in place on the uint64 array z, which it
    returns; uint64 arithmetic wraps modulo 2**64."""
    shifted = np.empty_like(z)
    with np.errstate(over="ignore"):
        z += np.uint64(0x9E3779B97F4A7C15)
        z ^= np.right_shift(z, np.uint64(30), out=shifted)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= np.right_shift(z, np.uint64(27), out=shifted)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _splitmix64(x):
    """SplitMix64's finalizer of the uint64 scalar x."""
    return _mix64(np.array(x, dtype=np.uint64))[()]


def _hash_normals(seed, frame, cam_index, pixel_ids):
    """Standard normals keyed by (seed, frame, camera, pixel), order-free:
    draw k is keyed by camera index cam_index[k] and pixel id
    pixel_ids[k] (uint64). One pass over the draws of every camera, the
    uint64 steps and the Box-Muller steps in place."""
    cam_index = np.asarray(cam_index, dtype=np.intp)
    if not len(cam_index):
        return np.zeros(0)
    with np.errstate(over="ignore"):
        key = _u64(seed) * np.uint64(0x100000001B3) ^ _u64(frame) * np.uint64(0x1000193)
    cams = np.arange(1, cam_index.max() + 2, dtype=np.uint64)  # camera index + 1
    h1 = _mix64(key ^ cams)[cam_index]
    h1 ^= np.asarray(pixel_ids, dtype=np.uint64)
    _mix64(h1)
    h2 = _mix64(h1 ^ np.uint64(0xDEADBEEFCAFEF00D))
    h1 >>= np.uint64(11)
    h2 >>= np.uint64(11)
    u1 = h1.astype(float)
    u1 /= float(1 << 53)
    np.clip(u1, 1e-12, 1.0, out=u1)
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 = h2.astype(float)
    u2 /= float(1 << 53)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


# -- camera construction ---------------------------------------------------

def look_at_extrinsics(position, target):
    """World-to-camera transform of a camera at position looking at
    target, its image x axis level (perpendicular to the +z gravity axis)
    unless it looks straight up or down."""
    position = np.asarray(position, dtype=float)
    z = np.asarray(target, dtype=float) - position
    if not np.linalg.norm(z) > 0:
        raise ValueError("camera look_at must differ from its position")
    z = z / np.linalg.norm(z)
    x = np.cross(z, (0.0, 0.0, 1.0))
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
    width = json_int(rec.get("width", 640), "width")
    height = json_int(rec.get("height", 480), "height")
    return CameraCalibration(
        camera_id=rec["id"],
        fx=json_number(rec, "fx", 520.0),
        fy=json_number(rec, "fy", 520.0),
        cx=json_number(rec, "cx", width / 2.0),
        cy=json_number(rec, "cy", height / 2.0),
        T_cw=look_at_extrinsics(json_array(rec, "position", (3,)),
                                json_array(rec, "look_at", (3,))),
        image_width=width,
        image_height=height,
    )


def _label(rec):
    """rec["label"], a surface label in 1..255: LBL1 grids and the map
    lattice hold labels as uint8, with 0 for background."""
    label = json_int(rec["label"], "label")
    if not 1 <= label <= 255:
        raise ValueError(f"label must be in 1..255, got {label}")
    return label


def _name(rec, label):
    """rec["name"] (surface_<label> if absent): one non-blank line of text."""
    name = rec.get("name", f"surface_{label}")
    if not isinstance(name, str) or not name.strip() or name.splitlines() != [name]:
        raise ValueError(f"name must be a non-blank single-line string, got {name!r}")
    return name


def surface_from_config(rec):
    """Build a labeled surface primitive from a scene config record."""
    kind = rec.get("type")
    label = _label(rec)
    if kind == "box":
        return Box(json_array(rec, "min", (3,)), json_array(rec, "max", (3,)), label=label)
    if kind == "sphere":
        return Sphere(json_array(rec, "center", (3,)), json_number(rec, "radius"), label=label)
    if kind == "rect":
        return Rect(json_array(rec, "center", (3,)), rec["axis"],
                    tuple(json_array(rec, "half_sizes", (2,))), label=label)
    raise ValueError(f"unknown surface type {kind!r}")


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

    Targets beyond full extension clamp to the arm length. Returns
    (elbow, wrist).
    """
    shoulder = np.asarray(shoulder, dtype=float)
    w = np.asarray(wrist_target, dtype=float)
    v = w - shoulder
    d = float(np.linalg.norm(v))
    reach = l_upper + l_fore
    if d < 1e-9:
        w = shoulder + np.array([0.0, 0.0, -reach])
        v = w - shoulder
        d = reach
    elif d > reach:
        w = shoulder + v * (reach / d)
        v = w - shoulder
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
    return elbow, w


def hand_blob(vertex_count, seed, person_id, side):
    """Local-frame hand vertex set: palm ring (centroid exactly at the
    origin), ellipsoid filler, five fingertip protrusions at the end."""
    rng = np.random.default_rng(
        np.uint64(_splitmix64(_u64(seed) ^ _u64(person_id * 2 + (side == "right"))))
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
    query group and label, the least distance over the label's surfaces
    and the group's query points, and a closest() that gives the surface
    point closest to the first (surface, point) pair attaining it, the
    first surface in scene order and then the first point on ties. Each
    surface measures every group's points in one array pass; the closest
    point is computed for the winning pair only, and only when closest()
    is called."""

    def __init__(self, surfaces):
        self._by_label = {}
        for prim in surfaces:
            self._by_label.setdefault(prim.label, []).append(prim)

    def __len__(self):
        return len(self._by_label)

    def nearest_per_label(self, anchors):
        anchors = np.asarray(anchors, dtype=float)
        H, Q, _ = anchors.shape
        labels = sorted(self._by_label)
        distances = np.empty((H, len(labels)))
        winners = []  # per label: the (surface, point) pair of each group
        for k, label in enumerate(labels):
            prims = self._by_label[label]
            d = np.array([prim.distances(anchors.reshape(-1, 3)) for prim in prims])
            # argmin takes the first minimum in row-major (surface, point) order.
            d = d.reshape(len(prims), H, Q).transpose(1, 0, 2).reshape(H, -1)
            at = d.argmin(axis=1)
            distances[:, k] = d[np.arange(H), at]
            winners.append(np.divmod(at, Q))

        def closest(h, k):
            i, j = winners[k]
            return self._by_label[labels[k]][i[h]].closest_point(anchors[h, j[h]])

        return labels, distances, closest


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
        surface_recs = json_list(data, "surfaces")
        surfaces = [surface_from_config(s) for s in surface_recs]
        label_table = {prim.label: _name(s, prim.label) for prim, s in zip(surfaces, surface_recs)}
        persons = []
        for p in json_list(data, "persons"):
            events = {}
            for h in json_list(p, "hands"):
                side = json_side(h, "hand side")
                events.setdefault(side, [])
                for ev in json_list(h, "events"):
                    events[side].append(
                        HandEvent(
                            start=json_int(ev["frame"], "frame"),
                            approach=json_int(ev.get("approach", 20), "approach"),
                            dwell=json_int(ev.get("dwell", 45), "dwell"),
                            retract=json_int(ev.get("retract", 20), "retract"),
                            target=json_array(ev, "target", (3,)),
                            label=_label(ev),
                        )
                    )
                events[side].sort(key=lambda e: e.start)
            waypoints = []
            for w in p["waypoints"]:
                x, y = json_array(w, "position", (2,))
                waypoints.append((json_int(w["frame"], "frame"), float(x), float(y),
                                  float(np.deg2rad(json_number(w, "facing", 0.0)))))
            absences = [tuple(json_int(v, "absent") for v in a) for a in json_list(p, "absent")]
            if not waypoints or any(len(a) != 2 for a in absences):
                raise ValueError("a person needs waypoints, and absent [start, stop] pairs")
            persons.append(PersonScript(id=json_int(p["id"], "id"), waypoints=waypoints,
                                        absences=absences, events=events))
        for what, ids in (("camera", [c.camera_id for c in cams]),
                          ("person id", [p.id for p in persons])):
            for k, i in enumerate(ids):
                if i in ids[:k]:
                    raise ValueError(f"{what} {i!r} listed twice")
        noise = data.get("noise", {})
        noise = {key: json_number(noise, key, 0.0)
                 for key in ("pixel_sigma", "dropout", "depth_sigma", "hand_jitter")}
        for key, value in noise.items():
            if value < 0:
                raise ValueError(f"{key} must be >= 0, got {value}")
        if noise["dropout"] > 1:
            raise ValueError(f"dropout must be <= 1, got {noise['dropout']}")
        hand_vertex_count = json_int(data.get("hand_vertex_count", 778), "hand_vertex_count")
        if hand_vertex_count < MIN_HAND_VERTICES:
            raise ValueError(f"hand_vertex_count {hand_vertex_count} is below {MIN_HAND_VERTICES}")
        if hand_vertex_count > MAX_HAND_VERTICES:
            raise ValueError(f"hand_vertex_count {hand_vertex_count} is above {MAX_HAND_VERTICES}")
        scene = {
            "cameras": {c.camera_id: c for c in cams},
            "surfaces": surfaces,
            "label_table": label_table,
            "persons": persons,
            "fps": json_number(data, "fps", 30.0),
            "frame_count": json_int(data.get("frame_count", 0), "frame_count"),
            **noise,
            "hand_vertex_count": hand_vertex_count,
            "raw": data,
        }
    except (*RECORD_ERRORS, AttributeError) as e:  # AttributeError: .get on a non-object
        raise InputFormatError(f"bad scene config: {e}")
    if not cams:
        raise InputFormatError("scene config lists no cameras")
    return scene


def _per_frame(method):
    """method(self, frame), built once per frame into the one record the
    per-frame methods share; a new frame drops the whole record."""
    @wraps(method)
    def cached(self, frame):
        if self._frame_record[0] != frame:
            self._frame_record = (frame, {})
        record = self._frame_record[1]
        if method not in record:
            record[method] = method(self, frame)
        return record[method]
    return cached


class Simulator:
    """Deterministic scene state and per-frame rendering."""

    def __init__(self, scene, seed=0):
        self.scene = parse_scene(scene)
        self.seed = int(seed)
        self.hand_schema = HandSchema(vertex_count=self.scene["hand_vertex_count"])
        self.cals = self.scene["cameras"]
        self.cam_index = {c: i for i, c in enumerate(sorted(self.cals))}
        self._blobs = {}  # (person id, side) -> local hand blob, drawn on first use
        self._frame_record = (None, {})

    # -- world state -------------------------------------------------------

    def skeleton(self, person: PersonScript, frame):
        """26 world joints for one person at one frame."""
        xy, yaw = person.pose(frame)
        joints = place_template(xy, yaw)
        for side in ("left", "right"):
            ev = person.active_event(frame, side)
            if ev is None:
                continue
            sj = SIDE_JOINTS[side]
            shoulder = joints[sj["shoulder"]]
            idle_wrist = joints[sj["wrist"]]
            w = ev.weight(frame)
            target = idle_wrist + w * (ev.target - idle_wrist)
            out_dir = _yaw_matrix(yaw) @ np.array([0.0, 1.0 if side == "left" else -1.0, 0.0])
            elbow, wrist = two_bone_reach(
                shoulder, target, BONE_LENGTH[5, 7], BONE_LENGTH[7, 9], out_dir
            )
            joints[sj["elbow"]] = elbow
            joints[sj["wrist"]] = wrist
        return joints

    @_per_frame
    def frame_state(self, frame):
        """{person_id: (26, 3) joints} for persons present at the frame."""
        return {p.id: self.skeleton(p, frame)
                for p in self.scene["persons"] if p.present(frame)}

    @_per_frame
    def frame_capsules(self, frame):
        """(capsules, owner): the body capsules of the persons present at the
        frame, stacked in frame_state order, and each row's person id, for
        the sighting pass and every depth patch of the frame."""
        state = self.frame_state(frame)
        return body_capsules(list(state.values())), np.repeat(list(state), len(BODY_BONES))

    def hand_vertices(self, person_id, side, joints):
        """World hand vertex set: the local blob carried by the wrist so
        that the palm centroid sits exactly on the wrist joint."""
        key = (person_id, side)
        if key not in self._blobs:
            self._blobs[key] = hand_blob(self.scene["hand_vertex_count"], self.seed, *key)
        return self._blobs[key] + joints[SIDE_JOINTS[side]["wrist"]]

    # -- rendering ---------------------------------------------------------

    @_per_frame
    def sightings(self, frame):
        """{(camera_id, person_id): (uv, occ, seen)} per present person: the
        joints' pixels, occlusion classes (0 visible, 1 partial, 2 hidden)
        and seen mask (in front, not hidden, in bounds), for render_frame
        and gt_visibility. One ray bundle holds every camera's rays to every
        present person's joints and is cast once against the surfaces and
        the frame's capsule stack, each ray skipping its own person's
        capsules; one stacked pass projects the joints into every camera."""
        state = self.frame_state(frame)
        caps, owner = self.frame_capsules(frame)
        cals = list(self.cals.values())
        joints = np.array(list(state.values())).reshape(-1, 3)
        skip = np.tile(owner[:, None] == np.repeat(list(state), JOINT_COUNT), len(cals))
        occluders = self.scene["surfaces"] + [replace(caps, skip=skip)]
        centers = np.array([cal.center for cal in cals])
        dirs = joints - centers[:, None]
        dist = np.linalg.norm(dirs, axis=2)
        t, _ = cast_rays(occluders, centers, dirs / np.maximum(dist[..., None], 1e-12),
                         counts=[len(joints)] * len(cals))
        t = t.reshape(dist.shape)
        near = dist - OCCLUSION_MARGIN
        occ = np.where(t < near, 2, np.where(t < near + PARTIAL_MARGIN, 1, 0))
        uv, in_front = project_cameras(joints, cals)
        seen = in_front & (occ < 2) & np.array([cal.in_bounds(u) for cal, u in zip(cals, uv)])
        # Rows of (camera, person, joint).
        shape = (len(cals), len(state), JOINT_COUNT)
        uv, occ, seen = uv.reshape(*shape, 2), occ.reshape(shape), seen.reshape(shape)
        return {(cal.camera_id, pid): (uv[c, i], occ[c, i], seen[c, i])
                for i, pid in enumerate(state) for c, cal in enumerate(cals)}

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
                    _u64(self.seed) ^ _u64(frame * 1024 + self.cam_index[cam_id])
                ))
            )
            persons_out = []
            hands_out = []
            for pid in sorted(state):
                joints = state[pid]
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
                    if not seen[SIDE_JOINTS[side]["wrist"]]:
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

    def gt_visibility(self, frame):
        """(frame, person, side, False) records of one frame for the wrists
        seen by fewer than two cameras (hand not reconstructible), read
        from the frame's sighting pass."""
        sightings = self.sightings(frame)
        out = []
        for pid in sorted(self.frame_state(frame)):
            for side in ("left", "right"):
                wk = SIDE_JOINTS[side]["wrist"]
                if sum(bool(sightings[(cam_id, pid)][2][wk]) for cam_id in self.cals) < 2:
                    out.append((frame, pid, side, False))
        return out

    def gt_episodes(self):
        """True episodes: the pipeline's ContactTracker (default config) fed
        noise-free anchors, one hand track per (person, side), against the
        analytic surfaces. The gt timing is what an ideal detector would
        produce under the pipeline's own contact rule."""
        tracker = ContactTracker()
        surfaces = SurfaceDistances(self.scene["surfaces"])
        for frame in range(self.scene["frame_count"]):
            keys, vertices = [], []
            for pid, joints in self.frame_state(frame).items():
                for side in ("left", "right"):
                    keys.append((pid, side))
                    vertices.append(self.hand_vertices(pid, side, joints))
            if not keys:
                continue
            anchors = self.hand_schema.anchors(np.stack(vertices))
            tracker.update(frame, [
                FusedHand(side, a, hand_track_id=2 * pid + (side == "right"), person_id=pid)
                for (pid, side), a in zip(keys, anchors)], surfaces)
        return tracker.finalize()


class SceneDepthProvider:
    """Lazy depth and label source backed by analytic ray casting.

    Depth noise is hashed per (seed, frame, camera, pixel) and quantized
    to millimeters, matching the DEP1 file format bit for bit; each call
    draws the noise of all its cameras' pixels in one hash pass. A patch
    call answers every patch every camera needs in a frame, in one cast
    of chunks of at most DEPTH_CHUNK_RAYS rays; a grids call answers
    with every camera's stride-lattice cells that see a surface, cast
    once per stride. Both cast through _cast, which hands each box and
    rectangle surface only the pixels inside its rectangle from
    _pixel_boxes. The map's cameras are the given calibrated ones, or
    every scene camera.
    """

    def __init__(self, sim: Simulator, cameras=None):
        self.sim = sim
        self.cameras = sorted(sim.cals if cameras is None else cameras)
        self._lattices = {}  # stride -> the lattice cells that see a surface
        self._boxes = {}  # camera id -> the surfaces' pixel rectangles

    def _keys(self, pixels):
        """The noise keys of pixels, a list of (camera_id, us, vs) of
        int pixel coordinates: per pixel, in order, its camera's index and
        its id v * width + u, as uint64."""
        cams = np.repeat(np.array([self.sim.cam_index[cam_id] for cam_id, _, _ in pixels],
                                  dtype=np.intp), [len(us) for _, us, _ in pixels])
        ids = [np.asarray(vs, dtype=np.uint64) * np.uint64(self.sim.cals[cam_id].image_width)
               + np.asarray(us, dtype=np.uint64) for cam_id, us, vs in pixels]
        return cams, np.concatenate(ids) if ids else np.zeros(0, dtype=np.uint64)

    def _measured(self, frame, cams, pixel_ids, depth):
        """The depth a sensor reports at the pixels of noise keys (cams,
        pixel_ids), from _keys, at true depth depth: hashed noise added
        where depth > 0, then rounded to the millimetres of a DEP1 cell."""
        sigma = self.sim.scene["depth_sigma"]
        noise = 0.0
        if sigma != 0.0:
            noise = _hash_normals(self.sim.seed, frame, cams, pixel_ids)
            noise *= sigma
        noisy = depth + np.where(depth > 0, noise, 0.0)
        np.clip(noisy, 0.0, 65.535, out=noisy)
        noisy *= 1000.0
        np.round(noisy, out=noisy)
        noisy /= 1000.0
        return noisy

    def _pixel_boxes(self, cam_id):
        """(S, 4) [u_lo, u_hi, v_lo, v_hi] per scene surface: the pixel
        rectangle that holds the image of its bounding box, widened by
        CULL_MARGIN_PX. A surface whose box reaches nearer than CULL_NEAR to
        the camera plane, or behind it, gets an unbounded rectangle (every
        pixel), and so does a sphere: its ray test takes a BLAS mat-vec
        that numpy hands to another kernel for a single row, so a sphere
        asked about fewer rays could move a hit's last bits."""
        if cam_id not in self._boxes:
            cal = self.sim.cals[cam_id]
            surfaces = self.sim.scene["surfaces"]
            boxes = np.tile([-np.inf, np.inf, -np.inf, np.inf], (len(surfaces), 1))
            corner = np.array([[i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(8)], dtype=bool)
            for i, prim in enumerate(surfaces):
                if isinstance(prim, Sphere):
                    continue
                lo, hi = prim.bounds()
                pc = cal.world_to_camera(np.where(corner, hi, lo))
                if pc[:, 2].min() >= CULL_NEAR:
                    u = cal.fx * pc[:, 0] / pc[:, 2] + cal.cx
                    v = cal.fy * pc[:, 1] / pc[:, 2] + cal.cy
                    m = CULL_MARGIN_PX
                    boxes[i] = u.min() - m, u.max() + m, v.min() - m, v.max() + m
            self._boxes[cam_id] = boxes
        return self._boxes[cam_id]

    def _cast(self, pixels, bodies=None, chunk=None):
        """(depth, label) of pixels, a list of (camera_id, us, vs), cast
        against the scene surfaces and then the bodies stack, if given:
        depth 0 on a miss, label 0 on a miss or a body. Each camera's rays
        are cut, in order, into chunks of at most chunk rays (one chunk if
        None), and all chunks are one cast_rays bundle with each chunk a
        camera of its own, so a chunk's BLAS products (its rays' turn to the
        world frame, a sphere's mat-vec, the capsule products) run at the
        shape a cast of that chunk alone gives them. Each surface is asked
        only about the pixels inside its _pixel_boxes rectangle, which
        holds every pixel whose ray it hits."""
        origins, dirs, inside = [], [], []
        for cam_id, us, vs in pixels:
            cal = self.sim.cals[cam_id]
            us = np.asarray(us, dtype=float).ravel()
            vs = np.asarray(vs, dtype=float).ravel()
            x = (us - cal.cx) / cal.fx
            y = (vs - cal.cy) / cal.fy
            rays = np.stack([x, y, np.ones_like(x)], axis=1)
            step = chunk or max(len(rays), 1)
            for lo in range(0, len(rays), step):
                dirs.append(rays[lo:lo + step] @ cal.R)  # R^T applied row-wise
                origins.append(cal.center)
            box = self._pixel_boxes(cam_id)
            inside.append((us >= box[:, :1]) & (us <= box[:, 1:2])
                          & (vs >= box[:, 2:3]) & (vs <= box[:, 3:]))
        if not dirs:
            return np.zeros(0), np.zeros(0, dtype=int)
        surfaces = self.sim.scene["surfaces"]
        prims = list(surfaces)
        rows = [None if row.all() else np.flatnonzero(row)
                for row in np.concatenate(inside, axis=1)]
        if bodies is not None:
            prims.append(bodies)
            rows.append(None)
        t, idx = cast_rays(prims, np.array(origins), np.concatenate(dirs), rows=rows,
                           counts=[len(d) for d in dirs])
        # The ray parameter along a direction with camera z = 1 is the
        # camera-frame depth directly.
        depth = np.where(np.isfinite(t), t, 0.0)
        # A miss (idx -1) reads the table's last entry, 0.
        table = np.array([s.label for s in surfaces] + [0], dtype=int)
        return depth, table[np.minimum(idx, len(surfaces))]

    def patch(self, frame, centres, size):
        """{camera_id: (n, size, size) depth patches}, surfaces and bodies,
        centred on the n pixels (us[i], vs[i]) of each camera's centres[
        camera_id] = (us, vs); 0 outside the image. Every camera's in-image
        patch pixels go into one cast, in chunks of at most
        DEPTH_CHUNK_RAYS rays, which bounds a chunk's (capsules, rays) cull
        arrays, and into one noise draw. A ray's box and rectangle hits and the
        capsule hit formula are elementwise, so they keep their bits in any
        bundle; the BLAS products run chunk by chunk (see _cast), so a ray
        keeps the bits of a cast of its chunk alone, whatever the other
        cameras ask. Their bits can depend on the chunk's ray count n, and
        numpy takes another path for a one-ray chunk, so a hit can differ in
        its last bits from a cast of other chunks, which after the
        millimetre rounding moves a patch depth only on an exact tie."""
        r = size // 2
        off = np.arange(-r, r + 1)
        pixels, inside = [], []
        for cam_id, (us, vs) in sorted(centres.items()):
            cal = self.sim.cals[cam_id]
            us = np.asarray(us, dtype=int)[:, None, None] + off[None, None, :]
            vs = np.asarray(vs, dtype=int)[:, None, None] + off[None, :, None]
            us, vs = np.broadcast_arrays(us, vs)
            ok = (us >= 0) & (us < cal.image_width) & (vs >= 0) & (vs < cal.image_height)
            pixels.append((cam_id, us[ok], vs[ok]))
            inside.append(ok)
        bodies = self.sim.frame_capsules(frame)[0]
        d = self._cast(pixels, bodies, DEPTH_CHUNK_RAYS)[0]
        d = self._measured(frame, *self._keys(pixels), d)
        out, lo = {}, 0
        for (cam_id, us, _), ok in zip(pixels, inside):
            depth = np.zeros(ok.shape)
            depth[ok] = d[lo:lo + len(us)]
            out[cam_id] = depth
            lo += len(us)
        return out

    def _lattice(self, stride):
        """Every camera's stride-lattice cells that see a surface, cameras
        in self.cameras order and each's cells in row-major order: (noise
        keys, us, vs, depth, labels) per cell. Cast once per stride, camera
        by camera, so that a cast holds one lattice's arrays at a time."""
        if stride not in self._lattices:
            pixels, depth, labels = [], [], []
            for cam_id in self.cameras:
                cal = self.sim.cals[cam_id]
                vs, us = np.meshgrid(np.arange(0, cal.image_height, stride),
                                     np.arange(0, cal.image_width, stride), indexing="ij")
                d, lab = self._cast([(cam_id, us, vs)])
                hit = lab > 0
                pixels.append((cam_id, us.ravel()[hit], vs.ravel()[hit]))
                depth.append(d[hit])
                labels.append(lab[hit].astype(np.uint8))
            us, vs = (np.concatenate([p[k] for p in pixels]) for k in (1, 2))
            self._lattices[stride] = (*self._keys(pixels), us, vs,
                                      np.concatenate(depth), np.concatenate(labels))
        return self._lattices[stride]

    def grids(self, frame, stride=4):
        """The frame's LatticeCells: each camera's stride-lattice cells,
        pixel (u, v) = (j, i) * stride, that see a surface and keep a
        positive depth once measured. Surfaces only, so the map is built
        from static geometry: the lattices are cast once per stride, each
        surface over the cells inside its pixel rectangle, and each frame
        draws the noise of every camera's cells in one pass. No cells, and
        no cast, in a scene without surfaces."""
        if not self.sim.scene["surfaces"]:
            return no_cells()
        cams, ids, us, vs, depth, labels = self._lattice(stride)
        depth = self._measured(frame, cams, ids, depth)
        keep = depth > 0
        if not keep.all():
            cams, us, vs, depth, labels = cams[keep], us[keep], vs[keep], depth[keep], labels[keep]
        # A camera's index is its rank in sorted id order, as in cameras.
        counts = np.bincount(cams, minlength=len(self.sim.cals))
        seen = [cam_id for cam_id in self.cameras if counts[self.sim.cam_index[cam_id]]]
        return LatticeCells(seen, [int(counts[self.sim.cam_index[c]]) for c in seen],
                            us, vs, labels, depth)


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
    write_json(os.path.join(out_dir, "hand_schema.json"), asdict(sim.hand_schema))
    write_json(os.path.join(out_dir, "scene.json"), {"seed": seed, "scene": sim.scene["raw"]},
               sort_keys=True)

    available = np.ones(JOINT_COUNT, dtype=bool)
    with (open(os.path.join(out_dir, "detections.jsonl"), "w") as detections,
          open(os.path.join(gt_dir, "visibility.jsonl"), "w") as visibility,
          open(os.path.join(gt_dir, "tracks.jsonl"), "w") as tracks):
        for frame in range(sim.scene["frame_count"]):
            for record in sim.render_frame(frame):
                write_detection_line(detections, *record)
            for row in sim.gt_visibility(frame):
                write_visibility_line(visibility, *row)
            state = sim.frame_state(frame)
            for pid in sorted(state):
                write_track_line(tracks, frame, pid, 1.0, state[pid], available)
    episodes = sim.gt_episodes()
    write_episodes(os.path.join(gt_dir, "episodes.csv"), episodes)
    write_json(os.path.join(gt_dir, "meta.json"), {
        "seed": seed,
        "frame_count": sim.scene["frame_count"],
        "fps": sim.scene["fps"],
        "episodes": len(episodes),
        "persons": [p.id for p in sim.scene["persons"]],
    }, sort_keys=True)
    return sim
