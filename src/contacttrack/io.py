"""File formats: calibration, detection/track streams, episodes, depth grids.

All streams are line-delimited JSON; episodes are CSV. Writers are
deterministic so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .contact import ContactEpisode
from .errors import InputFormatError
from .geometry import CameraCalibration
from .schema import JOINT_COUNT
from .semantic_map import read_label_grid

GRAVITY_AXIS = "+z"
DEPTH_GRID_MAGIC = b"DEP1"

EPISODE_HEADER = [
    "person_id", "side", "surface_label", "t_start", "t_stop",
    "px", "py", "pz", "min_distance_m",
]


def _round(x, nd=6):
    return round(float(x), nd)


# -- calibration -----------------------------------------------------------

def write_calibration(path, cals):
    cams = []
    for cam_id in sorted(cals):
        c = cals[cam_id]
        cams.append({
            "camera_id": c.camera_id,
            "fx": c.fx, "fy": c.fy, "cx": c.cx, "cy": c.cy,
            "width": c.image_width, "height": c.image_height,
            "T_cw": [float(v) for v in np.asarray(c.T_cw).reshape(-1)],
        })
    with open(path, "w") as f:
        json.dump({"gravity_axis": GRAVITY_AXIS, "cameras": cams}, f, indent=1)
        f.write("\n")


def read_calibration(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise InputFormatError(f"cannot parse calibration: {e}", path=path)
    if data.get("gravity_axis") != GRAVITY_AXIS:
        raise InputFormatError(
            f"unsupported gravity axis {data.get('gravity_axis')!r}", path=path
        )
    cals = {}
    for cam in data.get("cameras", []):
        try:
            cal = CameraCalibration(
                camera_id=cam["camera_id"],
                fx=float(cam["fx"]), fy=float(cam["fy"]),
                cx=float(cam["cx"]), cy=float(cam["cy"]),
                T_cw=np.array(cam["T_cw"], dtype=float).reshape(4, 4),
                image_width=int(cam["width"]), image_height=int(cam["height"]),
            )
        except (KeyError, ValueError) as e:
            raise InputFormatError(f"bad camera record: {e}", path=path)
        cals[cal.camera_id] = cal
    if not cals:
        raise InputFormatError("calibration lists no cameras", path=path)
    return cals


# -- detection stream ------------------------------------------------------

def write_detections(path, records):
    """records: iterable of (frame, camera_id, persons, hands).

    persons: list of (26, 3) arrays; hands: list of HandInstance.
    """
    with open(path, "w") as f:
        for frame, camera_id, persons, hands in records:
            rec = {
                "frame": int(frame),
                "camera_id": camera_id,
                "persons": [
                    {"joints": [[_round(u), _round(v), _round(s)] for u, v, s in p]}
                    for p in persons
                ],
                "hands": [
                    {
                        "side": h.side,
                        "sigma_fit": _round(h.sigma_fit),
                        "vertices": [[_round(x), _round(y), _round(z)] for x, y, z in h.vertices],
                    }
                    for h in hands
                ],
            }
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_detections(path):
    """Yield (frame, camera_id, persons, hands_raw) records in file order.

    persons are (26, 3) float arrays; hands_raw are dicts with side,
    sigma_fit and an (N, 3) vertices array.
    """
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                frame = int(rec["frame"])
                camera_id = rec["camera_id"]
                persons = [np.array(p["joints"], dtype=float) for p in rec.get("persons", [])]
                hands = [
                    {
                        "side": h["side"],
                        "sigma_fit": float(h["sigma_fit"]),
                        "vertices": np.array(h["vertices"], dtype=float),
                    }
                    for h in rec.get("hands", [])
                ]
            except (KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
                raise InputFormatError(f"bad detection record: {e}", path=path, line=ln)
            for p in persons:
                if p.shape != (JOINT_COUNT, 3):
                    raise InputFormatError(
                        f"person joints shape {p.shape}, want ({JOINT_COUNT}, 3)",
                        path=path, line=ln,
                    )
            yield frame, camera_id, persons, hands


# -- track streams ---------------------------------------------------------

def write_track_line(f, frame, track_id, existence, joints, available):
    rec = {
        "frame": int(frame),
        "id": int(track_id),
        "E": _round(existence, 4),
        "joints": [
            [_round(x), _round(y), _round(z), 1 if a else 0]
            for (x, y, z), a in zip(joints, available)
        ],
    }
    f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_tracks(path):
    """Yield (frame, id, E, joints (26,3), available (26,)) records."""
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                arr = np.array(rec["joints"], dtype=float)
                if arr.shape != (JOINT_COUNT, 4):
                    raise ValueError(f"joints shape {arr.shape}")
                yield (
                    int(rec["frame"]), int(rec["id"]), float(rec["E"]),
                    arr[:, :3], arr[:, 3] > 0.5,
                )
            except (KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
                raise InputFormatError(f"bad track record: {e}", path=path, line=ln)


def write_hand_track_line(f, frame, hand_track_id, side, person_id, palm, anchors):
    rec = {
        "frame": int(frame),
        "hand_track_id": int(hand_track_id),
        "side": side,
        "person_id": None if person_id is None else int(person_id),
        "palm_center": [_round(v) for v in palm],
        "anchors": [[_round(v) for v in a] for a in anchors],
    }
    f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_hand_tracks(path):
    """Yield (frame, hand_track_id, side, person_id, palm (3,), anchors (6,3))."""
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                yield (
                    int(rec["frame"]), int(rec["hand_track_id"]), rec["side"],
                    None if rec["person_id"] is None else int(rec["person_id"]),
                    np.array(rec["palm_center"], dtype=float),
                    np.array(rec["anchors"], dtype=float),
                )
            except (KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
                raise InputFormatError(f"bad hand track record: {e}", path=path, line=ln)


# -- episodes --------------------------------------------------------------

def write_episodes(path, episodes):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(EPISODE_HEADER)
        for ep in episodes:
            w.writerow([
                "" if ep.person_id is None else int(ep.person_id),
                ep.side,
                int(ep.surface_label),
                int(ep.t_start),
                int(ep.t_stop),
                _round(ep.contact_point[0]),
                _round(ep.contact_point[1]),
                _round(ep.contact_point[2]),
                _round(ep.min_distance),
            ])


def read_episodes(path):
    episodes = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFormatError("empty episode file", path=path)
        if header != EPISODE_HEADER:
            raise InputFormatError(f"bad episode header {header}", path=path, line=1)
        for ln, row in enumerate(reader, 2):
            if not row:
                continue
            try:
                episodes.append(ContactEpisode(
                    person_id=None if row[0] == "" else int(row[0]),
                    side=row[1],
                    surface_label=int(row[2]),
                    t_start=int(row[3]),
                    t_stop=int(row[4]),
                    contact_point=np.array([float(row[5]), float(row[6]), float(row[7])]),
                    min_distance=float(row[8]),
                ))
            except (ValueError, IndexError) as e:
                raise InputFormatError(f"bad episode row: {e}", path=path, line=ln)
    return episodes


# -- visibility stream -----------------------------------------------------

def write_visibility(path, records):
    """records: iterable of (frame, person_id, side, visible)."""
    with open(path, "w") as f:
        for frame, person_id, side, visible in records:
            rec = {
                "frame": int(frame), "person_id": int(person_id),
                "side": side, "visible": bool(visible),
            }
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_visibility(path):
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                yield int(rec["frame"]), int(rec["person_id"]), rec["side"], bool(rec["visible"])
            except (KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
                raise InputFormatError(f"bad visibility record: {e}", path=path, line=ln)


# -- distance traces (for threshold sweeps) --------------------------------

def write_traces(f, rows):
    """rows: list of (frame, hand_id, side, person_id, label, distance)."""
    for frame, hand_id, side, person_id, label, d in rows:
        rec = {
            "frame": int(frame), "hand": int(hand_id), "side": side,
            "person": None if person_id is None else int(person_id),
            "label": int(label), "d": _round(d),
        }
        f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_traces(path):
    """Yield (frame, hand_id, side, person_id, label, distance) records."""
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                yield (
                    int(rec["frame"]), int(rec["hand"]), rec["side"],
                    None if rec["person"] is None else int(rec["person"]),
                    int(rec["label"]), float(rec["d"]),
                )
            except (KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
                raise InputFormatError(f"bad trace record: {e}", path=path, line=ln)


# -- depth grids -----------------------------------------------------------

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


def read_depth_grid(path):
    """Read a DEP1 grid back to float meters (0 where invalid)."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise InputFormatError(f"cannot read depth grid: {e.strerror}", path=path)
    with f:
        header = f.read(12)
        if header[:4] != DEPTH_GRID_MAGIC:
            raise InputFormatError(f"bad depth grid magic {header[:4]!r}", path=path)
        if len(header) < 12:
            raise InputFormatError("truncated depth grid", path=path)
        w, h = (int(n) for n in np.frombuffer(header[4:], dtype=np.uint32))
        data = f.read(w * h * 2)
        if len(data) != w * h * 2:
            raise InputFormatError("truncated depth grid", path=path)
        return np.frombuffer(data, dtype="<u2").reshape(h, w).astype(float) / 1000.0


class GridDepthProvider:
    """Depth and label source over per-(frame, camera) grid files.

    Files live under root as frame_{frame:06d}_{camera}.dep (DEP1) and
    .lbl (LBL1); the most recently touched depth grid stays cached.
    """

    def __init__(self, root):
        self.root = root
        self._key = None
        self._grid = None

    def _path(self, frame, cam_id, ext):
        return os.path.join(self.root, f"frame_{frame:06d}_{cam_id}{ext}")

    def _load(self, frame, cam_id):
        key = (frame, cam_id)
        if key != self._key:
            self._grid = read_depth_grid(self._path(frame, cam_id, ".dep"))
            self._key = key
        return self._grid

    def patch(self, frame, cam_id, u, v, size):
        grid = self._load(frame, cam_id)
        h, w = grid.shape
        r = size // 2
        u0, u1 = max(0, u - r), min(w, u + r + 1)
        v0, v1 = max(0, v - r), min(h, v + r + 1)
        if u0 >= u1 or v0 >= v1:
            return np.zeros((0, 0))
        return grid[v0:v1, u0:u1]

    def grids(self, frame, cam_id, stride=4):
        """(label, depth) grids of one camera, or None when the frame has no
        label file. The files hold full-resolution grids, so stride is
        left to back-projection."""
        lbl = self._path(frame, cam_id, ".lbl")
        if not os.path.exists(lbl):
            return None
        return read_label_grid(lbl), self._load(frame, cam_id)
