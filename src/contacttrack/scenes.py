"""Builtin synthetic scene presets.

A 7 x 7 m room with four corner cameras. The crossing scenes exercise
multi-person tracking; the induction scenes script hand-surface touches
against five labeled surfaces. Presets are plain scene-config dicts, so
they can also serve as templates for custom scene files.
"""

from __future__ import annotations

import copy

import numpy as np

ROOM_CENTER = (3.5, 3.5, 1.1)
CAMERA_HEIGHT = 2.4  # m
CAMERA_INSET = 0.25  # m, along both walls from the corner

SHOULDER_LATERAL = 0.20
STAND_BACK = 0.25  # horizontal shoulder-to-target distance while touching


def corner_cameras():
    """The four cameras, CAMERA_INSET m in from each corner at CAMERA_HEIGHT
    m, looking at the room centre."""
    lo, hi = CAMERA_INSET, 7 - CAMERA_INSET
    pts = [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]
    return [
        {
            "id": f"cam{i}",
            "position": [x, y, CAMERA_HEIGHT],
            "look_at": list(ROOM_CENTER),
            "fx": 360.0, "fy": 360.0, "width": 640, "height": 480,
        }
        for i, (x, y) in enumerate(pts)
    ]


def stand_for_touch(target, approach_deg, side="right"):
    """Standing pose from which `target` is reachable by the given arm.

    approach_deg is the horizontal direction the person faces while
    touching (degrees, world frame). Returns (position, facing_deg).
    The shoulder ends up STAND_BACK meters short of the target in the
    horizontal plane, well inside the 0.57 m arm reach for targets
    between roughly 1.0 and 1.9 m height.
    """
    target = np.asarray(target, dtype=float)
    yaw = np.deg2rad(approach_deg)
    d = np.array([np.cos(yaw), np.sin(yaw)])
    sign = 1.0 if side == "left" else -1.0
    lat = sign * SHOULDER_LATERAL * np.array([-np.sin(yaw), np.cos(yaw)])
    pos = target[:2] - STAND_BACK * d - lat
    return [float(pos[0]), float(pos[1])], float(approach_deg)


def _touch_script(stations):
    """Waypoints and hand events from a touch itinerary.

    stations: list of (event_start, target, label, approach_deg, side,
    dwell). The person walks to a staging point behind each stand point,
    steps in along the approach direction, holds still through
    approach+dwell+retract, then backs out and heads to the next station.
    The staging legs keep idle hands clear of furniture during transit.
    """
    waypoints = []
    hands = {}
    for start, target, label, deg, side, dwell in stations:
        pos, facing = stand_for_touch(target, deg, side)
        yaw = np.deg2rad(deg)
        back = [float(pos[0] - 0.8 * np.cos(yaw)), float(pos[1] - 0.8 * np.sin(yaw))]
        approach, retract = 15, 15
        end = start + approach + dwell + retract
        waypoints.append({"frame": start - 25, "position": back, "facing": facing})
        waypoints.append({"frame": start - 8, "position": pos, "facing": facing})
        waypoints.append({"frame": end + 5, "position": pos, "facing": facing})
        waypoints.append({"frame": end + 15, "position": back, "facing": facing})
        hands.setdefault(side, []).append(
            {
                "frame": start, "approach": approach, "dwell": dwell,
                "retract": retract, "target": [float(v) for v in target],
                "label": label,
            }
        )
    return waypoints, [{"side": s, "events": evs} for s, evs in sorted(hands.items())]


def crossing_clean(frame_count=600):
    """Three persons on crossing straight paths, no noise, no occluders."""
    return {
        "fps": 30,
        "frame_count": frame_count,
        "hand_vertex_count": 40,
        "cameras": corner_cameras(),
        "surfaces": [],
        "persons": [
            {
                "id": 1,
                "waypoints": [
                    {"frame": 0, "position": [1.5, 1.5], "facing": 45},
                    {"frame": 580, "position": [5.5, 5.5], "facing": 45},
                ],
            },
            {
                "id": 2,
                "waypoints": [
                    {"frame": 0, "position": [5.6, 1.5], "facing": 135},
                    {"frame": 120, "position": [5.6, 1.5], "facing": 135},
                    {"frame": 520, "position": [1.5, 5.6], "facing": 135},
                    {"frame": 600, "position": [1.5, 5.6], "facing": 135},
                ],
            },
            {
                "id": 3,
                "waypoints": [
                    {"frame": 0, "position": [3.5, 5.8], "facing": 270},
                    {"frame": 260, "position": [3.5, 5.8], "facing": 270},
                    {"frame": 600, "position": [3.2, 1.5], "facing": 270},
                ],
            },
        ],
        "noise": {},
    }


def crossing_noisy(frame_count=600):
    """Crossing paths plus noise, dropout, a box occluder, and one person
    leaving the room and returning elsewhere (track fragmentation)."""
    scene = crossing_clean(frame_count)
    scene["surfaces"] = [
        {"type": "box", "label": 1, "name": "cabinet",
         "min": [5.4, 3.2, 0.0], "max": [6.2, 3.8, 1.6]},
    ]
    scene["persons"][1]["waypoints"] = [
        {"frame": 0, "position": [5.6, 1.5], "facing": 135},
        {"frame": 120, "position": [5.6, 1.5], "facing": 135},
        {"frame": 250, "position": [4.6, 2.6], "facing": 135},
        {"frame": 310, "position": [2.6, 4.4], "facing": 135},
        {"frame": 520, "position": [1.5, 5.6], "facing": 135},
        {"frame": 600, "position": [1.5, 5.6], "facing": 135},
    ]
    scene["persons"][1]["absent"] = [[250, 310]]
    scene["noise"] = {"pixel_sigma": 2.0, "dropout": 0.10}
    return scene


INDUCTION_SURFACES = [
    {"type": "box", "label": 1, "name": "bed",
     "min": [2.5, 5.3, 0.0], "max": [4.5, 6.3, 1.0]},
    {"type": "rect", "label": 2, "name": "monitor",
     "center": [6.5, 3.5, 1.5], "axis": "x", "half_sizes": [0.4, 0.3]},
    {"type": "box", "label": 3, "name": "table",
     "min": [0.5, 0.8, 0.0], "max": [1.3, 2.2, 0.95]},
    {"type": "box", "label": 4, "name": "trolley",
     "min": [5.6, 0.6, 0.0], "max": [6.4, 1.4, 1.05]},
    {"type": "sphere", "label": 5, "name": "iv_pole",
     "center": [0.9, 5.8, 1.3], "radius": 0.18},
]


def induction_lite(frame_count=600):
    """Three persons performing 12 scripted touches on 5 labeled surfaces."""
    # Touch targets sit on the surface faces the persons approach.
    bed_rail = [3.5, 5.3, 1.0]
    bed_foot = [2.5, 5.8, 1.0]
    monitor = [6.5, 3.5, 1.5]
    monitor_lo = [6.5, 3.3, 1.35]
    table_edge = [1.3, 1.5, 0.95]
    table_end = [0.9, 2.2, 0.95]
    trolley_top = [6.0, 1.4, 1.05]
    trolley_side = [5.6, 1.0, 1.05]
    iv_grip = [1.06, 5.72, 1.33]

    # Station starts leave every inter-station walk enough frames to stay
    # under ~3.5 m/s, so hand tracks survive the transits.
    p1 = _touch_script([
        (60, bed_rail, 1, 90, "right", 45),
        (210, monitor, 2, 0, "right", 45),
        (340, trolley_top, 4, 270, "right", 50),
        (515, bed_foot, 1, 0, "left", 45),
    ])
    p2 = _touch_script([
        (80, table_edge, 3, 180, "right", 50),
        (230, table_end, 3, 270, "left", 45),
        (380, bed_rail, 1, 90, "left", 45),
        (530, trolley_side, 4, 0, "right", 45),
    ])
    p3 = _touch_script([
        (70, monitor_lo, 2, 0, "left", 45),
        (230, iv_grip, 5, 135, "right", 50),
        (385, table_edge, 3, 180, "right", 45),
        (535, monitor, 2, 0, "right", 45),
    ])
    persons = []
    for pid, (wps, hands) in enumerate([p1, p2, p3], start=1):
        persons.append({"id": pid, "waypoints": wps, "hands": hands})
    return {
        "fps": 30,
        "frame_count": frame_count,
        "hand_vertex_count": 40,
        "cameras": corner_cameras(),
        "surfaces": copy.deepcopy(INDUCTION_SURFACES),
        "persons": persons,
        "noise": {},
    }


def induction_lite_noisy(frame_count=600):
    scene = induction_lite(frame_count)
    scene["noise"] = {
        "pixel_sigma": 2.0,
        "dropout": 0.10,
        "depth_sigma": 0.01,
        "hand_jitter": 0.002,
    }
    return scene


BUILTIN_SCENES = {
    "crossing-clean": crossing_clean,
    "crossing-noisy": crossing_noisy,
    "induction-lite": induction_lite,
    "induction-lite-noisy": induction_lite_noisy,
}


def builtin_scene(name):
    if name not in BUILTIN_SCENES:
        raise KeyError(f"unknown builtin scene {name!r}; have {sorted(BUILTIN_SCENES)}")
    return BUILTIN_SCENES[name]()
