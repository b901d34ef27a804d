"""Benchmark workloads: scene builders, input datasets and their fingerprints.

Every input is a function of the workload seed alone. Datasets are
written by the simulator of the checkout under test, so a change to the
simulator that alters a dataset shows in the input fingerprint.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from contacttrack import scenes
from contacttrack.simulator import emit_dataset

# The scripted induction touches start at frames 60-80 of the builtin
# scene; a window from frame 60 holds the first touch of every person
# while keeping each timed run short enough to repeat within a run.
# The crowd window is the shortest in which track births no longer
# dominate IDF1, and its jitter is small: shorter windows or larger
# jitter made IDF1 and the tracker's work swing with the seed.
INDUCTION_START = 60
INDUCTION_FRAMES = 48
CROWD_FRAMES = 24
CROWD_SPEED = (0.95, 1.05)  # m/s walking speed range


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


def crowd_scene(seed, frames=CROWD_FRAMES):
    """Eight persons in four pairs whose straight paths cross.

    Built on the crossing-clean template (corner cameras, no surfaces)
    with crossing-noisy noise. Pair k crosses near the centre of room
    quadrant k at its own frame of the window, the two persons passing
    0.35 m apart on roughly perpendicular headings. The seed jitters the
    crossing points, frames, headings and speeds; the simulator seed sets
    detection noise, dropout and hand shapes.
    """
    rng = np.random.default_rng(seed)
    scene = scenes.crossing_clean(frames)
    scene["noise"] = dict(scenes.crossing_noisy(frames)["noise"])
    fps = scene["fps"]
    persons = []
    for k, (qx, qy) in enumerate(((2.3, 2.3), (4.7, 2.3), (4.7, 4.7), (2.3, 4.7))):
        cx, cy = qx + rng.uniform(-0.05, 0.05), qy + rng.uniform(-0.05, 0.05)
        t_cross = frames * (k + 2) / 6 + rng.uniform(-0.5, 0.5)
        base = math.pi / 4 + k * math.pi / 2 + rng.uniform(-0.05, 0.05)
        for j, (heading, lateral) in enumerate(((base, 0.0), (base + math.pi / 2, 0.35))):
            dx, dy = math.cos(heading), math.sin(heading)
            speed = rng.uniform(*CROWD_SPEED) / fps
            px, py = cx - lateral * dy, cy + lateral * dx

            def at(frame):
                s = speed * (frame - t_cross)
                return [px + s * dx, py + s * dy]

            facing = math.degrees(heading)
            persons.append({
                "id": 2 * k + j + 1,
                "waypoints": [
                    {"frame": 0, "position": at(0), "facing": facing},
                    {"frame": frames, "position": at(frames), "facing": facing},
                ],
            })
    scene["persons"] = persons
    return scene


def induction_static(seed):
    return window(scenes.induction_lite(), INDUCTION_START, INDUCTION_FRAMES)


def induction_noisy(seed):
    return window(scenes.induction_lite_noisy(), INDUCTION_START, INDUCTION_FRAMES)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scene: Callable  # seed -> scene config; the simulator gets the seed too
    command: str  # the timed contacttrack subcommand: "run" or "simulate"
    run_flags: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "induction-static",
            "run --static-map on induction-lite: triangulation-bound, map built once, contact active",
            induction_static, "run", ("--static-map",),
        ),
        Workload(
            "induction-noisy-perframe",
            "run on induction-lite-noisy: map rebuilt every frame, depth lifting under noise and dropout",
            induction_noisy, "run",
        ),
        Workload(
            "crowd-8",
            "run on 8 persons crossing: association, births, hand fusion and depth lifting scale; map idle",
            crowd_scene, "run",
        ),
        Workload(
            "simulate-score",
            "simulate, evaluate and sweep: simulator ray casting and evaluation; the pipeline is not timed",
            induction_noisy, "simulate",
        ),
    )
}

DATASET_FILES = (
    "detections.jsonl",
    "gt/tracks.jsonl",
    "gt/episodes.csv",
    "gt/visibility.jsonl",
)
RUN_OUTPUTS = (
    "tracks.jsonl",
    "hand_tracks.jsonl",
    "episodes.csv",
    "distance_traces.jsonl",
    "run_meta.json",
)


def write_scene(scene, path):
    with open(path, "w") as f:
        json.dump(scene, f, indent=1, sort_keys=True)
        f.write("\n")


def build_dataset(workload, seed, out_dir):
    """Simulate the workload's input dataset under out_dir."""
    emit_dataset(workload.scene(seed), out_dir, seed=seed)
    return out_dir


def one_frame_copy(data_dir, out_dir):
    """The dataset cut to its first frame (detections only; no gt)."""
    os.makedirs(out_dir, exist_ok=True)
    for name in sorted(os.listdir(data_dir)):
        src = os.path.join(data_dir, name)
        if os.path.isfile(src) and name != "detections.jsonl":
            with open(src, "rb") as f, open(os.path.join(out_dir, name), "wb") as g:
                g.write(f.read())
    with open(os.path.join(data_dir, "detections.jsonl")) as f, \
            open(os.path.join(out_dir, "detections.jsonl"), "w") as g:
        first = None
        for line in f:
            frame = json.loads(line)["frame"]
            if first is None:
                first = frame
            if frame != first:
                break
            g.write(line)
    return out_dir


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fingerprint(data_dir, names=DATASET_FILES):
    """{relative path: sha256} for the files that exist under data_dir."""
    out = {}
    for name in names:
        path = os.path.join(data_dir, name)
        if os.path.exists(path):
            out[name] = sha256_file(path)
    return out
