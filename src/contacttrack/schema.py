"""Body and hand schemas.

The 26-joint body schema carries the skeleton edge list with nominal bone
lengths used by the depth-lifting bone gate. Nominal lengths are derived
from a canonical standing template so that synthetic skeletons satisfy the
table exactly. The hand schema designates palm and fingertip vertex indices
on the hand vertex set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

JOINT_NAMES = [
    "nose",            # 0
    "left_eye",        # 1
    "right_eye",       # 2
    "left_ear",        # 3
    "right_ear",       # 4
    "left_shoulder",   # 5
    "right_shoulder",  # 6
    "left_elbow",      # 7
    "right_elbow",     # 8
    "left_wrist",      # 9
    "right_wrist",     # 10
    "left_hip",        # 11
    "right_hip",       # 12
    "left_knee",       # 13
    "right_knee",      # 14
    "left_ankle",      # 15
    "right_ankle",     # 16
    "head_top",        # 17
    "neck",            # 18
    "pelvis",          # 19
    "left_big_toe",    # 20
    "right_big_toe",   # 21
    "left_small_toe",  # 22
    "right_small_toe", # 23
    "left_heel",       # 24
    "right_heel",      # 25
]

JOINT_COUNT = 26

# Canonical standing template, facing +x, gravity axis +z, pelvis at origin xy.
# Arms hang straight down so the two-bone reach solver reproduces the idle
# pose exactly at full extension.
_T = {
    "nose": (0.05, 0.0, 1.62),
    "left_eye": (0.08, 0.035, 1.66),
    "right_eye": (0.08, -0.035, 1.66),
    "left_ear": (0.02, 0.075, 1.63),
    "right_ear": (0.02, -0.075, 1.63),
    "left_shoulder": (0.0, 0.20, 1.45),
    "right_shoulder": (0.0, -0.20, 1.45),
    "left_elbow": (0.0, 0.20, 1.15),
    "right_elbow": (0.0, -0.20, 1.15),
    "left_wrist": (0.0, 0.20, 0.88),
    "right_wrist": (0.0, -0.20, 0.88),
    "left_hip": (0.0, 0.10, 1.00),
    "right_hip": (0.0, -0.10, 1.00),
    "left_knee": (0.0, 0.11, 0.55),
    "right_knee": (0.0, -0.11, 0.55),
    "left_ankle": (0.0, 0.12, 0.12),
    "right_ankle": (0.0, -0.12, 0.12),
    "head_top": (0.0, 0.0, 1.78),
    "neck": (0.0, 0.0, 1.50),
    "pelvis": (0.0, 0.0, 1.00),
    "left_big_toe": (0.14, 0.11, 0.02),
    "right_big_toe": (0.14, -0.11, 0.02),
    "left_small_toe": (0.12, 0.15, 0.03),
    "right_small_toe": (0.12, -0.15, 0.03),
    "left_heel": (-0.06, 0.12, 0.05),
    "right_heel": (-0.06, -0.12, 0.05),
}

TEMPLATE_JOINTS = np.array([_T[name] for name in JOINT_NAMES])

_EDGE_PAIRS = [
    ("head_top", "nose"),
    ("nose", "left_eye"),
    ("nose", "right_eye"),
    ("left_eye", "left_ear"),
    ("right_eye", "right_ear"),
    ("nose", "neck"),
    ("neck", "left_shoulder"),
    ("neck", "right_shoulder"),
    ("left_shoulder", "left_elbow"),
    ("left_elbow", "left_wrist"),
    ("right_shoulder", "right_elbow"),
    ("right_elbow", "right_wrist"),
    ("neck", "pelvis"),
    ("pelvis", "left_hip"),
    ("pelvis", "right_hip"),
    ("left_hip", "left_knee"),
    ("left_knee", "left_ankle"),
    ("right_hip", "right_knee"),
    ("right_knee", "right_ankle"),
    ("left_ankle", "left_heel"),
    ("right_ankle", "right_heel"),
    ("left_ankle", "left_big_toe"),
    ("right_ankle", "right_big_toe"),
    ("left_big_toe", "left_small_toe"),
    ("right_big_toe", "right_small_toe"),
]


@dataclass
class JointSchema:
    """26-joint skeleton schema with nominal bone lengths (meters)."""

    names: list[str] = field(default_factory=lambda: list(JOINT_NAMES))
    edges: list[tuple[int, int, float]] = field(default_factory=list)
    side_joints: dict = field(default_factory=dict)
    torso_indices: tuple = (5, 6, 11, 12)
    template: np.ndarray = field(default_factory=lambda: TEMPLATE_JOINTS.copy())

    def __post_init__(self):
        if len(self.names) != JOINT_COUNT:
            raise ValueError("schema must name 26 joints")
        if not self.edges:
            idx = {n: i for i, n in enumerate(self.names)}
            self.edges = [
                (idx[a], idx[b], float(np.linalg.norm(self.template[idx[a]] - self.template[idx[b]])))
                for a, b in _EDGE_PAIRS
            ]
        if not self.side_joints:
            idx = {n: i for i, n in enumerate(self.names)}
            self.side_joints = {
                "left": {"wrist": idx["left_wrist"], "elbow": idx["left_elbow"], "shoulder": idx["left_shoulder"]},
                "right": {"wrist": idx["right_wrist"], "elbow": idx["right_elbow"], "shoulder": idx["right_shoulder"]},
            }
        if any(L <= 0 for _, _, L in self.edges):
            raise ValueError("nominal bone lengths must be positive")
        if not self._connected():
            raise ValueError("skeleton edge list must connect all 26 joints")

    def _connected(self):
        adj = {i: set() for i in range(JOINT_COUNT)}
        for a, b, _ in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == JOINT_COUNT

    def bone_length(self, a, b):
        for i, j, L in self.edges:
            if {i, j} == {a, b}:
                return L
        raise KeyError((a, b))

    def to_json(self):
        return {
            "names": self.names,
            "edges": [[a, b, L] for a, b, L in self.edges],
            "side_joints": self.side_joints,
            "torso_indices": list(self.torso_indices),
        }

    @classmethod
    def from_file(cls, path):
        with open(path) as f:
            data = json.load(f)
        return cls(
            names=data["names"],
            edges=[(int(a), int(b), float(L)) for a, b, L in data["edges"]],
            side_joints={
                side: {k: int(v) for k, v in joints.items()}
                for side, joints in data["side_joints"].items()
            },
            torso_indices=tuple(data.get("torso_indices", (5, 6, 11, 12))),
        )


@dataclass
class HandSchema:
    """Vertex-set layout of hand reconstructions.

    palm_indices designate the vertex subset whose centroid is the palm
    center anchor; fingertip_indices are the five fingertip vertices.
    """

    vertex_count: int = 778
    palm_indices: list[int] = field(default_factory=list)
    fingertip_indices: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.palm_indices:
            # Default layout: fingertips are the last five vertices and the
            # palm set is the first eight.
            self.palm_indices = list(range(min(8, self.vertex_count - 5)))
        if not self.fingertip_indices:
            self.fingertip_indices = list(
                range(self.vertex_count - 5, self.vertex_count)
            )
        if len(self.fingertip_indices) != 5:
            raise ValueError("exactly five fingertip indices required")
        if max(self.palm_indices + self.fingertip_indices) >= self.vertex_count:
            raise ValueError("anchor index out of range")

    def anchors(self, vertices):
        """6x3 anchor array: palm centroid followed by the five fingertips."""
        vertices = np.asarray(vertices, dtype=float)
        palm = vertices[self.palm_indices].mean(axis=0)
        return np.concatenate([palm[None, :], vertices[self.fingertip_indices]])

    def to_json(self):
        return {
            "vertex_count": self.vertex_count,
            "palm_indices": self.palm_indices,
            "fingertip_indices": self.fingertip_indices,
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            vertex_count=int(data["vertex_count"]),
            palm_indices=[int(i) for i in data["palm_indices"]],
            fingertip_indices=[int(i) for i in data["fingertip_indices"]],
        )

    @classmethod
    def from_file(cls, path):
        with open(path) as f:
            return cls.from_json(json.load(f))


DEFAULT_SCHEMA = JointSchema()
