"""Body constants and the hand schema.

The 26-joint body is fixed: its joint names, the skeleton bones with the
nominal lengths used by the depth-lifting bone gate, the arm joints of
each side and the torso joints are module constants. Nominal lengths are
derived from a canonical standing template so that synthetic skeletons
satisfy them exactly. The hand schema designates palm and fingertip
vertex indices on the hand vertex set. This module holds no JSON code:
io.read_hand_schema reads a recording's hand_schema.json.
"""

from __future__ import annotations

from dataclasses import dataclass

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


_INDEX = {name: k for k, name in enumerate(JOINT_NAMES)}

# Skeleton bones (a, b, nominal length L in m), L the template's bone length.
BONES = tuple(
    (i, j, float(np.linalg.norm(TEMPLATE_JOINTS[i] - TEMPLATE_JOINTS[j])))
    for i, j in ((_INDEX[a], _INDEX[b]) for a, b in _EDGE_PAIRS)
)
BONE_LENGTH = {(a, b): L for a, b, L in BONES}
# side -> {"wrist", "elbow", "shoulder"} -> joint index.
SIDE_JOINTS = {
    side: {part: _INDEX[f"{side}_{part}"] for part in ("wrist", "elbow", "shoulder")}
    for side in ("left", "right")
}
TORSO_JOINTS = (5, 6, 11, 12)  # shoulders and hips


@dataclass
class HandSchema:
    """Vertex-set layout of hand reconstructions.

    palm_indices designate the vertex subset whose centroid is the palm
    center anchor; fingertip_indices are the five fingertip vertices.
    Either left out (None) takes the default layout; lists given are
    used as they are.
    """

    vertex_count: int = 778
    palm_indices: list[int] | None = None
    fingertip_indices: list[int] | None = None

    def __post_init__(self):
        if self.palm_indices is None:
            # Default layout: fingertips are the last five vertices and the
            # palm set is the first eight.
            self.palm_indices = list(range(min(8, self.vertex_count - 5)))
        if self.fingertip_indices is None:
            self.fingertip_indices = list(
                range(self.vertex_count - 5, self.vertex_count)
            )
        if not self.palm_indices:
            raise ValueError("palm_indices must name at least one vertex")
        if len(self.fingertip_indices) != 5:
            raise ValueError("exactly five fingertip indices required")
        indices = self.palm_indices + self.fingertip_indices
        if not all(0 <= i < self.vertex_count for i in indices):
            raise ValueError("anchor index out of range")
        self._anchor_index = np.array(indices)

    def anchor_vertices(self, vertices):
        """The anchor vertices of (..., V, 3) vertices: the palm set, then
        the five fingertips, as (..., P + 5, 3)."""
        return np.asarray(vertices, dtype=float)[..., self._anchor_index, :]

    def anchors_of(self, anchor_vertices):
        """(..., 6, 3) anchors of (..., P + 5, 3) anchor vertices: the palm
        centroid followed by the five fingertips."""
        palm = anchor_vertices[..., :-5, :].mean(axis=-2)
        return np.concatenate([palm[..., None, :], anchor_vertices[..., -5:, :]], axis=-2)

    def anchors(self, vertices):
        """(..., 6, 3) anchors of (..., V, 3) vertices."""
        return self.anchors_of(self.anchor_vertices(vertices))
