"""Per-frame semantic 3D room model.

Labeled per-camera depth observations are back-projected, voxel-fused with
majority label voting, and indexed for nearest-surface queries. A built
cloud's points do not change; per-label KD-trees are built lazily on the
first query for that label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import ContactTrackError, InputFormatError
from .geometry import CameraCalibration, backproject_many


class ResolutionMismatch(ContactTrackError):
    pass


class EmptyCloud(ContactTrackError):
    pass


@dataclass
class LabeledPointCloud:
    """Labeled world-frame points from one camera."""

    positions: np.ndarray  # (N, 3) meters
    labels: np.ndarray  # (N,) int
    source_camera: str


@dataclass
class SurfaceHit:
    distance: float
    label: int
    point: np.ndarray
    index: int


class SemanticCloud:
    """Voxel-fused labeled point set with a KD-tree index."""

    def __init__(self, frame, voxel_size, positions, labels, label_table):
        self.frame = frame
        self.voxel_size = voxel_size
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        self.labels = np.asarray(labels, dtype=int).reshape(-1)
        self.label_table = dict(label_table)
        for lid in np.unique(self.labels):
            if int(lid) not in self.label_table:
                raise ValueError(f"label id {lid} missing from label table")
        self._tree = cKDTree(self.positions) if len(self.positions) else None
        self._label_trees = {}

    def __len__(self):
        return len(self.positions)

    @property
    def label_ids(self):
        return sorted(int(l) for l in np.unique(self.labels))

    def _subtree(self, label):
        if label not in self._label_trees:
            idx = np.flatnonzero(self.labels == label)
            self._label_trees[label] = (idx, cKDTree(self.positions[idx]))
        return self._label_trees[label]

    def nearest(self, query):
        """Exact nearest point; distance ties break to the smallest point index."""
        if self._tree is None:
            raise EmptyCloud("nearest_surface on an empty cloud")
        query = np.asarray(query, dtype=float)
        d, i = self._tree.query(query)
        # Canonicalize exact ties by re-scanning the tie ball.
        ball = self._tree.query_ball_point(query, d + 1e-12 * max(d, 1.0))
        dists = np.linalg.norm(self.positions[ball] - query, axis=1)
        dmin = dists.min()
        best = min(int(ball[j]) for j in np.flatnonzero(dists == dmin))
        return SurfaceHit(float(dmin), int(self.labels[best]), self.positions[best], best)

    def nearest_per_label(self, queries):
        """Min distance (and closest point) per surface label over a query batch.

        queries: (Q, 3). Returns {label: (distance, point)} using exact
        per-label subindexes.
        """
        if self._tree is None:
            raise EmptyCloud("nearest_surface on an empty cloud")
        queries = np.asarray(queries, dtype=float).reshape(-1, 3)
        out = {}
        for label in self.label_ids:
            idx, tree = self._subtree(label)
            d, i = tree.query(queries)
            j = int(np.argmin(d))
            out[label] = (float(d[j]), self.positions[idx[i[j]]])
        return out


def backproject_labeled(label_grid, depth_grid, cal: CameraCalibration, stride=4):
    """Back-project labeled pixels on the stride lattice to world points.

    Background (label 0) and invalid depth (<= 0) pixels are skipped.
    """
    label_grid = np.asarray(label_grid)
    depth_grid = np.asarray(depth_grid, dtype=float)
    if label_grid.shape != depth_grid.shape:
        raise ResolutionMismatch(
            f"label grid {label_grid.shape} vs depth grid {depth_grid.shape}"
        )
    if stride < 1:
        raise ValueError("stride must be >= 1")
    h, w = label_grid.shape
    vs, us = np.meshgrid(np.arange(0, h, stride), np.arange(0, w, stride), indexing="ij")
    us = us.ravel()
    vs = vs.ravel()
    lab = label_grid[vs, us]
    dep = depth_grid[vs, us]
    keep = (lab > 0) & (dep > 0)
    uv = np.stack([us[keep].astype(float), vs[keep].astype(float)], axis=1)
    pts = backproject_many(uv, dep[keep], cal) if keep.any() else np.zeros((0, 3))
    return LabeledPointCloud(pts, lab[keep].astype(int), cal.camera_id)


def fuse_clouds(clouds, voxel_size, label_table, frame=0) -> SemanticCloud:
    """Voxel down-sampling with per-voxel majority label voting.

    Ties break to the smallest label id; the voxel representative is the
    centroid of the members carrying the winning label. Order-invariant
    over input clouds.
    """
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    pos_list = [c.positions for c in clouds if len(c.positions)]
    lab_list = [c.labels for c in clouds if len(c.positions)]
    if not pos_list:
        return SemanticCloud(frame, voxel_size, np.zeros((0, 3)), np.zeros(0, dtype=int), label_table)
    pos = np.concatenate(pos_list)
    lab = np.concatenate(lab_list).astype(int)

    keys = np.floor(pos / voxel_size).astype(np.int64)
    _, voxel_of = np.unique(keys, axis=0, return_inverse=True)
    n_vox = voxel_of.max() + 1

    # Count (voxel, label) pairs, then pick per voxel the max count with
    # smallest-label tie-break.
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

    # Centroid over members carrying the winning label of their voxel.
    winner = lab == win_label[voxel_of]
    sums = np.zeros((n_vox, 3))
    np.add.at(sums, voxel_of[winner], pos[winner])
    nums = np.bincount(voxel_of[winner], minlength=n_vox).astype(float)
    centroids = sums / nums[:, None]
    return SemanticCloud(frame, voxel_size, centroids, win_label, label_table)


# -- file formats --------------------------------------------------------

LABEL_GRID_MAGIC = b"LBL1"


def write_label_grid(path, grid):
    grid = np.asarray(grid, dtype=np.uint8)
    h, w = grid.shape
    with open(path, "wb") as f:
        f.write(LABEL_GRID_MAGIC)
        f.write(np.uint32(w).tobytes())
        f.write(np.uint32(h).tobytes())
        f.write(grid.tobytes())


def read_label_grid(path):
    try:
        f = open(path, "rb")
    except OSError as e:
        raise InputFormatError(f"cannot read label grid: {e.strerror}", path=path)
    with f:
        header = f.read(12)
        if header[:4] != LABEL_GRID_MAGIC:
            raise InputFormatError(f"bad label grid magic {header[:4]!r}", path=path)
        if len(header) < 12:
            raise InputFormatError("truncated label grid", path=path)
        w, h = (int(n) for n in np.frombuffer(header[4:], dtype=np.uint32))
        data = np.frombuffer(f.read(w * h), dtype=np.uint8)
        if data.size != w * h:
            raise InputFormatError("truncated label grid", path=path)
        return data.reshape(h, w).copy()


def write_label_table(path, table):
    with open(path, "w") as f:
        for lid in sorted(table):
            f.write(f"{lid} {table[lid]}\n")


def read_label_table(path):
    """{label id: name} from "<id> <name>" lines."""
    table = {}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                lid, name = line.split(None, 1)
                table[int(lid)] = name
            except ValueError:
                raise InputFormatError(f"want '<id> <name>', got {line!r}", path=path, line=ln)
    return table
