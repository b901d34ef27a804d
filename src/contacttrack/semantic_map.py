"""Per-frame semantic 3D room model.

Labeled per-camera depth observations are back-projected, voxel-fused with
majority label voting, and indexed for nearest-surface queries. A built
cloud's points do not change; its index, the points grouped by (label,
coarse cell), is built on the first query. The contact stage asks once
per frame with every fused hand's anchors, and the index answers every
(hand, label) pair in one pass of numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContactTrackError
from .geometry import CameraCalibration, backproject_many


class EmptyCloud(ContactTrackError):
    pass


class UnknownLabel(ContactTrackError):
    """A cloud label that its label table does not name."""


class VoxelGridTooLarge(ContactTrackError):
    """The fused points span more (voxel, label) cells than an int64 key packs."""


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


# Edge (m) of the coarse cells the nearest-surface index groups points in.
INDEX_CELL = 0.25


def _squares(queries, points):
    """Squared Euclidean distances between queries and points, each given
    by axis (x, y, z) and broadcast against each other. The squares are
    summed x, y, z in order, whose root gives the bits a KD-tree query
    returns; one axis at a time, so two arrays of the result's size are
    live at most."""
    out = None
    for q, p in zip(queries, points):
        d = np.subtract(q, p)
        np.square(d, out=d)
        if out is None:
            out = d
        else:
            out += d
    return out


class _CellIndex:
    """Exact nearest-point search per label over a fixed point set.

    The points are sorted once by (label, INDEX_CELL cell, point index)
    into cell groups of one label in one cell. A query group bounds each
    cell group's distance from below by the gap between their bounding
    boxes, and each label's nearest distance from above by the distance
    to the middle point (in sort order) of each of its cell groups, which
    tends to lie nearer the cell's centre than its first point; only the
    cell groups whose lower bound does not pass their label's upper bound
    are searched point by point.
    """

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

    def nearest_by_label(self, queries):
        """(distance, point index) arrays of shape (H, labels), labels in
        order: per group of queries (H, Q, 3) and label, the label's nearest
        point to any of the group's queries, ties to the group's first
        query and then the smallest point index.

        A group's lower bound on a cell group is the gap between the box
        of the group's queries and the cell group's box, which never
        exceeds the bound from any one query. Minima are taken over
        squared distances: the square root is monotone, so the root of a
        minimum is the minimum of the roots.
        """
        H, Q, _ = queries.shape
        qlo, qhi = queries.min(axis=1).T[:, :, None], queries.max(axis=1).T[:, :, None]
        gap = np.maximum(np.maximum(self.lo[:, None] - qhi, qlo - self.hi[:, None]), 0.0) ** 2
        lower = np.sqrt(gap[0] + gap[1] + gap[2])  # (H, cell groups)
        upper = _squares(queries.reshape(-1, 3).T[:, :, None], self.heads)
        upper = upper.reshape(H, Q, -1).min(axis=1)
        bound = np.sqrt(np.minimum.reduceat(upper, self.label_groups, axis=1))
        hand, keep = np.nonzero(lower <= bound[:, self.group_label])
        # The kept cell groups' rows, concatenated in (group, label) order.
        # Every (group, label) keeps the cell group its bound came from, so
        # its rows form one segment, and the segments are all H x labels
        # of them, in order.
        lens = self.ends[keep] - self.starts[keep]
        offsets = np.cumsum(lens) - lens
        rows = np.repeat(self.starts[keep] - offsets, lens) + np.arange(lens.sum())
        seg = hand * len(self.label_groups) + self.group_label[keep]
        seg_rows = offsets[np.flatnonzero(np.diff(seg, prepend=-1))]
        # (Q, rows): each row against its group's queries, repeated per
        # axis; both gathers keep the rows axis contiguous for the
        # reductions.
        repeats = np.bincount(hand, weights=lens, minlength=H).astype(np.intp)
        sq = _squares((np.repeat(q, repeats, axis=1) for q in queries.T),
                      np.take(self.xyz, rows, axis=1))
        d = np.sqrt(sq.min(axis=0))
        best = np.minimum.reduceat(d, seg_rows)
        # Ties: the first query at the row's distance, then the smallest
        # point index, over the rows at their segment's least distance.
        tie = np.flatnonzero(d == np.repeat(best, np.diff(seg_rows, append=len(rows))))
        query = (np.sqrt(sq[:, tie]) == d[tie]).argmax(axis=0)
        n = len(self.order)
        key = np.full(len(rows), Q * n)
        key[tie] = query * n + self.order[rows[tie]]
        idx = np.minimum.reduceat(key, seg_rows) % n
        return best.reshape(H, -1), idx.reshape(H, -1)


class SemanticCloud:
    """Voxel-fused labeled point set with an exact nearest-surface index,
    built on the first query."""

    def __init__(self, positions, labels, label_table):
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        self.labels = np.asarray(labels, dtype=int).reshape(-1)
        self.label_ids = [int(lid) for lid in np.unique(self.labels)]
        for lid in self.label_ids:
            if lid not in label_table:
                raise UnknownLabel(f"label id {lid} missing from label table")
        self._index = None

    def __len__(self):
        return len(self.positions)

    def _nearest_by_label(self, queries):
        if not len(self):
            raise EmptyCloud("nearest_surface on an empty cloud")
        if self._index is None:
            self._index = _CellIndex(self.positions, self.labels)
        return self._index.nearest_by_label(queries)

    def nearest(self, query):
        """Exact nearest point; distance ties break to the smallest point index."""
        d, idx = self._nearest_by_label(np.asarray(query, dtype=float).reshape(1, 1, 3))
        k = np.lexsort((idx[0], d[0]))[0]
        best = int(idx[0, k])
        return SurfaceHit(float(d[0, k]), int(self.labels[best]), self.positions[best], best)

    def nearest_per_label(self, anchors):
        """Min distance (and closest point) per query group and surface label.

        anchors: (H, Q, 3), H groups of Q queries. Returns (labels,
        distances, closest): the label ids in order, the (H, labels) table
        of least distances over each group's queries, and closest(h, k),
        the cloud point at distances[h, k]; ties go to the group's first
        query and then the smallest point index.
        """
        d, idx = self._nearest_by_label(np.asarray(anchors, dtype=float))
        return self.label_ids, d, lambda h, k: self.positions[idx[h, k]]


def backproject_labeled(label_grid, depth_grid, cal: CameraCalibration, stride=4):
    """Back-project the labeled cells of a stride lattice to world points.

    label_grid and depth_grid are the equal-shape lattice a depth source
    returns: cell (i, j) is pixel (u, v) = (j, i) * stride. Points are in
    row-major lattice order. Background (label 0) and invalid depth (<= 0)
    cells are skipped.
    """
    lab = np.asarray(label_grid)
    dep = np.asarray(depth_grid)
    keep = (lab > 0) & (dep > 0)
    vs, us = np.nonzero(keep)
    uv = np.stack([us * stride, vs * stride], axis=1).astype(float)
    pts = backproject_many(uv, dep[keep], cal) if len(uv) else np.zeros((0, 3))
    return LabeledPointCloud(pts, lab[keep].astype(int), cal.camera_id)


def fuse_clouds(clouds, voxel_size, label_table) -> SemanticCloud:
    """Voxel down-sampling with per-voxel majority label voting.

    Ties break to the smallest label id; the voxel representative is the
    centroid of the members carrying the winning label. Order-invariant
    over input clouds.

    Each (voxel, label) pair is packed into one int64: voxel keys are
    shifted by their minimum and combined with row-major strides over
    their extent, then the label offset is appended as the fastest digit.
    One 1D sort of the packed keys therefore orders pairs by voxel in
    lexicographic key order and by label within a voxel, and gives both
    the pair counts and the voxel of every point. Raises VoxelGridTooLarge
    when the packed range would pass 2**62.
    """
    pos_list = [c.positions for c in clouds if len(c.positions)]
    lab_list = [c.labels for c in clouds if len(c.positions)]
    if not pos_list:
        return SemanticCloud(np.zeros((0, 3)), np.zeros(0, dtype=int), label_table)
    pos = np.concatenate(pos_list)
    lab = np.concatenate(lab_list).astype(int)

    keys = np.floor(pos / voxel_size)
    lo = keys.min(axis=0)
    extent = keys.max(axis=0) - lo + 1
    lab_min = int(lab.min())
    n_lab = int(lab.max()) - lab_min + 1
    if float(np.prod(extent)) * n_lab > 2.0**62:
        raise VoxelGridTooLarge(
            f"voxel_size {voxel_size} m gives a {' x '.join(f'{e:.3g}' for e in extent)} "
            f"voxel grid over {n_lab} labels, past the 2**62 packed-key range"
        )
    keys = (keys - lo).astype(np.int64)
    ey, ez = (int(e) for e in extent[1:])
    packed = ((keys[:, 0] * ey + keys[:, 1]) * ez + keys[:, 2]) * n_lab + (lab - lab_min)
    pairs, pair_of, counts = np.unique(packed, return_inverse=True, return_counts=True)

    # Pairs are sorted by (voxel, label); number the voxels along them.
    pair_vox_key = pairs // n_lab
    new_vox = np.ones(len(pairs), dtype=bool)
    new_vox[1:] = pair_vox_key[1:] != pair_vox_key[:-1]
    starts = np.flatnonzero(new_vox)
    pair_vox = np.cumsum(new_vox) - 1
    voxel_of = pair_vox[pair_of]
    n_vox = len(starts)

    # Per voxel the max count; its first pair is the smallest such label.
    top = np.maximum.reduceat(counts, starts)
    cand = np.flatnonzero(counts == top[pair_vox])
    first = np.ones(len(cand), dtype=bool)
    first[1:] = pair_vox[cand[1:]] != pair_vox[cand[:-1]]
    win_label = pairs[cand[first]] % n_lab + lab_min

    # Centroid over members carrying the winning label of their voxel,
    # each voxel's members summed in input order.
    winner = lab == win_label[voxel_of]
    vox_w = voxel_of[winner]
    pos_w = pos[winner]
    sums = np.stack(
        [np.bincount(vox_w, weights=pos_w[:, a], minlength=n_vox) for a in range(3)], axis=1
    )
    nums = np.bincount(vox_w, minlength=n_vox).astype(float)
    centroids = sums / nums[:, None]
    return SemanticCloud(centroids, win_label, label_table)
