"""Per-frame semantic 3D room model.

A frame's labeled depth observations, every camera's stride-lattice
cells from one depth-source call, are back-projected in one pass into
one cloud per camera, voxel-fused with majority label voting, and
indexed for nearest-surface queries. A built
cloud's points do not change; its index, the points grouped by (label,
coarse cell), is built on the first query. Fusion and the index each
order points with one integer sort, of a packed int64 key. Both floor
points to cells, and bound the cell range, by one rule, _grid, and
each packs its own key. Both hold points by axis, (3, N), so that their
passes read contiguous rows: a fused cloud's positions are the
transpose of such an array, which the index reads without a copy. The
contact stage asks once per frame with every fused hand's anchors, and
the index answers every (hand, label) pair in one pass of numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContactTrackError


class EmptyCloud(ContactTrackError):
    pass


class UnknownLabel(ContactTrackError):
    """A cloud label that its label table does not name."""


class GridTooLarge(ContactTrackError):
    """Points span more cells along an axis than float64 offsets count
    exactly, or more (cell, label) pairs than a packed key holds, or are
    not all finite."""


@dataclass
class LabeledPointCloud:
    """Labeled world-frame points from one camera."""

    positions: np.ndarray  # (N, 3) meters
    labels: np.ndarray  # (N,) int
    source_camera: str


@dataclass
class LatticeCells:
    """A frame's labeled stride-lattice cells, camera by camera: the
    cells with a label and a positive depth, each camera's in row-major
    lattice order and the cameras in the order of cameras. The first
    counts[0] cells are cameras[0]'s, and so on; a camera with no such
    cell is not listed. Cell k lies at pixel (us[k], vs[k]), ints, with
    label labels[k] (uint8, > 0) and depth depth[k] (m, > 0)."""

    cameras: list
    counts: list
    us: np.ndarray  # (N,)
    vs: np.ndarray  # (N,)
    labels: np.ndarray  # (N,) uint8
    depth: np.ndarray  # (N,) meters

    def __len__(self):
        return len(self.depth)


def no_cells():
    """The LatticeCells of a frame in which no camera sees a surface."""
    empty = np.zeros(0, dtype=np.intp)
    return LatticeCells([], [], empty, empty, np.zeros(0, dtype=np.uint8), np.zeros(0))


@dataclass
class SurfaceHit:
    distance: float
    label: int
    point: np.ndarray
    index: int


# Edge (m) of the coarse cells the nearest-surface index groups points in.
INDEX_CELL = 0.25


def _grid(xyz, edge, labels, what):
    """Points held by axis, (3, N), floored to cells of `edge` m: the int64
    cell offsets from the lowest cell, (3, N), and the extent per axis.

    Every axis spans fewer than 2**53 cells (the span is checked, not the
    extent, which rounds to 2**53 one cell past it) and the extents'
    product times `labels` is at most 2**53, or GridTooLarge names the
    cell as `what`; nan and inf fail too. Then the float64 offsets are
    exact (a difference of floats is rounded only when it is not a float)
    and a key packing a cell and a label rank cannot overflow int64.
    """
    cells = np.floor(xyz / edge)
    lo = cells.min(axis=1)
    span = cells.max(axis=1) - lo
    extent = span + 1
    if not ((span < 2.0**53).all() and float(np.prod(extent)) * labels <= 2.0**53):
        raise GridTooLarge(
            f"{what} gives a {' x '.join(f'{e:.3g}' for e in extent)} grid over "
            f"{labels} labels, past the 2**53 packed-key range"
        )
    return (cells - lo[:, None]).astype(np.int64), tuple(int(e) for e in extent)


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
    into cell groups of one label in one cell: one stable argsort of an
    int64 key that packs each point's label rank, the major digit, and its
    cell's offsets from the lowest cell, in row-major strides. A query
    group bounds each cell group's distance from below by the gap between
    their bounding boxes, and each label's nearest distance from above by
    the distance to the middle point (in sort order) of each of its cell
    groups, which tends to lie nearer the cell's centre than its first
    point; only the cell groups whose lower bound does not pass their
    label's upper bound are searched point by point. Raises GridTooLarge
    past _grid's bound.
    """

    def __init__(self, positions, labels, label_ids):
        xyz = np.ascontiguousarray(positions.T)  # a view for fused clouds
        cells, (ex, ey, ez) = _grid(xyz, INDEX_CELL, len(label_ids),
                                    f"the {INDEX_CELL} m index cell")
        rank = np.searchsorted(label_ids, labels)
        key = ((rank * ex + cells[0]) * ey + cells[1]) * ez + cells[2]
        # A stable sort of 16-bit keys is a radix sort, several times
        # faster than of int64 ones; a room's (label, cell) keys fit.
        short = ex * ey * ez * len(label_ids) <= 2**16
        self.order = np.argsort(key.astype(np.uint16) if short else key, kind="stable")
        key = key[self.order]
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[1:] != key[:-1]
        self.starts = np.flatnonzero(new)
        self.ends = np.append(self.starts[1:], len(key))
        self.xyz = np.take(xyz, self.order, axis=1)
        self.lo = np.minimum.reduceat(self.xyz, self.starts, axis=1)
        self.hi = np.maximum.reduceat(self.xyz, self.starts, axis=1)
        self.heads = np.ascontiguousarray(self.xyz[:, (self.starts + self.ends - 1) // 2])
        # Every label has points, so a cell group's label rank is its
        # label's column in the tables.
        self.group_label = key[self.starts] // (ex * ey * ez)
        self.label_groups = np.flatnonzero(np.diff(self.group_label, prepend=-1))

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


def _distinct(labels):
    """The distinct labels in increasing order: a count over their range,
    or a sort when the range is wider than the labels are many."""
    if not len(labels):
        return []
    lo = int(labels.min())
    if int(labels.max()) - lo >= len(labels):
        return np.unique(labels).tolist()
    return (np.flatnonzero(np.bincount(labels - lo)) + lo).tolist()


class SemanticCloud:
    """Voxel-fused labeled point set with an exact nearest-surface index,
    built on the first query."""

    def __init__(self, positions, labels, label_table):
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        self.labels = np.asarray(labels, dtype=int).reshape(-1)
        self.label_ids = _distinct(self.labels)
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
            self._index = _CellIndex(self.positions, self.labels, self.label_ids)
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


def backproject_labeled(cells, cals):
    """World points of a frame's lattice cells: one LabeledPointCloud per
    camera of cells, in its order, holding that camera's cells in their
    order.

    cells is the LatticeCells a depth source's grids returns; cals maps
    its camera ids to calibrations. A cell at pixel (u, v) and depth d
    goes to ((u - cx) d / fx, (v - cy) d / fy, d), one elementwise pass
    over every camera's cells with each camera's intrinsics repeated
    along its cells, and then camera_to_world, one product per camera
    over exactly its rows, so a point keeps the bits of a back-projection
    of its camera alone.
    """
    n = cells.counts
    cams = [cals[cam_id] for cam_id in cells.cameras]
    d = cells.depth
    u = cells.us - np.repeat([cal.cx for cal in cams], n)
    v = cells.vs - np.repeat([cal.cy for cal in cams], n)
    u *= d
    u /= np.repeat([cal.fx for cal in cams], n)
    v *= d
    v /= np.repeat([cal.fy for cal in cams], n)
    pc = np.stack([u, v, d], axis=1)
    labels = cells.labels.astype(int)
    clouds, lo = [], 0
    for cam_id, cal, count in zip(cells.cameras, cams, n):
        hi = lo + count
        clouds.append(LabeledPointCloud(cal.camera_to_world(pc[lo:hi]), labels[lo:hi], cam_id))
        lo = hi
    return clouds


def fuse_clouds(clouds, voxel_size, label_table) -> SemanticCloud:
    """Voxel down-sampling with per-voxel majority label voting.

    Ties break to the smallest label id; the voxel representative is the
    centroid of the members carrying the winning label, summed in input
    order. The fused points are numbered in lexicographic voxel-key order.
    The voxel set and each voxel's label do not depend on the order of the
    input clouds or of their points; a centroid can, in its last bits,
    because floating-point sums depend on the order of their terms.

    Each (voxel, label) pair is packed into one int64: voxel keys are
    shifted by their minimum and combined with row-major strides over
    their extent, then the label offset is appended as the fastest digit.
    One 1D sort of the packed keys therefore orders pairs by voxel in
    lexicographic key order and by label within a voxel, and gives both
    the pair counts and the pair of every point. The points are held by
    axis, (3, N), so that the reductions and sums read contiguous rows.
    The voxels and their range check are _grid's, as for the index;
    raises GridTooLarge past its bound.
    """
    clouds = [c for c in clouds if len(c.positions)]
    if not clouds:
        return SemanticCloud(np.zeros((0, 3)), np.zeros(0, dtype=int), label_table)
    lab = np.concatenate([c.labels for c in clouds]).astype(int, copy=False)
    xyz = np.concatenate([c.positions.T for c in clouds], axis=1, out=np.empty((3, len(lab))))

    lab_min = int(lab.min())
    n_lab = int(lab.max()) - lab_min + 1
    keys, (_, ey, ez) = _grid(xyz, voxel_size, n_lab, f"voxel_size {voxel_size} m")
    packed = ((keys[0] * ey + keys[1]) * ez + keys[2]) * n_lab + (lab - lab_min)
    pairs, pair_of, counts = np.unique(packed, return_inverse=True, return_counts=True)

    # Pairs are sorted by (voxel, label); number the voxels along them.
    pair_vox_key = pairs // n_lab
    new_vox = np.ones(len(pairs), dtype=bool)
    new_vox[1:] = pair_vox_key[1:] != pair_vox_key[:-1]
    starts = np.flatnonzero(new_vox)
    pair_vox = np.cumsum(new_vox) - 1
    n_vox = len(starts)

    # Per voxel the max count; its first pair is the smallest such label.
    top = np.maximum.reduceat(counts, starts)
    cand = np.flatnonzero(counts == top[pair_vox])
    first = np.ones(len(cand), dtype=bool)
    first[1:] = pair_vox[cand[1:]] != pair_vox[cand[:-1]]
    win = cand[first]
    win_label = pairs[win] % n_lab + lab_min

    # Centroid over the top members of each voxel, those of its winning
    # pair, summed in input order; every other point adds to a spare bin.
    bin_of_pair = np.full(len(pairs), n_vox)
    bin_of_pair[win] = np.arange(n_vox)
    bins = bin_of_pair[pair_of]
    sums = np.stack([np.bincount(bins, weights=row, minlength=n_vox + 1)[:n_vox] for row in xyz])
    return SemanticCloud((sums / top).T, win_label, label_table)
