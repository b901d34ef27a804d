"""Analytic scene primitives: labeled surfaces and body capsules.

Each surface answers vectorized ray queries (first-hit parameter along a
bundle of N rays) and point queries (distances from a batch of points, and
the closest surface point). A bundle's rays start at one origin (3,) or
each at its own, (N, 3), so one cast can answer every camera of a frame.

Every step that reaches a hit is elementwise, with each dot product
summed x, then y, then z: the Box and Rect tests, a Sphere's dirs . oc,
the capsule formula's a . d and w . d, and the skip mask. So a ray's
(t, index) is the same bits in any bundle, alone, shuffled or split, and
a cast may hand a surface only the rays it can hit, as the depth
provider does by the image of its bounds().

Body capsules are stacked (Capsules), so a cast answers a whole stack in
one numpy pass, and a (capsule, ray) skip mask lets one bundle hold rays
that must not see some rows, such as each person's own body. A cast
first culls, in blocks of CULL_BLOCK_RAYS rays, the (capsule, ray) pairs
whose ray line passes outside the capsule's bounding sphere, and then
runs the hit formula once on the few surviving pairs of the bundle; each
ray's first hit is read off the pairs that hit. Used by the scene
simulator for rendering depth and label grids, occlusion tests, and
ground-truth contact distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import norms

_EPS = 1e-12
# Margins that widen a capsule's bounding-sphere reach in the ray cull, so
# that rounding in the cull's line distance (cancellation grows with the
# distance from the origin) never rules out a pair the kernel would hit.
CULL_REL = 1e-6
CULL_ABS = 1e-9  # m

# Rays per block of the capsule cull: bounds its (capsules, rays) arrays.
CULL_BLOCK_RAYS = 200

AXES = {"x": 0, "y": 1, "z": 2}


def _dot(u, v):
    """Row-wise dot products of (..., 3) arrays, summed x, then y, then z
    (and far faster than a sum along the short axis)."""
    p = u * v
    return p[..., 0] + p[..., 1] + p[..., 2]


@dataclass
class Box:
    """Axis-aligned box surface."""

    lo: np.ndarray
    hi: np.ndarray
    label: int = 0

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if np.any(self.hi <= self.lo):
            raise ValueError("box needs hi > lo on every axis")

    def ray(self, origin, dirs):
        origin = np.asarray(origin, dtype=float)
        dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (self.lo - origin) / dirs
            tb = (self.hi - origin) / dirs
        near = np.minimum(ta, tb)
        far = np.maximum(ta, tb)
        # Parallel rays miss the slab unless the origin lies inside it.
        par = np.abs(dirs) <= _EPS
        inside = (origin >= self.lo) & (origin <= self.hi)
        near = np.where(par, np.where(inside, -np.inf, np.inf), near)
        far = np.where(par, np.where(inside, np.inf, -np.inf), far)
        # Over the three slabs pairwise: max and min are exact in any
        # order, and a reduction along the short axis is far slower.
        tmin = np.maximum(np.maximum(near[:, 0], near[:, 1]), near[:, 2])
        tmax = np.minimum(np.minimum(far[:, 0], far[:, 1]), far[:, 2])
        hit = (tmax >= tmin) & (tmax > 0)
        t = np.where(tmin > 0, tmin, tmax)
        return np.where(hit, t, np.inf)

    def bounds(self):
        """(lo, hi) corners of the axis-aligned bounding box."""
        return self.lo, self.hi

    def closest_point(self, p):
        """Closest surface point of one point (3,) or of each of (N, 3)."""
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1, 3)
        q = np.clip(flat, self.lo, self.hi)
        # Inside (clipping moved nothing): project to the nearest face, the
        # lowest axis on ties, its lo face unless hi is strictly nearer.
        inside = np.flatnonzero((q == flat).all(axis=1))
        d_lo = flat[inside] - self.lo
        d_hi = self.hi - flat[inside]
        axis = np.argmin(np.minimum(d_lo, d_hi), axis=1)
        rows = np.arange(len(inside))
        q[inside, axis] = np.where(
            d_lo[rows, axis] < d_hi[rows, axis], self.lo[axis], self.hi[axis])
        return q.reshape(p.shape)

    def distances(self, points):
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        return norms(points - self.closest_point(points))


@dataclass
class Sphere:
    center: np.ndarray
    radius: float
    label: int = 0

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")

    def ray(self, origin, dirs):
        oc = np.asarray(origin, dtype=float) - self.center
        dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
        a = _dot(dirs, dirs)
        b = 2.0 * _dot(dirs, oc)
        c = _dot(oc, oc) - self.radius**2
        disc = b * b - 4 * a * c
        t = np.full(len(dirs), np.inf)
        ok = disc >= 0
        if ok.any():
            sq = np.sqrt(disc[ok])
            t0 = (-b[ok] - sq) / (2 * a[ok])
            t1 = (-b[ok] + sq) / (2 * a[ok])
            tt = np.where(t0 > 0, t0, np.where(t1 > 0, t1, np.inf))
            t[ok] = tt
        return t

    def bounds(self):
        """(lo, hi) corners of the axis-aligned bounding box."""
        return self.center - self.radius, self.center + self.radius

    def closest_point(self, p):
        p = np.asarray(p, dtype=float)
        v = p - self.center
        n = np.linalg.norm(v)
        if n < _EPS:
            return self.center + np.array([self.radius, 0.0, 0.0])
        return self.center + v * (self.radius / n)

    def distances(self, points):
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        return np.abs(norms(points - self.center) - self.radius)


@dataclass
class Rect:
    """Axis-aligned planar rectangle (e.g. a table top or a screen)."""

    center: np.ndarray
    axis: str  # normal axis name
    half_sizes: tuple  # extents along the two in-plane axes, ascending order
    label: int = 0

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {sorted(AXES)}")
        self._n = AXES[self.axis]
        self._uv = [a for a in range(3) if a != self._n]
        if len(self.half_sizes) != 2 or min(self.half_sizes) <= 0:
            raise ValueError("half_sizes must be two positive extents")

    def ray(self, origin, dirs):
        origin = np.asarray(origin, dtype=float)
        dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
        dn = dirs[:, self._n]
        num = self.center[self._n] - origin[..., self._n]
        # A ray parallel to the plane gets t = inf, and inf * 0 in pts.
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(np.abs(dn) > _EPS, num / dn, np.inf)
            pts = origin + t[:, None] * dirs
        u, v = self._uv
        inside = (
            (np.abs(pts[:, u] - self.center[u]) <= self.half_sizes[0])
            & (np.abs(pts[:, v] - self.center[v]) <= self.half_sizes[1])
        )
        return np.where((t > 0) & inside, t, np.inf)

    def bounds(self):
        """(lo, hi): the rectangle itself, flat along its normal axis."""
        half = np.zeros(3)
        half[self._uv] = self.half_sizes
        return self.center - half, self.center + half

    def closest_point(self, p):
        """Closest surface point of one point (3,) or of each of (N, 3)."""
        q = np.array(p, dtype=float)
        q[..., self._n] = self.center[self._n]
        for axis, half in zip(self._uv, self.half_sizes):
            q[..., axis] = np.clip(q[..., axis], self.center[axis] - half, self.center[axis] + half)
        return q

    def distances(self, points):
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        return norms(points - self.closest_point(points))


@dataclass
class Capsules:
    """K capsules (segments with radius; person body volume) stacked for
    one-pass ray casting: segment starts (K, 3), axes p1 - p0 (K, 3) and
    radii (K,). An optional (K, N) skip mask, for a cast of N rays, marks
    the (capsule, ray) pairs that do not count: a skipped capsule is
    invisible to that ray."""

    p0: np.ndarray
    axis: np.ndarray
    radius: np.ndarray
    skip: np.ndarray | None = None

    @classmethod
    def between(cls, p0, p1, radius):
        """Capsules from segment end points (K, 3) and radii (K,) or one radius."""
        p0 = np.asarray(p0, dtype=float).reshape(-1, 3)
        axis = np.asarray(p1, dtype=float).reshape(-1, 3) - p0
        radius = np.broadcast_to(np.asarray(radius, dtype=float), (len(p0),))
        return cls(p0, axis, radius)

    def __len__(self):
        return len(self.radius)

    def hit_pairs(self, origin, dirs):
        """(k, n, t): each (capsule row, ray) pair that hits and its first-hit
        parameter, for N rays; origin as in cast_rays. A hit is
        approximated at the ray point closest to the axis segment: exact
        enough for occlusion and depth noise scales. The first positive
        crossing counts, so a ray starting inside a capsule hits it where
        it leaves. Skipped pairs never hit.

        Only the pairs a bounding-sphere test cannot rule out are measured.
        The sphere has the axis midpoint as centre and half the axis length
        plus the radius as reach; a pair is culled when the centre lies
        farther than the reach (widened by CULL_REL and CULL_ABS) from the
        ray's line. The measured distance is from the line to a segment
        point, at least the centre's line distance minus half the axis, so
        a culled pair could not hit. The cull runs in blocks of
        CULL_BLOCK_RAYS rays, with two BLAS products per block, so no array
        holds a row per (capsule, ray) pair of the bundle. Its rounding can
        depend on the block, but it only chooses which pairs are measured,
        and the margins keep every pair the formula would hit. The
        survivors are measured at once, each from its own ray's origin,
        with elementwise products, so every hit has the bits of a full
        (K, N) pass."""
        dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
        origin = np.broadcast_to(np.asarray(origin, dtype=float), dirs.shape)
        if not len(dirs):
            return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
        a = self.axis
        aa = _dot(a, a)
        dd = _dot(dirs, dirs)
        reach = (0.5 * np.sqrt(aa) + self.radius) * (1.0 + CULL_REL) + CULL_ABS
        # The axis midpoints oc seen from the first ray's origin, and each
        # ray's origin u from there (zero in a bundle of one camera). A pair
        # is kept when ((oc - u) . d)^2 >= (|oc - u|^2 - reach^2) |d|^2: the
        # centre's squared line distance against the reach squared, times
        # |d|^2. Each side's inner term is a product of the capsule rows
        # [oc, |oc|^2 - reach^2, 1] with a ray column, [d, 0, -u . d] or
        # [-2u, 1, |u|^2] |d|^2. A zero direction compares 0 with 0 and is
        # kept.
        u = origin - origin[0]
        oc = self.p0 + 0.5 * a - origin[0]
        centre = np.column_stack((oc, _dot(oc, oc) - reach * reach, np.ones(len(a))))
        along = np.column_stack((dirs, np.zeros(len(dirs)), -_dot(u, dirs))).T
        gap = (np.column_stack((-2.0 * u, np.ones(len(dirs)), _dot(u, u))) * dd[:, None]).T
        ks, ns = [], []
        for lo in range(0, len(dirs), CULL_BLOCK_RAYS):
            rays = slice(lo, lo + CULL_BLOCK_RAYS)
            cd = centre @ along[:, rays]
            keep = cd * cd >= centre @ gap[:, rays]
            if self.skip is not None:
                keep &= ~self.skip[:, rays]
            k, n = np.nonzero(keep)
            ks.append(k)
            ns.append(n + lo)
        k, n = np.concatenate(ks), np.concatenate(ns)
        origin, d, dd = origin[n], dirs[n], dd[n]
        w = origin - self.p0[k]
        a, aa, r = a[k], aa[k], self.radius[k]
        da, dw = _dot(a, d), _dot(w, d)
        aw = np.where(aa > _EPS, _dot(a, w), 0.0)
        denom = dd * aa - da * da
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(denom > _EPS, (dd * aw - da * dw) / denom, 0.0)
        s = np.clip(s, 0.0, 1.0)
        seg = self.p0[k] + s[:, None] * a
        diff = seg - origin
        t = _dot(d, diff) / dd
        pts = origin + t[:, None] * d - seg
        dist = np.sqrt(_dot(pts, pts))
        back = np.sqrt(np.maximum(r**2 - dist**2, 0.0)) / np.sqrt(dd)
        t_in = t - back
        t_hit = np.where(t_in > 0, t_in, t + back)
        hit = np.flatnonzero((dist <= r) & (t_hit > 0) & (t_hit < np.inf))
        return k[hit], n[hit], t_hit[hit]

    def ray(self, origin, dirs):
        """(t, k): per ray the first hit over the stack's rows it does not
        skip and its row, the lowest row on ties; t is inf and k 0 where no
        capsule is hit. Read off hit_pairs sorted by ray, then t, then row."""
        size = len(np.asarray(dirs).reshape(-1, 3))
        t, k = np.full(size, np.inf), np.zeros(size, dtype=int)
        if not len(self):
            return t, k
        rows, rays, hit = self.hit_pairs(origin, dirs)
        order = np.lexsort((rows, hit, rays))
        rows, rays, hit = rows[order], rays[order], hit[order]
        first = np.flatnonzero(np.diff(rays, prepend=-1))
        t[rays[first]] = hit[first]
        k[rays[first]] = rows[first]
        return t, k


def cast_rays(primitives, origin, dirs, rows=None):
    """First hit over a primitive list.

    Returns (t, index) arrays; t is inf and index -1 where nothing is hit.
    origin is the origin (3,) of every ray in dirs (N, 3), or each ray's
    own, (N, 3), as when dirs holds the rays of several cameras. A ray's
    (t, index) has the same bits in any bundle.
    A Capsules stack in the list stands for its K capsules in row order
    (K consecutive indices) and answers for all of them in one pass, each
    ray ignoring the rows its skip mask marks; every other primitive
    answers alone. On equal t the lowest index wins.

    rows, if given, holds for each primitive the indices of the rays it
    may hit, or None for every ray (always None for a Capsules stack,
    whose skip mask covers the whole bundle). A primitive is asked about
    its rows alone, so the rays left out must be ones it misses.
    """
    origin = np.asarray(origin, dtype=float)
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    best_t = np.full(len(dirs), np.inf)
    best_i = np.full(len(dirs), -1, dtype=int)
    offset = 0
    for prim, sel in zip(primitives, rows or [None] * len(primitives)):
        size = len(prim) if isinstance(prim, Capsules) else 1
        if sel is None:
            sel, o = slice(None), origin
        elif not len(sel):
            offset += size
            continue
        else:
            o = origin if origin.ndim == 1 else origin[sel]
        if isinstance(prim, Capsules):
            t, k = prim.ray(o, dirs[sel])
        else:
            t, k = prim.ray(o, dirs[sel]), 0
        closer = t < best_t[sel]
        best_t[sel] = np.where(closer, t, best_t[sel])
        best_i[sel] = np.where(closer, offset + k, best_i[sel])
        offset += size
    return best_t, best_i
