"""Analytic scene primitives: labeled surfaces and body capsules.

Each surface answers vectorized ray queries (first-hit parameter along a
bundle of rays) and point queries (distances from a batch of points, and
the closest surface point). A bundle holds the rays of one camera, from
one origin, or of several cameras, each camera's rays consecutive and
from its own origin, so one cast can answer every camera of a frame.

Which steps keep a ray's bits in any bundle:
- The elementwise ones do: the Box and Rect tests, the skip mask, and
  the capsule hit formula, each run once over the whole bundle with
  per-ray origins. So a cast may hand a Box or Rect only the rays it can
  hit, as the depth provider does by the image of its bounds().
- The BLAS products do not: a (K, 3) @ (3, n) product's bits can depend
  on n, and numpy hands a one-ray mat-vec to another kernel. They run
  per camera, at exactly the shape a cast of that camera's rays alone
  gives them: a Sphere's dirs @ oc, and the capsule products a @ dirs.T
  and w @ dirs.T that the hit formula reads. So the depth provider never
  culls a Sphere, and a multi-camera cast gives every ray the bits of its
  own camera's cast.

Body capsules are stacked (Capsules), so a cast answers a whole stack in
one numpy pass, and a (capsule, ray) skip mask lets one bundle hold rays
that must not see some rows, such as each person's own body. A cast
first culls, camera by camera, the (capsule, ray) pairs whose ray line
passes outside the capsule's bounding sphere, a test on cheap (K, n)
arrays that can only drop pairs the hit formula would miss, and then
runs the hit formula on the few surviving pairs of every camera at once,
giving the same bits as measuring every pair; each ray's first hit is
read off the pairs that hit. Used by the scene
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

AXES = {"x": 0, "y": 1, "z": 2}


def _per_ray(origin, counts):
    """Each ray's origin: origin (3,) itself for a one-camera bundle, else
    camera c's origin[c] repeated for its counts[c] rays."""
    return origin if counts is None else np.repeat(origin, counts, axis=0)


def _cameras(origin, counts, n):
    """(origin, slice of its rays) of each camera of a bundle of n rays:
    one camera at origin (3,) if counts is None, else counts[c]
    consecutive rays from origin[c]."""
    if counts is None:
        return [(origin, slice(0, n))]
    ends = np.cumsum(counts).tolist()
    return [(o, slice(end - c, end)) for o, c, end in zip(origin, counts, ends)]


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

    def ray(self, origin, dirs, counts=None):
        origin = _per_ray(np.asarray(origin, dtype=float), counts)
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

    def ray(self, origin, dirs, counts=None):
        origin = np.asarray(origin, dtype=float)
        dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
        a = (dirs * dirs).sum(axis=1)
        # The mat-vec camera by camera, at the shape of its own cast.
        b, c = [], []
        for oc, rays in _cameras(origin - self.center, counts, len(dirs)):
            b.append(2.0 * dirs[rays] @ oc)
            c.append(np.full(len(b[-1]), oc @ oc - self.radius**2))
        b, c = np.concatenate(b), np.concatenate(c)
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

    def ray(self, origin, dirs, counts=None):
        origin = _per_ray(np.asarray(origin, dtype=float), counts)
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

    def hit_pairs(self, origin, dirs, counts=None):
        """(k, n, t): each (capsule row, ray) pair that hits and its first-hit
        parameter, for N rays; origin and counts as in cast_rays. A hit is
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
        a culled pair could not hit. The cull runs camera by camera, on the
        (K, n) axis and offset products a cast of that camera's rays alone
        makes. The survivors of every camera are gathered into rows and
        measured at once, each from its own camera's origin, with the same
        arithmetic as a full (K, N) pass, so every hit keeps its bits, and
        no array holds a row per (capsule, ray) pair of the bundle."""
        origin = np.asarray(origin, dtype=float)
        dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
        a = self.axis
        aa = (a * a).sum(axis=1)
        dd = (dirs * dirs).sum(axis=1)
        reach = (0.5 * np.sqrt(aa) + self.radius) * (1.0 + CULL_REL) + CULL_ABS
        pairs, aws, last = [], [], None
        for cam, (o, rays) in enumerate(_cameras(origin, counts, len(dirs))):
            if last is None or not np.array_equal(o, last):
                # Closest-approach terms between rays o + t d and segments
                # p0 + s a, shared by the consecutive cameras at one origin.
                last, w = o, o - self.p0
                oc = 0.5 * a - w  # axis midpoint p0 + a/2, seen from o
                gap = (oc * oc).sum(axis=1) - reach * reach
                aw = np.where(aa > _EPS, (a * w).sum(axis=1), 0.0)
            aws.append(aw)
            da = a @ dirs[rays].T
            dw = w @ dirs[rays].T
            # Squared line distance of a centre, |oc|^2 - (oc . d)^2 / |d|^2,
            # over the reach squared, scaled by |d|^2; a zero direction
            # compares 0 with 0 and is kept.
            cd = oc @ dirs[rays].T
            keep = cd * cd >= gap[:, None] * dd[rays]
            if self.skip is not None:
                keep &= ~self.skip[:, rays]
            k, n = np.nonzero(keep)
            pairs.append((k, n + rays.start, da[k, n], dw[k, n], np.full(len(k), cam)))
        k, n, da, dw, cam = pairs[0] if len(pairs) == 1 else map(np.concatenate, zip(*pairs))
        aw = np.array(aws)[cam, k]
        origin = origin if counts is None else origin[cam]
        a, aa, r = a[k], aa[k], self.radius[k]
        d, dd = dirs[n], dd[n]
        denom = dd * aa - da * da
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(denom > _EPS, (dd * aw - da * dw) / denom, 0.0)
        s = np.clip(s, 0.0, 1.0)
        seg = self.p0[k] + s[:, None] * a
        diff = seg - origin
        t = (d * diff).sum(axis=1) / dd
        pts = origin + t[:, None] * d
        dist = np.linalg.norm(pts - seg, axis=1)
        back = np.sqrt(np.maximum(r**2 - dist**2, 0.0)) / np.sqrt(dd)
        t_in = t - back
        t_hit = np.where(t_in > 0, t_in, t + back)
        hit = np.flatnonzero((dist <= r) & (t_hit > 0) & (t_hit < np.inf))
        return k[hit], n[hit], t_hit[hit]

    def ray(self, origin, dirs, counts=None):
        """(t, k): per ray the first hit over the stack's rows it does not
        skip and its row, the lowest row on ties; t is inf and k 0 where no
        capsule is hit. Read off hit_pairs sorted by ray, then t, then row."""
        size = len(np.asarray(dirs).reshape(-1, 3))
        t, k = np.full(size, np.inf), np.zeros(size, dtype=int)
        if not len(self):
            return t, k
        rows, rays, hit = self.hit_pairs(origin, dirs, counts)
        order = np.lexsort((rows, hit, rays))
        rows, rays, hit = rows[order], rays[order], hit[order]
        first = np.flatnonzero(np.diff(rays, prepend=-1))
        t[rays[first]] = hit[first]
        k[rays[first]] = rows[first]
        return t, k


def cast_rays(primitives, origin, dirs, rows=None, *, counts=None):
    """First hit over a primitive list.

    Returns (t, index) arrays; t is inf and index -1 where nothing is hit.
    origin is the one camera centre (3,) of every ray in dirs; with counts,
    dirs holds the rays of C cameras one camera after another, counts[c]
    rays from centre origin[c] of the (C, 3) origin. Every ray gets the
    bits a cast of its own camera's rays alone gives it.
    A Capsules stack in the list stands for its K capsules in row order
    (K consecutive indices) and answers for all of them in one pass, each
    ray ignoring the rows its skip mask marks; every other primitive
    answers alone. On equal t the lowest index wins.

    rows, if given, holds for each primitive the indices of the rays it
    may hit, or None for every ray (always None for a Capsules stack,
    whose skip mask covers the whole bundle). A primitive is asked about
    its rows alone, so the rays left out must be ones it misses, and the
    cast gives the bits of a full one only if the primitive's ray test
    gives a ray the same bits in any bundle, as Box and Rect do. In a
    bundle with counts, such a primitive gets each of its rows' own
    origin, an (n, 3) array that the elementwise Box and Rect tests take;
    a bundle of one camera is cast as a plain one-camera bundle.
    """
    origin = np.asarray(origin, dtype=float)
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    if counts is not None and len(counts) == 1:  # one camera: a plain bundle
        origin, counts = origin[0], None
    best_t = np.full(len(dirs), np.inf)
    best_i = np.full(len(dirs), -1, dtype=int)
    ray_origin = _per_ray(origin, counts) if rows and counts is not None else origin
    offset = 0
    for prim, sel in zip(primitives, rows or [None] * len(primitives)):
        size = len(prim) if isinstance(prim, Capsules) else 1
        if sel is None:
            sel, o, c = slice(None), origin, counts
        elif not len(sel):
            offset += size
            continue
        else:
            o, c = (ray_origin if counts is None else ray_origin[sel]), None
        if isinstance(prim, Capsules):
            t, k = prim.ray(o, dirs[sel], c)
        else:
            t, k = prim.ray(o, dirs[sel], c), 0
        closer = t < best_t[sel]
        best_t[sel] = np.where(closer, t, best_t[sel])
        best_i[sel] = np.where(closer, offset + k, best_i[sel])
        offset += size
    return best_t, best_i
