"""Analytic scene primitives: labeled surfaces and body capsules.

Each primitive answers vectorized ray queries (first-hit parameter along
a bundle of rays) and point queries (distance to the surface and the
closest surface point). Surfaces answer one at a time; body capsules are
stacked (Capsules), so a cast intersects a whole stack in one numpy pass
over (capsule, ray) arrays. Used by the scene simulator for rendering
depth and label grids, occlusion tests, and ground-truth contact
distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-12

AXES = {"x": 0, "y": 1, "z": 2}


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
        tmin = near.max(axis=1)
        tmax = far.min(axis=1)
        hit = (tmax >= tmin) & (tmax > 0)
        t = np.where(tmin > 0, tmin, tmax)
        return np.where(hit, t, np.inf)

    def closest_point(self, p):
        p = np.asarray(p, dtype=float)
        q = np.clip(p, self.lo, self.hi)
        if np.any(q != p):
            return q
        # Inside: project to the nearest face.
        d_lo = p - self.lo
        d_hi = self.hi - p
        axis = int(np.argmin(np.minimum(d_lo, d_hi)))
        q = p.copy()
        q[axis] = self.lo[axis] if d_lo[axis] < d_hi[axis] else self.hi[axis]
        return q

    def distance(self, p):
        return float(np.linalg.norm(np.asarray(p, dtype=float) - self.closest_point(p)))


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
        origin = np.asarray(origin, dtype=float)
        dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
        oc = origin - self.center
        a = (dirs * dirs).sum(axis=1)
        b = 2.0 * dirs @ oc
        c = oc @ oc - self.radius**2
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

    def distance(self, p):
        p = np.asarray(p, dtype=float)
        return float(abs(np.linalg.norm(p - self.center) - self.radius))


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
        num = self.center[self._n] - origin[self._n]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(np.abs(dn) > _EPS, num / dn, np.inf)
        pts = origin + t[:, None] * dirs
        u, v = self._uv
        inside = (
            (np.abs(pts[:, u] - self.center[u]) <= self.half_sizes[0])
            & (np.abs(pts[:, v] - self.center[v]) <= self.half_sizes[1])
        )
        return np.where((t > 0) & inside, t, np.inf)

    def closest_point(self, p):
        p = np.asarray(p, dtype=float)
        q = p.copy()
        q[self._n] = self.center[self._n]
        u, v = self._uv
        q[u] = np.clip(q[u], self.center[u] - self.half_sizes[0], self.center[u] + self.half_sizes[0])
        q[v] = np.clip(q[v], self.center[v] - self.half_sizes[1], self.center[v] + self.half_sizes[1])
        return q

    def distance(self, p):
        return float(np.linalg.norm(np.asarray(p, dtype=float) - self.closest_point(p)))


@dataclass
class Capsules:
    """K capsules (segments with radius; person body volume) stacked for
    one-pass ray casting: segment starts (K, 3), axes p1 - p0 (K, 3) and
    radii (K,). Indexing with a row mask or slice gives a sub-stack."""

    p0: np.ndarray
    axis: np.ndarray
    radius: np.ndarray

    @classmethod
    def between(cls, p0, p1, radius):
        """Capsules from segment end points (K, 3) and radii (K,) or one radius."""
        p0 = np.asarray(p0, dtype=float).reshape(-1, 3)
        axis = np.asarray(p1, dtype=float).reshape(-1, 3) - p0
        radius = np.broadcast_to(np.asarray(radius, dtype=float), (len(p0),))
        if np.any(radius <= 0):
            raise ValueError("capsule radius must be positive")
        return cls(p0, axis, radius)

    def __len__(self):
        return len(self.radius)

    def __getitem__(self, rows):
        return Capsules(self.p0[rows], self.axis[rows], self.radius[rows])

    def hits(self, origin, dirs):
        """(K, N) first-hit parameters of N rays against every capsule, inf
        on a miss. Approximated at the ray point closest to the axis
        segment: exact enough for occlusion and depth noise scales."""
        origin = np.asarray(origin, dtype=float)
        dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
        a, r = self.axis, self.radius[:, None]
        aa = (a * a).sum(axis=1)
        dd = (dirs * dirs).sum(axis=1)
        # Closest-approach parameters between ray o + t d and segment p0 + s a.
        w = origin - self.p0
        da = a @ dirs.T
        dw = w @ dirs.T
        aw = np.where(aa > _EPS, (a * w).sum(axis=1), 0.0)
        denom = dd * aa[:, None] - da * da
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(denom > _EPS, (dd * aw[:, None] - da * dw) / denom, 0.0)
        s = np.clip(s, 0.0, 1.0)
        seg = self.p0[:, None, :] + s[:, :, None] * a[:, None, :]
        diff = seg - origin
        t = (dirs * diff).sum(axis=2) / dd
        pts = origin + t[:, :, None] * dirs
        dist = np.linalg.norm(pts - seg, axis=2)
        hit = (dist <= r) & (t > 0)
        depth_back = np.sqrt(np.maximum(r**2 - dist**2, 0.0))
        return np.where(hit, t - depth_back / np.sqrt(dd), np.inf)

    def ray(self, origin, dirs):
        """(t, k): per ray the first hit over the stack and its row, the
        lowest row on ties; t is inf where no capsule is hit."""
        n = len(np.asarray(dirs).reshape(-1, 3))
        if not len(self):
            return np.full(n, np.inf), np.zeros(n, dtype=int)
        t = self.hits(origin, dirs)
        k = t.argmin(axis=0)
        return t[k, np.arange(n)], k


@dataclass
class Capsule:
    """One capsule; its ray query is the batch of one of Capsules.hits."""

    p0: np.ndarray
    p1: np.ndarray
    radius: float

    def __post_init__(self):
        self.p0 = np.asarray(self.p0, dtype=float)
        self.p1 = np.asarray(self.p1, dtype=float)
        if self.radius <= 0:
            raise ValueError("capsule radius must be positive")

    def ray(self, origin, dirs):
        """First-hit parameter per ray, inf on a miss (see Capsules.hits)."""
        return Capsules.between(self.p0, self.p1, self.radius).hits(origin, dirs)[0]

    def distance(self, p):
        p = np.asarray(p, dtype=float)
        a = self.p1 - self.p0
        aa = float(a @ a)
        s = 0.0 if aa < _EPS else float(np.clip((p - self.p0) @ a / aa, 0.0, 1.0))
        return float(abs(np.linalg.norm(p - (self.p0 + s * a)) - self.radius))


def cast_rays(primitives, origin, dirs):
    """First hit over a primitive list.

    Returns (t, index) arrays; t is inf and index -1 where nothing is hit.
    A Capsules stack in the list stands for its K capsules in row order
    (K consecutive indices) and answers for all of them in one pass; every
    other primitive answers alone. On equal t the lowest index wins.
    """
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    best_t = np.full(len(dirs), np.inf)
    best_i = np.full(len(dirs), -1, dtype=int)
    offset = 0
    for prim in primitives:
        if isinstance(prim, Capsules):
            t, k = prim.ray(origin, dirs)
            size = len(prim)
        else:
            t, k, size = prim.ray(origin, dirs), 0, 1
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_i = np.where(closer, offset + k, best_i)
        offset += size
    return best_t, best_i


def surface_from_config(rec):
    """Build a labeled surface primitive from a scene config record."""
    kind = rec.get("type")
    label = int(rec["label"])
    if kind == "box":
        return Box(rec["min"], rec["max"], label=label)
    if kind == "sphere":
        return Sphere(rec["center"], float(rec["radius"]), label=label)
    if kind == "rect":
        return Rect(rec["center"], rec["axis"], tuple(rec["half_sizes"]), label=label)
    raise ValueError(f"unknown surface type {kind!r}")
