import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contacttrack import primitives
from contacttrack.primitives import (
    CULL_ABS,
    CULL_BLOCK_RAYS,
    CULL_REL,
    Box,
    Capsules,
    Rect,
    Sphere,
    cast_rays,
)
from contacttrack.simulator import surface_from_config

from helpers import (
    capsule_hits,
    full_capsule_hits,
    reference_box_ray,
    reference_capsule_ray,
    reference_cast_rays,
)


class TestBox:
    def setup_method(self):
        self.box = Box([1.0, -1.0, 0.0], [2.0, 1.0, 1.0], label=3)

    def test_ray_hits_front_face(self):
        t = self.box.ray(np.zeros(3), np.array([[1.0, 0.0, 0.5]]))
        assert t[0] == pytest.approx(1.0)

    def test_ray_misses(self):
        t = self.box.ray(np.zeros(3), np.array([[0.0, 1.0, 0.0]]))
        assert np.isinf(t[0])

    def test_ray_from_inside_exits(self):
        t = self.box.ray(np.array([1.5, 0.0, 0.5]), np.array([[1.0, 0.0, 0.0]]))
        assert t[0] == pytest.approx(0.5)

    def test_distance_outside(self):
        assert self.box.distances([0.0, 0.0, 0.5])[0] == pytest.approx(1.0)

    def test_distance_on_surface(self):
        assert self.box.distances([1.0, 0.0, 0.5])[0] == pytest.approx(0.0)

    def test_distance_inside_nearest_face(self):
        assert self.box.distances([1.1, 0.0, 0.5])[0] == pytest.approx(0.1)

    def test_closest_point_corner(self):
        q = self.box.closest_point([0.0, -2.0, 2.0])
        assert np.allclose(q, [1.0, -1.0, 1.0])

    def test_linear_scan_oracle(self):
        # Closest surface point found by dense face sampling.
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(-1, 3, size=3)
            grid = np.linspace(0, 1, 60)
            best = np.inf
            for a in grid:
                for b in grid:
                    faces = [
                        (1.0, -1.0 + 2 * a, b), (2.0, -1.0 + 2 * a, b),
                        (1.0 + a, -1.0, b), (1.0 + a, 1.0, b),
                        (1.0 + a, -1.0 + 2 * b, 0.0), (1.0 + a, -1.0 + 2 * b, 1.0),
                    ]
                    for q in faces:
                        best = min(best, float(np.linalg.norm(p - np.array(q))))
            assert self.box.distances(p)[0] <= best + 1e-9


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), inside=st.booleans())
def test_box_ray_matches_per_ray_slabs(seed, inside):
    # Rays in every direction, some parallel to one or two slabs (zero or
    # below-_EPS components), from an origin outside or inside the box.
    rng = np.random.default_rng(seed)
    box = Box([1.0, -1.0, 0.0], [2.0, 1.0, 1.0])
    origin = rng.uniform(box.lo, box.hi) if inside else rng.uniform(-3.0, 4.0, size=3)
    dirs = rng.normal(size=(300, 3))
    flat = rng.random((300, 3)) < 0.2
    dirs[flat] = rng.choice([0.0, 1e-13, -1e-13], size=flat.sum())
    want = reference_box_ray(box, origin, dirs)
    assert box.ray(origin, dirs).tobytes() == want.tobytes()


class TestSphere:
    def test_ray_head_on(self):
        s = Sphere([0.0, 0.0, 5.0], 1.0)
        t = s.ray(np.zeros(3), np.array([[0.0, 0.0, 1.0]]))
        assert t[0] == pytest.approx(4.0)

    def test_ray_tangent_band(self):
        s = Sphere([0.0, 0.0, 5.0], 1.0)
        t = s.ray(np.zeros(3), np.array([[0.0, 2.0, 1.0]]))
        assert np.isinf(t[0])

    def test_distance(self):
        s = Sphere([1.0, 1.0, 1.0], 0.5)
        assert s.distances([1.0, 1.0, 2.0])[0] == pytest.approx(0.5)
        assert s.distances([1.0, 1.0, 1.0])[0] == pytest.approx(0.5)

    def test_closest_point_on_surface(self):
        s = Sphere([0.0, 0.0, 0.0], 2.0)
        q = s.closest_point([5.0, 0.0, 0.0])
        assert np.allclose(q, [2.0, 0.0, 0.0])


class TestRect:
    def test_ray_through_plane(self):
        r = Rect([0.0, 0.0, 1.5], "z", (1.0, 1.0))
        t = r.ray(np.array([0.2, 0.2, 0.0]), np.array([[0.0, 0.0, 1.0]]))
        assert t[0] == pytest.approx(1.5)

    def test_ray_outside_bounds(self):
        r = Rect([0.0, 0.0, 1.5], "z", (1.0, 1.0))
        t = r.ray(np.array([3.0, 0.0, 0.0]), np.array([[0.0, 0.0, 1.0]]))
        assert np.isinf(t[0])

    def test_ray_parallel_to_plane_misses_without_warning(self):
        r = Rect([0.0, 0.0, 1.5], "z", (1.0, 1.0))
        dirs = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = r.ray(np.array([0.2, -0.5, 0.0]), dirs)
        assert np.isinf(t[0]) and t[1] == 1.5 / 0.8

    def test_distance_off_plane(self):
        r = Rect([0.0, 0.0, 1.0], "z", (0.5, 0.5))
        assert r.distances([0.0, 0.0, 1.3])[0] == pytest.approx(0.3)

    def test_distance_beyond_edge(self):
        r = Rect([0.0, 0.0, 1.0], "z", (0.5, 0.5))
        assert r.distances([1.5, 0.0, 1.0])[0] == pytest.approx(1.0)


class TestCapsule:
    """One capsule is a stack of one."""

    def test_ray_hits_cylinder(self):
        c = Capsules.between([0.0, -1.0, 2.0], [0.0, 1.0, 2.0], 0.3)
        t = capsule_hits(c, np.zeros(3), np.array([[0.0, 0.0, 1.0]]))
        assert t[0, 0] == pytest.approx(1.7, abs=1e-6)

    def test_ray_misses(self):
        c = Capsules.between([0.0, -1.0, 2.0], [0.0, 1.0, 2.0], 0.3)
        t = capsule_hits(c, np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
        assert np.isinf(t[0, 0])

    def test_distance_to_side(self):
        # The side lies along the normal towards the axis, at the distance.
        c = Capsules.between([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.1)
        t = capsule_hits(c, np.array([0.5, 0.0, 0.5]), np.array([[-1.0, 0.0, 0.0]]))
        assert t[0, 0] == pytest.approx(0.4)

    def test_ray_from_inside_exits(self):
        c = Capsules.between([0.0, -1.0, 2.0], [0.0, 1.0, 2.0], 0.3)
        origin = np.array([0.0, 0.5, 2.1])
        dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -2.0], [1.0, 0.0, 0.0]])
        t = capsule_hits(c, origin, dirs)[0]
        assert t[0] == pytest.approx(0.2)
        assert t[1] == pytest.approx(0.2)  # 0.4 m at |d| = 2
        assert t[2] == pytest.approx(np.sqrt(0.3**2 - 0.1**2))
        assert np.array_equal(t, reference_capsule_ray(c.p0[0], c.axis[0], 0.3, origin, dirs))


def capsule_bundle(rng, k=12, n=40):
    """Random capsules and rays with the kernel's edge cases: rays parallel
    to an axis, the origin inside a capsule, capsules behind the origin
    and a zero-length axis."""
    origin = rng.uniform(-0.5, 0.5, size=3)
    ahead = origin + rng.normal(size=(k, 3)) + np.array([0.0, 0.0, 2.0])
    p0 = np.where(np.arange(k)[:, None] % 4 == 3, 2 * origin - ahead, ahead)  # every 4th behind
    p1 = p0 + rng.normal(0.0, 0.5, size=(k, 3))
    p1[0] = p0[0]  # zero-length axis: a sphere
    p0[1] = origin + rng.normal(0.0, 0.05, size=3)  # origin inside capsule 1
    radius = rng.uniform(0.05, 0.4, size=k)
    radius[1] = 0.3
    caps = Capsules.between(p0, p1, radius)
    dirs = (p0[rng.integers(0, k, n)] + rng.normal(0.0, 0.3, size=(n, 3)) - origin)
    dirs *= rng.uniform(0.5, 2.0, size=(n, 1))  # not unit length
    axis = caps.axis[2:6]
    dirs[:4] = axis  # parallel to an axis, starting off it
    dirs[4:8] = -axis
    dirs[8] = caps.p0[4] + 0.3 * caps.axis[4] - origin  # at an axis point, off the end caps
    return origin, caps, dirs


def rows(caps, sel):
    """The capsules of caps at rows sel, as a stack of their own."""
    return Capsules(caps.p0[sel], caps.axis[sel], caps.radius[sel])


class TestStackedCapsules:
    def test_hits_match_per_capsule_reference(self):
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(40):
            origin, caps, dirs = capsule_bundle(rng)
            t = capsule_hits(caps, origin, dirs)
            for row, (p0, a, r) in enumerate(zip(caps.p0, caps.axis, caps.radius)):
                ref = reference_capsule_ray(p0, a, r, origin, dirs)
                assert np.array_equal(np.isinf(t[row]), np.isinf(ref))
                np.testing.assert_allclose(t[row], ref, rtol=1e-12, atol=0.0)
            hits += np.isfinite(t).sum()
            assert np.isfinite(t[1]).any()  # the capsule around the origin
        assert hits > 1000

    def test_cast_matches_reference_loop(self):
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(40):
            origin, caps, dirs = capsule_bundle(rng)
            # Capsule 1 holds the origin, so every ray hits it on the way
            # out; each bundle is cast with and without it.
            for last in (rows(caps, slice(2)), rows(caps, slice(1))):
                prims = [Box([-3.0, -3.0, 3.5], [3.0, 3.0, 4.0]), rows(caps, slice(2, None)),
                         Sphere(origin + [0.0, 0.0, 2.0], 0.5), last]
                t, i = cast_rays(prims, origin, dirs)
                ref_t, ref_i = reference_cast_rays(prims, origin, dirs)
                assert np.array_equal(i, ref_i)
                np.testing.assert_allclose(t, ref_t, rtol=1e-12, atol=0.0)
                seen |= set(ref_i.tolist())
        assert seen == set(range(-1, len(caps) + 2))  # misses and every primitive

    def test_ties_go_to_the_lowest_index(self):
        cap = Capsules.between([[0.0, -1.0, 2.0]] * 3, [[0.0, 1.0, 2.0]] * 3, 0.3)
        t, i = cast_rays([cap], np.zeros(3), np.array([[0.0, 0.0, 1.0]]))
        assert i[0] == 0 and t[0] == pytest.approx(1.7)

    def test_empty_stack_hits_nothing(self):
        empty = Capsules.between(np.zeros((0, 3)), np.zeros((0, 3)), 0.1)
        t, i = cast_rays([empty, Sphere([0, 0, 5.0], 1.0)], np.zeros(3),
                         np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        assert i.tolist() == [0, -1] and t[0] == pytest.approx(4.0)

    def test_single_capsule_is_a_batch_of_one(self):
        rng = np.random.default_rng(13)
        origin, caps, dirs = capsule_bundle(rng)
        for row in range(len(caps)):
            one = Capsules.between(caps.p0[row], caps.p0[row] + caps.axis[row], caps.radius[row])
            stacked = rows(caps, slice(row, row + 1))
            assert np.array_equal(capsule_hits(one, origin, dirs)[0], capsule_hits(stacked, origin, dirs)[0])


def assert_culled_kernel_exact(caps, origin, dirs):
    """hits, ray and cast_rays are bit-identical to the full pass, where
    skipped pairs miss and the lowest row wins ties. Returns the hits."""
    want = full_capsule_hits(caps, origin, dirs)
    if caps.skip is not None:
        want = np.where(caps.skip, np.inf, want)
    assert np.array_equal(capsule_hits(caps, origin, dirs), want)
    rays = np.arange(want.shape[1])
    k = want.argmin(axis=0) if len(caps) else np.zeros(len(rays), dtype=int)
    best = want[k, rays] if len(caps) else np.full(len(rays), np.inf)
    t, row = caps.ray(origin, dirs)
    assert np.array_equal(t, best) and np.array_equal(row, k)
    t, i = cast_rays([caps], origin, dirs)
    assert np.array_equal(t, best) and np.array_equal(i, np.where(np.isfinite(best), k, -1))
    # The same rays behind one from an origin 4 m away, which the cull then
    # measures every ray from: the hits keep their bits.
    origins = np.vstack([origin + [3.0, -2.0, 2.0], np.broadcast_to(origin, dirs.shape)])
    lead = np.vstack([[0.0, 0.0, 1.0], dirs])
    skip = None if caps.skip is None else np.hstack([np.zeros((len(caps), 1), bool), caps.skip])
    assert np.array_equal(capsule_hits(replace(caps, skip=skip), origins, lead)[:, 1:], want)
    return want


def boundary_capsule(origin, d, e, t0, half, r, delta):
    """A capsule whose axis points straight at the line o + t d (e is a
    unit vector normal to d) and whose centre lies at t0 along the unit
    ray, reach + delta from the line: the near end is r + delta from it,
    so the cull's bound is tight and the kernel's dist is r + delta."""
    centre = origin + t0 * d / np.linalg.norm(d) + (half + r + delta) * e
    return centre + half * e, centre - half * e


def unit_normal(d, rng):
    e = np.cross(d, rng.normal(size=3))
    return e / np.linalg.norm(e)


class TestCulledKernel:
    """The bounding-sphere cull in Capsules.hit_pairs changes no bit: every
    cast equals the full (capsule, ray) pass of full_capsule_hits, with
    np.array_equal, on the cull's edge cases."""

    def test_capsule_bundles(self):
        rng = np.random.default_rng(21)
        kept = culled = 0
        for _ in range(60):
            origin, caps, dirs = capsule_bundle(rng)
            want = assert_culled_kernel_exact(caps, origin, dirs)
            kept += np.isfinite(want).sum()
            culled += np.isinf(want).sum()
            skip = rng.random((len(caps), len(dirs))) < 0.3
            assert_culled_kernel_exact(replace(caps, skip=skip), origin, dirs)
        assert kept > 1000 and culled > 1000

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t0=st.sampled_from([-2.0, 0.5, 3.0, 50.0]),
        half=st.sampled_from([0.0, 0.2, 0.45]),
        r=st.sampled_from([0.05, 0.1, 0.14]),
        scale=st.sampled_from([0.25, 1.0, 7.0]),
    )
    def test_centre_at_the_reach(self, seed, t0, half, r, scale):
        # Rays whose centre line-distance is the reach within +-1e-9 (and
        # within the cull's own margins), at 50 m too, where the cull's
        # squared distance loses most to cancellation.
        rng = np.random.default_rng(seed)
        origin = rng.uniform(-3.0, 3.0, size=3)
        d = rng.normal(size=3) * scale  # not unit length
        e = unit_normal(d, rng)
        reach = half + r
        margin = reach * CULL_REL + CULL_ABS
        deltas = [-1e-9, -1e-10, 0.0, 1e-10, 1e-9, margin, 2 * margin, -margin]
        p0, p1 = zip(*(boundary_capsule(origin, d, e, t0, half, r, x) for x in deltas))
        caps = Capsules.between(p0, p1, r)
        dirs = np.vstack([d, d * 3.0, -d])
        want = assert_culled_kernel_exact(caps, origin, dirs)
        if t0 > r + half and half > 0:
            assert np.isfinite(want[0, 0]) and np.isinf(want[-2, 0])

    def test_tangent_rays(self):
        # dist == r: rays grazing a capsule's side and its end cap.
        rng = np.random.default_rng(22)
        for _ in range(200):
            origin = rng.uniform(-1.0, 1.0, size=3)
            d = rng.normal(size=3)
            e = unit_normal(d, rng)
            f = np.cross(d, e)
            f /= np.linalg.norm(f)
            r = rng.choice([0.05, 0.1, 0.125, 0.14])
            t0 = rng.choice([1.0, 2.5, 50.0])
            centre = origin + t0 * d / np.linalg.norm(d) + r * e
            half = rng.uniform(0.1, 0.5)
            side = (centre - half * f, centre + half * f)  # axis along f: grazes the side
            end = boundary_capsule(origin, d, e, t0, half, r, 0.0)  # grazes the end cap
            caps = Capsules.between(*zip(side, end), r)
            assert_culled_kernel_exact(caps, origin, d[None])

    def test_far_capsules(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            origin, caps, dirs = capsule_bundle(rng)
            far = replace(caps, p0=caps.p0 + np.array([50.0, -30.0, 40.0]))
            toward = dirs + np.array([50.0, -30.0, 40.0]) * rng.uniform(0.2, 1.0, (len(dirs), 1))
            assert_culled_kernel_exact(far, origin, toward)
            assert_culled_kernel_exact(far, origin + [50.0, -30.0, 40.0], dirs)

    def test_zero_survivors(self):
        caps = Capsules.between([[5.0, 0.0, 1.0], [-5.0, 0.0, 1.0]],
                                [[5.0, 0.0, 2.0], [-5.0, 0.0, 2.0]], 0.1)
        dirs = np.array([[0.0, 1.0, 0.0], [0.0, -2.0, 0.5], [0.0, 0.0, 1.0]])
        want = assert_culled_kernel_exact(caps, np.zeros(3), dirs)
        assert np.isinf(want).all()

    def test_zero_direction(self):
        caps = Capsules.between([[0.0, 0.0, 1.0]], [[0.0, 0.0, 2.0]], 0.1)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert_culled_kernel_exact(caps, np.zeros(3), np.zeros((2, 3)))

    def test_empty_stack(self):
        empty = Capsules.between(np.zeros((0, 3)), np.zeros((0, 3)), 0.1)
        dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert assert_culled_kernel_exact(empty, np.zeros(3), dirs).shape == (0, 2)


class TestCasting:
    def test_nearest_of_two(self):
        prims = [Sphere([0, 0, 5.0], 1.0), Sphere([0, 0, 2.5], 0.5)]
        t, i = cast_rays(prims, np.zeros(3), np.array([[0.0, 0.0, 1.0]]))
        assert i[0] == 1
        assert t[0] == pytest.approx(2.0)

    def test_all_miss(self):
        prims = [Sphere([0, 0, 5.0], 1.0)]
        t, i = cast_rays(prims, np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
        assert i[0] == -1
        assert np.isinf(t[0])

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
    def test_box_and_rect_rays_keep_their_bits_in_any_bundle(self, seed, n):
        # The cull hands a surface a subset of the bundle, as few as one
        # ray; each ray's hit must not depend on the others.
        rng = np.random.default_rng(seed)
        origin = rng.uniform(-1.0, 1.0, size=3)
        dirs = rng.normal(size=(n, 3)) + [0.0, 0.0, 2.0]
        lo = rng.uniform(-1.0, 1.0, size=3) + [0.0, 0.0, 3.0]
        for prim in (Box(lo, lo + rng.uniform(0.1, 2.0, size=3)),
                     Rect(lo, "xyz"[rng.integers(3)], tuple(rng.uniform(0.1, 2.0, size=2)))):
            full = prim.ray(origin, dirs)
            for sel in (rng.permutation(n)[:rng.integers(1, n + 1)], [rng.integers(n)]):
                assert prim.ray(origin, dirs[sel]).tobytes() == full[sel].tobytes()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rows_that_hold_every_hit_give_the_full_cast(self, seed):
        # The box, the rectangle, the box again (which loses every tie) and
        # the sphere are each handed the rays they hit plus random others,
        # or every ray; the stack, whose skip mask covers the bundle, every
        # ray. The first hits keep their bits.
        rng = np.random.default_rng(seed)
        origin = rng.uniform(-0.2, 0.2, size=3)
        dirs = rng.normal(size=(120, 3)) * 0.6 + [0.0, 0.0, 1.0]
        box = Box([-1.5, -1.0, 2.0], [-0.2, 1.0, 2.5])
        prims = [box, Rect([0.8, 0.0, 2.2], "z", (0.6, 0.8)), box,
                 Sphere([0.0, 0.0, 4.0], 1.0),
                 Capsules.between([[-1.5, 0.8, 1.8]], [[1.5, 0.8, 1.8]], 0.15)]
        want_t, want_i = cast_rays(prims, origin, dirs)
        rows = []
        for prim in prims[:4]:
            hit = np.isfinite(prim.ray(origin, dirs)) | (rng.random(len(dirs)) < 0.3)
            rows.append(None if rng.random() < 0.2 else np.flatnonzero(hit))
        t, i = cast_rays(prims, origin, dirs, rows=rows + [None])
        assert t.tobytes() == want_t.tobytes() and i.tobytes() == want_i.tobytes()
        assert {0, 1, 3, 4} <= set(want_i.tolist())

    def test_empty_rows_skip_the_primitive(self):
        dirs = np.array([[0.0, 0.0, 1.0]])
        prims = [Sphere([0, 0, 5.0], 1.0), Sphere([0, 0, 2.5], 0.5)]
        t, i = cast_rays(prims, np.zeros(3), dirs, rows=[None, np.zeros(0, dtype=int)])
        assert i[0] == 0 and t[0] == pytest.approx(4.0)


class TestBundleIndependence:
    @staticmethod
    def scene(rng, n):
        """A box, a rectangle, a sphere and a stack of twelve capsules with
        a random skip mask over n rays, all ahead of origins near 0, and n
        rays aimed at them from several origins."""
        lo = rng.uniform(-1.0, 1.0, size=3) + [0.0, 0.0, 3.0]
        p0 = rng.uniform(-1.5, 1.5, size=(12, 3)) + [0.0, 0.0, 2.5]
        caps = Capsules.between(p0, p0 + rng.normal(0.0, 0.5, size=(12, 3)),
                                rng.uniform(0.05, 0.4, size=12))
        prims = [Box(lo, lo + rng.uniform(0.1, 2.0, size=3)),
                 Rect(lo + [0.5, 0.0, -1.0], "xyz"[rng.integers(3)],
                      tuple(rng.uniform(0.1, 2.0, size=2))),
                 Sphere(rng.uniform(-1.0, 1.0, size=3) + [0.0, 0.0, 3.0], rng.uniform(0.2, 1.0)),
                 replace(caps, skip=rng.random((12, n)) < 0.2)]
        centres = rng.uniform(-0.5, 0.5, size=(rng.integers(1, 5), 3))
        origin = centres[rng.integers(0, len(centres), n)]
        # Most rays aim near a capsule's midpoint, some near the other
        # surfaces and a fifth nowhere in particular; none has unit length.
        aims = np.vstack([caps.p0 + 0.5 * caps.axis, lo, prims[1].center, prims[2].center])
        dirs = aims[rng.integers(0, len(aims), n)] + rng.normal(0.0, 0.3, size=(n, 3)) - origin
        dirs[rng.random(n) < 0.2] = rng.normal(size=3) * 0.6 + [0.0, 0.0, 1.0]
        return prims, origin, dirs * rng.uniform(0.5, 2.0, size=(n, 1))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 60), data=st.data())
    def test_rays_keep_their_bits_in_any_bundle(self, seed, n, data):
        # Every ray's (t, index), and its hit on each surface and capsule,
        # are the same bytes alone, in the full bundle, in a shuffled one
        # and on either side of a split, whichever origins the other rays
        # start from.
        prims, origin, dirs = self.scene(np.random.default_rng(seed), n)

        def cast(sel):
            """(t, index), each surface's own hits and the capsule hits."""
            sub = [replace(p, skip=p.skip[:, sel]) if isinstance(p, Capsules) else p
                   for p in prims]
            o, d = origin[sel], dirs[sel]
            hits = np.vstack([p.ray(o, d) for p in sub[:-1]] + [capsule_hits(sub[-1], o, d)])
            return *cast_rays(sub, o, d), hits

        want_t, want_i, want_hits = cast(np.arange(n))
        assert np.isfinite(want_hits[3:]).any()
        cut = data.draw(st.integers(0, n), label="cut")
        perm = np.array(data.draw(st.permutations(range(n)), label="order"))
        bundles = [perm, np.arange(cut), np.arange(cut, n)] + [[i] for i in range(n)]
        for sel in bundles:
            t, i, hits = cast(sel)
            assert t.tobytes() == want_t[sel].tobytes() and i.tobytes() == want_i[sel].tobytes()
            assert hits.tobytes() == want_hits[:, sel].tobytes()
        if (origin == origin[0]).all():  # one origin, given once or per ray
            t, i = cast_rays(prims, origin[0], dirs)
            assert t.tobytes() == want_t.tobytes() and i.tobytes() == want_i.tobytes()


def test_cull_memory_is_bounded_by_a_block():
    # 80 capsules and 4,000 rays from four origins, few pairs surviving the
    # cull: one hit_pairs peaks below ten (capsules, block) float arrays,
    # which one (capsules, rays) array of an unblocked cull would exceed.
    rng = np.random.default_rng(31)
    k, n = 80, 4000
    p0 = rng.uniform(-4.0, 4.0, size=(k, 3)) + [0.0, 0.0, 6.0]
    caps = Capsules.between(p0, p0 + rng.normal(0.0, 0.3, size=(k, 3)),
                            rng.uniform(0.05, 0.14, size=k))
    origin = np.repeat(rng.uniform(-0.5, 0.5, size=(4, 3)), n // 4, axis=0)
    dirs = rng.normal(size=(n, 3)) * 0.5 + [0.0, 0.0, 1.0]
    bound = 10 * k * CULL_BLOCK_RAYS * 8

    def peak():
        caps.hit_pairs(origin, dirs)  # numpy's first-call allocations
        tracemalloc.start()
        try:
            hits = caps.hit_pairs(origin, dirs)
            return tracemalloc.get_traced_memory()[1], hits
        finally:
            tracemalloc.stop()

    blocked, hits = peak()
    assert blocked < bound and len(hits[0]) > 100
    assert k * n * 8 > bound
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primitives, "CULL_BLOCK_RAYS", n)
        unblocked, same = peak()
    assert unblocked > bound
    order = [np.lexsort((rows, rays)) for rows, rays, _ in (hits, same)]
    assert all(a[order[0]].tobytes() == b[order[1]].tobytes() for a, b in zip(hits, same))


class TestConfig:
    def test_each_kind_builds(self):
        assert surface_from_config(
            {"type": "box", "label": 1, "min": [0, 0, 0], "max": [1, 1, 1]}
        ).label == 1
        assert surface_from_config(
            {"type": "sphere", "label": 2, "center": [0, 0, 1], "radius": 0.2}
        ).label == 2
        assert surface_from_config(
            {"type": "rect", "label": 3, "center": [0, 0, 1], "axis": "z", "half_sizes": [1, 1]}
        ).label == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            surface_from_config({"type": "cone", "label": 1})
