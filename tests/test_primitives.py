import numpy as np
import pytest

from contacttrack.primitives import (
    Box,
    Capsule,
    Capsules,
    Rect,
    Sphere,
    cast_rays,
    surface_from_config,
)

from helpers import reference_capsule_ray, reference_cast_rays


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
        assert self.box.distance([0.0, 0.0, 0.5]) == pytest.approx(1.0)

    def test_distance_on_surface(self):
        assert self.box.distance([1.0, 0.0, 0.5]) == pytest.approx(0.0)

    def test_distance_inside_nearest_face(self):
        assert self.box.distance([1.1, 0.0, 0.5]) == pytest.approx(0.1)

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
            assert self.box.distance(p) <= best + 1e-9


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
        assert s.distance([1.0, 1.0, 2.0]) == pytest.approx(0.5)
        assert s.distance([1.0, 1.0, 1.0]) == pytest.approx(0.5)

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

    def test_distance_off_plane(self):
        r = Rect([0.0, 0.0, 1.0], "z", (0.5, 0.5))
        assert r.distance([0.0, 0.0, 1.3]) == pytest.approx(0.3)

    def test_distance_beyond_edge(self):
        r = Rect([0.0, 0.0, 1.0], "z", (0.5, 0.5))
        assert r.distance([1.5, 0.0, 1.0]) == pytest.approx(1.0)


class TestCapsule:
    def test_ray_hits_cylinder(self):
        c = Capsule([0.0, -1.0, 2.0], [0.0, 1.0, 2.0], 0.3)
        t = c.ray(np.zeros(3), np.array([[0.0, 0.0, 1.0]]))
        assert t[0] == pytest.approx(1.7, abs=1e-6)

    def test_ray_misses(self):
        c = Capsule([0.0, -1.0, 2.0], [0.0, 1.0, 2.0], 0.3)
        t = c.ray(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
        assert np.isinf(t[0])

    def test_distance_to_side(self):
        c = Capsule([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.1)
        assert c.distance([0.5, 0.0, 0.5]) == pytest.approx(0.4)


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


class TestStackedCapsules:
    def test_hits_match_per_capsule_reference(self):
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(40):
            origin, caps, dirs = capsule_bundle(rng)
            t = caps.hits(origin, dirs)
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
            prims = [Box([-3.0, -3.0, 3.5], [3.0, 3.0, 4.0]), caps[2:],
                     Sphere(origin + [0.0, 0.0, 2.0], 0.5), caps[:2]]
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
            one = Capsule(caps.p0[row], caps.p0[row] + caps.axis[row], caps.radius[row])
            assert np.array_equal(one.ray(origin, dirs),
                                  Capsules.between(one.p0, one.p1, one.radius).hits(origin, dirs)[0])


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
