import numpy as np
import pytest

from contacttrack.geometry import (
    BehindCamera,
    DegenerateBaseline,
    InsufficientViews,
    NoConsensus,
    NonPositiveDepth,
    Sim3,
    Sim3RansacConfig,
    TooFewCorrespondences,
    backproject,
    epipolar_distance,
    fit_sim3_ransac,
    fundamental_matrix,
    hungarian_assign,
    project,
    triangulate_weighted,
    umeyama,
)

from helpers import (
    brute_force_assign,
    brute_force_min_permutation_cost,
    grid_refine_cost,
    identity_camera,
    make_camera,
    make_ring,
    random_rotation,
)


class TestProjection:
    def test_principal_point(self):
        cal = identity_camera()
        uv = project(np.array([0.0, 0.0, 2.0]), cal)
        assert np.allclose(uv, [320.0, 240.0])

    def test_offset_point(self):
        cal = identity_camera()
        uv = project(np.array([0.1, 0.0, 1.0]), cal)
        assert np.isclose(uv[0], 380.0)

    def test_behind_camera_raises(self):
        cal = identity_camera()
        with pytest.raises(BehindCamera):
            project(np.array([0.0, 0.0, -1.0]), cal)

    def test_backproject_identity(self):
        cal = identity_camera()
        p = backproject(320.0, 240.0, 2.0, cal)
        assert np.allclose(p, [0.0, 0.0, 2.0])

    def test_nonpositive_depth(self):
        with pytest.raises(NonPositiveDepth):
            backproject(10.0, 10.0, 0.0, identity_camera())

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        cal = make_camera("c", (2.0, -1.0, 1.5), (0.0, 0.0, 1.0))
        for _ in range(200):
            u = rng.uniform(0, 640)
            v = rng.uniform(0, 480)
            d = rng.uniform(0.2, 10.0)
            p = backproject(u, v, d, cal)
            uv = project(p, cal)
            assert np.allclose(uv, [u, v], atol=1e-9)


class TestEpipolar:
    def test_constraint_on_true_points(self):
        rng = np.random.default_rng(3)
        cal_a = make_camera("a", (3.0, 0.0, 1.5), (0.0, 0.0, 1.0))
        cal_b = make_camera("b", (0.0, 3.0, 1.8), (0.0, 0.0, 1.0))
        F = fundamental_matrix(cal_a, cal_b)
        for _ in range(100):
            P = rng.uniform(-0.8, 0.8, size=3) + np.array([0.0, 0.0, 1.0])
            xa = np.append(project(P, cal_a), 1.0)
            xb = np.append(project(P, cal_b), 1.0)
            assert abs(xb @ F @ xa) < 1e-9 * max(1.0, abs(xb @ F @ xa) + 1)
            assert epipolar_distance(xa, xb, F) < 1e-6

    def test_degenerate_baseline(self):
        cal = make_camera("a", (3.0, 0.0, 1.5), (0.0, 0.0, 1.0))
        with pytest.raises(DegenerateBaseline):
            fundamental_matrix(cal, cal)

    def test_symmetry(self):
        cal_a = make_camera("a", (3.0, 0.0, 1.5), (0.0, 0.0, 1.0))
        cal_b = make_camera("b", (0.0, 3.0, 1.8), (0.0, 0.0, 1.0))
        F = fundamental_matrix(cal_a, cal_b)
        xa = np.array([100.0, 120.0, 1.0])
        xb = np.array([400.0, 260.0, 1.0])
        assert np.isclose(
            epipolar_distance(xa, xb, F), epipolar_distance(xb, xa, F.T)
        )

    def test_perpendicular_displacement_definition(self):
        # Displacing x_b by 5 px perpendicular to its epipolar line makes the
        # x_b-side term exactly 5; the symmetric value is the mean of the two
        # hand-computed point-line distances.
        cal_a = make_camera("a", (3.0, 0.0, 1.5), (0.0, 0.0, 1.0))
        cal_b = make_camera("b", (0.0, 3.0, 1.8), (0.0, 0.0, 1.0))
        F = fundamental_matrix(cal_a, cal_b)
        P = np.array([0.1, -0.2, 1.1])
        xa = np.append(project(P, cal_a), 1.0)
        xb = np.append(project(P, cal_b), 1.0)
        line = F @ xa
        normal = np.array([line[0], line[1], 0.0]) / np.hypot(line[0], line[1])
        xb_shift = xb + 5.0 * normal

        def pld(x, l):
            return abs(x @ l) / np.hypot(l[0], l[1])

        d_b = pld(xb_shift, F @ xa)
        d_a = pld(xa, F.T @ xb_shift)
        assert abs(d_b - 5.0) < 1e-9
        assert np.isclose(epipolar_distance(xa, xb_shift, F), 0.5 * (d_b + d_a))
        # Mean semantics: were the other term zero, the result would be 2.5.
        assert np.isclose(0.5 * (5.0 + 0.0), 2.5)


class TestTriangulation:
    def test_noiseless_two_views(self):
        cams = make_ring(2)
        P = np.array([0.2, -0.1, 1.3])
        obs = [(c, project(P, c), 1.0) for c in cams]
        X, err = triangulate_weighted(obs)
        assert np.linalg.norm(X - P) < 1e-6
        assert err < 1e-6

    def test_insufficient_views(self):
        cams = make_ring(2)
        P = np.array([0.0, 0.0, 1.0])
        with pytest.raises(InsufficientViews):
            triangulate_weighted([(cams[0], project(P, cams[0]), 1.0)])
        with pytest.raises(InsufficientViews):
            triangulate_weighted([(c, project(P, c), 0.0) for c in cams])

    def test_noisy_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        cams = make_ring(4, radius=2.0, height=1.6)
        P = np.array([0.3, 0.2, 1.1])
        obs = []
        for c in cams:
            uv = project(P, c) + rng.normal(0, 1.0, size=2)
            obs.append((c, uv, 1.0))
        X, _ = triangulate_weighted(obs)

        def cost_at(Xq):
            total = 0.0
            for cal, uv, w in obs:
                pc = cal.world_to_camera(Xq)
                u = cal.fx * pc[0] / pc[2] + cal.cx
                v = cal.fy * pc[1] / pc[2] + cal.cy
                total += w * ((u - uv[0]) ** 2 + (v - uv[1]) ** 2)
            return total

        _, oracle_cost = grid_refine_cost(obs, P, half=0.2)
        assert cost_at(X) <= oracle_cost + 1e-6

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(5)
        cams = make_ring(3)
        P = np.array([-0.2, 0.4, 0.9])
        obs = [(c, project(P, c) + rng.normal(0, 0.5, 2), w) for c, w in zip(cams, (0.5, 0.9, 0.7))]
        X1, _ = triangulate_weighted(obs)
        X2, _ = triangulate_weighted([(c, uv, 10.0 * w) for c, uv, w in obs])
        assert np.linalg.norm(X1 - X2) < 1e-9

    def test_init_hint_respected(self):
        cams = make_ring(3)
        P = np.array([0.1, 0.1, 1.2])
        obs = [(c, project(P, c), 1.0) for c in cams]
        X, err = triangulate_weighted(obs, init_hint=P + 0.05)
        assert np.linalg.norm(X - P) < 1e-6


class TestSim3:
    def test_identity_fit(self):
        rng = np.random.default_rng(2)
        src = rng.normal(size=(50, 3))
        rep = fit_sim3_ransac(src, src.copy(), Sim3RansacConfig(min_inliers=10), rng)
        assert np.isclose(rep.transform.scale, 1.0, atol=1e-9)
        assert np.allclose(rep.transform.R, np.eye(3), atol=1e-9)
        assert np.allclose(rep.transform.t, 0.0, atol=1e-9)
        assert rep.rms_inliers < 1e-9

    def test_pure_translation(self):
        rng = np.random.default_rng(4)
        src = rng.normal(size=(60, 3))
        t = np.array([0.3, -0.1, 2.0])
        rep = fit_sim3_ransac(src, src + t, Sim3RansacConfig(min_inliers=10), rng)
        assert abs(rep.transform.scale - 1.0) < 1e-9
        assert np.allclose(rep.transform.R, np.eye(3), atol=1e-9)
        assert np.allclose(rep.transform.t, t, atol=1e-9)

    def test_outlier_recovery(self):
        rng = np.random.default_rng(8)
        src = rng.normal(scale=0.08, size=(200, 3))  # hand-sized point set
        R = random_rotation(rng)
        s = 1.2
        t = np.array([0.5, -0.3, 1.7])
        gen = Sim3(s, R, t)
        dst = gen.apply(src)
        out = rng.choice(200, size=60, replace=False)
        dst[out] = rng.uniform(-2, 2, size=(60, 3))
        rep = fit_sim3_ransac(src, dst, Sim3RansacConfig(inlier_threshold=0.01), rng)
        assert abs(rep.transform.scale - s) / s < 1e-3
        dR = rep.transform.R @ R.T
        angle = np.degrees(np.arccos(np.clip((np.trace(dR) - 1) / 2, -1, 1)))
        assert angle < 0.1
        assert np.linalg.norm(rep.transform.t - t) < 1e-3

    def test_too_few(self):
        with pytest.raises(TooFewCorrespondences):
            fit_sim3_ransac(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_no_consensus(self):
        rng = np.random.default_rng(9)
        src = rng.normal(size=(40, 3))
        dst = rng.normal(size=(40, 3))
        with pytest.raises(NoConsensus):
            fit_sim3_ransac(src, dst, Sim3RansacConfig(inlier_threshold=1e-6, min_inliers=20), rng)

    def test_umeyama_reflection_guard(self):
        rng = np.random.default_rng(10)
        src = rng.normal(size=(30, 3))
        tr = umeyama(src, src @ random_rotation(rng).T)
        assert np.isclose(np.linalg.det(tr.R), 1.0, atol=1e-9)


class TestHungarian:
    def test_single(self):
        assert hungarian_assign([[0.5]], 1.0) == [(0, 0)]

    def test_all_gated(self):
        assert hungarian_assign([[2.0, 3.0], [4.0, 5.0]], 1.0) == []

    def test_empty(self):
        assert hungarian_assign(np.zeros((0, 3)), 1.0) == []

    def test_lexicographic_ties(self):
        # Both diagonals cost 2.0; lexicographically smallest picks (0,0),(1,1).
        assert hungarian_assign([[1.0, 1.0], [1.0, 1.0]], 10.0) == [(0, 0), (1, 1)]

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(12)
        for _ in range(150):
            m = rng.integers(1, 6)
            n = rng.integers(1, 6)
            cost = rng.uniform(0, 1, size=(m, n))
            max_cost = rng.uniform(0.3, 1.2)
            got = hungarian_assign(cost, max_cost)
            want, want_total = brute_force_assign(cost, max_cost)
            got_total = sum(cost[r, c] for r, c in got) + max_cost * (
                (m - len(got)) + (n - len(got))
            )
            assert abs(got_total - want_total) < 1e-9
            assert sorted(got) == want

    def test_full_permutation_optimum(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            cost = rng.uniform(0, 1, size=(5, 5))
            got = hungarian_assign(cost, 100.0)
            total = sum(cost[r, c] for r, c in got)
            assert abs(total - brute_force_min_permutation_cost(cost)) < 1e-9
