import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contacttrack.geometry import (
    GN_STEP_TOL,
    IllConditioned,
    InsufficientViews,
    NoConsensus,
    Sim3,
    Sim3RansacConfig,
    TooFewCorrespondences,
    _ill_conditioned,
    _jacobians,
    _residuals,
    epipolar_distance,
    fit_sim3_ransac,
    fundamental_matrix,
    hungarian_assign,
    triangulate_weighted,
    umeyama,
)

from helpers import (
    BehindCamera,
    backproject_many,
    brute_force_assign,
    brute_force_min_permutation_cost,
    grid_refine_cost,
    identity_camera,
    make_camera,
    make_ring,
    project,
    random_rotation,
    scipy_hungarian_assign,
    svd_cond_gate,
    whole_table_hungarian_assign,
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
        p = backproject_many([[320.0, 240.0]], [2.0], cal)
        assert np.allclose(p, [[0.0, 0.0, 2.0]])

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        cal = make_camera("c", (2.0, -1.0, 1.5), (0.0, 0.0, 1.0))
        uv = rng.uniform(0, 1, size=(200, 2)) * (640, 480)
        d = rng.uniform(0.2, 10.0, size=200)
        for p, want in zip(backproject_many(uv, d, cal), uv):
            assert np.allclose(project(p, cal), want, atol=1e-9)


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
            assert epipolar_distance(xa[None, :2], xb[None, :2], F)[0] < 1e-6

    def test_symmetry(self):
        cal_a = make_camera("a", (3.0, 0.0, 1.5), (0.0, 0.0, 1.0))
        cal_b = make_camera("b", (0.0, 3.0, 1.8), (0.0, 0.0, 1.0))
        F = fundamental_matrix(cal_a, cal_b)
        xa = np.array([[100.0, 120.0]])
        xb = np.array([[400.0, 260.0]])
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
        assert np.isclose(epipolar_distance(xa[None, :2], xb_shift[None, :2], F)[0],
                          0.5 * (d_b + d_a))
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


def _mixed_batch():
    """Cameras and a batch that mixes 2, 3 and 4 used views, hint and DLT
    starts, zero-weight padding, a row at the noise floor (9), a row whose
    first damped try is rejected (10) and three failing rows (11-13)."""
    rng = np.random.default_rng(21)
    ring = make_ring(4, radius=2.5, height=1.6)
    # cam4 shares cam0's centre; cam5 sits 1e-7 m beside cam0.
    twin = make_camera("cam4", ring[0].center, (0.2, 0.1, 1.0))
    near = make_camera("cam5", ring[0].center + [1e-7, 0.0, 0.0], (0.0, 0.0, 1.0))
    cams = ring + [twin, near]
    P = 12
    pts = rng.uniform(-0.5, 0.5, size=(P, 3)) + [0.0, 0.0, 1.0]
    uv = np.stack([
        np.array([project(X, c) for X in pts]) + rng.normal(0, 0.7, size=(P, 2)) for c in cams
    ])
    w = np.zeros((len(cams), P))
    for p, views in enumerate([(0, 1), (0, 2, 3), (0, 1, 2, 3), (1, 3), (1, 2, 3),
                               (0, 1, 2, 3), (2, 3), (0, 2), (0, 1, 3)]):
        w[list(views), p] = rng.uniform(0.4, 1.0, size=len(views))
    # The failing rows: 11-13 once rows 9 and 10 go in before them below.
    w[2, 9] = 0.9          # one view only
    w[[0, 4], 10] = 0.8    # coincident centres, DLT start
    w[[0, 5], 11] = 0.8    # near-parallel rays, hinted start
    hint = np.full((P, 3), np.nan)
    hint[[1, 4, 5, 8, 11]] = pts[[1, 4, 5, 8, 11]] + rng.normal(0, 0.03, size=(5, 3))
    # Row 9: noise-free ring views, their pixels from the homogeneous
    # projection, hinted at the exact point, so the residuals are rounding
    # noise and the first try is rejected with a step of about 1e-16 m.
    X9 = np.array([0.1, 0.2, 0.8])
    ph = np.array([c.K @ (c.R @ X9 + c.t) for c in ring])
    uv10, w10, hint10 = _rejected_first_try()
    new_uv = np.zeros((len(cams), 2, 2))
    new_uv[:4, 0], new_uv[:4, 1] = ph[:, :2] / ph[:, 2:], uv10
    new_w = np.zeros((len(cams), 2))
    new_w[:4, 0], new_w[:4, 1] = (0.9, 0.6, 0.8, 0.7), w10
    uv = np.concatenate([uv[:, :9], new_uv, uv[:, 9:]], axis=1)
    w = np.concatenate([w[:, :9], new_w, w[:, 9:]], axis=1)
    hint = np.concatenate([hint[:9], [X9, hint10], hint[9:]])
    return cams, uv, w, hint


def _rejected_first_try():
    """Ring views (uv (4, 2), w (4,)) of a point with 0.7 px noise, and a
    hint (3,) 0.23 m in front of the nearest camera plane, whose first
    damped try raises the cost with a step of about 1 m. Seed 1585 is the
    first of seeds 0-1999 to give such a problem with its hint at least
    0.2 m in front of every camera."""
    rng = np.random.default_rng(1585)
    X = rng.uniform(-0.5, 0.5, 3) + [0.0, 0.0, 1.0]
    ring = make_ring(4, radius=2.5, height=1.6)
    uv = np.array([project(X, c) for c in ring]) + rng.normal(0, 0.7, size=(4, 2))
    w = rng.uniform(0.4, 1.0, 4)
    return uv, w, X + rng.normal(0, 1.0, 3)


def _first_try(cams, uv, w, X0):
    """(cost at X0, cost after the step, step) of the first damped try
    (damping 1e-6) that triangulation makes from X0 over the views of cams,
    all used, from the kernel's own residuals and Jacobians."""
    fc = np.array([[c.fx, c.fy, c.cx, c.cy] for c in cams])
    sw = np.sqrt(w)[:, None]
    T = np.stack([c.T_cw for c in cams])[None]
    C = np.concatenate([fc, uv, sw, sw * fc[:, :2]], axis=1)[None]
    r, pc, z = _residuals(X0[None], T, C)
    J = _jacobians(T, C, pc, z)[0]
    H = J.T @ J
    step = np.linalg.solve(H + 1e-6 * np.diag(np.diag(H)), -J.T @ r[0])
    r_new = _residuals((X0 + step)[None], T, C)[0][0]
    return r[0] @ r[0], r_new @ r_new, step


class TestBatchedTriangulation:
    def test_mixed_batch_matches_batches_of_one(self):
        cams, uv, w, hint = _mixed_batch()
        X, err = triangulate_weighted(
            [(c, uv[v], w[v]) for v, c in enumerate(cams)], init_hint=hint
        )
        assert X.shape == (14, 3) and err.shape == (14,)
        for p in range(14):
            obs = [(c, uv[v, p], w[v, p]) for v, c in enumerate(cams)]
            h = None if np.isnan(hint[p]).any() else hint[p]
            if p < 11:
                X1, err1 = triangulate_weighted(obs, init_hint=h)
                assert np.array_equal(X[p], X1) and err[p] == err1
                Xb, errb = triangulate_weighted(
                    [(c, uv[v, p:p + 1], w[v, p:p + 1]) for v, c in enumerate(cams)],
                    init_hint=hint[p:p + 1],
                )
                assert np.array_equal(Xb[0], X1) and errb[0] == err1
            else:
                assert np.isnan(X[p]).all() and np.isnan(err[p])
                with pytest.raises(InsufficientViews if p == 11 else IllConditioned):
                    triangulate_weighted(obs, init_hint=h)

    def test_failing_rows_leave_neighbours_unchanged(self):
        cams, uv, w, hint = _mixed_batch()
        obs = [(c, uv[v], w[v]) for v, c in enumerate(cams)]
        X, err = triangulate_weighted(obs, init_hint=hint)
        good = np.arange(11)
        Xg, errg = triangulate_weighted(
            [(c, uv[v, good], w[v, good]) for v, c in enumerate(cams)], init_hint=hint[good]
        )
        assert np.isfinite(Xg).all() and np.isfinite(errg).all()
        assert np.array_equal(X[good], Xg) and np.array_equal(err[good], errg)

    def test_noise_floor_row_stops_at_its_hint(self):
        # Row 9's first try is rejected with a step below GN_STEP_TOL,
        # which ends the problem where it started.
        cams, uv, w, hint = _mixed_batch()
        cost, cost_new, step = _first_try(cams[:4], uv[:4, 9], w[:4, 9], hint[9])
        assert cost_new > cost and np.linalg.norm(step) < GN_STEP_TOL
        X, err = triangulate_weighted([(c, uv[v], w[v]) for v, c in enumerate(cams)],
                                      init_hint=hint)
        assert np.array_equal(X[9], hint[9]) and err[9] < 1e-12

    def test_rejected_first_try_still_converges(self):
        # Row 10's first try raises the cost with a step of at least
        # GN_STEP_TOL; the damping grows until a step is accepted, and the
        # problem ends at the optimum that a DLT start reaches.
        cams, uv, w, hint = _mixed_batch()
        cost, cost_new, step = _first_try(cams[:4], uv[:4, 10], w[:4, 10], hint[10])
        assert cost_new > cost and np.linalg.norm(step) >= GN_STEP_TOL
        obs = [(c, uv[v, 10], w[v, 10]) for v, c in enumerate(cams)]
        X, err = triangulate_weighted(obs, init_hint=hint[10])
        X_dlt, err_dlt = triangulate_weighted(obs)
        # Each start stops within about a last step, below GN_STEP_TOL, of
        # the optimum: 1e-8 m is 1e-5 px at 600 px focal length and 0.6 m.
        assert np.linalg.norm(X - X_dlt) < GN_STEP_TOL and abs(err - err_dlt) < 1e-5

    def test_per_problem_order_matches_separate_calls(self):
        # Each problem of the mixed batch packs its used views in its own
        # random order: the batch gives each problem, failing ones
        # included, what a call with the views in that order gives it.
        cams, uv, w, hint = _mixed_batch()
        rng = np.random.default_rng(29)
        P = uv.shape[1]
        order = np.array([rng.permutation(len(cams)) for _ in range(P)])
        X, err = triangulate_weighted([(c, uv[v], w[v]) for v, c in enumerate(cams)],
                                      init_hint=hint, order=order)
        for p in range(P):
            Xp, errp = triangulate_weighted(
                [(cams[v], uv[v, p:p + 1], w[v, p:p + 1]) for v in order[p]],
                init_hint=hint[p:p + 1])
            assert np.array_equal(X[p], Xp[0], equal_nan=True)
            assert np.array_equal(err[p], errp[0], equal_nan=True)
        assert np.isfinite(err[:11]).all() and np.isnan(err[11:]).all()
        # The order moves the last bits: the camera-ordered batch differs.
        X0, _ = triangulate_weighted([(c, uv[v], w[v]) for v, c in enumerate(cams)],
                                     init_hint=hint)
        assert not np.array_equal(X0, X, equal_nan=True)


def _psd(rng, eig):
    """A symmetric positive semi-definite matrix with eigenvalues eig in a
    random basis."""
    Q = random_rotation(rng)
    return (Q * eig) @ Q.T


def _gate_batch():
    """Symmetric PSD 3x3 matrices with condition numbers 1 to 1e18 at
    scales 1e-12 to 1e12, singular and rank-1 ones, and rows on either
    side of tr^3 = 1e12 det and of cond = 1e14."""
    rng = np.random.default_rng(37)
    H = []
    for scale in 10.0 ** np.arange(-12, 13, 2):
        for c in 10.0 ** np.arange(0, 19):
            lo = scale / c
            H.append(_psd(rng, [scale, np.exp(rng.uniform(np.log(lo), np.log(scale))), lo]))
        H.append(np.diag([scale, scale, 0.0]))
        H.append(_psd(rng, [scale, 0.5 * scale, 0.0]))
        # Rank 1: the Jacobian rows of parallel rays.
        J = np.outer(rng.uniform(0.5, 2.0, size=6), rng.normal(size=3)) * np.sqrt(scale)
        H.append(J.T @ J)
    # Eigenvalues (1, 1, t) with (2 + t)^3 = 1e12 t, and (1, 0.5, 1e-14).
    t = 8e-12
    for _ in range(5):
        t = (2 + t) ** 3 / 1e12
    for base in ([1.0, 1.0, t], [1.0, 0.5, 1e-14]):
        for f in (1 - 1e-6, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-6):
            eig = np.array(base) * [1.0, 1.0, f]
            H += [np.diag(eig), _psd(rng, eig)]
    return np.array(H)


class TestConditioningGate:
    def test_matches_svd_oracle(self):
        H = _gate_batch()
        got = _ill_conditioned(H)
        assert np.array_equal(got, svd_cond_gate(H))
        assert got.any() and not got.all()

    def test_svd_only_where_the_bound_cannot_decide(self, monkeypatch):
        rows = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda H: rows.append(len(H)) or cond(H))
        # cond up to 1e6 at every scale: no SVD at all.
        rng = np.random.default_rng(41)
        well = np.array([_psd(rng, s * np.array([1.0, rng.uniform(1e-6, 1.0), 1e-6]))
                         for s in 10.0 ** np.arange(-12, 13)])
        assert not _ill_conditioned(well).any()
        assert rows == []
        H = _gate_batch()
        _ill_conditioned(H)
        tr = np.trace(H, axis1=1, axis2=2)
        assert rows == [np.count_nonzero(~(tr ** 3 <= 1e12 * np.linalg.det(H)))]
        assert 0 < rows[0] < len(H)

    def test_non_finite_rows(self):
        well = np.diag([1.0, 2.0, 3.0])
        with_inf = np.array([np.diag([np.inf, 1.0, 1.0]), np.full((3, 3), np.inf), well,
                             [[1.0, np.inf, 0.0], [np.inf, 1.0, 0.0], [0.0, 0.0, 1.0]]])
        with np.errstate(invalid="ignore"):
            assert np.array_equal(_ill_conditioned(with_inf), svd_cond_gate(with_inf))
            # A NaN row makes the SVD fail, in the oracle and in the gate.
            with_nan = np.array([well, np.full((3, 3), np.nan)])
            for gate in (svd_cond_gate, _ill_conditioned):
                with pytest.raises(np.linalg.LinAlgError):
                    gate(with_nan)


class TestStackedEpipolar:
    def test_stacked_rows_match_single_calls(self):
        # A row's distance does not depend on the rows stacked with it.
        rng = np.random.default_rng(23)
        cal_a = make_camera("a", (3.0, 0.0, 1.5), (0.0, 0.0, 1.0))
        cal_b = make_camera("b", (0.0, 3.0, 1.8), (0.0, 0.0, 1.0))
        for F in (fundamental_matrix(cal_a, cal_b),
                  # [t]_x with t = (0.3, 0.5, 1): the pixel (0.3, 0.5) has a null line.
                  np.array([[0.0, -1.0, 0.5], [1.0, 0.0, -0.3], [-0.5, 0.3, 0.0]])):
            xa = rng.uniform(0, 640, size=(26, 2))
            xb = rng.uniform(0, 480, size=(26, 2))
            xa[7] = xb[7] = (0.3, 0.5)
            d = epipolar_distance(xa, xb, F)
            assert d.shape == (26,)
            for k in range(26):
                assert d[k] == epipolar_distance(xa[k:k + 1], xb[k:k + 1], F)[0]
        assert d[7] == np.inf


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


@st.composite
def _assignment_problems(draw):
    """Gated assignment problems of shape 0..7 x 0..7. Costs are small
    integers (many exact ties) or multiples of 1e-6 in [0, 1], a quarter
    of them inf; max_cost is on the same grid as the costs, so
    every tie is exact or at least 1e-6 wide for all three solvers."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if draw(st.booleans()):
        value = st.integers(0, 4).map(float)
        gate = st.integers(1, 5).map(float)
    else:
        value = st.integers(0, 10**6).map(lambda k: k / 10**6)
        gate = st.integers(100, 1500).map(lambda k: k / 1000)
    cell = st.one_of(value, value, value, st.just(math.inf))
    cost = np.array(draw(st.lists(cell, min_size=m * n, max_size=m * n)), dtype=float)
    return cost.reshape(m, n), draw(gate)


@st.composite
def _gated_block_tables(draw):
    """Gated tables of shape 0..8 x 0..8 whose rows and columns fall into
    one to four blocks, so that the allowed entries split into several
    components. Across blocks an entry is inf or exactly max_cost; within
    one it is a small integer (many exact ties), max_cost itself or inf,
    and every row of some blocks is empty. max_cost is a small integer,
    negative in a quarter of the tables, so that 1 x 1 components also
    take the general solve."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    blocks = draw(st.integers(1, 4))
    row_block = draw(st.lists(st.integers(0, blocks - 1), min_size=m, max_size=m))
    col_block = draw(st.lists(st.integers(0, blocks - 1), min_size=n, max_size=n))
    empty = draw(st.sets(st.integers(0, blocks - 1), max_size=blocks - 1))
    shift = draw(st.sampled_from([0.0, 0.0, 0.0, -6.0]))
    gate = draw(st.integers(1, 5)) + shift
    inner = st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, math.inf])
    cost = np.full((m, n), math.inf)
    for i in range(m):
        for j in range(n):
            if row_block[i] == col_block[j] and row_block[i] not in empty:
                cost[i, j] = draw(inner) + shift
            else:
                cost[i, j] = draw(st.sampled_from([math.inf, gate]))
    return cost, gate


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

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_assignment_problems())
    def test_matches_scipy_and_brute_force(self, problem):
        cost, max_cost = problem
        got = hungarian_assign(cost, max_cost)
        assert got == scipy_hungarian_assign(cost, max_cost)
        if 0 < cost.size <= 30:
            assert got == brute_force_assign(cost, max_cost)[0]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.one_of(_gated_block_tables(), _assignment_problems()))
    def test_components_equal_whole_table_and_scipy(self, problem):
        # The solve split into gated components returns the pairs of one
        # solve of the whole table, ties broken the same way.
        cost, max_cost = problem
        got = hungarian_assign(cost, max_cost)
        assert got == whole_table_hungarian_assign(cost, max_cost)
        assert got == scipy_hungarian_assign(cost, max_cost)

    @pytest.mark.parametrize("max_cost", [math.inf, math.nan])
    def test_gate_must_be_finite(self, max_cost):
        with pytest.raises(ValueError, match="max_cost must be finite"):
            hungarian_assign([[0.5]], max_cost)

    def test_full_permutation_optimum(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            cost = rng.uniform(0, 1, size=(5, 5))
            got = hungarian_assign(cost, 100.0)
            total = sum(cost[r, c] for r, c in got)
            assert abs(total - brute_force_min_permutation_cost(cost)) < 1e-9
