"""Camera models and shared numeric kernels.

Pinhole cameras (rectified, no lens distortion), projection and
back-projection, epipolar tests, weighted nonlinear triangulation,
robust similarity-transform registration, and gated linear assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ContactTrackError

_ROT_TOL = 1e-9


class BehindCamera(ContactTrackError):
    pass


class NonPositiveDepth(ContactTrackError):
    pass


class DegenerateBaseline(ContactTrackError):
    pass


class InsufficientViews(ContactTrackError):
    pass


class IllConditioned(ContactTrackError):
    pass


class TooFewCorrespondences(ContactTrackError):
    pass


class NoConsensus(ContactTrackError):
    pass


def _check_rotation(R, tol=_ROT_TOL):
    if np.linalg.norm(R.T @ R - np.eye(3)) >= tol * 10 + 1e-12:
        raise ValueError("rotation block is not orthonormal")
    if abs(np.linalg.det(R) - 1.0) >= tol * 10 + 1e-12:
        raise ValueError("rotation block has det != 1")


@dataclass
class CameraCalibration:
    """Pinhole camera with a rigid world-to-camera transform (meters, pixels)."""

    camera_id: str
    fx: float
    fy: float
    cx: float
    cy: float
    T_cw: np.ndarray  # 4x4, world -> camera
    image_width: int
    image_height: int

    def __post_init__(self):
        self.T_cw = np.asarray(self.T_cw, dtype=float)
        if self.T_cw.shape != (4, 4):
            raise ValueError("T_cw must be 4x4")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.image_width and 0 < self.cy < self.image_height):
            raise ValueError("principal point outside image")
        _check_rotation(self.R)

    @property
    def R(self):
        return self.T_cw[:3, :3]

    @property
    def t(self):
        return self.T_cw[:3, 3]

    @property
    def center(self):
        """Camera center in world coordinates."""
        return -self.R.T @ self.t

    @property
    def K(self):
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def world_to_camera(self, points):
        points = np.asarray(points, dtype=float)
        return points @ self.R.T + self.t

    def camera_to_world(self, points):
        points = np.asarray(points, dtype=float)
        return (points - self.t) @ self.R

    def in_bounds(self, uv):
        u, v = uv[..., 0], uv[..., 1]
        return (u >= 0) & (u <= self.image_width - 1) & (v >= 0) & (v <= self.image_height - 1)


def project(point, cal: CameraCalibration):
    """Project a world point to pixel coordinates (u, v).

    Raises BehindCamera if the point is at or behind the image plane.
    """
    pc = cal.world_to_camera(np.asarray(point, dtype=float))
    if pc[2] <= 1e-6:
        raise BehindCamera(f"camera-frame z={pc[2]:.3g} <= 1e-6")
    return np.array([cal.fx * pc[0] / pc[2] + cal.cx, cal.fy * pc[1] / pc[2] + cal.cy])


def project_many(points, cal: CameraCalibration):
    """Vectorized projection. Returns (uv (N,2), valid (N,)) with valid=False behind camera."""
    pc = cal.world_to_camera(np.asarray(points, dtype=float))
    z = pc[:, 2]
    valid = z > 1e-6
    zsafe = np.where(valid, z, 1.0)
    uv = np.stack(
        [cal.fx * pc[:, 0] / zsafe + cal.cx, cal.fy * pc[:, 1] / zsafe + cal.cy], axis=1
    )
    return uv, valid


def backproject(u, v, depth, cal: CameraCalibration):
    """Back-project pixel (u, v) at the given depth (camera-frame z) to a world point."""
    if depth <= 0:
        raise NonPositiveDepth(f"depth={depth}")
    pc = np.array([(u - cal.cx) * depth / cal.fx, (v - cal.cy) * depth / cal.fy, depth])
    return cal.camera_to_world(pc)


def backproject_many(uv, depths, cal: CameraCalibration):
    """Vectorized back-projection of pixels with positive depths."""
    uv = np.asarray(uv, dtype=float)
    depths = np.asarray(depths, dtype=float)
    pc = np.stack(
        [
            (uv[:, 0] - cal.cx) * depths / cal.fx,
            (uv[:, 1] - cal.cy) * depths / cal.fy,
            depths,
        ],
        axis=1,
    )
    return cal.camera_to_world(pc)


def fundamental_matrix(cal_i: CameraCalibration, cal_j: CameraCalibration):
    """Fundamental matrix F such that x_j^T F x_i = 0 for projections of a common point."""
    baseline = cal_j.center - cal_i.center
    if np.linalg.norm(baseline) < 1e-6:
        raise DegenerateBaseline(
            f"camera centers of {cal_i.camera_id} and {cal_j.camera_id} coincide"
        )
    # Relative pose mapping camera-i coordinates into camera j.
    R_rel = cal_j.R @ cal_i.R.T
    t_rel = cal_j.t - R_rel @ cal_i.t
    tx = np.array(
        [
            [0.0, -t_rel[2], t_rel[1]],
            [t_rel[2], 0.0, -t_rel[0]],
            [-t_rel[1], t_rel[0], 0.0],
        ]
    )
    E = tx @ R_rel
    return np.linalg.inv(cal_j.K).T @ E @ np.linalg.inv(cal_i.K)


def _point_line_distance(x, line):
    n = np.hypot(line[0], line[1])
    if n < 1e-15:
        return np.inf
    return abs(float(np.dot(x, line))) / n


def epipolar_distance(x_i, x_j, F):
    """Symmetric point-to-epipolar-line distance in pixels.

    Inputs are homogeneous pixel coordinates (3-vectors or (u, v) pairs).
    Returns +inf when an epipolar line is numerically null.
    """
    x_i = np.asarray(x_i, dtype=float)
    x_j = np.asarray(x_j, dtype=float)
    if x_i.shape[0] == 2:
        x_i = np.append(x_i, 1.0)
    if x_j.shape[0] == 2:
        x_j = np.append(x_j, 1.0)
    d_j = _point_line_distance(x_j, F @ x_i)
    d_i = _point_line_distance(x_i, F.T @ x_j)
    return 0.5 * (d_j + d_i)


def _dlt_pair(cal_a, uv_a, cal_b, uv_b):
    rows = []
    for cal, (u, v) in ((cal_a, uv_a), (cal_b, uv_b)):
        P = cal.K @ cal.T_cw[:3, :]
        rows.append(u * P[2] - P[0])
        rows.append(v * P[2] - P[1])
    A = np.stack(rows)
    _, _, vt = np.linalg.svd(A)
    X = vt[-1]
    if abs(X[3]) < 1e-15:
        raise IllConditioned("DLT returned a point at infinity")
    return X[:3] / X[3]


def triangulate_weighted(obs, init_hint=None, max_iter=50, step_tol=1e-8):
    """Weighted nonlinear triangulation.

    obs: list of (CameraCalibration, (u, v), weight) with weight >= 0.
    Minimizes sum_i w_i * ||pi_i(X) - u_i||^2 by damped Gauss-Newton,
    initialized from a DLT on the camera pair with the largest baseline
    (unless init_hint is given). Returns (X, mean reprojection error px),
    the error being the unweighted mean over the used views.
    """
    used = [(cal, np.asarray(uv, dtype=float), float(w)) for cal, uv, w in obs if w > 0]
    if len(used) < 2:
        raise InsufficientViews(f"{len(used)} observations with positive weight")

    if init_hint is not None:
        X = np.asarray(init_hint, dtype=float).copy()
    else:
        best = None
        for a in range(len(used)):
            for b in range(a + 1, len(used)):
                base = np.linalg.norm(used[a][0].center - used[b][0].center)
                if best is None or base > best[0]:
                    best = (base, a, b)
        if best[0] < 1e-9:
            raise IllConditioned("all camera centers coincide")
        _, a, b = best
        X = _dlt_pair(used[a][0], used[a][1], used[b][0], used[b][1])

    sw = np.array([np.sqrt(w) for _, _, w in used])

    def residual_jacobian(X):
        r = np.empty(2 * len(used))
        J = np.empty((2 * len(used), 3))
        for i, (cal, uv, _) in enumerate(used):
            pc = cal.world_to_camera(X)
            z = pc[2]
            if z <= 1e-6:
                # Push the solution back in front of the camera via a huge residual.
                z = 1e-6
            R = cal.R
            u = cal.fx * pc[0] / z + cal.cx
            v = cal.fy * pc[1] / z + cal.cy
            r[2 * i] = sw[i] * (u - uv[0])
            r[2 * i + 1] = sw[i] * (v - uv[1])
            J[2 * i] = sw[i] * cal.fx * (R[0] * z - pc[0] * R[2]) / (z * z)
            J[2 * i + 1] = sw[i] * cal.fy * (R[1] * z - pc[1] * R[2]) / (z * z)
        return r, J

    r, J = residual_jacobian(X)
    cost = float(r @ r)
    lam = 1e-6
    for _ in range(max_iter):
        H = J.T @ J
        # Near-parallel rays leave the depth direction unconstrained.
        if np.linalg.cond(H) > 1e14:
            raise IllConditioned("triangulation normal equations are ill-conditioned")
        g = J.T @ r
        improved = False
        for _ in range(8):
            try:
                step = np.linalg.solve(H + lam * np.diag(np.diag(H)), -g)
            except np.linalg.LinAlgError:
                raise IllConditioned("singular normal equations")
            r_new, J_new = residual_jacobian(X + step)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                X = X + step
                r, J, cost = r_new, J_new, cost_new
                lam = max(lam * 0.3, 1e-12)
                improved = True
                break
            lam *= 10.0
        if not improved or np.linalg.norm(step) < step_tol:
            break

    errs = []
    for cal, uv, _ in used:
        pc = cal.world_to_camera(X)
        z = max(pc[2], 1e-6)
        errs.append(
            np.hypot(cal.fx * pc[0] / z + cal.cx - uv[0], cal.fy * pc[1] / z + cal.cy - uv[1])
        )
    return X, float(np.mean(errs))


@dataclass
class Sim3:
    """3D similarity transform x -> scale * R @ x + t."""

    scale: float
    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        _check_rotation(self.R)

    def apply(self, points):
        return self.scale * (np.asarray(points, dtype=float) @ self.R.T) + self.t

    def inverse(self):
        Rinv = self.R.T
        return Sim3(1.0 / self.scale, Rinv, -Rinv @ self.t / self.scale)


@dataclass
class Sim3FitReport:
    transform: Sim3
    inlier_count: int
    rms_inliers: float  # meters; the per-hand reliability residual
    iterations: int


@dataclass
class Sim3RansacConfig:
    iterations: int = 256
    inlier_threshold: float = 0.015  # meters
    min_inliers: int | None = None  # default max(20, 10% of correspondences)


def umeyama(src, dst):
    """Closed-form least-squares similarity transform mapping src onto dst.

    Centroid alignment + SVD of the cross-covariance, scale from the
    variance ratio, with a reflection guard on the smallest singular vector.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    ds = src - mu_s
    dd = dst - mu_d
    cov = dd.T @ ds / len(src)
    U, S, Vt = np.linalg.svd(cov)
    sign = np.ones(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        sign[-1] = -1.0
    R = U @ np.diag(sign) @ Vt
    var_s = (ds * ds).sum() / len(src)
    if var_s < 1e-18:
        raise TooFewCorrespondences("source points are coincident")
    scale = float((S * sign).sum() / var_s)
    if scale <= 0:
        raise IllConditioned("non-positive scale in similarity fit")
    t = mu_d - scale * R @ mu_s
    return Sim3(scale, R, t)


def _collinear(p):
    v1 = p[1] - p[0]
    v2 = p[2] - p[0]
    return np.linalg.norm(np.cross(v1, v2)) < 1e-12


def fit_sim3_ransac(src, dst, cfg: Sim3RansacConfig | None = None, rng=None):
    """RANSAC similarity registration of src (model) onto dst (observed).

    Samples minimal 3-point sets, scores by residual < inlier_threshold,
    and refits on the best consensus set. rms_inliers is the RMS residual
    of the refit over its inlier set.
    """
    cfg = cfg or Sim3RansacConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    n = len(src)
    if n < 3 or len(dst) != n:
        raise TooFewCorrespondences(f"need >=3 matched correspondences, got {n}")
    min_inliers = cfg.min_inliers if cfg.min_inliers is not None else max(20, int(0.1 * n))

    best_mask = None
    best_count = -1
    iters_done = 0
    for _ in range(cfg.iterations):
        iters_done += 1
        idx = rng.choice(n, size=3, replace=False)
        if _collinear(src[idx]) or _collinear(dst[idx]):
            continue  # degenerate sample, skipped internally
        try:
            model = umeyama(src[idx], dst[idx])
        except (TooFewCorrespondences, IllConditioned):
            continue
        resid = np.linalg.norm(model.apply(src) - dst, axis=1)
        mask = resid < cfg.inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask

    if best_mask is None or best_count < max(3, min_inliers):
        raise NoConsensus(f"best consensus {max(best_count, 0)} < min_inliers {min_inliers}")

    transform = umeyama(src[best_mask], dst[best_mask])
    resid = np.linalg.norm(transform.apply(src[best_mask]) - dst[best_mask], axis=1)
    return Sim3FitReport(
        transform=transform,
        inlier_count=best_count,
        rms_inliers=float(np.sqrt(np.mean(resid**2))) if len(resid) else 0.0,
        iterations=iters_done,
    )


_BIG = 1e15


def _solve_augmented(A):
    rows, cols = linear_sum_assignment(A)
    return float(A[rows, cols].sum()), list(zip(rows.tolist(), cols.tolist()))


def hungarian_assign(cost, max_cost):
    """Gated min-cost one-to-one assignment.

    Entries >= max_cost are never matched; leaving a row or column
    unmatched incurs max_cost. Among equal-cost optima the (row, col)
    lexicographically smallest matching is returned.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    m, n = cost.shape
    if not np.isfinite(max_cost):
        # Everything is allowed: plain rectangular assignment.
        max_cost = float(np.nanmax(np.where(np.isfinite(cost), cost, 0.0))) + 1.0
    allowed = np.isfinite(cost) & (cost < max_cost)
    if not allowed.any():
        return []

    A = np.full((m + n, n + m), _BIG)
    A[:m, :n] = np.where(allowed, cost, _BIG)
    A[np.arange(m), n + np.arange(m)] = max_cost
    A[m + np.arange(n), np.arange(n)] = max_cost
    A[m:, n:] = 0.0

    opt, _ = _solve_augmented(A)
    tol = 1e-9 * max(1.0, abs(opt))

    # Fix rows in order to the lexicographically smallest optimal choice.
    fixed = A.copy()
    matches = []
    for r in range(m):
        row = fixed[r].copy()
        choices = [c for c in range(n) if row[c] < _BIG] + [n + r]
        for c in choices:
            fixed[r] = _BIG
            fixed[r, c] = row[c]
            total, _ = _solve_augmented(fixed)
            if total <= opt + tol:
                if c < n:
                    matches.append((r, c))
                break
            fixed[r] = row
    return matches
