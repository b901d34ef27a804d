"""Camera models and shared numeric kernels.

Pinhole cameras (rectified, no lens distortion), projection and
back-projection, epipolar tests, weighted nonlinear triangulation,
robust similarity-transform registration, and gated linear assignment.

epipolar_distance takes stacked pixel pairs. triangulate_weighted takes
one point or a stack of independent problems: it solves P points over
the V cameras they share in one Levenberg-Marquardt kernel, each problem
with its own damping and view order, and gives each the result it would
get alone, bit for bit, whatever BLAS numpy links: the kernel forms every
product elementwise and adds every sum in a fixed order, and solves its
3x3 steps in closed form. Each iteration makes one damped try per
problem, and a problem stops at the first step, accepted or rejected,
below GN_STEP_TOL: below it the cost moves by rounding noise only. Its
conditioning gate bounds cond(J^T J) in closed form and takes an SVD only
for the rows the bound cannot decide. A failing problem comes back as a
NaN row (and NaN error) in the batch form; the single-point form raises
InsufficientViews or IllConditioned instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContactTrackError

_ROT_TOL = 1e-9
# Levenberg-Marquardt stopping: at most GN_MAX_ITER tries, or a step below
# GN_STEP_TOL (m).
GN_MAX_ITER = 50
GN_STEP_TOL = 1e-8


class InsufficientViews(ContactTrackError):
    pass


class IllConditioned(ContactTrackError):
    pass


class TooFewCorrespondences(ContactTrackError):
    pass


class NoConsensus(ContactTrackError):
    pass


def _check_rotation(R):
    # Written as "not below" so that a NaN entry fails too.
    if not np.linalg.norm(R.T @ R - np.eye(3)) < _ROT_TOL * 10 + 1e-12:
        raise ValueError("rotation block is not orthonormal")
    if not abs(np.linalg.det(R) - 1.0) < _ROT_TOL * 10 + 1e-12:
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
        if not isinstance(self.camera_id, str):
            raise TypeError(f"camera_id must be a string, got {type(self.camera_id).__name__}")
        self.T_cw = np.asarray(self.T_cw, dtype=float)
        if self.T_cw.shape != (4, 4):
            raise ValueError("T_cw must be 4x4")
        if not np.isfinite(self.T_cw).all():
            raise ValueError("T_cw must be finite")
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError("focal lengths must be finite and positive")
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


def norms(v):
    """Norms of the vectors along the last axis of v, each bit-identical to
    np.linalg.norm of that vector alone (a dot product, where
    norm(axis=-1) sums squares)."""
    return np.sqrt(np.vecdot(v, v))


def project_cameras(points, cals):
    """Points (N, 3) projected into every camera of cals in one stacked
    pass: (uv (C, N, 2), valid (C, N)), valid=False behind a camera. Each
    camera's rows are the bits world_to_camera and the pinhole give it
    alone."""
    points = np.asarray(points, dtype=float)
    R = np.stack([cal.R for cal in cals])
    t = np.stack([cal.t for cal in cals])
    fx, fy, cx, cy = (np.array([[getattr(cal, k)] for cal in cals])
                      for k in ("fx", "fy", "cx", "cy"))
    pc = points @ R.transpose(0, 2, 1) + t[:, None]
    z = pc[..., 2]
    valid = z > 1e-6
    zsafe = np.where(valid, z, 1.0)
    uv = np.stack([fx * pc[..., 0] / zsafe + cx, fy * pc[..., 1] / zsafe + cy], axis=-1)
    return uv, valid


def cameras_to_world(points, cals):
    """Points (H, P, 3), each row in the frame of its own camera, moved to
    the world frame in one stacked pass: row h is camera_to_world of
    cals[h] applied to points[h]."""
    R = np.stack([cal.R for cal in cals])
    t = np.stack([cal.t for cal in cals])
    return (np.asarray(points, dtype=float) - t[:, None]) @ R


def fundamental_matrix(cal_i: CameraCalibration, cal_j: CameraCalibration):
    """Fundamental matrix F such that x_j^T F x_i = 0 for projections of a
    common point. The camera centres must differ, which read_calibration
    checks for every pair of a calibration file."""
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


def _row_dots(a, b):
    """Dot products of matching rows of a and b (K, d): (K,)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _point_line_distance(x, lines):
    n = np.hypot(lines[:, 0], lines[:, 1])
    d = np.full(len(x), np.inf)
    return np.divide(np.abs(_row_dots(x, lines)), n, out=d, where=~(n < 1e-15))


def epipolar_distance(x_i, x_j, F):
    """Symmetric point-to-epipolar-line distance in pixels.

    x_i, x_j: K stacked pixel pairs, (K, 2) each. Returns (K,) distances;
    +inf where an epipolar line is numerically null.
    """
    ones = np.ones((len(x_i), 1))
    x_i = np.concatenate([x_i, ones], axis=1)
    x_j = np.concatenate([x_j, ones], axis=1)
    # One matrix-vector product per row, so a row's rounding does not
    # depend on the rows stacked with it.
    d_j = _point_line_distance(x_j, (F @ x_i[:, :, None])[:, :, 0])
    d_i = _point_line_distance(x_i, (F.T @ x_j[:, :, None])[:, :, 0])
    return 0.5 * (d_j + d_i)


# The triangulation kernel. K (V, 21, A) holds the packed views of A
# problems view-major: per view T_cw's top three rows (12), fx, fy, cx, cy,
# u, v, sqrt(w), sqrt(w) fx and sqrt(w) fy, with a problem's used views
# first in its own order and all-zero padding after them. Products are
# elementwise, a 3-vector sum adds x, y, then z, and a sum over views adds
# one view at a time in view order: np.add.reduce along the leading axis
# of a C-ordered array adds in order when another axis longer than 1
# follows it (along its inner loop numpy sums pairwise from 8 terms).
# Padding adds exact zeros, so a problem gets the bits it gets alone, in
# any batch and under any BLAS.

# The column pairs of _linearize whose products _sums adds: J^T J's upper
# entries H00, H01, H02, H11, H12, H22, then J^T r and r^T r.
_PAIRS = np.array([[0, 0, 0, 1, 1, 2, 0, 1, 2, 3], [0, 1, 2, 1, 2, 2, 3, 3, 3, 3]])
_DIAG = np.array([[1.0], [0.0], [0.0], [1.0], [0.0], [1.0]])
_SYM = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])  # upper entries -> 3x3, row-major
_COF = np.array([[3, 2, 1, 0, 1, 0], [5, 4, 4, 5, 2, 3],
                 [4, 1, 2, 2, 0, 1], [4, 5, 3, 2, 4, 1]])


def _pack(cals, views, uv, w):
    """K (V, 21, G) of G problems: views (G, V) indexes cals, uv (G, V, 2)
    and w (G, V) hold the views' pixels and weights. A view without a
    positive weight is padding, all zeros."""
    cams = np.array([np.r_[cal.T_cw[:3].ravel(), cal.fx, cal.fy, cal.cx, cal.cy]
                     for cal in cals])[views]
    pad = ~(w > 0)
    sw = np.sqrt(np.where(pad, 0.0, w))[..., None]
    K = np.concatenate([cams, uv, sw, sw * cams[..., 12:14]], axis=-1)
    K[pad] = 0.0
    return np.ascontiguousarray(K.transpose(1, 2, 0))


def _dot3(p, q):
    """Dot products of the 3-vectors along the first axis of p and q."""
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _camera_points(X, K):
    """Points X (3, A) in each problem's packed camera frames: (V, 3, A)."""
    T = K[:, :12].reshape(len(K), 3, 4, -1)
    return T[:, :, 0] * X[0] + T[:, :, 1] * X[1] + T[:, :, 2] * X[2] + T[:, :, 3]


def _linearize(X, K):
    """(V, 2, 4, A): per view, for the u and the v row, the weighted
    residual's derivatives in x, y and z, then the residual, at X (3, A)."""
    pc = _camera_points(X, K)
    # Push points behind a camera back in front via a huge residual.
    z = np.maximum(pc[:, 2:], 1e-6)
    T = K[:, :12].reshape(len(K), 3, 4, -1)
    L = np.empty((len(K), 2, 4, K.shape[-1]))
    np.multiply(K[:, 18:19], K[:, 12:14] * pc[:, :2] / z + K[:, 14:16] - K[:, 16:18],
                out=L[:, :, 3])
    np.multiply(K[:, 19:21, None], T[:, :2, :3] * z[:, :, None] - pc[:, :2, None] * T[:, 2:, :3],
                out=L[:, :, :3])
    L[:, :, :3] /= (z * z)[:, :, None]
    return L


def _sums(L):
    """(10, A) sums over L's rows, u then v of each view in view order, of
    the products of its _PAIRS columns (np.take keeps them C-ordered)."""
    L = L.reshape(2 * len(L), 4, L.shape[-1])
    return np.add.reduce(np.take(L, _PAIRS[0], 1) * np.take(L, _PAIRS[1], 1), axis=0)


def _adjugate(m):
    """Adjugates (6, A) and determinants (A,) of symmetric 3x3 matrices
    given by their upper entries m (6, A): H00, H01, H02, H11, H12, H22."""
    c = m[_COF]
    adj = c[0] * c[1] - c[2] * c[3]
    return adj, m[0] * adj[0] + m[1] * adj[1] + m[2] * adj[2]


def _ill_conditioned(m):
    """cond(H) > 1e14 for each symmetric positive semi-definite H, given by
    its upper entries m (6, A), bit for bit as np.linalg.cond gives it.

    cond(H) = lmax / lmin <= tr(H)^3 / det(H), so a row with a finite
    det(H) >= 1e-12 tr(H)^3 has a condition number of at most about 1e12
    and needs no SVD. det comes from the cofactors, whose absolute error
    is a few ulp times tr(H)^3, far below that 1e-12 tr(H)^3 margin, so
    the bound decides only rows the SVD would pass. Only the other rows
    (singular, near-singular or non-finite) go to np.linalg.cond, which
    takes one SVD per matrix, so each gets the value it would get in any
    batch.
    """
    det = _adjugate(m)[1]
    sure = ((m[0] + m[3] + m[5]) ** 3 <= 1e12 * det) & np.isfinite(det)
    ill = np.zeros(len(det), dtype=bool)
    doubt = np.flatnonzero(~sure)
    if doubt.size:
        ill[doubt] = np.linalg.cond(m[_SYM][:, doubt].T.reshape(-1, 3, 3)) > 1e14
    return ill


def _midpoints(K, n):
    """Start points (3, G): for each problem, the midpoint of the shortest
    segment between the rays through its pixels in the used camera pair
    with the widest baseline, the first such pair on ties (Hartley &
    Sturm, CVIU 1997). NaN where the pair's centres lie within 1e-9 m of
    each other or the rays are parallel. n (G,): used views per problem."""
    V, G = len(K), K.shape[-1]
    T = K[:, :12].reshape(V, 3, 4, G).transpose(1, 2, 0, 3)
    with np.errstate(all="ignore"):  # padding views and parallel rays
        o = -(T[0, :3] * T[0, 3] + T[1, :3] * T[1, 3] + T[2, :3] * T[2, 3])
        d = (T[0, :3] * ((K[:, 16] - K[:, 14]) / K[:, 12])
             + T[1, :3] * ((K[:, 17] - K[:, 15]) / K[:, 13]) + T[2, :3])
        pa, pb = np.triu_indices(V, 1)
        gap = o[:, pa] - o[:, pb]
        spans = np.where(pb[:, None] < n, _dot3(gap, gap), -np.inf)
        best = np.argmax(spans, axis=0)
        g = np.arange(G)
        o1, d1, o2, d2 = o[:, pa[best], g], d[:, pa[best], g], o[:, pb[best], g], d[:, pb[best], g]
        w = o1 - o2
        a, b, c, p, q = _dot3(d1, d1), _dot3(d1, d2), _dot3(d2, d2), _dot3(d1, w), _dot3(d2, w)
        den = a * c - b * b
        X = 0.5 * ((o1 + (b * q - c * p) / den * d1) + (o2 + (a * q - b * p) / den * d2))
    bad = (spans[best, g] < 1e-18) | ~np.isfinite(X).all(axis=0)
    return np.where(bad, np.nan, X)


def _gauss_newton(K, n, X):
    """Levenberg-Marquardt for G problems, each over its n used views.

    K (V, 21, G) holds each problem's packed views (see _pack). Each
    iteration makes one try per active problem: the step s solves
    (H + lam diag(H)) s = -g in closed form. A step that does not raise
    the cost is accepted and sets lam = max(0.3 lam, 1e-12); a rejected
    step leaves X as it is and multiplies lam by 10. A problem stops at a
    step below GN_STEP_TOL, accepted or rejected, or after GN_MAX_ITER
    tries; the active arrays shrink only when a problem stops or fails.
    X (3, G) holds the start points, NaN columns for problems already
    failed. Returns (X (G, 3), err (G,)) with NaN rows for failed problems.
    """
    failed = np.isnan(X).any(axis=0)
    X = X.copy()
    act = np.flatnonzero(~failed)
    Ka, Xa, lam = K[:, :, act], X[:, act], np.full(act.size, 1e-6)
    S = _sums(_linearize(Xa, Ka))
    for _ in range(GN_MAX_ITER):
        # Near-parallel rays leave the depth direction unconstrained.
        ill = _ill_conditioned(S[:6])
        if ill.any():
            failed[act[ill]] = True
            act, Ka, Xa, S, lam = act[~ill], Ka[:, :, ~ill], Xa[:, ~ill], S[..., ~ill], lam[~ill]
        if not act.size:
            break
        # Past the gate H is positive definite, and so is H + lam diag(H).
        # A step below GN_STEP_TOL ends the problem even when it is
        # rejected: the cost then differs by rounding noise, which more
        # damping only polishes.
        adj, den = _adjugate(S[:6] + lam * (S[:6] * _DIAG))
        s = adj[_SYM].reshape(3, 3, -1) * -S[6:9]
        s = (s[:, 0] + s[:, 1] + s[:, 2]) / den
        X_new = Xa + s
        S_new = _sums(_linearize(X_new, Ka))
        ok = S_new[9] <= S[9]
        Xa, S = np.where(ok, X_new, Xa), np.where(ok, S_new, S)
        lam = np.where(ok, np.maximum(lam * 0.3, 1e-12), lam * 10.0)
        go = np.sqrt(_dot3(s, s)) >= GN_STEP_TOL
        if not go.all():
            X[:, act[~go]] = Xa[:, ~go]
            act, Ka, Xa, S, lam = act[go], Ka[:, :, go], Xa[:, go], S[..., go], lam[go]
    X[:, act] = Xa

    pc = _camera_points(X, K)
    e = K[:, 12:14] * pc[:, :2] / np.maximum(pc[:, 2:], 1e-6) + K[:, 14:16] - K[:, 16:18]
    # accumulate, unlike reduce, adds in view order even when G is 1.
    err = np.add.accumulate(np.hypot(e[:, 0], e[:, 1]), axis=0)[-1] / n
    X[:, failed] = np.nan
    err[failed] = np.nan
    return X.T, err


def triangulate_weighted(obs, init_hint=None, order=None):
    """Weighted nonlinear triangulation of one point or of P independent points.

    obs: one (CameraCalibration, uv, w) per camera; uv is (2,) for one
    point or (P, 2) for a batch, w a scalar or (P,) of weights >= 0. A
    zero weight leaves the view out of that problem. init_hint: (3,) or
    (P, 3), NaN rows meaning no hint. order: (P, V), each problem's
    permutation of the V views of obs, in which it packs its used views
    (by default the order of obs). A problem's result depends on its used
    views and their order only, so a batch gives each problem what a call
    with just its views, in that order, gives it.

    Each problem minimizes sum_i w_i * ||pi_i(X) - u_i||^2 over its used
    views by Levenberg-Marquardt with its own damping and stopping (see
    _gauss_newton), starting from its hint or else from the midpoint of
    the rays of its used camera pair with the widest baseline. err is the
    unweighted mean reprojection error in pixels over the used views.

    Batch form (uv (P, 2)): returns X (P, 3) and err (P,). A problem with
    fewer than two positive-weight views, a non-finite used observation,
    ill-conditioned normal equations, parallel start rays or coincident
    camera centres fails alone: its X row and err are NaN. Single-point
    form: returns (X (3,), float err) and raises InsufficientViews or
    IllConditioned instead.
    """
    single = not obs or np.ndim(obs[0][1]) == 1
    if single:
        n_used = sum(1 for _, _, w in obs if w > 0)
        if n_used < 2:
            raise InsufficientViews(f"{n_used} observations with positive weight")
    cals = [cal for cal, _, _ in obs]
    uv = np.stack([np.asarray(u, dtype=float).reshape(-1, 2) for _, u, _ in obs], axis=1)
    P = len(uv)
    w = np.stack([np.broadcast_to(np.asarray(wt, dtype=float), (P,)) for _, _, wt in obs], axis=1)
    hint = (np.full((P, 3), np.nan) if init_hint is None
            else np.array(init_hint, dtype=float).reshape(P, 3))

    used = w > 0
    n_used = used.sum(axis=1)
    finite = np.isfinite(uv).all(axis=2) & np.isfinite(w)
    rows = np.flatnonzero((n_used >= 2) & (finite | ~used).all(axis=1))
    n = n_used[rows]
    order = np.broadcast_to(np.arange(len(obs)) if order is None else order, used.shape)[rows]
    views = np.take_along_axis(order, np.argsort(
        ~np.take_along_axis(used[rows], order, axis=1), axis=1, kind="stable"), axis=1)
    K = _pack(cals, views, uv[rows[:, None], views], w[rows[:, None], views])
    X0 = hint[rows].T
    start = np.isnan(X0).any(axis=0)
    if start.any():
        X0[:, start] = _midpoints(K[:, :, start], n[start])
    X = np.full((P, 3), np.nan)
    err = np.full(P, np.nan)
    X[rows], err[rows] = _gauss_newton(K, n, X0)
    if not single:
        return X, err
    if np.isnan(err[0]):
        raise IllConditioned(
            "triangulation failed: ill-conditioned normal equations, "
            "coincident camera centres or parallel rays at the midpoint start point"
        )
    return X[0], float(err[0])


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


def _min_cost_matching(A):
    """Min-cost perfect matching of a square matrix given as a list of rows.

    Shortest augmenting paths with dual potentials (Jonker & Volgenant,
    Computing 1987): each row in turn is joined by a Dijkstra search over
    reduced costs A[i][j] - u[i] - v[j], which stay >= 0, and the
    potentials are shifted so that every matched edge keeps reduced cost 0.
    Returns (col_of_row, row_of_col, u, v).
    """
    n = len(A)
    inf = float("inf")
    u = [0.0] * n
    v = [0.0] * (n + 1)
    row_of = [-1] * (n + 1)  # column n is the search root
    col_of = [-1] * n
    way = [0] * (n + 1)
    for i in range(n):
        row_of[n] = i
        j0 = n
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = row_of[j0]
            row = A[i0]
            ui = u[i0]
            delta = inf
            j1 = -1
            for j in range(n):
                if not used[j]:
                    cur = row[j] - ui - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if row_of[j0] < 0:
                break
        while j0 != n:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            col_of[row_of[j0]] = j0
            j0 = j1
    return col_of, row_of[:n], u, v


def _gated_components(allowed):
    """(rows, cols) of each connected component of the bipartite graph of
    the allowed entries, a list of rows (lists of bools), that has an
    edge: both index lists ascending, components in order of their first
    row."""
    n = len(allowed[0])
    row_cols = [[j for j in range(n) if row[j]] for row in allowed]
    col_rows = [[] for _ in range(n)]
    for i, cols in enumerate(row_cols):
        for j in cols:
            col_rows[j].append(i)
    row_done, col_done = [False] * len(allowed), [False] * n
    out = []
    for start, cols in enumerate(row_cols):
        if row_done[start] or not cols:
            continue
        row_done[start] = True
        rows, comp_cols = [start], []
        for i in rows:
            for j in row_cols[i]:
                if not col_done[j]:
                    col_done[j] = True
                    comp_cols.append(j)
                    for k in col_rows[j]:
                        if not row_done[k]:
                            row_done[k] = True
                            rows.append(k)
        out.append((sorted(rows), sorted(comp_cols)))
    return out


def _augmented(table, rows, cols, max_cost):
    """The square (m+n) x (n+m) problem of the m rows and n cols of table,
    a list of rows with _BIG where an entry is not allowed, as a list of
    rows: row i may take its own "unmatched" column n+i and column j its
    own "unmatched" row m+j at max_cost, the unmatched rows and columns
    pair up at 0, and every other entry is _BIG."""
    m, n = len(rows), len(cols)
    A = []
    for a, i in enumerate(rows):
        line = [table[i][j] for j in cols] + [_BIG] * m
        line[n + a] = max_cost
        A.append(line)
    for b in range(n):
        line = [_BIG] * n + [0.0] * m
        line[b] = max_cost
        A.append(line)
    return A


def _smallest_tight_matching(A, m, n, solved, eps):
    """The lexicographically smallest optimal matching of the augmented
    problem A of an m x n table, as (row, col) pairs with col < n.

    solved is _min_cost_matching(A). By complementary slackness the optimal
    matchings are exactly the perfect matchings on the tight edges, those
    with reduced cost A[i][j] - u[i] - v[j] <= eps. Rows 0..m-1 are fixed
    in order to their smallest tight choice (real columns in order, then
    n+i) that an alternating cycle of tight edges through the not yet
    fixed rows can swap into the matching.
    """
    col_of, row_of, u, v = solved
    N = m + n

    def tight(i, j):
        return A[i][j] - u[i] - v[j] <= eps

    def swap_cycle(r, c):
        """Make (r, c) a matched edge by an alternating cycle of tight
        edges through rows after r; False if there is none."""
        target = col_of[r]
        start = row_of[c]
        if start < r:
            return False
        reached = {start: None}
        queue = [start]
        for x in queue:
            for y in range(N):
                if y == col_of[x] or not tight(x, y):
                    continue
                if y == target:
                    moves = [(r, c), (x, y)]
                    while reached[x] is not None:
                        x, y = reached[x]
                        moves.append((x, y))
                    for i, j in moves:
                        col_of[i] = j
                        row_of[j] = i
                    return True
                z = row_of[y]
                if z > r and z not in reached:
                    reached[z] = (x, y)
                    queue.append(z)
        return False

    matches = []
    for r in range(m):
        row = A[r]
        for c in [c for c in range(n) if row[c] < _BIG] + [n + r]:
            if c == col_of[r] or (tight(r, c) and swap_cycle(r, c)):
                break
        if col_of[r] < n:
            matches.append((r, col_of[r]))
    return matches


def hungarian_assign(cost, max_cost):
    """Gated min-cost one-to-one assignment.

    Entries >= max_cost are never matched; leaving a row or column
    unmatched incurs max_cost, which must be finite. Among equal-cost
    optima the (row, col) lexicographically smallest matching is returned.

    The allowed entries split the table into connected components, and a
    matching is optimal exactly when its part in every component is
    (Crouse, IEEE TAES 2016), so each component is solved on its own and
    the lexicographically smallest optimum is the union of the
    components' ones. A component of one row and one column is matched
    outright when max_cost >= 0: its entry is below max_cost, so below the
    2 max_cost of leaving both unmatched. Any other component becomes the
    square problem of _augmented, which one shortest-augmenting-path solve
    answers with an optimal matching and dual potentials, and then gets
    its smallest optimum from _smallest_tight_matching. The tightness
    tolerance is the whole table's: 1e-9 max(1, |optimum|) / (m+n), the
    optimum being the sum of the components' optima and max_cost for each
    row and column without an allowed entry.
    """
    if not np.isfinite(max_cost):
        raise ValueError(f"max_cost must be finite, got {max_cost}")
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    m, n = cost.shape
    allowed = np.isfinite(cost) & (cost < max_cost)
    if not allowed.any():
        return []

    table = np.where(allowed, cost, _BIG).tolist()
    opt, matches, problems = 0.0, [], []
    components = _gated_components(allowed.tolist())
    for rows, cols in components:
        if len(rows) == len(cols) == 1 and max_cost >= 0:
            matches.append((rows[0], cols[0]))
            opt += table[rows[0]][cols[0]]
            continue
        A = _augmented(table, rows, cols, max_cost)
        solved = _min_cost_matching(A)
        opt += sum(A[i][j] for i, j in enumerate(solved[0]))
        problems.append((rows, cols, A, solved))
    alone = m + n - sum(len(rows) + len(cols) for rows, cols in components)
    eps = 1e-9 * max(1.0, abs(opt + max_cost * alone)) / (m + n)
    for rows, cols, A, solved in problems:
        matches += [(rows[i], cols[j])
                    for i, j in _smallest_tight_matching(A, len(rows), len(cols), solved, eps)]
    return sorted(matches)
