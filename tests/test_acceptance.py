"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (to the real stdout, so it survives pytest capture). Dataset
generation and pipeline runs are shared through module-scoped fixtures.
"""

import csv
import itertools
import json
import os
import sys
import time

import numpy as np
import pytest

from contacttrack.cli import main as cli_main
from contacttrack.config import ContactConfig, PipelineConfig
from contacttrack.contact import run_hysteresis
from contacttrack.evaluation import evaluate, match_tracks, mot_metrics
from contacttrack.geometry import (
    Sim3RansacConfig,
    fit_sim3_ransac,
    hungarian_assign,
    project,
    triangulate_weighted,
)
from contacttrack.hand_fusion import dbscan
from contacttrack.io import read_episodes
from contacttrack.pipeline import load_ground_truth, load_track_stream, run_pipeline
from contacttrack.scenes import builtin_scene, induction_lite
from contacttrack.semantic_map import LabeledPointCloud, SemanticCloud, fuse_clouds
from contacttrack.simulator import emit_dataset

from helpers import brute_force_assign, make_ring, random_rotation


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def report(criterion, ok, detail):
    line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _run(ds, out, stitch=True):
    t0 = time.time()
    summary = run_pipeline(
        os.path.join(ds, "calibration.json"), ds, out,
        PipelineConfig(static_map=True), stitch=stitch,
    )
    return summary, time.time() - t0


def _score(ds, out):
    gt = load_ground_truth(ds)
    pred = load_track_stream(os.path.join(out, "tracks.jsonl"))
    corr = match_tracks(pred, gt.tracks)
    idf1, idsw, _ = mot_metrics(corr, pred, gt.tracks)
    errs = []
    for f, pairs in corr.items():
        for gid, pid in pairs.items():
            pj, pa = pred[f][pid]
            gj, ga = gt.tracks[f][gid]
            m = pa & ga
            if m.any():
                errs.append(np.linalg.norm(pj[m] - gj[m], axis=1).mean())
    n_ids = len({tid for fr in pred.values() for tid in fr})
    return gt, pred, idf1, idsw, float(np.mean(errs)), n_ids


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="module")
def crossing_clean_run(bench_dir):
    ds = str(bench_dir / "crossing_clean")
    out = str(bench_dir / "crossing_clean_run")
    t0 = time.time()
    emit_dataset(builtin_scene("crossing-clean"), ds, seed=0)
    sim_time = time.time() - t0
    summary, run_time = _run(ds, out)
    return {"ds": ds, "out": out, "time": sim_time + run_time, "summary": summary}


@pytest.fixture(scope="module")
def crossing_noisy_runs(bench_dir):
    ds = str(bench_dir / "crossing_noisy")
    emit_dataset(builtin_scene("crossing-noisy"), ds, seed=0)
    out_on = str(bench_dir / "crossing_noisy_run")
    out_off = str(bench_dir / "crossing_noisy_run_nostitch")
    s_on, _ = _run(ds, out_on, stitch=True)
    s_off, _ = _run(ds, out_off, stitch=False)
    return {"ds": ds, "on": out_on, "off": out_off, "s_on": s_on, "s_off": s_off}


@pytest.fixture(scope="module")
def induction_runs(bench_dir):
    out = {}
    total = 0.0
    for tag, name in [("clean", "induction-lite"), ("noisy", "induction-lite-noisy")]:
        ds = str(bench_dir / f"induction_{tag}")
        run_dir = str(bench_dir / f"induction_{tag}_run")
        t0 = time.time()
        emit_dataset(builtin_scene(name), ds, seed=0)
        summary, run_time = _run(ds, run_dir)
        total += time.time() - t0
        out[tag] = {"ds": ds, "out": run_dir, "summary": summary}
    out["time"] = total
    return out


# -- criterion 1: kernel oracle equivalence ---------------------------------

def naive_dbscan_partition(points, eps, min_pts):
    n = len(points)
    d = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    core = (d <= eps).sum(axis=1) >= min_pts
    labels = np.full(n, -1)
    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        stack = [i]
        labels[i] = cluster
        while stack:
            j = stack.pop()
            if not core[j]:
                continue
            for k in np.flatnonzero(d[j] <= eps):
                if labels[k] == -1:
                    labels[k] = cluster
                    stack.append(k)
        cluster += 1
    parts = [frozenset(np.flatnonzero(labels == c)) for c in range(cluster)]
    parts += [frozenset([i]) for i in np.flatnonzero(labels == -1)]
    return frozenset(parts)


def idf1_oracle(overlap, gt_total, pred_total):
    """Best IDTP over all injective gt-to-pred id mappings, by enumeration."""
    gt_ids = sorted({g for g, _ in overlap})
    pred_ids = sorted({p for _, p in overlap})
    best = 0
    for k in range(min(len(gt_ids), len(pred_ids)) + 1):
        for gs in itertools.combinations(gt_ids, k):
            for ps in itertools.permutations(pred_ids, k):
                tp = sum(overlap.get((g, p), 0) for g, p in zip(gs, ps))
                best = max(best, tp)
    denom = 2 * best + (pred_total - best) + (gt_total - best)
    return (2 * best / denom) if denom else 1.0


def test_criterion_1_kernel_oracles():
    rng = np.random.default_rng(11)
    t0 = time.time()

    for _ in range(1000):
        m, n = rng.integers(1, 8, size=2)
        cost = rng.uniform(0, 1, size=(m, n))
        cost[rng.random(size=(m, n)) < 0.1] = np.inf
        max_cost = float(rng.uniform(0.2, 1.2))
        got = sorted(hungarian_assign(cost, max_cost))
        want, _ = brute_force_assign(cost, max_cost)
        assert got == want

    for _ in range(200):
        n = int(rng.integers(1, 201))
        pts = rng.uniform(0, 1, size=(n, 3))
        eps = float(rng.uniform(0.05, 0.3))
        min_pts = int(rng.integers(1, 5))
        labels = dbscan(pts, eps, min_pts)
        got = frozenset(
            frozenset(np.flatnonzero(labels == c)) for c in range(labels.max() + 1)
        )
        assert got == naive_dbscan_partition(pts, eps, min_pts)

    pts = rng.uniform(0, 5, size=(10000, 3))
    labels = rng.integers(1, 6, size=10000)
    cloud = SemanticCloud(0, 0.01, pts, labels, {i: f"s{i}" for i in range(1, 6)})
    queries = rng.uniform(0, 5, size=(1000, 3))
    for q in queries:
        hit = cloud.nearest(q)
        d = np.linalg.norm(pts - q, axis=1)
        i = int(np.argmin(d))
        assert hit.index == i
        assert hit.distance == pytest.approx(d[i], abs=1e-12)
        assert hit.label == labels[i]

    for _ in range(100):
        n_g, n_p = rng.integers(1, 5, size=2)
        gt_stream, pred_stream, corr = {}, {}, {}
        for f in range(20):
            gt_here = [g for g in range(n_g) if rng.random() < 0.8]
            pred_here = [p for p in range(n_p) if rng.random() < 0.8]
            gt_stream[f] = {g: None for g in gt_here}
            pred_stream[f] = {p: None for p in pred_here}
            pool = list(pred_here)
            pairs = {}
            for g in gt_here:
                if pool and rng.random() < 0.7:
                    p = pool.pop(int(rng.integers(len(pool))))
                    pairs[g] = p
            corr[f] = pairs
        idf1, _, _ = mot_metrics(corr, pred_stream, gt_stream)
        overlap = {}
        for pairs in corr.values():
            for g, p in pairs.items():
                overlap[(g, p)] = overlap.get((g, p), 0) + 1
        want = idf1_oracle(
            overlap,
            sum(len(v) for v in gt_stream.values()),
            sum(len(v) for v in pred_stream.values()),
        )
        assert idf1 == pytest.approx(want, abs=1e-12)

    elapsed = time.time() - t0
    report(1, elapsed < 60,
           f"kernel oracles exact (hungarian/dbscan/nearest/idf1), {elapsed:.1f}s")


# -- criterion 2: triangulation ---------------------------------------------

def _reproj_cost(obs, X):
    total = 0.0
    for cal, uv, w in obs:
        total += w * float(np.sum((project(X, cal) - uv) ** 2))
    return total


def test_criterion_2_triangulation():
    rng = np.random.default_rng(7)
    cams = make_ring(4)

    worst = 0.0
    for _ in range(50):
        X = rng.uniform(-0.5, 0.5, size=3) + [0, 0, 1.0]
        obs = [(c, project(X, c), 1.0) for c in cams]
        Xh, _ = triangulate_weighted(obs)
        worst = max(worst, float(np.linalg.norm(Xh - X)))
    assert worst < 1e-6

    ok_cost = True
    for _ in range(20):
        X = rng.uniform(-0.5, 0.5, size=3) + [0, 0, 1.0]
        obs = [
            (c, project(X, c) + rng.normal(0, 1.0, size=2), float(rng.uniform(0.5, 2.0)))
            for c in cams
        ]
        Xh, _ = triangulate_weighted(obs)
        center, half = X.copy(), 0.05
        best = np.inf
        for _ in range(6):
            axis = np.linspace(-half, half, 11)
            gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
            grid = center + np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
            costs = [_reproj_cost(obs, g) for g in grid]
            j = int(np.argmin(costs))
            best = min(best, costs[j])
            center, half = grid[j], half / 4
        ok_cost &= _reproj_cost(obs, Xh) <= best + 1e-6

        Xs, _ = triangulate_weighted([(c, uv, 3.7 * w) for c, uv, w in obs])
        ok_cost &= float(np.linalg.norm(Xs - Xh)) < 1e-9

    report(2, worst < 1e-6 and ok_cost,
           f"noiseless err {worst:.2e} m, noisy cost <= grid oracle, weight-scale invariant")


# -- criterion 3: Sim(3) RANSAC ---------------------------------------------

def test_criterion_3_sim3_ransac():
    rng = np.random.default_rng(3)
    t0 = time.time()
    good = 0
    for trial in range(100):
        R = random_rotation(rng)
        s = float(rng.uniform(0.5, 2.0))
        t = rng.uniform(-1, 1, size=3)
        src = rng.uniform(-0.2, 0.2, size=(200, 3))
        dst = (s * (R @ src.T)).T + t
        n_out = 60
        dst[:n_out] += rng.uniform(0.05, 0.5, size=(n_out, 3)) * rng.choice(
            [-1, 1], size=(n_out, 3)
        )
        fit = fit_sim3_ransac(
            src, dst, Sim3RansacConfig(inlier_threshold=0.01),
            rng=np.random.default_rng(1000 + trial),
        )
        ds = abs(fit.transform.scale - s) / s
        cosang = (np.trace(fit.transform.R.T @ R) - 1) / 2
        ang = np.degrees(np.arccos(np.clip(cosang, -1, 1)))
        dt = np.linalg.norm(fit.transform.t - t)
        if ds < 1e-3 and ang < 0.1 and dt < 1e-3:
            good += 1
    elapsed = time.time() - t0
    report(3, good >= 99 and elapsed < 30,
           f"sim3 ransac {good}/100 trials within tolerance, {elapsed:.1f}s")


# -- criteria 4-5: tracking end to end ----------------------------------------

def test_criterion_4_tracking_noiseless(crossing_clean_run):
    r = crossing_clean_run
    _, _, idf1, idsw, err, _ = _score(r["ds"], r["out"])
    ok = idf1 >= 0.99 and idsw == 0 and err < 0.005 and r["time"] < 120
    report(4, ok,
           f"clean tracking idf1={idf1:.4f} idsw={idsw} err={err*1000:.2f}mm "
           f"{r['time']:.0f}s")


def test_criterion_5_tracking_noisy(crossing_noisy_runs):
    r = crossing_noisy_runs
    _, _, idf1, idsw, _, ids_on = _score(r["ds"], r["on"])
    _, _, _, _, _, ids_off = _score(r["ds"], r["off"])
    ok = idf1 >= 0.90 and idsw <= 2 and ids_off > ids_on
    report(5, ok,
           f"noisy tracking idf1={idf1:.4f} idsw={idsw}, "
           f"fragments {ids_off} unstitched > {ids_on} stitched")


# -- criterion 6: contact end to end ------------------------------------------

def test_criterion_6_contact(induction_runs):
    reps = {}
    for tag in ("clean", "noisy"):
        r = induction_runs[tag]
        gt = load_ground_truth(r["ds"])
        pred = load_track_stream(os.path.join(r["out"], "tracks.jsonl"))
        eps = read_episodes(os.path.join(r["out"], "episodes.csv"))
        reps[tag] = evaluate(pred, eps, gt)
    c, n = reps["clean"], reps["noisy"]
    ok = (
        c.detected_episodes == 12 and c.gt_episodes == 12
        and c.binary_f1 >= 0.98 and c.semantic_f1 >= 0.95
        and c.identity_accuracy == 1.0
        and n.episode_recall >= 0.9 and n.binary_f1 >= 0.90
        and induction_runs["time"] < 180
    )
    report(6, ok,
           f"contact clean recall {c.detected_episodes}/12 f1={c.binary_f1:.4f} "
           f"sem={c.semantic_f1:.4f} id={c.identity_accuracy:.2f}; "
           f"noisy recall={n.episode_recall:.2f} f1={n.binary_f1:.4f}; "
           f"{induction_runs['time']:.0f}s")


# -- criterion 7: hysteresis oracle -------------------------------------------

def oracle_fsm(distances, tau_on, tau_off):
    out = []
    active = False
    for d in distances:
        if not active and d < tau_on:
            active = True
        elif active and d > tau_off:
            active = False
        out.append(active)
    return out


def test_criterion_7_hysteresis_oracle():
    rng = np.random.default_rng(77)
    tau_on, tau_off = 0.12, 0.15
    specials = np.array([tau_on, tau_off, 0.12 + 1e-15, 0.15 - 1e-15, 0.135])
    for _ in range(100000):
        k = int(rng.integers(1, 12))
        d = rng.uniform(0.0, 0.3, size=k)
        pick = rng.random(k) < 0.3
        d[pick] = specials[rng.integers(len(specials), size=int(pick.sum()))]
        got = run_hysteresis(d, tau_on, tau_off)
        assert got.tolist() == oracle_fsm(d, tau_on, tau_off)
    report(7, True, "hysteresis equals FSM oracle on 100000 sequences "
                    "(boundary rules included)")


# -- criterion 8: threshold sweep ---------------------------------------------

def test_criterion_8_threshold_sweep(induction_runs, bench_dir):
    r = induction_runs["clean"]
    out_csv = str(bench_dir / "sweep.csv")
    code = cli_main([
        "sweep", "--in", r["out"], "--gt", r["ds"],
        "--grid", "0.02:0.40:0.02", "--out", out_csv,
    ])
    assert code == 0
    with open(out_csv) as f:
        rows = list(csv.DictReader(f))
    f1 = {float(row["tau_on"]): float(row["binary_f1"]) for row in rows}
    ok = len(rows) == 20 and f1[0.12] >= f1[0.02] and f1[0.12] >= f1[0.40]
    report(8, ok,
           f"sweep 20 rows, f1@0.12={f1[0.12]:.4f} >= "
           f"f1@0.02={f1[0.02]:.4f}, f1@0.40={f1[0.40]:.4f}")


# -- criterion 9: determinism -------------------------------------------------

def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def test_criterion_9_determinism(bench_dir):
    scene_path = str(bench_dir / "mini_scene.json")
    with open(scene_path, "w") as f:
        json.dump(induction_lite(frame_count=150), f)
    pairs = []
    for rep in ("a", "b"):
        ds = str(bench_dir / f"det_{rep}")
        run_dir = str(bench_dir / f"det_{rep}_run")
        ev = str(bench_dir / f"det_{rep}_eval")
        assert cli_main(["simulate", "--scene", scene_path, "--out", ds,
                         "--seed", "5"]) == 0
        assert cli_main(["run", "--calib", os.path.join(ds, "calibration.json"),
                         "--in", ds, "--out", run_dir, "--static-map"]) == 0
        assert cli_main(["evaluate", "--pred", run_dir, "--gt", ds,
                         "--out", ev]) == 0
        pairs.append((_tree_bytes(ds), _tree_bytes(run_dir), _tree_bytes(ev)))
    ok = pairs[0] == pairs[1]
    n_files = sum(len(p) for p in pairs[0])
    report(9, ok, f"simulate+run+evaluate byte-identical across reruns "
                  f"({n_files} files)")


# -- criterion 10: semantic voxel fusion --------------------------------------

def test_criterion_10_voxel_fusion_fixture():
    rng = np.random.default_rng(10)
    voxel = 0.01
    # 50 points across two partially overlapping camera clouds.
    base = rng.uniform(0, 0.1, size=(25, 3))
    pts_a = np.vstack([base, rng.uniform(0, 0.1, size=(5, 3))])
    pts_b = np.vstack([base + rng.uniform(-2e-4, 2e-4, size=(25, 3)),
                       rng.uniform(0.2, 0.3, size=(20, 3))])
    lab_a = rng.integers(1, 4, size=30)
    lab_b = rng.integers(1, 4, size=45)
    table = {1: "a", 2: "b", 3: "c"}
    cloud = fuse_clouds(
        [LabeledPointCloud(pts_a, lab_a, "cam0"),
         LabeledPointCloud(pts_b, lab_b, "cam1")],
        voxel, table,
    )

    # Hand-computed oracle: dict-based voxel grouping, majority label with
    # smallest-id tie break, centroid of winning-label members.
    pts = np.vstack([pts_a, pts_b])
    labs = np.concatenate([lab_a, lab_b])
    groups = {}
    for p, l in zip(pts, labs):
        key = tuple(np.floor(p / voxel).astype(int))
        groups.setdefault(key, []).append((p, int(l)))
    want = {}
    for key, members in groups.items():
        counts = {}
        for _, l in members:
            counts[l] = counts.get(l, 0) + 1
        lab = min(counts, key=lambda l: (-counts[l], l))
        sel = np.array([p for p, l in members if l == lab])
        want[key] = (lab, sel.mean(axis=0))

    got = {
        tuple(np.floor(p / voxel).astype(int)): (int(l), p)
        for p, l in zip(cloud.positions, cloud.labels)
    }
    ok = len(cloud) == len(want) and set(got) == set(want)
    if ok:
        for key in want:
            wl, wp = want[key]
            gl, gp = got[key]
            ok &= gl == wl and np.allclose(gp, wp, atol=1e-12)
    report(10, ok, f"voxel fusion at 10mm: {len(cloud)} voxels match "
                   "hand-computed oracle exactly")
