import json
import os
import shutil
import tempfile
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contacttrack.cli import main
from contacttrack.config import PipelineConfig
from contacttrack.contact import ContactEpisode
from contacttrack.evaluation import (
    GroundTruth,
    contact_metrics,
    evaluate,
    floor_center,
    match_tracks,
    mot_metrics,
    threshold_sweep,
)
from contacttrack.pipeline import run_pipeline
from contacttrack.scenes import induction_lite_noisy
from contacttrack.schema import JOINT_COUNT, TORSO_JOINTS
from contacttrack.simulator import emit_dataset

from helpers import per_key_threshold_sweep


def body(x, y):
    """A minimal person entry: torso joints at (x, y), varied heights."""
    joints = np.zeros((JOINT_COUNT, 3))
    avail = np.zeros(JOINT_COUNT, dtype=bool)
    for k, z in zip(TORSO_JOINTS, (1.45, 1.45, 1.0, 1.0)):
        joints[k] = (x, y, z)
        avail[k] = True
    return joints, avail


def episode(person, side, label, t0, t1, d=0.05):
    return ContactEpisode(
        person_id=person, side=side, surface_label=label,
        t_start=t0, t_stop=t1, contact_point=np.zeros(3), min_distance=d,
    )


class TestFloorCenter:
    def test_mean_of_torso(self):
        joints, avail = body(1.0, 2.0)
        assert np.allclose(floor_center(joints, avail), (1.0, 2.0))

    def test_no_torso_returns_none(self):
        joints = np.zeros((JOINT_COUNT, 3))
        avail = np.zeros(JOINT_COUNT, dtype=bool)
        avail[0] = True
        assert floor_center(joints, avail) is None


class TestMatchTracks:
    def test_identical_streams(self):
        frames = {f: {1: body(0, 0), 2: body(2, 2)} for f in range(5)}
        corr = match_tracks(frames, frames)
        assert all(corr[f] == {1: 1, 2: 2} for f in range(5))

    def test_beyond_radius_unmatched(self):
        gt = {0: {1: body(0, 0)}}
        pred = {0: {7: body(0.25, 0)}}
        assert match_tracks(pred, gt) == {0: {}}

    def test_three_way_matches_permutation_oracle(self):
        rng = np.random.default_rng(5)
        gt_pos = [(0.0, 0.0), (0.5, 0.2), (1.0, -0.3)]
        pred_pos = [(x + rng.normal(0, 0.05), y + rng.normal(0, 0.05)) for x, y in gt_pos]
        gt = {0: {i: body(*p) for i, p in enumerate(gt_pos)}}
        pred = {0: {10 + j: body(*p) for j, p in enumerate(pred_pos)}}
        corr = match_tracks(pred, gt)[0]
        dist = np.array(
            [[np.hypot(g[0] - p[0], g[1] - p[1]) for p in pred_pos] for g in gt_pos]
        )
        best = min(permutations(range(3)), key=lambda m: sum(dist[i, m[i]] for i in range(3)))
        assert corr == {i: 10 + best[i] for i in range(3)}


class TestMotMetrics:
    def test_perfect(self):
        frames = {f: {1: body(0, 0), 2: body(2, 2)} for f in range(20)}
        corr = match_tracks(frames, frames)
        idf1, sw, id_map = mot_metrics(corr, frames, frames)
        assert idf1 == 1.0
        assert sw == 0
        assert id_map == {1: 1, 2: 2}

    def test_half_coverage_closed_form(self):
        gt = {f: {1: body(0, 0)} for f in range(10)}
        pred = {f: {100 if f < 5 else 200: body(0, 0)} for f in range(10)}
        corr = match_tracks(pred, gt)
        idf1, sw, _ = mot_metrics(corr, pred, gt)
        assert idf1 == pytest.approx(0.5)
        assert sw == 1

    def test_switch_only_on_consecutive_frames(self):
        gt = {f: {1: body(0, 0)} for f in (0, 1, 5, 6)}
        pred = {0: {9: body(0, 0)}, 1: {9: body(0, 0)},
                5: {8: body(0, 0)}, 6: {8: body(0, 0)}}
        corr = match_tracks(pred, gt)
        _, sw, _ = mot_metrics(corr, pred, gt)
        assert sw == 0  # id change across the 1..5 gap is not a switch

    def test_matches_bijection_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n_g, n_p, T = 3, 4, 15
            gt = {}
            pred = {}
            corr = {}
            for f in range(T):
                corr[f] = {}
                gt[f] = {}
                pred[f] = {}
                for g in range(n_g):
                    if rng.random() < 0.8:
                        gt[f][g] = body(g, 0)
                for p in range(n_p):
                    if rng.random() < 0.8:
                        pred[f][p] = body(p, 0)
                # Random plausible correspondence among present ids.
                ps = list(pred[f])
                rng.shuffle(ps)
                for g, p in zip(sorted(gt[f]), ps):
                    corr[f][g] = p
            idf1, _, _ = mot_metrics(corr, pred, gt)

            overlap = {}
            for f in corr:
                for g, p in corr[f].items():
                    overlap[(g, p)] = overlap.get((g, p), 0) + 1
            gt_total = sum(len(v) for v in gt.values())
            pred_total = sum(len(v) for v in pred.values())
            best = 0
            for m in permutations(range(n_p), n_g):
                best = max(best, sum(overlap.get((g, m[g]), 0) for g in range(n_g)))
            want = 2 * best / (2 * best + (pred_total - best) + (gt_total - best))
            assert idf1 == pytest.approx(want)


class TestContactMetrics:
    def gt(self, episodes, frames=40):
        tracks = {f: {1: body(0, 0), 2: body(2, 2)} for f in range(frames)}
        return GroundTruth(tracks=tracks, episodes=episodes)

    def test_identical_is_perfect(self):
        eps = [episode(1, "right", 3, 10, 20), episode(2, "left", 4, 5, 12)]
        gt = self.gt(eps)
        m = contact_metrics(list(eps), gt)
        assert m["episode_recall"] == 1.0
        assert m["binary_f1"] == 1.0
        assert m["binary_iou"] == 1.0
        assert m["semantic_f1"] == 1.0
        assert m["identity_accuracy"] == 1.0

    def test_one_frame_overlap_detected(self):
        gt = self.gt([episode(1, "right", 3, 10, 20)])
        m = contact_metrics([episode(1, "right", 3, 20, 30)], gt)
        assert m["episode_recall"] == 1.0

    def test_wrong_label_not_detected(self):
        gt = self.gt([episode(1, "right", 3, 10, 20)])
        m = contact_metrics([episode(1, "right", 4, 10, 20)], gt)
        assert m["episode_recall"] == 0.0

    def test_wrong_side_not_detected(self):
        gt = self.gt([episode(1, "right", 3, 10, 20)])
        m = contact_metrics([episode(1, "left", 3, 10, 20)], gt)
        assert m["episode_recall"] == 0.0

    def test_half_overlap_set_arithmetic(self):
        gt = self.gt([episode(1, "right", 3, 10, 19)])
        m = contact_metrics([episode(1, "right", 3, 15, 24)], gt)
        assert m["binary_iou"] == pytest.approx(5 / 15)
        assert m["binary_f1"] == pytest.approx(0.5)

    def test_identity_accuracy_uses_id_map(self):
        gt = self.gt([episode(1, "right", 3, 10, 20)])
        pred = [episode(42, "right", 3, 10, 20)]
        m = contact_metrics(pred, gt, id_map={42: 1})
        assert m["identity_accuracy"] == 1.0
        m = contact_metrics(pred, gt, id_map={42: 2})
        assert m["identity_accuracy"] == 0.0

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["earlier-first", "later-first"])
    def test_identity_tie_goes_to_the_earliest_start(self, order):
        # The prediction shares frames 10-15 with person 1's episode and
        # 15-20 with person 2's: a tie, which the earlier start wins
        # whatever the row order of the gt episodes.
        rows = [episode(1, "right", 3, 5, 15), episode(2, "right", 3, 15, 25)]
        gt = self.gt([rows[k] for k in order])
        m = contact_metrics([episode(1, "right", 3, 10, 20)], gt)
        assert m["identity_accuracy"] == 1.0
        m = contact_metrics([episode(2, "right", 3, 10, 20)], gt)
        assert m["identity_accuracy"] == 0.0

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["lower-first", "higher-first"])
    def test_identity_tie_at_one_start_goes_to_the_lowest_person(self, order):
        rows = [episode(1, "right", 3, 10, 20), episode(2, "right", 3, 10, 20)]
        gt = self.gt([rows[k] for k in order])
        m = contact_metrics([episode(1, "right", 3, 10, 20)], gt)
        assert m["identity_accuracy"] == 1.0

    def test_invisible_frames_excluded(self):
        eps = [episode(1, "right", 3, 10, 19)]
        gt = self.gt(eps)
        gt.visibility = {(f, 1, "right"): False for f in range(15, 20)}
        # Prediction misses exactly the invisible tail; still perfect.
        m = contact_metrics([episode(1, "right", 3, 10, 14)], gt)
        assert m["binary_f1"] == 1.0

    def test_empty_gt_is_vacuous(self):
        # 0 of 0 gt episodes detected counts as full recall, as the
        # framewise scores count empty sets as perfect.
        m = contact_metrics([], GroundTruth(tracks={}, episodes=[]))
        assert (m["episode_recall"], m["detected_episodes"], m["gt_episodes"]) == (1.0, 0, 0)
        assert m["binary_f1"] == m["semantic_iou"] == 1.0
        m = contact_metrics([episode(1, "right", 3, 10, 20)], GroundTruth(tracks={}, episodes=[]))
        assert m["episode_recall"] == 1.0
        assert m["binary_f1"] == 0.0

    def test_relabeling_invariance(self):
        eps = [episode(1, "right", 3, 10, 20), episode(2, "left", 4, 5, 12)]
        gt = self.gt(eps)
        m1 = contact_metrics(list(eps), gt)
        swap = {1: 2, 2: 1}
        eps_s = [episode(swap[e.person_id], e.side, e.surface_label, e.t_start, e.t_stop) for e in eps]
        gt_s = GroundTruth(tracks=gt.tracks, episodes=eps_s)
        m2 = contact_metrics(list(eps_s), gt_s)
        assert m1 == m2


class TestEvaluate:
    def test_perfect_end_to_end(self):
        frames = {f: {1: body(0, 0), 2: body(2, 2)} for f in range(30)}
        eps = [episode(1, "right", 3, 5, 25)]
        gt = GroundTruth(tracks=frames, episodes=eps)
        rep = evaluate(frames, list(eps), gt)
        assert rep.idf1 == 1.0
        assert rep.id_switches == 0
        assert rep.episode_recall == 1.0
        assert rep.binary_f1 == 1.0
        assert rep.identity_accuracy == 1.0


class TestSweep:
    def traces(self):
        # Hand 1 approaches label 3, dwells at 3 cm during frames 10-20,
        # then retracts. Values chosen to avoid landing exactly on 0.15.
        out = []
        for f in range(30):
            if f < 10:
                d = 0.3 - 0.025 * f
            elif f <= 20:
                d = 0.03
            else:
                d = 0.03 + 0.05 * (f - 20)
            out.append((f, 1, "right", 1, 3, d))
        return out

    def test_row_count(self):
        gt = GroundTruth(
            tracks={f: {1: body(0, 0)} for f in range(30)},
            episodes=[episode(1, "right", 3, 10, 20)],
        )
        grid = [round(0.02 * k, 2) for k in range(1, 21)]
        rows = threshold_sweep(self.traces(), gt, grid)
        assert len(rows) == 20
        assert [r[0] for r in rows] == grid

    def test_peak_at_moderate_threshold(self):
        gt = GroundTruth(
            tracks={f: {1: body(0, 0)} for f in range(30)},
            episodes=[episode(1, "right", 3, 10, 20)],
        )
        rows = {r[0]: r[1] for r in threshold_sweep(self.traces(), gt, [0.02, 0.12, 0.40])}
        assert rows[0.12] >= rows[0.02]
        assert rows[0.12] >= rows[0.40]

    def test_degenerate_grid_matches_contact_metrics(self):
        gt = GroundTruth(
            tracks={f: {1: body(0, 0)} for f in range(30)},
            episodes=[episode(1, "right", 3, 10, 20)],
        )
        rows = threshold_sweep(self.traces(), gt, [0.12])
        # Hysteresis comes on at the first d < 0.12 (frame 8) and releases
        # above 0.15 (frame 23); compare against the direct episode metric.
        pred = [episode(1, "right", 3, 8, 22)]
        m = contact_metrics(pred, gt)
        assert rows[0][1] == pytest.approx(m["binary_f1"])
        assert rows[0][2] == pytest.approx(m["binary_iou"])


TRACE_ROWS = st.lists(
    st.tuples(
        st.integers(0, 30),
        st.integers(1, 3),
        st.sampled_from(["left", "right"]),
        st.sampled_from([None, 1, 2]),
        st.integers(0, 2),
        st.one_of(st.sampled_from([0.05, 0.1, 0.12, 0.15, 0.3]), st.floats(0.0, 0.4)),
    ),
    max_size=80,
)
GT_EPISODES = st.lists(
    st.builds(
        lambda person, side, label, t0, n: episode(person, side, label, t0, t0 + n),
        st.integers(1, 2), st.sampled_from(["left", "right"]), st.integers(0, 2),
        st.integers(0, 30), st.integers(0, 10),
    ),
    max_size=4,
)


class TestSweepReplay:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(TRACE_ROWS, GT_EPISODES,
           st.lists(st.sampled_from([0.02, 0.05, 0.1, 0.12, 0.2, 0.3]), min_size=1, max_size=4),
           st.sampled_from([{}, {1: 2, 2: 1}]))
    def test_matches_per_key_sweep(self, traces, gt_episodes, grid, id_map):
        # Rows arrive unsorted and may repeat a frame on one key.
        gt = GroundTruth(tracks={}, episodes=gt_episodes)
        got = threshold_sweep(traces, gt, grid, id_map=id_map)
        assert got == per_key_threshold_sweep(traces, gt, grid, id_map=id_map)


# Frames of a 480-frame induction-lite-noisy recording (seed 0) whose
# frame 468 holds two hands flagged invisible, the recording's one frame
# with more than one gt/visibility.jsonl row.
WINDOW_START, WINDOW_END = 440, 480
SCORED = ("eval/report.json", "eval/report.csv", "sweep.csv")


def _score(pred, gt, out):
    """{name: bytes} of what evaluate and sweep write for pred against gt."""
    assert main(["evaluate", "--pred", pred, "--gt", gt, "--out", os.path.join(out, "eval")]) == 0
    assert main(["sweep", "--in", pred, "--gt", gt, "--grid", "0.02:0.40:0.02",
                 "--out", os.path.join(out, "sweep.csv")]) == 0
    return {name: Path(out, name).read_bytes() for name in SCORED}


def _keep_lines(path, keep):
    lines = Path(path).read_text().splitlines(keepends=True)
    Path(path).write_text("".join(line for line in lines if keep(line)))


@pytest.fixture(scope="module")
def noisy_window(tmp_path_factory):
    """(gt dir, pred dir, scored bytes): frames WINDOW_START..WINDOW_END - 1
    of the recording, run from the window's detections on, with the gt
    files cut to the window (the episodes to those that reach into it)."""
    root = tmp_path_factory.mktemp("noisy_window")
    ds, inp, pred = root / "ds", root / "in", root / "pred"
    emit_dataset(induction_lite_noisy(frame_count=WINDOW_END), str(ds), seed=0)
    inp.mkdir()
    for name in ("detections.jsonl", "hand_schema.json", "label_table.txt", "scene.json"):
        shutil.copy(ds / name, inp / name)
    for path in (inp / "detections.jsonl", ds / "gt" / "tracks.jsonl",
                 ds / "gt" / "visibility.jsonl"):
        _keep_lines(path, lambda line: json.loads(line)["frame"] >= WINDOW_START)
    # The header, and the episodes whose t_stop reaches the window.
    _keep_lines(ds / "gt" / "episodes.csv",
                lambda line: line.startswith("person_id,") or
                int(line.split(",")[4]) >= WINDOW_START)
    run_pipeline(str(ds / "calibration.json"), str(inp), str(pred), PipelineConfig(static_map=True))
    return ds / "gt", pred, _score(str(pred), str(ds / "gt"), str(root / "score"))


def _permute_rows(path, data, group=None):
    """Redraw the order of a file's rows, within each group(row) if given;
    a CSV keeps its header first."""
    lines = path.read_text().splitlines(keepends=True)
    head = lines[:1] if path.suffix == ".csv" else []
    rows = lines[len(head):]
    groups = {}
    for line in rows:
        groups.setdefault(group(line) if group else None, []).append(line)
    path.write_text("".join(head + [line for g in groups.values()
                                    for line in data.draw(st.permutations(g))]))


class TestRowOrder:
    """evaluate's and sweep's outputs do not depend on row orders that carry
    no meaning: gt visibility rows within a frame, and the rows of the gt
    and of the predicted episodes.csv."""

    def test_window_holds_rows_to_permute(self, noisy_window):
        gt, pred, _ = noisy_window
        frames = [json.loads(line)["frame"]
                  for line in (gt / "visibility.jsonl").read_text().splitlines()]
        assert len(frames) > len(set(frames))
        for path in (gt / "episodes.csv", pred / "episodes.csv"):
            assert len(path.read_text().splitlines()) > 2

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_permuted_rows_leave_the_reports(self, noisy_window, data):
        gt, pred, want = noisy_window
        with tempfile.TemporaryDirectory() as tmp:
            gt_copy, pred_copy = Path(tmp, "gt"), Path(tmp, "pred")
            shutil.copytree(gt, gt_copy)
            shutil.copytree(pred, pred_copy)
            _permute_rows(gt_copy / "visibility.jsonl", data,
                          group=lambda line: json.loads(line)["frame"])
            _permute_rows(gt_copy / "episodes.csv", data)
            _permute_rows(pred_copy / "episodes.csv", data)
            assert _score(str(pred_copy), str(gt_copy), tmp) == want
