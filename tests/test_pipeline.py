import json
import os
import shutil
import sys
import tracemalloc
from collections import Counter
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contacttrack import cli, io, pipeline, simulator
from contacttrack.config import PipelineConfig
from contacttrack.errors import InputFormatError
from contacttrack.io import read_calibration, read_episodes, write_calibration
from contacttrack.pipeline import (
    load_ground_truth,
    load_track_stream,
    run_pipeline,
)
from contacttrack.person_tracker import PersonTrack, Tracker
from contacttrack.scenes import builtin_scene, crossing_clean, induction_lite, induction_lite_noisy
from contacttrack.schema import TEMPLATE_JOINTS
from contacttrack.simulator import SceneDepthProvider, Simulator, emit_dataset

from helpers import (
    cells_lattice,
    make_camera,
    make_ring,
    project_many,
    tree_bytes,
    window,
    write_depth_grid,
    write_label_grid,
)


class TestOutputs:
    def test_emits_all_artifacts(self, mini_induction):
        out = mini_induction["out"]
        for name in ("tracks.jsonl", "hand_tracks.jsonl", "episodes.csv",
                     "distance_traces.jsonl", "run_meta.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "run_meta.json")) as f:
            meta = json.load(f)
        assert meta["frames"] == 160
        assert meta["missing_frames"] == 0

    def test_tracks_cover_all_persons(self, mini_induction):
        pred = load_track_stream(os.path.join(mini_induction["out"], "tracks.jsonl"))
        ids = {tid for fr in pred.values() for tid in fr}
        assert len(ids) == 3

    def test_episodes_detected(self, mini_induction):
        eps = read_episodes(os.path.join(mini_induction["out"], "episodes.csv"))
        gt = load_ground_truth(mini_induction["ds"])
        assert len(eps) == len(gt.episodes) > 0


class TestInputHandling:
    def test_missing_detections(self, tmp_path):
        calib = tmp_path / "calibration.json"
        write_calibration(calib, {"a": make_camera("a", [0, 0, 2.5], [1, 1, 1])})
        with pytest.raises(InputFormatError, match="detections"):
            run_pipeline(str(calib), str(tmp_path), str(tmp_path / "out"))

    def test_empty_detections_give_empty_outputs(self, tmp_path):
        calib = tmp_path / "calibration.json"
        write_calibration(calib, {"a": make_camera("a", [0, 0, 2.5], [1, 1, 1])})
        (tmp_path / "detections.jsonl").write_text("")
        out = tmp_path / "out"
        summary = run_pipeline(str(calib), str(tmp_path), str(out))
        assert summary["frames"] == 0
        assert summary["episodes"] == 0
        assert read_episodes(out / "episodes.csv") == []
        assert (out / "tracks.jsonl").read_text() == ""

    def test_out_of_order_frames_rejected(self, tmp_path, mini_induction):
        ds = mini_induction["ds"]
        with open(os.path.join(ds, "detections.jsonl")) as f:
            lines = f.readlines()
        (tmp_path / "detections.jsonl").write_text("".join(lines[40:44] + lines[:4]))
        shutil.copy(os.path.join(ds, "hand_schema.json"), tmp_path / "hand_schema.json")
        with pytest.raises(InputFormatError, match="frame-ordered"):
            run_pipeline(os.path.join(ds, "calibration.json"),
                         str(tmp_path), str(tmp_path / "out"))

    def test_missing_frames_counted(self, tmp_path, mini_induction):
        ds = mini_induction["ds"]
        kept = []
        with open(os.path.join(ds, "detections.jsonl")) as f:
            for line in f:
                frame = json.loads(line)["frame"]
                if not 20 <= frame < 25:
                    kept.append(line)
        (tmp_path / "detections.jsonl").write_text("".join(kept))
        shutil.copy(os.path.join(ds, "hand_schema.json"), tmp_path / "hand_schema.json")
        summary = run_pipeline(
            os.path.join(ds, "calibration.json"), str(tmp_path),
            str(tmp_path / "out"), PipelineConfig(static_map=True),
        )
        assert summary["missing_frames"] == 5


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path, mini_induction):
        ds = mini_induction["ds"]
        out2 = tmp_path / "rerun"
        run_pipeline(os.path.join(ds, "calibration.json"), ds, str(out2),
                     PipelineConfig(static_map=True))
        assert tree_bytes(mini_induction["out"]) == tree_bytes(str(out2))

    def test_record_order_within_a_frame_leaves_the_bytes(self, tmp_path):
        # Hand fusion numbers new hand tracks in the order of its hands, so
        # a frame's records in reverse camera order must give the same
        # hand track ids and traces.
        ds, rev = tmp_path / "ds", tmp_path / "rev"
        emit_dataset(window(builtin_scene("crossing-noisy"), 0, 8), str(ds), seed=0)
        shutil.copytree(ds, rev)
        lines = (ds / "detections.jsonl").read_text().splitlines(keepends=True)
        frames = groupby(lines, key=lambda line: json.loads(line)["frame"])
        (rev / "detections.jsonl").write_text(
            "".join(line for _, group in frames for line in reversed(list(group))))
        for d in (ds, rev):
            run_pipeline(str(ds / "calibration.json"), str(d), str(d / "out"),
                         PipelineConfig(static_map=True))
        got = tree_bytes(str(rev / "out"))
        assert got["hand_tracks.jsonl"] and got["distance_traces.jsonl"]
        assert got == tree_bytes(str(ds / "out"))

    def test_static_map_matches_per_frame_map(self, tmp_path, mini_induction):
        # The simulated surfaces never move, so building the map once must
        # give the same episodes as rebuilding it per frame.
        ds = mini_induction["ds"]
        out2 = tmp_path / "perframe"
        run_pipeline(os.path.join(ds, "calibration.json"), ds, str(out2),
                     PipelineConfig(static_map=False))
        a = read_episodes(os.path.join(mini_induction["out"], "episodes.csv"))
        b = read_episodes(out2 / "episodes.csv")
        assert [vars(e).keys() for e in a] == [vars(e).keys() for e in b]
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert (ea.person_id, ea.side, ea.surface_label, ea.t_start, ea.t_stop) \
                == (eb.person_id, eb.side, eb.surface_label, eb.t_start, eb.t_stop)


@pytest.fixture(scope="module")
def order_window(tmp_path_factory):
    """(dataset, `run --out` bytes) of induction-lite-noisy frames 60-67:
    touches under pixel and depth noise and dropout, several hands per
    record."""
    root = tmp_path_factory.mktemp("order_window")
    ds = root / "ds"
    emit_dataset(window(induction_lite_noisy(), 60, 8), str(ds), seed=0)
    return ds, run_cli(ds, root / "out")


def run_cli(ds, out):
    """The bytes `run` writes to out for the dataset ds."""
    code = cli.main(["run", "--calib", str(ds / "calibration.json"), "--in", str(ds),
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    return tree_bytes(str(out))


def rewritten(ds, root, records=lambda recs: recs, cameras=lambda cams: cams):
    """A copy of dataset ds under root whose detection records, read as
    JSON, go through records and whose calibration cameras go through
    cameras."""
    shutil.copytree(ds, root)
    with open(ds / "detections.jsonl") as f:
        recs = records([json.loads(line) for line in f])
    (root / "detections.jsonl").write_text(
        "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in recs))
    with open(ds / "calibration.json") as f:
        calib = json.load(f)
    calib["cameras"] = cameras(calib["cameras"])
    (root / "calibration.json").write_text(json.dumps(calib))
    return root


class TestInputOrder:
    """`run` reads calibration cameras, a frame's records and a record's
    persons as sets: permuting them leaves --out byte-identical."""

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(rnd=st.randoms(use_true_random=False))
    def test_permuted_cameras_records_and_persons_keep_the_bytes(self, order_window,
                                                                 tmp_path_factory, rnd):
        ds, want = order_window

        def shuffled(items):
            items = list(items)
            rnd.shuffle(items)
            return items

        def records(recs):
            for rec in recs:
                rec["persons"] = shuffled(rec["persons"])
            return [rec for _, frame in groupby(recs, key=itemgetter("frame"))
                    for rec in shuffled(frame)]

        root = tmp_path_factory.mktemp("permuted")
        got = run_cli(rewritten(ds, root / "ds", records, shuffled), root / "out")
        assert got["hand_tracks.jsonl"] and got["distance_traces.jsonl"]
        assert got == want

    @pytest.mark.xfail(strict=True, reason=(
        "hand_fusion.cluster_hands numbers a frame's DBSCAN clusters, and so its "
        "fused hands and new hand track ids, in the order of a record's hands: "
        "reversing them renumbers hand_track_id, though the fused hands are "
        "equal as sets"))
    def test_reversed_hands_within_a_record_keep_the_bytes(self, order_window, tmp_path):
        ds, want = order_window

        def records(recs):
            for rec in recs:
                rec["hands"].reverse()
            return recs

        assert run_cli(rewritten(ds, tmp_path / "ds", records), tmp_path / "out") == want


def export_grids(scene, root):
    """A dataset twice: as simulated (scene.json), and with its map input
    exported to grids/ and scene.json removed. The provider's stride-4
    lattice cells are scattered into full-resolution files, zero
    elsewhere."""
    scene_ds = root / "scene"
    sim = emit_dataset(scene, str(scene_ds), seed=0)
    grid_ds = root / "grids"
    shutil.copytree(scene_ds, grid_ds)
    (grid_ds / "scene.json").unlink()
    (grid_ds / "grids").mkdir()
    provider = SceneDepthProvider(sim)
    for frame in range(scene["frame_count"]):
        cells = provider.grids(frame, stride=4)
        for cam_id in sim.cals:
            cal = sim.cals[cam_id]
            labels, depth = cells_lattice(cells, cam_id, (cal.image_height, cal.image_width), 1)
            base = grid_ds / "grids" / f"frame_{frame:06d}_{cam_id}"
            write_label_grid(f"{base}.lbl", labels)
            write_depth_grid(f"{base}.dep", depth)
    return str(scene_ds), str(grid_ds)


@pytest.fixture(scope="module")
def grid_dataset(tmp_path_factory):
    """10 frames of induction-lite, from scene.json and from grids/."""
    return export_grids(induction_lite(frame_count=10), tmp_path_factory.mktemp("grid_dataset"))


class TestGridsInput:
    @pytest.mark.parametrize("static_map", [False, True], ids=["per-frame", "static"])
    def test_matches_scene_input(self, tmp_path, grid_dataset, static_map):
        outs = []
        for ds in grid_dataset:
            out = tmp_path / os.path.basename(ds)
            run_pipeline(os.path.join(ds, "calibration.json"), ds, str(out),
                         PipelineConfig(static_map=static_map))
            outs.append(tree_bytes(str(out)))
        assert sorted(outs[0]) == ["distance_traces.jsonl", "episodes.csv",
                                   "hand_tracks.jsonl", "run_meta.json", "tracks.jsonl"]
        assert outs[0]["distance_traces.jsonl"]  # the map was built and queried
        assert outs[0] == outs[1]

    def test_each_depth_file_read_once(self, tmp_path, monkeypatch):
        # The per-frame map reads every camera's grid, then depth lifting
        # (busy under dropout and pixel noise) patches them again, one
        # call per frame; the provider keeps the frame's grids, so each
        # file is read exactly once.
        _, ds = export_grids(induction_lite_noisy(frame_count=6), tmp_path)
        read_depth_grid, patch = io.read_depth_grid, io.GridDepthProvider.patch
        reads = Counter()

        def counted(path):
            reads[os.path.basename(path)] += 1
            return read_depth_grid(path)

        monkeypatch.setattr(io, "read_depth_grid", counted)
        patches = []
        monkeypatch.setattr(io.GridDepthProvider, "patch",
                            lambda self, *a: patches.append(a) or patch(self, *a))
        run_pipeline(os.path.join(ds, "calibration.json"), ds, str(tmp_path / "out"),
                     PipelineConfig())
        frames = [frame for frame, *_ in patches]
        assert frames and len(frames) == len(set(frames))  # one patch call per frame
        # each asks several cameras for several joints
        assert sum(len(centres) for _, centres, _ in patches) > len(frames)
        assert sum(len(us) for _, centres, _ in patches for us, _ in centres.values()) \
            > 2 * len(frames)
        files = sorted(f for f in os.listdir(os.path.join(ds, "grids")) if f.endswith(".dep"))
        assert len(files) == 6 * 4
        assert reads == Counter(dict.fromkeys(files, 1))

    def test_noisy_maps_equal_across_providers(self, tmp_path):
        # The scene provider hashes depth noise every frame; the grids
        # provider reads the exported, noisy lattice back. Both give every
        # frame's fused map the same bytes.
        scene_ds, grid_ds = export_grids(induction_lite_noisy(frame_count=6), tmp_path)
        cals = read_calibration(os.path.join(grid_ds, "calibration.json"))
        sim = pipeline._depth_source(scene_ds, cals, PipelineConfig()).sim
        assert sim.scene["depth_sigma"] > 0
        table = sim.scene["label_table"]
        providers = [pipeline._depth_source(ds, cals, PipelineConfig())
                     for ds in (scene_ds, grid_ds)]
        assert [type(p) for p in providers] == [SceneDepthProvider, io.GridDepthProvider]
        maps = []
        for frame in range(6):
            scene_map, grid_map = (
                pipeline._build_cloud(p, cals, frame, PipelineConfig(), table, "table")
                for p in providers)
            assert len(scene_map) > 5000
            assert scene_map.positions.tobytes() == grid_map.positions.tobytes()
            assert scene_map.labels.tobytes() == grid_map.labels.tobytes()
            maps.append(scene_map.positions.tobytes())
        assert len(set(maps)) == 6  # each frame draws its own noise


class TestEmptyMap:
    def test_surfaceless_scene_back_projects_nothing(self, tmp_path, monkeypatch):
        # No camera's lattice sees a surface, so each frame's grids call
        # gives no cells and nothing is back-projected; the bytes are those
        # of a run that back-projects the empty cells.
        ds = tmp_path / "ds"
        emit_dataset(crossing_clean(frame_count=6), str(ds), seed=0)
        calls = []
        backproject = pipeline.backproject_labeled
        monkeypatch.setattr(pipeline, "backproject_labeled",
                            lambda *a, **kw: calls.append(a) or backproject(*a, **kw))
        cells = []
        grids = SceneDepthProvider.grids
        monkeypatch.setattr(SceneDepthProvider, "grids",
                            lambda *a, **kw: cells.append(grids(*a, **kw)) or cells[-1])

        def run(name):
            run_pipeline(str(ds / "calibration.json"), str(ds), str(tmp_path / name),
                         PipelineConfig())
            return tree_bytes(str(tmp_path / name))

        got = run("out")
        assert calls == []
        assert len(cells) == 6 and all(len(c) == 0 and c.cameras == [] for c in cells)

        def unguarded(provider, cals, frame, cfg, label_table, table_path):
            clouds = pipeline.backproject_labeled(provider.grids(frame, stride=cfg.stride), cals)
            assert clouds == []
            return pipeline.fuse_clouds(clouds, cfg.voxel_size, label_table)

        monkeypatch.setattr(pipeline, "_build_cloud", unguarded)
        assert run("empty") == got
        assert len(calls) == 6  # one per frame


class TestStitchRewrite:
    def test_streams_remapped_in_place(self, tmp_path, mini_induction):
        out = tmp_path / "run"
        shutil.copytree(mini_induction["out"], out)
        before = tree_bytes(str(out))
        pipeline._rewrite_ids(str(out), {1: 7})
        after = tree_bytes(str(out))
        assert sorted(after) == sorted(before)  # no temporary file left behind
        tracks = load_track_stream(os.path.join(out, "tracks.jsonl"))
        ids = {tid for fr in tracks.values() for tid in fr}
        assert 7 in ids and 1 not in ids
        for name in ("hand_tracks.jsonl", "distance_traces.jsonl"):
            want = before[name].replace(b'"person_id":1,', b'"person_id":7,') \
                .replace(b'"person":1,', b'"person":7,')
            assert want != before[name]
            assert after[name] == want


class TestWholeRunMemory:
    """A run holds one frame's detections, map and per-frame stacks, plus
    tables keyed by ids or pairs of ids, so its traced peak does not grow
    with the frame count."""

    FRAMES = 8  # F; the long run has 4F

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Input directories of the first F and 4F frames of one
        induction-lite-noisy window, whose map is rebuilt every frame."""
        root = tmp_path_factory.mktemp("memory")
        full = str(root / "full")
        emit_dataset(window(induction_lite_noisy(), 60, 4 * self.FRAMES), full, seed=0)
        out = {}
        for frames in (self.FRAMES, 4 * self.FRAMES):
            d = str(root / f"first{frames}")
            shutil.copytree(full, d)
            with open(os.path.join(full, "detections.jsonl")) as f, \
                    open(os.path.join(d, "detections.jsonl"), "w") as g:
                g.writelines(line for line in f if json.loads(line)["frame"] < frames)
            out[frames] = d
        return out

    @staticmethod
    def peak(d):
        tracemalloc.start()
        try:
            meta = run_pipeline(os.path.join(d, "calibration.json"), d, os.path.join(d, "out"),
                                PipelineConfig(seed=0))
            return meta["frames"], tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_frames(self, runs, monkeypatch):
        # The id and id-pair tables (hand tracks, contact filters, stitch
        # votes, the coexistence counts) and the finished episodes hold a
        # few hundred small entries here, well inside the allowance; one
        # frame's map and its index take about 600 KiB. A run that kept
        # each frame's map would pass the bound within a frame or two,
        # as the leaky run below shows for F frames.
        allowance = 256 * 1024
        (short, low), (long, high) = (self.peak(runs[f]) for f in sorted(runs))
        assert (short, long) == (self.FRAMES, 4 * self.FRAMES)
        assert high <= low + allowance
        kept = []
        fuse = pipeline.fuse_clouds
        monkeypatch.setattr(pipeline, "fuse_clouds", lambda *a: kept.append(fuse(*a)) or kept[-1])
        assert self.peak(runs[self.FRAMES])[1] > low + (self.FRAMES - 1) * allowance


class TestBenchmarkHooks:
    @pytest.fixture
    def tracer(self, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        monkeypatch.delitem(sys.modules, "tracer", raising=False)
        import tracer
        return tracer

    def test_tracer_patch_targets_exist(self, tracer):
        # The benchmark's tracer patches pipeline and class attributes by
        # name; a rename in src/ must fail here, not at benchmark time.
        original = pipeline.write_traces
        with tracer.patched(tracer.instrument(tracer.Tracer())):
            assert pipeline.write_traces is not original
        assert pipeline.write_traces is original

    def test_tracer_sees_the_triangulation_kernel(self, tracer):
        # The tracer times the kernel and the epipolar test under the names
        # person_tracker calls them by; calling them under other names
        # would leave their per-layer figures at 0.
        cams = {c.camera_id: c for c in make_ring(3, radius=4.0, height=1.8)}
        joints = TEMPLATE_JOINTS.copy()
        dets = {}
        for cam_id, cal in cams.items():
            uv, _ = project_many(joints, cal)
            dets[cam_id] = np.c_[uv, np.full(len(uv), 0.95)][None]
        tracker = Tracker(cams)
        tracker.tracks.append(PersonTrack(
            id=1, joints=joints + 0.01, available=np.ones(len(joints), dtype=bool),
            existence=0.9, confirmed=True,
        ))
        t = tracer.Tracer()
        with tracer.patched(tracer.instrument(t)):
            tracker.step(1, dets)
        assert t.calls("geometry.triangulate_weighted") >= 1
        assert t.calls("geometry.epipolar_distance") >= 1
        assert t.counts["geometry.triangulate_weighted.from_update"] >= 1

    def test_tracer_sees_one_sighting_cast_per_frame(self, tracer, tmp_path):
        # The simulator casts one ray bundle per frame, holding every
        # camera's rays to every present person's joints and shared by
        # the detections and the visibility ground truth.
        scene = crossing_clean(frame_count=3)
        scene["persons"][2]["absent"] = [[1, 1]]
        t = tracer.Tracer()
        with tracer.patched(tracer.instrument(t)):
            emit_dataset(scene, str(tmp_path), seed=0)
        cameras = len(scene["cameras"])
        assert t.calls("primitives.cast_rays.render") == 3  # frames
        rays = (3 + 2 + 3) * cameras * len(TEMPLATE_JOINTS)  # present persons' joints
        assert t.counts["primitives.cast_rays.render.rays"] == rays
        assert t.calls("simulator.gt_visibility") >= 1
        assert t.calls("simulator.gt_episodes") == 1

    def test_depth_patches_of_a_frame_build_its_capsules_once(self, tracer, monkeypatch):
        # Each present person's capsule stack is built once per frame and
        # shared by every patch; the tracer sees one patch call for two
        # cameras, cast in one bundle of chunks of at most DEPTH_CHUNK_RAYS
        # rays, and one ray per patch pixel.
        built = []
        body_capsules = simulator.body_capsules
        monkeypatch.setattr(simulator, "body_capsules",
                            lambda joints: built.append(body_capsules(joints)) or built[-1])
        provider = SceneDepthProvider(Simulator(crossing_clean(frame_count=2)))
        t = tracer.Tracer()
        with tracer.patched(tracer.instrument(t)):
            centres = (range(100, 400, 25), [240] * 12)
            provider.patch(1, {"cam0": centres, "cam1": centres}, 5)
        assert sum(len(caps) for caps in built) == 3 * 10  # three persons, ten capsules each
        assert t.calls("simulator.depth_patch") == 1
        assert simulator.DEPTH_CHUNK_RAYS == 200
        assert t.calls("primitives.cast_rays.depth") == 1  # 2 x 300 rays in chunks of 200
        assert t.counts["primitives.cast_rays.depth.rays"] == 2 * 12 * 25


class TestGroundTruthLoader:
    def test_descends_into_gt_subdir(self, mini_induction):
        gt = load_ground_truth(mini_induction["ds"])
        assert gt.episodes and gt.tracks

    def test_missing_episodes_rejected(self, tmp_path):
        with pytest.raises(InputFormatError, match="episodes"):
            load_ground_truth(str(tmp_path))
