import numpy as np
import pytest

from contacttrack.contact import ContactEpisode
from contacttrack.errors import InputFormatError
from contacttrack.hand_fusion import HandInstance
from contacttrack.io import (
    GridDepthProvider,
    read_calibration,
    read_depth_grid,
    read_detections,
    read_episodes,
    read_hand_tracks,
    read_tracks,
    read_traces,
    read_visibility,
    write_calibration,
    write_depth_grid,
    write_detections,
    write_episodes,
    write_hand_track_line,
    write_track_line,
    write_traces,
    write_visibility,
)
from contacttrack.schema import JOINT_COUNT

from helpers import make_camera


class TestCalibration:
    def test_round_trip(self, tmp_path):
        cals = {
            "a": make_camera("a", [0.0, 0.0, 2.0], [1.0, 1.0, 1.0]),
            "b": make_camera("b", [3.0, 0.0, 2.0], [1.0, 1.0, 1.0]),
        }
        path = tmp_path / "calib.json"
        write_calibration(path, cals)
        back = read_calibration(path)
        assert sorted(back) == ["a", "b"]
        for cid in cals:
            assert np.allclose(back[cid].T_cw, cals[cid].T_cw)
            assert back[cid].fx == cals[cid].fx
            assert back[cid].image_width == cals[cid].image_width

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError):
            read_calibration(tmp_path / "nope.json")

    def test_bad_gravity_axis(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text('{"gravity_axis": "-y", "cameras": []}')
        with pytest.raises(InputFormatError, match="gravity"):
            read_calibration(path)

    def test_no_cameras(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text('{"gravity_axis": "+z", "cameras": []}')
        with pytest.raises(InputFormatError, match="no cameras"):
            read_calibration(path)


class TestDetections:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        persons = [rng.uniform(0, 640, size=(JOINT_COUNT, 3))]
        hands = [
            HandInstance(
                camera_id="a", side="left",
                vertices=rng.normal(0, 1, size=(13, 3)), sigma_fit=0.01,
            )
        ]
        path = tmp_path / "det.jsonl"
        write_detections(path, [(0, "a", persons, hands), (1, "a", [], [])])
        recs = list(read_detections(path))
        assert len(recs) == 2
        frame, cam, ps, hs = recs[0]
        assert (frame, cam) == (0, "a")
        assert np.allclose(ps[0], persons[0], atol=1e-6)
        assert hs[0]["side"] == "left"
        assert np.allclose(hs[0]["vertices"], hands[0].vertices, atol=1e-6)
        assert recs[1][2] == [] and recs[1][3] == []

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text('{"frame":0,"camera_id":"a","persons":[],"hands":[]}\nnot json\n')
        with pytest.raises(InputFormatError) as exc:
            list(read_detections(path))
        assert exc.value.line == 2

    def test_wrong_joint_count(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text(
            '{"frame":0,"camera_id":"a","persons":[{"joints":[[1,2,3]]}],"hands":[]}\n'
        )
        with pytest.raises(InputFormatError, match="shape"):
            list(read_detections(path))


class TestTracks:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        joints = rng.normal(0, 1, size=(JOINT_COUNT, 3))
        available = rng.random(JOINT_COUNT) > 0.3
        path = tmp_path / "tracks.jsonl"
        with open(path, "w") as f:
            write_track_line(f, 4, 2, 0.875, joints, available)
        (frame, tid, e, j, a), = read_tracks(path)
        assert (frame, tid, e) == (4, 2, 0.875)
        assert np.allclose(j, joints, atol=1e-6)
        assert np.array_equal(a, available)

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        path.write_text('{"frame":0,"id":1,"E":1.0,"joints":[[0,0,0,1]]}\n')
        with pytest.raises(InputFormatError) as exc:
            list(read_tracks(path))
        assert exc.value.line == 1


class TestHandTracks:
    def test_round_trip(self, tmp_path):
        palm = np.array([0.1, 0.2, 0.3])
        anchors = np.arange(18, dtype=float).reshape(6, 3) / 10
        path = tmp_path / "hands.jsonl"
        with open(path, "w") as f:
            write_hand_track_line(f, 7, 3, "right", None, palm, anchors)
        (frame, hid, side, pid, palm_back, anchors_back), = read_hand_tracks(path)
        assert (frame, hid, side, pid) == (7, 3, "right", None)
        assert np.allclose(palm_back, palm)
        assert np.allclose(anchors_back, anchors)


class TestEpisodes:
    def make(self, pid=1):
        return ContactEpisode(
            person_id=pid, side="left", surface_label=3, t_start=10, t_stop=30,
            contact_point=np.array([1.0, 2.0, 0.5]), min_distance=0.01,
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "eps.csv"
        write_episodes(path, [self.make(), self.make(pid=None)])
        back = read_episodes(path)
        assert len(back) == 2
        assert back[0].person_id == 1
        assert back[1].person_id is None
        assert back[0].side == "left"
        assert np.allclose(back[0].contact_point, [1.0, 2.0, 0.5])
        assert back[0].min_distance == pytest.approx(0.01)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "eps.csv"
        path.write_text("")
        with pytest.raises(InputFormatError, match="empty"):
            read_episodes(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "eps.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(InputFormatError, match="header"):
            read_episodes(path)

    def test_header_only_is_zero_episodes(self, tmp_path):
        path = tmp_path / "eps.csv"
        write_episodes(path, [])
        assert read_episodes(path) == []


class TestVisibility:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "vis.jsonl"
        write_visibility(path, [(0, 1, "left", False), (2, 1, "right", True)])
        recs = list(read_visibility(path))
        assert recs == [(0, 1, "left", False), (2, 1, "right", True)]


class TestTraces:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        with open(path, "w") as f:
            write_traces(f, [(0, 1, "left", None, 3, 0.25), (1, 1, "left", 4, 3, 0.125)])
        recs = list(read_traces(path))
        assert recs == [(0, 1, "left", None, 3, 0.25), (1, 1, "left", 4, 3, 0.125)]


class TestDepthGrid:
    def test_round_trip_mm_quantized(self, tmp_path):
        rng = np.random.default_rng(2)
        depth = rng.uniform(0.5, 5.0, size=(24, 32))
        depth[0, :5] = 0.0
        path = tmp_path / "g.dep"
        write_depth_grid(path, depth)
        back = read_depth_grid(path)
        assert back.shape == depth.shape
        assert np.allclose(back, np.round(depth * 1000) / 1000, atol=1e-9)
        assert np.all(back[0, :5] == 0.0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.dep"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InputFormatError, match="magic"):
            read_depth_grid(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "g.dep"
        write_depth_grid(path, np.ones((8, 8)))
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(InputFormatError, match="truncated"):
            read_depth_grid(path)


class TestGridDepthProvider:
    def test_patch_and_border_clip(self, tmp_path):
        grid = np.arange(48, dtype=float).reshape(6, 8) / 100.0
        write_depth_grid(tmp_path / "frame_000003_camA.dep", grid)
        provider = GridDepthProvider(str(tmp_path))
        patch = provider.patch(3, "camA", 4, 3, 3)
        expected = np.round(grid[2:5, 3:6] * 1000) / 1000
        assert np.allclose(patch, expected)
        corner = provider.patch(3, "camA", 0, 0, 5)
        assert corner.shape == (3, 3)

    def test_cache_reuse(self, tmp_path):
        write_depth_grid(tmp_path / "frame_000000_camA.dep", np.ones((4, 4)))
        provider = GridDepthProvider(str(tmp_path))
        provider.patch(0, "camA", 1, 1, 1)
        (tmp_path / "frame_000000_camA.dep").unlink()
        patch = provider.patch(0, "camA", 2, 2, 1)
        assert patch[0, 0] == pytest.approx(1.0)
