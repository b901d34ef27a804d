import json
import math
import os
from dataclasses import asdict
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contacttrack import io
from contacttrack.contact import ContactEpisode
from contacttrack.errors import InputFormatError
from contacttrack.hand_fusion import HandInstance
from contacttrack.io import (
    EPISODE_HEADER,
    GridDepthProvider,
    read_calibration,
    read_depth_grid,
    read_detections,
    read_episodes,
    read_hand_schema,
    read_tracks,
    read_traces,
    read_visibility,
    write_calibration,
    write_detection_line,
    write_episodes,
    write_track_line,
    write_traces,
    write_visibility_line,
)
from contacttrack.schema import JOINT_COUNT

from helpers import (
    camera_patch,
    cells_lattice,
    grid_patch,
    identity_camera,
    make_camera,
    write_depth_grid,
    write_label_grid,
)


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


class TestHandSchema:
    def test_file_lists_used_as_given(self, tmp_path):
        data = {"vertex_count": 40, "palm_indices": [3], "fingertip_indices": [0, 1, 2, 4, 5]}
        path = tmp_path / "hand_schema.json"
        path.write_text(json.dumps(data))
        assert asdict(read_hand_schema(path)) == data

    @pytest.mark.parametrize("palm, tips, message", [
        ([], [35, 36, 37, 38, 39], "palm_indices must name at least one vertex"),
        ([0, 1], [], "exactly five fingertip indices"),
    ], ids=["empty-palm", "empty-fingertips"])
    def test_empty_file_lists_rejected(self, tmp_path, palm, tips, message):
        path = tmp_path / "hand_schema.json"
        path.write_text(json.dumps({"vertex_count": 40, "palm_indices": palm,
                                    "fingertip_indices": tips}))
        with pytest.raises(InputFormatError, match=message):
            read_hand_schema(path)


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
        with open(path, "w") as f:
            write_detection_line(f, 0, "a", persons, hands)
            write_detection_line(f, 1, "a", [], [])
        recs = list(read_detections(path, {"a"}, 13))
        assert len(recs) == 2
        frame, cam, ps, hs = recs[0]
        assert (frame, cam) == (0, "a")
        assert np.allclose(ps[0], persons[0], atol=1e-6)
        assert isinstance(hs[0], HandInstance)
        assert (hs[0].side, hs[0].camera_id, hs[0].sigma_fit) == ("left", "a", 0.01)
        assert np.allclose(hs[0].vertices, hands[0].vertices, atol=1e-6)
        assert recs[1][2] == [] and recs[1][3] == []

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text('{"frame":0,"camera_id":"a","persons":[],"hands":[]}\nnot json\n')
        with pytest.raises(InputFormatError) as exc:
            list(read_detections(path, {"a"}, 13))
        assert exc.value.line == 2

    def test_wrong_joint_count(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text(
            '{"frame":0,"camera_id":"a","persons":[{"joints":[[1,2,3]]}],"hands":[]}\n'
        )
        with pytest.raises(InputFormatError, match="shape"):
            list(read_detections(path, {"a"}, 13))


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


class TestRounding:
    # np.round(x, 6) misses round(x, 6) on the first two (a scaled product
    # on the wrong side of a half, and a decimal half); round passes the
    # rest through unchanged or to zero.
    HARD = [75734.1733075, -1.9999995, 0.0078125, 0.0, -0.0, 1e-300, -1e-300,
            1e12, -1e12, float("nan"), float("inf"), float("-inf")]

    def test_matches_round_on_hard_values(self):
        assert [repr(v) for v in io._rounded(self.HARD)] == [repr(round(x, 6)) for x in self.HARD]

    def test_keeps_the_array_shape(self):
        assert io._rounded(np.full((2, 3), 0.1234567)) == [[0.123457] * 3] * 2

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(),
        st.floats(-1e5, 1e5),
        st.integers(-10**12, 10**12).map(lambda k: (k + 0.5) / 1e6),  # decimal halves
    ), min_size=1, max_size=30))
    def test_matches_round(self, xs):
        assert [repr(v) for v in io._rounded(xs)] == [repr(round(x, 6)) for x in xs]


class TestIntegerFields:
    """Integer fields of the track, trace and visibility streams must be
    JSON integers: int() would read 0.5 as 0."""

    @pytest.mark.parametrize("read, line", [
        (read_tracks, '{"frame":0,"id":1.9,"E":1.0,"joints":%s}' % ([[0, 0, 0, 1]] * JOINT_COUNT)),
        (read_traces, '{"frame":0,"hand":1.9,"side":"left","person":1,"label":2,"d":0.1}'),
        (read_visibility, '{"frame":0,"person_id":1.9,"side":"left","visible":false}'),
    ], ids=["tracks", "traces", "visibility"])
    def test_fraction_rejected(self, tmp_path, read, line):
        path = tmp_path / "stream.jsonl"
        path.write_text(line.replace("1.9", "1") + "\n" + line + "\n")
        with pytest.raises(InputFormatError, match="must be an integer, got 1.9") as exc:
            list(read(path))
        assert exc.value.line == 2

    def test_bool_and_null_rejected(self, tmp_path):
        path = tmp_path / "vis.jsonl"
        for frame in ("true", "null", '"0"'):
            path.write_text('{"frame":%s,"person_id":1,"side":"left","visible":false}\n' % frame)
            with pytest.raises(InputFormatError, match=f"frame must be an integer, got {frame}"):
                list(read_visibility(path))


class TestNumberFields:
    """Number fields of the track, trace and detection streams must be
    JSON numbers: float() would parse "0.5", and float() and numpy read
    true as 1.0. A track's E and joints must also be finite, a trace's d
    finite and >= 0, and its side left or right."""

    DETECTION = ('{"frame":0,"camera_id":"cam0","persons":[{"joints":%s}],"hands":[]}'
                 % ([[0.5, 0, 0.9]] * JOINT_COUNT))
    TRACK = '{"frame":0,"id":1,"E":1.0,"joints":%s}' % ([[0.5, 0, 0, 1]] * JOINT_COUNT)
    TRACE = '{"frame":0,"hand":1,"side":"left","person":1,"label":2,"d":0.05}'

    @pytest.mark.parametrize("read, good, bad, message", [
        (read_tracks, TRACK, ('"E":1.0', '"E":"0.5"'), 'E must be a number, got "0.5"'),
        (read_tracks, TRACK, ("[[0.5, ", '[["1.0", '), "joints must be numbers"),
        (read_tracks, TRACK, (", 1]]", ", true]]"), "joints must be numbers"),
        (read_tracks, TRACK, ('"E":1.0', '"E":NaN'), "E must be finite, got nan"),
        (read_tracks, TRACK, ("[[0.5, ", "[[Infinity, "), "joints must be finite, got inf"),
        (read_traces, TRACE, ('"d":0.05', '"d":"0.05"'), 'd must be a number, got "0.05"'),
        (read_traces, TRACE, ('"d":0.05', '"d":true'), "d must be a number, got true"),
        (read_traces, TRACE, ('"d":0.05', '"d":NaN'), "d must be finite, got nan"),
        (read_traces, TRACE, ('"d":0.05', '"d":-0.01'), "d must be finite and >= 0, got -0.01"),
        (read_traces, TRACE, ('"left"', '"sideways"'), 'side must be left or right, got "sideways"'),
        (partial(read_detections, cameras={"cam0"}, hand_vertex_count=778), DETECTION,
         ("[[0.5, ", "[[true, "), "joints must be numbers"),
    ], ids=["tracks-E-string", "tracks-joint-string", "tracks-joint-bool", "tracks-E-nan",
            "tracks-joint-inf", "traces-d-string",
            "traces-d-bool", "traces-d-nan", "traces-d-negative", "traces-side",
            "detections-joint-bool"])
    def test_rejected(self, tmp_path, read, good, bad, message):
        path = tmp_path / "stream.jsonl"
        path.write_text(good + "\n" + good.replace(*bad, 1) + "\n")
        with pytest.raises(InputFormatError, match=message) as exc:
            list(read(path))
        assert exc.value.line == 2


# JSON scalars that are no number, and numbers that are not finite: the
# floats json.loads reads for NaN, Infinity and 1e400, and an integer
# beyond float range.
NOT_NUMBERS = st.one_of(st.none(), st.booleans(), st.text(max_size=3))
NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])
BAD_LEAVES = st.sampled_from([None, True, "0.5", math.nan, math.inf, -math.inf, 10**400])
CONTAINERS = st.one_of(st.lists(st.integers(), max_size=3),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def bad_vertex_arrays(draw):
    """An (N, 3) array of finite numbers, broken one way: a bad leaf, a
    short or long row (ragged), one rank more or less, or a scalar."""
    row = st.lists(st.floats(-9, 9), min_size=3, max_size=3)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    i = draw(st.integers(0, len(rows) - 1))
    how = draw(st.sampled_from(["leaf", "short", "long", "rank-up", "rank-down", "scalar"]))
    if how == "leaf":
        rows[i][draw(st.integers(0, 2))] = draw(BAD_LEAVES)
    elif how in ("short", "long"):
        rows[i] = rows[i][:2] if how == "short" else rows[i] + [0.0]
    elif how == "rank-up":
        rows = [rows]
    elif how == "rank-down":
        rows = rows[i]
    else:
        rows = draw(st.floats(-9, 9))
    return rows


class TestFieldReaders:
    """Each field reader rejects every value of the wrong kind with a
    ValueError naming the field, never another exception, so every
    malformed input exits 2 with a message."""

    READERS = {
        "int": (lambda v: io.json_int(v, "field"), st.one_of(NOT_NUMBERS, st.floats(), CONTAINERS)),
        "number": (lambda v: io.json_number({"field": v}, "field"),
                   st.one_of(NOT_NUMBERS, NOT_FINITE, CONTAINERS)),
        "array": (lambda v: io.json_array({"field": v}, "field", (None, 3)), bad_vertex_arrays()),
        "list": (lambda v: io.json_list({"field": v}, "field"),
                 st.one_of(NOT_NUMBERS, st.integers(), st.floats(),
                           st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))),
        "side": (lambda v: io.json_side({"side": v}, "field"),
                 st.one_of(NOT_NUMBERS.filter(lambda v: v not in ("left", "right")),
                           st.floats(), CONTAINERS)),
    }

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_wrong_kind_raises_value_error_naming_the_field(self, data):
        for name, (read, values) in self.READERS.items():
            value = data.draw(values, label=name)
            with pytest.raises(ValueError, match="field"):
                read(value)


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

    def test_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "eps.csv"
        write_episodes(path, [self.make(), self.make()])
        head, *rows = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join([head, rows[0], b"\xff" + rows[1], *rows[2:]]))
        with pytest.raises(InputFormatError, match="can't decode byte 0xff") as exc:
            read_episodes(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("column,text,line", [
        ("person_id", " 3 ", 2),
        ("surface_label", "0_2", 2),
        ("t_start", '"0\n"', 3),  # quoted, so the row ends on line 3
    ])
    def test_integer_fields_as_written_only(self, tmp_path, column, text, line):
        # int() reads each of these; write_episodes writes none of them.
        path = tmp_path / "eps.csv"
        write_episodes(path, [self.make(pid=-2), self.make(pid=None)])
        assert [ep.person_id for ep in read_episodes(path)] == [-2, None]
        head, row, *rest = path.read_text().split("\n")
        fields = row.split(",")
        fields[EPISODE_HEADER.index(column)] = text
        path.write_text("\n".join([head, ",".join(fields), *rest]))
        with pytest.raises(InputFormatError) as exc:
            read_episodes(path)
        want = text.strip('"')
        assert str(exc.value) == f"{path}:{line}: bad episode row: {column} must be an integer, got {want!r}"

    @pytest.mark.parametrize("column,text,line", [
        ("px", " 1_0 ", 2),
        ("py", "nan", 2),
        ("pz", '"0.5\n"', 3),  # quoted, so the row ends on line 3
        ("min_distance_m", "0.0_1", 2),
        ("min_distance_m", "1E-2", 2),
        ("px", ".5", 2),
        ("py", "+1.0", 2),
        ("pz", "\uff15", 2),
    ], ids=["px-underscore", "py-nan", "pz-quoted-line-break", "distance-underscore",
            "distance-capital-e", "px-no-integer-part", "py-plus", "pz-full-width"])
    def test_float_fields_as_written_only(self, tmp_path, column, text, line):
        # float() reads each of these; write_episodes writes none of them.
        path = tmp_path / "eps.csv"
        write_episodes(path, [self.make(), self.make()])
        head, row, *rest = path.read_text().split("\n")
        fields = row.split(",")
        fields[EPISODE_HEADER.index(column)] = text
        path.write_text("\n".join([head, ",".join(fields), *rest]))
        with pytest.raises(InputFormatError) as exc:
            read_episodes(path)
        want = text.strip('"')
        assert str(exc.value) == f"{path}:{line}: bad episode row: {column} must be a number, got {want!r}"

    def test_float_forms_written_read_back(self, tmp_path):
        ep = self.make()
        ep.contact_point = np.array([1e20, -1.5e-05, -0.0])
        ep.min_distance = 1e-06
        path = tmp_path / "eps.csv"
        write_episodes(path, [ep])
        assert path.read_text().split("\n")[1].endswith(",1e+20,-1.5e-05,-0.0,1e-06")
        back, = read_episodes(path)
        assert back.contact_point.tolist() == [1e20, -1.5e-05, -0.0]
        assert back.min_distance == 1e-06


class TestVisibility:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "vis.jsonl"
        with open(path, "w") as f:
            write_visibility_line(f, 0, 1, "left", False)
            write_visibility_line(f, 2, 1, "right", True)
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


def cameras(h, w, *ids):
    """Calibrations of the cameras ids (camA by default), each h x w."""
    return {c: identity_camera(c, cx=w / 2, cy=h / 2, w=w, h=h) for c in ids or ("camA",)}


class TestGridDepthProvider:
    def test_patch_and_border_clip(self, tmp_path):
        grid = np.arange(48, dtype=float).reshape(6, 8) / 100.0
        write_depth_grid(tmp_path / "frame_000003_camA.dep", grid)
        provider = GridDepthProvider(str(tmp_path), cameras(6, 8))
        patch, corner = camera_patch(provider, 3, "camA", [4, 0], [3, 0], 5)
        expected = np.round(grid[1:6, 2:7] * 1000) / 1000
        assert np.allclose(patch, expected)
        # Past the border a patch is zero-padded, not clipped.
        assert corner.shape == (5, 5)
        assert np.allclose(corner[2:, 2:], np.round(grid[:3, :3] * 1000) / 1000)
        assert not corner[:2].any() and not corner[:, :2].any()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), size=st.sampled_from([1, 3, 5, 7]))
    def test_batched_patches_equal_single_centre_oracle(self, tmp_path_factory, data, size):
        # Zero padding keeps patch[patch > 0] the oracle's values in the
        # oracle's order.
        h, w = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        rng = np.random.default_rng(h * 16 + w)
        grid = np.where(rng.random((h, w)) < 0.2, 0.0, rng.uniform(0.5, 4.0, (h, w)))
        root = tmp_path_factory.mktemp("grids")
        write_depth_grid(root / "frame_000000_camA.dep", grid)
        provider = GridDepthProvider(str(root), cameras(h, w))
        coord = st.integers(-size - 1, max(h, w) + size)
        centres = data.draw(st.lists(st.tuples(coord, coord), max_size=12))
        us, vs = np.array(centres, dtype=int).reshape(-1, 2).T
        got = camera_patch(provider, 0, "camA", us, vs, size)
        assert got.shape == (len(centres), size, size)
        r = size // 2
        for (u, v), patch in zip(centres, got):
            want = grid_patch(provider, 0, "camA", u, v, size)
            assert np.array_equal(patch[patch > 0], want[want > 0])
            expected = np.zeros((size, size))
            if want.size:
                v0, u0 = max(v - r, 0) - (v - r), max(u - r, 0) - (u - r)
                expected[v0:v0 + want.shape[0], u0:u0 + want.shape[1]] = want
            assert np.array_equal(patch, expected)

    @pytest.mark.parametrize("stride", range(1, 9))
    def test_grids_are_the_stride_lattice_of_the_files(self, tmp_path, stride):
        rng = np.random.default_rng(stride)
        labels = rng.integers(0, 4, size=(29, 37)).astype(np.uint8)
        depth = np.where(rng.random((29, 37)) < 0.2, 0.0, rng.uniform(0.5, 4.0, size=(29, 37)))
        write_label_grid(tmp_path / "frame_000002_camA.lbl", labels)
        write_depth_grid(tmp_path / "frame_000002_camA.dep", depth)
        cells = GridDepthProvider(str(tmp_path), cameras(29, 37)).grids(2, stride)
        assert cells.cameras == ["camA"] and cells.counts == [len(cells)]
        got_labels, got_depth = cells_lattice(cells, "camA", labels[::stride, ::stride].shape,
                                              stride)
        want_depth = read_depth_grid(tmp_path / "frame_000002_camA.dep")[::stride, ::stride]
        kept = (labels[::stride, ::stride] > 0) & (want_depth > 0)
        assert np.array_equal(got_labels, labels[::stride, ::stride] * kept)
        assert np.array_equal(got_depth, want_depth * kept)

    def test_cameras_in_calibration_order_without_label_files_left_out(self, tmp_path):
        # camB has no label file this frame and camC's sees no label: the
        # call lists camA and camD, each with its own cells.
        for cam, label in (("camD", 2), ("camA", 1), ("camC", 0)):
            write_label_grid(tmp_path / f"frame_000000_{cam}.lbl", np.full((4, 6), label))
        for cam in ("camA", "camB", "camC", "camD"):
            write_depth_grid(tmp_path / f"frame_000000_{cam}.dep", np.ones((4, 6)))
        cells = GridDepthProvider(str(tmp_path), cameras(4, 6, "camD", "camC", "camB", "camA")
                                  ).grids(0, 2)
        assert cells.cameras == ["camA", "camD"] and cells.counts == [6, 6]
        assert cells.labels.tolist() == [1] * 6 + [2] * 6
        assert cells.us.tolist() == [0, 2, 4] * 4 and cells.vs.tolist() == [0] * 3 + [2] * 3 + \
            [0] * 3 + [2] * 3

    def test_label_and_depth_shapes_must_match(self, tmp_path):
        # Each file must be its camera's image size; the label file is
        # checked first, once both are read.
        write_label_grid(tmp_path / "frame_000000_camA.lbl", np.ones((4, 4)))
        write_depth_grid(tmp_path / "frame_000000_camA.dep", np.ones((4, 5)))
        with pytest.raises(InputFormatError, match=r"frame_000000_camA\.dep: grid is 5x4 but "
                                                   r"camera camA is 4x4$"):
            GridDepthProvider(str(tmp_path), cameras(4, 4)).grids(0)
        with pytest.raises(InputFormatError, match=r"frame_000000_camA\.lbl: grid is 4x4 but "
                                                   r"camera camA is 5x4$"):
            GridDepthProvider(str(tmp_path), cameras(4, 5)).grids(0)

    @pytest.mark.parametrize("path", ["map", "patch"])
    def test_grid_of_another_size_than_its_camera(self, tmp_path, path):
        # A half-size grid would map each lattice cell at twice its
        # pixel coordinates; both the map and the patch path refuse it.
        write_label_grid(tmp_path / "frame_000001_camA.lbl", np.ones((3, 4)))
        write_depth_grid(tmp_path / "frame_000001_camA.dep", np.ones((3, 4)))
        provider = GridDepthProvider(str(tmp_path), cameras(6, 8))
        name = "lbl" if path == "map" else "dep"
        with pytest.raises(InputFormatError, match=rf"frame_000001_camA\.{name}: grid is 4x3 but "
                                                   r"camera camA is 8x6$"):
            if path == "map":
                provider.grids(1)
            else:
                camera_patch(provider, 1, "camA", [1], [1], 3)

    def test_interleaved_cameras_read_each_file_once(self, tmp_path, monkeypatch):
        reads = []
        monkeypatch.setattr(io, "read_depth_grid",
                            lambda path: reads.append(os.path.basename(path)) or np.ones((4, 4)))
        provider = GridDepthProvider(str(tmp_path), cameras(4, 4, "camA", "camB", "camC"))
        for frame in (0, 1):
            for _ in range(3):
                for cam in ("camA", "camB", "camC"):
                    camera_patch(provider, frame, cam, [1], [1], 1)
        assert reads == [f"frame_{f:06d}_{c}.dep" for f in (0, 1) for c in ("camA", "camB", "camC")]

    def test_new_frame_drops_the_old_grids(self, tmp_path):
        for frame in (0, 1):
            write_depth_grid(tmp_path / f"frame_{frame:06d}_camA.dep", np.ones((4, 4)))
        provider = GridDepthProvider(str(tmp_path), cameras(4, 4))
        camera_patch(provider, 0, "camA", [1], [1], 1)
        camera_patch(provider, 1, "camA", [1], [1], 1)
        (tmp_path / "frame_000000_camA.dep").unlink()
        with pytest.raises(InputFormatError, match="cannot read depth grid"):
            camera_patch(provider, 0, "camA", [1], [1], 1)

    def test_cache_reuse(self, tmp_path):
        write_depth_grid(tmp_path / "frame_000000_camA.dep", np.ones((4, 4)))
        provider = GridDepthProvider(str(tmp_path), cameras(4, 4))
        camera_patch(provider, 0, "camA", [1], [1], 1)
        (tmp_path / "frame_000000_camA.dep").unlink()
        patch = camera_patch(provider, 0, "camA", [2], [2], 1)
        assert patch[0, 0, 0] == pytest.approx(1.0)
