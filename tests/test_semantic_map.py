import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contacttrack.config import PipelineConfig
from contacttrack.errors import ContactTrackError, InputFormatError
from contacttrack.io import read_label_grid, read_label_table, write_label_table
from contacttrack.pipeline import _build_cloud
from contacttrack.scenes import induction_lite_noisy
from contacttrack.semantic_map import (
    INDEX_CELL,
    EmptyCloud,
    GridTooLarge,
    LabeledPointCloud,
    SemanticCloud,
    backproject_labeled,
    fuse_clouds,
)

from contacttrack.simulator import SceneDepthProvider, Simulator

from helpers import (
    LexsortCellIndex,
    backproject_lattice,
    backproject_many,
    brute_force_nearest_per_label,
    identity_camera,
    kdtree_nearest,
    kdtree_nearest_per_label,
    lattice_cells,
    make_camera,
    reference_fuse_clouds,
    window,
    write_label_grid,
)

TABLE = {0: "background", 1: "bed", 2: "monitor", 3: "table"}


def per_label(cloud, groups):
    """cloud.nearest_per_label of query groups (H, Q, 3), one call, as a
    {label: (distance, closest)} dict per group."""
    labels, d, closest = cloud.nearest_per_label(groups)
    assert d.shape == (len(groups), len(labels))
    return [{label: (d[h, k], lambda h=h, k=k: closest(h, k)) for k, label in enumerate(labels)}
            for h in range(len(groups))]


def cloud_of(points, labels, cam="cam0"):
    return LabeledPointCloud(np.asarray(points, dtype=float), np.asarray(labels), cam)


class TestBackprojectLabeled:
    def test_all_background_empty(self):
        cal = identity_camera()
        lab = np.zeros((480, 640), dtype=np.uint8)
        dep = np.full((480, 640), 2.0)
        cells = lattice_cells({"cam0": (lab[::4, ::4], dep[::4, ::4])})
        assert len(cells) == 0 and cells.cameras == []
        assert backproject_labeled(cells, {"cam0": cal}) == []

    def test_single_pixel_matches_backproject(self):
        cal = identity_camera()
        lab = np.zeros((480, 640), dtype=np.uint8)
        dep = np.zeros((480, 640))
        lab[240, 320] = 2
        dep[240, 320] = 1.5
        [out] = backproject_labeled(lattice_cells({"cam0": (lab[::4, ::4], dep[::4, ::4])}),
                                    {"cam0": cal})
        assert len(out.positions) == 1
        assert out.labels[0] == 2
        assert out.source_camera == "cam0"
        assert np.allclose(out.positions[0], [0.0, 0.0, 1.5])

    def test_plane_stays_planar(self):
        cal = identity_camera()
        lab = np.full((480, 640), 1, dtype=np.uint8)
        dep = np.full((480, 640), 1.0)  # plane z=1 in camera frame
        [out] = backproject_labeled(lattice_cells({"cam0": (lab[::8, ::8], dep[::8, ::8])}, 8),
                                    {"cam0": cal})
        assert np.all(np.abs(out.positions[:, 2] - 1.0) < 1e-6)

    @pytest.mark.parametrize("stride", [1, 3, 4, 7])
    def test_matches_full_lattice_gather(self, stride):
        cal = identity_camera(cx=18.5, cy=14.5, w=37, h=29)
        rng = np.random.default_rng(stride)
        lab = rng.integers(0, 3, size=(29, 37)).astype(np.uint8)
        dep = np.where(rng.random((29, 37)) < 0.2, 0.0, rng.uniform(0.5, 4.0, (29, 37)))
        vs, us = np.meshgrid(np.arange(0, 29, stride), np.arange(0, 37, stride), indexing="ij")
        us, vs = us.ravel(), vs.ravel()
        keep = (lab[vs, us] > 0) & (dep[vs, us] > 0)
        uv = np.stack([us[keep], vs[keep]], axis=1).astype(float)
        [out] = backproject_labeled(
            lattice_cells({"cam0": (lab[::stride, ::stride], dep[::stride, ::stride])}, stride),
            {"cam0": cal})
        assert np.array_equal(out.positions, backproject_many(uv, dep[vs, us][keep], cal))
        assert np.array_equal(out.labels, lab[vs, us][keep].astype(int))

    @pytest.mark.parametrize("stride", [1, 4])
    def test_cameras_in_one_call_equal_each_alone(self, stride):
        # The elementwise steps run over every camera's cells at once and
        # camera_to_world once per camera, so each camera's points keep
        # the bits of its own lattice back-projected alone; a camera whose
        # lattice has no cell gets no cloud.
        rng = np.random.default_rng(stride)
        cals, lattices = {}, {}
        for k, cam_id in enumerate(("camA", "camB", "camC", "camD")):
            position = rng.uniform(-3.0, 3.0, 3)
            cals[cam_id] = make_camera(cam_id, position, position + rng.uniform(-1, 1, 3),
                                       fx=500.0 + 40 * k, fy=510.0 - 30 * k, w=41 + k, h=33 - k)
            shape = (-(-(33 - k) // stride), -(-(41 + k) // stride))
            lab = rng.integers(0, 4, size=shape).astype(np.uint8) * (cam_id != "camC")
            dep = np.where(rng.random(shape) < 0.2, 0.0, rng.uniform(0.5, 4.0, shape))
            lattices[cam_id] = lab, dep
        clouds = backproject_labeled(lattice_cells(lattices, stride), cals)
        assert [c.source_camera for c in clouds] == ["camA", "camB", "camD"]
        for cloud in clouds:
            want = backproject_lattice(*lattices[cloud.source_camera],
                                       cals[cloud.source_camera], stride)
            assert cloud.positions.tobytes() == want.positions.tobytes()
            assert np.array_equal(cloud.labels, want.labels)
            assert cloud.labels.dtype == want.labels.dtype


class TestFuseClouds:
    def test_single_point(self):
        cloud = fuse_clouds([cloud_of([[0.1, 0.2, 0.3]], [1])], 0.01, TABLE)
        assert len(cloud) == 1
        assert cloud.labels[0] == 1
        assert np.allclose(cloud.positions[0], [0.1, 0.2, 0.3])

    def test_majority_vote_centroid(self):
        pts = [[0.001, 0.001, 0.001], [0.003, 0.001, 0.001], [0.005, 0.005, 0.005]]
        cloud = fuse_clouds([cloud_of(pts, [1, 1, 2])], 0.01, TABLE)
        assert len(cloud) == 1
        assert cloud.labels[0] == 1
        assert np.allclose(cloud.positions[0], [0.002, 0.001, 0.001])

    def test_tie_smallest_label(self):
        pts = [[0.001, 0.0, 0.0], [0.002, 0.0, 0.0]]
        cloud = fuse_clouds([cloud_of(pts, [2, 1])], 0.01, TABLE)
        assert cloud.labels[0] == 1
        assert np.allclose(cloud.positions[0], [0.002, 0.0, 0.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 0.2, size=(300, 3))
        labs = rng.integers(1, 4, size=300)
        a = fuse_clouds([cloud_of(pts, labs)], 0.01, TABLE)
        perm = rng.permutation(300)
        b = fuse_clouds(
            [cloud_of(pts[perm][:100], labs[perm][:100]), cloud_of(pts[perm][100:], labs[perm][100:])],
            0.01,
            TABLE,
        )
        oa = np.lexsort(a.positions.T)
        ob = np.lexsort(b.positions.T)
        assert np.allclose(a.positions[oa], b.positions[ob])
        assert np.array_equal(a.labels[oa], b.labels[ob])

    def test_point_near_voxel_center(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 0.5, size=(500, 3))
        cloud = fuse_clouds([cloud_of(pts, np.ones(500, dtype=int))], 0.01, TABLE)
        centers = (np.floor(cloud.positions / 0.01) + 0.5) * 0.01
        assert np.all(
            np.linalg.norm(cloud.positions - centers, axis=1) <= np.sqrt(3) * 0.01 / 2 + 1e-12
        )

    def test_hand_computed_fixture(self):
        # 50 points in two voxels, the majority oracle worked out by hand.
        pts = []
        labs = []
        for i in range(30):  # voxel (0,0,0): 18x label 1, 12x label 2
            pts.append([0.002 + 1e-4 * i, 0.004, 0.006])
            labs.append(1 if i < 18 else 2)
        for i in range(20):  # voxel (1,0,0): 10x label 3, 10x label 2 -> tie, label 2
            pts.append([0.012 + 1e-4 * i, 0.004, 0.006])
            labs.append(3 if i < 10 else 2)
        cloud = fuse_clouds([cloud_of(pts, labs)], 0.01, TABLE)
        assert len(cloud) == 2
        by_label = {int(l): p for p, l in zip(cloud.positions, cloud.labels)}
        assert set(by_label) == {1, 2}
        assert np.allclose(by_label[1][0], np.mean([0.002 + 1e-4 * i for i in range(18)]))
        assert np.allclose(by_label[2][0], np.mean([0.012 + 1e-4 * i for i in range(10, 20)]))


    def test_packed_range_guard_names_voxel_size(self):
        pts = [[-1.0, -1.0, 0.0], [1.0, 1.0, 2.0]]
        with pytest.raises(GridTooLarge, match="^voxel_size 1e-07 m gives a ") as err:
            fuse_clouds([cloud_of(pts, [1, 3])], 1e-7, TABLE)
        assert isinstance(err.value, ContactTrackError)
        # A room at a millimetre, far inside the range, packs.
        assert len(fuse_clouds([cloud_of(pts, [1, 3])], 1e-3, TABLE)) == 2

    def test_axis_past_2_53_voxels_raises(self):
        # The float64 offset of x = 1.5 from x = -2**54 rounds, which
        # merged the voxels at 1 and 2 into one at x = 2.0.
        past, one_past, at = _axis_boundary_points(1.0)
        for pts in (past, one_past):
            with pytest.raises(GridTooLarge, match="past the 2\\*\\*53 packed-key range"):
                fuse_clouds([cloud_of(pts, [1, 1, 1])], 1.0, TABLE)
        # Every offset is exact, and the voxels stay apart.
        cloud = fuse_clouds([cloud_of(at, [1, 1, 1])], 1.0, TABLE)
        assert cloud.positions[:, 0].tolist() == [-(2.0**53 - 3), 1.5, 2.5]

    def test_packed_key_bound_is_2_53(self):
        # One label over a cube of millimetre voxels: 208,063**3 voxels
        # fit in 2**53, 208,064**3 do not.
        fits, past = ([[0.0] * 3, [(side - 0.5) * 1e-3] * 3] for side in (208_063, 208_064))
        assert len(fuse_clouds([cloud_of(fits, [1, 1])], 1e-3, TABLE)) == 2
        with pytest.raises(GridTooLarge, match="^voxel_size 0.001 m gives a 2.08e\\+05 x "):
            fuse_clouds([cloud_of(past, [1, 1])], 1e-3, TABLE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_raises(self, bad):
        with pytest.raises(GridTooLarge):
            fuse_clouds([cloud_of([[0.0, 0.0, 0.0], [bad, 1.0, 1.0]], [1, 1])], 0.01, TABLE)


# Points as (voxel index, offset in the voxel, label): indices in a small
# signed range, so voxels are shared, hold one point or hold equal counts
# of two labels.
_point = st.tuples(
    st.tuples(*[st.integers(-4, 3)] * 3),
    st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 3),
    st.integers(1, 3),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    points=st.lists(_point, min_size=1, max_size=60),
    cuts=st.lists(st.integers(0, 60), max_size=3),
    voxel_size=st.sampled_from([0.01, 0.25, 1.0]),
)
@example(  # a 2-2 tie between labels 3 and 1, and a single-point voxel
    points=[((0, 0, 0), (0.1, 0.1, 0.1), 3), ((0, 0, 0), (0.2, 0.1, 0.1), 1),
            ((0, 0, 0), (0.3, 0.1, 0.1), 3), ((0, 0, 0), (0.4, 0.1, 0.1), 1),
            ((-1, -2, -3), (0.5, 0.5, 0.5), 2)],
    cuts=[2],
    voxel_size=0.25,
)
def test_fuse_matches_two_sort_reference(points, cuts, voxel_size):
    idx = np.array([p[0] for p in points], dtype=float)
    off = np.array([p[1] for p in points])
    labs = np.array([p[2] for p in points])
    pos = (idx + off) * voxel_size
    bounds = [0, *sorted(min(c, len(points)) for c in cuts), len(points)]
    clouds = [cloud_of(pos[a:b], labs[a:b], f"cam{i}") for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    got = fuse_clouds(clouds, voxel_size, TABLE)
    ref = reference_fuse_clouds(clouds, voxel_size, TABLE)
    assert np.array_equal(got.positions, ref.positions)
    assert np.array_equal(got.labels, ref.labels)


def test_fuse_matches_two_sort_reference_on_dense_voxels():
    # About 16 points a voxel, so the centroid sums depend on adding order.
    rng = np.random.default_rng(4)
    pos = rng.uniform(-0.03, 0.02, size=(2000, 3))
    labs = rng.integers(1, 4, size=2000)
    clouds = [cloud_of(pos[:700], labs[:700]), cloud_of(pos[700:], labs[700:], "cam1")]
    got = fuse_clouds(clouds, 0.01, TABLE)
    ref = reference_fuse_clouds(clouds, 0.01, TABLE)
    assert len(got) == 125
    assert np.array_equal(got.positions, ref.positions)
    assert np.array_equal(got.labels, ref.labels)


class TestNearestSurface:
    def test_exact_member(self):
        cloud = fuse_clouds([cloud_of([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1, 2])], 0.01, TABLE)
        hit = cloud.nearest(cloud.positions[1])
        assert hit.distance == 0.0
        assert hit.label == cloud.labels[1]

    def test_empty_cloud(self):
        cloud = SemanticCloud(np.zeros((0, 3)), np.zeros(0, dtype=int), TABLE)
        with pytest.raises(EmptyCloud):
            cloud.nearest([0.0, 0.0, 0.0])

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(2000, 3))
        labs = rng.integers(1, 4, size=2000)
        cloud = SemanticCloud(pts, labs, TABLE)
        for q in rng.uniform(-1.2, 1.2, size=(200, 3)):
            hit = cloud.nearest(q)
            d = np.linalg.norm(pts - q, axis=1)
            i = int(np.argmin(d))
            assert hit.index == i
            assert np.isclose(hit.distance, d[i])

    def test_per_label_matches_linear_scan(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, size=(500, 3))
        labs = rng.integers(1, 4, size=500)
        cloud = SemanticCloud(pts, labs, TABLE)
        qs = rng.uniform(-1, 1, size=(6, 3))
        got, = per_label(cloud, qs[None])
        for label in (1, 2, 3):
            sub = pts[labs == label]
            d = np.linalg.norm(sub[None, :, :] - qs[:, None, :], axis=2)
            assert np.isclose(got[label][0], d.min())


FIVE = {i: f"s{i}" for i in range(1, 6)}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3000),
    n_labels=st.integers(1, 5),
    n_queries=st.integers(1, 8),
    scale=st.sampled_from([0.05, 1.0, 5.0]),
    offset=st.sampled_from([0.0, -3.1, 250.0]),
)
def test_nearest_matches_kdtree_oracle(seed, n, n_labels, n_queries, scale, offset):
    # Random real coordinates: no two distances tie, so every point and
    # distance is fixed and must match the trees bit for bit.
    rng = np.random.default_rng(seed)
    pts = offset + rng.uniform(-scale, scale, size=(n, 3))
    cloud = SemanticCloud(pts, rng.integers(1, n_labels + 1, size=n), FIVE)
    queries = offset + rng.uniform(-1.5 * scale, 1.5 * scale, size=(n_queries, 3))
    # Each query as a group of its own in one call, then all as one group.
    cases = [(q[None], got) for q, got in zip(queries, per_label(cloud, queries[:, None]))]
    cases.append((queries, per_label(cloud, queries[None])[0]))
    for qs, got in cases:
        want = kdtree_nearest_per_label(cloud, qs)
        assert list(got) == list(want)
        for label, (d, point) in want.items():
            assert got[label][0] == d
            assert np.array_equal(got[label][1](), point)
    for q in queries:
        hit, ref = cloud.nearest(q), kdtree_nearest(cloud, q)
        assert (hit.distance, hit.label, hit.index) == (ref.distance, ref.label, ref.index)
        assert np.array_equal(hit.point, ref.point)


_eighths = st.integers(-4, 4).map(lambda k: k / 8)


@st.composite
def _lattice_cloud(draw):
    """Points and queries on a 1/8 m lattice in [-0.5, 0.5]^3, labels
    1-3: squared distances are exact, so many (query, point) pairs tie
    exactly, and points sit on index cell faces."""
    points = draw(st.lists(st.tuples(_eighths, _eighths, _eighths), min_size=1, max_size=40))
    labels = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
    queries = draw(st.lists(st.tuples(_eighths, _eighths, _eighths), min_size=1, max_size=6))
    return SemanticCloud(points, labels, TABLE), np.array(queries, dtype=float)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_lattice_cloud())
# Point 0 is as near to both queries as point 1 is to the first: the
# first query's tie goes to point 0.
@example((SemanticCloud([[0.25, 0.25, 0.0], [0.0, 0.25, 0.25]], [1, 1], TABLE),
          np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])))
def test_nearest_ties_go_to_first_query_then_smallest_index(case):
    cloud, queries = case
    # The queries and their reverse as two groups of one call.
    groups = np.stack([queries, queries[::-1]])
    for qs, got in zip(groups, per_label(cloud, groups)):
        want = brute_force_nearest_per_label(cloud, qs)
        assert list(got) == list(want)
        for label, (d, index) in want.items():
            assert got[label][0] == d
            assert np.array_equal(got[label][1](), cloud.positions[index])
    for q in queries:
        d = np.sqrt(((cloud.positions - q) ** 2).sum(axis=1))
        hit = cloud.nearest(q)
        assert hit.distance == d.min()
        assert hit.index == int(np.flatnonzero(d == d.min())[0])


def assert_index_matches_lexsort_oracle(cloud, groups):
    """The cloud's index orders and groups the points as LexsortCellIndex
    does, and its (distance, point index) tables for the query groups
    (H, Q, 3) are the oracle's, bit for bit."""
    d, idx = cloud._nearest_by_label(groups)
    oracle = LexsortCellIndex(cloud.positions, cloud.labels)
    for name in ("order", "starts", "ends", "label_groups", "group_label"):
        assert np.array_equal(getattr(cloud._index, name), getattr(oracle, name)), name
    want_d, want_idx = oracle.nearest_by_label(groups)
    assert d.tobytes() == want_d.tobytes()
    assert np.array_equal(idx, want_idx)
    return d, idx


NOISY_FRAMES = 12


@pytest.fixture(scope="module")
def noisy_window_maps():
    """The per-frame maps of induction-lite-noisy frames 60-71, each fused
    from all four cameras' lattices, with the frame's persons' joints as
    query groups, one group per person."""
    sim = Simulator(window(induction_lite_noisy(), 60, NOISY_FRAMES), seed=0)
    assert len(sim.cals) == 4
    provider = SceneDepthProvider(sim)
    maps = []
    for frame in range(NOISY_FRAMES):
        cloud = _build_cloud(provider, sim.cals, frame, PipelineConfig(),
                             sim.scene["label_table"], "label_table.txt")
        maps.append((cloud, np.stack(list(sim.frame_state(frame).values()))))
    return maps


def test_index_matches_lexsort_oracle_on_noisy_window(noisy_window_maps):
    for cloud, groups in noisy_window_maps:
        assert len(cloud) > 5000 and len(cloud.label_ids) == 5
        assert_index_matches_lexsort_oracle(cloud, groups)
    # One person's joints of the first frame, point by point.
    cloud, groups = noisy_window_maps[0]
    d, idx = cloud._nearest_by_label(groups[:1])
    want = brute_force_nearest_per_label(cloud, groups[0])
    assert [(d[0, k], idx[0, k]) for k in range(len(want))] == list(want.values())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_lattice_cloud())
def test_index_matches_lexsort_oracle_on_lattice_ties(case):
    # Exact distance ties, and points on index cell faces.
    cloud, queries = case
    groups = np.stack([queries, queries[::-1]])
    d, idx = assert_index_matches_lexsort_oracle(cloud, groups)
    for h, qs in enumerate(groups):
        want = brute_force_nearest_per_label(cloud, qs)
        assert [(d[h, k], idx[h, k]) for k in range(len(want))] == list(want.values())


def _axis_boundary_points(edge):
    """Three points along x, in cells of `edge` m, three ways: spanning
    2**54 + 3 cells, 2**53 + 1 cells (one past the exact offsets) and
    2**53 cells. The last two points lie in the adjacent cells 1 and 2."""
    return [[[-k * edge, 0.0, 0.0], [1.5 * edge, 0.0, 0.0], [2.5 * edge, 0.0, 0.0]]
            for k in (2.0**54, 2.0**53 - 2, 2.0**53 - 3)]


class TestIndexKeyRange:
    """The index packs (label, cell) into an int64 key, which a cloud past
    its range must not overflow."""

    @pytest.mark.parametrize("far", [[1e6, 1e6, 1e6], [2.3e15, 0.0, 0.0]])
    def test_cloud_past_the_key_range_raises(self, far):
        cloud = SemanticCloud([[0.0, 0.0, 0.0], far], [1, 2], TABLE)
        with pytest.raises(GridTooLarge, match="^the 0.25 m index cell gives a ") as err:
            cloud.nearest([0.0, 0.0, 0.0])
        assert isinstance(err.value, ContactTrackError)

    @pytest.mark.parametrize("point", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]])
    def test_non_finite_point_raises(self, point):
        cloud = SemanticCloud([[0.0, 0.0, 0.0], point], [1, 1], TABLE)
        with pytest.raises(GridTooLarge):
            cloud.nearest_per_label(np.zeros((1, 1, 3)))

    def test_axis_past_2_53_cells_raises(self):
        # fuse_clouds's boundary cases, in index cells: a span of 2**53
        # cells rounds to an extent of 2**53, which the product alone
        # would let pass.
        past, one_past, at = _axis_boundary_points(INDEX_CELL)
        for pts in (past, one_past):
            cloud = SemanticCloud(pts, [1, 1, 1], TABLE)
            with pytest.raises(GridTooLarge, match="past the 2\\*\\*53 packed-key range"):
                cloud.nearest([0.0, 0.0, 0.0])
        cloud = SemanticCloud(at, [1, 1, 1], TABLE)
        assert [cloud.nearest(p).index for p in at] == [0, 1, 2]

    # An 8 x 8 x 3 m room over five labels packs 61,440 keys, within 16
    # bits; a 20 x 20 x 4 m hall over three packs 307,200; a 10 km cube
    # packs 6.4e13, inside the range.
    @pytest.mark.parametrize("extent, n_labels", [
        ((8.0, 8.0, 3.0), 5), ((20.0, 20.0, 4.0), 3), ((1e4, 1e4, 1e4), 1)])
    def test_room_sized_cloud_indexes(self, extent, n_labels):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, extent, size=(3000, 3))
        pts[:2] = [[0.0, 0.0, 0.0], np.nextafter(extent, 0.0)]
        labels = np.arange(3000) % n_labels + 1
        cloud = SemanticCloud(pts, labels, FIVE)
        groups = rng.uniform(0.0, extent, size=(4, 3, 3))
        assert_index_matches_lexsort_oracle(cloud, groups)
        assert cloud.nearest(pts[7]).index == 7


class TestGridIO:
    """The label grid and label table formats, which io reads and writes."""

    def test_label_grid_round_trip(self, tmp_path):
        grid = np.arange(12, dtype=np.uint8).reshape(3, 4)
        p = tmp_path / "g.lbl1"
        write_label_grid(p, grid)
        assert np.array_equal(read_label_grid(p), grid)

    def test_label_table_round_trip(self, tmp_path):
        p = tmp_path / "labels.txt"
        write_label_table(p, TABLE)
        assert read_label_table(p) == TABLE

    @pytest.mark.parametrize("lid", [-4, 256])
    def test_label_table_writer_takes_what_the_reader_takes(self, tmp_path, lid):
        # One id rule for both sides: an LBL1 byte, 0 (background) included.
        with pytest.raises(ValueError) as err:
            write_label_table(tmp_path / "labels.txt", {lid: "x"})
        assert str(err.value) == f"label id must be in 0..255, got {lid}"

    def test_label_grid_bad_magic(self, tmp_path):
        p = tmp_path / "g.lbl"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InputFormatError, match="magic") as err:
            read_label_grid(p)
        assert err.value.path == p

    @pytest.mark.parametrize("keep", [6, 13])
    def test_label_grid_truncated(self, tmp_path, keep):
        p = tmp_path / "g.lbl"
        write_label_grid(p, np.ones((3, 4)))
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(InputFormatError, match="truncated") as err:
            read_label_grid(p)
        assert err.value.path == p

    def test_label_table_line_without_name(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("1 bed\n2\n")
        with pytest.raises(InputFormatError) as err:
            read_label_table(p)
        assert (err.value.path, err.value.line) == (p, 2)
