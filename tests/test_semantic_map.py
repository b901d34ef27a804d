import numpy as np
import pytest

from contacttrack.errors import InputFormatError
from contacttrack.semantic_map import (
    EmptyCloud,
    LabeledPointCloud,
    ResolutionMismatch,
    SemanticCloud,
    backproject_labeled,
    fuse_clouds,
    read_label_grid,
    read_label_table,
    write_label_grid,
    write_label_table,
)

from helpers import identity_camera

TABLE = {0: "background", 1: "bed", 2: "monitor", 3: "table"}


def cloud_of(points, labels, cam="cam0"):
    return LabeledPointCloud(np.asarray(points, dtype=float), np.asarray(labels), cam)


class TestBackprojectLabeled:
    def test_all_background_empty(self):
        cal = identity_camera()
        lab = np.zeros((480, 640), dtype=np.uint8)
        dep = np.full((480, 640), 2.0)
        out = backproject_labeled(lab, dep, cal, stride=4)
        assert len(out.positions) == 0

    def test_single_pixel_matches_backproject(self):
        cal = identity_camera()
        lab = np.zeros((480, 640), dtype=np.uint8)
        dep = np.zeros((480, 640))
        lab[240, 320] = 2
        dep[240, 320] = 1.5
        out = backproject_labeled(lab, dep, cal, stride=4)
        assert len(out.positions) == 1
        assert out.labels[0] == 2
        assert np.allclose(out.positions[0], [0.0, 0.0, 1.5])

    def test_plane_stays_planar(self):
        cal = identity_camera()
        lab = np.full((480, 640), 1, dtype=np.uint8)
        dep = np.full((480, 640), 1.0)  # plane z=1 in camera frame
        out = backproject_labeled(lab, dep, cal, stride=8)
        assert np.all(np.abs(out.positions[:, 2] - 1.0) < 1e-6)

    def test_resolution_mismatch(self):
        cal = identity_camera()
        with pytest.raises(ResolutionMismatch):
            backproject_labeled(np.zeros((10, 10)), np.zeros((9, 10)), cal)


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


class TestNearestSurface:
    def test_exact_member(self):
        cloud = fuse_clouds([cloud_of([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1, 2])], 0.01, TABLE)
        hit = cloud.nearest(cloud.positions[1])
        assert hit.distance == 0.0
        assert hit.label == cloud.labels[1]

    def test_empty_cloud(self):
        cloud = SemanticCloud(0, 0.01, np.zeros((0, 3)), np.zeros(0, dtype=int), TABLE)
        with pytest.raises(EmptyCloud):
            cloud.nearest([0.0, 0.0, 0.0])

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(2000, 3))
        labs = rng.integers(1, 4, size=2000)
        cloud = SemanticCloud(0, 0.01, pts, labs, TABLE)
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
        cloud = SemanticCloud(0, 0.01, pts, labs, TABLE)
        qs = rng.uniform(-1, 1, size=(6, 3))
        got = cloud.nearest_per_label(qs)
        for label in (1, 2, 3):
            sub = pts[labs == label]
            d = np.linalg.norm(sub[None, :, :] - qs[:, None, :], axis=2)
            assert np.isclose(got[label][0], d.min())


class TestGridIO:
    def test_label_grid_round_trip(self, tmp_path):
        grid = np.arange(12, dtype=np.uint8).reshape(3, 4)
        p = tmp_path / "g.lbl1"
        write_label_grid(p, grid)
        assert np.array_equal(read_label_grid(p), grid)

    def test_label_table_round_trip(self, tmp_path):
        p = tmp_path / "labels.txt"
        write_label_table(p, TABLE)
        assert read_label_table(p) == TABLE

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
