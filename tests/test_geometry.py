import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semmap.errors import (
    EmptyCloud,
    InvalidDepth,
    NonPositiveDepth,
    PixelOutOfBounds,
)
from semmap.geometry import (
    CameraIntrinsics,
    DepthImage,
    PointCloud,
    RigidPose,
    backproject,
    extract_object_cloud,
    project,
    read_ply,
    voxel_downsample,
    write_ply,
)

from conftest import random_pose


class TestIntrinsics:
    @pytest.mark.parametrize("axis", ["fx", "fy"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0, -500.0])
    def test_focal_length_must_be_positive_and_finite(self, axis, bad):
        d = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
             "width": 640, "height": 480, axis: bad}
        with pytest.raises(ValueError, match="focal lengths"):
            CameraIntrinsics.from_dict(d)


class TestProject:
    def test_optical_axis_maps_to_principal_point(self, intrinsics):
        u, v, d = project((0, 0, 2), RigidPose.identity(), intrinsics)
        assert (u, v, d) == (320.0, 240.0, 2.0)

    def test_offset_point(self, intrinsics):
        u, v, d = project((0.5, 0, 2), RigidPose.identity(), intrinsics)
        assert u == pytest.approx(445.0)
        assert v == pytest.approx(240.0)
        assert d == 2.0

    def test_rejects_point_behind_camera(self, intrinsics):
        with pytest.raises(NonPositiveDepth):
            project((0, 0, -1.0), RigidPose.identity(), intrinsics)


class TestBackproject:
    def test_principal_point(self, intrinsics):
        p = backproject(320, 240, 2.0, RigidPose.identity(), intrinsics)
        np.testing.assert_allclose(p, [0, 0, 2])

    def test_inverse_of_project_example(self, intrinsics):
        p = backproject(445, 240, 2.0, RigidPose.identity(), intrinsics)
        np.testing.assert_allclose(p, [0.5, 0, 2], atol=1e-12)

    def test_translation_equivariance(self, intrinsics):
        shifted = RigidPose(np.eye(3), [1.0, 0.0, 0.0])
        p0 = backproject(400, 200, 1.5, RigidPose.identity(), intrinsics)
        p1 = backproject(400, 200, 1.5, shifted, intrinsics)
        np.testing.assert_allclose(p1 - p0, [1, 0, 0], atol=1e-12)

    def test_rejects_bad_depth(self, intrinsics):
        with pytest.raises(InvalidDepth):
            backproject(10, 10, 0.0, RigidPose.identity(), intrinsics)
        with pytest.raises(InvalidDepth):
            backproject(10, 10, float("nan"), RigidPose.identity(), intrinsics)

    def test_rejects_out_of_bounds_pixel(self, intrinsics):
        with pytest.raises(PixelOutOfBounds):
            backproject(700, 10, 1.0, RigidPose.identity(), intrinsics)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_round_trip_backproject_project(seed):
    rng = np.random.default_rng(seed)
    from semmap.geometry import CameraIntrinsics
    k = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                         width=640, height=480)
    pose = random_pose(rng)
    u = rng.uniform(0, k.width)
    v = rng.uniform(0, k.height)
    d = rng.uniform(0.1, 10.0)
    p = backproject(u, v, d, pose, k)
    u2, v2, d2 = project(p, pose, k)
    assert abs(u2 - u) < 1e-9 / d * k.fx + 1e-9
    assert abs(v2 - v) < 1e-9 / d * k.fy + 1e-9
    assert abs(d2 - d) < 1e-9


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_pose_group_laws(seed):
    rng = np.random.default_rng(seed)
    a = random_pose(rng)
    b = random_pose(rng)
    ab_inv = a.compose(b).inverse()
    b_inv_a_inv = b.inverse().compose(a.inverse())
    assert np.abs(ab_inv.rotation - b_inv_a_inv.rotation).max() < 1e-9
    assert np.abs(ab_inv.translation - b_inv_a_inv.translation).max() < 1e-9
    ident = a.compose(a.inverse())
    assert np.abs(ident.rotation - np.eye(3)).max() < 1e-9
    assert np.abs(ident.translation).max() < 1e-9


def _flat_depth(value, width=640, height=480):
    return DepthImage(np.full((height, width), value))


class TestExtractObjectCloud:
    def test_flat_wall_keeps_all_strided_pixels(self, intrinsics):
        cloud = extract_object_cloud((0, 0, 100, 100), _flat_depth(2.0),
                                     RigidPose.identity(), intrinsics,
                                     stride=10)
        assert len(cloud) == 100
        np.testing.assert_allclose(cloud.points[:, 2], 2.0)

    def test_median_band_rejects_background(self, intrinsics):
        # left 60% of the bbox on an object at 1 m, rest on a wall at 3 m
        data = np.full((480, 640), 3.0)
        data[:, :60] = 1.0
        cloud = extract_object_cloud((0, 0, 100, 100), DepthImage(data),
                                     RigidPose.identity(), intrinsics,
                                     stride=10)
        assert np.all(cloud.points[:, 2] == 1.0)

    def test_all_invalid_raises(self, intrinsics):
        with pytest.raises(EmptyCloud):
            extract_object_cloud((0, 0, 100, 100), _flat_depth(0.0),
                                 RigidPose.identity(), intrinsics)

    def test_points_are_bbox_backprojections_within_band(self, intrinsics):
        rng = np.random.default_rng(4)
        data = np.where(rng.uniform(size=(480, 640)) < 0.7,
                        rng.uniform(1.5, 2.5, (480, 640)), 0.0)
        depth = DepthImage(data)
        pose = random_pose(rng)
        bbox = (100, 80, 220, 200)
        cloud = extract_object_cloud(bbox, depth, pose, intrinsics, stride=4)
        cam = pose.inverse().transform(cloud.points)
        u = intrinsics.cx + intrinsics.fx * cam[:, 0] / cam[:, 2]
        v = intrinsics.cy + intrinsics.fy * cam[:, 1] / cam[:, 2]
        assert np.all((u >= bbox[0] - 0.5) & (u <= bbox[2] + 0.5))
        assert np.all((v >= bbox[1] - 0.5) & (v <= bbox[3] + 0.5))
        # every returned depth must be a valid depth-image value
        d = cam[:, 2]
        sampled = data[np.round(v).astype(int), np.round(u).astype(int)]
        np.testing.assert_allclose(d, sampled, atol=1e-9)


class TestVoxelDownsample:
    def test_merges_points_in_same_voxel(self):
        cloud = PointCloud([[0, 0, 0.0015], [0, 0, 0.0025]])
        out = voxel_downsample(cloud, 0.01)
        assert len(out) == 1
        np.testing.assert_allclose(out.points[0], [0, 0, 0.002])

    def test_keeps_distant_points(self):
        cloud = PointCloud([[0, 0, 0], [1, 0, 0]])
        out = voxel_downsample(cloud, 0.01)
        assert len(out) == 2

    def test_grid_one_point_per_voxel(self):
        xs, ys = np.meshgrid(np.arange(10) * 0.05, np.arange(10) * 0.05)
        pts = np.column_stack([xs.ravel() + 0.025, ys.ravel() + 0.025,
                               np.full(100, 0.025)])
        out = voxel_downsample(PointCloud(pts), 0.05)
        assert len(out) == 100

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.uniform(-1, 1, (rng.integers(1, 200), 3)))
        once = voxel_downsample(cloud, 0.1)
        twice = voxel_downsample(once, 0.1)
        np.testing.assert_array_equal(once.points, twice.points)


def test_ply_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.uniform(-5, 5, (37, 3)))
    path = tmp_path / "cloud.ply"
    write_ply(cloud, path)
    back = read_ply(path)
    np.testing.assert_array_equal(back.points, cloud.points)
