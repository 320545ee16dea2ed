import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semmap.errors import (
    EmptyCloud,
    InvalidDepth,
    PixelOutOfBounds,
)
from semmap.geometry import (
    MAX_IMAGE_SIDE,
    CameraIntrinsics,
    DepthImage,
    PointCloud,
    RigidPose,
    _freeze,
    backproject,
    extract_object_cloud,
    voxel_downsample,
    write_ply,
)
from conftest import (
    NonPositiveDepth,
    project,
    random_pose,
    reference_extract_object_cloud,
    rodrigues,
)


class TestIntrinsics:
    @pytest.mark.parametrize("axis", ["fx", "fy"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0, -500.0])
    def test_focal_length_must_be_positive_and_finite(self, axis, bad):
        # the class's own check; from JSON, build rejects NaN and Infinity
        # before it
        d = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
             "width": 640, "height": 480, axis: bad}
        with pytest.raises(ValueError, match=rf"{axis} must be in \(0, inf\)"):
            CameraIntrinsics(**d)

    @pytest.mark.parametrize("side", ["width", "height"])
    def test_image_side_capped(self, side):
        d = {"fx": 500.0, "fy": 500.0, "cx": 0.0, "cy": 0.0,
             "width": 640, "height": 480}
        assert getattr(CameraIntrinsics(**dict(d, **{side: MAX_IMAGE_SIDE})),
                       side) == MAX_IMAGE_SIDE
        for bad in (0, MAX_IMAGE_SIDE + 1):
            with pytest.raises(ValueError, match=side):
                CameraIntrinsics(**dict(d, **{side: bad}))


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


def _frozen_float64(arr):
    return (arr.dtype == np.float64 and arr.flags.c_contiguous
            and not arr.flags.writeable)


_axis_angle = st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3)
_translation = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)


@given(wa=_axis_angle, ta=_translation, wb=_axis_angle, tb=_translation)
@settings(max_examples=100, deadline=None)
def test_derived_poses_are_bitwise_checked_ones(wa, ta, wb, tb):
    """inverse() and compose() derive the expressions that the checked
    constructor is given here: the same bytes, C-contiguous, float64 and
    read-only."""
    a = RigidPose(rodrigues(np.array(wa)), ta)
    b = RigidPose(rodrigues(np.array(wb)), tb)
    cases = [
        (a.inverse(), RigidPose(a.rotation.T, -a.rotation.T @ a.translation)),
        (a.compose(b), RigidPose(a.rotation @ b.rotation,
                                 a.rotation @ b.translation + a.translation)),
    ]
    for derived, checked in cases:
        for got, want in [(derived.rotation, checked.rotation),
                          (derived.translation, checked.translation)]:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert _frozen_float64(got)


def test_freeze_returns_a_frozen_array_as_is():
    """A read-only, C-contiguous float64 array is frozen already: it comes
    back as the same object, still read-only; a writeable one is frozen."""
    frozen = np.eye(3)
    frozen.flags.writeable = False
    assert _freeze(frozen) is frozen
    assert _frozen_float64(frozen)
    writeable = np.eye(3)
    assert _freeze(writeable) is writeable
    assert _frozen_float64(writeable)


def test_extracted_cloud_is_frozen(intrinsics):
    cloud = extract_object_cloud((0, 0, 100, 100), _flat_depth(2.0),
                                 intrinsics, stride=4)
    assert cloud.shape == (625, 3)
    assert _frozen_float64(cloud)


def _flat_depth(value, width=640, height=480):
    return DepthImage(np.full((height, width), value))


class TestDepthImage:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    def test_non_finite_or_negative_rejected(self, bad):
        data = np.full((4, 5), 2.0)
        data[2, 3] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            DepthImage(data)

    def test_zero_and_negative_zero_accepted(self):
        data = np.zeros((4, 5))
        data[1, 1] = -0.0
        assert DepthImage(data).width == 5


class TestExtractObjectCloud:
    def test_flat_wall_keeps_all_strided_pixels(self, intrinsics):
        cloud = extract_object_cloud((0, 0, 100, 100), _flat_depth(2.0),
                                     intrinsics, stride=10)
        assert len(cloud) == 100
        np.testing.assert_allclose(cloud[:, 2], 2.0)

    def test_median_band_rejects_background(self, intrinsics):
        # left 60% of the bbox on an object at 1 m, rest on a wall at 3 m
        data = np.full((480, 640), 3.0)
        data[:, :60] = 1.0
        cloud = extract_object_cloud((0, 0, 100, 100), DepthImage(data),
                                     intrinsics, stride=10)
        assert np.all(cloud[:, 2] == 1.0)

    def test_all_invalid_raises(self, intrinsics):
        with pytest.raises(EmptyCloud):
            extract_object_cloud((0, 0, 100, 100), _flat_depth(0.0),
                                 intrinsics, stride=4)

    def test_points_are_bbox_backprojections_within_band(self, intrinsics):
        rng = np.random.default_rng(4)
        data = np.where(rng.uniform(size=(480, 640)) < 0.7,
                        rng.uniform(1.5, 2.5, (480, 640)), 0.0)
        depth = DepthImage(data)
        bbox = (100, 80, 220, 200)
        cam = extract_object_cloud(bbox, depth, intrinsics, stride=4)
        u = intrinsics.cx + intrinsics.fx * cam[:, 0] / cam[:, 2]
        v = intrinsics.cy + intrinsics.fy * cam[:, 1] / cam[:, 2]
        assert np.all((u >= bbox[0] - 0.5) & (u <= bbox[2] + 0.5))
        assert np.all((v >= bbox[1] - 0.5) & (v <= bbox[3] + 0.5))
        # every returned depth must be a valid depth-image value
        d = cam[:, 2]
        sampled = data[np.round(v).astype(int), np.round(u).astype(int)]
        np.testing.assert_allclose(d, sampled, atol=1e-9)


    @pytest.mark.parametrize("shape", [(240, 320), (480, 700), (481, 640)])
    def test_depth_image_must_match_intrinsics(self, intrinsics, shape):
        # a smaller image was read against the wrong geometry, or raised a
        # bare IndexError, depending on the bbox
        depth = DepthImage(np.full(shape, 2.0))
        with pytest.raises(ValueError, match=re.escape(str(shape))
                           + r".*\(480, 640\)"):
            extract_object_cloud((0, 0, 100, 100), depth, intrinsics,
                                 stride=4)

    def test_overflowing_depths_raise_without_warning(self, intrinsics):
        # finite depths near the largest float overflow when back-projected;
        # numpy's overflow warning used to escape before the ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                extract_object_cloud((0, 0, 100, 100), _flat_depth(1e307),
                                     intrinsics, stride=4)


SMALL = CameraIntrinsics(fx=30.0, fy=30.0, cx=20.0, cy=15.0,
                         width=40, height=30)
_coord = st.floats(-20.0, 60.0, allow_nan=False)
_size = st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 45.0))


@given(seed=st.integers(0, 2**32 - 1), stride=st.integers(1, 5),
       x0=_coord, y0=_coord, w=_size, h=_size,
       zero_frac=st.sampled_from([0.0, 0.2, 0.9, 1.0]),
       background=st.floats(2.05, 4.0))
# single pixels, on and off the sampling grid
@example(seed=1, stride=1, x0=5.0, y0=5.0, w=1.0, h=1.0, zero_frac=0.0,
         background=3.0)
@example(seed=1, stride=3, x0=4.5, y0=6.2, w=0.3, h=0.9, zero_frac=0.0,
         background=3.0)
# partly off the top-left and bottom-right corners, fractional edges
@example(seed=2, stride=2, x0=-7.3, y0=-3.5, w=20.1, h=11.7, zero_frac=0.2,
         background=2.2)
@example(seed=3, stride=4, x0=31.5, y0=22.25, w=30.0, h=30.0, zero_frac=0.2,
         background=2.2)
# wholly off the image
@example(seed=4, stride=1, x0=40.0, y0=0.0, w=10.0, h=10.0, zero_frac=0.0,
         background=3.0)
@example(seed=5, stride=1, x0=-15.0, y0=-15.0, w=14.5, h=30.0, zero_frac=0.0,
         background=3.0)
@settings(max_examples=150, deadline=None)
def test_extraction_matches_reference(seed, stride, x0, y0, w, h, zero_frac,
                                      background):
    """Same point bytes, or the same EmptyCloud, as the meshgrid version,
    once the camera-frame points are mapped to world."""
    rng = np.random.default_rng(seed)
    # an object at ~2 m on the left half, a background that the band
    # sometimes keeps, and a share of invalid pixels
    data = np.full((SMALL.height, SMALL.width), background)
    data[:, :20] = rng.uniform(1.9, 2.1, (SMALL.height, 20))
    data[rng.uniform(size=data.shape) < zero_frac] = 0.0
    depth = DepthImage(data)
    pose = random_pose(rng)
    bbox = (x0, y0, x0 + w, y0 + h)

    def outcome(extract):
        try:
            return extract().tobytes()
        except EmptyCloud as exc:
            return str(exc)

    assert outcome(lambda: pose.transform(extract_object_cloud(
        bbox, depth, SMALL, stride=stride))) == \
        outcome(lambda: reference_extract_object_cloud(
            bbox, depth, pose, SMALL, stride=stride).points)


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
    header, body = path.read_text().split("end_header\n")
    assert header.splitlines() == [
        "ply", "format ascii 1.0", "element vertex 37",
        "property float x", "property float y", "property float z"]
    back = np.array([[float(tok) for tok in line.split()]
                     for line in body.splitlines()])
    assert back.tobytes() == cloud.points.tobytes()
