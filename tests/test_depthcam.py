import numpy as np
import pytest

from surfscan.depthcam import CameraIntrinsics, DepthImage, estimate_normal_map
from surfscan.geometry import Pose6

CAM = CameraIntrinsics(alpha=np.deg2rad(69.5), beta=np.deg2rad(45.0), width=48, height=36, max_range=10.0)
POSE = Pose6(0, 0, 0)


def plane_depth(intr, normal, offset):
    """Analytic projective depth of the plane n.p = offset in camera frame."""
    dirs = intr.pixel_directions()
    denom = dirs @ np.asarray(normal, dtype=float)
    with np.errstate(divide="ignore"):
        z = offset / denom
    z[~np.isfinite(z)] = np.nan
    z[z <= 0] = np.nan
    return z


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        CameraIntrinsics(alpha=1.0, beta=1.0, width=2, height=10)
    with pytest.raises(ValueError, match="max_range"):
        CameraIntrinsics(1.2, 0.8, 12, 10, float("nan"))
    # An uncapped camera stays legal: render_depth casts its rays uncapped.
    assert CameraIntrinsics(1.2, 0.8, 12, 10, float("inf")).max_range == float("inf")


def test_fronto_parallel_wall_normals():
    depth = DepthImage(plane_depth(CAM, [0, 0, 1], 2.0), POSE)
    normals = estimate_normal_map(depth, CAM)
    valid = np.isfinite(normals[..., 0])
    assert valid[1:-1, 1:-1].all()
    assert not valid[0].any() and not valid[-1].any()  # borders invalid
    assert np.allclose(normals[valid], [0, 0, -1], atol=1e-9)


def test_tilted_wall_normal_angle():
    th = np.deg2rad(45.0)
    n = np.array([np.sin(th), 0.0, np.cos(th)])
    depth = DepthImage(plane_depth(CAM, n, 2.0), POSE)
    normals = estimate_normal_map(depth, CAM)
    valid = np.isfinite(normals[..., 0])
    assert valid.sum() > 100
    # Camera-facing convention flips the plane normal.
    dots = normals[valid] @ (-n)
    angles = np.arccos(np.clip(dots, -1, 1))
    assert np.abs(angles).max() < 1e-3
    assert np.degrees(np.abs(angles)).mean() < 0.5


def test_isolated_pixel_invalid():
    data = np.full((5, 5), np.nan)
    data[2, 2] = 2.0
    normals = estimate_normal_map(DepthImage(data, POSE), CAM_small())
    assert not np.isfinite(normals[..., 0]).any()


def test_depth_discontinuity_invalidates():
    data = np.full((5, 7), 2.0)
    data[:, 4:] = 4.0  # 2 m jump
    normals = estimate_normal_map(DepthImage(data, POSE), CAM_small(), jump=0.3)
    valid = np.isfinite(normals[..., 0])
    assert valid[1:-1, 1:3].all()
    assert not valid[:, 3:5].any()


def test_small_image_rejected():
    with pytest.raises(ValueError, match="3x3"):
        estimate_normal_map(DepthImage(np.full((2, 5), 1.0), POSE), CAM_small())


def CAM_small():
    return CameraIntrinsics(alpha=1.0, beta=1.0, width=7, height=5, max_range=10.0)
