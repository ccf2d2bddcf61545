"""Depth camera model: intrinsics, depth images, surface normal estimation.

Camera frame convention: +z along the optical axis, +x right, +y down.
Depths are projective (distance along the optical axis).  Invalid pixels
are NaN.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels

__all__ = ["CameraIntrinsics", "DepthImage", "estimate_normal_map", "DEPTH_JUMP"]

# Depth difference (meters) between neighbouring pixels beyond which they
# lie across a discontinuity, so no normal is estimated across them.
DEPTH_JUMP = 0.3


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera described by its field of view and image size."""

    alpha: float  # horizontal FOV, radians
    beta: float  # vertical FOV, radians
    width: int = 80
    height: int = 60
    max_range: float = 5.0

    def __post_init__(self):
        if not (0.0 < self.alpha < np.pi and 0.0 < self.beta < np.pi):
            raise ValueError("FOV angles must lie in (0, pi)")
        if self.width < 3 or self.height < 3:
            raise ValueError("image must be at least 3x3 pixels")
        # An infinite range stays legal: `render_depth` casts uncapped rays.
        if not self.max_range > 0.0:
            raise ValueError(f"max_range must be positive, got {self.max_range}")

    @property
    def fx(self):
        return (self.width / 2.0) / np.tan(self.alpha / 2.0)

    @property
    def fy(self):
        return (self.height / 2.0) / np.tan(self.beta / 2.0)

    @property
    def cx(self):
        return (self.width - 1) / 2.0

    @property
    def cy(self):
        return (self.height - 1) / 2.0

    def pixel_offsets(self):
        """Camera-frame x of each image column and y of each image row on
        the z = 1 plane: (W,) and (H,) arrays."""
        u = (np.arange(self.width) - self.cx) / self.fx
        v = (np.arange(self.height) - self.cy) / self.fy
        return u, v

    def pixel_directions(self):
        """(H, W, 3) camera-frame ray directions, z-component 1, so the ray
        parameter equals projective depth."""
        uu, vv = np.meshgrid(*self.pixel_offsets())
        return np.stack([uu, vv, np.ones_like(uu)], axis=-1)


@dataclass(frozen=True)
class DepthImage:
    """Projective depth per pixel (meters); NaN marks invalid pixels."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("depth data must be 2-D (height x width)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]


def camera_axes_world(pose):
    """World-frame (right, down, forward) unit vectors of a camera mounted
    level on the robot body, optical axis along the body +x."""
    c, s = np.cos(pose.psi), np.sin(pose.psi)
    return np.array([s, -c, 0.0]), np.array([0.0, 0.0, -1.0]), np.array([c, s, 0.0])


def estimate_normal_map(depth, intrinsics):
    """Per-pixel unit surface normals in the camera frame.

    Normals come from the cross product of central-difference tangents of
    the back-projected points and are oriented to face the camera.  Border
    pixels, pixels with invalid neighbors and pixels across depth
    discontinuities larger than `DEPTH_JUMP` meters are NaN.
    """
    if depth.height < 3 or depth.width < 3:
        raise ValueError("normal estimation needs at least a 3x3 image")
    return kernels.normals_from_depth(
        np.ascontiguousarray(depth.data),
        float(intrinsics.fx),
        float(intrinsics.fy),
        float(intrinsics.cx),
        float(intrinsics.cy),
        DEPTH_JUMP,
    )
