"""Reactive local view planning from instantaneous range sensing.

The next view pose is computed from the nearest observed surface point: an
ego frame is built around the robot-to-surface direction, the range error
to the desired viewing distance drives the approach term, and the camera
overlap constraints drive the lateral and vertical sweep steps.  Local
paths are predicted by recursing this rule over a horizon with fresh
virtual sensing at every predicted pose.
"""

import numpy as np

from .geometry import DegenerateGeometryError, PathSegment, ViewPose4, nearest_point
from .world import sample_cloud

__all__ = ["ego_frame", "predict_local_path"]

UP = np.array([0.0, 0.0, 1.0])


def ego_frame(position, p_nn):
    """Orthonormal view vectors around the robot-to-surface direction:
    nu_x toward the surface, nu_y lateral (up x nu_x), nu_z completing the
    right-handed frame."""
    d = np.asarray(p_nn, dtype=np.float64) - np.asarray(position, dtype=np.float64)
    r = float(np.linalg.norm(d))
    if r < 1e-12:
        raise DegenerateGeometryError("surface point coincides with the robot position")
    nu_x = d / r
    lateral = np.cross(UP, nu_x)
    ln = float(np.linalg.norm(lateral))
    if ln < 1e-9:
        raise DegenerateGeometryError("surface directly above/below the robot: ego frame undefined")
    nu_y = lateral / ln
    nu_z = np.cross(nu_x, nu_y)
    return nu_x, nu_y, nu_z, r


def _next_pose(pos, p_nn, guide_pos, cfg):
    """Next constraint-satisfying view pose from the position `pos` and its
    nearest surface point `p_nn`, sweeping toward the guide position.

    `cfg` is the mission's `ScenarioConfig`; its `view` constraints, its
    `camera`'s FOV and `z_band` are read.  The approach term closes the gap
    between the sensed range and the desired viewing distance; the lateral
    step advances by the horizontal overlap footprint along the lateral
    axis, signed toward `guide_pos` (+ on ties); the vertical step applies
    the vertical overlap footprint, clamped to the height band (None keeps
    the full vertical term).  Yaw faces the nearest surface point.
    """
    c, cam = cfg.view, cfg.camera
    nu_x, nu_y, nu_z, r = ego_frame(pos, p_nn)
    sweep_sign = 1.0 if float(nu_y @ (guide_pos - pos)) >= 0.0 else -1.0
    d_insp = r - c.d_view
    d_hov, d_vov = c.spacing(cam, r)
    nxt = pos + nu_x * d_insp + nu_y * (sweep_sign * d_hov) + nu_z * d_vov
    if cfg.z_band is not None:
        lo, hi = cfg.z_band
        nxt = nxt.copy()
        nxt[2] = min(max(nxt[2], lo), hi)
    psi = float(np.arctan2(nu_x[1], nu_x[0]))
    return ViewPose4(nxt[0], nxt[1], nxt[2], psi)


def predict_local_path(odom, vmap, guide, cfg, first_cloud):
    """Predict the local inspection path from the `ViewPose4` `odom` along the
    `PathSegment` `guide`.

    One pose is predicted per guide pose (the supervisor sizes the guide to
    the horizon, shrinking it near the tour end).  The first step reads
    `first_cloud`, the scan already taken at `odom`; each later step
    re-senses the scene at the previously predicted pose (a fresh virtual
    scan of `vmap` with the `ScenarioConfig`'s `sense_range` and
    `sense_rays`, nearest returns only) and applies
    the next-view rule with the lateral sweep directed toward the
    corresponding guide pose.  Returns (path, short): `short` is True
    when sensing came up empty at a virtual pose and the prediction was
    truncated.  An empty `first_cloud` raises NoSurfaceError (from
    `nearest_point`).
    """
    pos, cloud, poses = odom.position, first_cloud, []
    for g in guide:
        if poses:
            (cloud,) = sample_cloud(vmap, [pos], cfg.sense_range, cfg.sense_rays, nearest=True)
            if cloud.is_empty:
                return PathSegment(poses), True
        p_nn, _ = nearest_point(cloud, pos)
        nxt = _next_pose(pos, p_nn, g.position, cfg)
        poses.append(nxt)
        pos = nxt.position
    return PathSegment(poses), False
