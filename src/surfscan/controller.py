"""Kinematic reference tracking with velocity saturation and swept-segment
collision checks.  Stands in for a full trajectory-tracking controller: the
supervisor only needs the robot to converge on the commanded view pose."""

import numpy as np

from .geometry import ViewPose4, wrap_angle
from .world import is_collision_free

__all__ = ["track_step", "add_odometry_noise"]


def track_step(pose, ref, vmap, cfg):
    """One control step of length `cfg.dt` from `pose` toward the reference
    view pose, with the `ScenarioConfig`'s robot limits.  Returns the new
    pose and the blocked flag.

    Position advances along the straight line to the reference, capped at
    v_max*dt; yaw turns the shortest way, capped at w_max*dt.  If the swept
    position segment does not keep `cfg.inflation` clearance the robot holds
    position (yaw still turns) and the step is flagged blocked.
    """
    dt = cfg.dt
    pos = pose.position
    target = np.array([ref.x, ref.y, ref.z])
    delta = target - pos
    dist = float(np.linalg.norm(delta))
    step = min(dist, cfg.v_max * dt)
    new_pos = pos if dist < 1e-12 else pos + delta * (step / dist)

    dpsi = wrap_angle(ref.psi - pose.psi)
    dpsi = float(np.clip(dpsi, -cfg.w_max * dt, cfg.w_max * dt))
    new_psi = wrap_angle(pose.psi + dpsi)

    blocked = False
    if step > 1e-12 and not is_collision_free(vmap, (pos, new_pos), cfg.inflation):
        new_pos = pos
        blocked = True

    return ViewPose4(new_pos[0], new_pos[1], new_pos[2], new_psi), blocked


def add_odometry_noise(pose, sigma_xy, sigma_psi, rng):
    """Gaussian perturbation of the reported pose (the true pose is left
    untouched), drawn from the numpy Generator `rng`."""
    if sigma_xy < 0 or sigma_psi < 0:
        raise ValueError("noise sigmas must be non-negative")
    if sigma_xy == 0 and sigma_psi == 0:
        return pose
    dx, dy = rng.normal(0.0, sigma_xy, size=2) if sigma_xy > 0 else (0.0, 0.0)
    dpsi = rng.normal(0.0, sigma_psi) if sigma_psi > 0 else 0.0
    return ViewPose4(pose.x + dx, pose.y + dy, pose.z, wrap_angle(pose.psi + dpsi))
