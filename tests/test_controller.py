import dataclasses

import numpy as np
import pytest

from surfscan.controller import add_odometry_noise, track_step
from surfscan.geometry import ViewPose4, wrap_angle
from surfscan.scenario import demo_scenario
from surfscan.world import VoxelMap, is_collision_free

# v_max 0.8 m/s, w_max 1.0 rad/s, inflation 0.5 m, dt 0.1 s.
CFG = demo_scenario("nominal")


def free_map():
    return VoxelMap.empty((-5, -5, 0), (15, 5, 2), 0.1)


def test_track_step_hold_at_reference():
    pose = ViewPose4(1, 2, 0.6, 0.3)
    cfg = dataclasses.replace(CFG, dt=0.5)
    new, blocked = track_step(pose, ViewPose4(1, 2, 0.6, 0.3), free_map(), cfg)
    assert not blocked
    assert new == pose


def test_track_step_saturated_advance():
    cfg = dataclasses.replace(CFG, dt=0.5)
    new, blocked = track_step(ViewPose4(0, 0, 0.6), ViewPose4(1.0, 0.0, 0.6, 0.0), free_map(), cfg)
    assert not blocked
    assert new.x == pytest.approx(0.4, abs=1e-12)  # exactly v_max * dt
    assert new.y == 0.0


def test_track_step_blocked_by_wall(wall_map):
    cfg = dataclasses.replace(CFG, dt=0.5)
    new, blocked = track_step(ViewPose4(5.3, 0.0, 0.6), ViewPose4(7.0, 0.0, 0.6, 0.0), wall_map, cfg)
    assert blocked
    assert (new.x, new.y, new.z) == (5.3, 0.0, 0.6)


def test_track_step_saturation_invariants(rng):
    vmap = free_map()
    pose = ViewPose4(0, 0, 0.6)
    for _ in range(200):
        ref = ViewPose4(rng.uniform(-3, 10), rng.uniform(-3, 3), 0.6, rng.uniform(-np.pi, np.pi))
        new, _ = track_step(pose, ref, vmap, CFG)
        dp = np.linalg.norm(new.position - pose.position)
        dpsi = abs(wrap_angle(new.psi - pose.psi))
        assert dp <= CFG.v_max * CFG.dt + 1e-12
        assert dpsi <= CFG.w_max * CFG.dt + 1e-12
        pose = new


def test_track_step_converges_in_free_space():
    vmap = free_map()
    pose = ViewPose4(0, 0, 0.6)
    ref = ViewPose4(3.0, 1.0, 0.6, 1.2)
    prev = np.inf
    for _ in range(200):
        pose, blocked = track_step(pose, ref, vmap, CFG)
        assert not blocked
        d = float(np.linalg.norm(pose.position - ref.position))
        assert d <= prev + 1e-12
        prev = d
    assert prev < 1e-3
    assert abs(wrap_angle(pose.psi - ref.psi)) < 1e-9


def test_track_step_pose_stays_collision_free(wall_map):
    pose = ViewPose4(4.0, 0.0, 0.6)
    ref = ViewPose4(8.0, 0.0, 0.6, 0.0)  # behind the wall
    for _ in range(100):
        pose, _ = track_step(pose, ref, wall_map, CFG)
        assert is_collision_free(wall_map, pose.position, CFG.inflation)


def test_odometry_noise_zero_sigma_is_identity():
    pose = ViewPose4(1, 2, 3, 0.5)
    assert add_odometry_noise(pose, 0.0, 0.0, 42) == pose


def test_odometry_noise_reproducible():
    pose = ViewPose4(1, 2, 3)
    a = [add_odometry_noise(pose, 0.05, 0.01, np.random.default_rng(9)) for _ in range(1)]
    b = [add_odometry_noise(pose, 0.05, 0.01, np.random.default_rng(9)) for _ in range(1)]
    assert a == b


def test_odometry_noise_statistics():
    pose = ViewPose4(0, 0, 0)
    rng = np.random.default_rng(3)
    xs = np.array([add_odometry_noise(pose, 0.05, 0.0, rng).x for _ in range(1000)])
    assert np.std(xs) == pytest.approx(0.05, rel=0.1)


def test_invalid_parameters():
    # The robot limits and the step length are checked where the scenario
    # is built, so no track_step call ever sees them.
    with pytest.raises(ValueError, match="robot.v_max"):
        dataclasses.replace(CFG, v_max=-1.0)
    with pytest.raises(ValueError, match="robot.w_max"):
        dataclasses.replace(CFG, w_max=-1.0)
    with pytest.raises(ValueError, match="dt"):
        dataclasses.replace(CFG, dt=0.0)
    with pytest.raises(ValueError):
        add_odometry_noise(ViewPose4(0, 0, 0), -0.1, 0.0, 1)
