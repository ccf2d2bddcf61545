import dataclasses

import numpy as np
import pytest

from surfscan.world import CameraIntrinsics
from surfscan.geometry import (
    DegenerateGeometryError,
    NoSurfaceError,
    PathSegment,
    ViewPose4,
    discrete_frechet,
)
from surfscan.local_plan import ego_frame, predict_local_path
from surfscan.scenario import demo_scenario
from surfscan.world import Box, VoxelMap, sample_cloud

# The local planner reads the scenario's view constraints, camera FOV,
# height band and sensing setup.  BANDED clamps heights to 0.6 m, CFG keeps
# the full vertical term.
BANDED = demo_scenario("nominal")
CFG = dataclasses.replace(BANDED, z_band=None)
# The grid's horizontal spacing, which the lateral sweep steps by at d_view.
SPACING_H = BANDED.view.spacing(BANDED.camera, BANDED.view.d_view)[0]


def wall_foot(wall_x, pos):
    """The exact perpendicular foot of `pos` on the plane x=wall_x."""
    return np.array([wall_x, pos[1], pos[2]])


# A one-pose guide never re-senses, so the map is not read.
UNREAD = VoxelMap.empty((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.5)


def next_view(odom, p_nn, cfg, side=1.0):
    """The next view pose from the nearest return `p_nn` of the scan taken
    at `odom`: a one-pose
    `predict_local_path` whose guide lies 1 m to the `side` of `odom` in y,
    so the lateral sweep goes toward +y (side 1) or -y (side -1) wherever
    the ego frame's lateral axis is +y."""
    guide = PathSegment([odom.position + [0.0, side, 0.0]])
    path, short = predict_local_path(odom, UNREAD, guide, cfg, p_nn)
    assert not short and len(path) == 1
    return path[0]


# ---------------------------------------------------------------- ego frame


def test_ego_frame_orthonormal(rng):
    for _ in range(100):
        pos = rng.normal(size=3)
        p_nn = pos + rng.normal(size=3)
        if abs(p_nn[0] - pos[0]) < 0.1 and abs(p_nn[1] - pos[1]) < 0.1:
            continue  # skip near-vertical offsets
        nx, ny, nz, r = ego_frame(pos, p_nn)
        for v in (nx, ny, nz):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
        assert abs(nx @ ny) < 1e-9 and abs(nx @ nz) < 1e-9 and abs(ny @ nz) < 1e-9
        assert np.allclose(np.cross(nx, ny), nz, atol=1e-9)


def test_ego_frame_degenerate_vertical():
    with pytest.raises(DegenerateGeometryError):
        ego_frame([0, 0, 0], [0, 0, 3.0])


def test_ego_frame_coincident_point():
    with pytest.raises(DegenerateGeometryError):
        ego_frame([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- next view pose


def test_next_view_pose_closed_form():
    pose = next_view(ViewPose4(0, 0, 0), np.array([4.0, 0.0, 0.0]), CFG)
    assert pose.x == pytest.approx(2.000, abs=1e-3)
    assert pose.y == pytest.approx(2.220, abs=1e-3)
    assert pose.z == pytest.approx(1.326, abs=1e-3)
    assert pose.psi == pytest.approx(0.0, abs=1e-12)
    # Exact closed form.
    assert pose.y == pytest.approx(2 * np.tan(np.deg2rad(34.75)) * 4 * 0.4, abs=1e-12)
    assert pose.z == pytest.approx(2 * np.tan(np.deg2rad(22.5)) * 4 * 0.4, abs=1e-12)


def test_next_view_pose_sweeps_toward_the_guide():
    # A guide on the -y side mirrors the lateral step and nothing else.
    p_nn = np.array([4.0, 0.0, 0.0])
    plus = next_view(ViewPose4(0, 0, 0), p_nn, CFG)
    minus = next_view(ViewPose4(0, 0, 0), p_nn, CFG, side=-1.0)
    assert minus.y == -plus.y and minus.y < 0.0
    assert (minus.x, minus.z, minus.psi) == (plus.x, plus.z, plus.psi)


def test_next_view_pose_at_viewing_distance_range_term_vanishes():
    pose = next_view(ViewPose4(0, 0, 0), np.array([2.0, 0.0, 0.0]), CFG)
    assert pose.x == pytest.approx(0.0, abs=1e-12)  # no approach component


def test_next_view_pose_yaw_axis_case():
    pose = next_view(ViewPose4(0, 0, 0), np.array([0.0, 3.0, 0.0]), CFG)
    assert pose.psi == pytest.approx(np.pi / 2)


def test_next_view_pose_empty_cloud():
    # A scan that saw nothing has a NaN nearest return.
    with pytest.raises(NoSurfaceError):
        next_view(ViewPose4(0, 0, 0), np.full(3, np.nan), CFG)


def test_next_view_pose_z_band_clamp():
    pose = next_view(ViewPose4(0, 0, 0.6), np.array([4.0, 0.0, 0.6]), BANDED)
    assert pose.z == 0.6


def test_range_convergence_on_flat_wall():
    cfg = BANDED
    pos = ViewPose4(0.0, 0.0, 0.6)
    errors = []
    for _ in range(6):
        foot = wall_foot(6.0, pos.position)
        rng_now = abs(6.0 - pos.x)
        errors.append(abs(rng_now - cfg.view.d_view))
        nxt = next_view(pos, foot, cfg)
        pos = ViewPose4(nxt.x, nxt.y, nxt.z)
    assert errors[1] < 1e-9  # one step snaps the range
    assert all(b <= a + 1e-12 for a, b in zip(errors[1:], errors[2:]))


def test_overlap_spacing_on_flat_wall():
    cfg = BANDED
    pos = ViewPose4(4.0, 0.0, 0.6)  # already at d_view from x=6
    poses = []
    for _ in range(4):
        nxt = next_view(pos, wall_foot(6.0, pos.position), cfg)
        poses.append(nxt)
        pos = ViewPose4(nxt.x, nxt.y, nxt.z)
    laterals = np.diff([p.y for p in poses])
    assert np.allclose(laterals, SPACING_H, atol=1e-6)


def test_sweep_steps_by_the_camera_fov():
    # The sweep reads the FOV of the camera that renders, as the grid does:
    # at d_view it steps by the grid spacing.
    camera = CameraIntrinsics(alpha=np.deg2rad(50.0), beta=np.deg2rad(30.0))
    cfg = dataclasses.replace(CFG, camera=camera)
    pos = ViewPose4(4.0, 0.0, 0.6)
    nxt = next_view(pos, wall_foot(6.0, pos.position), cfg)
    spacing_h, spacing_v = cfg.view.spacing(camera, cfg.view.d_view)
    assert nxt.y - pos.y == pytest.approx(spacing_h, abs=1e-9)
    assert nxt.z - pos.z == pytest.approx(spacing_v, abs=1e-9)
    assert spacing_h < SPACING_H


def test_yaw_faces_surface():
    # A voxel ray cast from each predicted pose along its heading must hit
    # the observed wall.
    from surfscan import kernels

    vmap = make_scene(6.0)
    pos = ViewPose4(4.3, -2.0, 0.6)
    cfg = BANDED
    for _ in range(4):
        pose = next_view(pos, wall_foot(6.0, pos.position), cfg)
        origin = vmap.world_to_grid(pose.position)
        heading = np.array([[np.cos(pose.psi), np.sin(pose.psi), 0.0]]) / vmap.voxel_size
        t = kernels.raycast_batch(vmap.occ, origin, heading, 12.0, box=vmap.occupied_box)
        assert t[0] > 0.0
        pos = ViewPose4(pose.x, pose.y, pose.z)


# ---------------------------------------------------------------- prediction


def guide_line(x, y0, n, spacing, z=0.6):
    return PathSegment([[x, y0 + i * spacing, z, 0.0] for i in range(n)])


def predict(odom, vmap, guide, cfg):
    """`predict_local_path` from the nearest return of the scan taken at
    `odom`, as the supervisor calls it."""
    (first_nearest,) = sample_cloud(vmap, [odom.position], cfg.sense_range, cfg.sense_rays)
    return predict_local_path(odom, vmap, guide, cfg, first_nearest)


def make_scene(face_x):
    return VoxelMap.from_boxes(
        [Box((face_x, -6.0, 0.0), (face_x + 0.4, 8.0, 2.4))],
        0.1,
        bounds=((-1.0, -7.0, 0.0), (10.0, 9.0, 2.4)),
    )


def test_prediction_single_step_equals_next_view():
    # A one-pose prediction is the next-view rule at the scan's nearest
    # return.
    vmap = make_scene(6.0)
    odom = ViewPose4(4.0, 0.0, 0.6)
    cfg = BANDED
    path, short = predict(odom, vmap, guide_line(4.0, 1.11, 1, 1.11), cfg)
    assert not short and len(path) == 1
    direct = next_view(odom, sample_cloud(vmap, [odom.position], cfg.sense_range, cfg.sense_rays)[0], cfg)
    assert np.allclose(path[0].as_array(), direct.as_array(), atol=1e-12)


def test_prediction_follows_global_plan_on_nominal_wall():
    vmap = make_scene(6.0)
    odom = ViewPose4(4.0, -2.0, 0.6)
    guide = guide_line(4.0, -2.0 + SPACING_H, 5, SPACING_H)
    path, short = predict(odom, vmap, guide, BANDED)
    assert not short
    assert discrete_frechet(path, guide) < 0.2


def test_prediction_shifts_with_receded_wall():
    vmap = make_scene(7.0)  # surface 1 m behind where the guide was planned
    odom = ViewPose4(4.0, -2.0, 0.6)
    guide = guide_line(4.0, -2.0 + SPACING_H, 5, SPACING_H)
    path, short = predict(odom, vmap, guide, BANDED)
    assert not short
    f = discrete_frechet(path, guide)
    assert f == pytest.approx(1.0, abs=0.2)
    # Every predicted pose sits near the new 2 m standoff line x = 5.
    assert np.allclose(path.positions[:, 0], 5.0, atol=0.15)


def test_prediction_truncates_without_surface():
    # Narrow wall and a sense range barely beyond the standoff: one lateral
    # sweep step moves the virtual pose out of sensing range entirely.
    vmap = VoxelMap.from_boxes(
        [Box((6.0, -0.2, 0.0), (6.4, 0.2, 2.4))],
        0.1,
        bounds=((-1.0, -4.0, 0.0), (10.0, 4.0, 2.4)),
    )
    odom = ViewPose4(4.0, 0.0, 0.6)
    guide = guide_line(4.0, 2.0, 5, 1.11)
    cfg = dataclasses.replace(BANDED, sense_range=2.05, sense_rays=512)
    path, short = predict(odom, vmap, guide, cfg)
    assert short
    assert 1 <= len(path) < 5


def test_prediction_errors_when_blind():
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 2), 0.1)
    with pytest.raises(NoSurfaceError):
        predict(ViewPose4(2, 2, 0.6), vmap, guide_line(2, 2, 3, 1.0), BANDED)
