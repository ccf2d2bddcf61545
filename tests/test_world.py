import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from strategies import grid_coordinate, occupancy_grids, wall_slabs
from surfscan import kernels
from surfscan.depthcam import CameraIntrinsics, camera_axes_world
from surfscan.fileio import _load_xyz_lines, load_xyz
from surfscan.geometry import ViewPose4, nearest_point
from surfscan.world import (
    Box,
    MorphologyDelta,
    Scene,
    VoxelMap,
    apply_delta,
    fibonacci_directions,
    is_collision_free,
    load_map,
    render_depth,
    sample_cloud,
)

CAM = CameraIntrinsics(alpha=np.deg2rad(69.5), beta=np.deg2rad(45.0), width=40, height=30, max_range=8.0)


def occupied_at(vmap, p):
    """The occupancy of the voxel holding the world point p (inside the grid)."""
    return bool(vmap.occ[tuple(np.floor(vmap.world_to_grid(p)).astype(int))])


# ---------------------------------------------------------------- xyz loading


def test_load_map_single_point(tmp_path):
    f = tmp_path / "one.xyz"
    f.write_text("# a comment\n0.0 0.0 0.0\n")
    vmap = load_map(f, 0.1, None)
    assert np.count_nonzero(vmap.occ) == 1


def test_load_map_dedupes_same_voxel(tmp_path):
    f = tmp_path / "two.xyz"
    f.write_text("0.01 0.02 0.03\n0.04 0.05 0.06\n")
    assert np.count_nonzero(load_map(f, 0.1, None).occ) == 1


def test_load_map_planar_grid(tmp_path):
    pts = [(0.05 + 0.1 * i, 0.05 + 0.1 * j, 0.05) for i in range(10) for j in range(10)]
    f = tmp_path / "grid.xyz"
    f.write_text("\n".join(f"{x} {y} {z}" for x, y, z in pts))
    assert np.count_nonzero(load_map(f, 0.1, None).occ) == 100


def voxelized_in_one_pass(points, vmap):
    """The voxels of `points` on `vmap`'s grid, from one fancy index over
    all of them, as `VoxelMap.from_points` computed them before it went
    block by block."""
    occ = np.zeros(vmap.shape, dtype=bool)
    idx = np.floor((points - vmap.origin) / vmap.voxel_size).astype(int)
    idx = np.clip(idx, 0, np.array(occ.shape) - 1)
    occ[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return occ


@pytest.mark.parametrize("count", [1, 65536, 65537, 140001])
def test_from_points_in_blocks_matches_one_pass(count):
    # Points inside and outside the bounds (those are clipped), on either
    # side of a block boundary.
    points = np.random.default_rng(count).uniform(-2.0, 12.0, (count, 3))
    vmap = VoxelMap.from_points(points, 0.05, ((0.0, 0.0, 0.0), (10.0, 8.0, 3.0)))
    assert np.array_equal(vmap.occ, voxelized_in_one_pass(points, vmap))


def test_load_xyz_reports_line_number(tmp_path):
    f = tmp_path / "bad.xyz"
    f.write_text("0 0 0\n1 2\n")
    with pytest.raises(ValueError, match=":2"):
        load_xyz(f)
    f.write_text("0 0 zero\n")
    with pytest.raises(ValueError, match=":1"):
        load_xyz(f)


def test_load_xyz_matches_line_parser(tmp_path):
    f = tmp_path / "survey.xyz"
    f.write_text(
        "# survey\n\n1e-3 -2.5E+2 3\n  4\t5 6  # trailing\n\n# note\n"
        "7.000000000000001 0.1 1e308\n-0.0 +.5 5.\n"
    )
    got = load_xyz(f)
    assert got.shape == (4, 3)
    assert np.array_equal(got.view(np.int64), _load_xyz_lines(f).view(np.int64))


def test_load_xyz_two_columns_names_line_one(tmp_path):
    f = tmp_path / "flat.xyz"
    f.write_text("0 0\n1 2\n")
    with pytest.raises(ValueError, match=r"flat\.xyz:1: expected 3 values, got 2"):
        load_xyz(f)


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_load_xyz_without_points(tmp_path, text):
    f = tmp_path / "none.xyz"
    f.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = load_xyz(f)
    assert points.shape == (0, 3) and points.dtype == np.float64


# ---------------------------------------------------------------- deltas


def test_apply_delta_identity(wall_map):
    out = apply_delta(wall_map, MorphologyDelta())
    assert np.array_equal(out.occ, wall_map.occ)


def test_apply_delta_remove_everything(wall_map):
    lo, hi = wall_map.bounds
    out = apply_delta(wall_map, MorphologyDelta(removals=(Box(tuple(lo), tuple(hi)),)))
    assert np.count_nonzero(out.occ) == 0


def test_apply_delta_slab_count(wall_map):
    # 1 m thick slab across the middle of the wall.
    slab = Box((6.0, -1.0, 0.0), (6.4, 0.0, 2.4))
    before = np.count_nonzero(wall_map.occ)
    out = apply_delta(wall_map, MorphologyDelta(removals=(slab,)))
    slab_voxels = 4 * 10 * 24
    assert before - np.count_nonzero(out.occ) == slab_voxels


def test_apply_delta_removals_idempotent(wall_map):
    slab = Box((6.0, -1.0, 0.0), (6.4, 0.0, 2.4))
    once = apply_delta(wall_map, MorphologyDelta(removals=(slab,)))
    twice = apply_delta(once, MorphologyDelta(removals=(slab,)))
    assert np.array_equal(once.occ, twice.occ)


def test_apply_delta_addition_grows_grid(wall_map):
    out = apply_delta(wall_map, MorphologyDelta(additions=(Box((12.0, 0.0, 0.0), (12.5, 0.5, 0.5)),)))
    assert out.bounds[1][0] >= 12.5
    assert np.count_nonzero(out.occ) == np.count_nonzero(wall_map.occ) + 5 * 5 * 5
    assert occupied_at(out, [12.25, 0.25, 0.25])


def numpy_box_slices(vmap, box):
    """Reference: the 3-vector numpy form of `VoxelMap._box_slices`."""
    h = vmap.voxel_size
    lo = np.floor((np.asarray(box.lo) - vmap.origin) / h + 1e-9).astype(int)
    hi = np.ceil((np.asarray(box.hi) - vmap.origin) / h - 1e-9).astype(int)
    hi = np.maximum(hi, lo + 1)
    lo = np.clip(lo, 0, vmap.occ.shape)
    hi = np.clip(hi, 0, vmap.occ.shape)
    return lo, hi


@st.composite
def grids_and_boxes(draw):
    """A grid with a random origin and voxel size, and a box inside it,
    partly or wholly outside it, of zero thickness on some axes, or with
    corners on voxel faces."""
    voxel_size = draw(st.one_of(st.sampled_from([0.05, 0.1, 0.25]), st.floats(0.01, 1.0)))
    origin = tuple(draw(st.floats(-20.0, 20.0)) for _ in range(3))
    shape = tuple(draw(st.integers(1, 12)) for _ in range(3))
    lo, hi = [], []
    for o, n in zip(origin, shape):
        on_face = st.integers(-3, n + 3).map(lambda i, o=o: o + i * voxel_size)
        a = draw(st.one_of(on_face, st.floats(o - 4 * voxel_size, o + (n + 4) * voxel_size)))
        size = draw(st.one_of(st.just(0.0), st.integers(1, n + 3).map(lambda i: i * voxel_size),
                              st.floats(0.0, (n + 4) * voxel_size)))
        lo.append(a)
        hi.append(a + size)
    return VoxelMap(origin, voxel_size, np.zeros(shape, dtype=bool)), Box(tuple(lo), tuple(hi))


@given(grids_and_boxes())
@settings(max_examples=400, deadline=None)
@example((VoxelMap((0.0, 0.0, 0.0), 0.1, np.zeros((4, 4, 4), dtype=bool)), Box((0.3, 0.3, 0.3), (0.3, 0.3, 0.3))))
@example((VoxelMap((0.0, 0.0, 0.0), 0.1, np.zeros((4, 4, 4), dtype=bool)), Box((-2.0, 0.1, 0.0), (-1.0, 0.2, 9.0))))
@example((VoxelMap((0.0, 0.0, 0.0), 0.1, np.zeros((4, 4, 4), dtype=bool)), Box((5.0, 5.0, 5.0), (6.0, 6.0, 6.0))))
def test_box_slices_match_numpy_reference(case):
    vmap, box = case
    lo, hi = vmap._box_slices(box)
    ref_lo, ref_hi = numpy_box_slices(vmap, box)
    assert all(type(i) is int for i in lo + hi)
    assert lo == ref_lo.tolist() and hi == ref_hi.tolist()


def test_box_slices_of_far_corners_clip_to_the_grid():
    # A corner at 1e308 overflowed its voxel index (an OverflowError); it
    # now covers what a corner at 1e30 covers.
    vmap = VoxelMap((0.0, 0.0, 0.0), 0.1, np.zeros((4, 4, 4), dtype=bool))
    for far in (1e30, 1e308):
        assert vmap._box_slices(Box((0.3, -far, 0.3), (far, 0.2, 0.3))) == ([3, 0, 3], [4, 2, 4])
        assert vmap._box_slices(Box((-far, -far, -far), (-far / 2, 0.0, far))) == ([0, 0, 0], [0, 0, 4])


def test_empty_map_rejects_a_grid_too_large_to_index():
    # A 1e30 m bound cast a NaN-sized grid to int (a RuntimeWarning, then
    # "negative dimensions are not allowed").
    for hi in (1e30, 1e308):
        with pytest.raises(ValueError, match="are too many to index"):
            VoxelMap.empty((0.0, 0.0, 0.0), (hi, 1.0, 1.0), 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("corner", ["lo", "hi"])
def test_box_rejects_non_finite_corners(bad, corner):
    lo, hi = [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]
    (lo if corner == "lo" else hi)[1] = bad
    with pytest.raises(ValueError, match="Box corners must be finite"):
        Box(tuple(lo), tuple(hi))


def test_scene_from_delta_reproducible(wall_map):
    delta = MorphologyDelta(removals=(Box((6.0, -1.0, 0.0), (6.4, 0.0, 2.4)),))
    scene = Scene.from_delta(wall_map, delta)
    again = apply_delta(wall_map, delta)
    assert np.array_equal(scene.current.occ, again.occ)


# ---------------------------------------------------------------- depth rendering


def test_render_depth_flat_wall(wall_map):
    pose = ViewPose4(4.0, 0.0, 1.2, 0.0)  # 2 m from the face, looking +x
    img = render_depth(wall_map, pose, CAM)
    cy, cx = CAM.height // 2, CAM.width // 2
    assert img.data[cy, cx] == pytest.approx(2.0, abs=wall_map.voxel_size)
    # Projective depth: every wall pixel reports the same axial distance.
    valid = np.isfinite(img.data)
    assert valid[cy, cx]
    assert np.nanmax(np.abs(img.data[valid] - 2.0)) <= wall_map.voxel_size


def test_render_depth_empty_space():
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    img = render_depth(vmap, ViewPose4(2.5, 2.5, 2.5), CAM)
    assert not np.isfinite(img.data).any()


def test_render_depth_oblique_wall_matches_plane_equation(wall_map):
    # Yaw 30 deg: ray-plane depth = perpendicular distance / cos(pixel angle to plane normal).
    yaw = np.deg2rad(30.0)
    pose = ViewPose4(4.0, 0.0, 1.2, yaw)
    img = render_depth(wall_map, pose, CAM)
    dirs = CAM.pixel_directions()
    right = np.array([np.sin(yaw), -np.cos(yaw), 0.0])
    down = np.array([0.0, 0.0, -1.0])
    fwd = np.array([np.cos(yaw), np.sin(yaw), 0.0])
    world = dirs[..., 0, None] * right + dirs[..., 1, None] * down + dirs[..., 2, None] * fwd
    expected = 2.0 / world[..., 0]  # t with dir_x scaled so axis component is 1
    valid = np.isfinite(img.data)
    assert valid.sum() > 50
    assert np.abs(img.data[valid] - expected[valid]).max() < 3 * wall_map.voxel_size


def test_render_depth_deterministic(wall_map):
    pose = ViewPose4(4.0, 0.3, 1.0, 0.1)
    a = render_depth(wall_map, pose, CAM)
    b = render_depth(wall_map, pose, CAM)
    assert np.array_equal(a.data, b.data, equal_nan=True)


def scalar_depth(vmap, pose, cam):
    """The depths of `raycast_batch_scalar`, as plain Python, on the rays
    of the pixel grid `pose` sees through `cam`; misses are NaN."""
    right, down, forward = camera_axes_world(pose)
    pix = cam.pixel_directions()
    world = pix[..., 0, None] * right + pix[..., 1, None] * down + pix[..., 2, None] * forward
    dirs = np.ascontiguousarray(world.reshape(-1, 3) / vmap.voxel_size)
    origin = vmap.world_to_grid(pose.position)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = kernels.raycast_batch_scalar(vmap.occ, origin, dirs, float(cam.max_range))
    depth = t.reshape(cam.height, cam.width)
    depth[depth <= 0.0] = np.nan
    return depth


def same_depths(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def camera_frames(draw):
    """A small map (random fill or a wall slab with an optional pocket), a
    pose inside its grid (on voxel faces and on both grid faces too) or
    outside it, at yaw 0, +-pi/2, pi or random, and a
    camera of odd or even width with a range below the distance to the
    occupied voxels, beyond the grid or unbounded."""
    occ = draw(st.one_of(occupancy_grids(max_side=10), wall_slabs()))
    voxel_size = draw(st.sampled_from([0.1, 0.25, 1.0]))
    origin = np.array(draw(st.sampled_from([(0.0, 0.0, 0.0), (-7.3, 120.1, 0.35)])))
    vmap = VoxelMap(origin, voxel_size, occ)
    g = [
        draw(st.one_of(st.floats(0.0, float(n)), st.integers(0, n).map(float), grid_coordinate(n)))
        for n in occ.shape
    ]
    yaw = draw(st.one_of(st.sampled_from([0.0, np.pi / 2, -np.pi / 2, np.pi]), st.floats(-np.pi, np.pi)))
    pose = ViewPose4(*(origin + np.array(g) * voxel_size), yaw)
    cam = CameraIntrinsics(
        alpha=draw(st.floats(0.2, 3.0)),
        beta=draw(st.floats(0.2, 3.0)),
        width=draw(st.integers(3, 12)),
        height=draw(st.integers(3, 10)),
        max_range=draw(st.one_of(st.floats(0.01, 0.5), st.floats(0.5, 40.0), st.just(math.inf))),
    )
    return vmap, pose, cam


@given(frame=camera_frames())
@settings(max_examples=150, deadline=None)
def test_render_depth_matches_scalar_oracle(frame):
    vmap, pose, cam = frame
    with mock.patch.object(kernels, "raycast_level_frame", wraps=kernels.raycast_level_frame) as level:
        got = render_depth(vmap, pose, cam).data
    assert same_depths(got, scalar_depth(vmap, pose, cam))
    g = vmap.world_to_grid(pose.position)
    inside = np.all((g >= 0.0) & (g <= vmap.shape))
    framed = inside and math.isfinite(cam.max_range)
    framed = framed and vmap.occupied_box is not None
    assert level.called == framed


SMALL_CAM = CameraIntrinsics(alpha=np.deg2rad(69.5), beta=np.deg2rad(45.0), width=12, height=10, max_range=12.0)


def test_render_depth_casts_a_level_frame_from_inside_the_grid(wall_map):
    with (
        mock.patch.object(kernels, "raycast_level_frame", wraps=kernels.raycast_level_frame) as level,
        mock.patch.object(kernels, "raycast_batch", side_effect=AssertionError("raycast_batch called")),
    ):
        got = render_depth(wall_map, ViewPose4(4.0, 0.3, 1.0, 0.1), SMALL_CAM).data
    assert level.call_count == 1
    assert np.isfinite(got).any()


@pytest.mark.parametrize(
    "pose, cam",
    [
        (ViewPose4(-3.0, 0.3, 1.0, 0.1), SMALL_CAM),
        (ViewPose4(4.0, 0.3, 1.0, 0.1), CameraIntrinsics(1.2, 0.8, 12, 10, math.inf)),
    ],
    ids=["outside_grid", "unbounded_range"],
)
def test_render_depth_casts_other_frames_through_raycast_batch(wall_map, pose, cam):
    with (
        mock.patch.object(kernels, "raycast_level_frame", side_effect=AssertionError("frame kernel called")),
        mock.patch.object(kernels, "raycast_batch", wraps=kernels.raycast_batch) as batch,
    ):
        got = render_depth(wall_map, pose, cam).data
    assert batch.call_count == 1
    assert np.isfinite(got).any()
    assert same_depths(got, scalar_depth(wall_map, pose, cam))


# ---------------------------------------------------------------- cloud sampling


def test_sample_cloud_empty_map():
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    (cloud,) = sample_cloud(vmap, [[2.5, 2.5, 2.5]], 10.0, 256)
    assert cloud.is_empty
    assert assert_same_nearest(vmap, np.array([2.5, 2.5, 2.5]), 10.0, 256).is_empty


def box_room(height):
    """Closed 4 m x 4 m room with 0.2 m walls, floor and ceiling."""
    vmap = VoxelMap.from_boxes([Box((0, 0, 0), (4.4, 4.4, height))], 0.1, None)
    occ = np.asarray(vmap.occ)
    occ.setflags(write=True)
    occ[2:-2, 2:-2, 2:-2] = False
    occ.setflags(write=False)
    return vmap


def test_sample_cloud_box_room_bound():
    # Closed 4x4x4 room; robot at the center.
    vmap = box_room(4.4)
    center = np.array([2.2, 2.2, 2.2])
    (cloud,) = sample_cloud(vmap, [center], 10.0, 512)
    assert len(cloud) == 512
    dists = np.linalg.norm(cloud.points - center, axis=1)
    assert dists.max() <= 2 * np.sqrt(3) + 1e-9


def test_sample_cloud_hits_on_voxel_boundaries(wall_map):
    pos = np.array([4.0, 0.0, 1.2])
    (cloud,) = sample_cloud(wall_map, [pos], 8.0, 512)
    assert len(cloud) > 0
    h = wall_map.voxel_size
    for p in cloud.points:
        # Nudge along the ray: the voxel just past the hit is occupied.
        d = p - pos
        d /= np.linalg.norm(d)
        assert occupied_at(wall_map, p + 1e-6 * d)
        # And the hit lies on a voxel face: some coordinate is a grid plane.
        g = wall_map.world_to_grid(p)
        assert np.min(np.abs(g - np.round(g))) < 1e-6


def assert_same_nearest(vmap, pos, max_range, ray_count):
    """The nearest-mode cloud from `pos` gives `nearest_point` bit for bit the
    answer of the full cloud; returns it."""
    (full,) = sample_cloud(vmap, [pos], max_range, ray_count)
    (near,) = sample_cloud(vmap, [pos], max_range, ray_count, nearest=True)
    assert near.is_empty == full.is_empty
    if full.is_empty:
        return near
    p_full, d_full = nearest_point(full, pos)
    p_near, d_near = nearest_point(near, pos)
    assert np.array_equal(p_near.view(np.int64), p_full.view(np.int64))
    assert np.float64(d_near).view(np.int64) == np.float64(d_full).view(np.int64)
    return near


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_sample_cloud_nearest_matches_full_cloud(data):
    occ = data.draw(occupancy_grids())
    voxel_size = data.draw(st.sampled_from([0.1, 0.25, 1.0]))
    origin = np.array(data.draw(st.sampled_from([(0.0, 0.0, 0.0), (-7.3, 120.1, 0.35)])))
    vmap = VoxelMap(origin, voxel_size, occ)
    g = np.array([data.draw(grid_coordinate(n)) for n in occ.shape])
    pos = origin + g * voxel_size
    max_range = data.draw(st.one_of(st.floats(0.05, 3.0), st.just(50.0)))
    assert_same_nearest(vmap, pos, max_range, data.draw(st.integers(1, 300)))


def test_sample_cloud_nearest_origin_inside_occupied(wall_map):
    # Every ray hits at t = 0, so every return is the nearest.
    near = assert_same_nearest(wall_map, np.array([6.2, 0.0, 1.2]), 8.0, 64)
    assert len(near) == 64


@pytest.mark.parametrize("height, rays", [(4.4, 512), (4.4, 2048), (2.4, 2048)])
def test_sample_cloud_nearest_box_room_center(height, rays):
    # Six walls at 2 m (cube) leave many returns nearly as near as the
    # nearest.  In the 2 m high room the first and last rays meet ceiling
    # and floor at ranges one rounding apart, within the margin: both stay.
    center = np.array([2.2, 2.2, height / 2.0])
    near = assert_same_nearest(box_room(height), center, 10.0, rays)
    if height == 2.4:
        assert len(near) == 2


def single_scan(vmap, pos, max_range, ray_count, nearest):
    """The (n, 3) points of one scan from `pos` alone: a single-origin cast
    on the occupied box, its hits placed at pos + dir * t."""
    box = vmap.occupied_box
    if box is None:
        return np.empty((0, 3))
    dirs = fibonacci_directions(ray_count)
    dirs_g = np.ascontiguousarray(dirs / vmap.voxel_size)
    t = kernels.raycast_batch(vmap.occ, vmap.world_to_grid(pos), dirs_g, max_range, nearest=nearest, box=box)
    hit = t >= 0.0
    return pos + dirs[hit] * t[hit, None]


def assert_scans_equal_single_scans(vmap, positions, max_range, ray_count):
    """Each cloud of one multi-origin scan is bit for bit the scan from its
    position alone, in both modes."""
    for nearest in (False, True):
        clouds = sample_cloud(vmap, positions, max_range, ray_count, nearest=nearest)
        assert len(clouds) == len(positions)
        for pos, cloud in zip(positions, clouds):
            want = single_scan(vmap, pos, max_range, ray_count, nearest)
            assert cloud.points.shape == want.shape
            assert np.array_equal(cloud.points.view(np.int64), want.view(np.int64))


def test_multi_origin_scans_equal_single_scans(wall_map):
    # In front of the face, at its edge and corner, inside the slab, beyond
    # the range, outside the grid and in the box room's rounding-tie centre.
    positions = np.array(
        [
            [4.0, 0.0, 0.6],
            [5.83, -4.96, 2.31],
            [4.0, 5.5, 1.2],
            [6.2, 0.0, 1.2],
            [-0.9, 6.9, 0.05],
            [-3.0, 0.0, 1.2],
            [8.7, 2.0, 1.7],
        ]
    )
    positions = np.vstack([positions, np.random.default_rng(5).uniform((-1, -7, 0), (10, 7, 2.4), (9, 3))])
    for max_range, rays in ((8.0, 512), (12.0, 2048), (1.0, 300)):
        assert_scans_equal_single_scans(wall_map, positions, max_range, rays)
    # A 1 m range from 2 m in front of the face sees nothing, from a point
    # outside the grid neither.
    clouds = sample_cloud(wall_map, positions[[0, 5]], 1.0, 512)
    assert [cloud.is_empty for cloud in clouds] == [True, True]
    assert_scans_equal_single_scans(box_room(2.4), np.array([[2.2, 2.2, 1.2], [9.0, 2.2, 1.2]]), 10.0, 2048)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_multi_origin_scans_equal_single_scans_on_random_grids(data):
    occ = data.draw(occupancy_grids())
    vmap = VoxelMap(np.array([-7.3, 120.1, 0.35]), 0.25, occ)
    count = data.draw(st.integers(1, 4))
    positions = vmap.origin + 0.25 * np.array([[data.draw(grid_coordinate(n)) for n in occ.shape] for _ in range(count)])
    max_range = data.draw(st.one_of(st.floats(0.05, 3.0), st.just(50.0)))
    assert_scans_equal_single_scans(vmap, positions, max_range, data.draw(st.integers(1, 300)))


def test_multi_origin_scans_on_an_empty_map_are_empty():
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    assert_scans_equal_single_scans(vmap, np.array([[2.5, 2.5, 2.5], [1.0, 1.0, 1.0], [-3.0, 9.0, 1.0]]), 10.0, 256)


# Each scan mode, on one origin.
SCANS = {"sample_cloud": False, "nearest": True}


@pytest.mark.parametrize("scan", SCANS)
@pytest.mark.parametrize(
    "max_range, rays, match",
    [(math.nan, 256, "max_range"), (0.0, 256, "max_range"), (-1.0, 256, "max_range"), (12.0, 0, "ray_count")],
)
def test_scans_reject_a_range_or_ray_count_that_returns_nothing(wall_map, scan, max_range, rays, match):
    # Each would otherwise return an empty scan: a nan cap retires every ray
    # as a miss.
    with pytest.raises(ValueError, match=match):
        sample_cloud(wall_map, [[4.0, 0.0, 1.2]], max_range, rays, nearest=SCANS[scan])


@pytest.mark.parametrize("scan", SCANS)
def test_scans_cast_with_an_infinite_range(wall_map, scan):
    infinite, finite = (sample_cloud(wall_map, [[4.0, 0.0, 1.2]], r, 256, nearest=SCANS[scan])[0] for r in (math.inf, 12.0))
    assert np.array_equal(infinite.points, finite.points) and len(finite) > 0


def test_sample_cloud_deterministic(wall_map):
    (a,) = sample_cloud(wall_map, [[4.0, 0.0, 1.2]], 8.0, 512)
    (b,) = sample_cloud(wall_map, [[4.0, 0.0, 1.2]], 8.0, 512)
    assert np.array_equal(a.points, b.points)


def test_fibonacci_directions_unit_and_spread():
    dirs = fibonacci_directions(500)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    assert np.abs(dirs.mean(axis=0)).max() < 0.01


def test_fibonacci_directions_cached_and_read_only():
    dirs = fibonacci_directions(64)
    assert fibonacci_directions(64) is dirs
    assert not dirs.flags.writeable
    assert fibonacci_directions(65).shape == (65, 3)


def test_wall_recession_grows_nearest_distance(wall_map):
    probe = np.array([4.0, 0.0, 1.2])
    delta = MorphologyDelta(removals=(Box((6.0, -5.0, 0.0), (7.0, 5.0, 2.4)),),
                            additions=(Box((7.0, -5.0, 0.0), (7.4, 5.0, 2.4)),))
    receded = apply_delta(wall_map, delta)
    _, d0 = nearest_point(sample_cloud(wall_map, [probe], 12.0, 1024)[0], probe)
    _, d1 = nearest_point(sample_cloud(receded, [probe], 12.0, 1024)[0], probe)
    assert d1 - d0 == pytest.approx(1.0, abs=2 * wall_map.voxel_size)


@given(occ=occupancy_grids())
@settings(max_examples=50, deadline=None)
def test_occupied_box_bounds_the_occupied_voxels(occ):
    box = VoxelMap(np.zeros(3), 0.1, occ).occupied_box
    idx = np.argwhere(occ)
    if idx.size == 0:
        assert box is None
    else:
        assert box.tolist() == [idx.min(axis=0).tolist(), (idx.max(axis=0) + 1).tolist()]


@st.composite
def box_test_grids(draw):
    """An empty grid, one voxel at a corner, a full grid or random blocks."""
    shape = tuple(draw(st.integers(1, 9)) for _ in range(3))
    occ = np.zeros(shape, dtype=np.bool_)
    kind = draw(st.sampled_from(["empty", "corner", "full", "blocks"]))
    if kind == "corner":
        occ[tuple(draw(st.sampled_from([0, n - 1])) for n in shape)] = True
    elif kind == "full":
        occ[...] = True
    elif kind == "blocks":
        for _ in range(draw(st.integers(1, 3))):
            lo = [draw(st.integers(0, n - 1)) for n in shape]
            hi = [draw(st.integers(l + 1, n)) for l, n in zip(lo, shape)]
            occ[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = True
    return occ


@given(occ=box_test_grids())
@settings(max_examples=100, deadline=None)
def test_occupied_box_matches_nonzero_extremes(occ):
    box = VoxelMap(np.zeros(3), 0.1, occ).occupied_box
    idx = np.nonzero(occ)
    if idx[0].size == 0:
        assert box is None
    else:
        assert box.dtype == np.int64 and not box.flags.writeable
        assert box.tolist() == [[int(a.min()) for a in idx], [int(a.max()) + 1 for a in idx]]


@given(occ=occupancy_grids())
@settings(max_examples=50, deadline=None)
def test_column_extent_bounds_each_vertical_column(occ):
    extent = VoxelMap(np.zeros(3), 0.1, occ).column_extent
    assert not extent.flags.writeable and extent.itemsize == 1
    for i, j in np.ndindex(occ.shape[:2]):
        k = np.flatnonzero(occ[i, j])
        assert extent[:, i, j].tolist() == ([k[0], k[-1]] if k.size else [occ.shape[2], -1])


def test_empty_map_casts_no_rays(monkeypatch):
    def no_cast(*args, **kwargs):
        raise AssertionError("cast on an empty map")

    monkeypatch.setattr(kernels, "raycast_batch", no_cast)
    monkeypatch.setattr(kernels, "raycast_level_frame", no_cast)
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    assert not np.isfinite(render_depth(vmap, ViewPose4(2.5, 2.5, 2.5), CAM).data).any()
    for nearest in (False, True):
        assert all(cloud.is_empty for cloud in sample_cloud(vmap, np.full((2, 3), 2.5), 10.0, 256, nearest=nearest))


# ---------------------------------------------------------------- collision


def test_collision_empty_map():
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    assert is_collision_free(vmap, [2.5, 2.5, 2.5], 0.5)


def test_collision_inside_voxel(wall_map):
    assert not is_collision_free(wall_map, [6.2, 0.0, 1.0], 0.0)


def test_collision_inflation_distance(wall_map):
    # 0.3 m from the face with 0.5 m inflation: blocked.
    assert not is_collision_free(wall_map, [5.7, 0.0, 1.0], 0.5)
    # Same point with 0.25 m inflation: free.
    assert is_collision_free(wall_map, [5.7, 0.0, 1.0], 0.25)


def test_collision_matches_distance_oracle(wall_map, rng):
    h = wall_map.voxel_size
    occ_centers = wall_map.origin + (np.argwhere(wall_map.occ) + 0.5) * h
    for _ in range(30):
        p = np.array([rng.uniform(4.5, 7.5), rng.uniform(-5.5, 5.5), rng.uniform(0.2, 2.2)])
        # Point-to-box distance oracle over all occupied voxels.
        lo = occ_centers - h / 2
        hi = occ_centers + h / 2
        gaps = np.maximum(np.maximum(lo - p, p - hi), 0.0)
        d = np.sqrt((gaps**2).sum(axis=1).min())
        for infl in (0.2, 0.5):
            assert is_collision_free(wall_map, p, infl) == (d > infl)


def test_collision_segment(wall_map):
    a = np.array([4.0, -2.0, 1.0])
    b = np.array([4.0, 2.0, 1.0])
    assert is_collision_free(wall_map, (a, b), 0.5)  # parallel to wall, 2 m away
    c = np.array([7.5, 0.0, 1.0])
    assert not is_collision_free(wall_map, (a, c), 0.5)  # crosses the wall


# ---------------------------------------------------------------- free mask


def dilation_free_mask(occ, voxel_size, inflation):
    """Reference: dilate the occupancy by every offset whose voxel box lies
    within `inflation` of a voxel center."""
    r_vox = inflation / voxel_size
    reach = int(np.ceil(r_vox + 0.5))
    rng = np.arange(-reach, reach + 1)
    di, dj, dk = np.meshgrid(rng, rng, rng, indexing="ij")
    gap = np.sqrt(
        np.maximum(np.abs(di) - 0.5, 0.0) ** 2
        + np.maximum(np.abs(dj) - 0.5, 0.0) ** 2
        + np.maximum(np.abs(dk) - 0.5, 0.0) ** 2
    )
    return ~ndimage.binary_dilation(occ, structure=gap <= r_vox)


@st.composite
def clearance_cases(draw):
    """Grids with axes shorter and longer than the clearance reach (up to
    11 voxels at 0.05 m and 0.5 m), empty to full."""
    voxel_size = draw(st.one_of(st.sampled_from([0.05, 0.1, 0.25]), st.floats(0.05, 0.25)))
    inflation = draw(st.one_of(st.sampled_from([0.0, 0.35, 0.5]), st.floats(0.0, 0.5)))
    shape = tuple(draw(st.integers(1, 16)) for _ in range(3))
    fill = draw(st.sampled_from([0.0, 0.003, 0.02, 0.2, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random(shape) < fill, voxel_size, inflation


def _single_voxel(shape, idx):
    occ = np.zeros(shape, dtype=bool)
    occ[idx] = True
    return occ


@given(clearance_cases())
@settings(max_examples=150, deadline=None)
# 0.35 / 0.1 = 3.4999999999999996 voxels: the box 3.5 voxels away stays free.
@example((_single_voxel((9, 1, 1), (0, 0, 0)), 0.1, 0.35))
@example((_single_voxel((13, 13, 13), (6, 6, 6)), 0.05, 0.5))
@example((np.zeros((7, 5, 3), dtype=bool), 0.1, 0.5))
@example((np.ones((7, 5, 3), dtype=bool), 0.1, 0.0))
def test_free_mask_matches_dilation_reference(case):
    occ, voxel_size, inflation = case
    got = VoxelMap((0.0, 0.0, 0.0), voxel_size, occ).free_mask(inflation, 0, occ.shape[2] - 1)
    assert np.array_equal(got, dilation_free_mask(occ, voxel_size, inflation))


@st.composite
def band_cases(draw):
    """A clearance case and a z band of its grid."""
    occ, voxel_size, inflation = draw(clearance_cases())
    nz = occ.shape[2]
    k_lo = draw(st.integers(0, nz - 1))
    return occ, voxel_size, inflation, k_lo, draw(st.integers(k_lo, nz - 1))


@given(band_cases())
@settings(max_examples=150, deadline=None)
# Bottom and top layer, each with a box 3 layers away inside the reach.
@example((_single_voxel((5, 4, 9), (2, 1, 3)), 0.1, 0.35, 0, 0))
@example((_single_voxel((5, 4, 9), (2, 1, 5)), 0.1, 0.35, 8, 8))
# A reach of 11 voxels on a 3-layer grid.
@example((_single_voxel((4, 4, 3), (1, 1, 0)), 0.05, 0.5, 2, 2))
# 0.05 / 0.1 = 0.5 voxels: the box in the layer just above, at the reach, blocks.
@example((_single_voxel((3, 3, 4), (1, 1, 2)), 0.1, 0.05, 1, 1))
def test_free_mask_band_matches_dilation_reference(case):
    occ, voxel_size, inflation, k_lo, k_hi = case
    got = VoxelMap((0.0, 0.0, 0.0), voxel_size, occ).free_mask(inflation, k_lo, k_hi)
    assert np.array_equal(got, dilation_free_mask(occ, voxel_size, inflation)[:, :, k_lo : k_hi + 1])


def test_free_mask_wide_clearance():
    # 70 voxels of clearance: the squared gaps need 16 bits, not 8.
    occ = np.zeros((1, 1, 160), dtype=bool)
    occ[0, 0, 5] = True
    gap = np.maximum(np.abs(np.arange(160) - 5) - 0.5, 0.0)
    got = VoxelMap((0.0, 0.0, 0.0), 0.1, occ).free_mask(7.0, 0, 159)
    assert np.array_equal(got[0, 0], gap > 7.0 / 0.1)


@pytest.mark.parametrize("fill", ["one_voxel", "empty"])
def test_free_mask_clamps_a_radius_beyond_the_grid(fill):
    # No gap inside the grid is as long as its diagonal, so any larger
    # clearance blocks the same voxels.  1e308 overflowed the radius's int
    # (an OverflowError), and 1e30 ran its passes for minutes.
    occ = _single_voxel((9, 7, 5), (8, 0, 4)) if fill == "one_voxel" else np.zeros((9, 7, 5), dtype=bool)
    diagonal = math.hypot(*occ.shape) * 0.1
    want = dilation_free_mask(occ, 0.1, diagonal)
    assert want.any() == (fill == "empty")
    for inflation in (diagonal, 1e308):
        got = VoxelMap((0.0, 0.0, 0.0), 0.1, occ).free_mask(inflation, 1, 3)
        assert np.array_equal(got, want[:, :, 1:4])


def test_free_mask_cached_and_read_only(wall_map):
    top = wall_map.shape[2] - 1
    mask = wall_map.free_mask(0.5, 0, top)
    assert wall_map.free_mask(0.5, 0, top) is mask
    assert not mask.flags.writeable
    assert mask.flags.c_contiguous and mask.shape == wall_map.shape


def test_free_mask_cached_per_band(wall_map):
    nx, ny, nz = wall_map.shape
    band = wall_map.free_mask(0.5, 6, 8)
    assert wall_map.free_mask(0.5, 6, 8) is band
    assert not band.flags.writeable
    assert band.flags.c_contiguous and band.shape == (nx, ny, 3)
    assert np.array_equal(band, wall_map.free_mask(0.5, 0, nz - 1)[:, :, 6:9])
    others = [wall_map.free_mask(0.5, 6, 6), wall_map.free_mask(0.5, 7, 8), wall_map.free_mask(0.5, 0, nz - 1)]
    assert len({id(m) for m in [band, *others]}) == 4
    assert others[2] is wall_map.free_mask(0.5, 0, nz - 1)


@pytest.mark.parametrize("band", [(-1, 0), (3, 2), (0, 24)])
def test_free_mask_rejects_a_band_outside_the_grid(wall_map, band):
    assert wall_map.shape[2] == 24
    with pytest.raises(ValueError, match="lies outside the grid's 24 layers"):
        wall_map.free_mask(0.5, *band)
