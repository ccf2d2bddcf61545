import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from kernel_reference import nearest_only, pixel_rays, raycast_batch_scalar
from strategies import direction_component, grid_coordinate, occupancy_grids, on_grid_coordinate, wall_slabs
from surfscan import kernels, world
from surfscan.geometry import ViewPose4
from surfscan.world import (
    Box,
    CameraIntrinsics,
    MorphologyDelta,
    Scene,
    VoxelMap,
    _load_xyz_lines,
    _shell_cast,
    apply_delta,
    camera_axes_world,
    fibonacci_directions,
    is_collision_free,
    load_map,
    load_xyz,
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
    """The voxels of the points of `points` on `vmap`'s grid, from one
    fancy index over all of them; the points off the grid are dropped."""
    occ = np.zeros(vmap.shape, dtype=bool)
    idx = np.floor((points - vmap.origin) / vmap.voxel_size).astype(int)
    idx = idx[((idx >= 0) & (idx < occ.shape)).all(axis=1)]
    occ[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return occ


@pytest.mark.parametrize("count", [1, 65536, 65537, 140001])
def test_load_map_in_blocks_matches_one_pass(count, tmp_path):
    # Points inside and outside the bounds (those are dropped), on either
    # side of a block boundary, written with every bit of each coordinate.
    points = np.random.default_rng(count).uniform(-2.0, 12.0, (count, 3))
    f = tmp_path / "survey.xyz"
    np.savetxt(f, points, fmt="%.17g")
    assert np.array_equal(load_xyz(f), points)
    vmap = load_map(f, 0.05, ((0.0, 0.0, 0.0), (10.0, 8.0, 3.0)))
    assert np.array_equal(vmap.occ, voxelized_in_one_pass(points, vmap))


def test_load_map_drops_points_off_a_bounded_grid(tmp_path):
    # Past each face, on the far faces (off the map by its rule) and too far
    # for an int64 index: all dropped, without a warning, and no edge voxel
    # is marked for them.
    f = tmp_path / "survey.xyz"
    f.write_text("5.05 4.05 1.05\n-0.01 1 1\n10 1 1\n1 8 1\n1 1 3\n1 -1e300 1\n1e300 1 1\n")
    vmap = load_map(f, 0.1, ((0.0, 0.0, 0.0), (10.0, 8.0, 3.0)))
    assert np.argwhere(vmap.occ).tolist() == [[50, 40, 10]]


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
    lo = wall_map.origin
    hi = lo + np.array(wall_map.shape) * wall_map.voxel_size
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


def test_apply_delta_addition_clips_to_grid(wall_map):
    # The grid's x ends at 10: an addition straddling it sets only its
    # on-grid voxels (x 9.5..10), and one wholly past it sets none.
    before = np.count_nonzero(wall_map.occ)
    for lo_x, added in ((9.5, 5 * 5 * 5), (12.0, 0)):
        box = Box((lo_x, 0.0, 0.0), (lo_x + 1.0, 0.5, 0.5))
        out = apply_delta(wall_map, MorphologyDelta(additions=(box,)))
        assert np.array_equal(out.origin, wall_map.origin)
        assert (out.shape, out.voxel_size) == (wall_map.shape, wall_map.voxel_size)
        assert np.count_nonzero(out.occ) == before + added
        assert occupied_at(out, [9.95, 0.25, 0.25]) == bool(added)


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


def test_scene_maps_share_one_grid(wall_map):
    h, occ = wall_map.voxel_size, wall_map.occ
    for other in (
        VoxelMap(wall_map.origin + h, h, occ),
        VoxelMap(wall_map.origin, 2 * h, occ),
        VoxelMap(wall_map.origin, h, occ[:-1]),
    ):
        with pytest.raises(ValueError, match="must lie on the historical map's grid .*; set maps.bounds"):
            Scene(wall_map, other)
    # A delta reaching past the grid, or none, keeps the historical grid.
    far = Box((-5.0, -9.0, -1.0), (20.0, 9.0, 5.0))
    Scene.unchanged(wall_map)
    assert Scene.from_delta(wall_map, MorphologyDelta(removals=(far,), additions=(far,))).current.occ.all()


# ---------------------------------------------------------------- depth rendering


def test_render_depth_flat_wall(wall_map):
    pose = ViewPose4(4.0, 0.0, 1.2, 0.0)  # 2 m from the face, looking +x
    img = render_depth(wall_map, pose, CAM)
    cy, cx = CAM.height // 2, CAM.width // 2
    assert img[cy, cx] == pytest.approx(2.0, abs=wall_map.voxel_size)
    # Projective depth: every wall pixel reports the same axial distance.
    valid = np.isfinite(img)
    assert valid[cy, cx]
    assert np.nanmax(np.abs(img[valid] - 2.0)) <= wall_map.voxel_size


def test_render_depth_empty_space():
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    img = render_depth(vmap, ViewPose4(2.5, 2.5, 2.5), CAM)
    assert not np.isfinite(img).any()


def test_render_depth_oblique_wall_matches_plane_equation(wall_map):
    # Yaw 30 deg: ray-plane depth = perpendicular distance / cos(pixel angle to plane normal).
    yaw = np.deg2rad(30.0)
    pose = ViewPose4(4.0, 0.0, 1.2, yaw)
    img = render_depth(wall_map, pose, CAM)
    right = np.array([np.sin(yaw), -np.cos(yaw), 0.0])
    down = np.array([0.0, 0.0, -1.0])
    fwd = np.array([np.cos(yaw), np.sin(yaw), 0.0])
    world = pixel_rays(CAM, right, down, fwd)
    expected = 2.0 / world[..., 0]  # t with dir_x scaled so axis component is 1
    valid = np.isfinite(img)
    assert valid.sum() > 50
    assert np.abs(img[valid] - expected[valid]).max() < 3 * wall_map.voxel_size


def test_render_depth_deterministic(wall_map):
    pose = ViewPose4(4.0, 0.3, 1.0, 0.1)
    a = render_depth(wall_map, pose, CAM)
    b = render_depth(wall_map, pose, CAM)
    assert np.array_equal(a, b, equal_nan=True)


def scalar_depth(vmap, pose, cam):
    """The depths of `raycast_batch_scalar`, as plain Python, on the rays
    of the pixel grid `pose` sees through `cam`; misses are NaN."""
    world = pixel_rays(cam, *camera_axes_world(pose))
    dirs = np.ascontiguousarray(world.reshape(-1, 3) / vmap.voxel_size)
    t = raycast_batch_scalar(vmap.occ, vmap.world_to_grid(pose.position), dirs, float(cam.max_range))
    depth = t.reshape(cam.height, cam.width)
    depth[depth <= 0.0] = np.nan
    return depth


def same_depths(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def camera_frames(draw):
    """A small map (random fill or a wall slab with an optional pocket), a
    pose on it (on voxel faces and on the grid's low faces too), at yaw 0,
    +-pi/2, pi or random, and a camera of odd or even width with a range
    below the distance to the occupied voxels or beyond the grid."""
    occ = draw(st.one_of(occupancy_grids(max_side=10), wall_slabs()))
    voxel_size = draw(st.sampled_from([0.1, 0.25, 1.0]))
    origin = np.array(draw(st.sampled_from([(0.0, 0.0, 0.0), (-7.3, 120.1, 0.35)])))
    vmap = VoxelMap(origin, voxel_size, occ)
    g = [
        draw(st.one_of(st.floats(0.0, float(n), exclude_max=True), st.integers(0, n - 1).map(float)))
        for n in occ.shape
    ]
    yaw = draw(st.one_of(st.sampled_from([0.0, np.pi / 2, -np.pi / 2, np.pi]), st.floats(-np.pi, np.pi)))
    pose = ViewPose4(*(origin + np.array(g) * voxel_size), yaw)
    # The world position can round onto the grid's high face, off the map.
    assume(vmap.contains(pose.position))
    cam = CameraIntrinsics(
        alpha=draw(st.floats(0.2, 3.0)),
        beta=draw(st.floats(0.2, 3.0)),
        width=draw(st.integers(3, 12)),
        height=draw(st.integers(3, 10)),
        max_range=draw(st.one_of(st.floats(0.01, 0.5), st.floats(0.5, 40.0))),
    )
    return vmap, pose, cam


@given(frame=camera_frames())
@settings(max_examples=150, deadline=None)
def test_render_depth_matches_scalar_oracle(frame):
    vmap, pose, cam = frame
    with mock.patch.object(kernels, "raycast_level_frame", wraps=kernels.raycast_level_frame) as level:
        got = render_depth(vmap, pose, cam)
    assert same_depths(got, scalar_depth(vmap, pose, cam))
    assert level.called == (vmap.occupied_box is not None)


SMALL_CAM = CameraIntrinsics(alpha=np.deg2rad(69.5), beta=np.deg2rad(45.0), width=12, height=10, max_range=12.0)


def test_render_depth_casts_a_level_frame_from_inside_the_grid(wall_map):
    with (
        mock.patch.object(kernels, "raycast_level_frame", wraps=kernels.raycast_level_frame) as level,
        mock.patch.object(kernels, "raycast_batch", side_effect=AssertionError("raycast_batch called")),
    ):
        got = render_depth(wall_map, ViewPose4(4.0, 0.3, 1.0, 0.1), SMALL_CAM)
    assert level.call_count == 1
    assert np.isfinite(got).any()


def test_render_depth_rejects_an_off_map_pose(wall_map):
    # Outside the grid, and on its high y face, which the map does not hold.
    hi_y = wall_map.origin[1] + wall_map.shape[1] * wall_map.voxel_size
    for position in ((-3.0, 0.3, 1.0), (4.0, hi_y, 1.0)):
        with pytest.raises(ValueError, match="off the map"):
            render_depth(wall_map, ViewPose4(*position, 0.1), SMALL_CAM)
    empty = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    with pytest.raises(ValueError, match="off the map"):
        render_depth(empty, ViewPose4(6.0, 2.5, 2.5), SMALL_CAM)


def test_camera_rejects_an_infinite_range():
    with pytest.raises(ValueError, match="max_range must be positive and finite"):
        CameraIntrinsics(1.2, 0.8, 12, 10, math.inf)


# ---------------------------------------------------------------- range scans


def test_sample_cloud_empty_map():
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    assert np.isnan(assert_nearest_rows(vmap, [[2.5, 2.5, 2.5]], 10.0, 256)).all()


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
    cloud = single_scan(vmap, center, 10.0, 512)
    assert len(cloud) == 512
    dists = np.linalg.norm(cloud - center, axis=1)
    assert dists.max() <= 2 * np.sqrt(3) + 1e-9


def test_sample_cloud_hits_on_voxel_boundaries(wall_map):
    pos = np.array([4.0, 0.0, 1.2])
    cloud = single_scan(wall_map, pos, 8.0, 512)
    assert len(cloud) > 0
    h = wall_map.voxel_size
    for p in cloud:
        # Nudge along the ray: the voxel just past the hit is occupied.
        d = p - pos
        d /= np.linalg.norm(d)
        assert occupied_at(wall_map, p + 1e-6 * d)
        # And the hit lies on a voxel face: some coordinate is a grid plane.
        g = wall_map.world_to_grid(p)
        assert np.min(np.abs(g - np.round(g))) < 1e-6


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def cast_t(vmap, pos, max_range, ray_count):
    """The hit parameters of one scan from `pos` alone: a single-origin cast
    of every ray on the occupied box."""
    dirs_g = np.ascontiguousarray(fibonacci_directions(ray_count) / vmap.voxel_size)
    return kernels.raycast_batch(vmap.occ, vmap.world_to_grid(pos), dirs_g, max_range, box=vmap.occupied_box)


def single_scan(vmap, pos, max_range, ray_count):
    """The (n, 3) points of one scan from `pos` alone, its hits placed at
    pos + dir * t."""
    if vmap.occupied_box is None:
        return np.empty((0, 3))
    t = cast_t(vmap, pos, max_range, ray_count)
    hit = t >= 0.0
    return pos + fibonacci_directions(ray_count)[hit] * t[hit, None]


def full_t(vmap, pos, max_range, ray_count):
    """The hit parameters of every ray of one scan from `pos`, cast one by
    one by the scalar oracle on the whole grid."""
    dirs_g = np.ascontiguousarray(fibonacci_directions(ray_count) / vmap.voxel_size)
    return raycast_batch_scalar(vmap.occ, vmap.world_to_grid(pos), dirs_g, max_range)


def nearest_return(vmap, pos, max_range, ray_count):
    """The return of least range over every ray of a full scan from `pos`,
    the lowest ray on exact ties, at pos + direction * t; a NaN row if the
    scan sees nothing."""
    t = full_t(vmap, pos, max_range, ray_count)
    hit = np.flatnonzero(t >= 0.0)
    if not hit.size:
        return np.full(3, np.nan)
    ray = hit[np.argmin(t[hit])]
    return pos + fibonacci_directions(ray_count)[ray] * t[ray]


def assert_nearest_rows(vmap, positions, max_range, ray_count, got=None):
    """`sample_cloud`'s rows (`got`, or a fresh call), each bit for bit the
    nearest return of the scalar oracle's full scan from its position
    alone; returns them."""
    positions = np.asarray(positions, dtype=np.float64)
    if got is None:
        got = sample_cloud(vmap, positions, max_range, ray_count)
    assert got.shape == positions.shape and got.dtype == np.float64 and not got.flags.writeable
    for pos, row in zip(positions, got):
        assert same_bits(row, nearest_return(vmap, pos, max_range, ray_count))
    return got


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_sample_cloud_nearest_matches_full_cloud(data):
    occ = data.draw(occupancy_grids())
    voxel_size = data.draw(st.sampled_from([0.1, 0.25, 1.0]))
    origin = np.array(data.draw(st.sampled_from([(0.0, 0.0, 0.0), (-7.3, 120.1, 0.35)])))
    vmap = VoxelMap(origin, voxel_size, occ)
    g = np.array([data.draw(on_grid_coordinate(n)) for n in occ.shape])
    pos = origin + g * voxel_size
    assume(vmap.contains(pos))  # not when the sum rounds onto the far edge
    max_range = data.draw(st.one_of(st.floats(0.05, 3.0), st.just(50.0)))
    assert_nearest_rows(vmap, [pos], max_range, data.draw(st.integers(1, 300)))


def test_sample_cloud_nearest_origin_inside_occupied(wall_map):
    # Every ray hits at t = 0, so every return is the nearest.
    t, _, _ = shell_scan(wall_map, [[6.2, 0.0, 1.2]], 8.0, 64)
    assert (t >= 0.0).all()


@pytest.mark.parametrize("height, rays", [(4.4, 512), (4.4, 2048), (2.4, 2048)])
def test_sample_cloud_nearest_box_room_center(height, rays):
    # Six walls at 2 m (cube) leave many returns nearly as near as the
    # nearest; exactly the rays at the least range stay.  In the 2 m high
    # room the first and last rays meet ceiling and floor at ranges one
    # rounding apart: only the nearer, the last, stays.
    room, pos = box_room(height), np.array([2.2, 2.2, height / 2.0])
    t, nearest, _ = shell_scan(room, [pos], 10.0, rays)
    full = full_t(room, pos, 10.0, rays)
    t_min = full[full >= 0.0].min()
    assert np.array_equal(np.flatnonzero(t[0] >= 0.0), np.flatnonzero(full == t_min))
    if height == 2.4:
        assert full[0] == np.nextafter(full[-1], np.inf) == np.nextafter(t_min, np.inf)
        assert np.flatnonzero(t[0] >= 0.0).tolist() == [rays - 1]
        assert nearest[0, 2] == pytest.approx(0.2)


def assert_scans_equal_single_scans(vmap, positions, max_range, ray_count):
    """Each row of one multi-origin scan is bit for bit the nearest return
    of the scan from its position alone, and each row of the shells' hit
    parameters that position's full scan with every hit past the least
    dropped."""
    assert_nearest_rows(vmap, positions, max_range, ray_count)
    if vmap.occupied_box is not None:
        t = _shell_cast(vmap, vmap.world_to_grid(positions), fibonacci_directions(ray_count), max_range)
        for pos, row in zip(positions, t):
            assert same_bits(row, nearest_only(full_t(vmap, pos, max_range, ray_count)))


def test_multi_origin_scans_equal_single_scans(wall_map):
    # In front of the face, at its edge and corner, inside the slab, beyond
    # the range, on the grid's low corner and in the box room's
    # rounding-tie centre.
    positions = np.array(
        [
            [4.0, 0.0, 0.6],
            [5.83, -4.96, 2.31],
            [4.0, 5.5, 1.2],
            [6.2, 0.0, 1.2],
            [-0.9, 6.9, 0.05],
            [-1.0, -7.0, 0.0],
            [8.7, 2.0, 1.7],
        ]
    )
    positions = np.vstack([positions, np.random.default_rng(5).uniform((-1, -7, 0), (10, 7, 2.4), (9, 3))])
    for max_range, rays in ((8.0, 512), (12.0, 2048), (1.0, 300)):
        assert_scans_equal_single_scans(wall_map, positions, max_range, rays)
    # A 1 m range from 2 m in front of the face sees nothing, from the
    # grid's low corner neither.
    assert np.isnan(sample_cloud(wall_map, positions[[0, 5]], 1.0, 512)).all()
    assert_scans_equal_single_scans(box_room(2.4), np.array([[2.2, 2.2, 1.2], [1.0, 3.1, 0.7]]), 10.0, 2048)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_multi_origin_scans_equal_single_scans_on_random_grids(data):
    occ = data.draw(occupancy_grids())
    vmap = VoxelMap(np.array([-7.3, 120.1, 0.35]), 0.25, occ)
    count = data.draw(st.integers(1, 4))
    positions = vmap.origin + 0.25 * np.array([[data.draw(on_grid_coordinate(n)) for n in occ.shape] for _ in range(count)])
    assume(all(map(vmap.contains, positions)))
    max_range = data.draw(st.one_of(st.floats(0.05, 3.0), st.just(50.0)))
    assert_scans_equal_single_scans(vmap, positions, max_range, data.draw(st.integers(1, 300)))


def assert_off_map_scans_see_nothing(vmap, positions, max_range, ray_count):
    """One scan from each of `positions`: the rows of those off the map are
    NaN, and those of the others bit for bit their scans alone.  Every
    kernel call casts from origins in the grid with a finite cap, and none
    is made for the positions off the map."""
    with mock.patch.object(kernels, "raycast_batch", wraps=kernels.raycast_batch) as cast:
        got = sample_cloud(vmap, positions, max_range, ray_count)
    assert_casts_stay_on_the_grid(vmap, cast)
    on_map = [vmap.contains(p) for p in positions]
    assert not cast.called or any(on_map)
    for pos, row, on in zip(positions, got, on_map):
        assert same_bits(row, sample_cloud(vmap, [pos], max_range, ray_count)[0]) if on else np.isnan(row).all()
    return got


def assert_casts_stay_on_the_grid(vmap, cast):
    """Every call of the `kernels.raycast_batch` spy `cast` took origins in
    the grid, 0 <= o < n per axis, and a finite cap."""
    for call in cast.call_args_list:
        origins, t_cap = np.reshape(call.args[1], (-1, 3)), call.args[3]
        assert ((origins >= 0.0) & (origins < vmap.shape)).all() and math.isfinite(t_cap)


def test_scans_from_off_the_map_see_nothing(wall_map):
    # Two on the map, and the others past each of its faces (on the far x
    # and y edges too) or far off it, in one batch and alone.
    positions = np.array(
        [[4.0, 0.0, 1.2], [-1.01, 0.0, 1.2], [10.0, 0.0, 1.2], [4.0, -7.2, 1.2], [4.0, 7.0, 1.2], [4.0, 0.0, -0.01]]
        + [[4.0, 0.0, 2.41], [-40.0, 0.0, 1.2], [5.9, 4.0, 0.1], [1e300, 0.0, 0.0]]
    )
    got = assert_off_map_scans_see_nothing(wall_map, positions, 12.0, 512)
    assert np.isfinite(got[[0, 8]]).all() and np.isnan(np.delete(got, [0, 8], axis=0)).all()
    with mock.patch.object(kernels, "raycast_batch", wraps=kernels.raycast_batch) as cast:
        assert np.isnan(sample_cloud(wall_map, positions[1:8], 12.0, 512)).all()
    assert not cast.called


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_scans_from_off_the_map_see_nothing_on_random_grids(data):
    occ = data.draw(occupancy_grids())
    vmap = VoxelMap(np.array([-7.3, 120.1, 0.35]), 0.25, occ)
    count = data.draw(st.integers(1, 4))
    positions = vmap.origin + 0.25 * np.array([[data.draw(grid_coordinate(n)) for n in occ.shape] for _ in range(count)])
    event("mixed" if len({vmap.contains(p) for p in positions}) == 2 else "one side")
    max_range = data.draw(st.one_of(st.floats(0.05, 3.0), st.just(50.0)))
    assert_off_map_scans_see_nothing(vmap, positions, max_range, data.draw(st.integers(1, 300)))


def test_multi_origin_scans_on_an_empty_map_are_empty():
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    positions = np.array([[2.5, 2.5, 2.5], [1.0, 1.0, 1.0], [-3.0, 9.0, 1.0]])
    assert np.isnan(assert_nearest_rows(vmap, positions, 10.0, 256)).all()


@pytest.mark.parametrize(
    "max_range, rays, match",
    [(math.nan, 256, "max_range"), (0.0, 256, "max_range"), (-1.0, 256, "max_range"), (12.0, 0, "ray_count")],
)
def test_scans_reject_a_range_or_ray_count_that_returns_nothing(wall_map, max_range, rays, match):
    # Each would otherwise return an empty scan: a nan cap retires every ray
    # as a miss.
    with pytest.raises(ValueError, match=match):
        sample_cloud(wall_map, [[4.0, 0.0, 1.2]], max_range, rays)


@pytest.mark.parametrize("max_range", [math.inf, math.nan])
def test_scans_reject_a_range_that_is_not_finite(wall_map, max_range):
    # A scan's range is finite, as the camera's is: the kernel's rays start
    # at t = 0 in the grid and stop at a finite cap.
    with pytest.raises(ValueError, match="positive and finite"):
        sample_cloud(wall_map, [[4.0, 0.0, 1.2]], max_range, 256)


def test_sensor_outputs_are_read_only_arrays(wall_map):
    depth = render_depth(wall_map, ViewPose4(4.0, 0.0, 1.2), CAM)
    assert depth.shape == (CAM.height, CAM.width) and depth.dtype == np.float64
    positions = [[4.0, 0.0, 1.2], [4.0, 1.0, 1.2]]
    empty = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    scans = sample_cloud(wall_map, positions, 8.0, 512), sample_cloud(empty, positions, 8.0, 512)
    assert all(scan.shape == (2, 3) and scan.dtype == np.float64 for scan in scans)
    for out in (depth, render_depth(empty, ViewPose4(2.5, 2.5, 2.5), CAM), *scans):
        assert not out.flags.writeable


def test_sample_cloud_deterministic(wall_map):
    a = sample_cloud(wall_map, [[4.0, 0.0, 1.2]], 8.0, 512)
    b = sample_cloud(wall_map, [[4.0, 0.0, 1.2]], 8.0, 512)
    assert same_bits(a, b)


@pytest.mark.parametrize("seed", range(3))
def test_sample_cloud_picks_the_least_range_lowest_ray_first(seed, monkeypatch):
    # Full scans with many exact ties in range, cut to their least range as
    # the shells return them: each row is the scan's hit of least range,
    # the lowest ray first, NaN for a scan without one.
    rng = np.random.default_rng(seed)
    vmap = VoxelMap.from_boxes([Box((0, 0, 0), (1, 1, 1))], 0.5, ((-4, -4, -4), (4, 4, 4)))
    positions = rng.integers(-2, 3, (6, 3)).astype(np.float64)
    full = rng.choice([-1.0, 0.5, 1.0, 2.0], size=(6, 64))
    full[2] = -1.0
    t = np.array([nearest_only(row) for row in full])
    monkeypatch.setattr(world, "_shell_cast", lambda *args: t.copy())
    got = sample_cloud(vmap, positions, 10.0, 64)
    dirs = fibonacci_directions(64)
    for pos, row, t_row in zip(positions, got, full):
        hit = np.flatnonzero(t_row >= 0.0)
        if hit.size:
            ray = hit[np.argmin(t_row[hit])]
            assert same_bits(row, pos + dirs[ray] * t_row[ray])
        else:
            assert np.isnan(row).all()


def test_sample_cloud_takes_the_lower_ray_of_an_exact_tie():
    # Midway between a floor and a roof 2 m apart, on voxel planes of a
    # 0.25 m grid, the first ray (up) and the last (down) of 64 meet roof
    # and floor at exactly the same range, the least: both stay, and the
    # row is the first's, on the roof.
    vmap = VoxelMap.from_boxes([Box((0, 0, 0), (4, 4, 0.25)), Box((0, 0, 1.75), (4, 4, 2.0))], 0.25, None)
    pos = np.array([2.0, 2.0, 1.0])
    t, nearest, _ = shell_scan(vmap, [pos], 10.0, 64)
    assert np.flatnonzero(t[0] >= 0.0).tolist() == [0, 63] and t[0, 0] == t[0, 63]
    assert same_bits(nearest[0], pos + fibonacci_directions(64)[0] * t[0, 0]) and nearest[0, 2] == 1.75


# ---------------------------------------------------------------- scan shells


def shell_scan(vmap, positions, max_range, ray_count):
    """`sample_cloud`'s rows for the scans from `positions`, checked against
    each full scan's nearest return; the hit parameters `world._shell_cast`
    gives them (None on an empty map, where nothing is cast), checked bit
    for bit against each position's single full cast of every ray, by the
    kernel and by the scalar oracle, cut to its least range; and the cap,
    box and ray count of each kernel call `sample_cloud` made."""
    positions = np.asarray(positions, dtype=np.float64)
    with mock.patch.object(kernels, "raycast_batch", wraps=kernels.raycast_batch) as cast:
        nearest = sample_cloud(vmap, positions, max_range, ray_count)
    assert_nearest_rows(vmap, positions, max_range, ray_count, nearest)
    casts = [(c.args[3], c.kwargs["box"], c.args[2].shape[0]) for c in cast.call_args_list]
    if vmap.occupied_box is None:
        return None, nearest, casts
    t = _shell_cast(vmap, vmap.world_to_grid(positions), fibonacci_directions(ray_count), max_range)
    assert t.shape == (len(positions), ray_count)
    for pos, row in zip(positions, t):
        assert same_bits(row, nearest_only(cast_t(vmap, pos, max_range, ray_count)))
        assert same_bits(row, nearest_only(full_t(vmap, pos, max_range, ray_count)))
    return t, nearest, casts


def shell_regime(casts, max_range):
    """Which shells a `sample_cloud` call cast: none (an empty map), the
    first alone, grown ones, or the full cast last."""
    if not casts:
        return "none"
    if casts[-1][0] == max_range:
        return "full"
    return "first" if len(casts) == 1 else "grown"


def overhang_map():
    """A 4 m x 4 m floor under a roof at 2.0-2.2 m, closed by one wall: the
    column extent spans any point between them."""
    boxes = [Box((0, 0, 0), (4, 4, 0.1)), Box((0, 0, 2.0), (4, 4, 2.2)), Box((3.8, 0, 0), (4, 4, 2.2))]
    return VoxelMap.from_boxes(boxes, 0.1, ((-1, -1, 0), (5, 5, 2.4)))


def test_shell_scan_from_inside_an_occupied_voxel(wall_map):
    # Every ray hits at t = 0, within the first shell of one voxel.
    t, _, casts = shell_scan(wall_map, [[6.2, 0.0, 1.2]], 12.0, 256)
    assert (t >= 0.0).all()
    assert shell_regime(casts, 12.0) == "first" and casts[0][0] == pytest.approx(0.1)


def test_shell_scan_under_an_overhang_grows():
    # Each column holds floor and roof, so its box spans the origin and
    # r = 0: the shell grows from one voxel until it reaches the roof 0.7 m
    # above.
    t, nearest, casts = shell_scan(overhang_map(), [[2.0, 2.0, 1.3]], 12.0, 512)
    assert (t >= 0.0).sum() == 1 and nearest[0, 2] == 2.0
    assert shell_regime(casts, 12.0) == "grown"
    assert [cap for cap, _, _ in casts] == pytest.approx([0.1, 0.2, 0.4, 0.8])


def test_shell_scan_past_a_thin_post_the_rays_miss(wall_map):
    # A one-voxel post 0.5 m ahead sets r, but all 32 rays pass it: the
    # shell grows to the wall 2 m away, and every return lies on the wall.
    post = apply_delta(wall_map, MorphologyDelta(additions=(Box((4.5, 0.0, 1.1), (4.6, 0.1, 1.2)),)))
    pos = np.array([4.0, 0.05, 1.15])
    t, nearest, casts = shell_scan(post, [pos], 12.0, 32)
    hit = t[0] >= 0.0
    assert hit.any() and ((pos + fibonacci_directions(32)[hit] * t[0, hit, None])[:, 0] == 6.0).all()
    assert nearest[0, 0] == 6.0
    assert shell_regime(casts, 12.0) == "grown"
    assert casts[0][2] < 32  # the first shell casts only the rays toward the post


def test_shell_scan_mixes_a_near_and_a_far_origin(wall_map):
    # 0.3 m and 6.9 m from the face in one batch, the far one at the grid's
    # low x edge: one shell, capped at the far origin's reach, serves both.
    t, nearest, casts = shell_scan(wall_map, [[5.7, 0.0, 1.2], [-0.9, 0.0, 1.2]], 12.0, 2048)
    assert (t >= 0.0).sum(axis=1).tolist() == [1, 1]
    assert nearest[0, 0] == 6.0 and nearest[1, 0] == pytest.approx(6.0)
    assert shell_regime(casts, 12.0) == "first"


def test_shell_scan_with_a_range_short_of_the_free_radius_is_empty(wall_map):
    # The face is 2 m away and the range 1.5 m: the first shell would reach
    # past the range, so the full cast runs, and it sees nothing.
    t, nearest, casts = shell_scan(wall_map, [[4.0, 0.0, 1.2], [4.0, 1.0, 0.6]], 1.5, 512)
    assert (t < 0.0).all() and np.isnan(nearest).all()
    assert shell_regime(casts, 1.5) == "full"
    assert casts[0][1] is wall_map.occupied_box and casts[0][2] == 2 * 512


def test_shell_scan_completes_an_origin_only_when_the_cap_holds_its_bound():
    # Under a roof on a 0.5 m grid the origin's column box spans it (r = 0),
    # so the caps run 0.5, 1.0, 2.0 m.  A single ray, along +x, meets a wall
    # at exactly 1.0 m: the first shell holds no hit and grows, and the
    # second, whose cap equals the nearest hit, completes the origin.
    boxes = [Box((0, 0, 0), (4, 4, 0.5)), Box((0, 0, 2.0), (4, 4, 2.5)), Box((2.5, 0, 0), (3.0, 4, 2.5))]
    vmap = VoxelMap.from_boxes(boxes, 0.5, None)
    t, nearest, casts = shell_scan(vmap, [[1.5, 1.25, 1.25]], 12.0, 1)
    assert t.tolist() == [[1.0]] and nearest.tolist() == [[2.5, 1.25, 1.25]]
    assert [cap for cap, _, _ in casts] == [0.5, 1.0]


def checked_shell_cast(occ, voxel_size, origins, dirs, t_cap):
    """`world._shell_cast` of the unit rays `dirs` from the grid-unit
    `origins`, each row checked bit for bit against the scalar oracle's full
    cast from that origin alone cut to its least t; and the number of kernel
    calls it made."""
    vmap = VoxelMap(np.zeros(3), voxel_size, occ)
    origins = np.asarray(origins, dtype=np.float64)
    with mock.patch.object(kernels, "raycast_batch", wraps=kernels.raycast_batch) as cast:
        t = _shell_cast(vmap, origins, dirs, t_cap)
    assert t.shape == (len(origins), len(dirs))
    for o, row in zip(origins, t):
        assert same_bits(row, nearest_only(raycast_batch_scalar(occ, o, dirs / voxel_size, t_cap)))
    return t, cast.call_count


@st.composite
def unit_ray_batches(draw):
    """A random grid with an occupied voxel, a voxel size, 1-3 origins on
    the grid in grid units, up to 24 unit rays (axis-aligned ones among
    them) and a range."""
    occ = draw(occupancy_grids())
    occ.flat[draw(st.integers(0, occ.size - 1))] = True
    origins = [[draw(on_grid_coordinate(n)) for n in occ.shape] for _ in range(draw(st.integers(1, 3)))]
    raw = draw(arrays(np.float64, (draw(st.integers(1, 24)), 3), elements=direction_component))
    raw[np.abs(raw).max(axis=1) < 0.1] = (0.0, 0.0, -1.0)
    dirs = raw / np.sqrt((raw * raw).sum(axis=1))[:, None]
    t_cap = draw(st.one_of(st.floats(0.05, 3.0), st.floats(3.0, 60.0)))
    return occ, draw(st.sampled_from([0.25, 1.0])), origins, dirs, t_cap


# A subnormal direction component: the grid exit 4 / 2**-1022 and the
# oracle's own divisions overflow to the intended inf, which must not warn
# (RuntimeWarnings fail the suite).
TINY_Y = np.array([[1.0, 2.2250738585072014e-308, 0.0]])


@given(batch=unit_ray_batches())
@example(batch=(np.arange(4).reshape(1, 4, 1) == 0, 1.0, [[0.0, 0.0, 0.0]], TINY_Y, 1.0))
@example(batch=(np.arange(4).reshape(1, 4, 1) == 0, 1.0, [[0.0, 3.5, 0.0], [0.0, 0.0, 0.0]], TINY_Y, 1.0))
@settings(max_examples=150, deadline=None)
def test_shell_cast_matches_the_filtered_scalar_oracle(batch):
    checked_shell_cast(*batch)


def test_shell_cast_keeps_every_ray_at_the_least_t_and_drops_the_others():
    # From (3.5, 1.5, 1.5) ray 0 meets voxel (3, 4, 1) at t = 2.5, and rays 1
    # (-x) and 2 (+x) meet voxels 1 and 5 at exactly 1.5, the least: both
    # stay, ray 0 goes.  `sample_cloud` then takes the lower of the tie.
    occ = np.zeros((7, 5, 3), dtype=np.bool_)
    occ[1, 1, 1] = occ[5, 1, 1] = occ[3, 4, 1] = True
    dirs = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    t, _ = checked_shell_cast(occ, 1.0, [[3.5, 1.5, 1.5]], dirs, 100.0)
    assert raycast_batch_scalar(occ, np.array([3.5, 1.5, 1.5]), dirs, 100.0).tolist() == [2.5, 1.5, 1.5]
    assert t.tolist() == [[-1.0, 1.5, 1.5]]


def test_shell_cast_drops_a_hit_one_ulp_past_the_least():
    # Ray 1 (+x) from x = 3.5 meets voxel 5 at (4 - 3.5) + 1 = 1.5; ray 0
    # (+y) from one ulp below y = 1.5 meets voxel 3 at (2 - y) + 1, one ulp
    # past 1.5, and must go.
    occ = np.zeros((7, 5, 3), dtype=np.bool_)
    occ[5, 1, 1] = occ[3, 3, 1] = True
    origin = np.array([3.5, np.nextafter(1.5, 0.0), 1.5])
    dirs = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    t, _ = checked_shell_cast(occ, 1.0, [origin], dirs, 100.0)
    assert raycast_batch_scalar(occ, origin, dirs, 100.0).tolist() == [np.nextafter(1.5, 2.0), 1.5]
    assert t.tolist() == [[-1.0, 1.5]]


@pytest.mark.parametrize("near_first", [True, False])
def test_shell_cast_keeps_each_origin_to_its_own_least_t(near_first):
    # A wall at x = 10: one origin 0.5 voxels from it, one 7.5 voxels away,
    # each casting one ray at the wall and one along it, in one kernel
    # call.  The near origin's least t, 0.5, must not cut the far origin's
    # hit at 7.5.
    occ = np.zeros((12, 3, 3), dtype=np.bool_)
    occ[10] = True
    near, far = [9.5, 1.5, 1.5], [2.5, 1.5, 1.5]
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    t, calls = checked_shell_cast(occ, 1.0, [near, far] if near_first else [far, near], dirs, 20.0)
    assert t.tolist() == ([[0.5, -1.0], [7.5, -1.0]] if near_first else [[7.5, -1.0], [0.5, -1.0]])
    assert calls == 1


@st.composite
def shell_scenes(draw):
    """(occupancy, voxel size, positions, range, rays): a random grid or a
    roof over a floor, with 1-4 positions on the grid, anywhere, next to an
    occupied voxel or under the roof, in grid units."""
    if draw(st.booleans()):
        occ = draw(occupancy_grids())
    else:
        shape = (draw(st.integers(2, 9)), draw(st.integers(2, 9)), draw(st.integers(4, 9)))
        occ = np.zeros(shape, dtype=np.bool_)
        occ[:, :, 0] = occ[:, :, -1] = True
    filled = np.argwhere(occ)
    positions = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["anywhere", "next to", "under"]))
        if kind == "next to" and filled.size:
            voxel = filled[draw(st.integers(0, len(filled) - 1))]
            offsets = (st.floats(max(-1.5, -float(v)), min(2.5, float(n - v)), exclude_max=True) for v, n in zip(voxel, occ.shape))
            positions.append([v + draw(offset) for v, offset in zip(voxel, offsets)])
        elif kind == "under":
            nx, ny, nz = occ.shape
            positions.append([draw(on_grid_coordinate(nx)), draw(on_grid_coordinate(ny)), draw(st.floats(nz / 4, nz * 3 / 4))])
        else:
            positions.append([draw(on_grid_coordinate(n)) for n in occ.shape])
    max_range = draw(st.one_of(st.floats(0.05, 3.0), st.just(50.0)))
    return occ, draw(st.sampled_from([0.1, 0.25, 1.0])), np.array(positions), max_range, draw(st.integers(1, 300))


ROOF = np.zeros((6, 6, 8), dtype=np.bool_)
ROOF[:, :, 0] = ROOF[:, :, -1] = True
SLAB = np.zeros((9, 6, 5), dtype=np.bool_)
SLAB[7:] = True


@given(scene=shell_scenes())
@example(scene=(SLAB, 0.25, np.array([[3.0, 3.0, 2.5], [3.5, 2.0, 2.5]]), 50.0, 300))  # first shell
@example(scene=(ROOF, 0.25, np.array([[3.0, 3.0, 3.5]]), 50.0, 300))  # grown shell
@example(scene=(SLAB, 0.25, np.array([[1.0, 3.0, 2.5]]), 0.5, 300))  # full cast
@settings(max_examples=200, deadline=None)
def test_shell_scans_equal_the_full_cast(scene):
    occ, voxel_size, grid_positions, max_range, rays = scene
    vmap = VoxelMap(np.array([-7.3, 120.1, 0.35]), voxel_size, occ)
    positions = vmap.origin + grid_positions * voxel_size
    assume(all(map(vmap.contains, positions)))
    _, _, casts = shell_scan(vmap, positions, max_range, rays)
    event(shell_regime(casts, max_range))


@pytest.mark.parametrize(
    "occ, grid_positions, max_range, regime",
    [
        (SLAB, [[3.0, 3.0, 2.5], [3.5, 2.0, 2.5]], 50.0, "first"),
        (ROOF, [[3.0, 3.0, 3.5]], 50.0, "grown"),
        (SLAB, [[1.0, 3.0, 2.5]], 0.5, "full"),
    ],
)
def test_shell_scan_examples_reach_each_regime(occ, grid_positions, max_range, regime):
    # The oracle's explicit examples cover the first shell, a grown shell
    # and the full cast.
    vmap = VoxelMap(np.array([-7.3, 120.1, 0.35]), 0.25, occ)
    _, _, casts = shell_scan(vmap, vmap.origin + np.array(grid_positions) * 0.25, max_range, 300)
    assert shell_regime(casts, max_range) == regime


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
    d0 = np.linalg.norm(sample_cloud(wall_map, [probe], 12.0, 1024)[0] - probe)
    d1 = np.linalg.norm(sample_cloud(receded, [probe], 12.0, 1024)[0] - probe)
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
    assert not np.isfinite(render_depth(vmap, ViewPose4(2.5, 2.5, 2.5), CAM)).any()
    assert np.isnan(sample_cloud(vmap, np.full((2, 3), 2.5), 10.0, 256)).all()


# ---------------------------------------------------------------- collision


def test_collision_empty_map():
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    assert is_collision_free(vmap, [2.5, 2.5, 2.5], 0.5)
    # Off the map nothing is free, on an empty map too.
    assert not is_collision_free(vmap, [6.0, 2.5, 2.5], 0.5)
    assert not is_collision_free(vmap, ([2.5, 2.5, 2.5], [2.5, 5.0, 2.5]), 0.5)


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
