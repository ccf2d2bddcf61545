import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from strategies import grid_coordinate, occupancy_grids
from surfscan import kernels
from surfscan.depthcam import CameraIntrinsics
from surfscan.fileio import _load_xyz_lines, load_xyz
from surfscan.geometry import Pose6, nearest_point
from surfscan.metrics import viewing_distance
from surfscan.world import (
    Box,
    MorphologyDelta,
    Scene,
    VoxelMap,
    apply_delta,
    fibonacci_directions,
    is_collision_free,
    load_map,
    nearest_distances,
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
    vmap = load_map(f, voxel_size=0.1)
    assert vmap.occupied_count == 1


def test_load_map_dedupes_same_voxel(tmp_path):
    f = tmp_path / "two.xyz"
    f.write_text("0.01 0.02 0.03\n0.04 0.05 0.06\n")
    assert load_map(f, voxel_size=0.1).occupied_count == 1


def test_load_map_planar_grid(tmp_path):
    pts = [(0.05 + 0.1 * i, 0.05 + 0.1 * j, 0.05) for i in range(10) for j in range(10)]
    f = tmp_path / "grid.xyz"
    f.write_text("\n".join(f"{x} {y} {z}" for x, y, z in pts))
    assert load_map(f, voxel_size=0.1).occupied_count == 100


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
    assert out.occupied_count == 0


def test_apply_delta_slab_count(wall_map):
    # 1 m thick slab across the middle of the wall.
    slab = Box((6.0, -1.0, 0.0), (6.4, 0.0, 2.4))
    before = wall_map.occupied_count
    out = apply_delta(wall_map, MorphologyDelta(removals=(slab,)))
    slab_voxels = 4 * 10 * 24
    assert before - out.occupied_count == slab_voxels


def test_apply_delta_removals_idempotent(wall_map):
    slab = Box((6.0, -1.0, 0.0), (6.4, 0.0, 2.4))
    once = apply_delta(wall_map, MorphologyDelta(removals=(slab,)))
    twice = apply_delta(once, MorphologyDelta(removals=(slab,)))
    assert np.array_equal(once.occ, twice.occ)


def test_apply_delta_addition_grows_grid(wall_map):
    out = apply_delta(wall_map, MorphologyDelta(additions=(Box((12.0, 0.0, 0.0), (12.5, 0.5, 0.5)),)))
    assert out.bounds[1][0] >= 12.5
    assert out.occupied_count == wall_map.occupied_count + 5 * 5 * 5
    assert occupied_at(out, [12.25, 0.25, 0.25])


def test_scene_from_delta_reproducible(wall_map):
    delta = MorphologyDelta(removals=(Box((6.0, -1.0, 0.0), (6.4, 0.0, 2.4)),))
    scene = Scene.from_delta(wall_map, delta)
    again = apply_delta(wall_map, delta)
    assert np.array_equal(scene.current.occ, again.occ)


# ---------------------------------------------------------------- depth rendering


def test_render_depth_flat_wall(wall_map):
    pose = Pose6(4.0, 0.0, 1.2, 0.0, 0.0, 0.0)  # 2 m from the face, looking +x
    img = render_depth(wall_map, pose, CAM)
    cy, cx = CAM.height // 2, CAM.width // 2
    assert img.data[cy, cx] == pytest.approx(2.0, abs=wall_map.voxel_size)
    # Projective depth: every wall pixel reports the same axial distance.
    valid = np.isfinite(img.data)
    assert valid[cy, cx]
    assert np.nanmax(np.abs(img.data[valid] - 2.0)) <= wall_map.voxel_size


def test_render_depth_empty_space():
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    img = render_depth(vmap, Pose6(2.5, 2.5, 2.5), CAM)
    assert not np.isfinite(img.data).any()


def test_render_depth_oblique_wall_matches_plane_equation(wall_map):
    # Yaw 30 deg: ray-plane depth = perpendicular distance / cos(pixel angle to plane normal).
    yaw = np.deg2rad(30.0)
    pose = Pose6(4.0, 0.0, 1.2, 0.0, 0.0, yaw)
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
    pose = Pose6(4.0, 0.3, 1.0, 0.0, 0.0, 0.1)
    a = render_depth(wall_map, pose, CAM)
    b = render_depth(wall_map, pose, CAM)
    assert np.array_equal(a.data, b.data, equal_nan=True)


# ---------------------------------------------------------------- cloud sampling


def test_sample_cloud_empty_map():
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    cloud = sample_cloud(vmap, Pose6(2.5, 2.5, 2.5), 10.0, 256)
    assert cloud.is_empty
    assert assert_same_nearest(vmap, np.array([2.5, 2.5, 2.5]), 10.0, 256).is_empty


def box_room(height):
    """Closed 4 m x 4 m room with 0.2 m walls, floor and ceiling."""
    vmap = VoxelMap.from_boxes([Box((0, 0, 0), (4.4, 4.4, height))], 0.1)
    occ = np.asarray(vmap.occ)
    occ.setflags(write=True)
    occ[2:-2, 2:-2, 2:-2] = False
    occ.setflags(write=False)
    return vmap


def test_sample_cloud_box_room_bound():
    # Closed 4x4x4 room; robot at the center.
    vmap = box_room(4.4)
    center = Pose6(2.2, 2.2, 2.2)
    cloud = sample_cloud(vmap, center, 10.0, 512)
    assert len(cloud) == 512
    dists = np.linalg.norm(cloud.points - center.position, axis=1)
    assert dists.max() <= 2 * np.sqrt(3) + 1e-9


def test_sample_cloud_hits_on_voxel_boundaries(wall_map):
    pose = Pose6(4.0, 0.0, 1.2)
    cloud = sample_cloud(wall_map, pose, 8.0, 512)
    assert len(cloud) > 0
    h = wall_map.voxel_size
    for p in cloud.points:
        # Nudge along the ray: the voxel just past the hit is occupied.
        d = p - pose.position
        d /= np.linalg.norm(d)
        assert occupied_at(wall_map, p + 1e-6 * d)
        # And the hit lies on a voxel face: some coordinate is a grid plane.
        g = wall_map.world_to_grid(p)
        assert np.min(np.abs(g - np.round(g))) < 1e-6


def assert_same_nearest(vmap, pos, max_range, ray_count):
    """The nearest-mode cloud from `pos` gives `nearest_point` bit for bit the
    answer of the full cloud; returns it."""
    full = sample_cloud(vmap, pos, max_range, ray_count)
    near = sample_cloud(vmap, pos, max_range, ray_count, nearest=True)
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


def single_scan_distance(vmap, pos, max_range, ray_count):
    cloud = sample_cloud(vmap, pos, max_range, ray_count, nearest=True)
    return np.nan if cloud.is_empty else viewing_distance(pos, cloud)


def test_nearest_distances_equal_single_scans(wall_map):
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
        got = nearest_distances(wall_map, positions, max_range, rays)
        want = np.array([single_scan_distance(wall_map, p, max_range, rays) for p in positions])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # A 1 m range from 2 m in front of the face sees nothing.
    assert np.isnan(nearest_distances(wall_map, positions[:1], 1.0, 512)).all()
    room = box_room(2.4)
    center = np.array([[2.2, 2.2, 1.2]])
    assert nearest_distances(room, center, 10.0, 2048)[0] == single_scan_distance(room, center[0], 10.0, 2048)


def test_nearest_distances_on_an_empty_map_are_nan():
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    got = nearest_distances(vmap, np.array([[2.5, 2.5, 2.5], [1.0, 1.0, 1.0]]), 10.0, 256)
    assert got.shape == (2,) and np.isnan(got).all()


def test_sample_cloud_deterministic(wall_map):
    a = sample_cloud(wall_map, Pose6(4.0, 0.0, 1.2), 8.0, 512)
    b = sample_cloud(wall_map, Pose6(4.0, 0.0, 1.2), 8.0, 512)
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
    probe = Pose6(4.0, 0.0, 1.2)
    delta = MorphologyDelta(removals=(Box((6.0, -5.0, 0.0), (7.0, 5.0, 2.4)),),
                            additions=(Box((7.0, -5.0, 0.0), (7.4, 5.0, 2.4)),))
    receded = apply_delta(wall_map, delta)
    _, d0 = nearest_point(sample_cloud(wall_map, probe, 12.0, 1024), probe.position)
    _, d1 = nearest_point(sample_cloud(receded, probe, 12.0, 1024), probe.position)
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


def test_empty_map_casts_no_rays(monkeypatch):
    def no_cast(*args, **kwargs):
        raise AssertionError("cast on an empty map")

    monkeypatch.setattr(kernels, "raycast_batch", no_cast)
    vmap = VoxelMap.empty((0, 0, 0), (5, 5, 5), 0.1)
    assert not np.isfinite(render_depth(vmap, Pose6(2.5, 2.5, 2.5), CAM).data).any()
    assert sample_cloud(vmap, Pose6(2.5, 2.5, 2.5), 10.0, 256, nearest=True).is_empty
    assert np.isnan(nearest_distances(vmap, np.full((2, 3), 2.5), 10.0, 256)).all()


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
    got = VoxelMap((0.0, 0.0, 0.0), voxel_size, occ).free_mask(inflation)
    assert np.array_equal(got, dilation_free_mask(occ, voxel_size, inflation))


def test_free_mask_wide_clearance():
    # 70 voxels of clearance: the squared gaps need 16 bits, not 8.
    occ = np.zeros((1, 1, 160), dtype=bool)
    occ[0, 0, 5] = True
    gap = np.maximum(np.abs(np.arange(160) - 5) - 0.5, 0.0)
    got = VoxelMap((0.0, 0.0, 0.0), 0.1, occ).free_mask(7.0)
    assert np.array_equal(got[0, 0], gap > 7.0 / 0.1)


def test_free_mask_cached_and_read_only(wall_map):
    mask = wall_map.free_mask(0.5)
    assert wall_map.free_mask(0.5) is mask
    assert not mask.flags.writeable
    assert mask.flags.c_contiguous and mask.shape == wall_map.shape
