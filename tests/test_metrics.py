import csv
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_reference import normals_from_depth_scalar, pixel_rays, raycast_batch_scalar
from strategies import depth_images, grid_coordinate, occupancy_grids
from surfscan import kernels, metrics
from surfscan.geometry import NoSurfaceError, PathSegment, ViewPose4, nearest_point
from surfscan.metrics import (
    MissionLog,
    MissionRecord,
    path_rmse,
    summarize,
    viewing_distance,
    viewpoint_utility,
    write_plot_data,
)
from surfscan.world import CameraIntrinsics, VoxelMap, fibonacci_directions, sample_cloud

CAM = CameraIntrinsics(alpha=np.deg2rad(69.5), beta=np.deg2rad(45.0), width=48, height=36, max_range=10.0)


def plane_depth(intr, normal, offset):
    denom = pixel_rays(intr) @ np.asarray(normal, dtype=float)
    with np.errstate(divide="ignore"):
        z = offset / denom
    z[~np.isfinite(z) | (z <= 0)] = np.nan
    return z


# ---------------------------------------------------------------- utility


def test_utility_fronto_parallel_wall():
    img = plane_depth(CAM, [0, 0, 1], 2.0)
    assert viewpoint_utility(img, CAM) == pytest.approx(1.0, abs=0.02)


def test_utility_60_degree_incidence():
    th = np.deg2rad(60.0)
    img = plane_depth(CAM, [np.sin(th), 0, np.cos(th)], 2.0)
    assert viewpoint_utility(img, CAM) == pytest.approx(0.5, abs=0.02)


def test_utility_bounds(rng):
    for _ in range(20):
        th = rng.uniform(0, np.deg2rad(75))
        img = plane_depth(CAM, [np.sin(th), 0, np.cos(th)], 2.0)
        try:
            u = viewpoint_utility(img, CAM)
        except NoSurfaceError:
            continue
        assert 0.0 <= u <= 1.0


def test_utility_no_valid_pixels():
    img = np.full((CAM.height, CAM.width), np.nan)
    with pytest.raises(NoSurfaceError):
        viewpoint_utility(img, CAM)


def test_utility_rejects_an_image_smaller_than_3x3():
    with pytest.raises(ValueError, match="3x3"):
        viewpoint_utility(np.full((2, 5), 1.0), CAM)


def utility_oracle(depth, cam, jump):
    """The utility as the normal map defines it: the mean |z| of the finite
    normals of the scalar loop, or None when there are none."""
    # A stencil holding an inf depth gives nan tangents.
    with np.errstate(invalid="ignore", divide="ignore"):
        normals = normals_from_depth_scalar(
            depth, float(cam.fx), float(cam.fy), float(cam.cx), float(cam.cy), jump
        )
    nz = normals[..., 2]
    finite = nz[np.isfinite(nz)]
    return float(np.abs(finite).mean()) if finite.size else None


def curved_depth(h=5, w=5):
    """A surface whose normal changes from pixel to pixel."""
    v, u = np.mgrid[0:h, 0:w].astype(np.float64)
    return 2.0 + 0.05 * u**2 + 0.03 * u * v


def with_pixel(depth, pixel, value):
    depth = depth.copy()
    depth[pixel] = value
    return depth


# Only the centre's own nan test drops this centre pixel: its normal comes
# from its four finite neighbors.
NAN_CENTRE = with_pixel(curved_depth(), (2, 2), np.nan)
# Pixel (1, 1)'s up neighbor lies exactly `jump` = 0.25 from it (kept);
# pixel (1, 2)'s down neighbor just past it (dropped).
JUMP_EDGE = with_pixel(with_pixel(np.ones((3, 4)), (0, 1), 1.25), (2, 2), np.nextafter(1.25, 2.0))
# Pixel (1, 1)'s four neighbors are 0: a zero normal, dropped; pixel (1, 2)
# is valid.
ZERO_NORM = np.array([[0.0, 0.0, 0.3, 0.0], [0.0, 0.2, 0.0, 0.5], [0.0, 0.0, 0.6, 0.0]])
# Nanometre depths around pixel (1, 1): a normal of norm about 1e-18, below
# the 1e-15 floor but with a finite cosine, dropped.
TINY_NORM = ZERO_NORM + np.array([[0.0, 3e-9, 0.0, 0.0], [1e-9, 0.0, 2e-9, 0.0], [0.0, 1.5e-9, 0.0, 0.0]])
# With an infinite jump an inf centre keeps a finite normal from its
# neighbors, while its neighbors' stencils give nan normals.
INF_CENTRE = with_pixel(curved_depth(), (2, 2), np.inf)


@given(
    depth=depth_images(min_side=3),
    fov=st.sampled_from([0.3, 1.2, 2.5]),
    jump=st.sampled_from([0.05, 0.3, 2.0]),
)
@example(depth=NAN_CENTRE, fov=1.2, jump=2.0)
@example(depth=np.full((4, 5), np.nan), fov=1.2, jump=0.3)
@example(depth=JUMP_EDGE, fov=1.2, jump=0.25)
@example(depth=ZERO_NORM, fov=1.2, jump=2.0)
@example(depth=TINY_NORM, fov=1.2, jump=2.0)
@example(depth=INF_CENTRE, fov=1.2, jump=np.inf)
@settings(max_examples=150, deadline=None)
def test_utility_matches_normal_map_oracle(depth, fov, jump):
    h, w = depth.shape
    cam = CameraIntrinsics(fov, 0.8 * fov, w, h)
    want = utility_oracle(depth, cam, jump)
    img = depth
    # The utility and the normal map read the module's one discontinuity
    # threshold, set here to each drawn one.
    with mock.patch.object(metrics, "DEPTH_JUMP", jump):
        if want is None:
            with pytest.raises(NoSurfaceError):
                viewpoint_utility(img, cam)
        else:
            assert viewpoint_utility(img, cam).hex() == want.hex()
        normals = metrics.estimate_normal_map(img, cam)
    direct = kernels.normals_from_depth(depth, float(cam.fx), float(cam.fy), float(cam.cx), float(cam.cy), jump)
    assert np.array_equal(normals.view(np.int64), direct.view(np.int64))


# ---------------------------------------------------------------- rmse


def test_rmse_examples():
    a = PathSegment([[0, 0, 0], [1, 0, 0]])
    assert path_rmse(a, a) == 0.0
    b = PathSegment([[0, 1, 0], [1, 1, 0]])
    assert path_rmse(a, b) == pytest.approx(1.0)


def test_rmse_matches_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(1, 10))
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(n, 3))
        expected = np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1)))
        assert path_rmse(PathSegment(a), PathSegment(b)) == pytest.approx(expected, abs=1e-12)


def test_rmse_triangle_inequality(rng):
    for _ in range(50):
        n = int(rng.integers(1, 8))
        a, b, c = (PathSegment(rng.normal(size=(n, 3))) for _ in range(3))
        assert path_rmse(a, c) <= path_rmse(a, b) + path_rmse(b, c) + 1e-12


def test_rmse_length_mismatch():
    with pytest.raises(ValueError):
        path_rmse(PathSegment(np.zeros((2, 3))), PathSegment(np.zeros((3, 3))))


# ---------------------------------------------------------------- viewing distance


def test_viewing_distance_wall(wall_map):
    robot = ViewPose4(4.0, 0.0, 1.2)
    (dist,) = viewing_distance([robot.position], sample_cloud(wall_map, [robot.position], 12.0, 2048))
    assert dist == pytest.approx(2.0, abs=wall_map.voxel_size)


def test_viewing_distance_empty_cloud():
    # A scan that saw nothing has a NaN row and logs NaN.
    got = viewing_distance([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], np.array([[np.nan] * 3, [1.0, 1.0, 1.0]]))
    assert np.isnan(got[0]) and got[1] == np.sqrt(2.0)
    with pytest.raises(ValueError, match="2 scans for 1 positions"):
        viewing_distance([[0.0, 0.0, 0.0]], np.ones((2, 3)))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_viewing_distance_is_nearest_point_per_scan(data):
    # Each `sample_cloud` row is the return of least range, the lowest ray
    # first, of the scalar oracle's full cast from its position alone, and
    # its viewing distance is bitwise the distance `nearest_point` gives
    # for that return, the one distance rule.
    occ = data.draw(occupancy_grids())
    vmap = VoxelMap(np.array([-7.3, 120.1, 0.35]), 0.25, occ)
    count = data.draw(st.integers(1, 4))
    positions = vmap.origin + 0.25 * np.array([[data.draw(grid_coordinate(n)) for n in occ.shape] for _ in range(count)])
    max_range = data.draw(st.one_of(st.floats(0.05, 3.0), st.just(50.0)))
    rays = data.draw(st.integers(1, 300))
    nearest = sample_cloud(vmap, positions, max_range, rays)
    got = viewing_distance(positions, nearest)
    dirs = fibonacci_directions(rays)
    dirs_g = np.ascontiguousarray(dirs / vmap.voxel_size)
    for q, row, dist in zip(positions, nearest, got):
        t = raycast_batch_scalar(vmap.occ, vmap.world_to_grid(q), dirs_g, max_range)
        hit = np.flatnonzero(t >= 0.0)
        if not hit.size:
            assert np.isnan(row).all() and np.isnan(dist)
            continue
        ray = hit[np.argmin(t[hit])]
        point, want = nearest_point((q + dirs[ray] * t[ray])[None], q)
        assert np.array_equal(row.view(np.int64), point.view(np.int64))
        assert np.float64(dist).view(np.int64) == np.float64(want).view(np.int64)


# ---------------------------------------------------------------- mission log


# The header of `mission_log.csv`, as every earlier log has it.
LOG_COLUMNS = (
    "t phase mode f_d gamma_s deviation rmse_pre rmse_post cursor visited viewing_distance utility "
    "x y z psi ref_x ref_y ref_z ref_psi blocked replanned"
).split()


def make_record(t, **kw):
    base = dict(
        t=t,
        phase="inspect",
        mode="global",
        f_d=0.1,
        gamma_s=1 / 1.1,
        rmse_pre=0.1,
        rmse_post=0.1,
        cursor=0,
        viewing_distance=2.0,
        utility=0.9,
        x=0.0,
        y=0.0,
        z=0.6,
        psi=0.0,
        ref_x=0.0,
        ref_y=0.0,
        ref_z=0.6,
        ref_psi=0.0,
        blocked=0,
    )
    base.update(kw)
    return MissionRecord(**base)


def test_log_requires_increasing_time():
    log = MissionLog()
    log.append(make_record(0.0))
    with pytest.raises(ValueError):
        log.append(make_record(0.0))


def test_log_csv_roundtrip(tmp_path):
    log = MissionLog()
    log.append(make_record(0.0))
    log.append(make_record(0.1, phase="navigate", mode="replanned", f_d=float("nan"), gamma_s=1 / 3, cursor=2))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == LOG_COLUMNS
    assert len(rows) == 2
    for rec, row in zip(log.records, rows):
        for name, text in zip(header, row):
            value = getattr(rec, name)
            # Floats are written as repr, so they read back bit for bit.
            assert text == (repr(value) if isinstance(value, float) else str(value))
    got = dict(zip(header, rows[1]))
    assert got["f_d"] == "nan"
    assert got["gamma_s"] == "0.3333333333333333"
    assert (got["phase"], got["replanned"]) == ("navigate", "1")
    # The derived columns: 1 - gamma_s, the cursor, and the mode.
    assert (got["deviation"], got["visited"]) == (repr(1.0 - 1 / 3), "2")
    assert dict(zip(header, rows[0]))["replanned"] == "0"


def test_record_stores_no_derived_column():
    stored = [f.name for f in dataclasses.fields(MissionRecord)]
    assert len(stored) == 19
    assert [name for name in LOG_COLUMNS if name not in stored] == ["deviation", "visited", "replanned"]


def test_summarize_basics():
    log = MissionLog()
    log.meta["completed"] = True
    log.append(make_record(0.0, phase="navigate", utility=0.5, viewing_distance=3.5))
    log.append(make_record(0.1, viewing_distance=2.5, utility=0.8))
    log.append(make_record(0.2, viewing_distance=2.1, utility=0.9, mode="replanned"))
    log.append(make_record(0.3, viewing_distance=2.05, utility=1.0))
    s = summarize(log, d_view=2.0)
    assert s["duration_s"] == pytest.approx(0.3)
    assert s["inspect_cycles"] == 3
    assert s["mean_utility"] == pytest.approx(np.mean([0.8, 0.9, 1.0]))
    assert s["pct_replanned"] == pytest.approx(100.0 / 3.0)
    assert s["time_to_reconverge_s"] == pytest.approx(0.2)  # first |vd-2| < 0.2
    assert s["completed"] is True


def test_summarize_never_reconverges():
    log = MissionLog()
    log.append(make_record(0.0, viewing_distance=3.0))
    log.append(make_record(0.1, viewing_distance=3.0))
    assert summarize(log, d_view=2.0)["time_to_reconverge_s"] is None


def test_write_plot_data(tmp_path):
    log = MissionLog()
    log.append(make_record(0.0))
    log.append(make_record(0.1))
    write_plot_data(log, tmp_path / "plots")
    for name in ("similarity.dat", "rmse.dat", "viewing_distance.dat", "utility.dat"):
        text = (tmp_path / "plots" / name).read_text()
        assert text.startswith("#")
        assert len(text.strip().splitlines()) == 3
