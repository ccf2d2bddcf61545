#!/usr/bin/env python3
"""Benchmark the hot kernels at full size.

`raycast_batch` and `normals_from_depth` have two implementations: the
scalar loops (numba compiles them; as plain Python they are the bitwise
test oracle) and the vectorized numpy kernels, which are what runs when
numba is absent.  Both are timed on the cases a mission runs every control
step, from a pose in the `receding` demo's scene: the 80x60 depth image
(5 m range), the 2048-ray 12 m omnidirectional scan, the same scan in
nearest-return mode (as the mission's scans run) and the depth image's
normal map.  The numpy raycasts are clipped to the map's occupied box, as
`render_depth` and `sample_cloud` cast them; the scalar loop casts
unclipped, as the tests' oracle does.  `frechet_dp` and `point_is_free`
have only the scalar loops.  The control rows time `point_is_free` over
the 41 points of a 2 m tracking step along the same scene's face (from
the sensing pose, and 0.6 m from the face where it has not receded),
clipped to the occupied box, as `is_collision_free` calls it, against the
full-grid box.  The batched row times the mission's viewing-distance
scans as the stepper casts them: 8 nearest-mode 2048-ray scans from 8
consecutive 0.08 m steps along the same face, in one multi-origin call,
against 8 single-origin calls (both numpy, clipped to the occupied box).
The level camera rows time `raycast_level_frame`, the kernel
`render_depth` casts a level camera's frame with, against
`raycast_batch` (numpy, clipped to the occupied box) on the same 80x60
rays, after checking that both return the same bits: from the `receding`
sensing pose, where the rays hit the face, and from a `receding_full`
baseline viewpoint 2 m from the historical face, where the current face
lies beyond the 3 m range and every ray misses.
The utility row times the logged viewpoint utility of the `receding`
sensing pose's depth image as `viewpoint_utility` computes it,
`incidence_cosines` and the mean of their magnitudes, against the mean
over the finite z components of `estimate_normal_map`'s normal map,
after checking that both give the same bits.
The jitted column is printed only when numba is enabled.

The planning rows run at site scale (a 40 x 40 x 2.4 m yard at 0.1 m
voxels, 400x400x24, inflation 0.5 m): `VoxelMap.free_mask` (the separable
clearance transform) against the `binary_dilation` it replaced;
`plan_route` to a goal inside a sealed room, with the connected-component
gate against the A* flood that ran without it; `plan_route` across the
open yard, corner to corner, against the tuple-keyed A* loop it replaced;
and `solve_tour_sa_tsp` on wall grids of 50, 280 and 880 viewpoints (the
site's three tours have 50 in all) against the annealer that costs every
proposal.
The two replaced loops are the oracles in `tests/planner_reference.py`.

Times are the best of a few repeats, per call (one call for the larger
tours).

Run: PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
from scipy import ndimage

from surfscan import global_plan, kernels, world
from surfscan.depthcam import estimate_normal_map
from surfscan._accel import NUMBA_ENABLED, py_func
from surfscan.geometry import Pose6, ViewPose4
from surfscan.scenario import build_scene, demo_scenario
from surfscan.world import Box, VoxelMap, camera_axes_world, fibonacci_directions, render_depth

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import planner_reference  # noqa: E402


def timeit(fn, *args, repeat=5, **kwargs):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def sensing_cases():
    """(name, scalar loop, vectorized kernel, args, kernel keywords) for
    one receding pose."""
    cfg = demo_scenario("receding")
    vmap = build_scene(cfg).current
    cam = cfg.camera
    pose = Pose6(4.0, -2.0, 0.6)
    origin = vmap.world_to_grid(pose.position)

    right, down, forward = camera_axes_world(pose)
    pix = cam.pixel_directions()
    world = pix[..., 0, None] * right + pix[..., 1, None] * down + pix[..., 2, None] * forward
    cam_dirs = np.ascontiguousarray(world.reshape(-1, 3) / vmap.voxel_size)
    scan_dirs = np.ascontiguousarray(fibonacci_directions(2048) / vmap.voxel_size)
    depth = np.ascontiguousarray(render_depth(vmap, pose, cam).data)
    clip = {"box": vmap.occupied_box}
    return (
        (
            f"raycast camera {cam.width}x{cam.height}",
            kernels.raycast_batch_scalar,
            kernels.raycast_batch_numpy,
            (vmap.occ, origin, cam_dirs, float(cam.max_range)),
            clip,
        ),
        (
            "raycast scan 2048 rays",
            kernels.raycast_batch_scalar,
            kernels.raycast_batch_numpy,
            (vmap.occ, origin, scan_dirs, 12.0),
            clip,
        ),
        (
            "raycast scan 2048 nearest",
            kernels.raycast_batch_scalar,
            kernels.raycast_batch_numpy,
            (vmap.occ, origin, scan_dirs, 12.0, True),
            clip,
        ),
        (
            f"normals {cam.width}x{cam.height}",
            kernels.normals_from_depth_scalar,
            kernels.normals_from_depth_numpy,
            (depth, float(cam.fx), float(cam.fy), float(cam.cx), float(cam.cy), 0.3),
            {},
        ),
    )


def frame_cases():
    """(name, level-frame arguments, `raycast_batch` arguments) for the
    80x60 frame of a level camera: from the `receding` sensing pose, where
    the rays hit, and from a `receding_full` baseline viewpoint, 2 m from
    the historical face, where the current face lies beyond the camera's
    3 m range and every ray misses."""
    cases = []
    for name, demo, position in (("hit", "receding", (4.0, -2.0, 0.6)), ("miss", "receding_full", (4.0, 0.0, 0.6))):
        cfg = demo_scenario(demo)
        vmap = build_scene(cfg).current
        cam = cfg.camera
        pose = Pose6(*position)
        axes = camera_axes_world(pose)
        origin = vmap.world_to_grid(pose.position)
        box = vmap.occupied_box
        cols, rows = world._frame_axes(*axes, cam, vmap.voxel_size)
        dirs = world._pixel_rays(*axes, cam, vmap.voxel_size)
        cases.append(
            (
                f"frame {cam.width}x{cam.height} {name}",
                (vmap.occ, origin, cols, rows, float(cam.max_range), box, vmap.column_extent),
                (vmap.occ, origin, dirs, float(cam.max_range)),
                {"box": box},
            )
        )
    return cases


def utility_case():
    """(name, cosines-and-mean, normal-map-and-mean) for the depth image of
    the `receding` sensing pose."""
    cfg = demo_scenario("receding")
    cam = cfg.camera
    depth = render_depth(build_scene(cfg).current, Pose6(4.0, -2.0, 0.6), cam)
    args = (depth.data, float(cam.fx), float(cam.fy), float(cam.cx), float(cam.cy), 0.3)

    def from_cosines():
        cosines = np.abs(kernels.incidence_cosines(*args))
        return cosines, float(cosines.mean())

    def from_normal_map():
        nz = estimate_normal_map(depth, cam, jump=0.3)[..., 2]
        cosines = np.abs(nz[np.isfinite(nz)])
        return cosines, float(cosines.mean())

    return f"utility {cam.width}x{cam.height}", from_cosines, from_normal_map


def scalar_only_cases():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(200, 3))
    b = rng.normal(size=(200, 3))
    occ = np.ascontiguousarray(rng.random((120, 120, 24)) < 0.02)
    pts = rng.uniform(5, 100, size=(2000, 3))
    pts[:, 2] = rng.uniform(2, 20, size=2000)

    box = VoxelMap(np.zeros(3), 1.0, occ).occupied_box

    def clearance(fn):
        for x, y, z in pts:
            fn(occ, x, y, z, 5.0, box)

    return (
        ("frechet dp 200x200", lambda fn: fn(a, b), kernels.frechet_dp),
        ("clearance 2000 points", clearance, kernels.point_is_free),
    )


def swept_cases():
    """(name, occupancy, sample points, radius, occupied box, full-grid
    box) for a 2 m tracking step along the `receding` demo's face, sampled
    every half voxel as `is_collision_free` samples it: from the sensing
    pose, and 0.6 m (just beyond the inflation) from the unreceded face."""
    cfg = demo_scenario("receding")
    vmap = build_scene(cfg).current
    box = vmap.occupied_box
    face = vmap.origin[0] + box[0, 0] * vmap.voxel_size
    full = np.array([(0, 0, 0), vmap.shape])
    along = np.linspace(0.0, 1.0, 41)[:, None] * np.array([0.0, 2.0, 0.0])
    radius = cfg.inflation / vmap.voxel_size
    starts = (("swept check at pose", (4.0, -2.0, 0.6)), ("swept check 0.6 m", (face - 0.6, 2.5, 0.6)))
    return [(name, vmap.occ, vmap.world_to_grid(np.array(p) + along), radius, box, full) for name, p in starts]


def batched_scan_case():
    """(name, occupancy, 8 grid-unit origins, one scan's directions, box)
    for 8 consecutive control steps in front of the `receding` demo's
    face."""
    vmap = build_scene(demo_scenario("receding")).current
    steps = np.array([4.0, -2.0, 0.6]) + np.arange(8)[:, None] * np.array([0.0, 0.08, 0.0])
    dirs = np.ascontiguousarray(fibonacci_directions(2048) / vmap.voxel_size)
    return "8 scans 2048 nearest", vmap.occ, vmap.world_to_grid(steps), dirs, vmap.occupied_box


SITE_BOXES = (
    ((34.0, 4.0, 0.0), (34.4, 36.0, 2.4)),  # face
    ((8.0, 36.0, 0.0), (20.0, 36.4, 2.4)),  # north wall
    ((14.0, 3.6, 0.0), (24.0, 4.0, 2.4)),  # south wall
    ((24.0, 12.0, 0.0), (28.0, 14.0, 2.4)),  # stockpile
    ((12.0, 14.0, 0.0), (12.4, 22.0, 2.4)),  # sealed room
    ((19.6, 14.0, 0.0), (20.0, 22.0, 2.4)),
    ((12.0, 14.0, 0.0), (20.0, 14.4, 2.4)),
    ((12.0, 21.6, 0.0), (20.0, 22.0, 2.4)),
)


def dilation_free_mask(vmap, inflation):
    """The `binary_dilation` form of `VoxelMap.free_mask`."""
    r_vox = inflation / vmap.voxel_size
    reach = int(np.ceil(r_vox + 0.5))
    d = np.abs(np.arange(-reach, reach + 1)) - 0.5
    g2 = np.maximum(d, 0.0) ** 2
    gap = np.sqrt(g2[:, None, None] + g2[None, :, None] + g2[None, None, :])
    return ~ndimage.binary_dilation(vmap.occ, structure=gap <= r_vox)


def wall_tour_plan(cols, rows):
    """A wall's viewpoint grid at the default view constraints' spacing."""
    c = global_plan.ViewConstraints()
    y, z = np.meshgrid(2.0 + np.arange(cols) * c.spacing_h, 0.6 + np.arange(rows) * c.spacing_v, indexing="ij")
    vps = tuple(ViewPose4(32.0, yy, zz, 0.0) for yy, zz in zip(y.ravel(), z.ravel()))
    return global_plan.ViewPlan("wall", vps, np.ones(len(vps), dtype=bool), np.zeros((len(vps), 3)))


def planning_cases():
    """(name, new, reference, repeats) at site scale."""
    inflation = 0.5
    boxes = [Box(lo, hi) for lo, hi in SITE_BOXES]
    site = VoxelMap.from_boxes(boxes, 0.1, bounds=((0.0, 0.0, 0.0), (40.0, 40.0, 2.4)))
    start, goal = (2.0, 2.0, 0.6), (16.0, 18.0, 0.6)

    def fresh_mask():
        return VoxelMap(site.origin, site.voxel_size, site.occ).free_mask(inflation)

    def enclosed_route():
        try:
            global_plan.plan_route(site, start, goal, inflation, z_band=(0.6, 0.6))
        except global_plan.RouteError:
            return
        raise AssertionError("the sealed room is reachable")

    def one_label(free, structure):
        return np.ones(free.shape, dtype=np.int32), 1

    def enclosed_route_flood():
        # One label everywhere: the gate passes and A* floods the yard.
        with mock.patch.object(global_plan.ndimage, "label", one_label):
            enclosed_route()

    yard = VoxelMap.empty((0.0, 0.0, 0.0), (40.0, 40.0, 2.4), 0.1)
    yard.free_mask(inflation)  # cached, as after a mission's first route
    corners = (0.6, 0.6, 0.6), (39.4, 39.4, 0.6)

    def yard_route(plan_route):
        return lambda: plan_route(yard, *corners, inflation, z_band=(0.6, 0.6))

    def tour(solve, plan):
        return lambda: solve(plan, (2.0, 2.0, 0.6), 1)

    assert np.array_equal(fresh_mask(), dilation_free_mask(site, inflation))
    cases = [
        (f"free_mask {'x'.join(map(str, site.shape))}", fresh_mask, lambda: dilation_free_mask(site, inflation), 5),
        ("plan_route enclosed goal", enclosed_route, enclosed_route_flood, 5),
        ("plan_route open yard", yard_route(global_plan.plan_route), yard_route(planner_reference.plan_route), 5),
    ]
    for cols, rows in ((25, 2), (70, 4), (220, 4)):
        plan = wall_tour_plan(cols, rows)
        new = tour(global_plan.solve_tour_sa_tsp, plan)
        reference = tour(planner_reference.solve_tour_sa_tsp, plan)
        cases.append((f"sa_tsp {len(plan)} cities", new, reference, 3 if len(plan) <= 50 else 1))
    return cases


def ms(seconds):
    return f"{seconds * 1e3:>11.2f} ms"


def main():
    print(f"numba enabled: {NUMBA_ENABLED}")
    header = f"{'case':<26}{'numpy':>14}{'python loop':>14}{'python/numpy':>14}"
    if NUMBA_ENABLED:
        header += f"{'numba':>14}"
    print(header)
    for name, scalar, vectorized, args, kwargs in sensing_cases():
        t_np = timeit(vectorized, *args, **kwargs)
        t_py = timeit(py_func(scalar), *args, repeat=2)
        row = f"{name:<26}{ms(t_np)}{ms(t_py)}{t_py / t_np:>13.1f}x"
        if NUMBA_ENABLED:
            scalar(*args, **kwargs)  # compile
            row += ms(timeit(scalar, *args, **kwargs))
        print(row)
    for name, run, kernel in scalar_only_cases():
        t_py = timeit(run, py_func(kernel), repeat=2)
        row = f"{name:<26}{'-':>14}{ms(t_py)}{'-':>14}"
        if NUMBA_ENABLED:
            run(kernel)  # compile
            row += ms(timeit(run, kernel))
        print(row)
    print(f"{'level camera':<26}{'frame':>14}{'batch':>14}{'batch/frame':>14}")
    for name, frame_args, batch_args, batch_kwargs in frame_cases():
        got = kernels.raycast_level_frame(*frame_args)
        assert np.array_equal(got.view(np.int64), kernels.raycast_batch_numpy(*batch_args, **batch_kwargs).view(np.int64))
        t_frame = timeit(kernels.raycast_level_frame, *frame_args)
        t_batch = timeit(kernels.raycast_batch_numpy, *batch_args, **batch_kwargs)
        print(f"{name:<26}{ms(t_frame)}{ms(t_batch)}{t_batch / t_frame:>13.1f}x")
    name, from_cosines, from_normal_map = utility_case()
    assert np.array_equal(from_cosines()[0].view(np.int64), from_normal_map()[0].view(np.int64))
    t_cosines = timeit(from_cosines)
    t_map = timeit(from_normal_map)
    print(f"{'utility':<26}{'cosines':>14}{'normal map':>14}{'map/cosines':>14}")
    print(f"{name:<26}{ms(t_cosines)}{ms(t_map)}{t_map / t_cosines:>13.1f}x")
    name, occ, origins, dirs, box = batched_scan_case()
    tiled = np.tile(dirs, (len(origins), 1))

    def single_calls():
        for origin in origins:
            kernels.raycast_batch_numpy(occ, origin, dirs, 12.0, True, box=box)

    t_one = timeit(kernels.raycast_batch_numpy, occ, origins, tiled, 12.0, True, box=box)
    t_single = timeit(single_calls)
    print(f"{'batched':<26}{'one call':>14}{'8 calls':>14}{'calls/one':>14}")
    print(f"{name:<26}{ms(t_one)}{ms(t_single)}{t_single / t_one:>13.1f}x")
    print(f"{'control':<26}{'box':>14}{'full grid':>14}{'full/box':>14}")
    for name, occ, pts, radius, box, full in swept_cases():

        def swept(clip):
            for x, y, z in pts:
                kernels.point_is_free(occ, x, y, z, radius, clip)

        t_box = timeit(swept, box)
        t_full = timeit(swept, full)
        print(f"{name:<26}{ms(t_box)}{ms(t_full)}{t_full / t_box:>13.1f}x")
    print(f"{'planning':<26}{'new':>14}{'reference':>14}{'ref/new':>14}")
    for name, new, reference, repeat in planning_cases():
        t_new = timeit(new, repeat=repeat)
        t_ref = timeit(reference, repeat=min(repeat, 2))
        print(f"{name:<26}{ms(t_new)}{ms(t_ref)}{t_ref / t_new:>13.1f}x")


if __name__ == "__main__":
    main()
