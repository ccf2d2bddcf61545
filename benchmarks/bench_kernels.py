#!/usr/bin/env python3
"""Benchmark the hot kernels at full size.

`raycast_batch` and `normals_from_depth` are vectorized numpy kernels;
their scalar loops (`raycast_batch_scalar`, `normals_from_depth_scalar`)
are the tests' bitwise oracles.  Both are timed on the cases a mission
runs every control step, from a pose in the `receding` demo's scene: the
80x60 depth image (5 m range), the 2048-ray 12 m omnidirectional scan,
the same scan in nearest-return mode (as the mission's scans run) and
the depth image's normal map.  The numpy raycasts are clipped to the
map's occupied box, as `render_depth` and `sample_cloud` cast them; the
scalar loop casts unclipped, as the tests' oracle does.  `frechet_dp` and
`point_is_free` are plain loops, with no vectorized form.  The control rows time `point_is_free` over
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

The planning rows run at site scale (a 40 x 40 x 2.4 m yard at 0.1 m
voxels, 400x400x24, inflation 0.5 m): `VoxelMap.free_mask` (the separable
clearance transform) against the `binary_dilation` it replaced, after
checking that both give the same mask; the mask
of one z layer, as `plan_route` fetches it for the default z band,
against the whole-grid mask sliced to that layer; `VoxelMap.occupied_box`
(reductions over the outer axes) against the per-axis `occ.any(axis=rest)`
form it replaced, after checking that both give the same box;
`global_plan._label_components` on that layer's mask (the 26-connected
free components the route gate compares) against the
`ndimage.label(free, structure=np.ones((3, 3, 3)))` it replaced, after
checking that both give the same partition;
`plan_route` to a goal inside a sealed room, with the connected-component
gate against the A* flood that ran without it (the labelling patched to
one label everywhere); `plan_route` across the
open yard, corner to corner, against the tuple-keyed A* loop it replaced;
`prioritize_tasks` on the site's four tasks (three reachable walls and the
sealed room's inner face, band (0.6, 0.6), the band's mask cached), one
band set-up for all four routes, against one `plan_route` call and so one
set-up per task, after checking that both give the same lengths;
`generate_grid_viewpoints` on the same four tasks, one numpy pass per
grid, against the per-point loop, after checking that both give the same
viewpoints; and `solve_tour_sa_tsp` on wall grids of 50, 280 and 880
viewpoints (the site's three tours have 50 in all) against the annealer
that costs every proposal and draws through numpy's `Generator`.
The replaced loops are the oracles in `tests/planner_reference.py`.

Times are the best of a few repeats, per call (one call for the larger
tours).

Run: PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import logging
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
from scipy import ndimage

from surfscan import global_plan, kernels, world
from surfscan.depthcam import DEPTH_JUMP, CameraIntrinsics, estimate_normal_map
from surfscan.geometry import PolygonROI, ViewPose4
from surfscan.scenario import CAMERA_FOV, build_scene, demo_scenario
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
    vmap = build_scene(cfg, None).current
    cam = cfg.camera
    pose = ViewPose4(4.0, -2.0, 0.6)
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
            kernels.raycast_batch,
            (vmap.occ, origin, cam_dirs, float(cam.max_range)),
            clip,
        ),
        (
            "raycast scan 2048 rays",
            kernels.raycast_batch_scalar,
            kernels.raycast_batch,
            (vmap.occ, origin, scan_dirs, 12.0),
            clip,
        ),
        (
            "raycast scan 2048 nearest",
            kernels.raycast_batch_scalar,
            kernels.raycast_batch,
            (vmap.occ, origin, scan_dirs, 12.0, True),
            clip,
        ),
        (
            f"normals {cam.width}x{cam.height}",
            kernels.normals_from_depth_scalar,
            kernels.normals_from_depth,
            (depth, float(cam.fx), float(cam.fy), float(cam.cx), float(cam.cy), DEPTH_JUMP),
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
        vmap = build_scene(cfg, None).current
        cam = cfg.camera
        pose = ViewPose4(*position)
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
    depth = render_depth(build_scene(cfg, None).current, ViewPose4(4.0, -2.0, 0.6), cam)
    args = (depth.data, float(cam.fx), float(cam.fy), float(cam.cx), float(cam.cy), DEPTH_JUMP)

    def from_cosines():
        cosines = np.abs(kernels.incidence_cosines(*args))
        return cosines, float(cosines.mean())

    def from_normal_map():
        nz = estimate_normal_map(depth, cam)[..., 2]
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
    vmap = build_scene(cfg, None).current
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
    vmap = build_scene(demo_scenario("receding"), None).current
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


def ndimage_labels(free):
    """The `ndimage.label` form of `global_plan._label_components`."""
    return ndimage.label(free, structure=np.ones((3, 3, 3)))[0]


def same_partition(labels, reference):
    """Whether two labellings have the same unlabelled cells and group the
    labelled ones alike: their label pairs form a bijection."""
    free = reference > 0
    if labels.shape != reference.shape or not np.array_equal(labels > 0, free):
        return False
    pairs = np.unique(np.stack([labels[free], reference[free]]), axis=1)
    return len(np.unique(pairs[0])) == len(np.unique(pairs[1])) == pairs.shape[1]


def per_axis_occupied_box(occ):
    """The per-axis `occ.any(axis=rest)` form of `VoxelMap.occupied_box`."""
    lo, hi = [], []
    for axis in range(3):
        rest = tuple(a for a in range(3) if a != axis)
        idx = np.flatnonzero(occ.any(axis=rest))
        if idx.size == 0:
            return None
        lo.append(idx[0])
        hi.append(idx[-1] + 1)
    return np.array([lo, hi], dtype=np.int64)


# The site's four inspection tasks, as perfbench's `large_site_plan` sets
# them: a 32 m face, two walls and the inner face of the sealed room.
SITE_TASKS = (
    ("face", ((34.0, 4.0, 0.0), (34.0, 36.0, 0.0), (34.0, 36.0, 2.0), (34.0, 4.0, 2.0))),
    ("north", ((8.0, 36.0, 0.0), (20.0, 36.0, 0.0), (20.0, 36.0, 2.0), (8.0, 36.0, 2.0))),
    ("south", ((14.0, 3.6, 0.0), (24.0, 3.6, 0.0), (24.0, 3.6, 2.0), (14.0, 3.6, 2.0))),
    ("enclosed", ((19.6, 16.0, 0.0), (19.6, 20.0, 0.0), (19.6, 20.0, 2.0), (19.6, 16.0, 2.0))),
)


def per_call_prioritize(tasks, plans, robot, vmap, inflation, z_band):
    """`prioritize_tasks` with one `plan_route` call, and so one band
    set-up, per task."""
    ranked = []
    for task, plan in zip(tasks, plans):
        positions, _ = plan.valid_positions()
        nearest = positions[np.argmin(np.linalg.norm(positions - robot.position, axis=1))]
        try:
            _, length = global_plan.plan_route(vmap, robot.position, nearest, inflation, z_band)
            ranked.append(global_plan.TaskPriority(task, plan, length, True))
        except global_plan.RouteError:
            ranked.append(global_plan.TaskPriority(task, plan, np.inf, False))
    ranked.sort(key=lambda r: (not r.reachable, r.route_length, r.task.id))
    return ranked


def wall_tour_plan(cols, rows):
    """A wall's viewpoint grid at the default view constraints' and
    camera's spacing."""
    view = global_plan.ViewConstraints()
    spacing_h, spacing_v = view.spacing(CameraIntrinsics(**CAMERA_FOV), view.d_view)
    y, z = np.meshgrid(2.0 + np.arange(cols) * spacing_h, 0.6 + np.arange(rows) * spacing_v, indexing="ij")
    vps = tuple(ViewPose4(32.0, yy, zz, 0.0) for yy, zz in zip(y.ravel(), z.ravel()))
    return global_plan.ViewPlan("wall", vps, np.ones(len(vps), dtype=bool))


def planning_cases():
    """(name, new, reference, repeats) at site scale."""
    inflation = 0.5
    boxes = [Box(lo, hi) for lo, hi in SITE_BOXES]
    site = VoxelMap.from_boxes(boxes, 0.1, bounds=((0.0, 0.0, 0.0), (40.0, 40.0, 2.4)))
    start, goal = (2.0, 2.0, 0.6), (16.0, 18.0, 0.6)

    def fresh_map():
        return VoxelMap(site.origin, site.voxel_size, site.occ)

    def fresh_mask(k_lo=0, k_hi=site.shape[2] - 1):
        return fresh_map().free_mask(inflation, k_lo, k_hi)

    def fresh_box():
        return fresh_map().occupied_box

    layer = int(np.floor((start[2] - site.origin[2]) / site.voxel_size))

    def enclosed_route():
        try:
            global_plan.plan_route(site, start, goal, inflation, z_band=(0.6, 0.6))
        except global_plan.RouteError:
            return
        raise AssertionError("the sealed room is reachable")

    def one_label(free):
        return np.ones(free.shape, dtype=np.intp)

    def enclosed_route_flood():
        # One label everywhere: the gate passes and A* floods the yard.
        with mock.patch.object(global_plan, "_label_components", one_label):
            enclosed_route()

    yard = VoxelMap.empty((0.0, 0.0, 0.0), (40.0, 40.0, 2.4), 0.1)
    yard.free_mask(inflation, 0, yard.shape[2] - 1)  # cached for the reference planner
    corners = (0.6, 0.6, 0.6), (39.4, 39.4, 0.6)

    def yard_route(plan_route):
        return lambda: plan_route(yard, *corners, inflation, z_band=(0.6, 0.6))

    def tour(solve, plan):
        return lambda: solve(plan, (2.0, 2.0, 0.6), 1)

    band = (0.6, 0.6)
    robot = ViewPose4(*start)
    tasks = [global_plan.InspectionTask(tid, PolygonROI(np.array(verts))) for tid, verts in SITE_TASKS]

    def grids(generate):
        view, camera = global_plan.ViewConstraints(), CameraIntrinsics(**CAMERA_FOV)
        return lambda: [generate(task, view, camera, robot.position, band) for task in tasks]

    plans = grids(global_plan.generate_grid_viewpoints)()
    band_mask = site.free_mask(inflation, layer, layer)  # cached: the rows time the routes

    def ranking(prioritize):
        return lambda: [(r.task.id, r.route_length) for r in prioritize(tasks, plans, robot, site, inflation, band)]

    assert np.array_equal(fresh_mask(layer, layer), fresh_mask()[:, :, layer : layer + 1])
    grid_reference = grids(planner_reference.generate_grid_viewpoints)
    for plan, ref in zip(plans, grid_reference()):
        assert plan.viewpoints == ref.viewpoints
    assert ranking(global_plan.prioritize_tasks)() == ranking(per_call_prioritize)()
    assert np.array_equal(fresh_box(), per_axis_occupied_box(site.occ))
    assert same_partition(global_plan._label_components(band_mask), ndimage_labels(band_mask))
    nx, ny, _ = site.shape
    size = "x".join(map(str, site.shape))
    cases = [
        (f"free_mask {size}", fresh_mask, lambda: dilation_free_mask(site, inflation), 5),
        (
            f"free_mask band {nx}x{ny}x1",
            lambda: fresh_mask(layer, layer),
            lambda: fresh_mask()[:, :, layer : layer + 1],
            5,
        ),
        (f"occupied_box {size}", fresh_box, lambda: per_axis_occupied_box(site.occ), 5),
        (
            f"band labels {nx}x{ny}x1",
            lambda: global_plan._label_components(band_mask),
            lambda: ndimage_labels(band_mask),
            5,
        ),
        ("plan_route enclosed goal", enclosed_route, enclosed_route_flood, 5),
        ("plan_route open yard", yard_route(global_plan.plan_route), yard_route(planner_reference.plan_route), 5),
        ("prioritize 4 site tasks", ranking(global_plan.prioritize_tasks), ranking(per_call_prioritize), 5),
        ("grid viewpoints 4 tasks", grids(global_plan.generate_grid_viewpoints), grid_reference, 5),
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
    # The site's grids clamp to the band and warn on every call.
    logging.getLogger("surfscan").setLevel(logging.ERROR)
    print(f"{'case':<26}{'numpy':>14}{'python loop':>14}{'python/numpy':>14}")
    for name, scalar, vectorized, args, kwargs in sensing_cases():
        t_np = timeit(vectorized, *args, **kwargs)
        t_py = timeit(scalar, *args, repeat=2)
        print(f"{name:<26}{ms(t_np)}{ms(t_py)}{t_py / t_np:>13.1f}x")
    for name, run, kernel in scalar_only_cases():
        t_py = timeit(run, kernel, repeat=2)
        print(f"{name:<26}{'-':>14}{ms(t_py)}{'-':>14}")
    print(f"{'level camera':<26}{'frame':>14}{'batch':>14}{'batch/frame':>14}")
    for name, frame_args, batch_args, batch_kwargs in frame_cases():
        got = kernels.raycast_level_frame(*frame_args)
        assert np.array_equal(got.view(np.int64), kernels.raycast_batch(*batch_args, **batch_kwargs).view(np.int64))
        t_frame = timeit(kernels.raycast_level_frame, *frame_args)
        t_batch = timeit(kernels.raycast_batch, *batch_args, **batch_kwargs)
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
            kernels.raycast_batch(occ, origin, dirs, 12.0, True, box=box)

    t_one = timeit(kernels.raycast_batch, occ, origins, tiled, 12.0, True, box=box)
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
    cases = planning_cases()
    _, whole_mask, dilation_mask, _ = cases[0]
    assert np.array_equal(whole_mask(), dilation_mask())
    for name, new, reference, repeat in cases:
        t_new = timeit(new, repeat=repeat)
        t_ref = timeit(reference, repeat=min(repeat, 2))
        print(f"{name:<26}{ms(t_new)}{ms(t_ref)}{t_ref / t_new:>13.1f}x")


if __name__ == "__main__":
    main()
