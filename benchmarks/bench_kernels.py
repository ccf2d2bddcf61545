#!/usr/bin/env python3
"""Benchmark the hot kernels at full size.

`raycast_batch` and `normals_from_depth` have two implementations: the
scalar loops (numba compiles them; as plain Python they are the bitwise
test oracle) and the vectorized numpy kernels, which are what runs when
numba is absent.  Both are timed on the cases a mission runs every control
step, from a pose in the `receding` demo's scene: the 80x60 depth image
(5 m range), the 2048-ray 12 m omnidirectional scan and the depth image's
normal map.  `frechet_dp` and `point_is_free` have only the scalar loops.
The jitted column is printed only when numba is enabled.

Times are the best of a few repeats, per call.

Run: PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from surfscan import kernels
from surfscan._accel import NUMBA_ENABLED, py_func
from surfscan.geometry import Pose6
from surfscan.scenario import build_scene, demo_scenario
from surfscan.world import camera_axes_world, fibonacci_directions, render_depth


def timeit(fn, *args, repeat=5):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def sensing_cases():
    """(name, scalar loop, vectorized kernel, args) for one receding pose."""
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
    return (
        (
            f"raycast camera {cam.width}x{cam.height}",
            kernels.raycast_batch_scalar,
            kernels.raycast_batch_numpy,
            (vmap.occ, origin, cam_dirs, float(cam.max_range)),
        ),
        (
            "raycast scan 2048 rays",
            kernels.raycast_batch_scalar,
            kernels.raycast_batch_numpy,
            (vmap.occ, origin, scan_dirs, 12.0),
        ),
        (
            f"normals {cam.width}x{cam.height}",
            kernels.normals_from_depth_scalar,
            kernels.normals_from_depth_numpy,
            (depth, float(cam.fx), float(cam.fy), float(cam.cx), float(cam.cy), 0.3),
        ),
    )


def scalar_only_cases():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(200, 3))
    b = rng.normal(size=(200, 3))
    occ = np.ascontiguousarray(rng.random((120, 120, 24)) < 0.02)
    pts = rng.uniform(5, 100, size=(2000, 3))
    pts[:, 2] = rng.uniform(2, 20, size=2000)

    def clearance(fn):
        for x, y, z in pts:
            fn(occ, x, y, z, 5.0)

    return (
        ("frechet dp 200x200", lambda fn: fn(a, b), kernels.frechet_dp),
        ("clearance 2000 points", clearance, kernels.point_is_free),
    )


def ms(seconds):
    return f"{seconds * 1e3:>11.2f} ms"


def main():
    print(f"numba enabled: {NUMBA_ENABLED}")
    header = f"{'case':<26}{'numpy':>14}{'python loop':>14}{'python/numpy':>14}"
    if NUMBA_ENABLED:
        header += f"{'numba':>14}"
    print(header)
    for name, scalar, vectorized, args in sensing_cases():
        t_np = timeit(vectorized, *args)
        t_py = timeit(py_func(scalar), *args, repeat=2)
        row = f"{name:<26}{ms(t_np)}{ms(t_py)}{t_py / t_np:>13.1f}x"
        if NUMBA_ENABLED:
            scalar(*args)  # compile
            row += ms(timeit(scalar, *args))
        print(row)
    for name, run, kernel in scalar_only_cases():
        t_py = timeit(run, py_func(kernel), repeat=2)
        row = f"{name:<26}{'-':>14}{ms(t_py)}{'-':>14}"
        if NUMBA_ENABLED:
            run(kernel)  # compile
            row += ms(timeit(run, kernel))
        print(row)


if __name__ == "__main__":
    main()
