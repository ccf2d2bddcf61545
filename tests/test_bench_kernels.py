"""`benchmarks/bench_kernels.py` must keep building its cases against the
current kernels: a rename in surfscan that would break the script fails
here.  The script is loaded from its file, unchanged; nothing is timed."""

import importlib.util
from pathlib import Path

import numpy as np

import kernel_reference
from surfscan import kernels

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def test_bench_kernels_builds_its_cases():
    bench = load_bench()
    sensing = bench.sensing_cases()
    assert [name for name, *_ in sensing] == ["raycast camera 80x60", "raycast scan 2048 rays", "normals 80x60"]
    assert {(scalar, vectorized) for _, scalar, vectorized, _, _ in sensing} == {
        (kernel_reference.raycast_batch_scalar, kernels.raycast_batch),
        (kernel_reference.normals_from_depth_scalar, kernels.normals_from_depth),
    }
    for _, frame_args, batch_args, batch_kwargs in bench.frame_cases():
        assert same_bits(
            kernels.raycast_level_frame(*frame_args), kernels.raycast_batch(*batch_args, **batch_kwargs)
        )
    _, from_cosines, from_normal_map = bench.utility_case()
    assert same_bits(from_cosines()[0], from_normal_map()[0])
    name, occ, origins, dirs, box = bench.batched_scan_case()
    assert name == "8 scans 2048 rays" and origins.shape == (8, 3) and occ.ndim == 3 and box.shape == (2, 3)
    assert dirs.shape == (2048, 3)
    # The batched row's one call returns the bits of its 8 single calls.
    one_call = kernels.raycast_batch(occ, origins, np.tile(dirs, (8, 1)), 12.0, box=box)
    assert same_bits(one_call, np.concatenate([kernels.raycast_batch(occ, o, dirs, 12.0, box=box) for o in origins]))
    for _, occ, pts, radius, box, full in bench.swept_cases():
        assert pts.shape == (41, 3) and radius > 0
        assert kernels.point_is_free(occ, *pts[0], radius, box) == kernels.point_is_free(occ, *pts[0], radius, full)


def test_bench_kernels_shell_scan_rows_give_the_full_cast_bits():
    cases = load_bench().shell_scan_cases()
    assert [name for name, _, _ in cases] == [
        "shell 8 scans receding", "shell 1 scan receding", "shell 8 scans obstacle", "shell 1 scan obstacle"
    ]
    for _, shell, full in cases:
        nearest, want = shell(), full()
        assert nearest.shape == want.shape and np.isfinite(want).all()
        assert same_bits(nearest, want)


def test_bench_kernels_builds_the_band_mask_row():
    # Building the planning cases asserts the band mask equals the sliced
    # whole-grid mask.
    assert "free_mask band 400x400x1" in [name for name, *_ in load_bench().planning_cases()]


def test_bench_kernels_builds_the_occupied_box_row():
    # Building the planning cases also asserts that the occupied box equals
    # the per-axis form; the whole-grid dilation reference is built only
    # when the script runs.
    cases = {name: (new, reference) for name, new, reference, _ in load_bench().planning_cases()}
    new, reference = cases["occupied_box 400x400x24"]
    assert new().tolist() == reference().tolist() == [[80, 36, 0], [344, 364, 24]]


def test_bench_kernels_builds_the_prioritize_and_grid_rows():
    # Building the planning cases asserts that the shared band set-up ranks
    # the site's four tasks with the lengths of one set-up per task, and
    # that the one-pass grids equal the per-point reference grids.
    names = [name for name, *_ in load_bench().planning_cases()]
    assert "prioritize 4 site tasks" in names and "grid viewpoints 4 tasks" in names


def test_bench_kernels_runs_the_enclosed_goal_and_band_label_rows():
    # Both sides of the enclosed-goal row fail the route, the reference by
    # flooding the yard under a patched labelling; building the cases
    # asserts that the band labels partition the band as ndimage does.
    cases = {name: (new, reference) for name, new, reference, _ in load_bench().planning_cases()}
    for run in cases["plan_route enclosed goal"]:
        run()
    new, reference = cases["band labels 400x400x1"]
    assert new().shape == reference().shape == (400, 400, 1)
