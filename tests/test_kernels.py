"""Kernel oracles: the vectorized kernels against the scalar loops (bitwise)
and the scalar kernels against brute-force definitions.

`raycast_batch`, `raycast_level_frame`, `normals_from_depth` and
`incidence_cosines` must equal the scalar loops `raycast_batch_scalar` and
`normals_from_depth_scalar` of `kernel_reference` exactly.
"""

import ast
import functools
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import kernel_reference
from kernel_reference import raycast_batch_scalar
from strategies import depth_images, direction_component, occupancy_grids, on_grid_coordinate, wall_slabs
from surfscan import kernels
from surfscan.world import VoxelMap, is_collision_free

PROPERTY = settings(max_examples=150, deadline=None)


def random_occ(rng, shape=(20, 20, 10), fill=0.05):
    occ = rng.random(shape) < fill
    return np.ascontiguousarray(occ)


@st.composite
def ray_batches(draw):
    occ = draw(occupancy_grids())
    origin = np.array([draw(on_grid_coordinate(n)) for n in occ.shape])
    n_rays = draw(st.integers(1, 24))
    dirs = draw(arrays(np.float64, (n_rays, 3), elements=direction_component))
    # Caps shorter than the grid and beyond it.
    t_cap = draw(st.one_of(st.floats(0.0, 3.0), st.floats(3.0, 60.0)))
    return occ, origin, dirs, t_cap


def same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def occupied_box(occ):
    return VoxelMap(np.zeros(3), 1.0, occ).occupied_box


def cast(occ, origin, dirs, t_cap):
    """`raycast_batch` as the library calls it (`world._first_hits`):
    clipped to the grid's occupied box; on an empty grid every ray misses
    and nothing is cast."""
    box = occupied_box(occ)
    if box is None:
        return np.full(dirs.shape[0], -1.0)
    return kernels.raycast_batch(occ, origin, dirs, t_cap, box=box)


@given(batch=ray_batches())
# tdelta = 1 / 2.2e-308 = 2**1022 is finite; the ray enters the occupied
# voxel at its third z crossing, 3 * 2**1022, within the largest finite
# cap.  Its grid exit 4 * 2**1022 and the step's next crossing overflow to
# inf, the right value, and must not warn (RuntimeWarnings fail the suite).
@example(
    batch=(
        np.arange(4).reshape(1, 1, 4) == 3,
        np.zeros(3),
        np.array([[0.0, 0.0, 2.2250738585072014e-308]]),
        np.finfo(np.float64).max,
    )
)
@PROPERTY
def test_raycast_matches_scalar_oracle(batch):
    got = cast(*batch)
    ref = raycast_batch_scalar(*batch)
    assert same_bits(got, ref)


def test_raycast_matches_scalar_oracle_on_a_scan(rng):
    occ = random_occ(rng)
    origin = np.array([1.3, 2.7, 4.1])
    dirs = rng.normal(size=(256, 3))
    got = cast(occ, origin, dirs, 50.0)
    ref = raycast_batch_scalar(occ, origin, dirs, 50.0)
    assert same_bits(got, ref)


def test_raycast_early_hit_survives_later_iterations():
    # Ray 0 hits at t=0.5 while the others march on; had it kept stepping
    # after its hit it would reach occ[0, 0, 0] just as the others hit.
    occ = np.zeros((60, 3, 3), dtype=np.bool_)
    occ[31, 1, 1] = occ[26, 1, 1] = occ[0, 0, 0] = True
    origin = np.array([30.5, 1.5, 1.5])
    dirs = np.vstack([[1.0, 0.3, 0.3], np.tile([-1.0, 0.0, 0.0], (7, 1))])
    got = cast(occ, origin, dirs, 200.0)
    assert got.tolist() == [0.5] + [3.5] * 7
    assert np.array_equal(got, raycast_batch_scalar(occ, origin, dirs, 200.0))


def test_raycast_tiny_direction_off_grid_emits_no_warning():
    # The grid exit divides by the direction: a tiny component puts the
    # exit through that axis' faces far off the grid, and the division
    # overflows to inf, the right exit parameter, which must not warn.  Ray
    # 0 moves up y into the occupied voxel; ray 1 moves up z and misses.
    occ = np.zeros((3, 3, 3), dtype=np.bool_)
    occ[0, 2, 1] = True
    origin = np.array([0.5, 0.5, 1.5])
    dirs = np.array([[2.3e-308, 1.0, 0.0], [-2.3e-308, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = cast(occ, origin, dirs, 10.0)
    ref = raycast_batch_scalar(occ, origin, dirs, 10.0)
    assert same_bits(got, ref)
    assert got.tolist() == [1.5, -1.0]


def test_kernel_reference_imports_nothing_from_surfscan():
    # The scalar oracle must share no rule with the kernels it checks.
    tree = ast.parse(Path(kernel_reference.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported if name.split(".")[0] == "surfscan"]


@st.composite
def boxed_ray_batches(draw):
    """One random occupied sub-block inside a larger empty grid (or an
    all-empty grid), its occupied box, and rays from the grid: outside the
    box, inside it or on a padded-box plane."""
    shape = tuple(draw(st.integers(3, 14)) for _ in range(3))
    occ = np.zeros(shape, dtype=np.bool_)
    if draw(st.integers(0, 5)):
        lo = [draw(st.integers(0, n - 1)) for n in shape]
        hi = [draw(st.integers(l + 1, min(n, l + 5))) for l, n in zip(lo, shape)]
        fill = draw(st.sampled_from([0.2, 0.5, 1.0]))
        seed = draw(st.integers(0, 2**32 - 1))
        block = np.random.default_rng(seed).random([h - l for l, h in zip(lo, hi)]) < fill
        block.flat[0] = True
        occ[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = block
    box = occupied_box(occ)
    n_rays = draw(st.integers(1, 24))
    dirs = draw(arrays(np.float64, (n_rays, 3), elements=direction_component))
    origin = np.array([draw(on_grid_coordinate(n)) for n in shape])
    where = draw(st.sampled_from(["outside box", "inside box", "padded plane"]))
    axis = draw(st.integers(0, 2))
    n = shape[axis]
    if box is None:
        pass
    elif where == "outside box":
        below, above = float(box[0, axis]), float(box[1, axis])
        sides = [st.floats(0.0, below, exclude_max=True)] if below > 0 else []
        if above < n:
            sides += [st.floats(above, float(n), exclude_min=True, exclude_max=True), st.just(above + 0.5)]
        if sides:
            origin[axis] = draw(st.one_of(sides))
    elif where == "inside box":
        origin = np.array([draw(st.floats(float(l), float(h), exclude_max=True)) for l, h in box.T])
    else:
        # On a face of the padded box that lies on the grid, moving along
        # it or across it.
        faces = [f for f in (box[0, axis] - 1.0, box[1, axis] + 1.0) if 0.0 <= f < n]
        if faces:
            origin[axis] = draw(st.sampled_from(faces))
        dirs[::2, axis] = 0.0
    if box is not None and draw(st.booleans()):
        # Aim the odd rays at lattice points on and around the box's
        # corners: they cross several voxel planes at once, in rounded
        # arithmetic.
        for r in range(1, n_rays, 2):
            corner = [box[draw(st.integers(0, 1)), a] + draw(st.integers(-1, 1)) for a in range(3)]
            scale = draw(st.sampled_from([0.1, 0.3, 1.0 / 3.0, 0.7, 3.0]))
            dirs[r] = (np.array(corner, dtype=np.float64) - origin) * scale
    t_cap = draw(st.one_of(st.floats(0.0, 3.0), st.floats(3.0, 60.0)))
    return occ, origin, dirs, t_cap, box


def corner_hit():
    """A ray crossing an x, a y and a z plane at once, exactly, at the
    corner (4, 2, 2) at t = 10, where it also leaves the unpadded box's y
    and z ranges: the DDA steps x first, into the occupied voxel (4, 2, 2),
    and hits at t = 10."""
    occ = np.zeros((6, 6, 5), dtype=np.bool_)
    occ[4, 2, 2] = True
    dirs = np.array([[0.25, -0.25, -0.125]])
    return occ, np.array([1.5, 4.5, 3.25]), dirs, 60.0, occupied_box(occ)


def long_approach():
    """A 240-voxel corridor with a block at its far end and a fan of 64
    rays from the near end, aimed along the block's top face: skipping to
    the padded box's entry passes up to 235 crossings on one axis, with 34
    distinct counts across the fan."""
    rng = np.random.default_rng(9)
    occ = np.zeros((240, 20, 14), dtype=np.bool_)
    occ[196:236, 3:9, 2:12] = rng.random((40, 6, 10)) < 0.6
    box = occupied_box(occ)
    origin = np.array([1.37, 15.61, 7.23])
    lo = np.array([box[0, 0] - 2.0, box[1, 1] - 0.5, box[0, 2] - 2.0])
    hi = np.array([box[1, 0] + 2.0, box[1, 1] + 1.5, box[1, 2] + 2.0])
    targets = lo + rng.random((64, 3)) * (hi - lo)
    dirs = (targets - origin) * rng.choice([0.01, 0.1, 1.0 / 3.0, 1.0], size=(64, 1))
    return occ, origin, dirs, 400.0, box


def face_block(high):
    """A block touching the grid's three low faces (or its three high
    ones), and a fan of 48 rays from the opposite corner voxel aimed at
    and past it: the marched block is clipped at 0 (or at the shape)."""
    rng = np.random.default_rng(11)
    shape = np.array([10, 9, 8])
    occ = np.zeros(shape, dtype=np.bool_)
    lo = shape - 3 if high else np.zeros(3, dtype=np.int64)
    occ[lo[0] : lo[0] + 3, lo[1] : lo[1] + 3, lo[2] : lo[2] + 3] = rng.random((3, 3, 3)) < 0.5
    occ[tuple(shape - 1 if high else lo)] = True
    box = occupied_box(occ)
    origin = np.array([0.4, 0.9, 0.6]) if high else shape - np.array([0.8, 0.3, 0.9])
    targets = box[0] - 2.0 + rng.random((48, 3)) * (box[1] - box[0] + 4.0)
    return occ, origin, targets - origin, 60.0, box


@given(batch=boxed_ray_batches())
@example(batch=corner_hit())
@example(batch=face_block(high=False))
@example(batch=face_block(high=True))
@example(batch=long_approach())
@PROPERTY
def test_raycast_box_clip_matches_unclipped_scalar_oracle(batch):
    occ, origin, dirs, t_cap, box = batch
    got = cast(occ, origin, dirs, t_cap)
    assert same_bits(got, raycast_batch_scalar(occ, origin, dirs, t_cap))
    assert same_bits(got, raycast_batch_scalar(occ, origin, dirs, t_cap, box=box))


@st.composite
def multi_origin_batches(draw):
    """A boxed batch's grid, box, cap and origin, joined by up to three more
    origins elsewhere on the grid, with an equal run of rays per origin."""
    occ, origin, _, t_cap, box = draw(boxed_ray_batches())
    groups = draw(st.integers(1, 4))
    per = draw(st.integers(1, 8))
    origins = [[draw(on_grid_coordinate(n)) for n in occ.shape] for _ in range(groups - 1)]
    origins.insert(draw(st.integers(0, groups - 1)), origin.tolist())
    dirs = draw(arrays(np.float64, (groups * per, 3), elements=direction_component))
    return occ, np.array(origins), dirs, t_cap, box


def two_approaches():
    """`long_approach`'s fan cast from its origin and from one 40 voxels
    nearer the block, in one call."""
    occ, origin, dirs, t_cap, box = long_approach()
    origins = np.array([origin, origin + [40.0, 0.0, 0.0]])
    return occ, origins, np.tile(dirs, (2, 1)), t_cap, box


@given(batch=multi_origin_batches())
@example(batch=two_approaches())
@PROPERTY
def test_raycast_multi_origin_equals_one_cast_per_origin(batch):
    occ, origins, dirs, t_cap, box = batch
    per = dirs.shape[0] // origins.shape[0]
    got = cast(occ, origins, dirs, t_cap)
    runs = [(o, dirs[g * per : (g + 1) * per]) for g, o in enumerate(origins)]
    one_by_one = [cast(occ, o, d, t_cap) for o, d in runs]
    assert got.shape == (dirs.shape[0],)
    assert same_bits(got, np.concatenate(one_by_one))
    assert same_bits(got, raycast_batch_scalar(occ, origins, dirs, t_cap, box=box))
    assert same_bits(got, np.concatenate([raycast_batch_scalar(occ, o, d, t_cap) for o, d in runs]))


@st.composite
def level_frames(draw):
    """A non-empty grid (random fill or a wall slab), an origin inside it,
    on voxel faces and on both grid faces too, a frame's column x/y and row
    z direction components (zero ones included), and a cap below the
    distance to the occupied voxels or beyond the grid."""
    occ = draw(st.one_of(occupancy_grids(), wall_slabs())).copy()
    if not occ.any():
        occ.flat[draw(st.integers(0, occ.size - 1))] = True
    origin = np.array([draw(st.one_of(st.floats(0.0, float(n)), st.integers(0, n).map(float))) for n in occ.shape])
    cols = draw(arrays(np.float64, (draw(st.integers(1, 12)), 2), elements=direction_component))
    rows = draw(arrays(np.float64, (draw(st.integers(1, 10)),), elements=direction_component))
    t_cap = draw(st.one_of(st.floats(0.0, 3.0), st.floats(3.0, 60.0)))
    return occ, origin, cols, rows, t_cap


def frame_rays(cols, rows):
    """The (H * W, 3) rays of a frame, row-major: pixel (v, u) casts
    (cols[u, 0], cols[u, 1], rows[v])."""
    dirs = np.empty((rows.size, cols.shape[0], 3))
    dirs[..., :2] = cols
    dirs[..., 2] = rows[:, None]
    return dirs.reshape(-1, 3)


def level_frame(occ, origin, cols, rows, t_cap):
    vmap = VoxelMap(np.zeros(3), 1.0, occ)
    return kernels.raycast_level_frame(occ, origin, cols, rows, t_cap, vmap.occupied_box, vmap.column_extent)


def vertical_column():
    """A column that moves along neither x nor y beside one that does."""
    occ = np.zeros((3, 3, 6), dtype=np.bool_)
    occ[1, 1, 0] = occ[2, 2, 5] = True
    rows = np.array([-0.5, 0.0, 0.25, 2.0])
    return occ, np.array([1.5, 1.5, 3.0]), np.array([[0.0, 0.0], [0.5, 0.5]]), rows, 60.0


def top_face_start():
    """An origin on the grid's top face and its low y face, in the top
    voxel (clamped down from z = nz) of an occupied column: every ray hits
    at t = 0, before its first crossing, also at t = 0, leaves the grid.
    The fan reaches only z = nz there; the one-voxel margin keeps the
    column a candidate."""
    occ = np.zeros((2, 2, 3), dtype=np.bool_)
    occ[0, 0, 2] = True
    return occ, np.array([0.5, 0.0, 3.0]), np.array([[0.5, -1.0]]), np.array([-0.2, 0.0, 0.25]), 10.0


def long_level_approach():
    """`long_approach`'s corridor seen by a level 12-column fan from its
    near end: each column passes about 190 x crossings before its skip."""
    occ, origin, _, _, _ = long_approach()
    cols = np.column_stack([np.ones(12), np.linspace(-0.06, 0.02, 12)])
    return occ, origin, cols, np.linspace(-0.03, 0.03, 7), 400.0


def under_a_shelf():
    """An overhang above the low rows in front of a full-height wall: the
    first candidate cell is the shelf's, the top row hits the shelf there
    and the lower rows pass under it and march on to the wall."""
    occ = np.zeros((10, 3, 8), dtype=np.bool_)
    occ[3:5, :, 5:] = True
    occ[8] = True
    cols = np.array([[1.0, 0.0], [1.0, 0.1]])
    return occ, np.array([0.5, 1.5, 2.5]), cols, np.array([-0.3, 0.0, 0.2, 0.5, 1.0]), 20.0


def corner_exits():
    """Two rows that leave the grid, through its floor and its top, where
    they enter the wall's cell: their last z crossing, summed, lies one
    rounding below the entry time, which equals their exit from the grid.
    Their voxels are carried out of the grid, so they miss, though they are
    not past their exits; the level row hits the wall on entering its
    cell."""
    occ = np.zeros((3, 1, 3), dtype=np.bool_)
    occ[1] = True
    return occ, np.array([0.5, 0.5, 1.5]), np.array([[0.7, 0.0]]), np.array([-2.1, 0.0, 2.1]), 10.0


def top_corner_exit():
    """A row aimed at the top edge of the wall's face: its entry time into
    the wall's cell, summed, lies one rounding past its exit from the grid
    through the top, while its z crossings below the entry leave its voxel
    in the grid.  It misses for being past its exit."""
    occ = np.zeros((7, 1, 5), dtype=np.bool_)
    occ[5] = True
    return occ, np.array([0.5, 0.5, 0.5]), np.array([[0.3, 0.0]]), np.array([0.3, 0.0]), 60.0


@given(frame=level_frames())
@example(frame=under_a_shelf())
@example(frame=corner_exits())
@example(frame=top_corner_exit())
@example(frame=vertical_column())
@example(frame=top_face_start())
@example(frame=long_level_approach())
@PROPERTY
def test_level_frame_matches_scalar_oracle(frame):
    occ, origin, cols, rows, t_cap = frame
    got = level_frame(*frame)
    assert same_bits(got, raycast_batch_scalar(occ, origin, frame_rays(cols, rows), t_cap))


def test_level_frame_breaks_crossing_ties_x_first():
    # Columns along the lattice diagonal cross an x and a y plane at once
    # at every voxel corner, where the DDA steps x first: it enters voxel
    # (k + 1, k), never (k, k + 1).  A merge that put y first at any one of
    # the 38 ties would pass that voxel by.
    origin, cols, rows = np.array([0.5, 0.5, 1.5]), np.array([[1.0, 1.0], [0.5, 0.5]]), np.array([0.0, 0.01])
    for k in range(38):
        occ = np.zeros((40, 40, 3), dtype=np.bool_)
        occ[k + 1, k, :] = True
        got = level_frame(occ, origin, cols, rows, 100.0)
        assert same_bits(got, raycast_batch_scalar(occ, origin, frame_rays(cols, rows), 100.0))
        assert got.tolist() == [k + 0.5, 2 * k + 1.0] * 2


@pytest.mark.parametrize("t_cap", [math.nan, math.inf])
def test_level_frame_rejects_a_non_finite_cap(t_cap):
    occ = np.ones((4, 4, 4), dtype=np.bool_)
    with pytest.raises(ValueError, match="t_cap must be finite"):
        level_frame(occ, np.full(3, 2.0), np.array([[1.0, 0.5]]), np.array([0.0]), t_cap)


def test_raycast_rejects_rays_that_do_not_split_over_the_origins():
    occ = np.zeros((3, 3, 3), dtype=np.bool_)
    occ[1, 1, 1] = True
    with pytest.raises(ValueError, match="split evenly"):
        kernels.raycast_batch(occ, np.zeros((2, 3)), np.ones((3, 3)), 5.0, box=occupied_box(occ))
    with pytest.raises(ValueError, match="split evenly"):
        raycast_batch_scalar(occ, np.zeros((2, 3)), np.ones((3, 3)), 5.0)


def skip_out_of_the_grid(row, y, dy):
    """The padded box pokes past the grid's face y = 4 (row 3) or y = 0
    (row 0).  The ray leaves the grid through that face at t = 5 and
    enters the padded box through z = 8 at t = 10, where it lies off the
    grid but within the padded box's y range: passing the crossings below
    the box entry carries it out of the grid, and it misses, as in the
    unclipped loop.  Its voxel then lies outside the grid, and the marched
    block must not grow to hold it."""
    occ = np.zeros((10, 4, 14), dtype=np.bool_)
    occ[4:7, row, 6] = True
    box = occupied_box(occ)
    assert box.tolist() == [[4, row, 6], [7, row + 1, 7]]
    origin = np.array([9.1, y, 12.5])
    dirs = np.array([[-0.51, dy, -0.45]])
    got = kernels.raycast_batch(occ, origin, dirs, 60.0, box=box)
    assert got.tolist() == [-1.0]
    assert same_bits(got, raycast_batch_scalar(occ, origin, dirs, 60.0))


def test_raycast_skip_out_of_the_grid_before_the_box_misses():
    skip_out_of_the_grid(3, 3.5, 0.1)


def test_raycast_skip_out_of_the_grid_through_a_low_face_misses():
    skip_out_of_the_grid(0, 0.5, -0.1)


@pytest.mark.parametrize(
    "origin, t_cap, match",
    [
        ((2.0, 2.0, 2.0), math.inf, "t_cap must be finite"),
        ((2.0, 2.0, 2.0), math.nan, "t_cap must be finite"),
        ((-0.5, 2.0, 2.0), 5.0, "in the grid"),
        ((2.0, 4.5, 2.0), 5.0, "in the grid"),
        ((2.0, 2.0, math.nan), 5.0, "in the grid"),
    ],
)
def test_raycast_kernels_take_origins_in_the_grid_and_finite_caps(origin, t_cap, match):
    # Every ray starts at t = 0 in the grid and stops at a finite cap: both
    # kernels refuse anything else.
    occ = np.ones((4, 4, 4), dtype=np.bool_)
    with pytest.raises(ValueError, match=match):
        kernels.raycast_batch(occ, np.array(origin), np.ones((1, 3)), t_cap, box=occupied_box(occ))
    with pytest.raises(ValueError, match=match):
        level_frame(occ, np.array(origin), np.array([[1.0, 0.5]]), np.array([0.0]), t_cap)


@given(
    depth=depth_images(),
    f=st.sampled_from([5.0, 20.0, 80.0]),
    jump=st.sampled_from([0.05, 0.3, 2.0]),
)
@PROPERTY
def test_normals_match_scalar_oracle(depth, f, jump):
    h, w = depth.shape
    args = (depth, f, 0.9 * f, (w - 1) / 2.0, (h - 1) / 2.0, jump)
    got = kernels.normals_from_depth(*args)
    ref = kernel_reference.normals_from_depth_scalar(*args)
    assert np.array_equal(got, ref, equal_nan=True)
    nz = ref[..., 2]
    assert same_bits(np.abs(kernels.incidence_cosines(*args)), np.abs(nz[np.isfinite(nz)]))


def point_is_free_oracle(occ, g, radius):
    """No occupied voxel box within `radius`: brute force over every voxel."""
    for i, j, k in np.argwhere(occ):
        d2 = 0.0
        for c, lo in zip(g, (i, j, k)):
            dc = max(lo - c, c - (lo + 1), 0.0)
            d2 += dc * dc
        if d2 <= radius * radius:
            return False
    return True


def two_corner_voxels(n):
    occ = np.zeros((n, n, n), dtype=np.bool_)
    occ[0, 0, 0] = occ[-1, -1, -1] = True
    return occ


@given(
    occ=occupancy_grids(),
    g=st.tuples(*[st.floats(-3.0, 12.0)] * 3),
    radius=st.floats(0.0, 5.0),
)
# A box touching the point from below at exactly `radius`.
@example(occ=np.ones((1, 1, 1), dtype=np.bool_), g=(0.0, 0.0, 1.0), radius=0.0)
@example(occ=np.ones((1, 1, 1), dtype=np.bool_), g=(0.5, 0.5, 3.0), radius=2.0)
# Voxels at two opposite corners: the occupied box is the whole grid, and
# the block around the point holds no occupied voxel.
@example(occ=two_corner_voxels(9), g=(4.5, 4.5, 4.5), radius=1.0)
# A point beyond the grid: its clipped index range is empty.
@example(occ=np.ones((2, 2, 2), dtype=np.bool_), g=(-3.0, 1.0, 1.0), radius=0.5)
@PROPERTY
def test_point_is_free_matches_brute_force(occ, g, radius):
    free = point_is_free_oracle(occ, g, radius)
    # Clipped to the full grid and to the occupied box, and as the map's
    # clearance query calls it, which holds a point off the map not free;
    # an empty map answers without the kernel.
    assert kernels.point_is_free(occ, *g, radius, np.array([(0, 0, 0), occ.shape])) == free
    vmap = VoxelMap(np.zeros(3), 1.0, occ)
    on_map = all(0.0 <= c < n for c, n in zip(g, occ.shape))
    if vmap.occupied_box is None:
        assert free
        with mock.patch.object(kernels, "point_is_free", side_effect=AssertionError("kernel called")):
            assert is_collision_free(vmap, g, radius) == on_map
    else:
        assert kernels.point_is_free(occ, *g, radius, vmap.occupied_box) == free
        assert is_collision_free(vmap, g, radius) == (on_map and free)


def frechet_recursive(a, b):
    @functools.lru_cache(maxsize=None)
    def c(i, j):
        dx, dy, dz = a[i] - b[j]
        d = math.sqrt(dx * dx + dy * dy + dz * dz)
        if i == 0 and j == 0:
            return d
        if i == 0:
            return max(d, c(0, j - 1))
        if j == 0:
            return max(d, c(i - 1, 0))
        return max(d, min(c(i - 1, j), c(i - 1, j - 1), c(i, j - 1)))

    return c(len(a) - 1, len(b) - 1)


paths = st.integers(1, 6).flatmap(
    lambda n: arrays(np.float64, (n, 3), elements=st.floats(-10.0, 10.0))
)


@given(a=paths, b=paths)
@PROPERTY
def test_frechet_matches_recursive_definition(a, b):
    assert kernels.frechet_dp(a, b) == frechet_recursive(a, b)


def march_oracle(occ, origin, direction, t_cap, step=1e-3):
    """Dense-sampling reference for the first-hit parameter.  Returns the
    first sample time whose voxel is occupied, or -1.0."""
    n = np.array(occ.shape)
    for t in np.arange(0.0, t_cap + step, step):
        p = origin + direction * t
        idx = np.floor(p).astype(int)
        if np.any(idx < 0) or np.any(idx >= n):
            continue
        if occ[tuple(idx)]:
            return t
    return -1.0


def test_raycast_matches_marching_oracle(rng):
    occ = random_occ(rng, shape=(15, 15, 15), fill=0.08)
    origin = np.array([7.2, 7.7, 7.4])
    checked = 0
    while checked < 40:
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        t_dda = cast(occ, origin, d[None, :], 30.0)[0]
        t_ref = march_oracle(occ, origin, d, 30.0)
        if t_ref < 0 and t_dda < 0:
            checked += 1
            continue
        # Skip grazing rays where the sampled oracle is ambiguous: require
        # the reference hit to be at least a step inside its voxel run.
        probe = origin + d * (t_ref + 5e-3)
        if t_ref >= 0 and not occ[tuple(np.floor(probe).astype(int))]:
            continue
        assert t_dda >= 0 and t_ref >= 0
        # The oracle samples at 1e-3 resolution past the true entry point.
        assert t_ref - 2e-3 <= t_dda <= t_ref + 1e-9
        checked += 1


def test_ray_through_empty_grid_misses():
    # Every voxel the ray passes is empty; the one occupied voxel lies
    # behind its origin.
    occ = np.zeros((5, 5, 5), dtype=np.bool_)
    occ[0, 0, 0] = True
    t = cast(occ, np.array([2.5, 2.5, 2.5]), np.array([[1.0, 0.0, 0.0]]), 100.0)
    assert t[0] == -1.0


def test_ray_hit_is_entry_face():
    occ = np.zeros((10, 5, 5), dtype=np.bool_)
    occ[7, 2, 2] = True
    t = cast(occ, np.array([0.5, 2.5, 2.5]), np.array([[1.0, 0.0, 0.0]]), 100.0)
    assert t[0] == pytest.approx(6.5)  # enters voxel 7 at x=7.0, 6.5 units from 0.5


def test_ray_origin_inside_occupied():
    occ = np.ones((3, 3, 3), dtype=np.bool_)
    t = cast(occ, np.array([1.5, 1.5, 1.5]), np.array([[0.0, 0.0, 1.0]]), 10.0)
    assert t[0] == 0.0


def test_ray_cap_respected():
    occ = np.zeros((30, 3, 3), dtype=np.bool_)
    occ[25, 1, 1] = True
    origin = np.array([0.5, 1.5, 1.5])
    d = np.array([[1.0, 0.0, 0.0]])
    assert cast(occ, origin, d, 10.0)[0] == -1.0
    assert cast(occ, origin, d, 30.0)[0] == pytest.approx(24.5)

