"""Oracle tests for the planner's two hot loops.

`plan_route` (table-driven A*) and `solve_tour_sa_tsp` (screened annealer)
must return exactly what the straightforward loops in `planner_reference`
return: the same waypoints, lengths and error messages, and the same
tours, lengths and best-cost histories.  Both rely on `sqrt(vecdot)` rows
being bitwise the 1-D `np.linalg.norm`, which depends on the numpy build's
dot loop and is pinned here too.  The annealer draws its random numbers
from the PCG64 bit generator's raw words, not through numpy's `Generator`;
that those draws are numpy's own is pinned here as well, so a change to
`Generator`'s transforms fails a test instead of changing tours.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import planner_reference
from strategies import occupancy_grids
from surfscan.geometry import ViewPose4
from surfscan.global_plan import RouteError, ViewPlan, _PCG64Draws, plan_route, solve_tour_sa_tsp
from surfscan.world import VoxelMap

PROPERTY = settings(max_examples=60, deadline=None)

magnitudes = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))


@PROPERTY
@given(x=arrays(np.float64, st.tuples(st.integers(1, 64), st.just(3)), elements=magnitudes))
def test_vecdot_rows_equal_vector_norm(x):
    rows = np.sqrt(np.vecdot(x, x))
    for v, r in zip(x, rows):
        assert r == np.linalg.norm(v)


# ---------------------------------------------------------------- PCG64 draws

# A call sequence: None is a `random()`, an int n a draw below n.  A power
# of two rejects nothing, so a wrong rejection threshold shows there.
bounds = st.one_of(st.integers(1, 64), st.integers(1, 2**32 - 1), st.integers(0, 31).map(lambda k: 2**k))
draw_calls = st.lists(st.one_of(st.none(), bounds), max_size=300)
# Bounds at the edges of numpy's 32-bit Lemire path: 1 draws nothing,
# 2**31 + 1 rejects almost half its draws.
EDGE_BOUNDS = [1, 2, None, 1, 2**31 + 1, None, 2**32 - 1, 2**31 + 1, 2**31, 2, None]


def generator_draws(seed, calls):
    rng = np.random.default_rng(seed)
    return [rng.random() if n is None else int(rng.integers(0, n)) for n in calls]


def raw_word_draws(seed, calls):
    draws = _PCG64Draws(seed)
    return [draws.random() if n is None else draws.below(n) for n in calls]


@PROPERTY
@given(seed=st.integers(0, 2**64 - 1), calls=draw_calls)
@example(seed=0, calls=EDGE_BOUNDS)
@example(seed=2**32 - 1, calls=EDGE_BOUNDS)
@example(seed=2**63 + 3, calls=EDGE_BOUNDS)
# About 6000 words: several 1024-word refills, crossed by both kinds of draw.
@example(seed=9, calls=[None, 2**31 + 1, 50, 1] * 1500)
def test_raw_word_draws_match_generator(seed, calls):
    assert raw_word_draws(seed, calls) == generator_draws(seed, calls)


@pytest.mark.parametrize("n", [-1, 0, 2**32, 2**63])
def test_raw_word_draws_reject_bounds_beyond_32_bits(n):
    with pytest.raises(ValueError, match="1 <= n < 2\\*\\*32"):
        _PCG64Draws.check_bound(n)


def test_raw_word_draws_accept_the_32_bit_bounds():
    for n in (1, 2, 2**32 - 1):
        _PCG64Draws.check_bound(n)


# ---------------------------------------------------------------- SA-TSP


def plan_from_positions(positions):
    vps = tuple(ViewPose4(x, y, z, 0.0) for x, y, z in positions)
    return ViewPlan(task_id="t", viewpoints=vps, valid=np.ones(len(vps), dtype=bool), grid_points=positions)


@st.composite
def tour_cases(draw):
    """(positions, start, seed): uniform points, integer grids full of
    equal legs, or points repeated in place; the start anywhere or on a
    viewpoint."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "grid", "duplicates"]))
    if kind == "uniform":
        positions = rng.uniform(0.0, 20.0, size=(n, 3))
    elif kind == "grid":
        positions = rng.integers(0, 4, size=(n, 3)).astype(np.float64) * 1.1
    else:
        positions = rng.uniform(0.0, 20.0, size=(n, 3))[rng.integers(0, max(n // 3, 1), size=n)]
    if draw(st.booleans()):
        start = positions[draw(st.integers(0, n - 1))].copy()
    else:
        start = rng.uniform(-5.0, 25.0, size=3)
    return positions, start, draw(st.integers(0, 2**32 - 1))


def wall_grid(cols, rows):
    """Viewpoints of a gridded wall, as the planner lays them out."""
    y, z = np.meshgrid(np.arange(cols) * 1.1, 0.6 + np.arange(rows) * 0.9, indexing="ij")
    return np.column_stack([np.full(y.size, 30.0), y.ravel(), z.ravel()])


@settings(max_examples=30, deadline=None)
@given(case=tour_cases())
@example(case=(wall_grid(30, 2), np.array([2.0, 2.0, 0.6]), 701))
@example(case=(wall_grid(20, 3), wall_grid(20, 3)[7].copy(), 3))
@example(case=(wall_grid(20, 3), wall_grid(20, 3)[0].copy(), 5))
@example(case=(wall_grid(20, 3), np.array([2.0, 2.0, 0.6]), 2**32 - 1))
# Two cities: every reversal and move touches both ends of the order.
@example(case=(wall_grid(2, 1), np.array([29.0, -1.0, 0.6]), 11))
@example(case=(wall_grid(2, 1), wall_grid(2, 1)[1].copy(), 2**32 - 1))
def test_screened_annealer_matches_reference(case):
    positions, start, seed = case
    plan = plan_from_positions(positions)
    history, ref_history = [], []
    tour = solve_tour_sa_tsp(plan, start, seed, history=history)
    ref = planner_reference.solve_tour_sa_tsp(plan, start, seed, history=ref_history)
    assert tour.order == ref.order
    assert tour.length == ref.length
    assert history == ref_history


# ---------------------------------------------------------------- A*


def route_or_error(planner, *args, **kwargs):
    try:
        waypoints, length = planner(*args, **kwargs)
    except RouteError as exc:
        return None, None, str(exc)
    return np.asarray(waypoints), length, None


@st.composite
def route_cases(draw):
    """A random grid, two endpoints (voxel interiors or anywhere around
    the grid, so out of bounds, in collision and walled off all occur),
    inflation and z band."""
    occ = draw(occupancy_grids(max_side=12))
    vmap = VoxelMap(np.array([-0.5, 0.3, 0.1]), 0.2, occ)
    lo, hi = vmap.bounds

    def point():
        if draw(st.integers(0, 4)):  # mostly inside a voxel
            cell = np.array([draw(st.integers(0, n - 1)) for n in occ.shape])
            frac = np.array([draw(st.floats(0.0, 0.999)) for _ in range(3)])
            return vmap.origin + (cell + frac) * vmap.voxel_size
        return np.array([draw(st.floats(float(a) - 0.5, float(b) + 0.5)) for a, b in zip(lo, hi)])

    start, goal = point(), point()
    if draw(st.integers(0, 9)) == 0:
        goal = start.copy()
    z_band = draw(
        st.one_of(
            st.none(),
            st.tuples(st.floats(float(lo[2]), float(hi[2])), st.floats(float(lo[2]), float(hi[2]))).map(sorted),
        )
    )
    inflation = draw(st.sampled_from([0.0, 0.1, 0.25]))
    return vmap, start, goal, inflation, z_band


@settings(max_examples=300, deadline=None)
@given(case=route_cases())
def test_table_astar_matches_reference(case):
    vmap, start, goal, inflation, z_band = case
    got = route_or_error(plan_route, vmap, start, goal, inflation, z_band)
    want = route_or_error(planner_reference.plan_route, vmap, start, goal, inflation, z_band=z_band)
    assert got[2] == want[2]
    assert got[1] == want[1]
    assert (got[0] is None and want[0] is None) or np.array_equal(got[0], want[0])
