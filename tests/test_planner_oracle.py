"""Oracle tests for the planner's hot loops.

`plan_route` (table-driven A*), `solve_tour_sa_tsp` (screened annealer),
`inside_in_plane` (plain-float crossing test) and
`generate_grid_viewpoints` (one-pass grid) must return exactly what the
straightforward loops in `planner_reference` return: the same waypoints,
lengths and error messages, the same tours, lengths and best-cost
histories, and the same viewpoints and warnings.
`prioritize_tasks`, which routes every task from one set-up per z band,
must rank with exactly the lengths that independent `plan_route` calls
give.  These rely on `sqrt(vecdot)` rows being bitwise the 1-D
`np.linalg.norm`, which depends on the numpy build's dot loop and is
pinned here too.  The annealer draws its random numbers from the PCG64 bit
generator's raw words, not through numpy's `Generator`; that those draws
are numpy's own is pinned here as well, so a change to `Generator`'s
transforms fails a test instead of changing tours.
"""

import logging

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import planner_reference
from strategies import occupancy_grids
from surfscan.world import CameraIntrinsics
from surfscan.geometry import BOUNDARY_EPS, PolygonROI, ViewPose4, inside_in_plane
from surfscan.global_plan import (
    InspectionTask,
    RouteError,
    ViewConstraints,
    ViewPlan,
    _PCG64Draws,
    generate_grid_viewpoints,
    plan_route,
    prioritize_tasks,
    solve_tour_sa_tsp,
)
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
    return ViewPlan(task_id="t", viewpoints=vps, valid=np.ones(len(vps), dtype=bool))


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


def grid_extent(vmap):
    """The world corners of the map's grid."""
    return vmap.origin, vmap.origin + np.array(vmap.shape) * vmap.voxel_size


@st.composite
def route_cases(draw):
    """A random grid, two endpoints (voxel interiors or anywhere around
    the grid, so out of bounds, in collision and walled off all occur),
    inflation and z band."""
    occ = draw(occupancy_grids(max_side=12))
    vmap = VoxelMap(np.array([-0.5, 0.3, 0.1]), 0.2, occ)
    lo, hi = grid_extent(vmap)

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


# ---------------------------------------------------------------- shared band set-up


ORIGIN = np.array([-0.5, 0.3, 0.1])


@st.composite
def grid_points(draw, vmap):
    """Mostly inside a voxel, else anywhere around the grid."""
    if draw(st.integers(0, 4)):
        cell = np.array([draw(st.integers(0, n - 1)) for n in vmap.shape])
        frac = np.array([draw(st.floats(0.0, 0.999)) for _ in range(3)])
        return vmap.origin + (cell + frac) * vmap.voxel_size
    lo, hi = grid_extent(vmap)
    return np.array([draw(st.floats(float(a) - 0.5, float(b) + 0.5)) for a, b in zip(lo, hi)])


@st.composite
def route_scenes(draw):
    """A random grid, a start and one to five goals (voxel interiors
    or anywhere around the grid, so out of bounds, in collision, walled off
    and in other layers all occur; now and then the start itself),
    inflation and z band."""
    vmap = VoxelMap(ORIGIN, 0.2, draw(occupancy_grids(max_side=12)))
    lo, hi = grid_extent(vmap)
    start = draw(grid_points(vmap))
    goals = [
        start.copy() if draw(st.integers(0, 9)) == 0 else draw(grid_points(vmap))
        for _ in range(draw(st.integers(1, 5)))
    ]
    z_band = draw(
        st.one_of(
            st.none(),
            st.tuples(st.floats(float(lo[2]), float(hi[2])), st.floats(float(lo[2]), float(hi[2]))).map(sorted),
        )
    )
    inflation = draw(st.sampled_from([0.0, 0.1, 0.25]))
    return vmap, start, goals, inflation, z_band


def detour_scene():
    """A 40x48x3 grid with a full-height wall across x, open only beyond
    y index 40, and a sealed room.  The start and the first goal face each
    other across the wall, in neighbouring 16-cell heuristic tiles, so the
    search detours through tiles away from both.  The other goals lie in
    the sealed room, inside the wall, outside the grid, one layer down
    (another band) and on the start."""
    occ = np.zeros((40, 48, 3), dtype=bool)
    occ[20, :40, :] = True
    occ[4, 20:31, :] = occ[12, 20:31, :] = True
    occ[4:13, 20, :] = occ[4:13, 30, :] = True
    vmap = VoxelMap(ORIGIN, 0.2, occ)

    def center(i, j, k):
        return vmap.voxel_center((i, j, k))

    start = center(14, 4, 1)
    goals = [center(25, 4, 1), center(8, 25, 1), center(20, 10, 1), center(45, 4, 1), center(23, 6, 0), start.copy()]
    return vmap, start, goals, 0.0, (float(start[2]), float(start[2]))


def route_length(vmap, start, goal, inflation, z_band):
    try:
        return plan_route(vmap, start, goal, inflation, z_band)[1], True
    except RouteError:
        return np.inf, False


@settings(max_examples=150, deadline=None)
@given(case=route_scenes())
@example(case=detour_scene())
def test_shared_band_setup_matches_independent_routes(case):
    vmap, start, goals, inflation, z_band = case
    roi = PolygonROI(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    tasks = [InspectionTask(f"t{k}", roi) for k in range(len(goals))]
    plans = [plan_from_positions(goal[None, :]) for goal in goals]
    ranked = prioritize_tasks(tasks, plans, ViewPose4(*start), vmap, inflation, z_band)
    got = {entry.task.id: (entry.route_length, entry.reachable) for entry in ranked}
    for task, goal in zip(tasks, goals):
        fresh = VoxelMap(vmap.origin, vmap.voxel_size, vmap.occ)
        assert got[task.id] == route_length(fresh, start, goal, inflation, z_band)


def test_detour_scene_routes_match_reference():
    # The lazily filled heuristic across tile edges, against the reference
    # A*, which computes every cell's heuristic on demand.
    vmap, start, goals, inflation, z_band = detour_scene()
    routes = [route_or_error(plan_route, vmap, start, goal, inflation, z_band) for goal in goals]
    for goal, got in zip(goals, routes):
        want = route_or_error(planner_reference.plan_route, vmap, start, goal, inflation, z_band=z_band)
        assert got[1:] == want[1:]
        assert (got[0] is None and want[0] is None) or np.array_equal(got[0], want[0])
    assert [error is None for _, _, error in routes] == [True, False, False, False, True, True]
    assert routes[0][1] > 2 * 36 * vmap.voxel_size  # around the wall's end
    assert routes[5][1] == 0.0


# ---------------------------------------------------------------- polygons and grids


@st.composite
def planar_polygons(draw):
    """A star-shaped simple polygon of 3 to 8 vertices on a wall, floor or
    tilted plane, up to 16 m across, anywhere within 100 m of the origin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(3, 8))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
    # One in five is too small to hold a grid point.
    radii = rng.uniform(0.2, 1.0, m) * (0.05 if rng.random() < 0.2 else rng.uniform(1.0, 8.0))
    kind = draw(st.sampled_from(["wall", "floor", "tilted"]))
    if kind == "wall":
        yaw = rng.uniform(-np.pi, np.pi)
        a, b = np.array([np.cos(yaw), np.sin(yaw), 0.0]), np.array([0.0, 0.0, 1.0])
    elif kind == "floor":
        a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    else:
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        a = np.cross(n, [0.3, 0.5, 0.8])
        a /= np.linalg.norm(a)
        b = np.cross(n, a)
    center = rng.uniform(-100.0, 100.0, size=3)
    verts = center + (np.cos(angles) * radii)[:, None] * a + (np.sin(angles) * radii)[:, None] * b
    try:
        return PolygonROI(verts)
    except ValueError:  # near-collinear or self-touching draws
        assume(False)


def boundary_points(roi):
    """The vertices, the edge midpoints, and points half, one and two
    `BOUNDARY_EPS` off each edge's midpoint, to either side in the plane."""
    verts = roi.vertices
    points = list(verts)
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        mid = (a + b) / 2.0
        across = np.cross(roi.normal, b - a)
        across /= np.linalg.norm(across)
        points.append(mid)
        points += [mid + s * BOUNDARY_EPS * across for s in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
    return points


def point_in_polygon(roi, p):
    """`inside_in_plane` of the point `p` on the ROI's plane, projected
    onto the ROI's basis as the reference projects it."""
    u, v = roi._basis
    c = roi.centroid
    return inside_in_plane(roi, float((p - c) @ u), float((p - c) @ v))


@PROPERTY
@given(roi=planar_polygons(), seed=st.integers(0, 2**32 - 1))
def test_point_in_polygon_matches_reference(roi, seed):
    u, v = roi._basis
    scale = float(np.abs(roi.vertices - roi.centroid).max())
    offsets = np.random.default_rng(seed).uniform(-1.5 * scale, 1.5 * scale, size=(20, 2))
    points = boundary_points(roi) + [roi.centroid + a * u + b * v for a, b in offsets]
    for p in points:
        assert point_in_polygon(roi, p) == planner_reference.point_in_polygon(roi, p)


def test_point_in_polygon_boundary_tie_matches_reference():
    # A notched hexagon on the wall x = 6 whose vertex mean (6, 0, -1) lies
    # on the line of its edge from (0, -2) to (0, 2) in (y, z): in the plane
    # that edge sits at u = 0 exactly, so a point 1e-9 off it lies exactly
    # `BOUNDARY_EPS` from it and counts as on the boundary, on either side.
    yz = [(0, -2), (0, 2), (-2, 2), (-2, -3), (2, -3), (2, -2)]
    roi = PolygonROI(np.array([[6.0, y, z] for y, z in yz]))
    assert roi.centroid.tolist() == [6.0, 0.0, -1.0]
    for y in (-BOUNDARY_EPS, BOUNDARY_EPS, -np.nextafter(BOUNDARY_EPS, 1.0), np.nextafter(BOUNDARY_EPS, 1.0)):
        p = np.array([6.0, y, 0.0])
        assert point_in_polygon(roi, p) == planner_reference.point_in_polygon(roi, p)
    assert point_in_polygon(roi, np.array([6.0, BOUNDARY_EPS, 0.0]))
    assert not point_in_polygon(roi, np.array([6.0, np.nextafter(BOUNDARY_EPS, 1.0), 0.0]))


class Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def grid_or_error(generate, *args):
    """(plan or None, error message or None, warnings logged)."""
    handler = Messages()
    logger = logging.getLogger("surfscan.global_plan")
    logger.addHandler(handler)
    try:
        return generate(*args), None, handler.messages
    except ValueError as exc:
        return None, str(exc), handler.messages
    finally:
        logger.removeHandler(handler)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# Vertices about 1.3e10 m from the origin, viewed from 7.8e7 m: the
# grid's in-plane steps round off the plane by more than its tolerance.
FAR_VIEW = ViewConstraints(d_view=313952853.4485422 / 4)
CAMERA = CameraIntrinsics(alpha=np.deg2rad(69.5), beta=np.deg2rad(45.0))
FAR_QUAD = PolygonROI(
    np.array(
        [
            [12734629857.398865, 9232671760.866539, -1539345939.2974734],
            [12813715277.901714, 9185474086.807976, -1479176447.8251033],
            [13073076945.348772, 9090414778.167992, -1286589373.8014524],
            [13162378066.446098, 9402019272.770552, -1247604122.9915586],
        ]
    )
)


@st.composite
def grid_cases(draw):
    """A planar polygon, view constraints, a camera FOV, the side to view it
    from and no band or one within 3 m of the polygon's height, so that
    none, some or all of its rows clamp."""
    roi = draw(planar_polygons())
    view = ViewConstraints(
        d_view=draw(st.floats(1.0, 3.0)), gamma_h=draw(st.floats(0.0, 0.6)), gamma_v=draw(st.floats(0.0, 0.6))
    )
    camera = CameraIntrinsics(alpha=draw(st.floats(0.5, 2.5)), beta=draw(st.floats(0.5, 2.5)))
    toward = roi.centroid + draw(arrays(np.float64, 3, elements=st.floats(-10.0, 10.0)))
    z_band = None
    if draw(st.booleans()):
        z_band = tuple(float(roi.centroid[2]) + np.sort(draw(arrays(np.float64, 2, elements=st.floats(-3.0, 3.0)))))
    return roi, view, camera, toward, z_band


@settings(max_examples=100, deadline=None)
@given(case=grid_cases())
@example(case=(FAR_QUAD, FAR_VIEW, CAMERA, np.zeros(3), None))
def test_grid_viewpoints_match_reference(case):
    roi, view, camera, toward, z_band = case
    task = InspectionTask("t", roi)
    args = (task, view, camera, toward, z_band)
    plan, error, messages = grid_or_error(generate_grid_viewpoints, *args)
    ref, ref_error, ref_messages = grid_or_error(planner_reference.generate_grid_viewpoints, *args)
    assert (error, messages) == (ref_error, ref_messages)
    if ref is None:
        return
    poses = np.array([vp.as_array() for vp in plan.viewpoints])
    assert same_bits(poses, np.array([vp.as_array() for vp in ref.viewpoints]))
    assert np.array_equal(plan.valid, ref.valid)


def test_far_quad_grid_is_off_plane():
    task = InspectionTask("t", FAR_QUAD)
    _, error, _ = grid_or_error(planner_reference.generate_grid_viewpoints, task, FAR_VIEW, CAMERA, np.zeros(3), None)
    assert error == "point lies off the polygon plane beyond tolerance"
