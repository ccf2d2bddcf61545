import heapq
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy import ndimage

import planner_reference
from strategies import occupancy_grids
from surfscan.depthcam import CameraIntrinsics
from surfscan.geometry import PolygonROI, ViewPose4, polygon_basis
from surfscan.global_plan import (
    InspectionTask,
    RouteError,
    TaskUnreachableError,
    ViewConstraints,
    _label_components,
    filter_viewpoints,
    generate_grid_viewpoints,
    plan_route,
    prioritize_tasks,
    solve_tour_sa_tsp,
)
from surfscan.scenario import CAMERA_FOV
from surfscan.world import Box, VoxelMap
from test_geometry import point_in_polygon


def make_task(verts, tid="t"):
    return InspectionTask(id=tid, roi=PolygonROI(np.asarray(verts, dtype=float)))


# The default view constraints and camera, which every grid here is
# planned with, and the grid spacing and camera footprint they give.
VIEW = ViewConstraints()
CAMERA = CameraIntrinsics(**CAMERA_FOV)
SPACING_H, SPACING_V = VIEW.spacing(CAMERA, VIEW.d_view)
FOOTPRINT_W, FOOTPRINT_H = SPACING_H / (1.0 - VIEW.gamma_h), SPACING_V / (1.0 - VIEW.gamma_v)


def viewpoint_positions(plan):
    """The viewpoint positions; each lies off its grid point along the ROI
    normal, so its in-plane coordinates are the grid point's."""
    return np.array([vp.position for vp in plan.viewpoints])


WALL_6X2 = [[6, -3, 0], [6, 3, 0], [6, 3, 2], [6, -3, 2]]


# ---------------------------------------------------------------- oracles


def brute_force_open_tour(start, positions):
    n = len(positions)
    best = None
    best_cost = np.inf
    for perm in itertools.permutations(range(n)):
        pts = np.vstack([start, positions[list(perm)]])
        cost = float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())
        if cost < best_cost:
            best_cost, best = cost, perm
    return best, best_cost


def nearest_neighbor_cost(start, positions):
    remaining = list(range(len(positions)))
    cur = np.asarray(start, dtype=float)
    cost = 0.0
    while remaining:
        d = [np.linalg.norm(positions[i] - cur) for i in remaining]
        k = int(np.argmin(d))
        cost += d[k]
        cur = positions[remaining.pop(k)]
    return cost


# ---------------------------------------------------------------- constraints


def test_view_constraints_spacing_values():
    spacing_h, spacing_v = ViewConstraints().spacing(CAMERA, 2.0)
    assert spacing_h == pytest.approx(2 * 2 * np.tan(np.deg2rad(34.75)) * 0.4, abs=1e-12)
    assert spacing_v == pytest.approx(2 * 2 * np.tan(np.deg2rad(22.5)) * 0.4, abs=1e-12)
    assert round(spacing_h, 3) == 1.110
    assert round(spacing_v, 3) == 0.663


def test_view_constraints_zero_overlap_full_footprint():
    spacing_h, _ = ViewConstraints(gamma_h=0.0).spacing(CAMERA, 2.0)
    assert spacing_h == pytest.approx(2 * 2.0 * np.tan(CAMERA.alpha / 2))
    assert round(spacing_h, 3) == 2.775


def test_grid_spacing_follows_the_camera_fov():
    # The grid is spaced by the footprint of the camera that renders: a
    # narrower FOV packs more columns onto the same wall.
    task = make_task(WALL_6X2)
    narrow = CameraIntrinsics(alpha=np.deg2rad(40.0), beta=CAMERA.beta)
    wide, dense = (generate_grid_viewpoints(task, VIEW, cam, [0.0, 0.0, 1.0], (0.6, 0.6)) for cam in (CAMERA, narrow))
    spacing_h = VIEW.spacing(narrow, VIEW.d_view)[0]
    assert len(wide) == 6 and len(dense) == int(6.0 / spacing_h + 1e-9) + 1 > 6
    assert np.allclose(np.diff(viewpoint_positions(dense)[:, 1]), spacing_h, atol=1e-9)


def test_view_constraints_rejects_unit_overlap():
    with pytest.raises(ValueError):
        ViewConstraints(gamma_h=1.0)


@pytest.mark.parametrize("d_view", [float("nan"), float("inf"), 0.0])
def test_view_constraints_rejects_a_non_finite_or_non_positive_standoff(d_view):
    with pytest.raises(ValueError, match="d_view"):
        ViewConstraints(d_view=d_view)


# ---------------------------------------------------------------- grid viewpoints


def test_grid_wall_projection_and_yaw():
    # 4 m x 2 m wall at x=4, normal facing -x; robot side at x < 4.
    verts = [[4, 0, 0], [4, 0, 2], [4, 4, 2], [4, 4, 0]]
    task = make_task(verts)
    plan = generate_grid_viewpoints(task, VIEW, CAMERA, [0.0, 2.0, 1.0], None)
    assert len(plan) > 0
    for vp in plan.viewpoints:
        assert vp.x == pytest.approx(2.0, abs=1e-9)
        assert vp.psi == pytest.approx(0.0, abs=1e-12)  # looks back at the surface (+x)


def test_grid_viewpoints_distance_spacing_membership():
    task = make_task(WALL_6X2)
    plan = generate_grid_viewpoints(task, VIEW, CAMERA, [0.0, 0.0, 1.0], None)
    roi = task.roi
    n = roi.normal
    for vp in plan.viewpoints:
        d = abs(float((vp.position - roi.centroid) @ n))
        assert d == pytest.approx(VIEW.d_view, abs=1e-9)
    for p in viewpoint_positions(plan):
        assert point_in_polygon(roi, p)
    # Same-row spacing is exactly the horizontal grid spacing.
    u, v = polygon_basis(roi)
    su = viewpoint_positions(plan) @ u
    sv = viewpoint_positions(plan) @ v
    for row in np.unique(np.round(sv, 6)):
        cols = np.sort(su[np.round(sv, 6) == row])
        if len(cols) > 1:
            assert np.allclose(np.diff(cols), SPACING_H, atol=1e-9)


def test_grid_footprint_coverage():
    task = make_task(WALL_6X2)
    plan = generate_grid_viewpoints(task, VIEW, CAMERA, [0.0, 0.0, 1.0], None)
    roi = task.roi
    u, v = polygon_basis(roi)
    gu = viewpoint_positions(plan) @ u
    gv = viewpoint_positions(plan) @ v
    # Sample the ROI interior and check footprint-rectangle coverage.
    us = np.arange(-3 + 0.05, 3.0, 0.1)
    vs = np.arange(-1 + 0.05, 1.0, 0.1)
    covered = total = 0
    for uu in us:
        for vv in vs:
            total += 1
            if np.any(
                (np.abs(gu - (roi.centroid @ u + uu)) <= FOOTPRINT_W / 2)
                & (np.abs(gv - (roi.centroid @ v + vv)) <= FOOTPRINT_H / 2)
            ):
                covered += 1
    assert covered / total >= 0.99


def test_grid_z_band_collapses_rows(caplog):
    task = make_task(WALL_6X2)
    plan = generate_grid_viewpoints(task, VIEW, CAMERA, [0.0, 0.0, 1.0], (0.6, 0.6))
    assert f"task {task.id}: viewpoint heights clamped to band (0.6, 0.6)" in caplog.text
    zs = {vp.z for vp in plan.viewpoints}
    assert zs == {0.6}
    assert len(plan) == 6  # one row of six columns


def test_grid_sparse_fallback(caplog):
    # Small diamond: the grid anchor (bounding-box corner) lies outside it.
    tiny = make_task([[6, 0.01, 0], [6, 0.02, 0.01], [6, 0.01, 0.02], [6, 0.0, 0.01]])
    plan = generate_grid_viewpoints(tiny, VIEW, CAMERA, [0.0, 0.0, 0.0], None)
    assert f"task {tiny.id}: ROI too small for grid, falling back to centroid view" in caplog.text
    assert len(plan) == 1
    assert np.allclose(plan.viewpoints[0].position, [4.0, 0.01, 0.01], atol=1e-9)


def test_grid_fallback_view_is_clamped_to_the_band(caplog):
    # A downward triangle 0.8 m wide at z 0.9-1.3: the grid anchor (its
    # lower-left bounding-box corner) lies outside it, and the centroid
    # view at z 1.167 is clamped into the band like every grid viewpoint.
    triangle = make_task([[6, -0.4, 1.3], [6, 0.4, 1.3], [6, 0.0, 0.9]])
    unclamped = generate_grid_viewpoints(triangle, VIEW, CAMERA, [0.0, 0.0, 0.6], None)
    assert unclamped.viewpoints[0].z == pytest.approx(3.5 / 3, abs=1e-12)
    assert "clamped" not in caplog.text
    plan = generate_grid_viewpoints(triangle, VIEW, CAMERA, [0.0, 0.0, 0.6], (0.6, 0.6))
    assert f"task {triangle.id}: ROI too small for grid, falling back to centroid view" in caplog.text
    assert f"task {triangle.id}: viewpoint heights clamped to band (0.6, 0.6)" in caplog.text
    assert len(plan) == 1
    assert plan.viewpoints[0].position.tolist() == [4.0, unclamped.viewpoints[0].y, 0.6]


def test_grid_horizontal_roi_uses_principal_axes():
    # Floor patch (normal vertical): the grid falls back to the plane's
    # principal axes and projects viewpoints straight up.
    floor = make_task([[0, 0, 0], [4, 0, 0], [4, 2, 0], [0, 2, 0]])
    plan = generate_grid_viewpoints(floor, VIEW, CAMERA, [2.0, 1.0, 3.0], None)
    assert len(plan) > 0
    for vp in plan.viewpoints:
        assert vp.z == pytest.approx(2.0, abs=1e-9)
    for p in viewpoint_positions(plan):
        assert point_in_polygon(floor.roi, p)


# ---------------------------------------------------------------- filtering


def test_filter_empty_map_keeps_all():
    task = make_task(WALL_6X2)
    plan = generate_grid_viewpoints(task, VIEW, CAMERA, [0.0, 0.0, 1.0], (0.6, 0.6))
    vmap = VoxelMap.empty((-1, -7, 0), (10, 7, 2.4), 0.1)
    out = filter_viewpoints(plan, vmap, 0.5)
    assert out.valid.all()


def test_filter_drops_engulfed_viewpoint():
    task = make_task(WALL_6X2)
    plan = generate_grid_viewpoints(task, VIEW, CAMERA, [0.0, 0.0, 1.0], (0.6, 0.6))
    vp = plan.viewpoints[2]
    vmap = VoxelMap.from_boxes(
        [Box((vp.x - 0.2, vp.y - 0.2, vp.z - 0.2), (vp.x + 0.2, vp.y + 0.2, vp.z + 0.2))],
        0.1,
        bounds=((-1, -7, 0), (10, 7, 2.4)),
    )
    out = filter_viewpoints(plan, vmap, 0.5)
    assert not out.valid[2]
    assert out.valid.sum() == len(plan) - 1


def test_filter_all_invalid_raises(wall_map):
    task = make_task(WALL_6X2)
    plan = generate_grid_viewpoints(task, VIEW, CAMERA, [0.0, 0.0, 1.0], (0.6, 0.6))
    blocker = VoxelMap.from_boxes([Box((3, -4, 0), (5, 4, 2.4))], 0.1, bounds=((-1, -7, 0), (10, 7, 2.4)))
    with pytest.raises(TaskUnreachableError):
        filter_viewpoints(plan, blocker, 0.5)


# ---------------------------------------------------------------- routing


def empty_map_10x10():
    return VoxelMap.empty((-1, -5, 0), (11, 5, 1.2), 0.1)


def test_plan_route_start_equals_goal():
    vmap = empty_map_10x10()
    wps, length = plan_route(vmap, [0, 0, 0.6], [0, 0, 0.6], 0.5, None)
    assert length == 0.0
    assert len(wps) == 1


def test_plan_route_straight_line():
    vmap = empty_map_10x10()
    wps, length = plan_route(vmap, [0, 0, 0.6], [5, 0, 0.6], 0.5, None)
    assert length == pytest.approx(5.0, abs=3 * 0.1 * np.sqrt(3))


def test_plan_route_through_gap_matches_dijkstra():
    # Wall across the middle with a single gap.
    wall = Box((5.0, -5.0, 0.0), (5.4, 5.0, 1.2))
    vmap = VoxelMap.from_boxes([wall], 0.1, bounds=((-1, -5, 0), (11, 5, 1.2)))
    occ = np.asarray(vmap.occ)
    occ.setflags(write=True)
    gap_lo = vmap.world_to_grid([5.0, 1.0, 0.0]).astype(int)
    gap_hi = vmap.world_to_grid([5.4, 2.6, 1.2]).astype(int)
    occ[gap_lo[0] : gap_hi[0], gap_lo[1] : gap_hi[1], :] = False
    occ.setflags(write=False)
    start, goal = [2.05, 0.05, 0.55], [8.05, 0.05, 0.55]
    wps, length = plan_route(vmap, start, goal, 0.5, None)
    ys = [w[1] for w in wps]
    assert max(ys) > 1.0  # detours through the gap
    _, dij = planner_reference.plan_route(vmap, start, goal, 0.5, heuristic=False)
    assert length == pytest.approx(dij, abs=1e-9)


def test_plan_route_unreachable_goal(wall_map):
    with pytest.raises(RouteError):
        plan_route(wall_map, [4.0, 0.0, 0.6], [6.2, 0.0, 0.6], 0.5, None)  # goal inside the wall


def test_plan_route_enclosed_goal_fails_before_search(monkeypatch):
    # A sealed room: the goal at its center is free under inflation, but no
    # free path leads in, so the route fails before A* pushes a single cell.
    room = [
        Box((4.0, -2.0, 0.0), (4.2, 2.0, 1.2)),
        Box((7.8, -2.0, 0.0), (8.0, 2.0, 1.2)),
        Box((4.0, -2.0, 0.0), (8.0, -1.8, 1.2)),
        Box((4.0, 1.8, 0.0), (8.0, 2.0, 1.2)),
    ]
    vmap = VoxelMap.from_boxes(room, 0.1, bounds=((-1, -5, 0), (11, 5, 1.2)))
    start, goal = np.array([1.0, 0.0, 0.6]), np.array([6.0, 0.0, 0.6])
    assert vmap.free_mask(0.5, 0, vmap.shape[2] - 1)[tuple(np.floor(vmap.world_to_grid(goal)).astype(int))]
    pushes = []
    push = heapq.heappush
    monkeypatch.setattr(heapq, "heappush", lambda heap, item: pushes.append(item) or push(heap, item))
    with pytest.raises(RouteError, match=re.escape(f"goal {goal} unreachable from {start}")):
        plan_route(vmap, start, goal, 0.5, None)
    assert pushes == []


def test_plan_route_astar_equals_dijkstra_random(rng):
    boxes = [
        Box((2.0, -2.0, 0.0), (3.0, 2.0, 1.2)),
        Box((5.0, 0.0, 0.0), (6.0, 5.0, 1.2)),
        Box((7.0, -4.0, 0.0), (8.0, 1.0, 1.2)),
    ]
    vmap = VoxelMap.from_boxes(boxes, 0.2, bounds=((-1, -5, 0), (11, 5, 1.2)))
    def free_point():
        while True:
            p = np.array([rng.uniform(0, 10), rng.uniform(-4.5, 4.5), 0.5])
            try:
                plan_route(vmap, p, p, 0.4, None)
                return p
            except RouteError:
                continue

    checked = 0
    while checked < 50:
        a, b = free_point(), free_point()
        try:
            _, la = plan_route(vmap, a, b, 0.4, None)
        except RouteError:  # disconnected pockets under inflation
            continue
        _, ld = planner_reference.plan_route(vmap, a, b, 0.4, heuristic=False)
        assert la == pytest.approx(ld, abs=1e-9)
        checked += 1


def same_partition(labels, reference):
    """Whether two labellings have the same unlabelled cells and group the
    labelled ones alike: their label pairs form a bijection."""
    free = reference > 0
    if labels.shape != reference.shape or not np.array_equal(labels > 0, free):
        return False
    pairs = np.unique(np.stack([labels[free], reference[free]]), axis=1)
    return len(np.unique(pairs[0])) == len(np.unique(pairs[1])) == pairs.shape[1]


def cells(shape, *free):
    mask = np.zeros(shape, dtype=bool)
    for cell in free:
        mask[cell] = True
    return mask


THIN = np.random.default_rng(7).random((9, 9)) < 0.6
# A serpentine in one layer: each row along j joins the next at one end
# only, so the runs chain through the whole mask.
SERPENTINE = np.zeros((7, 9, 1), dtype=bool)
SERPENTINE[::2] = True
SERPENTINE[1::4, -1] = SERPENTINE[3::4, 0] = True


@settings(max_examples=300, deadline=None)
@given(free=occupancy_grids())
@example(free=np.zeros((4, 5, 3), dtype=bool))
@example(free=np.ones((4, 5, 3), dtype=bool))
@example(free=THIN[None, :, :].copy())
@example(free=THIN[:, None, :].copy())
@example(free=THIN[:, :, None].copy())
@example(free=np.ones((1, 1, 1), dtype=bool))
@example(free=SERPENTINE)
@example(free=cells((4, 4, 1), (0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 3, 0), (3, 0, 0)))  # i-j diagonals
@example(free=cells((4, 1, 4), (0, 0, 0), (1, 0, 1), (3, 0, 1), (2, 0, 2)))  # i-k diagonals
@example(free=cells((1, 4, 4), (0, 0, 3), (0, 1, 2), (0, 3, 0), (0, 2, 1)))  # j-k anti-diagonal
@example(free=cells((3, 3, 3), (0, 0, 0), (1, 1, 1), (2, 2, 2)))  # corners only
@example(free=cells((3, 3, 3), (2, 0, 0), (1, 1, 1), (0, 2, 2), (2, 2, 0)))  # three corners on one centre
def test_label_components_partition_matches_ndimage(free):
    reference, _ = ndimage.label(free, structure=np.ones((3, 3, 3)))
    assert same_partition(_label_components(free), reference)


# ---------------------------------------------------------------- prioritization


def test_prioritize_single_task(wall_map):
    task = make_task(WALL_6X2)
    plan = generate_grid_viewpoints(task, VIEW, CAMERA, [0.0, 0.0, 1.0], (0.6, 0.6))
    ranked = prioritize_tasks([task], [plan], ViewPose4(4, -5, 0.6), wall_map, 0.5, z_band=(0.6, 0.6))
    assert len(ranked) == 1 and ranked[0].reachable


def test_prioritize_orders_by_route_length(wall_map):
    near = make_task(WALL_6X2, tid="near")
    far_verts = [[6, -3, 0], [6, 3, 0], [6, 3, 2], [6, -3, 2]]
    far = make_task(far_verts, tid="far")
    plan_near = generate_grid_viewpoints(near, VIEW, CAMERA, [0, 0, 1], (0.6, 0.6))
    plan_far = generate_grid_viewpoints(far, VIEW, CAMERA, [0, 0, 1], (0.6, 0.6))
    # Robot sits next to one end: "near" viewpoints start at y=-3.
    robot = ViewPose4(4.0, -4.0, 0.6)
    ranked = prioritize_tasks([far, near], [plan_far, plan_near], robot, wall_map, 0.5, z_band=(0.6, 0.6))
    # Identical geometry: tie broken by id ("far" < "near").
    assert [r.task.id for r in ranked] == ["far", "near"]
    assert ranked[0].route_length == pytest.approx(ranked[1].route_length, abs=1e-9)


def test_prioritize_flags_unreachable_task(wall_map):
    task = make_task(WALL_6X2)
    plan = generate_grid_viewpoints(task, VIEW, CAMERA, [0.0, 0.0, 1.0], (0.6, 0.6))
    # Robot boxed in on all sides: no route to any viewpoint.
    from surfscan.world import Box, VoxelMap

    cage = VoxelMap.from_boxes(
        [
            Box((2.0, -6.0, 0.0), (2.4, -4.0, 2.4)),
            Box((5.6, -6.0, 0.0), (6.0, -4.0, 2.4)),
            Box((2.0, -6.0, 0.0), (6.0, -5.6, 2.4)),
            Box((2.0, -4.4, 0.0), (6.0, -4.0, 2.4)),
        ],
        0.1,
        bounds=((-1, -7, 0), (10, 7, 2.4)),
    )
    ranked = prioritize_tasks([task], [plan], ViewPose4(4.0, -5.0, 0.6), cage, 0.5, z_band=(0.6, 0.6))
    assert not ranked[0].reachable
    assert ranked[0].route_length == np.inf


# ---------------------------------------------------------------- SA-TSP


def plan_from_positions(positions):
    from surfscan.geometry import ViewPose4
    from surfscan.global_plan import ViewPlan

    vps = tuple(ViewPose4(x, y, z, 0.0) for x, y, z in positions)
    return ViewPlan(
        task_id="t",
        viewpoints=vps,
        valid=np.ones(len(vps), dtype=bool),
    )


def test_tour_single_viewpoint():
    plan = plan_from_positions([[3.0, 4.0, 0.0]])
    tour = solve_tour_sa_tsp(plan, [0.0, 0.0, 0.0], seed=1)
    assert tour.order == (0,)
    assert tour.length == pytest.approx(5.0)


def test_tour_unit_square_optimal():
    corners = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    plan = plan_from_positions(corners)
    tour = solve_tour_sa_tsp(plan, [0.0, 0.0, 0.0], seed=1)
    assert tour.length == pytest.approx(3.0, abs=1e-9)


def test_tour_within_5pct_of_bruteforce(rng):
    for trial in range(10):
        n = int(rng.integers(4, 9))
        positions = rng.uniform(0, 10, size=(n, 3))
        positions[:, 2] = 0.0
        start = rng.uniform(0, 10, size=3)
        start[2] = 0.0
        _, opt = brute_force_open_tour(start, positions)
        plan = plan_from_positions(positions)
        for seed in range(1, 4):
            tour = solve_tour_sa_tsp(plan, start, seed=seed)
            assert tour.length <= opt * 1.05 + 1e-9
            assert tour.length <= nearest_neighbor_cost(start, positions) + 1e-9


def test_tour_deterministic_and_monotone(rng):
    positions = rng.uniform(0, 8, size=(10, 3))
    plan = plan_from_positions(positions)
    h1, h2 = [], []
    t1 = solve_tour_sa_tsp(plan, [0, 0, 0], seed=7, history=h1)
    t2 = solve_tour_sa_tsp(plan, [0, 0, 0], seed=7, history=h2)
    assert t1.order == t2.order and t1.length == t2.length
    assert h1 == h2
    assert all(b <= a + 1e-12 for a, b in zip(h1, h1[1:]))  # best-so-far non-increasing
