"""Global planning over the historical map: viewpoint grids, collision
filtering, task prioritization by traversable route length, and the
annealed visitation tour."""

import heapq
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage

from .geometry import (
    PolygonROI,
    Pose6,
    ViewPose4,
    point_in_polygon,
    polygon_basis,
    polygon_normal,
)
from .world import is_collision_free

__all__ = [
    "ViewConstraints",
    "InspectionTask",
    "ViewPlan",
    "Tour",
    "TaskUnreachableError",
    "RouteError",
    "generate_grid_viewpoints",
    "filter_viewpoints",
    "plan_route",
    "prioritize_tasks",
    "solve_tour_sa_tsp",
]

log = logging.getLogger(__name__)


class TaskUnreachableError(RuntimeError):
    """Every viewpoint of a task is invalid or unreachable."""


class RouteError(RuntimeError):
    """No traversable route between the requested endpoints."""


@dataclass(frozen=True)
class ViewConstraints:
    """Viewing distance, overlap fractions and camera FOV driving both the
    global grid spacing and the local replanning offsets."""

    d_view: float = 2.0
    gamma_h: float = 0.6
    gamma_v: float = 0.6
    alpha: float = np.deg2rad(69.5)
    beta: float = np.deg2rad(45.0)

    def __post_init__(self):
        if not (math.isfinite(self.d_view) and self.d_view > 0):
            raise ValueError(f"d_view must be positive and finite, got {self.d_view}")
        if not (0.0 <= self.gamma_h < 1.0 and 0.0 <= self.gamma_v < 1.0):
            raise ValueError("overlap fractions must lie in [0, 1)")
        if not (0.0 < self.alpha < np.pi and 0.0 < self.beta < np.pi):
            raise ValueError("FOV angles must lie in (0, pi)")

    @property
    def footprint_w(self):
        """Camera footprint width on a wall at the viewing distance."""
        return 2.0 * self.d_view * np.tan(self.alpha / 2.0)

    @property
    def footprint_h(self):
        return 2.0 * self.d_view * np.tan(self.beta / 2.0)

    @property
    def spacing_h(self):
        """Horizontal grid-line spacing honoring the overlap fraction."""
        return self.footprint_w * (1.0 - self.gamma_h)

    @property
    def spacing_v(self):
        return self.footprint_h * (1.0 - self.gamma_v)


@dataclass(frozen=True)
class InspectionTask:
    id: str
    roi: PolygonROI
    constraints: ViewConstraints = field(default_factory=ViewConstraints)


@dataclass(frozen=True)
class ViewPlan:
    """Viewpoints generated for one task plus their validity flags."""

    task_id: str
    viewpoints: tuple
    valid: np.ndarray
    grid_points: np.ndarray
    sparse: bool = False
    clamped: bool = False

    def __post_init__(self):
        flags = np.asarray(self.valid, dtype=np.bool_).copy()
        flags.setflags(write=False)
        object.__setattr__(self, "valid", flags)
        object.__setattr__(self, "viewpoints", tuple(self.viewpoints))

    def valid_indices(self):
        return np.flatnonzero(self.valid)

    def valid_positions(self):
        idx = self.valid_indices()
        return np.array([self.viewpoints[i].position for i in idx]), idx

    def __len__(self):
        return len(self.viewpoints)


@dataclass(frozen=True)
class Tour:
    """Open visitation order (indices into a ViewPlan) and its length,
    including the leg from the start position to the first viewpoint."""

    order: tuple
    length: float

    def __len__(self):
        return len(self.order)


def generate_grid_viewpoints(task, toward=None, z_band=None):
    """Grid viewpoints for a polygon ROI (overlap-driven spacing).

    The ROI plane is gridded from the in-plane bounding-box minimum corner
    with spacings derived from camera footprint and overlaps; intersections
    inside the polygon are offset by d_view along the polygon normal and
    oriented to look back at the surface.  `toward` picks the projection
    side (the half-space containing it, usually the robot); `z_band`
    clamps viewpoint heights to [z_min, z_max], merging rows that collapse
    onto the same height.
    """
    roi = task.roi
    c = task.constraints
    n = polygon_normal(roi)
    u, v = polygon_basis(roi)
    centroid = roi.centroid

    sign = 1.0
    if toward is not None:
        toward = np.asarray(toward, dtype=np.float64)
        if float((toward - centroid) @ n) < 0.0:
            sign = -1.0
    proj = sign * n
    yaw = float(np.arctan2(-proj[1], -proj[0]))

    su = (roi.vertices - centroid) @ u
    sv = (roi.vertices - centroid) @ v
    s0, s1 = float(su.min()), float(su.max())
    t0, t1 = float(sv.min()), float(sv.max())

    eps = 1e-9
    n_cols = int(np.floor((s1 - s0) / c.spacing_h + eps)) + 1
    n_rows = int(np.floor((t1 - t0) / c.spacing_v + eps)) + 1

    entries = []  # (row_key, col, grid_point, view_z)
    clamped = False
    for j in range(n_rows):
        for i in range(n_cols):
            g = centroid + (s0 + i * c.spacing_h) * u + (t0 + j * c.spacing_v) * v
            if not point_in_polygon(roi, g):
                continue
            p = g + proj * c.d_view
            z = p[2]
            if z_band is not None:
                lo, hi = z_band
                zc = min(max(z, lo), hi)
                if zc != z:
                    clamped = True
                z = zc
            entries.append((round(z, 9), i, g, (p[0], p[1], z)))

    if not entries:
        p = centroid + proj * c.d_view
        log.warning("task %s: ROI too small for grid, falling back to centroid view", task.id)
        return ViewPlan(
            task_id=task.id,
            viewpoints=(ViewPose4(p[0], p[1], p[2], yaw),),
            valid=np.array([True]),
            grid_points=centroid.reshape(1, 3),
            sparse=True,
            clamped=False,
        )

    # One row per distinct (possibly clamped) height, columns in order.
    seen = {}
    for key, i, g, p in entries:
        seen.setdefault((key, i), (g, p))
    ordered = sorted(seen.keys())
    viewpoints = []
    grid_points = []
    for key in ordered:
        g, p = seen[key]
        grid_points.append(g)
        viewpoints.append(ViewPose4(p[0], p[1], p[2], yaw))
    if clamped:
        log.warning("task %s: viewpoint heights clamped to band %s", task.id, z_band)
    return ViewPlan(
        task_id=task.id,
        viewpoints=tuple(viewpoints),
        valid=np.ones(len(viewpoints), dtype=np.bool_),
        grid_points=np.asarray(grid_points),
        sparse=False,
        clamped=clamped,
    )


def filter_viewpoints(plan, vmap, inflation):
    """Invalidate viewpoints in collision on the given map.  Invalid
    viewpoints are dropped from touring but kept (flagged) in the plan."""
    valid = plan.valid.copy()
    for i, vp in enumerate(plan.viewpoints):
        if not valid[i]:
            continue
        if not is_collision_free(vmap, vp.position, inflation):
            valid[i] = False
            log.info("task %s: viewpoint %d at %s in collision, dropped", plan.task_id, i, vp)
    if not valid.any():
        raise TaskUnreachableError(
            f"task {plan.task_id}: all {len(valid)} viewpoints in collision"
        )
    return replace(plan, valid=valid)


_NEIGHBORS = [
    (di, dj, dk)
    for di in (-1, 0, 1)
    for dj in (-1, 0, 1)
    for dk in (-1, 0, 1)
    if (di, dj, dk) != (0, 0, 0)
]
_NEIGHBOR_COSTS = [float(np.sqrt(di * di + dj * dj + dk * dk)) for di, dj, dk in _NEIGHBORS]


def _route_cells(vmap, start, goal, inflation, z_band):
    free = vmap.free_mask(inflation)
    shape = vmap.occ.shape
    h = vmap.voxel_size

    def cell_of(p, name):
        g = np.floor(vmap.world_to_grid(p)).astype(int)
        if np.any(g < 0) or np.any(g >= np.array(shape)):
            raise RouteError(f"{name} {p} lies outside the map bounds")
        return tuple(g)

    s = cell_of(start, "start")
    g = cell_of(goal, "goal")
    if not free[s]:
        raise RouteError(f"start {start} is in collision (inflation {inflation})")
    if not free[g]:
        raise RouteError(f"goal {goal} is in collision (inflation {inflation})")

    if z_band is None:
        k_lo, k_hi = s[2], s[2]
    else:
        k_lo = int(np.floor((z_band[0] - vmap.origin[2]) / h))
        k_hi = int(np.floor((z_band[1] - vmap.origin[2]) / h))
    k_lo = max(min(k_lo, s[2], g[2]), 0)
    k_hi = min(max(k_hi, s[2], g[2]), shape[2] - 1)
    return free, s, g, (k_lo, k_hi)


def _goal_distances(vmap, goal_cell, band_shape, k_lo):
    """Distance from each voxel center of the band to the goal's center,
    as a flat memoryview over the band padded by one cell on every side
    (the shell is never read and stays 0).

    Each row is `sqrt(vecdot(d, d))`, bitwise the 1-D `np.linalg.norm(d)`
    of a per-cell heuristic (`norm(axis=1)` is not), with `d` componentwise
    `voxel_center(cell) - voxel_center(goal_cell)`.  The table is filled one
    i slab at a time to keep the temporaries small."""
    ni, nj, nk = band_shape
    goal_center = vmap.voxel_center(goal_cell)

    def axis_offsets(axis, cells):
        return vmap.origin[axis] + (cells + 0.5) * vmap.voxel_size - goal_center[axis]

    dx = axis_offsets(0, np.arange(ni, dtype=np.float64))
    dy, dz = np.meshgrid(
        axis_offsets(1, np.arange(nj, dtype=np.float64)),
        axis_offsets(2, np.arange(k_lo, k_lo + nk, dtype=np.float64)),
        indexing="ij",
    )
    d = np.empty((nj * nk, 3))
    d[:, 1] = dy.ravel()
    d[:, 2] = dz.ravel()
    table = np.zeros((ni + 2, nj + 2, nk + 2))
    for i in range(ni):
        d[:, 0] = dx[i]
        table[i + 1, 1:-1, 1:-1] = np.sqrt(np.vecdot(d, d)).reshape(nj, nk)
    return memoryview(table.reshape(-1))


def plan_route(vmap, start, goal, inflation, z_band=None, heuristic=True):
    """Shortest 26-connected route over free voxels (A*, Euclidean costs,
    lexicographic tie-breaking).  Traversal is restricted to the z layers of
    `z_band` (default: the start's layer).  Returns (waypoints, length)."""
    start = np.asarray(start, dtype=np.float64)
    goal = np.asarray(goal, dtype=np.float64)
    if np.linalg.norm(goal - start) < 1e-12:
        return [start.copy()], 0.0

    free, s, g, (k_lo, k_hi) = _route_cells(vmap, start, goal, inflation, z_band)
    band = free[:, :, k_lo : k_hi + 1]
    # A* can reach exactly the 26-connected free component of the start
    # inside the k band, so an enclosed goal fails here without a flood.
    labels, _ = ndimage.label(band, structure=np.ones((3, 3, 3)))
    if labels[s[0], s[1], s[2] - k_lo] != labels[g[0], g[1], g[2] - k_lo]:
        raise RouteError(f"goal {goal} unreachable from {start}")

    # Cells are flat indices into the band padded with one blocked cell on
    # every side: the shell stands in for the bounds and band tests, and
    # flat order is (i, j, k) order, so heap ties break as on cell tuples.
    pad = np.zeros((band.shape[0] + 2, band.shape[1] + 2, band.shape[2] + 2), dtype=np.uint8)
    pad[1:-1, 1:-1, 1:-1] = band
    is_free = pad.tobytes()
    stride_j = pad.shape[2]
    stride_i = pad.shape[1] * stride_j

    def flat(cell):
        return (cell[0] + 1) * stride_i + (cell[1] + 1) * stride_j + (cell[2] - k_lo + 1)

    h = vmap.voxel_size
    steps = [
        (di * stride_i + dj * stride_j + dk, cost * h)
        for (di, dj, dk), cost in zip(_NEIGHBORS, _NEIGHBOR_COSTS)
    ]
    if heuristic:
        heur = _goal_distances(vmap, g, band.shape, k_lo)
    else:
        heur = memoryview(np.zeros(pad.size))
    src, dst = flat(s), flat(g)

    push, pop = heapq.heappush, heapq.heappop
    g_score = {src: 0.0}
    best_g, inf = g_score.get, math.inf
    came = {}
    open_heap = [(heur[src], src)]
    closed = bytearray(pad.size)
    while open_heap:
        f, cell = pop(open_heap)
        if closed[cell]:
            continue
        if cell == dst:
            break
        closed[cell] = 1
        base = g_score[cell]
        for off, step in steps:
            nxt = cell + off
            if is_free[nxt]:
                cand = base + step
                if cand < best_g(nxt, inf) - 1e-12:
                    g_score[nxt] = cand
                    came[nxt] = cell
                    push(open_heap, (cand + heur[nxt], nxt))
    else:
        raise RouteError(f"goal {goal} unreachable from {start}")

    if s == g:
        waypoints = [start, goal]
    else:
        path = [dst]
        while path[-1] != src:
            path.append(came[path[-1]])
        path.reverse()
        # Keep the full center chain so the length depends only on the cell
        # path cost, not on which of several equally short paths was found.
        waypoints = [start]
        for cell in path:
            i, rest = divmod(cell, stride_i)
            j, k = divmod(rest, stride_j)
            waypoints.append(vmap.voxel_center((i - 1, j - 1, k - 1 + k_lo)))
        waypoints.append(goal)
    pts = np.asarray(waypoints)
    length = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    return waypoints, length


@dataclass(frozen=True)
class TaskPriority:
    task: InspectionTask
    plan: ViewPlan
    route_length: float
    reachable: bool


def prioritize_tasks(tasks, plans, robot, vmap, inflation, z_band=None):
    """Tasks ordered by traversable route length from the robot to each
    task's nearest valid viewpoint.  Unreachable tasks go last, flagged."""
    if not tasks:
        raise ValueError("no tasks to prioritize")
    robot_pos = robot.position if isinstance(robot, Pose6) else np.asarray(robot, dtype=np.float64)
    ranked = []
    for task, plan in zip(tasks, plans):
        positions, _ = plan.valid_positions()
        if positions.shape[0] == 0:
            ranked.append(TaskPriority(task, plan, np.inf, False))
            continue
        nearest = positions[np.argmin(np.linalg.norm(positions - robot_pos, axis=1))]
        try:
            _, length = plan_route(vmap, robot_pos, nearest, inflation, z_band=z_band)
            ranked.append(TaskPriority(task, plan, length, True))
        except RouteError as exc:
            log.info("task %s unreachable: %s", task.id, exc)
            ranked.append(TaskPriority(task, plan, np.inf, False))
    ranked.sort(key=lambda r: (not r.reachable, r.route_length, r.task.id))
    return ranked


def _tour_cost(start, positions, order):
    pts = positions[order]
    legs = np.linalg.norm(np.diff(np.vstack([start[None, :], pts]), axis=0), axis=1)
    return float(legs.sum())


def _nearest_neighbor_order(start, positions):
    n = positions.shape[0]
    remaining = list(range(n))
    order = []
    cur = start
    while remaining:
        d = positions[remaining] - cur
        # Row-wise sqrt(vecdot) is bitwise the 1-D np.linalg.norm.
        k = int(np.argmin(np.sqrt(np.vecdot(d, d))))
        order.append(remaining.pop(k))
        cur = positions[order[-1]]
    return np.array(order, dtype=int)


# Annealing schedule: proposals per city, and the per-proposal cooling
# factor applied to the start temperature (the mean pairwise distance).
_SA_ITERS_PER_CITY = 200
_SA_COOLING = 0.995
# Bound, relative to the tour cost, on how far the table delta of a
# proposal may sit from its exact `_tour_cost` delta.  Rounding keeps them
# within 1e-15 of the cost on wall grids of 50 to 880 viewpoints, so the
# screen never decides a proposal the exact rule would decide otherwise.
_SA_SCREEN_MARGIN = 1e-9


def _reversal_delta(dist, order, n, i, j):
    """Table delta of reversing order[i..j] (i < j); node n is the start."""
    prev = order[i - 1] if i else n
    a, b = order[i], order[j]
    delta = dist[prev][b] - dist[prev][a]
    if j + 1 < n:
        nxt = order[j + 1]
        delta += dist[a][nxt] - dist[b][nxt]
    return delta


def _move_delta(dist, order, n, i, j):
    """Table delta of moving order[i] to index j (i != j); node n is the start."""
    city = order[i]
    prev = order[i - 1] if i else n
    delta = -dist[prev][city]
    if i + 1 < n:
        nxt = order[i + 1]
        delta += dist[prev][nxt] - dist[city][nxt]
    # The neighbours of index j in the order without order[i].
    prev = order[j - 1 if j <= i else j] if j else n
    delta += dist[prev][city]
    if j < n - 1:
        nxt = order[j if j < i else j + 1]
        delta += dist[city][nxt] - dist[prev][nxt]
    return delta


def solve_tour_sa_tsp(plan, start, seed, history=None):
    """Open visitation tour through all valid viewpoints from the start
    position, annealed with 2-opt and single-point-move proposals from a
    nearest-neighbor initial order.  Deterministic for a fixed seed and
    never worse than the nearest-neighbor construction.  If `history` is a
    list, the best cost so far is appended once per iteration.

    Each proposal is first screened with its O(1) delta over a distance
    table.  Only a proposal the screen cannot reject is built and costed
    exactly, so tours, costs and the random stream are those of costing
    every proposal."""
    positions, idx = plan.valid_positions()
    n = positions.shape[0]
    if n == 0:
        raise TaskUnreachableError(f"task {plan.task_id}: no valid viewpoints to tour")
    start = np.asarray(start, dtype=np.float64)
    if n == 1:
        return Tour(order=(int(idx[0]),), length=float(np.linalg.norm(positions[0] - start)))

    rng = np.random.default_rng(seed)
    order = _nearest_neighbor_order(start, positions)
    cost = _tour_cost(start, positions, order)
    best_order, best_cost = order.copy(), cost

    diffs = positions[None, :, :] - positions[:, None, :]
    pair = np.linalg.norm(diffs, axis=-1)
    temp = max(float(pair[np.triu_indices(n, k=1)].mean()), 1e-9)
    table = np.zeros((n + 1, n + 1))
    table[:n, :n] = pair
    table[n, :n] = table[:n, n] = np.linalg.norm(positions - start, axis=1)
    dist = table.tolist()
    cur = order.tolist()

    for _ in range(_SA_ITERS_PER_CITY * n):
        reverse = rng.random() < 0.5
        if reverse:
            i, j = sorted(rng.integers(0, n, size=2).tolist())
        else:
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
        # i == j leaves the order as it is: delta 0, accepted, no draw.
        if i != j:
            approx = (_reversal_delta if reverse else _move_delta)(dist, cur, n, i, j)
            margin = _SA_SCREEN_MARGIN * cost
            # Above the margin the exact delta is positive too, so the exact
            # rule draws here, and a draw at or above the bound rejects for
            # every delta within the margin of the table delta.
            draw = rng.random() if approx > margin else None
            if draw is None or draw < math.exp(-(approx - margin) / temp):
                cand = order.copy()
                if reverse:
                    cand[i : j + 1] = cand[i : j + 1][::-1]
                else:
                    city = cand[i]
                    cand = np.delete(cand, i)
                    cand = np.insert(cand, j, city)
                c = _tour_cost(start, positions, cand)
                delta = c - cost
                if delta <= 0.0 or (rng.random() if draw is None else draw) < np.exp(-delta / temp):
                    order, cost = cand, c
                    cur = order.tolist()
                    if cost < best_cost:
                        best_order, best_cost = order.copy(), cost
        temp *= _SA_COOLING
        if history is not None:
            history.append(best_cost)

    return Tour(order=tuple(int(idx[i]) for i in best_order), length=best_cost)
