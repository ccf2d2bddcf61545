"""Global planning over the historical map: viewpoint grids, collision
filtering, task prioritization by traversable route length, and the
annealed visitation tour."""

import heapq
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    PLANE_TOL,
    PolygonROI,
    ViewPose4,
    inside_in_plane,
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
    """Viewing distance and overlap fractions; with the camera's FOV they
    drive both the global grid spacing and the local replanning offsets."""

    d_view: float = 2.0
    gamma_h: float = 0.6
    gamma_v: float = 0.6

    def __post_init__(self):
        if not (math.isfinite(self.d_view) and self.d_view > 0):
            raise ValueError(f"d_view must be positive and finite, got {self.d_view}")
        if not (0.0 <= self.gamma_h < 1.0 and 0.0 <= self.gamma_v < 1.0):
            raise ValueError("overlap fractions must lie in [0, 1)")

    def spacing(self, camera, distance):
        """Horizontal and vertical footprint spacing at the range `distance`:
        the footprint of the `CameraIntrinsics` `camera` there, less the
        overlaps.  At `d_view` it spaces the grid lines; at the sensed range
        it sizes the local planner's sweep steps."""
        footprint_w = 2.0 * distance * np.tan(camera.alpha / 2.0)
        footprint_h = 2.0 * distance * np.tan(camera.beta / 2.0)
        return footprint_w * (1.0 - self.gamma_h), footprint_h * (1.0 - self.gamma_v)


@dataclass(frozen=True)
class InspectionTask:
    id: str
    roi: PolygonROI


@dataclass(frozen=True)
class ViewPlan:
    """Viewpoints generated for one task plus their validity flags."""

    task_id: str
    viewpoints: tuple
    valid: np.ndarray

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


def generate_grid_viewpoints(task, view, camera, toward, z_band):
    """Grid viewpoints for a polygon ROI (overlap-driven spacing).

    The ROI plane is gridded from the in-plane bounding-box minimum corner
    with the spacings `view.spacing(camera, view.d_view)`; intersections
    inside the polygon are offset by d_view along the polygon normal and
    oriented to look back at the surface.  `toward` picks the projection
    side (the half-space containing it, usually the robot); `z_band` clamps
    viewpoint heights to [z_min, z_max], merging rows that collapse onto the
    same height (None: no clamp).  An ROI too small to hold a grid point gets
    one viewpoint off its centroid, clamped the same way.
    """
    roi = task.roi
    n = polygon_normal(roi)
    u, v = polygon_basis(roi)
    centroid = roi.centroid

    toward = np.asarray(toward, dtype=np.float64)
    proj = -n if float((toward - centroid) @ n) < 0.0 else n
    yaw = float(np.arctan2(-proj[1], -proj[0]))

    su = (roi.vertices - centroid) @ u
    sv = (roi.vertices - centroid) @ v
    s0, s1 = float(su.min()), float(su.max())
    t0, t1 = float(sv.min()), float(sv.max())

    eps = 1e-9
    spacing_h, spacing_v = view.spacing(camera, view.d_view)
    n_cols = int(np.floor((s1 - s0) / spacing_h + eps)) + 1
    n_rows = int(np.floor((t1 - t0) / spacing_v + eps)) + 1

    # Every grid point at once, rows (v) outer and columns (u) inner, with
    # the arithmetic of one point at a time: `vecdot` rows are bitwise the
    # 1-D dot products.
    s_off = s0 + np.arange(n_cols) * spacing_h
    t_off = t0 + np.arange(n_rows) * spacing_v
    grid = centroid + s_off[None, :, None] * u + t_off[:, None, None] * v
    rel = grid - centroid
    if np.any(np.abs(np.vecdot(rel, n)) > PLANE_TOL):
        raise ValueError("point lies off the polygon plane beyond tolerance")
    px, py = np.vecdot(rel, u).tolist(), np.vecdot(rel, v).tolist()
    views = grid + proj * view.d_view
    heights = views[:, :, 2].tolist()
    keys = np.round(views[:, :, 2], 9).tolist()

    # No band clamps nothing: min(max(z, -inf), inf) is z.
    lo, hi = (-math.inf, math.inf) if z_band is None else z_band
    seen = {}  # (row key, column): (row, column, view height) of the first point
    clamped = False
    for j in range(n_rows):
        for i in range(n_cols):
            if not inside_in_plane(roi, px[j][i], py[j][i]):
                continue
            z, key = heights[j][i], keys[j][i]
            zc = min(max(z, lo), hi)
            if zc != z:
                z, key, clamped = zc, round(zc, 9), True
            seen.setdefault((key, i), (j, i, z))

    if not seen:
        p = centroid + proj * view.d_view
        log.warning("task %s: ROI too small for grid, falling back to centroid view", task.id)
        z = min(max(p[2], lo), hi)
        if z != p[2]:
            log.warning("task %s: viewpoint heights clamped to band %s", task.id, z_band)
        return ViewPlan(
            task_id=task.id,
            viewpoints=(ViewPose4(p[0], p[1], z, yaw),),
            valid=np.array([True]),
        )

    # One row per distinct (possibly clamped) height, columns in order.
    cells = [seen[key] for key in sorted(seen)]
    viewpoints = tuple(ViewPose4(views[j, i, 0], views[j, i, 1], z, yaw) for j, i, z in cells)
    if clamped:
        log.warning("task %s: viewpoint heights clamped to band %s", task.id, z_band)
    return ViewPlan(
        task_id=task.id,
        viewpoints=viewpoints,
        valid=np.ones(len(viewpoints), dtype=np.bool_),
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
    """The free mask of the route's z layers (`VoxelMap.free_mask` of the
    band), the start and goal cells and the layers `(k_lo, k_hi)`;
    RouteError if either endpoint lies outside the map or in collision."""
    shape = vmap.occ.shape
    h = vmap.voxel_size

    def cell_of(p, name):
        # Checked in float before the cast, which a far point overflows.
        with np.errstate(over="ignore"):
            g = np.floor(vmap.world_to_grid(p))
        if not (np.all(g >= 0) and np.all(g < np.array(shape))):
            raise RouteError(f"{name} {p} lies outside the map bounds")
        return tuple(g.astype(int))

    s = cell_of(start, "start")
    g = cell_of(goal, "goal")
    if z_band is None:
        k_lo, k_hi = s[2], s[2]
    else:
        # Clipped to [-1, nz] in plain floats, which a far band edge cannot overflow.
        k_lo, k_hi = (math.floor(min(max((z - vmap.origin.item(2)) / h, -1.0), shape[2])) for z in z_band)
    k_lo = max(min(k_lo, s[2], g[2]), 0)
    k_hi = min(max(k_hi, s[2], g[2]), shape[2] - 1)
    band = vmap.free_mask(inflation, k_lo, k_hi)
    if not band[s[0], s[1], s[2] - k_lo]:
        raise RouteError(f"start {start} is in collision (inflation {inflation})")
    if not band[g[0], g[1], g[2] - k_lo]:
        raise RouteError(f"goal {goal} is in collision (inflation {inflation})")
    return band, s, g, (k_lo, k_hi)


# From a line of cells along j at (i, k) to the lines at (i + di, k + dk)
# whose runs can touch its runs: the half of the 8 neighbouring lines that
# comes after it in (i, k) order, so each touching pair is seen once.
_LINE_STEPS = ((0, 1), (1, -1), (1, 0), (1, 1))


def _label_components(free):
    """Labels of the 26-connected components of the 3-D boolean mask
    `free`: 0 on blocked cells, and one positive integer per component on
    its cells.  The numbers are arbitrary; only equality means anything.

    The cells are taken as maximal runs of free cells along j.  Two runs
    on (i, k) lines at most one cell apart in i and in k touch when their
    j intervals, widened by one cell, overlap.  Touching runs are merged
    by a union-find over all runs at once, then each run's root is
    painted back onto its cells."""
    ni, nj, nk = free.shape
    lines = np.ascontiguousarray(free.transpose(0, 2, 1)).reshape(ni * nk, nj)
    # Each run is a +1 then a -1 in its padded line's differences; a
    # flat index into them is the key line * width + j, ordered by line
    # then j.
    width = nj + 1
    flips = np.diff(np.pad(lines, ((0, 0), (1, 1))).view(np.int8), axis=1)
    start_key, end_key = np.flatnonzero(flips).reshape(-1, 2).T
    line, start = np.divmod(start_key, width)
    end = end_key - line * width
    k = line % nk
    runs = np.arange(line.size)
    pairs_a, pairs_b = [], []
    for di, dk in _LINE_STEPS:
        if dk and nk == 1:  # one layer: no line lies across k
            continue
        # The runs of the other line that touch run r are the indices
        # lo[r] .. hi[r] - 1: those ending at or after r's start and
        # starting at or before r's end.  Runs on a line are disjoint, so
        # none is both before lo and at or after hi: lo <= hi.  A line
        # past the last one holds no runs, so only k needs a test.
        other = (line + di * nk + dk) * width
        lo = np.searchsorted(end_key, other + start)
        hi = np.searchsorted(start_key, other + end, side="right")
        count = np.where((k + dk >= 0) & (k + dk < nk), hi - lo, 0)
        a = np.repeat(runs, count)
        pairs_a.append(a)
        pairs_b.append(lo[a] + np.arange(a.size) - (np.cumsum(count) - count)[a])
    a, b = np.concatenate(pairs_a), np.concatenate(pairs_b)
    # Hook the larger root of every pair that joins two trees onto the
    # smaller (any of them, where a root has several), then point every
    # run at its root, until no pair joins two trees.  Parents only ever
    # point down, so no cycle forms.
    parent = np.arange(line.size)
    while a.size:
        root_a, root_b = parent[a], parent[b]
        cross = root_a != root_b
        a, b, root_a, root_b = a[cross], b[cross], root_a[cross], root_b[cross]
        parent[np.maximum(root_a, root_b)] = np.minimum(root_a, root_b)
        up = parent[parent]
        while not np.array_equal(up, parent):
            parent, up = up, up[up]
    labels = np.zeros(lines.shape, dtype=np.intp)
    labels[lines] = np.repeat(parent + 1, end - start)
    return labels.reshape(ni, nk, nj).transpose(0, 2, 1)


class _RouteBand:
    """What every search in one z band shares: the 26-connected free
    components of the band, and its blocked cells as bytes over the band
    padded with one blocked cell on every side.  Built per `plan_route` or
    `prioritize_tasks` call and dropped with it.

    Cells are flat indices into the padded band: the shell stands in for
    the bounds and band tests, and flat order is (i, j, k) order, so heap
    ties break as on cell tuples."""

    def __init__(self, free, k_lo, k_hi, voxel_size):
        # A* can reach exactly the 26-connected free component of the start
        # inside the band, so an enclosed goal fails here without a flood.
        self.labels = _label_components(free)
        pad = np.ones((free.shape[0] + 2, free.shape[1] + 2, free.shape[2] + 2), dtype=np.uint8)
        pad[1:-1, 1:-1, 1:-1] = ~free
        self.blocked = pad.tobytes()
        self.k_lo = k_lo
        self.stride_j = pad.shape[2]
        self.stride_i = pad.shape[1] * self.stride_j
        # In a one-layer band the steps that change layer only ever read
        # the shell, so they are dropped.
        self.steps = [
            (di * self.stride_i + dj * self.stride_j + dk, cost * voxel_size)
            for (di, dj, dk), cost in zip(_NEIGHBORS, _NEIGHBOR_COSTS)
            if k_lo < k_hi or dk == 0
        ]

    def flat(self, cell):
        return (cell[0] + 1) * self.stride_i + (cell[1] + 1) * self.stride_j + (cell[2] - self.k_lo + 1)


# The side, in cells, of the (i, j) tiles the heuristic table is filled in.
_HEURISTIC_TILE = 16


def _goal_distances(vmap, goal_cell, band):
    """Distance from each voxel center of the band to the goal's center,
    as a flat memoryview over the padded band, and the function that fills
    it: the table starts NaN, and `fill(cell)` fills the (i, j) tile of
    `_HEURISTIC_TILE` cells a side (every layer) that holds the flat cell,
    then returns that cell's value.  A search reads only the tiles its
    pushes reach; the shell is never read.

    Each row is `sqrt(vecdot(d, d))`, bitwise the 1-D `np.linalg.norm(d)`
    of a per-cell heuristic (`norm(axis=1)` is not), with `d` componentwise
    `voxel_center(cell) - voxel_center(goal_cell)`; a row's bits do not
    depend on which tile computes it."""
    ni, nj, nk = band.labels.shape
    goal_center = vmap.voxel_center(goal_cell)

    def axis_offsets(axis, lo, n):
        cells = np.arange(lo, lo + n, dtype=np.float64)
        return vmap.origin[axis] + (cells + 0.5) * vmap.voxel_size - goal_center[axis]

    dx, dy = axis_offsets(0, 0, ni), axis_offsets(1, 0, nj)
    tile = _HEURISTIC_TILE
    d = np.empty((tile, tile, nk, 3))
    d[..., 2] = axis_offsets(2, band.k_lo, nk)
    table = np.full((ni + 2, nj + 2, nk + 2), np.nan)
    flat = memoryview(table.reshape(-1))

    def fill(cell):
        i, rest = divmod(cell, band.stride_i)
        i0 = (i - 1) // tile * tile
        j0 = (rest // band.stride_j - 1) // tile * tile
        i1, j1 = min(i0 + tile, ni), min(j0 + tile, nj)
        block = d[: i1 - i0, : j1 - j0]
        block[..., 0] = dx[i0:i1, None, None]
        block[..., 1] = dy[None, j0:j1, None]
        table[i0 + 1 : i1 + 1, j0 + 1 : j1 + 1, 1:-1] = np.sqrt(np.vecdot(block, block))
        return flat[cell]

    return flat, fill


def plan_route(vmap, start, goal, inflation, z_band):
    """Shortest 26-connected route over free voxels (A*, Euclidean costs,
    lexicographic tie-breaking).  Traversal is restricted to the z layers of
    `z_band` (None: the start's layer).  Returns (waypoints, length)."""
    return _route(vmap, start, goal, inflation, z_band, {})


def _route(vmap, start, goal, inflation, z_band, bands):
    """`plan_route`, taking the band set-up from `bands` (keyed by the
    band's `(k_lo, k_hi)`) and adding it there when it is missing."""
    start = np.asarray(start, dtype=np.float64)
    goal = np.asarray(goal, dtype=np.float64)
    if np.linalg.norm(goal - start) < 1e-12:
        return [start.copy()], 0.0

    free, s, g, layers = _route_cells(vmap, start, goal, inflation, z_band)
    band = bands.get(layers)
    if band is None:
        band = bands[layers] = _RouteBand(free, *layers, vmap.voxel_size)
    k_lo = band.k_lo
    if band.labels[s[0], s[1], s[2] - k_lo] != band.labels[g[0], g[1], g[2] - k_lo]:
        raise RouteError(f"goal {goal} unreachable from {start}")

    # A closed cell is marked blocked too.  The heuristic is consistent
    # with the step costs (both Euclidean), so a closed cell's g is final
    # and no neighbour test could improve it.
    blocked = bytearray(band.blocked)
    steps = band.steps
    heur, fill = _goal_distances(vmap, g, band)
    src, dst = band.flat(s), band.flat(g)

    push, pop = heapq.heappush, heapq.heappop
    g_score = {src: 0.0}
    best_g, inf = g_score.get, math.inf
    came = {}
    open_heap = [(fill(src), src)]
    while open_heap:
        f, cell = pop(open_heap)
        # Only free cells are pushed, so a blocked one popped is closed.
        if blocked[cell]:
            continue
        if cell == dst:
            break
        blocked[cell] = 1
        base = g_score[cell]
        for off, step in steps:
            nxt = cell + off
            if not blocked[nxt]:
                cand = base + step
                if cand < best_g(nxt, inf) - 1e-12:
                    g_score[nxt] = cand
                    came[nxt] = cell
                    h = heur[nxt]
                    if h != h:  # NaN: its tile is not filled yet
                        h = fill(nxt)
                    push(open_heap, (cand + h, nxt))
    else:
        raise RouteError(f"goal {goal} unreachable from {start}")

    if s == g:
        pts = np.stack([start, goal])
    else:
        path = [dst]
        while path[-1] != src:
            path.append(came[path[-1]])
        path.reverse()
        # Keep the full center chain so the length depends only on the cell
        # path cost, not on which of several equally short paths was found.
        # The centers are `voxel_center`'s arithmetic, one row per cell.
        i, rest = np.divmod(np.array(path), band.stride_i)
        j, k = np.divmod(rest, band.stride_j)
        cells = np.column_stack([i - 1, j - 1, k - 1 + k_lo]).astype(np.float64)
        pts = np.vstack([start, vmap.origin + (cells + 0.5) * vmap.voxel_size, goal])
    length = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    return list(pts), length


@dataclass(frozen=True)
class TaskPriority:
    task: InspectionTask
    plan: ViewPlan
    route_length: float
    reachable: bool


def prioritize_tasks(tasks, plans, robot, vmap, inflation, z_band):
    """Tasks ordered by traversable route length from the robot's `ViewPose4`
    to each task's nearest valid viewpoint.  Unreachable tasks go last,
    flagged.  Each route is `plan_route`'s; the routes in one z band share
    one band set-up."""
    if not tasks:
        raise ValueError("no tasks to prioritize")
    robot_pos = robot.position
    bands = {}
    ranked = []
    for task, plan in zip(tasks, plans):
        positions, _ = plan.valid_positions()
        if positions.shape[0] == 0:
            ranked.append(TaskPriority(task, plan, np.inf, False))
            continue
        nearest = positions[np.argmin(np.linalg.norm(positions - robot_pos, axis=1))]
        try:
            _, length = _route(vmap, robot_pos, nearest, inflation, z_band, bands)
            ranked.append(TaskPriority(task, plan, length, True))
        except RouteError as exc:
            log.info("task %s unreachable: %s", task.id, exc)
            ranked.append(TaskPriority(task, plan, np.inf, False))
    ranked.sort(key=lambda r: (not r.reachable, r.route_length, r.task.id))
    return ranked


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
# proposal may sit from its exact delta (the change of the summed tour
# legs).  Rounding keeps them within 1e-15 of the cost on wall grids of 50
# to 880 viewpoints, so the screen never decides a proposal the exact rule
# would decide otherwise.
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


def _raw_words(bit_generator):
    """The bit generator's raw 64-bit words, 1024 at a time."""
    while True:
        yield from bit_generator.random_raw(1024).tolist()


def _halves(words):
    """32-bit draws as PCG64's `next_uint32` makes them: the low half of a
    fresh word, then that word's high half on the next call."""
    for word in words:
        yield word & 0xFFFFFFFF
        yield word >> 32


class _PCG64Draws:
    """`Generator.random()` and `int(Generator.integers(0, n))` of
    `np.random.default_rng(seed)`, computed from the raw words without
    numpy's per-call cost: the same numbers in the same order.

    `random()` is numpy's `next_double`; it takes a fresh word and leaves a
    kept high half where it is.  `below(n)` is numpy's 32-bit Lemire
    bounded draw, which numpy uses for every `n` in `[1, 2**32)`
    (`check_bound`); `n == 1` draws nothing."""

    def __init__(self, seed):
        words = _raw_words(np.random.default_rng(seed).bit_generator)
        self._word = words.__next__
        # The halves generator pulls its next word only when it is asked
        # for a low half, so words taken by `random()` in between are skipped.
        self._u32 = _halves(words).__next__

    @staticmethod
    def check_bound(n):
        if not 1 <= n < 2**32:
            raise ValueError(f"below(n) reproduces numpy only for 1 <= n < 2**32, got {n}")

    def random(self):
        return (self._word() >> 11) * 2**-53

    def below(self, n):
        if n == 1:
            return 0
        m = self._u32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (2**32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._u32() * n
        return m >> 32


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

    draws = _PCG64Draws(seed)
    draws.check_bound(n)
    random, below = draws.random, draws.below

    diffs = positions[None, :, :] - positions[:, None, :]
    pair = np.linalg.norm(diffs, axis=-1)
    temp = max(float(pair[np.triu_indices(n, k=1)].mean()), 1e-9)
    table = np.zeros((n + 1, n + 1))
    table[:n, :n] = pair
    table[n, :n] = table[:n, n] = np.linalg.norm(positions - start, axis=1)
    dist = table.tolist()

    def tour_cost(order):
        # The legs of the open tour from the start (node n), summed in order
        # by `np.sum`: bitwise the sum of the `np.linalg.norm` legs.
        return float(np.sum(table[[n] + order[:-1], order]))

    cur = _nearest_neighbor_order(start, positions).tolist()
    cost = tour_cost(cur)
    best_order, best_cost = cur, cost

    for _ in range(_SA_ITERS_PER_CITY * n):
        reverse = random() < 0.5
        # Two scalar draws are the stream of `integers(0, n, size=2)`.
        i = below(n)
        j = below(n)
        if reverse and i > j:
            i, j = j, i
        # i == j leaves the order as it is: delta 0, accepted, no draw.
        if i != j:
            approx = (_reversal_delta if reverse else _move_delta)(dist, cur, n, i, j)
            margin = _SA_SCREEN_MARGIN * cost
            # Above the margin the exact delta is positive too, so the exact
            # rule draws here, and a draw at or above the bound rejects for
            # every delta within the margin of the table delta.
            draw = random() if approx > margin else None
            if draw is None or draw < math.exp(-(approx - margin) / temp):
                if reverse:
                    cand = cur[:i] + cur[i : j + 1][::-1] + cur[j + 1 :]
                else:
                    rest = cur[:i] + cur[i + 1 :]
                    cand = rest[:j] + [cur[i]] + rest[j:]
                c = tour_cost(cand)
                delta = c - cost
                if delta <= 0.0 or (random() if draw is None else draw) < np.exp(-delta / temp):
                    cur, cost = cand, c
                    if cost < best_cost:
                        best_order, best_cost = cur, cost
        temp *= _SA_COOLING
        if history is not None:
            history.append(best_cost)

    return Tour(order=tuple(int(idx[i]) for i in best_order), length=best_cost)
