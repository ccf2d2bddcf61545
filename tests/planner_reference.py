"""Reference planners for the oracle tests: the tuple-keyed A* loop over
the whole-grid clearance mask with its cell lookup, the per-city
nearest-neighbour order, the unscreened annealer costing each tour with
`np.linalg.norm` legs, the numpy-scalar polygon test and the per-point
viewpoint grid, copied verbatim from `surfscan.global_plan` and
`surfscan.geometry` as they were before the band-only mask, the
table-driven A*, the screened annealer, the plain-float polygon loop and
the one-pass grid replaced them.  The helpers those loops share with the
fast versions (neighbour tables, annealing schedule, ROI frame) are
imported, so both sides follow one rule.  The fast versions must return
the same waypoints, lengths, tours, histories, viewpoints and error
messages bit for bit."""

import heapq
import logging

import numpy as np
from scipy import ndimage

from surfscan.geometry import BOUNDARY_EPS, PLANE_TOL, ViewPose4, _as_vec3, polygon_basis, polygon_normal
from surfscan.global_plan import (
    _NEIGHBOR_COSTS,
    _NEIGHBORS,
    _SA_COOLING,
    _SA_ITERS_PER_CITY,
    RouteError,
    TaskUnreachableError,
    Tour,
    ViewPlan,
)

log = logging.getLogger("surfscan.global_plan")


def _tour_cost(start, positions, order):
    pts = positions[order]
    legs = np.linalg.norm(np.diff(np.vstack([start[None, :], pts]), axis=0), axis=1)
    return float(legs.sum())


def _route_cells(vmap, start, goal, inflation, z_band):
    shape = vmap.occ.shape
    free = vmap.free_mask(inflation, 0, shape[2] - 1)
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


def plan_route(vmap, start, goal, inflation, z_band=None, heuristic=True):
    """Shortest 26-connected route over free voxels (A*, Euclidean costs,
    lexicographic tie-breaking).  Traversal is restricted to the z layers of
    `z_band` (default: the start's layer).  Returns (waypoints, length)."""
    start = np.asarray(start, dtype=np.float64)
    goal = np.asarray(goal, dtype=np.float64)
    if np.linalg.norm(goal - start) < 1e-12:
        return [start.copy()], 0.0

    free, s, g, (k_lo, k_hi) = _route_cells(vmap, start, goal, inflation, z_band)
    # A* can reach exactly the 26-connected free component of the start
    # inside the k band, so an enclosed goal fails here without a flood.
    labels, _ = ndimage.label(free[:, :, k_lo : k_hi + 1], structure=np.ones((3, 3, 3)))
    if labels[s[0], s[1], s[2] - k_lo] != labels[g[0], g[1], g[2] - k_lo]:
        raise RouteError(f"goal {goal} unreachable from {start}")
    h = vmap.voxel_size
    shape = vmap.occ.shape

    goal_center = vmap.voxel_center(g)

    def heur(cell):
        if not heuristic:
            return 0.0
        return float(np.linalg.norm(vmap.voxel_center(cell) - goal_center))

    g_score = {s: 0.0}
    came = {}
    open_heap = [(heur(s), s)]
    closed = set()
    while open_heap:
        f, cell = heapq.heappop(open_heap)
        if cell in closed:
            continue
        if cell == g:
            break
        closed.add(cell)
        ci, cj, ck = cell
        base = g_score[cell]
        for (di, dj, dk), step in zip(_NEIGHBORS, _NEIGHBOR_COSTS):
            ni, nj, nk = ci + di, cj + dj, ck + dk
            if nk < k_lo or nk > k_hi:
                continue
            if ni < 0 or nj < 0 or ni >= shape[0] or nj >= shape[1]:
                continue
            nxt = (ni, nj, nk)
            if not free[nxt]:
                continue
            cand = base + step * h
            if cand < g_score.get(nxt, np.inf) - 1e-12:
                g_score[nxt] = cand
                came[nxt] = cell
                heapq.heappush(open_heap, (cand + heur(nxt), nxt))
    else:
        raise RouteError(f"goal {goal} unreachable from {start}")

    cells = [g]
    while cells[-1] != s:
        cells.append(came[cells[-1]])
    cells.reverse()
    if s == g:
        waypoints = [start, goal]
    else:
        # Keep the full center chain so the length depends only on the cell
        # path cost, not on which of several equally short paths was found.
        waypoints = [start] + [vmap.voxel_center(c) for c in cells] + [goal]
    pts = np.asarray(waypoints)
    length = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    return waypoints, length


def _nearest_neighbor_order(start, positions):
    n = positions.shape[0]
    remaining = list(range(n))
    order = []
    cur = start
    while remaining:
        dists = [float(np.linalg.norm(positions[i] - cur)) for i in remaining]
        k = int(np.argmin(dists))
        order.append(remaining.pop(k))
        cur = positions[order[-1]]
    return np.array(order, dtype=int)


def solve_tour_sa_tsp(plan, start, seed, history=None):
    """Open visitation tour through all valid viewpoints from the start
    position, annealed with 2-opt and single-point-move proposals from a
    nearest-neighbor initial order.  Deterministic for a fixed seed and
    never worse than the nearest-neighbor construction.  If `history` is a
    list, the best cost so far is appended once per iteration."""
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

    for _ in range(_SA_ITERS_PER_CITY * n):
        cand = order.copy()
        if rng.random() < 0.5:
            i, j = sorted(rng.integers(0, n, size=2))
            if i != j:
                cand[i : j + 1] = cand[i : j + 1][::-1]
        else:
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            city = cand[i]
            cand = np.delete(cand, i)
            cand = np.insert(cand, j, city)
        c = _tour_cost(start, positions, cand)
        delta = c - cost
        if delta <= 0.0 or rng.random() < np.exp(-delta / temp):
            order, cost = cand, c
            if cost < best_cost:
                best_order, best_cost = order.copy(), cost
        temp *= _SA_COOLING
        if history is not None:
            history.append(best_cost)

    return Tour(order=tuple(int(idx[i]) for i in best_order), length=best_cost)


def point_in_polygon(roi, p):
    """True iff the in-plane projection of p lies inside the polygon.
    Boundary points count as inside.  p must lie on the ROI plane."""
    p = _as_vec3(p, "point")
    n = roi.normal
    c = roi.centroid
    if abs(float((p - c) @ n)) > PLANE_TOL:
        raise ValueError("point lies off the polygon plane beyond tolerance")
    u, v = roi._basis
    px, py = float((p - c) @ u), float((p - c) @ v)
    # The in-plane vertices as the ROI stored them, an (m, 2) array.
    poly = np.column_stack([(roi.vertices - c) @ u, (roi.vertices - c) @ v])
    m = len(poly)
    inside = False
    for i in range(m):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % m]
        ex, ey = x2 - x1, y2 - y1
        ll = ex * ex + ey * ey
        if ll > 0.0:
            t = ((px - x1) * ex + (py - y1) * ey) / ll
            t = min(1.0, max(0.0, t))
            qx, qy = x1 + t * ex, y1 + t * ey
            if (px - qx) ** 2 + (py - qy) ** 2 <= BOUNDARY_EPS**2:
                return True
        if (y1 > py) != (y2 > py):
            xint = x1 + (py - y1) * ex / ey
            if xint > px:
                inside = not inside
    return inside


def generate_grid_viewpoints(task, view, camera, toward, z_band):
    """Grid viewpoints for a polygon ROI (overlap-driven spacing), one grid
    point at a time.  The centroid fallback is clamped to `z_band` as the
    grid viewpoints are."""
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

    entries = []  # (row_key, col, view position)
    clamped = False
    for j in range(n_rows):
        for i in range(n_cols):
            g = centroid + (s0 + i * spacing_h) * u + (t0 + j * spacing_v) * v
            if not point_in_polygon(roi, g):
                continue
            p = g + proj * view.d_view
            z = p[2]
            if z_band is not None:
                lo, hi = z_band
                zc = min(max(z, lo), hi)
                if zc != z:
                    clamped = True
                z = zc
            entries.append((round(z, 9), i, (p[0], p[1], z)))

    if not entries:
        p = centroid + proj * view.d_view
        log.warning("task %s: ROI too small for grid, falling back to centroid view", task.id)
        z = p[2]
        if z_band is not None:
            z = min(max(z, z_band[0]), z_band[1])
            if z != p[2]:
                log.warning("task %s: viewpoint heights clamped to band %s", task.id, z_band)
        return ViewPlan(
            task_id=task.id,
            viewpoints=(ViewPose4(p[0], p[1], z, yaw),),
            valid=np.array([True]),
        )

    # One row per distinct (possibly clamped) height, columns in order.
    seen = {}
    for key, i, p in entries:
        seen.setdefault((key, i), p)
    viewpoints = [ViewPose4(p[0], p[1], p[2], yaw) for p in (seen[key] for key in sorted(seen))]
    if clamped:
        log.warning("task %s: viewpoint heights clamped to band %s", task.id, z_band)
    return ViewPlan(
        task_id=task.id,
        viewpoints=tuple(viewpoints),
        valid=np.ones(len(viewpoints), dtype=np.bool_),
    )
