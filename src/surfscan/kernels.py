"""Numeric inner loops: voxel raycasting, clearance scans, path DP.

The kernels are written as plain loops over numpy arrays, which numba
JIT-compiles when :mod:`surfscan._accel` enables it.  The two sensing
kernels, `raycast_batch` and `normals_from_depth`, also have vectorized
numpy forms that run when numba is absent; the scalar loops
(`raycast_batch_scalar`, `normals_from_depth_scalar`) stay as the jitted
source and as the bitwise reference for the vectorized forms.
`incidence_cosines`, the per-step utility's kernel, evaluates the numpy
normal stencil without building the normal map, with or without numba.

Without numba a depth frame has two paths.  `raycast_level_frame` casts
the frame of a level camera (no roll or pitch) whose origin lies inside
the grid: the rays of one image column share their x and y DDA crossings
and those of one row their z crossings, so the crossings are built per
column and row, each column skips straight to the first xy cell whose
vertical column it can hit, and the pixels are resolved on that cell.
Every other frame goes through `raycast_batch`.  Both end in one shared
march loop, `_march`, and both are bitwise equal to
`raycast_batch_scalar` on the same rays.

All coordinates handed to these kernels are in *grid units* (world meters
divided by voxel size, relative to the grid origin) unless noted otherwise.
"""

import math

import numpy as np

from ._accel import NUMBA_ENABLED, njit

__all__ = [
    "raycast_batch",
    "raycast_level_frame",
    "point_is_free",
    "frechet_dp",
    "nearest_point_scan",
    "normals_from_depth",
    "incidence_cosines",
]


@njit(cache=True)
def _ray_first_hit(occ, ox, oy, oz, dx, dy, dz, t_cap):
    """March one ray through the occupancy grid (Amanatides-Woo DDA).

    Origin and direction are in grid units; the returned value is the ray
    parameter t at which the ray enters the first occupied voxel, or -1.0
    for a miss.  t is capped at t_cap.  Hit points therefore lie exactly on
    voxel boundaries (or at t=0 when the origin is inside an occupied voxel).
    """
    nx, ny, nz = occ.shape

    # Clip the ray against the grid AABB [0,nx]x[0,ny]x[0,nz].
    t_enter = 0.0
    t_exit = t_cap
    for axis in range(3):
        if axis == 0:
            o, d, n = ox, dx, nx
        elif axis == 1:
            o, d, n = oy, dy, ny
        else:
            o, d, n = oz, dz, nz
        if d == 0.0:
            if o < 0.0 or o > n:
                return -1.0
        else:
            t0 = (0.0 - o) / d
            t1 = (n - o) / d
            if t0 > t1:
                t0, t1 = t1, t0
            if t0 > t_enter:
                t_enter = t0
            if t1 < t_exit:
                t_exit = t1
    if t_enter > t_exit:
        return -1.0

    t = t_enter
    px = ox + dx * t
    py = oy + dy * t
    pz = oz + dz * t
    ix = int(math.floor(px))
    iy = int(math.floor(py))
    iz = int(math.floor(pz))
    if ix < 0:
        ix = 0
    if ix > nx - 1:
        ix = nx - 1
    if iy < 0:
        iy = 0
    if iy > ny - 1:
        iy = ny - 1
    if iz < 0:
        iz = 0
    if iz > nz - 1:
        iz = nz - 1

    step_x = 1 if dx > 0.0 else -1
    step_y = 1 if dy > 0.0 else -1
    step_z = 1 if dz > 0.0 else -1

    inf = np.inf
    if dx > 0.0:
        tmax_x = t + ((ix + 1) - px) / dx
        tdel_x = 1.0 / dx
    elif dx < 0.0:
        tmax_x = t + (px - ix) / -dx
        tdel_x = 1.0 / -dx
    else:
        tmax_x = inf
        tdel_x = inf
    if dy > 0.0:
        tmax_y = t + ((iy + 1) - py) / dy
        tdel_y = 1.0 / dy
    elif dy < 0.0:
        tmax_y = t + (py - iy) / -dy
        tdel_y = 1.0 / -dy
    else:
        tmax_y = inf
        tdel_y = inf
    if dz > 0.0:
        tmax_z = t + ((iz + 1) - pz) / dz
        tdel_z = 1.0 / dz
    elif dz < 0.0:
        tmax_z = t + (pz - iz) / -dz
        tdel_z = 1.0 / -dz
    else:
        tmax_z = inf
        tdel_z = inf

    while t <= t_exit:
        if occ[ix, iy, iz]:
            return t
        # Advance into the next voxel; ties broken x, then y, then z.
        if tmax_x <= tmax_y and tmax_x <= tmax_z:
            t = tmax_x
            ix += step_x
            tmax_x += tdel_x
            if ix < 0 or ix >= nx:
                return -1.0
        elif tmax_y <= tmax_z:
            t = tmax_y
            iy += step_y
            tmax_y += tdel_y
            if iy < 0 or iy >= ny:
                return -1.0
        else:
            t = tmax_z
            iz += step_z
            tmax_z += tdel_z
            if iz < 0 or iz >= nz:
                return -1.0
    return -1.0


@njit(cache=True)
def _nearest_bound(t):
    """Largest hit parameter a nearest-mode cast keeps, given the nearest
    hit `t`: a relative and an absolute margin of 1e-9 above it.  Rounding
    keeps it monotone in `t`, so the bound of the smallest of several hits
    is the smallest of their bounds."""
    return t * (1.0 + 1e-9) + 1e-9


@njit(cache=True)
def _box_exit(box, ox, oy, oz, dx, dy, dz):
    """Ray parameter at which a ray leaves `box` (a (2, 3) array of the
    first and one-past-last occupied voxel per axis) padded by one voxel;
    inf for a ray that moves along no axis."""
    t_exit = np.inf
    for axis in range(3):
        if axis == 0:
            o, d = ox, dx
        elif axis == 1:
            o, d = oy, dy
        else:
            o, d = oz, dz
        if d != 0.0:
            t0 = (box[0, axis] - 1.0 - o) / d
            t1 = (box[1, axis] + 1.0 - o) / d
            if t0 < t1:
                t0 = t1
            if t0 < t_exit:
                t_exit = t0
    return t_exit


@njit(cache=True)
def raycast_batch_scalar(occ, origin, dirs, t_cap, nearest=False, box=None):
    """Scalar loop behind :func:`raycast_batch`: one `_ray_first_hit` per ray.

    This is the source numba compiles and the bitwise reference the
    vectorized kernel is tested against.  A (G, 3) `origin` casts the rays
    in G equal consecutive runs, run g from origin g.  With `nearest`, each
    ray is cast with its cap lowered to the bound of the nearest hit so far
    from its own origin.  With `box`, each ray's cap is also lowered to its
    exit from the padded box (see :func:`raycast_batch_numpy`).
    """
    n = dirs.shape[0]
    origins = origin.reshape(-1, 3)
    groups = origins.shape[0]
    if groups == 0 or n % groups != 0:
        raise ValueError("rays must split evenly over the origins")
    per = n // groups
    out = np.empty(n, dtype=np.float64)
    for g in range(groups):
        ox, oy, oz = origins[g, 0], origins[g, 1], origins[g, 2]
        bound = np.inf
        for r in range(g * per, (g + 1) * per):
            cap = min(t_cap, bound) if nearest else t_cap
            if box is not None:
                cap = min(cap, _box_exit(box, ox, oy, oz, dirs[r, 0], dirs[r, 1], dirs[r, 2]))
            out[r] = _ray_first_hit(occ, ox, oy, oz, dirs[r, 0], dirs[r, 1], dirs[r, 2], cap)
            if nearest and out[r] >= 0.0:
                bound = min(bound, _nearest_bound(out[r]))
        if nearest:
            # The final bound decides, whatever order the hits were found in.
            for r in range(g * per, (g + 1) * per):
                if out[r] > bound:
                    out[r] = -1.0
    return out


@njit(cache=True)
def point_is_free(occ, gx, gy, gz, radius, box):
    """True iff no occupied voxel box lies within `radius` of the point.

    Point and radius are in grid units; voxel i,j,k occupies the box
    [i,i+1]x[j,j+1]x[k,k+1].  Distances are point-to-box.  `box` is the
    occupied box of `occ` (`VoxelMap.occupied_box`): only voxels inside it
    are scanned, since every other voxel is empty.
    """
    r2 = radius * radius
    # One extra voxel on each side keeps a box exactly `radius` below the
    # point (and any that rounding of g +/- radius would cut) a candidate;
    # the distance test decides.
    i0 = max(int(math.floor(gx - radius)) - 1, box[0, 0])
    i1 = min(int(math.floor(gx + radius)) + 1, box[1, 0] - 1)
    j0 = max(int(math.floor(gy - radius)) - 1, box[0, 1])
    j1 = min(int(math.floor(gy + radius)) + 1, box[1, 1] - 1)
    k0 = max(int(math.floor(gz - radius)) - 1, box[0, 2])
    k1 = min(int(math.floor(gz + radius)) + 1, box[1, 2] - 1)
    for i in range(i0, i1 + 1):
        ddx = 0.0
        if gx < i:
            ddx = i - gx
        elif gx > i + 1:
            ddx = gx - (i + 1)
        for j in range(j0, j1 + 1):
            ddy = 0.0
            if gy < j:
                ddy = j - gy
            elif gy > j + 1:
                ddy = gy - (j + 1)
            dxy2 = ddx * ddx + ddy * ddy
            if dxy2 > r2:
                continue
            for k in range(k0, k1 + 1):
                if not occ[i, j, k]:
                    continue
                ddz = 0.0
                if gz < k:
                    ddz = k - gz
                elif gz > k + 1:
                    ddz = gz - (k + 1)
                if dxy2 + ddz * ddz <= r2:
                    return False
    return True


@njit(cache=True)
def frechet_dp(a, b):
    """Discrete Frechet distance between point sequences a (n,3) and b (m,3)
    via the standard O(n*m) coupling dynamic program."""
    n = a.shape[0]
    m = b.shape[0]
    ca = np.empty((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            dx = a[i, 0] - b[j, 0]
            dy = a[i, 1] - b[j, 1]
            dz = a[i, 2] - b[j, 2]
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            if i == 0 and j == 0:
                prev = 0.0
            elif i == 0:
                prev = ca[0, j - 1]
            elif j == 0:
                prev = ca[i - 1, 0]
            else:
                prev = min(ca[i - 1, j], ca[i - 1, j - 1], ca[i, j - 1])
            ca[i, j] = d if d > prev else prev
    return ca[n - 1, m - 1]


@njit(cache=True)
def nearest_point_scan(points, qx, qy, qz):
    """Index and distance of the point nearest to q; ties keep the lowest index."""
    best = -1
    best2 = np.inf
    for i in range(points.shape[0]):
        dx = points[i, 0] - qx
        dy = points[i, 1] - qy
        dz = points[i, 2] - qz
        d2 = dx * dx + dy * dy + dz * dz
        if d2 < best2:
            best2 = d2
            best = i
    return best, math.sqrt(best2)


@njit(cache=True)
def normals_from_depth_scalar(depth, fx, fy, cx, cy, jump):
    """Per-pixel loop behind :func:`normals_from_depth`.

    This is the source numba compiles and the bitwise reference the
    array-sliced kernel is tested against.
    """
    h, w = depth.shape
    out = np.full((h, w, 3), np.nan, dtype=np.float64)
    for v in range(1, h - 1):
        for u in range(1, w - 1):
            zc = depth[v, u]
            zl = depth[v, u - 1]
            zr = depth[v, u + 1]
            zu = depth[v - 1, u]
            zd = depth[v + 1, u]
            if (
                math.isnan(zc)
                or math.isnan(zl)
                or math.isnan(zr)
                or math.isnan(zu)
                or math.isnan(zd)
            ):
                continue
            if (
                abs(zr - zc) > jump
                or abs(zl - zc) > jump
                or abs(zu - zc) > jump
                or abs(zd - zc) > jump
            ):
                continue
            # Back-projected tangents along image u (right) and v (down).
            txx = ((u + 1) - cx) / fx * zr - ((u - 1) - cx) / fx * zl
            txy = (v - cy) / fy * (zr - zl)
            txz = zr - zl
            tyx = (u - cx) / fx * (zd - zu)
            tyy = ((v + 1) - cy) / fy * zd - ((v - 1) - cy) / fy * zu
            tyz = zd - zu
            nxv = txy * tyz - txz * tyy
            nyv = txz * tyx - txx * tyz
            nzv = txx * tyy - txy * tyx
            norm = math.sqrt(nxv * nxv + nyv * nyv + nzv * nzv)
            if norm < 1e-15:
                continue
            nxv /= norm
            nyv /= norm
            nzv /= norm
            # Flip to face the camera.
            rx = (u - cx) / fx
            ry = (v - cy) / fy
            if nxv * rx + nyv * ry + nzv > 0.0:
                nxv = -nxv
                nyv = -nyv
                nzv = -nzv
            out[v, u, 0] = nxv
            out[v, u, 1] = nyv
            out[v, u, 2] = nzv
    return out


def _slab_clip(origin, dirs, lo, hi, enter, exit):
    """Narrow each ray's [enter, exit] in place to the box [lo, hi] (per
    axis), as the scalar loop's clip does.  `origin` holds per axis either
    one coordinate for every ray or each ray's own.  Returns the mask of
    rays that sit outside a slab they do not move across.  Runs under the
    caller's `np.errstate`."""
    outside = np.zeros(dirs.shape[0], dtype=np.bool_)
    for axis in range(dirs.shape[1]):
        o = origin[axis]
        d = dirs[:, axis]
        moving = d != 0.0
        off = (o < lo[axis]) | (o > hi[axis])
        if off.any():
            outside |= ~moving & off
        t0 = (lo[axis] - o) / d
        t1 = (hi[axis] - o) / d
        near = np.minimum(t0, t1)
        far = np.maximum(t0, t1)
        np.copyto(enter, near, where=moving & (near > enter))
        np.copyto(exit, far, where=moving & (far < exit))
    return outside


def _crossings_below(tmax, tdel, limit):
    """One axis' DDA crossings below `limit`, per ray.

    Each pass adds `tdel` to the rays still below their limit: the same
    additions, in the same order, as the DDA's repeated `tmax += tdel`.
    Returns the number k of crossings below `limit` and the first crossing
    at or past it (the ray's next tmax).
    """
    k = np.zeros(tmax.size, dtype=np.int64)
    nxt = tmax.copy()
    todo = np.flatnonzero(tmax < limit)
    cur, step, lim = tmax[todo], tdel[todo], limit[todo]
    passes = 0
    while todo.size:
        passes += 1
        cur += step
        done = cur >= lim
        if done.any():
            k[todo[done]] = passes
            nxt[todo[done]] = cur[done]
            keep = ~done
            todo, cur, step, lim = todo[keep], cur[keep], step[keep], lim[keep]
    return k, nxt


# A tiny direction component divides and sums to the intended +-inf, and
# one that is zero gives nan where its axis is masked out: no warnings.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def raycast_batch_numpy(occ, origin, dirs, t_cap, nearest=False, box=None):
    """First-hit parameter for a batch of rays from one or more origins.

    origin: (3,) grid-unit coordinates, or (G, 3) for G scans in one call.
    dirs: (N, 3) directions (any scale; the returned t is in the caller's
    parameterization), N a multiple of G: ray i is cast from origin
    i // (N // G).  Returns the (N,) hit parameters; misses are -1.0.

    With `nearest`, only the returns that can be the nearest of their scan
    are kept: let t_min be the smallest hit parameter among the rays from
    the same origin; every ray whose hit t satisfies
    t <= t_min * (1 + 1e-9) + 1e-9 returns exactly the value of the full
    cast, every other ray returns -1.0.  Rays stop marching once they pass
    that bound for the nearest hit found so far from their origin, so one
    scan's near hit never retires another scan's rays.

    `box` is the occupied box of `occ` (`VoxelMap.occupied_box`): a (2, 3)
    array of the first and one-past-last occupied voxel per axis.  Every
    ray is clipped to that box padded by one voxel: a ray stops at its exit
    from it, a ray that never meets it is a miss, and a ray that starts
    outside it jumps straight to its entry.  The padding is far wider than
    the rounding of the DDA's crossing times, so every voxel the clip skips
    lies outside the occupied box, and the results are those of the
    unclipped cast.  The march reads a copy of only the smallest block of
    the grid that holds the box and the first voxel of every ray.

    Results are those of one call per origin: G scans in one call share
    the set-up and the march loop's per-iteration work, which dominate a
    scan whose rays mostly miss the box.

    All rays march together (Amanatides-Woo DDA): every live ray advances
    one voxel per iteration, with the same arithmetic and the same x, y, z
    tie-breaking as `_ray_first_hit`, so results are bitwise equal to
    :func:`raycast_batch_scalar`.  Rays that hit, leave the grid or pass
    their exit parameter are dropped from the working arrays.
    """
    n_rays = dirs.shape[0]
    origins = np.reshape(origin, (-1, 3))
    groups = origins.shape[0]
    if groups == 0 or n_rays % groups:
        raise ValueError(f"{n_rays} rays do not split evenly over {groups} origins")
    per = n_rays // groups
    # Per axis, the coordinate every ray shares or each ray's own.
    each = origins[0] if groups == 1 else np.repeat(origins, per, axis=0).T
    out = np.full(n_rays, -1.0)
    shape = occ.shape

    # Clip every ray against the grid AABB [0,nx]x[0,ny]x[0,nz].
    t_enter = np.zeros(n_rays)
    t_exit = np.full(n_rays, float(t_cap))
    live = ~_slab_clip(each, dirs, np.zeros(3), np.array(shape, dtype=np.float64), t_enter, t_exit)
    if box is not None:
        # Entry into and exit from the padded occupied box, as the scalar
        # loop's `_box_exit` computes the exit.  A ray that stays outside a
        # slab it does not move across enters at +inf; it is kept only when
        # its exit is +inf too (it moves along no axis and is uncapped, and
        # the DDA walks it at t = inf, as the scalar loop does).
        box_enter = np.full(n_rays, -np.inf)
        box_enter[_slab_clip(each, dirs, box[0] - 1.0, box[1] + 1.0, box_enter, t_exit)] = np.inf
        live &= ~(box_enter > t_exit)
    live &= ~(t_enter > t_exit)
    ray = np.flatnonzero(live)
    if ray.size == 0:
        return out  # every ray missed the grid or the box: nothing to march
    t = t_enter[ray]

    # One column per live ray.  Rows of `fstate`: t, t_exit, tmax x/y/z,
    # tdelta x/y/z; `sign` holds the step direction per axis.
    fstate = np.empty((8, ray.size))
    sign = np.empty((3, ray.size), dtype=np.int64)
    cells = np.empty((3, ray.size), dtype=np.int64)
    start = each if groups == 1 else each[:, ray]
    fstate[0] = t
    fstate[1] = t_exit[ray]
    for axis in range(3):
        # Entry voxel, clamped into the grid, and the axis' DDA state.
        d = dirs[ray, axis]
        p = start[axis] + d * t
        cells[axis] = np.clip(np.floor(p).astype(np.int64), 0, shape[axis] - 1)
        forward = d > 0.0
        backward = d < 0.0
        fstate[2 + axis] = np.where(
            forward,
            t + ((cells[axis] + 1) - p) / d,
            np.where(backward, t + (p - cells[axis]) / -d, np.inf),
        )
        fstate[5 + axis] = np.where(forward, 1.0 / d, np.where(backward, 1.0 / -d, np.inf))
        sign[axis] = np.where(forward, 1, -1)
    if box is not None:
        # Pass every crossing below the box entry before the loop: the
        # voxels they lead into lie outside the padded box.  Only rays with
        # t below the entry skip (a ray can enter the grid with a tmax one
        # rounding below t).  A ray carried out of the grid is clamped to
        # just outside it, and misses.  t stays at the grid entry: the cell
        # is empty or outside the grid, so the loop's first iteration
        # records no hit and its first step sets t.
        limit = box_enter[ray]
        rows = np.flatnonzero((t < limit) & (limit < np.inf))
        for axis in range(3):
            k, fstate[2 + axis, rows] = _crossings_below(
                fstate[2 + axis, rows], fstate[5 + axis, rows], limit[rows]
            )
            moved = cells[axis, rows] + sign[axis, rows] * k
            cells[axis, rows] = np.clip(moved, -1, shape[axis])
    bound = _march(occ, box, out, ray, fstate, sign, cells, per if nearest else 0, groups)
    if nearest:
        # The final bound decides, whatever order the hits were found in.
        scans = out.reshape(groups, per)
        scans[scans > bound[:, None]] = -1.0
    return out


def _march(occ, box, out, ray, fstate, sign, cells, per=0, groups=1):
    """The vectorized DDA loop shared by the raycast kernels.

    Marches rays `ray` (indices into `out`) from their current state:
    `fstate` rows t, t_exit, tmax x/y/z, tdelta x/y/z; `sign` the step
    direction and `cells` the voxel per axis (a voxel outside the grid
    is a miss).  Writes each hit's t into `out`.  With `per` > 0 the rays
    are `nearest` scans of `per` rays per origin, and the per-origin bound
    on the nearest hit is returned; otherwise that bound stays inf.

    Every live ray advances one voxel per iteration, with the same
    arithmetic and the same x, y, z tie-breaking as `_ray_first_hit`.
    Rays that hit, leave the grid or pass t_exit are dropped from the
    working arrays.
    """
    shape = occ.shape
    if box is None:
        lo, hi = np.zeros(3, dtype=np.int64), np.array(shape)
    else:
        # March over the smallest block of the grid that holds the occupied
        # box and the first voxel of every ray in the grid: a ray leaving
        # it has passed the box on that axis and can hit nothing more.
        # After `raycast_batch_numpy`'s skip that is the box padded by two
        # voxels at most (a skipped ray stops in the voxel before the
        # padded box's face), unless an uncapped walk at t = inf, which
        # skips nothing, starts farther out; a level frame's rays start in
        # the box's xy footprint, at any height.
        in_grid = ((cells >= 0) & (cells < np.array(shape)[:, None])).all(axis=0)
        lo = np.array([cells[a].min(where=in_grid, initial=box[0, a]) for a in range(3)])
        hi = np.array([cells[a].max(where=in_grid, initial=box[1, a] - 1) for a in range(3)]) + 1

    # Rows of `istate`: ray index, linear voxel index into the marched
    # block padded by a one-voxel shell (a ray outside the grid starts in
    # the shell), step x/y/z as linear strides.  One column per live ray,
    # so that compaction is two takes.
    sub = hi - lo
    strides = ((sub[1] + 2) * (sub[2] + 2), sub[2] + 2, 1)
    istate = np.empty((5, ray.size), dtype=np.int64)
    istate[0] = ray
    istate[1] = 0
    for axis in range(3):
        istate[1] += (np.clip(cells[axis] - lo[axis], -1, sub[axis]) + 1) * strides[axis]
        istate[2 + axis] = sign[axis] * strides[axis]

    # The shell is marked 2: a ray stepping out of the block reads 2 and is
    # dropped as a miss, so leaving needs no bounds test.
    padded = np.full(sub + 2, 2, dtype=np.int8)
    block = occ[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
    padded[1:-1, 1:-1, 1:-1] = block.astype(np.bool_, copy=False)
    flat = padded.reshape(-1)
    parked = 0
    bound = np.full(groups, np.inf)  # per origin
    while istate.shape[1]:
        t, lin = fstate[0], istate[1]
        occupied = flat[lin]
        inside = t <= fstate[1]
        done = ~inside | (occupied != 0)
        n_done = np.count_nonzero(done)
        if n_done > parked:
            hit = inside & (occupied == 1)
            out[istate[0, hit]] = t[hit]
            if per and hit.any():
                # Lowering t_exit retires rays past the bound through the
                # `inside` test; their DDA arithmetic is untouched.
                np.minimum.at(bound, istate[0, hit] // per, _nearest_bound(t[hit]))
                np.minimum(fstate[1], bound[istate[0] // per] if groups > 1 else bound[0], out=fstate[1])
            if 4 * n_done > done.size:
                keep = np.flatnonzero(~done)
                fstate = fstate[:, keep]
                istate = istate[:, keep]
                t, lin = fstate[0], istate[1]
                parked = 0
            else:
                # Compacting costs a copy of every column, so finished rays
                # are parked until a quarter of the columns are done: they
                # sit on the shell's first voxel (a miss) with zero steps.
                istate[1:, done] = 0
                parked = n_done
        # Advance into the next voxel; ties broken x, then y, then z.
        tx, ty, tz = fstate[2:5]
        y_first = ty <= tz
        t_yz = np.where(y_first, ty, tz)
        ax = tx <= t_yz
        np.copyto(t, np.where(ax, tx, t_yz))
        for a, mask in enumerate((ax, y_first & ~ax, ~(y_first | ax))):
            np.add(fstate[2 + a], fstate[5 + a], out=fstate[2 + a], where=mask)
            np.add(lin, istate[2 + a], out=lin, where=mask)
    return bound


# A zero direction component gives inf or nan crossing times that the masks
# discard: no warnings.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def raycast_level_frame(occ, origin, cols, rows, t_cap, box, z_extent):
    """First-hit parameter for every pixel of a level camera's frame.

    origin: (3,) grid-unit coordinates inside the grid (0 <= o <= n per
    axis).  cols: (W, 2) x and y direction components of each image
    column; rows: (H,) z component of each image row (grid units).  Pixel
    (v, u) casts direction (cols[u, 0], cols[u, 1], rows[v]).  t_cap must
    be finite.  `box` and `z_extent` are the map's `occupied_box` and
    `column_extent`.  Returns the (H * W,) hit parameters in row-major
    pixel order, misses -1.0, bitwise those of
    :func:`raycast_batch_scalar` on the same rays.

    The rays of one column share their x and y direction components, so
    they share the DDA's x and y crossing times, and the rays of one row
    share the z crossing times.  From an origin inside the grid every ray
    enters at t = 0 from the same clamped voxel, so each sequence is built
    once, from t = 0, by `np.add.accumulate`: sequential additions, bit
    for bit the DDA's repeated `tmax += tdelta`.  A column's x and y
    crossings merged by a stable sort, x before y on ties, give the xy
    cells its rays pass and the time each is entered.  The DDA takes a z
    crossing only below both the next x and y crossings, so when a ray
    enters an xy cell it has taken exactly its row's z crossings strictly
    below the entry time.

    Each column skips to the first xy cell whose vertical column holds an
    occupied voxel in the z range its rays reach there, widened by one
    voxel, which is far wider than the rounding of the crossing times:
    every voxel skipped is empty, so the DDA records no hit before that
    cell.  A ray that left the grid through z, or passed t_exit, before it
    misses, as the DDA's ray does.  On that cell a ray whose voxel is
    occupied hits at its entry time, as the march's first iteration
    would; only the rays whose voxel there is empty run on, through the
    same march as :func:`raycast_batch_numpy`.  Columns whose
    horizontal ray never meets the box's footprint padded by one voxel
    before their cap miss with no table built; the others build their x
    and y tables only up to their exit from that padded footprint.
    """
    if not math.isfinite(t_cap):
        # An uncapped ray that moves along no axis walks the grid at t = inf
        # (see `_ray_first_hit`); the crossing tables have no such walk.
        raise ValueError(f"t_cap must be finite, got {t_cap}")
    h, w = rows.size, cols.shape[0]
    out = np.full(h * w, -1.0)
    shape = occ.shape

    def dda_setup(o, d, n):
        """Start voxel, first crossing, tdelta, step sign and grid exit
        of an axis at t = 0, as `_ray_first_hit` computes them."""
        cell = min(max(math.floor(o), 0), n - 1)
        forward = d > 0.0
        backward = d < 0.0
        tmax = 0.0 + np.where(forward, ((cell + 1) - o) / d, np.where(backward, (o - cell) / -d, np.inf))
        tdel = np.where(forward, 1.0 / d, np.where(backward, 1.0 / -d, np.inf))
        sign = np.where(forward, 1, -1)
        exit = np.where(d != 0.0, np.maximum((0.0 - o) / d, (n - o) / d), np.inf)
        return cell, tmax, tdel, sign, exit

    def crossings(tmax, tdel, reach, n):
        """Each ray's crossing times from t = 0, one row per ray.  A ray
        passes at most `reach` + 1 crossings below its cap; the table holds
        one more than the largest of those counts, or n + 2, more than the
        grid's n voxels along the axis can use."""
        count = int(min(np.ceil(np.max(reach)), n)) + 2
        steps = np.empty((tmax.size, count))
        steps[:, 0] = tmax
        steps[:, 1:] = tdel[:, None]
        return np.add.accumulate(steps, axis=1)

    # Columns whose horizontal ray stays outside the padded footprint of
    # the box up to its cap (or its exit from the grid) can hit nothing.
    (ix0, tmx, tdx, sx, ex), (iy0, tmy, tdy, sy, ey) = (
        dda_setup(origin[a], cols[:, a], shape[a]) for a in range(2)
    )
    lim = np.minimum(np.minimum(ex, ey), t_cap)
    enter = np.zeros(w)
    leave = lim.copy()
    outside = _slab_clip(origin[:2], cols, box[0, :2] - 1.0, box[1, :2] + 1.0, enter, leave)
    col = np.flatnonzero(~outside & (enter <= leave))
    if col.size == 0:
        return out
    lim, leave = lim[col], leave[col]
    tmx, tdx, sx, tmy, tdy, sy = (a[col] for a in (tmx, tdx, sx, tmy, tdy, sy))

    # Each column's x and y crossings, merged x before y on ties, up to its
    # exit from the padded footprint, past which it meets no occupied
    # column: the padding puts a whole crossing between the entry into any
    # cell of the box's footprint and that exit, far more than rounding.
    # Segment j is the xy cell entered at start[:, j] (the origin's at
    # t = 0) and left at end[:, j].
    tab_x = crossings(tmx, tdx, np.abs(cols[col, 0]) * leave, shape[0])
    tab_y = crossings(tmy, tdy, np.abs(cols[col, 1]) * leave, shape[1])
    keys = np.concatenate([tab_x, tab_y], axis=1)
    order = np.argsort(keys, axis=1, kind="stable")
    times = np.sort(keys, axis=1)
    segs = times.shape[1] + 1
    n_x = np.zeros((col.size, segs), dtype=np.int64)
    np.cumsum(order < tab_x.shape[1], axis=1, out=n_x[:, 1:])
    n_y = np.arange(segs) - n_x
    start = np.zeros((col.size, segs))
    start[:, 1:] = times
    end = np.full((col.size, segs), np.inf)
    end[:, :-1] = times
    np.minimum(end, leave[:, None], out=end)
    cx = ix0 + sx[:, None] * n_x
    cy = iy0 + sy[:, None] * n_y
    valid = (start <= leave[:, None]) & (cx >= 0) & (cx < shape[0]) & (cy >= 0) & (cy < shape[1])

    # The z range the column's rays reach in each segment, widened by one
    # voxel, against the occupied z range of the segment's vertical column.
    oz = origin[2]
    dz_lo, dz_hi = rows.min(), rows.max()
    k_lo = np.floor(oz + np.minimum(dz_lo * start, dz_lo * end)) - 1.0
    k_hi = np.floor(oz + np.maximum(dz_hi * start, dz_hi * end)) + 1.0
    cells_x = np.where(valid, cx, 0)
    cells_y = np.where(valid, cy, 0)
    z_lo = z_extent[0][cells_x, cells_y]
    z_hi = z_extent[1][cells_x, cells_y]
    cand = valid & ~(z_lo > np.minimum(k_hi, shape[2] - 1)) & ~(z_hi < np.maximum(k_lo, 0))
    found = cand.any(axis=1)
    first = np.argmax(cand, axis=1)[found]
    c = np.flatnonzero(found)
    if c.size == 0:
        return out
    t0 = start[c, first]
    kept = c.size

    # Per pixel of the kept columns, rows by columns: the row's z crossings
    # strictly below the entry time move its voxel and give its next z
    # crossing.  Counted through the sorted entry times: a crossing with
    # i entry times at or below it lies below the (i + 1)-th smallest and
    # every later one.
    iz0, tmz, tdz, sz, ez = dda_setup(oz, rows, shape[2])
    tab_z = crossings(tmz, tdz, np.abs(rows) * leave.max(), shape[2])
    by_time = np.argsort(t0)
    at_or_below = np.searchsorted(t0[by_time], tab_z, side="right")
    at_or_below += np.arange(h)[:, None] * (kept + 1)
    per_rank = np.bincount(at_or_below.ravel(), minlength=h * (kept + 1)).reshape(h, kept + 1)
    n_z = np.empty((h, kept), dtype=np.int64)
    n_z[:, by_time] = np.cumsum(per_rank[:, :kept], axis=1)

    # The march's first iteration, on `occ` itself: a pixel whose voxel
    # (its z voxel moved by the z crossings below its entry time) lies in
    # the grid and is occupied hits at its entry time, if that is not past
    # its exit; one that left the grid through z, or whose entry time is
    # past its exit, misses.  Only the rest march on.
    ix, iy = cx[c, first], cy[c, first]
    iz = iz0 + sz[:, None] * n_z
    t_exit = np.minimum(lim[c], ez[:, None])
    ray = np.arange(h)[:, None] * w + col[c]
    entered = (t0 <= t_exit) & (iz >= 0) & (iz < shape[2])
    occupied = occ[ix, iy, np.clip(iz, 0, shape[2] - 1)].astype(np.bool_, copy=False)
    hit = entered & occupied
    out[ray[hit]] = np.broadcast_to(t0, hit.shape)[hit]
    v, k = np.nonzero(entered & ~occupied)
    if v.size == 0:
        return out

    # The march state of the pixels that march on.
    fstate = np.empty((8, v.size))
    fstate[0] = t0[k]
    fstate[1] = t_exit[v, k]
    fstate[2] = tab_x[c[k], n_x[c[k], first[k]]]
    fstate[3] = tab_y[c[k], n_y[c[k], first[k]]]
    fstate[4] = tab_z[v, np.minimum(n_z[v, k], tab_z.shape[1] - 1)]
    fstate[5] = tdx[c[k]]
    fstate[6] = tdy[c[k]]
    fstate[7] = tdz[v]
    sign = np.stack([sx[c[k]], sy[c[k]], sz[v]])
    cells = np.stack([ix[k], iy[k], iz[v, k]])
    _march(occ, box, out, ray[v, k], fstate, sign, cells)
    return out


def _normal_stencil(depth, fx, fy, cx, cy, jump):
    """The normal stencil of :func:`normals_from_depth_scalar` over the
    inner pixels of `depth` (at least 3x3): the mask of the pixels it keeps
    (none of the five depths nan, no neighbor more than `jump` from the
    centre, a norm of at least 1e-15), the unnormalised normal components
    and their norm, and the pixels' image columns `u` and rows `v`.  The
    expressions are the scalar loop's, in its order, so the results are
    bitwise equal to it.  Runs under the caller's `np.errstate`."""
    h, w = depth.shape
    zc = depth[1:-1, 1:-1]
    zl = depth[1:-1, :-2]
    zr = depth[1:-1, 2:]
    zu = depth[:-2, 1:-1]
    zd = depth[2:, 1:-1]
    u = np.arange(1, w - 1)[None, :]
    v = np.arange(1, h - 1)[:, None]
    valid = ~(np.isnan(zc) | np.isnan(zl) | np.isnan(zr) | np.isnan(zu) | np.isnan(zd))
    valid &= ~((abs(zr - zc) > jump) | (abs(zl - zc) > jump) | (abs(zu - zc) > jump) | (abs(zd - zc) > jump))
    # Back-projected tangents along image u (right) and v (down).
    txx = ((u + 1) - cx) / fx * zr - ((u - 1) - cx) / fx * zl
    txy = (v - cy) / fy * (zr - zl)
    txz = zr - zl
    tyx = (u - cx) / fx * (zd - zu)
    tyy = ((v + 1) - cy) / fy * zd - ((v - 1) - cy) / fy * zu
    tyz = zd - zu
    nxv = txy * tyz - txz * tyy
    nyv = txz * tyx - txx * tyz
    nzv = txx * tyy - txy * tyx
    norm = np.sqrt(nxv * nxv + nyv * nyv + nzv * nzv)
    valid &= ~(norm < 1e-15)
    return valid, nxv, nyv, nzv, norm, u, v


def normals_from_depth_numpy(depth, fx, fy, cx, cy, jump):
    """Per-pixel unit surface normals (camera frame, +z optical axis).

    Central differences of back-projected neighbors; pixels at the border,
    with any invalid neighbor (nan), or across a depth discontinuity larger
    than `jump` are returned as nan.  Normals are oriented toward the camera
    (n . pixel_ray < 0).

    Array slices evaluate the expressions of
    :func:`normals_from_depth_scalar` in the same order, so results are
    bitwise equal to it.
    """
    h, w = depth.shape
    out = np.full((h, w, 3), np.nan, dtype=np.float64)
    if h < 3 or w < 3:
        return out
    with np.errstate(invalid="ignore", divide="ignore"):
        valid, nxv, nyv, nzv, norm, u, v = _normal_stencil(depth, fx, fy, cx, cy, jump)
        nxv /= norm
        nyv /= norm
        nzv /= norm
        # Flip to face the camera.
        rx = (u - cx) / fx
        ry = (v - cy) / fy
        flip = nxv * rx + nyv * ry + nzv > 0.0
    normals = np.stack([nxv, nyv, nzv], axis=-1)
    np.negative(normals, out=normals, where=flip[..., None])
    inner = out[1:-1, 1:-1]
    inner[valid] = normals[valid]
    return out


def incidence_cosines(depth, fx, fy, cx, cy, jump):
    """The unsigned optical-axis component of every finite normal of
    :func:`normals_from_depth`: a (K,) array, row-major.

    Each value is `nz / norm` of the stencil, bitwise; the normal map's
    flip toward the camera only changes its sign.  The pixels are those the
    normal map marks valid, less any whose cosine is not finite (a stencil
    holding an inf depth), so the values are exactly the normal map's
    finite z components, up to sign.  No normal map is built, and an image
    whose inner pixels are all nan (or one smaller than 3x3) returns an
    empty array at once.  This is a numpy kernel with or without numba.
    """
    if np.isnan(depth[1:-1, 1:-1]).all():
        return np.empty(0)
    with np.errstate(invalid="ignore", divide="ignore"):
        valid, _, _, nzv, norm, _, _ = _normal_stencil(depth, fx, fy, cx, cy, jump)
        cosines = nzv[valid] / norm[valid]
    return cosines[np.isfinite(cosines)]


# numba compiles the scalar loops; without it the vectorized numpy kernels
# are the fast path.
if NUMBA_ENABLED:
    raycast_batch = raycast_batch_scalar
    normals_from_depth = normals_from_depth_scalar
else:
    raycast_batch = raycast_batch_numpy
    normals_from_depth = normals_from_depth_numpy
