"""Numeric inner loops: voxel raycasting, clearance scans, path DP.

The kernels are written as plain loops over numpy arrays, which numba
JIT-compiles when :mod:`surfscan._accel` enables it.  The two per-step
sensing kernels, `raycast_batch` and `normals_from_depth`, also have
vectorized numpy forms that run when numba is absent; the scalar loops
(`raycast_batch_scalar`, `normals_from_depth_scalar`) stay as the jitted
source and as the bitwise reference for the vectorized forms.  All
coordinates handed to these kernels are in *grid units* (world meters
divided by voxel size, relative to the grid origin) unless noted otherwise.
"""

import math

import numpy as np

from ._accel import NUMBA_ENABLED, njit

__all__ = [
    "raycast_batch",
    "point_is_free",
    "frechet_dp",
    "nearest_point_scan",
    "normals_from_depth",
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
    hit `t`: a relative and an absolute margin of 1e-9 above it."""
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
    vectorized kernel is tested against.  With `nearest`, each ray is cast
    with its cap lowered to the bound of the nearest hit so far.  With
    `box`, each ray's cap is also lowered to its exit from the padded box
    (see :func:`raycast_batch_numpy`).
    """
    n = dirs.shape[0]
    out = np.empty(n, dtype=np.float64)
    bound = np.inf
    for r in range(n):
        cap = min(t_cap, bound) if nearest else t_cap
        if box is not None:
            cap = min(
                cap,
                _box_exit(box, origin[0], origin[1], origin[2], dirs[r, 0], dirs[r, 1], dirs[r, 2]),
            )
        out[r] = _ray_first_hit(
            occ,
            origin[0],
            origin[1],
            origin[2],
            dirs[r, 0],
            dirs[r, 1],
            dirs[r, 2],
            cap,
        )
        if nearest and out[r] >= 0.0:
            bound = min(bound, _nearest_bound(out[r]))
    if nearest:
        # The final bound decides, whatever order the hits were found in.
        for r in range(n):
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
    axis), as the scalar loop's clip does.  Returns the mask of rays that
    sit outside a slab they do not move across.  Runs under the caller's
    `np.errstate`."""
    outside = np.zeros(dirs.shape[0], dtype=np.bool_)
    for axis in range(3):
        o = origin[axis]
        d = dirs[:, axis]
        moving = d != 0.0
        if o < lo[axis] or o > hi[axis]:
            outside |= ~moving
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
    """First-hit parameter for a batch of rays from a common origin.

    origin: (3,) grid-unit coordinates.  dirs: (R,3) directions (any scale;
    the returned t is in the caller's parameterization).  Misses are -1.0.

    With `nearest`, only the returns that can be the nearest are kept: let
    t_min be the smallest hit parameter; every ray whose hit t satisfies
    t <= t_min * (1 + 1e-9) + 1e-9 returns exactly the value of the full
    cast, every other ray returns -1.0.  Rays stop marching once they pass
    that bound for the nearest hit found so far.

    `box` is the occupied box of `occ` (`VoxelMap.occupied_box`): a (2, 3)
    array of the first and one-past-last occupied voxel per axis.  Every
    ray is clipped to that box padded by one voxel: a ray stops at its exit
    from it, a ray that never meets it is a miss, and a ray that starts
    outside it jumps straight to its entry.  The padding is far wider than
    the rounding of the DDA's crossing times, so every voxel the clip skips
    lies outside the occupied box, and the results are those of the
    unclipped cast.  The march reads a copy of only the smallest block of
    the grid that holds the box and the first voxel of every ray.

    All rays march together (Amanatides-Woo DDA): every live ray advances
    one voxel per iteration, with the same arithmetic and the same x, y, z
    tie-breaking as `_ray_first_hit`, so results are bitwise equal to
    :func:`raycast_batch_scalar`.  Rays that hit, leave the grid or pass
    their exit parameter are dropped from the working arrays.
    """
    n_rays = dirs.shape[0]
    out = np.full(n_rays, -1.0)
    shape = occ.shape

    # Clip every ray against the grid AABB [0,nx]x[0,ny]x[0,nz].
    t_enter = np.zeros(n_rays)
    t_exit = np.full(n_rays, float(t_cap))
    live = ~_slab_clip(origin, dirs, np.zeros(3), np.array(shape, dtype=np.float64), t_enter, t_exit)
    if box is not None:
        # Entry into and exit from the padded occupied box, as the scalar
        # loop's `_box_exit` computes the exit.  A ray that stays outside a
        # slab it does not move across enters at +inf; it is kept only when
        # its exit is +inf too (it moves along no axis and is uncapped, and
        # the DDA walks it at t = inf, as the scalar loop does).
        box_enter = np.full(n_rays, -np.inf)
        box_enter[_slab_clip(origin, dirs, box[0] - 1.0, box[1] + 1.0, box_enter, t_exit)] = np.inf
        live &= ~(box_enter > t_exit)
    live &= ~(t_enter > t_exit)
    ray = np.flatnonzero(live)
    if ray.size == 0:
        return out  # every ray missed the grid or the box: nothing to march
    t = t_enter[ray]

    # One column per live ray, so that compaction is two takes.
    # Rows of `fstate`: t, t_exit, tmax x/y/z, tdelta x/y/z.
    # Rows of `istate`: ray index, linear voxel index, step x/y/z (the
    # sign of the step until the strides are known).
    fstate = np.empty((8, ray.size))
    istate = np.empty((5, ray.size), dtype=np.int64)
    cells = np.empty((3, ray.size), dtype=np.int64)
    fstate[0] = t
    fstate[1] = t_exit[ray]
    istate[0] = ray
    for axis in range(3):
        # Entry voxel, clamped into the grid, and the axis' DDA state.
        d = dirs[ray, axis]
        p = origin[axis] + d * t
        cells[axis] = np.clip(np.floor(p).astype(np.int64), 0, shape[axis] - 1)
        forward = d > 0.0
        backward = d < 0.0
        fstate[2 + axis] = np.where(
            forward,
            t + ((cells[axis] + 1) - p) / d,
            np.where(backward, t + (p - cells[axis]) / -d, np.inf),
        )
        fstate[5 + axis] = np.where(forward, 1.0 / d, np.where(backward, 1.0 / -d, np.inf))
        istate[2 + axis] = np.where(forward, 1, -1)
    if box is None:
        lo, hi = np.zeros(3, dtype=np.int64), np.array(shape)
    else:
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
            moved = cells[axis, rows] + istate[2 + axis, rows] * k
            cells[axis, rows] = np.clip(moved, -1, shape[axis])
        # March over the smallest block of the grid that holds the occupied
        # box and the first voxel of every ray in the grid: a ray leaving
        # it has passed the box on that axis and can hit nothing more.
        # After the skip that is the box padded by two voxels at most (a
        # skipped ray stops in the voxel before the padded box's face),
        # unless an uncapped walk at t = inf, which skips nothing, starts
        # farther out.
        in_grid = ((cells >= 0) & (cells < np.array(shape)[:, None])).all(axis=0)
        lo = np.array([cells[a].min(where=in_grid, initial=box[0, a]) for a in range(3)])
        hi = np.array([cells[a].max(where=in_grid, initial=box[1, a] - 1) for a in range(3)]) + 1

    # Linear voxel indices into the marched block padded by a one-voxel
    # shell; a ray outside the grid starts in the shell.
    sub = hi - lo
    strides = ((sub[1] + 2) * (sub[2] + 2), sub[2] + 2, 1)
    istate[1] = 0
    for axis in range(3):
        istate[1] += (np.clip(cells[axis] - lo[axis], -1, sub[axis]) + 1) * strides[axis]
        istate[2 + axis] *= strides[axis]

    # The shell is marked 2: a ray stepping out of the block reads 2 and is
    # dropped as a miss, so leaving needs no bounds test.
    padded = np.full(sub + 2, 2, dtype=np.int8)
    block = occ[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
    padded[1:-1, 1:-1, 1:-1] = block.astype(np.bool_, copy=False)
    flat = padded.reshape(-1)
    parked = 0
    bound = np.inf
    while istate.shape[1]:
        t, lin = fstate[0], istate[1]
        occupied = flat[lin]
        inside = t <= fstate[1]
        done = ~inside | (occupied != 0)
        n_done = np.count_nonzero(done)
        if n_done > parked:
            hit = inside & (occupied == 1)
            out[istate[0, hit]] = t[hit]
            if nearest and hit.any():
                # Lowering t_exit retires rays past the bound through the
                # `inside` test; their DDA arithmetic is untouched.
                bound = min(bound, _nearest_bound(t[hit].min()))
                np.minimum(fstate[1], bound, out=fstate[1])
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
    if nearest:
        # The final bound decides, whatever order the hits were found in.
        out[out > bound] = -1.0
    return out


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
    zc = depth[1:-1, 1:-1]
    zl = depth[1:-1, :-2]
    zr = depth[1:-1, 2:]
    zu = depth[:-2, 1:-1]
    zd = depth[2:, 1:-1]
    u = np.arange(1, w - 1)[None, :]
    v = np.arange(1, h - 1)[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        valid = ~(
            np.isnan(zc) | np.isnan(zl) | np.isnan(zr) | np.isnan(zu) | np.isnan(zd)
        )
        valid &= ~(
            (abs(zr - zc) > jump)
            | (abs(zl - zc) > jump)
            | (abs(zu - zc) > jump)
            | (abs(zd - zc) > jump)
        )
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


# numba compiles the scalar loops; without it the vectorized numpy kernels
# are the fast path.
if NUMBA_ENABLED:
    raycast_batch = raycast_batch_scalar
    normals_from_depth = normals_from_depth_scalar
else:
    raycast_batch = raycast_batch_numpy
    normals_from_depth = normals_from_depth_numpy
