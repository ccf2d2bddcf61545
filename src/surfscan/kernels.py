"""Numeric inner loops: voxel raycasting, clearance scans, path DP,
surface normals.

The sensing kernels, `raycast_batch` and `raycast_level_frame`, and the
normal-map kernel `normals_from_depth` are vectorized numpy kernels.  The
tests check them bitwise against per-ray and per-pixel scalar loops,
`raycast_batch_scalar` (which marches each ray with `_ray_first_hit`) and
`normals_from_depth_scalar`, which live in `tests/kernel_reference.py`,
since no mission runs them.  `incidence_cosines`, the per-step utility's
kernel, evaluates the normal stencil without building the normal map.

A depth frame has one kernel, `raycast_level_frame`: the camera is level
(no roll or pitch), its range finite and its origin on the map, so the
rays of one image column share their x and y DDA crossings and those of
one row their z crossings.  The crossings are built per column and row,
each column skips straight to the first xy cell whose vertical column it
can hit, and the pixels are resolved on that cell.  `raycast_batch` casts
the range scans.  Both take origins in the grid and a finite cap
(`_check_cast`), so every ray starts at t = 0 inside the grid: they share
one DDA set-up, `_dda_setup`, and one march loop, `_march`, and both are
bitwise equal to `raycast_batch_scalar` on the same rays.  Both return
each ray's first hit within its cap; which of a range scan's hits count,
those at its least t, is `world._shell_cast`'s rule.

All coordinates handed to these kernels are in *grid units* (world meters
divided by voxel size, relative to the grid origin) unless noted otherwise.
"""

import math

import numpy as np

__all__ = [
    "raycast_batch",
    "raycast_level_frame",
    "point_is_free",
    "frechet_dp",
    "normals_from_depth",
    "incidence_cosines",
]


def point_is_free(occ, gx, gy, gz, radius, box):
    """True iff no occupied voxel box lies within `radius` of the point.

    Point and radius are in grid units; voxel i,j,k occupies the box
    [i,i+1]x[j,j+1]x[k,k+1].  Distances are point-to-box.  `box` is the
    occupied box of `occ` (`VoxelMap.occupied_box`): only voxels inside it
    are scanned, since every other voxel is empty.  A point whose block
    holds no occupied voxel is free without the scan.
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
    # A range clipped empty, or a block with no occupied voxel, holds no
    # candidate; the range test runs first, as it needs no numpy call.
    if i0 > i1 or j0 > j1 or k0 > k1 or not occ[i0 : i1 + 1, j0 : j1 + 1, k0 : k1 + 1].any():
        return True
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


def _slab_clip(origin, dirs, lo, hi, enter, exit):
    """Narrow each ray's [enter, exit] in place to the box [lo, hi] (per
    axis).  `origin` holds per axis either one coordinate for every ray or
    each ray's own.  Returns the mask of rays that sit outside a slab they
    do not move across.  Runs under the caller's `np.errstate`."""
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


def _dda_setup(o, d, n):
    """One axis' start voxel, first crossing, tdelta, step sign and grid exit
    at t = 0 from `o` in the grid (one coordinate or each ray's own) along
    `d`, as `_ray_first_hit` computes them, under the caller's errstate."""
    cell = np.minimum(np.maximum(np.floor(o), 0.0), n - 1).astype(np.int64)
    forward = d > 0.0
    backward = d < 0.0
    tmax = 0.0 + np.where(forward, ((cell + 1) - o) / d, np.where(backward, (o - cell) / -d, np.inf))
    tdel = np.where(forward, 1.0 / d, np.where(backward, 1.0 / -d, np.inf))
    sign = np.where(forward, 1, -1)
    exit = np.where(d != 0.0, np.maximum((0.0 - o) / d, (n - o) / d), np.inf)
    return cell, tmax, tdel, sign, exit


def _check_cast(origins, t_cap, shape):
    """The raycast kernels' contract, which starts every ray at t = 0 in the
    grid: each origin in it (0 <= o <= n per axis) and a finite cap."""
    if not math.isfinite(t_cap):
        raise ValueError(f"t_cap must be finite, got {t_cap}")
    if not ((origins >= 0.0) & (origins <= np.array(shape))).all():
        raise ValueError("every origin must lie in the grid")


# A tiny direction component divides and sums to the intended +-inf, and
# one that is zero gives nan where its axis is masked out: no warnings.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def raycast_batch(occ, origin, dirs, t_cap, *, box):
    """First-hit parameter for a batch of rays from one or more origins.

    origin: (3,) grid-unit coordinates, or (G, 3) for G scans in one call,
    each inside the grid (0 <= o <= n per axis).  dirs: (N, 3) directions
    (any scale; the returned t is in the caller's parameterization), N a
    multiple of G: ray i is cast from origin i // (N // G).  t_cap must be
    finite.  Returns the (N,) hit parameters: each ray's first hit within
    `t_cap`, or -1.0 for a miss.

    `box` is a (2, 3) int64 array of the first and one-past-last voxel per
    axis of a box that holds every occupied voxel a ray enters within its
    cap: the occupied box of `occ` (`VoxelMap.occupied_box`), or a
    narrower one, as `world.sample_cloud`'s scan shells pass.  Every ray
    is clipped to that box padded by one voxel: a ray stops at its exit
    from it, a ray that never meets it is a miss, and a ray that starts
    outside it jumps straight to its entry.  The padding is far wider than
    the rounding of the DDA's crossing times, so every voxel the clip skips
    lies outside the box, is empty or entered past the cap, and the
    results are those of the unclipped cast with the same cap.  The march
    reads a copy of only the smallest block of the grid that holds the box
    and the first voxel of every ray.

    Results are those of one call per origin: G scans in one call share
    the set-up and the march loop's per-iteration work, which dominate a
    scan whose rays mostly miss the box.

    All rays march together (Amanatides-Woo DDA): every live ray advances
    one voxel per iteration, with the same arithmetic and the same x, y, z
    tie-breaking as the reference's `_ray_first_hit`, so results are
    bitwise equal to the reference `raycast_batch_scalar`.  Rays that hit, leave the grid or pass
    their exit parameter are dropped from the working arrays.
    """
    n_rays = dirs.shape[0]
    origins = np.reshape(origin, (-1, 3))
    groups = origins.shape[0]
    if groups == 0 or n_rays % groups:
        raise ValueError(f"{n_rays} rays do not split evenly over {groups} origins")
    shape = occ.shape
    _check_cast(origins, t_cap, shape)
    per = n_rays // groups
    # Per axis, the coordinate every ray shares or each ray's own.
    each = origins[0] if groups == 1 else np.repeat(origins, per, axis=0).T
    out = np.full(n_rays, -1.0)

    # Entry into and exit from the padded occupied box, from t = 0 and up
    # to the cap, as the reference loop's `_box_exit` computes the exit.  A
    # ray that never meets it in that span, or stays outside a slab it does
    # not move across, misses.
    box_enter = np.zeros(n_rays)
    t_exit = np.full(n_rays, float(t_cap))
    outside = _slab_clip(each, dirs, box[0] - 1.0, box[1] + 1.0, box_enter, t_exit)
    ray = np.flatnonzero(~outside & (box_enter <= t_exit))
    if ray.size == 0:
        return out  # every ray missed the box: nothing to march

    # One column per live ray.  Rows of `fstate`: t, t_exit, tmax x/y/z,
    # tdelta x/y/z; `sign` holds the step direction per axis.  Every ray
    # starts at t = 0, and its grid exit lowers its t_exit.
    fstate = np.empty((8, ray.size))
    sign = np.empty((3, ray.size), dtype=np.int64)
    cells = np.empty((3, ray.size), dtype=np.int64)
    start = each if groups == 1 else each[:, ray]
    fstate[0] = 0.0
    fstate[1] = t_exit[ray]
    for axis in range(3):
        cells[axis], fstate[2 + axis], fstate[5 + axis], sign[axis], exit = _dda_setup(start[axis], dirs[ray, axis], shape[axis])
        np.minimum(fstate[1], exit, out=fstate[1])
    # Pass every crossing below the box entry before the loop: the voxels
    # they lead into lie outside the padded box.  A ray carried out of the
    # grid is clamped to just outside it, and misses; so does one whose box
    # entry lies past its grid exit.  t stays at 0: the cell is empty or
    # outside the grid, so the loop's first iteration records no hit and
    # its first step sets t.
    limit = box_enter[ray]
    rows = np.flatnonzero(limit > 0.0)
    for axis in range(3):
        k, fstate[2 + axis, rows] = _crossings_below(fstate[2 + axis, rows], fstate[5 + axis, rows], limit[rows])
        moved = cells[axis, rows] + sign[axis, rows] * k
        cells[axis, rows] = np.clip(moved, -1, shape[axis])
    _march(occ, box, out, ray, fstate, sign, cells)
    return out


def _march(occ, box, out, ray, fstate, sign, cells):
    """The vectorized DDA loop shared by the raycast kernels.

    Marches rays `ray` (indices into `out`) from their current state:
    `fstate` rows t, t_exit, tmax x/y/z, tdelta x/y/z; `sign` the step
    direction and `cells` the voxel per axis (a voxel outside the grid
    is a miss).  Writes each hit's t into `out`.

    Every live ray advances one voxel per iteration, with the same
    arithmetic and the same x, y, z tie-breaking as the reference's
    `_ray_first_hit`.
    Rays that hit, leave the grid or pass t_exit are dropped from the
    working arrays.
    """
    shape = occ.shape
    # March over the smallest block of the grid that holds the occupied box
    # and the first voxel of every ray in the grid: a ray leaving it has
    # passed the box on that axis and can hit nothing more.  After
    # `raycast_batch`'s skip that is the box padded by two voxels at most
    # (a skipped ray stops in the voxel before the padded box's face, and
    # every other ray starts on the padded box); a level frame's rays start
    # in the box's xy footprint, at any height.
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
    while istate.shape[1]:
        t, lin = fstate[0], istate[1]
        occupied = flat[lin]
        inside = t <= fstate[1]
        done = ~inside | (occupied != 0)
        n_done = np.count_nonzero(done)
        if n_done > parked:
            hit = inside & (occupied == 1)
            out[istate[0, hit]] = t[hit]
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
    pixel order, misses -1.0, bitwise those of the reference
    `raycast_batch_scalar` on the same rays.

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
    same march as :func:`raycast_batch`.  Columns whose
    horizontal ray never meets the box's footprint padded by one voxel
    before their cap miss with no table built; the others build their x
    and y tables only up to their exit from that padded footprint.
    """
    shape = occ.shape
    _check_cast(origin, t_cap, shape)
    h, w = rows.size, cols.shape[0]
    out = np.full(h * w, -1.0)

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
        _dda_setup(origin[a], cols[:, a], shape[a]) for a in range(2)
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
    iz0, tmz, tdz, sz, ez = _dda_setup(oz, rows, shape[2])
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
    """The normal stencil of the reference `normals_from_depth_scalar` over the
    inner pixels of `depth` (at least 3x3): the mask of the pixels it keeps
    (none of the five depths nan, no neighbor more than `jump` from the
    centre, a norm of at least 1e-15), the unnormalised normal components
    and their norm, and the pixels' image columns `u` and rows `v`.  The
    expressions are the reference loop's, in its order, so the results are
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


def normals_from_depth(depth, fx, fy, cx, cy, jump):
    """Per-pixel unit surface normals (camera frame, +z optical axis).

    Central differences of back-projected neighbors; pixels at the border,
    with any invalid neighbor (nan), or across a depth discontinuity larger
    than `jump` are returned as nan.  Normals are oriented toward the camera
    (n . pixel_ray < 0).

    Array slices evaluate the expressions of the reference
    `normals_from_depth_scalar` in the same order, so results are bitwise
    equal to it.
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
    empty array at once.
    """
    if np.isnan(depth[1:-1, 1:-1]).all():
        return np.empty(0)
    with np.errstate(invalid="ignore", divide="ignore"):
        valid, _, _, nzv, norm, _, _ = _normal_stencil(depth, fx, fy, cx, cy, jump)
        cosines = nzv[valid] / norm[valid]
    return cosines[np.isfinite(cosines)]

