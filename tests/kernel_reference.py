"""Scalar reference loops for the sensing kernels' oracle tests: the
per-ray Amanatides-Woo march `raycast_batch_scalar` (with `_ray_first_hit`
and `_box_exit`) and the per-pixel normal stencil
`normals_from_depth_scalar`, moved verbatim from `surfscan.kernels`.  The
vectorized kernels `raycast_batch`, `raycast_level_frame`,
`normals_from_depth` and `incidence_cosines` must return the same bits.
`nearest_only` states the nearest-return rule that `world._shell_cast`
applies, on one scan's full-cast results.  `pixel_rays` builds the ray of
every pixel of a pinhole camera, the rays the frame kernel's columns and
rows stand for.
Nothing here is imported from `surfscan`: the oracle shares no rule with
the kernels it checks."""

import math

import numpy as np


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


# The divisions run on numpy scalars, which overflow to the intended inf for
# a tiny direction component (a subnormal one, say): every oracle call runs
# here, with those warnings silenced.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def raycast_batch_scalar(occ, origin, dirs, t_cap, box=None):
    """Scalar loop of :func:`raycast_batch`: one `_ray_first_hit` per ray.

    This is the bitwise reference the vectorized kernel is tested against.
    A (G, 3) `origin` casts the rays in G equal consecutive runs, run g
    from origin g.  With `box`, each ray's cap is also lowered to its exit
    from the padded box (see :func:`raycast_batch`).
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
        for r in range(g * per, (g + 1) * per):
            cap = t_cap
            if box is not None:
                cap = min(cap, _box_exit(box, ox, oy, oz, dirs[r, 0], dirs[r, 1], dirs[r, 2]))
            out[r] = _ray_first_hit(occ, ox, oy, oz, dirs[r, 0], dirs[r, 1], dirs[r, 2], cap)
    return out


def nearest_only(t):
    """One scan's full-cast hit parameters `t` with every hit past the
    least dropped: the scan's nearest returns, as `world._shell_cast`
    returns them."""
    hits = t[t >= 0.0]
    if hits.size:
        t = np.where(t > hits.min(), -1.0, t)
    return t


def pixel_rays(cam, right=(1.0, 0.0, 0.0), down=(0.0, 1.0, 0.0), forward=(0.0, 0.0, 1.0)):
    """The (H, W, 3) ray u * right + v * down + forward of every pixel of
    the pinhole camera `cam` (anything with `width`, `height`, `fx`, `fy`,
    `cx` and `cy`), with u = (column - cx) / fx and v = (row - cy) / fy on
    the z = 1 plane, so that the ray parameter is projective depth.  The
    default axes give the camera-frame rays."""
    u = (np.arange(cam.width) - cam.cx) / cam.fx
    v = (np.arange(cam.height) - cam.cy) / cam.fy
    uu, vv = np.meshgrid(u, v)
    return uu[..., None] * np.asarray(right) + vv[..., None] * np.asarray(down) + np.asarray(forward)


def normals_from_depth_scalar(depth, fx, fy, cx, cy, jump):
    """Per-pixel loop of :func:`normals_from_depth`.

    This is the bitwise reference the array-sliced kernel is tested
    against.
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
