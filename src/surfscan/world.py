"""Simulated world: occupancy voxel maps, morphology deltas, sensing.

The map is a dense boolean occupancy grid aligned to multiples of the voxel
size, standing in for a full volumetric mapping backend; `load_xyz` reads
the ASCII point files it is voxelized from.  Sensing is deterministic: a
pinhole depth camera (`CameraIntrinsics`) and an omnidirectional range
scanner, both implemented by DDA raycasts through the grid.  Their outputs
are plain read-only arrays: a depth frame is an (H, W) float64 image and a
batch of G scans a (G, 3) float64 array of their nearest returns in the
world frame, NaN for a scan that sees nothing.

Camera frame convention: +z along the optical axis, +x right, +y down.
Depths are projective (distance along the optical axis).  Invalid pixels
are NaN.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels

__all__ = [
    "Box",
    "CameraIntrinsics",
    "VoxelMap",
    "MorphologyDelta",
    "Scene",
    "load_xyz",
    "load_map",
    "apply_delta",
    "camera_axes_world",
    "render_depth",
    "sample_cloud",
    "is_collision_free",
    "fibonacci_directions",
]

# The free margin (meters) around the points of a map file loaded without
# bounds, so that planners have free space to work in.
MAP_PADDING = 1.0

# The rows of points `VoxelMap._mark_points` voxelizes at a time.
_POINT_BLOCK = 1 << 16

# How far beyond the nearest filled column a scan's first shell reaches, as
# a fraction of that distance (see `_shell_cast`).
_SHELL_SLACK = 0.02


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by two corners (meters, world frame)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != 3 or len(hi) != 3:
            raise ValueError("Box corners must be 3-vectors")
        if not all(math.isfinite(v) for v in lo + hi):
            raise ValueError("Box corners must be finite")
        if any(h < l for l, h in zip(lo, hi)):
            raise ValueError(f"Box has hi < lo: {lo} .. {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


def _snap_down(value, h):
    return np.floor(value / h) * h


class VoxelMap:
    """Dense occupancy grid.  `origin` is the world position of the corner of
    voxel (0,0,0); voxel (i,j,k) occupies origin + [i,i+1)*h per axis."""

    def __init__(self, origin, voxel_size, occ):
        if voxel_size <= 0:
            raise ValueError("voxel_size must be positive")
        self.origin = np.asarray(origin, dtype=np.float64).copy()
        self.voxel_size = float(voxel_size)
        occ = np.ascontiguousarray(occ, dtype=np.bool_)
        if occ.ndim != 3:
            raise ValueError("occupancy grid must be 3-D")
        occ.setflags(write=False)
        self.occ = occ
        self._free_masks = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, bounds_lo, bounds_hi, voxel_size):
        h = float(voxel_size)
        lo = _snap_down(np.asarray(bounds_lo, dtype=np.float64), h)
        hi = np.asarray(bounds_hi, dtype=np.float64)
        # In plain floats, where a far bound overflows to inf without a warning.
        counts = np.maximum(np.ceil([(b - a) / h - 1e-9 for a, b in zip(lo.tolist(), hi.tolist())]), 1)
        if not math.prod(counts.tolist()) < 2.0**63:
            raise ValueError(f"{h} m voxels over {lo.tolist()} .. {hi.tolist()} are too many to index")
        return cls(lo, h, np.zeros(counts.astype(int), dtype=np.bool_))

    # A point too far off for an int64 index casts to a bad one, which the filter drops.
    @np.errstate(invalid="ignore")
    def _mark_points(self, points):
        """Mark the voxels holding the (N, 3) `points` occupied; points off
        the grid are dropped, as what lies off the map does not exist for
        the robot.  Only for a map being built: every map is read-only once
        made."""
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if points.shape[0]:
            occ = np.asarray(self.occ)
            occ.setflags(write=True)
            flat = occ.reshape(-1)
            # In blocks of rows, so the temporaries stay small on a survey.
            for lo in range(0, points.shape[0], _POINT_BLOCK):
                idx = np.floor((points[lo : lo + _POINT_BLOCK] - self.origin) / self.voxel_size).astype(int)
                # The index's own bounds check finds a block to filter, by `contains`'s rule in floats.
                try:
                    flat[np.ravel_multi_index(idx.T, occ.shape)] = True
                except ValueError:
                    g = (points[lo : lo + _POINT_BLOCK] - self.origin) / self.voxel_size
                    flat[np.ravel_multi_index(idx[((g >= 0.0) & (g < occ.shape)).all(axis=1)].T, occ.shape)] = True
            occ.setflags(write=False)

    @classmethod
    def from_boxes(cls, boxes, voxel_size, bounds):
        """Grid with the voxels of the `Box`es `boxes` occupied, over
        `bounds` (None: the boxes' own extent)."""
        if bounds is None:
            if not boxes:
                raise ValueError("cannot infer bounds without boxes")
            lo = np.min([b.lo for b in boxes], axis=0)
            hi = np.max([b.hi for b in boxes], axis=0)
            bounds = (lo, hi)
        vmap = cls.empty(bounds[0], bounds[1], voxel_size)
        occ = np.asarray(vmap.occ)
        occ.setflags(write=True)
        for b in boxes:
            i0, i1 = vmap._box_slices(b)
            occ[i0[0] : i1[0], i0[1] : i1[1], i0[2] : i1[2]] = True
        occ.setflags(write=False)
        return vmap

    # -- geometry helpers --------------------------------------------------

    def _box_slices(self, box):
        """First and one-past-last voxel index per axis of the voxels the
        box covers, clipped to the grid; a zero-thickness axis covers one."""
        h = self.voxel_size
        lo, hi = [], []
        for b_lo, b_hi, o, n in zip(box.lo, box.hi, self.origin.tolist(), self.occ.shape):
            x0, x1 = (b_lo - o) / h + 1e-9, (b_hi - o) / h - 1e-9
            # Indices beyond [-1, n] clip alike, so a far corner never reaches the int.
            i0 = math.floor(x0) if -1.0 <= x0 <= n else (-1 if x0 < 0.0 else n)
            i1 = math.ceil(x1) if -1.0 <= x1 <= n else (-1 if x1 < 0.0 else n)
            lo.append(max(i0, 0))
            hi.append(min(max(i1, i0 + 1), n))
        return lo, hi

    @property
    def shape(self):
        return self.occ.shape

    def world_to_grid(self, p):
        return (np.asarray(p, dtype=np.float64) - self.origin) / self.voxel_size

    def contains(self, p):
        """True iff the world point `p` lies on the map: 0 <= (p - origin) / h
        < n on every axis, the one rule for the map's edge.  Computed in
        plain floats, where a far point overflows without a warning."""
        h = self.voxel_size
        return all(0.0 <= (float(v) - o) / h < n for v, o, n in zip(p, self.origin.tolist(), self.occ.shape))

    def voxel_center(self, idx):
        return self.origin + (np.asarray(idx, dtype=np.float64) + 0.5) * self.voxel_size

    @functools.cached_property
    def occupied_box(self):
        """First and one-past-last occupied voxel index per axis, as a
        read-only (2, 3) int64 array; None for an empty map.  Computed on
        first use and cached.  The grid is read in two passes that reduce
        over outer axes, which numpy runs far faster than reductions over
        the short inner axes: x over each contiguous yz slab, and y and z
        from the grid reduced over x."""
        occ = self.occ
        nx, ny, nz = occ.shape
        yz = occ.any(axis=0)
        lo, hi = [], []
        for filled in (occ.reshape(nx, ny * nz).any(axis=1), yz.any(axis=1), yz.any(axis=0)):
            idx = np.flatnonzero(filled)
            if idx.size == 0:
                return None
            lo.append(idx[0])
            hi.append(idx[-1] + 1)
        box = np.array([lo, hi], dtype=np.int64)
        box.setflags(write=False)
        return box

    @functools.cached_property
    def column_extent(self):
        """Lowest and highest occupied voxel index of each vertical (x, y)
        column, as a read-only (2, nx, ny) array of the narrowest signed
        type that holds nz; an empty column reads (nz, -1).  Computed on
        first use and cached."""
        occ = self.occ
        nz = occ.shape[2]
        filled = occ.any(axis=2)
        extent = np.empty((2,) + occ.shape[:2], dtype=np.min_scalar_type(-nz - 1))
        extent[0] = np.where(filled, occ.argmax(axis=2), nz)
        extent[1] = np.where(filled, nz - 1 - occ[:, :, ::-1].argmax(axis=2), -1)
        extent.setflags(write=False)
        return extent

    def free_mask(self, inflation, k_lo, k_hi):
        """Voxels of the z layers `k_lo..k_hi` whose centers keep at least
        `inflation` clearance from every occupied voxel box, as a read-only
        (nx, ny, k_hi - k_lo + 1) array.  Cached per inflation value and
        band."""
        nz = self.occ.shape[2]
        if not 0 <= k_lo <= k_hi < nz:
            raise ValueError(f"z band {k_lo}..{k_hi} lies outside the grid's {nz} layers")
        key = (round(float(inflation), 9), k_lo, k_hi)
        mask = self._free_masks.get(key)
        if mask is None:
            mask = _clearance_free(self.occ, inflation / self.voxel_size, k_lo, k_hi)
            mask.setflags(write=False)
            self._free_masks[key] = mask
        return mask


def _clearance_free(occ, r_vox, k_lo, k_hi):
    """True where the center of a voxel of the z layers `k_lo..k_hi` lies
    more than `r_vox` voxels from every occupied voxel box, as an
    (nx, ny, k_hi - k_lo + 1) array.

    The gap from a center to the box at offset d is
    sqrt(sum_a max(|d_a| - 0.5, 0)**2), so four times its square is the
    integer sum_a (2|d_a| - 1)**2 (a zero offset adds 0).  That sum splits by
    axis, so the nearest box is found exactly by three 1-D min-plus passes
    in small integers.  Offsets beyond `reach` voxels on any axis are too far
    to count, which bounds every pass.  The z pass goes first and reads only
    the occupancy of the layers within `reach` of the band; the x and y
    passes then run on the band's layers alone.  Each pass clamps at `far`,
    but every partial sum of a blocking offset is at most `m_max < far`, so
    the clamp never cuts one off, in whichever order the passes run.
    """
    # A radius past the grid's diagonal blocks no more voxels: the clamp bounds the passes.
    r_vox = min(r_vox, math.hypot(*occ.shape))
    # Largest 4*gap**2 that blocks, by the float test sqrt(m / 4) <= r_vox;
    # -1 when nothing blocks (negative radius).
    m_max = int(np.floor(4.0 * max(r_vox, 0.0) ** 2)) + 1
    while m_max >= 0 and not np.sqrt(m_max / 4.0) <= r_vox:
        m_max -= 1
    reach = int(np.ceil(r_vox + 0.5))
    far = m_max + 1
    nx, ny, nz = occ.shape
    # The layers within reach of the band, layer-major so that every pass
    # runs over long contiguous rows.
    z0 = max(k_lo - reach, 0)
    window = np.ascontiguousarray(np.moveaxis(occ[:, :, z0 : k_hi + reach + 1], 2, 0))
    # The narrowest unsigned type that holds a clamped value plus one step
    # cost (uint8 up to 5 voxels of clearance), to keep the passes small.
    dist = np.full((k_hi - k_lo + 1, nx, ny), far, dtype=np.min_scalar_type(far + (2 * reach - 1) ** 2))
    # z pass: its input is 0 on occupied voxels and `far` elsewhere, so each
    # band voxel takes the least cost of an occupied layer within reach.
    for d in range(-reach, reach + 1):
        cost = (2 * abs(d) - 1) ** 2 if d else 0
        src_lo, src_hi = max(k_lo + d, 0), min(k_hi + d + 1, nz)
        if cost <= m_max and src_lo < src_hi:
            out = dist[src_lo - d - k_lo : src_hi - d - k_lo]
            np.minimum(out, cost, out=out, where=window[src_lo - z0 : src_hi - z0])
    for axis in (1, 2):
        lead = (slice(None),) * axis
        src, dist = dist, dist.copy()
        for d in range(1, min(reach, dist.shape[axis] - 1) + 1):
            cost = (2 * d - 1) ** 2
            hi, lo = lead + (slice(d, None),), lead + (slice(None, -d),)
            np.minimum(dist[hi], src[lo] + cost, out=dist[hi])
            np.minimum(dist[lo], src[hi] + cost, out=dist[lo])
        np.minimum(dist, far, out=dist)
    return np.ascontiguousarray(np.moveaxis(dist > m_max, 0, 2))


@dataclass(frozen=True)
class MorphologyDelta:
    """Scene change: boxes cleared (removals) then filled (additions), each
    clipped to the grid it is applied to."""

    removals: tuple = ()
    additions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "removals", tuple(self.removals))
        object.__setattr__(self, "additions", tuple(self.additions))


def apply_delta(base, delta):
    """New map on `base`'s grid with the delta applied: removal boxes clear
    voxels, then addition boxes set them.  Both are clipped to the grid, as
    what lies off the map does not exist for the robot."""
    occ = base.occ.copy()
    for boxes, value in ((delta.removals, False), (delta.additions, True)):
        for box in boxes:
            i0, i1 = base._box_slices(box)
            occ[i0[0] : i1[0], i0[1] : i1[1], i0[2] : i1[2]] = value
    return VoxelMap(base.origin, base.voxel_size, occ)


@dataclass(frozen=True)
class Scene:
    """Historical map and current map, on one grid: the same origin, voxel
    size and shape.  An unchanged scene holds one map twice, so both share
    its `free_mask` cache."""

    historical: VoxelMap
    current: VoxelMap

    def __post_init__(self):
        h, c = self.historical, self.current
        if not (h.voxel_size == c.voxel_size and h.shape == c.shape and np.array_equal(h.origin, c.origin)):
            raise ValueError(
                "the current map must lie on the historical map's grid (same origin, voxel size and shape); "
                "set maps.bounds"
            )

    @classmethod
    def from_delta(cls, historical, delta):
        return cls(historical, apply_delta(historical, delta))

    @classmethod
    def unchanged(cls, historical):
        return cls(historical, historical)


def load_xyz(path):
    """Read an ASCII xyz file (one `x y z` triple per line, meters,
    whitespace-separated, `#` starts a comment) into an (N, 3) array.

    numpy's parser reads well-formed files; a malformed, empty or
    comment-only file, or one with a non-finite value (`nan`, `inf`), is
    re-read line by line, which names the offending line or returns a
    (0, 3) array.
    """
    with warnings.catch_warnings():
        # loadtxt warns on a file without data; the line loop handles it.
        warnings.simplefilter("ignore", UserWarning)
        try:
            points = np.loadtxt(path, comments="#", ndmin=2, encoding="utf-8")
        except ValueError:
            points = None
    if points is not None and points.shape[0] and points.shape[1] == 3 and np.isfinite(points).all():
        return points
    return _load_xyz_lines(path)


def _load_xyz_lines(path):
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 values, got {len(parts)}")
            try:
                point = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in point):
                raise ValueError(f"{path}:{lineno}: non-finite value in {line!r}")
            points.append(point)
    return np.asarray(points, dtype=np.float64).reshape(-1, 3)


def load_map(path, voxel_size, bounds):
    """Voxelize an xyz point file over `bounds` (None: the points' extent
    grown by `MAP_PADDING` on every side); points off the bounds are dropped."""
    # Given bounds, the long-lived grid is allocated before the short-lived
    # point array.  Allocated after it, the grid left the heap so that a
    # repeated site load (perfbench's large_site_plan) read a peak RSS of 66
    # or 70-72 MB depending only on the checkout's path length; allocated
    # first, it read 66 MB at every length tried.
    vmap = None if bounds is None else VoxelMap.empty(bounds[0], bounds[1], voxel_size)
    points = load_xyz(path)
    if points.shape[0] == 0:
        raise ValueError(f"{path}: no points")
    if vmap is None:
        lo = points.min(axis=0) - MAP_PADDING
        hi = points.max(axis=0) + voxel_size + MAP_PADDING
        vmap = VoxelMap.empty(lo, hi, voxel_size)
    vmap._mark_points(points)
    return vmap


@functools.cache
def fibonacci_directions(n):
    """n unit vectors spread over the sphere (deterministic spiral pattern),
    as a read-only (n, 3) array computed once per n."""
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    theta = golden * i
    dirs = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    dirs.setflags(write=False)
    return dirs


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera described by its field of view and image size."""

    alpha: float  # horizontal FOV, radians
    beta: float  # vertical FOV, radians
    width: int = 80
    height: int = 60
    max_range: float = 5.0

    def __post_init__(self):
        if not (0.0 < self.alpha < np.pi and 0.0 < self.beta < np.pi):
            raise ValueError("FOV angles must lie in (0, pi)")
        if self.width < 3 or self.height < 3:
            raise ValueError("image must be at least 3x3 pixels")
        if not 0.0 < self.max_range < math.inf:
            raise ValueError(f"max_range must be positive and finite, got {self.max_range}")

    @property
    def fx(self):
        return (self.width / 2.0) / np.tan(self.alpha / 2.0)

    @property
    def fy(self):
        return (self.height / 2.0) / np.tan(self.beta / 2.0)

    @property
    def cx(self):
        return (self.width - 1) / 2.0

    @property
    def cy(self):
        return (self.height - 1) / 2.0

    def pixel_offsets(self):
        """Camera-frame x of each image column and y of each image row on
        the z = 1 plane: (W,) and (H,) arrays."""
        u = (np.arange(self.width) - self.cx) / self.fx
        v = (np.arange(self.height) - self.cy) / self.fy
        return u, v


def camera_axes_world(pose):
    """World-frame (right, down, forward) unit vectors of a camera mounted
    level on the robot body, optical axis along the body +x."""
    c, s = np.cos(pose.psi), np.sin(pose.psi)
    return np.array([s, -c, 0.0]), np.array([0.0, 0.0, -1.0]), np.array([c, s, 0.0])


def _frame_axes(right, down, forward, intrinsics, voxel_size):
    """The x and y components of each image column's grid-unit rays, (W, 2),
    and the z component of each image row's, (H,), of a level camera: those
    of the pixel ray u * right + v * down + forward (u, v its
    `CameraIntrinsics.pixel_offsets`), bit for bit up to the sign of a zero,
    which the DDA treats as 0.  The v * down term of x and y and the
    u * right and forward terms of z are signed zeros, which change no sum
    that is not itself zero."""
    u, v = intrinsics.pixel_offsets()
    cols = np.stack([(u * right[a] + forward[a]) / voxel_size for a in range(2)], axis=1)
    return cols, (v * down[2]) / voxel_size


def render_depth(vmap, pose, intrinsics):
    """Raycast a depth image from the pose: a read-only (H, W) float64
    array.  Depth is the distance along the optical axis to the first
    occupied voxel; misses are NaN.

    The camera is level and its range finite, so
    `kernels.raycast_level_frame` casts every frame: it shares each image
    column's x/y and each row's z DDA crossings.  A pose off the map
    (`VoxelMap.contains`) raises ValueError.  On an empty map nothing is
    cast.
    """
    if not vmap.contains(pose.position):
        raise ValueError(f"camera position {pose.position.tolist()} lies off the map")
    h, w = intrinsics.height, intrinsics.width
    box = vmap.occupied_box
    if box is None:
        depth = np.full((h, w), np.nan)
        depth.setflags(write=False)
        return depth
    cols, rows = _frame_axes(*camera_axes_world(pose), intrinsics, vmap.voxel_size)
    origin_g = vmap.world_to_grid(pose.position)
    t = kernels.raycast_level_frame(
        vmap.occ, origin_g, cols, rows, float(intrinsics.max_range), box, vmap.column_extent
    )
    depth = t.reshape(h, w)
    depth[depth <= 0.0] = np.nan
    depth.setflags(write=False)
    return depth


def sample_cloud(vmap, positions, max_range, ray_count):
    """The nearest return of an omnidirectional range scan from each of the
    (G, 3) `positions`: a read-only (G, 3) float64 array whose row g is the
    first-hit point, world frame, of scan g's Fibonacci-sphere ray pattern
    of least range (the ray parameter t of its unit ray), the lowest ray
    index on exact ties, placed at position + direction * t.  A scan whose
    rays hit nothing within range gives a NaN row.

    The G scans are cast together in shells around their positions
    (`_shell_cast`): each shell is one multi-origin `kernels.raycast_batch`
    call of only the rays that can meet the occupied voxels within its
    reach, capped at that reach.  The first shell reaches just past the
    nearest filled column's box and holds every scan of the demos; a scan
    whose nearest return could lie past it is cast again in a shell twice
    as wide, up to the full cast of every ray.  `_shell_cast` keeps exactly
    each scan's rays at its least range, bitwise those of a full cast of
    each position alone, so each row is that of its scan's first kept ray.
    On an empty map nothing is cast.

    A scan from a position off the map (`VoxelMap.contains`) sees nothing:
    its row is NaN and it is not cast.  A range that is not positive and
    finite (nan included), or fewer than one ray, raises ValueError.
    """
    if not 0.0 < max_range < math.inf:
        raise ValueError(f"max_range must be positive and finite, got {max_range}")
    if not ray_count >= 1:
        raise ValueError(f"ray_count must be at least 1, got {ray_count}")
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    nearest = np.full(positions.shape, np.nan)
    on_map = np.flatnonzero([vmap.contains(p) for p in positions.tolist()])
    if vmap.occupied_box is not None and on_map.size:
        dirs = fibonacci_directions(int(ray_count))
        t = _shell_cast(vmap, vmap.world_to_grid(positions[on_map]), dirs, float(max_range))
        hit = t >= 0.0
        scan = np.flatnonzero(hit.any(axis=1))
        ray = hit[scan].argmax(axis=1)
        nearest[on_map[scan]] = positions[on_map[scan]] + dirs[ray] * t[scan, ray][:, None]
    nearest.setflags(write=False)
    return nearest


# An origin at a box's centre or on its corner divides 0 by 0 (the nan
# fails the cone's positive test): no warnings.
@np.errstate(divide="ignore", invalid="ignore")
def _shell_cast(vmap, origins, dirs, t_cap):
    """The nearest returns of the unit rays `dirs` from each of the (G, 3)
    grid-unit `origins` in the grid, capped at the finite `t_cap` meters: a
    (G, N) array whose row g holds t for each ray of origin g that hits at
    its least t, and -1.0 for every other ray.  This is the one place that
    rule is applied: the kernel returns every ray's first hit, and each
    round here keeps each origin's rays at its least t.  The result is
    bitwise one `kernels.raycast_batch` call over all G * N rays on the
    occupied box, cut to each origin's least t.

    Each round casts the origins still to do inside a shell of reach R
    voxels: their rays are capped at T = R h meters (h the voxel size), so
    every hit within the cap lies within R of its origin, up to rounding
    far below the one-voxel margins here.  The first R is the largest of
    their distances r to the nearest filled column's box
    [i, i+1] x [j, j+1] x [z_lo, z_hi + 1], widened by `_SHELL_SLACK`, plus
    one voxel; no return lies nearer to an origin than its r.  A round casts
    on the box of the occupied voxels within R + 1 of some origin, so every
    occupied voxel outside it lies beyond every ray's cap, and each hit with
    t <= T is the full cast's, bit for bit (the kernel's one-voxel padding
    of the box covers rounding).  Of each origin's rays it casts only those
    that can meet the voxels within R + 1 of it: they lie in a box, and its
    cone from the origin, padded by a voxel and narrowed by the ball of
    radius R + 1, holds every such ray.  An origin whose least hit t_min
    is at most T so gets exactly the full cast's nearest returns: every ray
    of the full cast that hits at t_min is cast, and none hits nearer.  The
    others go to the next round with R doubled.  Once T reaches `t_cap`, or
    R the farthest corner of the padded occupied box, the round is the full
    cast itself.
    """
    occ, box, h = vmap.occ, vmap.occupied_box, vmap.voxel_size
    dirs_g = dirs / h
    # The low and high corners, (3, F), of the boxes of the filled columns
    # of the occupied box's footprint.
    (x0, y0, _), (x1, y1, _) = box.tolist()
    extent = vmap.column_extent[:, x0:x1, y0:y1]
    i, j = np.nonzero(extent[1] >= 0)
    z_lo, z_hi = extent[:, i, j].astype(np.float64)
    lows = np.stack([i + x0, j + y0, z_lo])
    highs = np.stack([i + x0 + 1, j + y0 + 1, z_hi + 1.0])
    # Each origin's squared distance to each column's box, horizontal and
    # whole, and its distance to the farthest corner of the padded
    # occupied box.
    gap = np.maximum(np.maximum(lows - origins[:, :, None], origins[:, :, None] - highs), 0.0)
    gap *= gap
    flat2 = gap[:, 0] + gap[:, 1]
    d2 = flat2 + gap[:, 2]
    far = np.maximum(np.abs(origins - (box[0] - 1.0)), np.abs(origins - (box[1] + 1.0)))
    far = np.sqrt((far * far).sum(axis=1))
    corner = np.indices((2, 2, 2)).reshape(3, 8).T == 1  # a box corner: low (False) or high per axis
    out = np.full((len(origins), len(dirs)), -1.0)
    todo = np.arange(len(origins))
    reach = float(np.sqrt(d2.min(axis=1)).max(initial=0.0)) * (1.0 + _SHELL_SLACK) + 1.0
    while todo.size:
        cap, o, ball = reach * h, origins[todo], reach + 1.0
        last = not (cap < t_cap and reach < far[todo].max())
        if last:
            # The full cast: every ray, on the occupied box, to the range.
            cap, shell = t_cap, box
            rays = np.broadcast_to(np.arange(len(dirs)), (len(todo), len(dirs)))
        else:
            # Per origin, the box of the occupied voxels within the ball:
            # the columns within it, and in each the layers within the
            # ball's half-chord s there.  lo >= hi on some axis if there
            # are none.
            near = d2[todo] <= ball * ball
            s = np.sqrt(np.maximum(ball * ball - flat2[todo], 0.0))
            z_in = np.maximum(z_lo, np.ceil(o[:, 2, None] - s) - 1.0), np.minimum(z_hi + 1.0, np.floor(o[:, 2, None] + s) + 1.0)
            lo = np.stack([np.where(near, a, float(max(occ.shape))).min(axis=1) for a in (lows[0], lows[1], z_in[0])], axis=1)
            hi = np.stack([np.where(near, a, 0.0).max(axis=1) for a in (highs[0], highs[1], z_in[1])], axis=1)
            valid = (lo < hi).all(axis=1)
            # The rays to cast.  A ray that meets the padded box within the
            # ball has a cosine with the axis to the box's centre of at
            # least that of some corner (the box is convex), and of at least
            # the box's least distance ahead along the axis over the ball's
            # radius.  Where neither bound is positive (an origin in the
            # padded box) every ray is cast.
            pad_lo, pad_hi = lo - 1.0, hi + 1.0
            axis = (pad_lo + pad_hi) / 2.0 - o
            axis /= np.sqrt((axis * axis).sum(axis=1))[:, None]
            corners = np.where(corner, pad_hi[:, None, :], pad_lo[:, None, :]) - o[:, None, :]
            along = (corners * axis[:, None, :]).sum(axis=2)
            cos_min = np.maximum((along / np.sqrt((corners * corners).sum(axis=2))).min(axis=1), along.min(axis=1) / ball)
            cos = axis[:, 0, None] * dirs[:, 0] + axis[:, 1, None] * dirs[:, 1] + axis[:, 2, None] * dirs[:, 2]
            cand = valid[:, None] & (~(cos_min > 0.0)[:, None] | (cos >= cos_min[:, None] - 1e-9))
            counts = cand.sum(axis=1)
            per = int(counts.max())
            reach *= 2.0
            if not per:
                continue
            # Each origin casts its candidates, padded to `per` rays with
            # its ray 0: a repeat of a candidate, or a ray without a hit
            # within the cap, which returns -1.
            row, ray = np.divmod(np.flatnonzero(cand), len(dirs))
            rays = np.zeros((len(todo), per), dtype=np.int64)
            rays[row, np.arange(row.size) - (np.cumsum(counts) - counts)[row]] = ray
            shell = np.array([lo[valid].min(axis=0), hi[valid].max(axis=0)], dtype=np.int64)
        t = kernels.raycast_batch(occ, o, dirs_g[rays.ravel()], cap, box=shell).reshape(rays.shape)
        # Each origin's nearest returns: its rays that hit at its least t.
        t_min = np.where(t >= 0.0, t, np.inf).min(axis=1, keepdims=True)
        done = last | (t_min[:, 0] <= cap)
        out[todo[done, None], rays[done]] = np.where(t == t_min, t, -1.0)[done]
        todo = todo[~done]
    return out


def is_collision_free(vmap, target, inflation):
    """Clearance query.  `target` is a point or an (a, b) segment; segments
    are sampled every half voxel.  True iff every tested point lies on the
    map (`VoxelMap.contains`) and no occupied voxel box lies within
    `inflation` of it; on an empty map only the first test runs."""
    if inflation < 0:
        raise ValueError("inflation must be non-negative")
    if isinstance(target, (tuple, list)) and len(target) == 2 and np.ndim(target[0]) == 1:
        a = np.asarray(target[0], dtype=np.float64)
        b = np.asarray(target[1], dtype=np.float64)
        length = float(np.linalg.norm(b - a))
        n = max(int(np.ceil(length / (vmap.voxel_size / 2.0))), 1)
        points = a + (b - a) * np.linspace(0.0, 1.0, n + 1)[:, None]
    else:
        points = np.asarray(target, dtype=np.float64)[None, :]
    if not all(map(vmap.contains, points.tolist())):
        return False
    box = vmap.occupied_box
    if box is None:
        return True
    r = inflation / vmap.voxel_size
    for gx, gy, gz in vmap.world_to_grid(points).tolist():
        if not kernels.point_is_free(vmap.occ, gx, gy, gz, r, box):
            return False
    return True
