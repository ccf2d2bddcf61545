"""Simulated world: occupancy voxel maps, morphology deltas, sensing.

The map is a dense boolean occupancy grid aligned to multiples of the voxel
size, standing in for a full volumetric mapping backend.  Sensing is
deterministic: a pinhole depth camera and an omnidirectional range scanner,
both implemented by DDA raycasts through the grid.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .depthcam import DepthImage, camera_axes_world
from .fileio import load_xyz
from .geometry import PointCloud

__all__ = [
    "Box",
    "VoxelMap",
    "MorphologyDelta",
    "Scene",
    "load_map",
    "apply_delta",
    "render_depth",
    "sample_cloud",
    "is_collision_free",
    "fibonacci_directions",
]

# The free margin (meters) around the points of a map file loaded without
# bounds, so that planners have free space to work in.
MAP_PADDING = 1.0

# The rows of points `VoxelMap.from_points` voxelizes at a time.
_POINT_BLOCK = 1 << 16


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

    @classmethod
    def from_points(cls, points, voxel_size, bounds):
        vmap = cls.empty(bounds[0], bounds[1], voxel_size)
        vmap._mark_points(points)
        return vmap

    def _mark_points(self, points):
        """Mark the voxels holding the (N, 3) `points` occupied; points off
        the grid clip onto its edge voxels.  Only for a map being built:
        every map is read-only once made."""
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if points.shape[0]:
            occ = np.asarray(self.occ)
            occ.setflags(write=True)
            flat = occ.reshape(-1)
            upper = np.array(occ.shape) - 1
            # In blocks of rows, so the temporaries stay small on a survey.
            for lo in range(0, points.shape[0], _POINT_BLOCK):
                idx = np.floor((points[lo : lo + _POINT_BLOCK] - self.origin) / self.voxel_size).astype(int)
                np.clip(idx, 0, upper, out=idx)
                flat[np.ravel_multi_index(idx.T, occ.shape)] = True
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

    @property
    def bounds(self):
        return (
            self.origin.copy(),
            self.origin + np.array(self.occ.shape) * self.voxel_size,
        )

    def world_to_grid(self, p):
        return (np.asarray(p, dtype=np.float64) - self.origin) / self.voxel_size

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
    """Scene change: boxes cleared (removals) then filled (additions)."""

    removals: tuple = ()
    additions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "removals", tuple(self.removals))
        object.__setattr__(self, "additions", tuple(self.additions))


def apply_delta(base, delta):
    """New map with the delta applied: removal boxes clear voxels, then
    addition boxes set them.  The grid grows if an addition falls outside
    current bounds."""
    h = base.voxel_size
    lo, hi = base.bounds
    for box in delta.additions:
        lo = np.minimum(lo, box.lo)
        hi = np.maximum(hi, box.hi)

    if np.any(lo < base.bounds[0]) or np.any(hi > base.bounds[1]):
        grown = VoxelMap.empty(lo, hi, h)
        occ = np.asarray(grown.occ)
        occ.setflags(write=True)
        off = np.round((base.origin - grown.origin) / h).astype(int)
        sx, sy, sz = base.occ.shape
        occ[off[0] : off[0] + sx, off[1] : off[1] + sy, off[2] : off[2] + sz] = base.occ
        result = grown
    else:
        result = VoxelMap(base.origin, h, base.occ.copy())
        occ = np.asarray(result.occ)
        occ.setflags(write=True)

    for boxes, value in ((delta.removals, False), (delta.additions, True)):
        for box in boxes:
            i0, i1 = result._box_slices(box)
            occ[i0[0] : i1[0], i0[1] : i1[1], i0[2] : i1[2]] = value

    occ.setflags(write=False)
    return result


@dataclass(frozen=True)
class Scene:
    """Historical map and current map.  An unchanged scene holds one map
    twice, so both share its `free_mask` cache."""

    historical: VoxelMap
    current: VoxelMap

    @classmethod
    def from_delta(cls, historical, delta):
        return cls(historical, apply_delta(historical, delta))

    @classmethod
    def unchanged(cls, historical):
        return cls(historical, historical)


def load_map(path, voxel_size, bounds):
    """Voxelize an xyz point file over `bounds` (None: the points' extent
    grown by `MAP_PADDING` on every side)."""
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


def _pixel_rays(right, down, forward, intrinsics, voxel_size):
    """The (H * W, 3) grid-unit ray of every pixel, row-major, for a camera
    with the given world axes."""
    cam_dirs = intrinsics.pixel_directions()
    world_dirs = (
        cam_dirs[..., 0, None] * right
        + cam_dirs[..., 1, None] * down
        + cam_dirs[..., 2, None] * forward
    )
    return np.ascontiguousarray(world_dirs.reshape(-1, 3) / voxel_size, dtype=np.float64)


def _frame_axes(right, down, forward, intrinsics, voxel_size):
    """The x and y components of each image column's rays, (W, 2), and the
    z component of each image row's, (H,), of a level camera: the
    components `_pixel_rays` gives, bit for bit up to the sign of a zero,
    which the DDA treats as 0.  In u * right + v * down + forward the
    v * down term of x and y and the u * right and forward terms of z are
    signed zeros, which change no sum that is not itself zero."""
    u, v = intrinsics.pixel_offsets()
    cols = np.stack([(u * right[a] + forward[a]) / voxel_size for a in range(2)], axis=1)
    return cols, (v * down[2]) / voxel_size


def render_depth(vmap, pose, intrinsics):
    """Raycast a depth image from the pose.  Depth is the distance along the
    optical axis to the first occupied voxel; misses are NaN.

    Two kernels cast the frame, with bitwise the same depths.  The camera
    is level, so a frame with a finite range whose origin lies inside the
    grid goes to `kernels.raycast_level_frame`, which shares each image
    column's x/y and each row's z DDA crossings.  Any other frame casts the
    W x H rays through `kernels.raycast_batch`.  On an empty map nothing is
    cast.
    """
    h, w = intrinsics.height, intrinsics.width
    box = vmap.occupied_box
    if box is None:
        return DepthImage(np.full((h, w), np.nan))
    right, down, forward = camera_axes_world(pose)
    origin_g = vmap.world_to_grid(pose.position)
    t_cap = float(intrinsics.max_range)
    inside = bool(np.all((origin_g >= 0.0) & (origin_g <= vmap.shape)))
    if inside and math.isfinite(t_cap):
        cols, rows = _frame_axes(right, down, forward, intrinsics, vmap.voxel_size)
        t = kernels.raycast_level_frame(vmap.occ, origin_g, cols, rows, t_cap, box, vmap.column_extent)
    else:
        dirs_g = _pixel_rays(right, down, forward, intrinsics, vmap.voxel_size)
        t = kernels.raycast_batch(vmap.occ, origin_g, dirs_g, t_cap, box=box)
    depth = t.reshape(h, w)
    depth[depth <= 0.0] = np.nan
    return DepthImage(depth)


def sample_cloud(vmap, positions, max_range, ray_count, nearest=False):
    """Omnidirectional range scans from each of the (G, 3) `positions`: a
    tuple of G `PointCloud`s, each the first-hit points of a
    Fibonacci-sphere ray pattern from its position, world frame.  Rays that
    hit nothing within range are omitted.  The G scans are cast in one
    multi-origin `kernels.raycast_batch` call, and each cloud is bitwise the
    one a scan from its position alone returns.  On an empty map nothing is
    cast.

    With `nearest`, each cloud holds only the returns that can be the
    nearest to its position: those at a range r <= r_min * (1 + 1e-9) +
    1e-9 m, r_min the nearest range (see :func:`kernels.raycast_batch`).
    The margin covers the rounding of the points and of `nearest_point`'s
    squared distances, so `nearest_point` from the position returns the
    same point and distance, with the same lowest-index tie-break, as on
    the full cloud, and the cloud is empty iff the full one is.

    A range that is not positive (nan included; an infinite one is legal)
    or fewer than one ray raises ValueError: either would return nothing.
    """
    if not max_range > 0:
        raise ValueError(f"max_range must be positive, got {max_range}")
    if not ray_count >= 1:
        raise ValueError(f"ray_count must be at least 1, got {ray_count}")
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    scans = len(positions)
    box = vmap.occupied_box
    if box is None:
        return (PointCloud(np.empty((0, 3))),) * scans
    dirs = fibonacci_directions(int(ray_count))
    dirs_g = np.tile(dirs / vmap.voxel_size, (scans, 1))
    t = kernels.raycast_batch(vmap.occ, vmap.world_to_grid(positions), dirs_g, float(max_range), nearest=nearest, box=box)
    t = t.reshape(scans, len(dirs))
    # Every scan's points in one expression, in scan order, then split.
    scan, ray = np.nonzero(t >= 0.0)
    points = positions[scan] + dirs[ray] * t[scan, ray][:, None]
    ends = [0, *np.cumsum(np.bincount(scan, minlength=scans)).tolist()]
    return tuple(PointCloud(points[lo:hi]) for lo, hi in zip(ends, ends[1:]))


def is_collision_free(vmap, target, inflation):
    """Clearance query.  `target` is a point or an (a, b) segment; segments
    are sampled every half voxel.  True iff no occupied voxel box lies within
    `inflation` of any tested point; on an empty map nothing is tested."""
    if inflation < 0:
        raise ValueError("inflation must be non-negative")
    box = vmap.occupied_box
    if box is None:
        return True
    r = inflation / vmap.voxel_size
    if isinstance(target, (tuple, list)) and len(target) == 2 and np.ndim(target[0]) == 1:
        a = np.asarray(target[0], dtype=np.float64)
        b = np.asarray(target[1], dtype=np.float64)
        length = float(np.linalg.norm(b - a))
        n = max(int(np.ceil(length / (vmap.voxel_size / 2.0))), 1)
        points = a + (b - a) * np.linspace(0.0, 1.0, n + 1)[:, None]
    else:
        points = np.asarray(target, dtype=np.float64)[None, :]
    for gx, gy, gz in vmap.world_to_grid(points).tolist():
        if not kernels.point_is_free(vmap.occ, gx, gy, gz, r, box):
            return False
    return True
