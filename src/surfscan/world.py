"""Simulated world: occupancy voxel maps, morphology deltas, sensing.

The map is a dense boolean occupancy grid aligned to multiples of the voxel
size, standing in for a full volumetric mapping backend.  Sensing is
deterministic: a pinhole depth camera and an omnidirectional range scanner,
both implemented by DDA raycasts through the grid.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .depthcam import DepthImage, camera_axes_world
from .fileio import load_xyz
from .geometry import PointCloud, Pose6

__all__ = [
    "Box",
    "VoxelMap",
    "MorphologyDelta",
    "Scene",
    "load_map",
    "apply_delta",
    "render_depth",
    "sample_cloud",
    "nearest_distances",
    "is_collision_free",
    "fibonacci_directions",
]

DEFAULT_VOXEL_SIZE = 0.1


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
        if any(not np.isfinite(v) for v in lo + hi):
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
    def empty(cls, bounds_lo, bounds_hi, voxel_size=DEFAULT_VOXEL_SIZE):
        h = float(voxel_size)
        lo = _snap_down(np.asarray(bounds_lo, dtype=np.float64), h)
        hi = np.asarray(bounds_hi, dtype=np.float64)
        shape = np.maximum(np.ceil((hi - lo) / h - 1e-9), 1).astype(int)
        return cls(lo, h, np.zeros(shape, dtype=np.bool_))

    @classmethod
    def from_points(cls, points, voxel_size=DEFAULT_VOXEL_SIZE, bounds=None):
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if bounds is None:
            if points.shape[0] == 0:
                raise ValueError("cannot infer bounds from an empty point set")
            bounds = (points.min(axis=0), points.max(axis=0) + voxel_size)
        vmap = cls.empty(bounds[0], bounds[1], voxel_size)
        if points.shape[0]:
            occ = np.asarray(vmap.occ)
            occ.setflags(write=True)
            idx = np.floor((points - vmap.origin) / vmap.voxel_size).astype(int)
            idx = np.clip(idx, 0, np.array(occ.shape) - 1)
            occ[idx[:, 0], idx[:, 1], idx[:, 2]] = True
            occ.setflags(write=False)
        return vmap

    @classmethod
    def from_boxes(cls, boxes, voxel_size=DEFAULT_VOXEL_SIZE, bounds=None):
        boxes = [b if isinstance(b, Box) else Box(*b) for b in boxes]
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
        h = self.voxel_size
        lo = np.floor((np.asarray(box.lo) - self.origin) / h + 1e-9).astype(int)
        hi = np.ceil((np.asarray(box.hi) - self.origin) / h - 1e-9).astype(int)
        hi = np.maximum(hi, lo + 1)
        lo = np.clip(lo, 0, self.occ.shape)
        hi = np.clip(hi, 0, self.occ.shape)
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

    @property
    def occupied_count(self):
        return int(np.count_nonzero(self.occ))

    def world_to_grid(self, p):
        return (np.asarray(p, dtype=np.float64) - self.origin) / self.voxel_size

    def voxel_center(self, idx):
        return self.origin + (np.asarray(idx, dtype=np.float64) + 0.5) * self.voxel_size

    @functools.cached_property
    def occupied_box(self):
        """First and one-past-last occupied voxel index per axis, as a
        read-only (2, 3) int64 array; None for an empty map.  Computed on
        first use and cached."""
        lo, hi = [], []
        for axis in range(3):
            rest = tuple(a for a in range(3) if a != axis)
            idx = np.flatnonzero(self.occ.any(axis=rest))
            if idx.size == 0:
                return None
            lo.append(idx[0])
            hi.append(idx[-1] + 1)
        box = np.array([lo, hi], dtype=np.int64)
        box.setflags(write=False)
        return box

    def free_mask(self, inflation):
        """Voxels whose centers keep at least `inflation` clearance from every
        occupied voxel box.  Cached per inflation value."""
        key = round(float(inflation), 9)
        mask = self._free_masks.get(key)
        if mask is None:
            mask = _clearance_free(self.occ, inflation / self.voxel_size)
            mask.setflags(write=False)
            self._free_masks[key] = mask
        return mask


def _clearance_free(occ, r_vox):
    """True where a voxel center lies more than `r_vox` voxels from every
    occupied voxel box.

    The gap from a center to the box at offset d is
    sqrt(sum_a max(|d_a| - 0.5, 0)**2), so four times its square is the
    integer sum_a (2|d_a| - 1)**2 (a zero offset adds 0).  That sum splits by
    axis, so the nearest box is found exactly by three 1-D min-plus passes
    in small integers.  Offsets beyond `reach` voxels on any axis are too far
    to count, which bounds every pass.
    """
    # Largest 4*gap**2 that blocks, by the float test sqrt(m / 4) <= r_vox;
    # -1 when nothing blocks (negative radius).
    m_max = int(np.floor(4.0 * max(r_vox, 0.0) ** 2)) + 1
    while m_max >= 0 and not np.sqrt(m_max / 4.0) <= r_vox:
        m_max -= 1
    reach = int(np.ceil(r_vox + 0.5))
    far = m_max + 1
    # The narrowest unsigned type that holds a clamped value plus one step
    # cost (uint8 up to 5 voxels of clearance), to keep the passes small.
    dist = np.full(occ.shape, far, dtype=np.min_scalar_type(far + (2 * reach - 1) ** 2))
    dist[occ] = 0
    for axis in range(occ.ndim):
        lead = (slice(None),) * axis
        src, dist = dist, dist.copy()
        for d in range(1, min(reach, occ.shape[axis] - 1) + 1):
            cost = (2 * d - 1) ** 2
            hi, lo = lead + (slice(d, None),), lead + (slice(None, -d),)
            np.minimum(dist[hi], src[lo] + cost, out=dist[hi])
            np.minimum(dist[lo], src[hi] + cost, out=dist[lo])
        np.minimum(dist, far, out=dist)
    return dist > m_max


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


def load_map(path, voxel_size=DEFAULT_VOXEL_SIZE, bounds=None, padding=0.0):
    """Voxelize an xyz point file.  `padding` grows the grid bounds (meters)
    on every side so planners have free space to work in."""
    points = load_xyz(path)
    if points.shape[0] == 0:
        raise ValueError(f"{path}: no points")
    if bounds is None:
        lo = points.min(axis=0) - padding
        hi = points.max(axis=0) + voxel_size + padding
        bounds = (lo, hi)
    return VoxelMap.from_points(points, voxel_size, bounds)


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


def _first_hits(vmap, origin_g, dirs_g, t_cap, nearest=False):
    """`kernels.raycast_batch` on the map (from one origin or several),
    clipped to its occupied box; on an empty map every ray misses and
    nothing is cast."""
    box = vmap.occupied_box
    if box is None:
        return np.full(dirs_g.shape[0], -1.0)
    return kernels.raycast_batch(vmap.occ, origin_g, dirs_g, t_cap, nearest=nearest, box=box)


def render_depth(vmap, pose, intrinsics):
    """Raycast a depth image from the pose.  Depth is the distance along the
    optical axis to the first occupied voxel; misses are NaN."""
    right, down, forward = camera_axes_world(pose)
    cam_dirs = intrinsics.pixel_directions()
    world_dirs = (
        cam_dirs[..., 0, None] * right
        + cam_dirs[..., 1, None] * down
        + cam_dirs[..., 2, None] * forward
    )
    origin_g = vmap.world_to_grid(pose.position)
    dirs_g = np.ascontiguousarray(
        world_dirs.reshape(-1, 3) / vmap.voxel_size, dtype=np.float64
    )
    t = _first_hits(vmap, origin_g, dirs_g, float(intrinsics.max_range))
    depth = t.reshape(intrinsics.height, intrinsics.width).copy()
    depth[depth <= 0.0] = np.nan
    return DepthImage(depth, pose)


def sample_cloud(vmap, pose, max_range, ray_count, nearest=False):
    """Omnidirectional range scan: first-hit points for a Fibonacci-sphere ray
    pattern, world frame.  Rays that hit nothing within range are omitted.

    With `nearest`, the cloud holds only the returns that can be the nearest
    to the pose: those at a range r <= r_min * (1 + 1e-9) + 1e-9 m, r_min the
    nearest range (see :func:`kernels.raycast_batch_numpy`).  The margin
    covers the rounding of the points and of `nearest_point`'s squared
    distances, so `nearest_point` from the pose returns the same point and
    distance, with the same lowest-index tie-break, as on the full cloud, and
    the cloud is empty iff the full one is.
    """
    if max_range <= 0:
        raise ValueError("max_range must be positive")
    pos = pose.position if isinstance(pose, Pose6) else np.asarray(pose, dtype=np.float64)
    dirs = fibonacci_directions(int(ray_count))
    origin_g = vmap.world_to_grid(pos)
    dirs_g = np.ascontiguousarray(dirs / vmap.voxel_size)
    t = _first_hits(vmap, origin_g, dirs_g, float(max_range), nearest=nearest)
    hit = t >= 0.0
    points = pos + dirs[hit] * t[hit, None]
    return PointCloud(points)


def nearest_distances(vmap, positions, max_range, ray_count):
    """Distance from each of the (G, 3) `positions` to the nearest return of
    its omnidirectional scan, NaN where the scan returns nothing.

    Per position this is exactly `viewing_distance(p, sample_cloud(vmap, p,
    max_range, ray_count, nearest=True))`: the same hit points
    `p + dirs * t` and the same squared distances as `nearest_point`.  The
    G scans are cast in one multi-origin `kernels.raycast_batch` call.
    """
    if max_range <= 0:
        raise ValueError("max_range must be positive")
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    dirs = fibonacci_directions(int(ray_count))
    dirs_g = np.tile(dirs / vmap.voxel_size, (len(positions), 1))
    t = _first_hits(vmap, vmap.world_to_grid(positions), dirs_g, float(max_range), nearest=True)
    t = t.reshape(len(positions), len(dirs))
    scan, ray = np.nonzero(t >= 0.0)
    pos = positions[scan]
    dx, dy, dz = ((pos + dirs[ray] * t[scan, ray][:, None]) - pos).T
    best = np.full(len(positions), np.inf)
    np.minimum.at(best, scan, dx * dx + dy * dy + dz * dz)
    out = np.full(len(positions), np.nan)
    found = best < np.inf
    out[found] = np.sqrt(best[found])
    return out


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
