"""Geometric primitives: poses, paths, polygons, nearest points, rigid
alignment.

3-vectors are plain numpy float64 arrays of shape (3,), and point clouds
(N, 3) float64 arrays.  Angles are radians
normalized to (-pi, pi].  All functions are pure; the container types are
frozen and safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels

__all__ = [
    "NoSurfaceError",
    "DegenerateGeometryError",
    "wrap_angle",
    "ViewPose4",
    "pose_error",
    "PathSegment",
    "PolygonROI",
    "RigidTransform",
    "polygon_normal",
    "polygon_basis",
    "nearest_point",
    "discrete_frechet",
    "kabsch_align",
    "apply_transform",
]

PLANE_TOL = 1e-6  # how far a point may lie off an ROI's plane, m
BOUNDARY_EPS = 1e-9  # how near an ROI's edge a point counts as on it, m


class NoSurfaceError(RuntimeError):
    """No surface data available (empty cloud / no valid pixels)."""


class DegenerateGeometryError(ValueError):
    """Input geometry does not determine the requested quantity."""


def wrap_angle(a):
    """Normalize an angle (or array of angles) to (-pi, pi]."""
    w = np.mod(a, 2.0 * np.pi)
    if np.isscalar(a) or np.ndim(a) == 0:
        return float(w - 2.0 * np.pi) if w > np.pi else float(w)
    w = np.asarray(w)
    w[w > np.pi] -= 2.0 * np.pi
    return w


def _as_vec3(p, name):
    v = np.asarray(p, dtype=np.float64).reshape(-1)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {np.shape(p)}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite components: {v}")
    return v


@dataclass(frozen=True)
class ViewPose4:
    """4-DOF pose, position in meters plus yaw in radians: the robot's pose
    and every reference view pose.  The robot and its camera stay level, so
    there is no roll or pitch."""

    x: float
    y: float
    z: float
    psi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "psi", wrap_angle(float(self.psi)))
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(np.isfinite([self.x, self.y, self.z, self.psi])):
            raise ValueError("ViewPose4 components must be finite")

    @property
    def position(self):
        return np.array([self.x, self.y, self.z])

    def as_array(self):
        return np.array([self.x, self.y, self.z, self.psi])


def pose_error(pose, target):
    """Distance from the `ViewPose4` `pose` to the `ViewPose4` `target` and
    the magnitude of the yaw turn between them, in [0, pi]."""
    return float(np.linalg.norm(target.position - pose.position)), abs(wrap_angle(target.psi - pose.psi))


class PathSegment:
    """Ordered, non-empty sequence of view poses, stored as an (n, 4) array."""

    __slots__ = ("_data",)

    def __init__(self, poses):
        if isinstance(poses, PathSegment):
            data = poses._data.copy()
        else:
            poses = list(poses)
            if len(poses) == 0:
                raise ValueError("PathSegment must contain at least one pose")
            if isinstance(poses[0], ViewPose4):
                data = np.array([p.as_array() for p in poses], dtype=np.float64)
            else:
                data = np.asarray(poses, dtype=np.float64)
                if data.ndim != 2 or data.shape[1] not in (3, 4):
                    raise ValueError("pose rows must be (x, y, z[, psi])")
                if data.shape[1] == 3:
                    data = np.hstack([data, np.zeros((len(data), 1))])
                data = data.copy()
        if data.shape[0] == 0:
            raise ValueError("PathSegment must contain at least one pose")
        if not np.all(np.isfinite(data)):
            raise ValueError("PathSegment poses must be finite")
        data[:, 3] = wrap_angle(data[:, 3])
        data.setflags(write=False)
        self._data = data

    @property
    def positions(self):
        return self._data[:, :3]

    @property
    def yaws(self):
        return self._data[:, 3]

    def as_array(self):
        return self._data

    def __len__(self):
        return self._data.shape[0]

    def __getitem__(self, i):
        row = self._data[i]
        if row.ndim == 1:
            return ViewPose4(*row)
        return PathSegment(row)

    def __iter__(self):
        return (ViewPose4(*row) for row in self._data)

    def __repr__(self):
        return f"PathSegment({len(self)} poses)"


def _segments_intersect_2d(p1, p2, p3, p4):
    """Proper or touching intersection of segments p1-p2 and p3-p4 in 2D."""
    eps = 1e-12

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_seg(a, b, c):
        return (
            min(a[0], b[0]) - eps <= c[0] <= max(a[0], b[0]) + eps
            and min(a[1], b[1]) - eps <= c[1] <= max(a[1], b[1]) + eps
        )

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    if ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and (
        (d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)
    ):
        return True
    if abs(d1) <= eps and on_seg(p3, p4, p1):
        return True
    if abs(d2) <= eps and on_seg(p3, p4, p2):
        return True
    if abs(d3) <= eps and on_seg(p1, p2, p3):
        return True
    if abs(d4) <= eps and on_seg(p1, p2, p4):
        return True
    return False


@dataclass(frozen=True, eq=False)
class PolygonROI:
    """Simple planar polygon in 3D; normal orientation follows the winding.
    Two polygons are equal when their vertices are."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        if verts.shape[0] < 3:
            raise ValueError("PolygonROI needs at least 3 vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError("PolygonROI vertices must be finite")
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        n = polygon_normal(verts)  # raises for degenerate windings
        with np.errstate(all="ignore"):  # an overflowing frame is rejected below
            centroid = verts.mean(axis=0)
            off = np.abs((verts - centroid) @ n)
            u, v = _plane_basis(verts, n)
            pts2 = np.column_stack([(verts - centroid) @ u, (verts - centroid) @ v])
        if not np.all(np.isfinite(pts2)):
            raise ValueError("PolygonROI in-plane frame is not finite: the vertices lie too far apart")
        if off.max() > PLANE_TOL:
            raise ValueError(
                f"vertices deviate {off.max():.3g} m from best-fit plane "
                f"(tolerance {PLANE_TOL:g})"
            )
        # The ROI frame, built once: `inside_in_plane` reads it on every
        # call, the in-plane vertices as plain floats.
        poly = tuple(map(tuple, pts2.tolist()))
        for name, value in (("_normal", n), ("_centroid", centroid), ("_basis", (u, v)), ("_poly2", poly)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        # Reject self-intersections, in plain floats (which overflow silently).
        m = len(poly)
        for i in range(m):
            a1, a2 = poly[i], poly[(i + 1) % m]
            for j in range(i + 1, m):
                if j == i or (j + 1) % m == i or (i + 1) % m == j:
                    continue
                b1, b2 = poly[j], poly[(j + 1) % m]
                if _segments_intersect_2d(a1, a2, b1, b2):
                    raise ValueError("PolygonROI is self-intersecting")

    @property
    def normal(self):
        return self._normal

    @property
    def centroid(self):
        return self._centroid

    def __eq__(self, other):
        return isinstance(other, PolygonROI) and np.array_equal(self.vertices, other.vertices)

    def __hash__(self):
        return hash(self.vertices.tobytes())


def polygon_normal(roi):
    """Unit normal of the polygon plane, oriented by vertex winding
    (right-hand rule); a `PolygonROI` returns the normal it stored when
    built.  Raises DegenerateGeometryError for collinear input or a normal
    that overflows."""
    if isinstance(roi, PolygonROI):
        return roi.normal
    verts = np.asarray(roi, dtype=np.float64)
    # Newell's method: exact plane normal for planar polygons, winding-signed.
    nxt = np.roll(verts, -1, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.array(
            [
                np.sum((verts[:, 1] - nxt[:, 1]) * (verts[:, 2] + nxt[:, 2])),
                np.sum((verts[:, 2] - nxt[:, 2]) * (verts[:, 0] + nxt[:, 0])),
                np.sum((verts[:, 0] - nxt[:, 0]) * (verts[:, 1] + nxt[:, 1])),
            ]
        )
        norm = np.linalg.norm(n)
    if not 1e-12 <= norm < np.inf:
        raise DegenerateGeometryError("polygon vertices are collinear, degenerate or too far apart")
    return n / norm


def polygon_basis(roi):
    """In-plane orthonormal axes (u, v) of a `PolygonROI`, with u the
    projection of the world horizontal and v completing a right-handed frame
    with the normal.

    For near-horizontal polygons (normal within ~1 deg of vertical) the
    world-horizontal projection is ill-defined; the plane's principal axes
    are used instead.
    """
    return roi._basis


def _plane_basis(verts, n):
    """`polygon_basis` of the vertices `verts` with unit normal `n`."""
    up = np.array([0.0, 0.0, 1.0])
    u = np.cross(up, n)
    norm = np.linalg.norm(u)
    if norm > 1e-2:
        u = u / norm
        v = np.cross(n, u)
        v /= np.linalg.norm(v)
        return u, v
    centered = verts - verts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    u = vt[0] / np.linalg.norm(vt[0])
    v = np.cross(n, u)
    v /= np.linalg.norm(v)
    return u, v


def inside_in_plane(roi, px, py):
    """True iff the point at in-plane coordinates (px, py), plain floats
    along the ROI's basis from its centroid, lies inside the polygon or
    within `BOUNDARY_EPS` of its boundary (crossing-number test)."""
    poly = roi._poly2
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


def nearest_point(cloud, q):
    """Point of the (N, 3) array `cloud` nearest to q and its distance; ties
    keep the lowest index."""
    if len(cloud) == 0:
        raise NoSurfaceError("nearest_point on an empty cloud")
    q = _as_vec3(q, "query")
    dx, dy, dz = (cloud - q).T
    d2 = dx * dx + dy * dy + dz * dz
    idx = int(np.argmin(d2))
    return cloud[idx].copy(), float(np.sqrt(d2[idx]))


def discrete_frechet(a, b):
    """Discrete Frechet distance between two `PathSegment`s (position
    components only)."""
    return float(kernels.frechet_dp(np.ascontiguousarray(a.positions), np.ascontiguousarray(b.positions)))


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid transform p -> R p + t with R in SO(3)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = _as_vec3(self.translation, "translation")
        if np.abs(r @ r.T - np.eye(3)).max() > 1e-9:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation determinant is not +1")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, points):
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def yaw_angle(self):
        """Z-axis rotation angle of the rotation matrix."""
        return float(np.arctan2(self.rotation[1, 0], self.rotation[0, 0]))


def _axis_align_rotation(a, b):
    """Minimal rotation taking unit vector a onto unit vector b."""
    c = float(np.dot(a, b))
    v = np.cross(a, b)
    s = np.linalg.norm(v)
    if s < 1e-12:
        if c > 0.0:
            return np.eye(3)
        # Antiparallel: rotate pi about a deterministic perpendicular.
        helper = np.array([1.0, 0.0, 0.0])
        if abs(a[0]) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        axis = np.cross(a, helper)
        axis /= np.linalg.norm(axis)
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx * ((1.0 - c) / (s * s))


def kabsch_align(source, target):
    """Least-squares proper rigid transform aligning the `PathSegment`
    source onto the `PathSegment` target.

    Correspondence is index-wise over positions; both paths must have the
    same length, at least 3.  The determinant correction keeps the result in
    SO(3) even for reflected targets.  For collinear (rank-deficient) inputs
    the rotation is the minimal rotation mapping the source principal axis
    onto the target's, which is one of the equally optimal minimizers and
    keeps yaw adjustments well-behaved.
    """
    src = source.positions
    tgt = target.positions
    if src.shape != tgt.shape:
        raise ValueError(f"length mismatch: {src.shape[0]} vs {tgt.shape[0]}")
    if src.shape[0] < 3:
        raise ValueError("kabsch_align needs at least 3 point pairs")
    cs = src.mean(axis=0)
    ct = tgt.mean(axis=0)
    a = src - cs
    b = tgt - ct
    h = a.T @ b
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-12 + 1e-9 * s[0]:
        # Rank-deficient covariance: rotation about the dominant axis is
        # unconstrained.  Taking R v1 = u1 (the leading singular pair)
        # attains the maximal trace(R H) = s[0], so this is one of the
        # equally optimal minimizers, and the minimal such rotation keeps
        # yaw adjustments well-behaved.
        if s[0] <= 1e-12:
            rot = np.eye(3)
        else:
            # Full-rank Kabsch R = V D U^T maps u1 onto v1; do the same here.
            rot = _axis_align_rotation(u[:, 0] / np.linalg.norm(u[:, 0]), vt[0] / np.linalg.norm(vt[0]))
    else:
        d = np.sign(np.linalg.det(vt.T @ u.T))
        rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
        # Clean up orthonormality drift from the SVD products.
        uu, _, vv = np.linalg.svd(rot)
        rot = uu @ vv
        if np.linalg.det(rot) < 0:
            uu[:, 2] *= -1.0
            rot = uu @ vv
    t = ct - rot @ cs
    return RigidTransform(rot, t)


def apply_transform(transform, path):
    """Map a `PathSegment` through a rigid transform; yaw of each pose is
    incremented by the transform's z-axis rotation angle."""
    pos = transform.apply(path.positions)
    yaws = wrap_angle(path.yaws + transform.yaw_angle())
    return PathSegment(np.column_stack([pos, yaws]))
