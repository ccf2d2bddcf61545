import math

import numpy as np
import pytest

from surfscan.geometry import (
    DegenerateGeometryError,
    NoSurfaceError,
    PathSegment,
    PolygonROI,
    RigidTransform,
    ViewPose4,
    apply_transform,
    discrete_frechet,
    kabsch_align,
    inside_in_plane,
    nearest_point,
    polygon_normal,
    pose_error,
    wrap_angle,
)

UNIT_SQUARE = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)


def point_in_polygon(roi, p):
    """`inside_in_plane` of the point `p` on the ROI's plane."""
    u, v = roi._basis
    rel = np.asarray(p, dtype=np.float64) - roi.centroid
    return inside_in_plane(roi, float(rel @ u), float(rel @ v))


# ---------------------------------------------------------------- oracles


def frechet_recursive(a, b):
    """Plain recursive definition of the discrete Frechet distance (no DP)."""

    def dist(i, j):
        return float(np.linalg.norm(a[i] - b[j]))

    def c(i, j):
        if i == 0 and j == 0:
            return dist(0, 0)
        if i == 0:
            return max(c(0, j - 1), dist(0, j))
        if j == 0:
            return max(c(i - 1, 0), dist(i, 0))
        return max(min(c(i - 1, j), c(i - 1, j - 1), c(i, j - 1)), dist(i, j))

    return c(len(a) - 1, len(b) - 1)


def random_rotation(rng):
    """Uniform random rotation from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# ---------------------------------------------------------------- wrap_angle


def test_wrap_angle_range():
    for a in np.linspace(-10, 10, 401):
        w = wrap_angle(a)
        assert -np.pi < w <= np.pi
        assert abs(np.sin(w) - np.sin(a)) < 1e-12
        assert abs(np.cos(w) - np.cos(a)) < 1e-12
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)


def test_pose_error_is_the_distance_and_the_shorter_yaw_turn():
    # The turn from 3.1 to -3.1 rad goes the short way across +-pi.
    pose, target = ViewPose4(1.0, 2.0, 0.5, 3.1), ViewPose4(4.0, 6.0, 0.5, -3.1)
    dist, dyaw = pose_error(pose, target)
    assert dist == 5.0
    assert dyaw == pytest.approx(2.0 * np.pi - 6.2, abs=1e-12)
    back = pose_error(target, pose)
    assert back[0] == dist and back[1] == pytest.approx(dyaw, abs=1e-12)


# ---------------------------------------------------------------- polygons


def test_polygon_normal_axis_aligned():
    assert np.allclose(polygon_normal(PolygonROI(UNIT_SQUARE)), [0, 0, 1])


def test_polygon_normal_winding_flip():
    assert np.allclose(polygon_normal(PolygonROI(UNIT_SQUARE[::-1])), [0, 0, -1])


def test_polygon_normal_vertical_plane():
    # Square in the x=2 plane, ordered so the normal faces -x.
    verts = np.array([[2, 0, 0], [2, 0, 1], [2, 1, 1], [2, 1, 0]], dtype=float)
    n = polygon_normal(PolygonROI(verts))
    # Cross product of the first two edges: (0,0,1) x (0,1,0) = (-1,0,0).
    assert np.allclose(n, [-1, 0, 0])


def test_polygon_degenerate_collinear():
    with pytest.raises((DegenerateGeometryError, ValueError)):
        PolygonROI([[0, 0, 0], [1, 0, 0], [2, 0, 0]])


def test_polygon_rejects_nonplanar():
    verts = UNIT_SQUARE.copy()
    verts[2, 2] = 0.01
    with pytest.raises(ValueError, match="plane"):
        PolygonROI(verts)


def test_polygon_rejects_self_intersection():
    # Asymmetric bowtie (nonzero area, so it survives the normal check).
    bowtie = np.array([[0, 0, 0], [2, 2, 0], [2, 0, 0], [0, 1, 0]], dtype=float)
    with pytest.raises(ValueError, match="self-intersecting"):
        PolygonROI(bowtie)


@pytest.mark.parametrize("coord", [(3, 0), (0, 2), (2, 1)], ids=["x", "z", "y"])
def test_polygon_rejects_vertices_too_far_apart(coord):
    # A vertex at 1e308 overflows the normal: the polygon used to build
    # with a NaN frame, which the viewpoint grid then failed to size.
    verts = np.array([[6.0, -3.0, 0.0], [6.0, 3.0, 0.0], [6.0, 3.0, 2.0], [6.0, -3.0, 2.0]])
    verts[coord] = 1e308
    with pytest.raises(ValueError, match="too far apart"):
        PolygonROI(verts)


def test_point_in_polygon_examples():
    roi = PolygonROI(UNIT_SQUARE)
    assert point_in_polygon(roi, [0.5, 0.5, 0])
    assert not point_in_polygon(roi, [2.0, 0.0, 0])
    assert point_in_polygon(roi, [1.0, 0.5, 0])  # edge counts as inside
    assert point_in_polygon(roi, [0.0, 0.0, 0])  # vertex counts as inside


def test_point_in_polygon_concave(rng):
    # L-shaped polygon: the notch is outside.
    verts = np.array(
        [[0, 0, 0], [2, 0, 0], [2, 1, 0], [1, 1, 0], [1, 2, 0], [0, 2, 0]], dtype=float
    )
    roi = PolygonROI(verts)
    assert point_in_polygon(roi, [0.5, 1.5, 0])
    assert not point_in_polygon(roi, [1.5, 1.5, 0])


def test_point_in_polygon_matches_halfplane_oracle(rng):
    # Random convex polygons: inside iff on the inner side of every edge.
    from scipy.spatial import ConvexHull

    for _ in range(20):
        cloud2 = rng.uniform(-2, 2, size=(10, 2))
        pts2 = cloud2[ConvexHull(cloud2).vertices]
        n = len(pts2)
        roi = PolygonROI(np.column_stack([pts2, np.zeros(n)]))
        for _ in range(20):
            q2 = rng.uniform(-2.5, 2.5, size=2)
            crosses = []
            for i in range(n):
                a, b = pts2[i], pts2[(i + 1) % n]
                crosses.append((b[0] - a[0]) * (q2[1] - a[1]) - (b[1] - a[1]) * (q2[0] - a[0]))
            crosses = np.array(crosses)
            if np.abs(crosses).min() < 1e-6:
                continue  # too close to an edge for the strict oracle
            expected = bool((crosses > 0).all() or (crosses < 0).all())
            assert point_in_polygon(roi, [q2[0], q2[1], 0.0]) == expected


# ---------------------------------------------------------------- nearest point


def test_nearest_point_examples():
    cloud = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    p, d = nearest_point(cloud, [0, 0, 0])
    assert np.allclose(p, [1, 0, 0]) and d == pytest.approx(1.0)

    p, d = nearest_point(np.array([[1.0, 0.0, 0.0]]), [1, 0, 0])
    assert np.allclose(p, [1, 0, 0]) and d == 0.0


def test_nearest_point_empty_cloud():
    with pytest.raises(NoSurfaceError):
        nearest_point(np.zeros((0, 3)), [0, 0, 0])


def nearest_point_loop(points, q):
    """Per-point scan: the squared distance of each point, the first of the
    smallest kept, and its correctly rounded square root."""
    best, best2 = -1, math.inf
    for i, (x, y, z) in enumerate(points.tolist()):
        dx, dy, dz = x - q[0], y - q[1], z - q[2]
        d2 = dx * dx + dy * dy + dz * dz
        if d2 < best2:
            best, best2 = i, d2
    return best, math.sqrt(best2)


def test_nearest_point_matches_brute_force(rng):
    pts = rng.normal(size=(1000, 3))
    cloud = pts
    for _ in range(50):
        q = rng.normal(size=3) * 2
        p, d = nearest_point(cloud, q)
        dists = np.linalg.norm(pts - q, axis=1)
        k = int(np.argmin(dists))
        assert d == pytest.approx(float(dists[k]), abs=1e-12)
        assert np.allclose(p, pts[k])
        i, d_loop = nearest_point_loop(pts, q.tolist())
        assert d == d_loop and np.array_equal(p, pts[i])


def test_nearest_point_tie_breaks_by_index():
    cloud = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    p, _ = nearest_point(cloud, [0, 0, 0])
    assert np.allclose(p, [1, 0, 0])


# ---------------------------------------------------------------- frechet


def test_frechet_identical_paths():
    a = PathSegment([[0, 0, 0], [1, 0, 0]])
    assert discrete_frechet(a, a) == 0.0


def test_frechet_parallel_offset():
    a = PathSegment([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    b = PathSegment([[0, 1, 0], [1, 1, 0], [2, 1, 0]])
    assert discrete_frechet(a, b) == pytest.approx(1.0)


def test_frechet_ignores_yaw():
    a = PathSegment([[0, 0, 0, 0.0], [1, 0, 0, 0.0]])
    b = PathSegment([[0, 0, 0, 3.0], [1, 0, 0, -2.0]])
    assert discrete_frechet(a, b) == 0.0


def test_frechet_matches_recursive_definition(rng):
    for _ in range(100):
        na, nb = rng.integers(1, 6, size=2)
        a = rng.normal(size=(na, 3))
        b = rng.normal(size=(nb, 3))
        got = discrete_frechet(PathSegment(a), PathSegment(b))
        assert got == pytest.approx(frechet_recursive(a, b), abs=1e-12)


def test_frechet_symmetry_and_translation_invariance(rng):
    for _ in range(50):
        a = rng.normal(size=(rng.integers(1, 8), 3))
        b = rng.normal(size=(rng.integers(1, 8), 3))
        f = discrete_frechet(PathSegment(a), PathSegment(b))
        assert f == pytest.approx(discrete_frechet(PathSegment(b), PathSegment(a)), abs=1e-12)
        t = rng.normal(size=3)
        assert f == pytest.approx(
            discrete_frechet(PathSegment(a + t), PathSegment(b + t)), abs=1e-9
        )
        # Endpoint pairs are forced by every coupling.
        assert f >= np.linalg.norm(a[0] - b[0]) - 1e-12
        assert f >= np.linalg.norm(a[-1] - b[-1]) - 1e-12


def test_frechet_rejects_empty():
    with pytest.raises(ValueError):
        PathSegment([])


# ---------------------------------------------------------------- kabsch


def test_kabsch_identity():
    seg = PathSegment([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    tf = kabsch_align(seg, seg)
    assert np.allclose(tf.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(tf.translation, 0, atol=1e-12)


def test_kabsch_recovers_known_transform():
    src = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    th = np.pi / 2
    rz = np.array([[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1]])
    tgt = src @ rz.T + np.array([1.0, 2.0, 3.0])
    tf = kabsch_align(PathSegment(src), PathSegment(tgt))
    assert np.abs(tf.rotation - rz).max() < 1e-9
    assert np.abs(tf.translation - [1, 2, 3]).max() < 1e-9
    assert np.abs(tf.apply(src) - tgt).max() < 1e-9


def test_kabsch_reflection_still_proper(rng):
    src = rng.normal(size=(6, 3))
    tgt = src.copy()
    tgt[:, 0] *= -1.0  # mirrored target
    tf = kabsch_align(PathSegment(src), PathSegment(tgt))
    assert np.linalg.det(tf.rotation) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(tf.rotation @ tf.rotation.T - np.eye(3)).max() < 1e-9


def test_kabsch_collinear_minimal_rotation():
    src = np.array([[0, 0, 0], [0, 1, 0], [0, 2, 0], [0, 3, 0]], dtype=float)
    tgt = src + np.array([1.0, 0.5, 0.0])
    tf = kabsch_align(PathSegment(src), PathSegment(tgt))
    assert np.linalg.det(tf.rotation) == pytest.approx(1.0, abs=1e-9)
    # Pure translation is recovered exactly.
    assert np.abs(tf.apply(src) - tgt).max() < 1e-9
    # Between two skew lines the rotation is the minimal one: it maps the
    # source line onto the target line and fixes their common normal,
    # which the full-rank SVD formula on this rank-1 covariance does not.
    a = np.array([1.0, 2.0, 0.5]) / np.linalg.norm([1.0, 2.0, 0.5])
    b = np.array([0.3, -1.0, 2.0]) / np.linalg.norm([0.3, -1.0, 2.0])
    k = np.arange(4.0)[:, None]
    tf = kabsch_align(PathSegment(k * a), PathSegment(k * b + [1.0, 2.0, 3.0]))
    axis = np.cross(a, b) / np.linalg.norm(np.cross(a, b))
    assert np.abs(tf.rotation @ a - b).max() < 1e-12
    assert np.abs(tf.rotation @ axis - axis).max() < 1e-12
    assert np.abs(tf.apply(k * a) - (k * b + [1.0, 2.0, 3.0])).max() < 1e-12


def test_kabsch_length_mismatch_and_minimum():
    a = PathSegment(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="mismatch"):
        kabsch_align(a, PathSegment(np.zeros((4, 3))))
    with pytest.raises(ValueError, match="at least 3"):
        kabsch_align(PathSegment(np.zeros((2, 3))), PathSegment(np.zeros((2, 3))))


def test_kabsch_beats_random_candidates(rng):
    src = rng.normal(size=(8, 3))
    tgt = rng.normal(size=(8, 3))
    tf = kabsch_align(PathSegment(src), PathSegment(tgt))
    best = np.sum((tf.apply(src) - tgt) ** 2)
    for _ in range(100):
        r = random_rotation(rng)
        t = rng.normal(size=3)
        cand = np.sum((src @ r.T + t - tgt) ** 2)
        assert best <= cand + 1e-9


# ---------------------------------------------------------------- transforms


def test_apply_transform_identity_and_translation():
    path = PathSegment([[0, 0, 0, 0.0]])
    out = apply_transform(RigidTransform(np.eye(3), np.zeros(3)), path)
    assert np.allclose(out.as_array(), path.as_array())

    shift = RigidTransform(np.eye(3), [1.0, 0.0, 0.0])
    out = apply_transform(shift, path)
    assert np.allclose(out.as_array(), [[1, 0, 0, 0]])


def test_apply_transform_rotation_updates_yaw():
    th = np.pi / 2
    rz = np.array([[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1]])
    tf = RigidTransform(rz, [0.0, 0.0, 0.0])
    out = apply_transform(tf, PathSegment([[1, 0, 0, 0.0]]))
    pose = out[0]
    assert np.allclose(pose.position, [0, 1, 0], atol=1e-12)
    assert pose.psi == pytest.approx(np.pi / 2)


def test_rigid_transform_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    reflect = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="determinant"):
        RigidTransform(reflect, np.zeros(3))


def test_view_pose_normalizes_yaw():
    assert ViewPose4(0, 0, 0, 3 * np.pi).psi == pytest.approx(np.pi)
