"""Mission evaluation: surface normals and viewpoint utility of depth
frames, path RMSE, viewing distance, per-cycle logging and mission-level
aggregates.

A depth frame is the (H, W) array `world.render_depth` returns, in the
camera frame that module documents; a batch of scans is the (G, 3) array
of their nearest returns that `world.sample_cloud` returns."""

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .geometry import NoSurfaceError, nearest_point  # noqa: F401 (perfbench's tracer binds metrics.nearest_point)

__all__ = [
    "DEPTH_JUMP",
    "estimate_normal_map",
    "viewpoint_utility",
    "path_rmse",
    "viewing_distance",
    "MissionRecord",
    "MissionLog",
    "summarize",
    "write_plot_data",
]

# Depth difference (meters) between neighbouring pixels beyond which they
# lie across a discontinuity, so no normal is estimated across them.
DEPTH_JUMP = 0.3


def _stencil_args(depth, intrinsics):
    """The normal kernels' arguments for the (H, W) depth image `depth` seen
    through `intrinsics`, with the discontinuity threshold `DEPTH_JUMP`."""
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2 or min(depth.shape) < 3:
        raise ValueError(f"normal estimation needs a 2-D image of at least 3x3 pixels, got shape {depth.shape}")
    return depth, float(intrinsics.fx), float(intrinsics.fy), float(intrinsics.cx), float(intrinsics.cy), DEPTH_JUMP


def estimate_normal_map(depth, intrinsics):
    """Per-pixel unit surface normals in the camera frame.

    Normals come from the cross product of central-difference tangents of
    the back-projected points and are oriented to face the camera.  Border
    pixels, pixels with invalid neighbors and pixels across depth
    discontinuities larger than `DEPTH_JUMP` meters are NaN.
    """
    return kernels.normals_from_depth(*_stencil_args(depth, intrinsics))


def viewpoint_utility(depth, intrinsics):
    """Mean cosine of the surface incidence angle over valid pixels.

    Per-pixel normals are estimated from the depth image; the incidence
    cosine compares each normal against the camera view direction (the
    optical axis), so a fronto-parallel surface scores 1 regardless of
    where it sits in the image.  The pixels and cosines are those of
    :func:`estimate_normal_map`'s finite normals, but only the cosines are
    computed (`kernels.incidence_cosines`).  Raises NoSurfaceError when no
    pixel has a valid normal.
    """
    cosines = kernels.incidence_cosines(*_stencil_args(depth, intrinsics))
    if cosines.size == 0:
        raise NoSurfaceError("no valid surface pixels in view")
    return float(np.abs(cosines).mean())


def path_rmse(a, b):
    """Root mean square position error between equally long `PathSegment`s."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    d2 = np.sum((a.positions - b.positions) ** 2, axis=1)
    return float(np.sqrt(d2.mean()))


def viewing_distance(positions, nearest):
    """Distance from each of the (G, 3) `positions` to its scan's nearest
    return, row g of the (G, 3) `nearest` (`world.sample_cloud`): a (G,)
    float64 array, NaN for a scan that saw nothing (a NaN row).

    It evaluates `geometry.nearest_point`'s squared-distance expression, so
    each distance is bitwise the one `nearest_point` gives for that return.
    """
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    if len(nearest) != len(positions):
        raise ValueError(f"{len(nearest)} scans for {len(positions)} positions")
    dx, dy, dz = (nearest - positions).T
    return np.sqrt(dx * dx + dy * dy + dz * dz)


@dataclass(frozen=True)
class MissionRecord:
    """One per-cycle log row.  Quantities that do not apply to the phase
    (e.g. path similarity while navigating) are NaN.  `deviation`, `visited`
    and `replanned` are derived from the stored fields."""

    t: float
    phase: str  # navigate | inspect
    mode: str  # global | replanned
    f_d: float
    gamma_s: float
    rmse_pre: float
    rmse_post: float
    cursor: int
    viewing_distance: float
    utility: float
    x: float
    y: float
    z: float
    psi: float
    ref_x: float
    ref_y: float
    ref_z: float
    ref_psi: float
    blocked: int

    @property
    def deviation(self):
        return 1.0 - self.gamma_s

    @property
    def visited(self):
        return self.cursor  # the viewpoints of the task visited so far

    @property
    def replanned(self):
        return int(self.mode == "replanned")


# The columns of `mission_log.csv`, in order.
_COLUMNS = (
    "t", "phase", "mode", "f_d", "gamma_s", "deviation", "rmse_pre", "rmse_post", "cursor", "visited",
    "viewing_distance", "utility", "x", "y", "z", "psi", "ref_x", "ref_y", "ref_z", "ref_psi", "blocked", "replanned",
)


class MissionLog:
    """Append-only record list with strictly increasing timestamps."""

    def __init__(self):
        self.records = []
        self.meta = {}

    def append(self, record):
        if self.records and record.t <= self.records[-1].t:
            raise ValueError(
                f"timestamps must strictly increase: {record.t} after {self.records[-1].t}"
            )
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def inspect_records(self):
        return [r for r in self.records if r.phase == "inspect"]

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_COLUMNS)
            for rec in self.records:
                row = []
                for name in _COLUMNS:
                    value = getattr(rec, name)
                    row.append(repr(float(value)) if isinstance(value, float) else str(value))
                writer.writerow(row)


# The viewing distance has reconverged once it lies within this fraction of
# d_view.
_RECONVERGE_FRAC = 0.1


def summarize(log, d_view):
    """Mission aggregates: duration, utility stats, replanned share, first
    reconvergence time of the viewing distance, completion status.  An empty
    log (a mission aborted before its first control step) has duration 0."""
    inspect = log.inspect_records()
    utilities = [r.utility for r in inspect if math.isfinite(r.utility)]
    vd_tol = _RECONVERGE_FRAC * d_view
    reconverge = None
    for r in inspect:
        if math.isfinite(r.viewing_distance) and abs(r.viewing_distance - d_view) < vd_tol:
            reconverge = r.t
            break
    replanned = [r.replanned for r in inspect]
    summary = {
        "duration_s": log.records[-1].t if log.records else 0.0,
        "cycles": len(log),
        "inspect_cycles": len(inspect),
        "mean_utility": float(np.mean(utilities)) if utilities else None,
        "min_utility": float(np.min(utilities)) if utilities else None,
        "pct_replanned": 100.0 * float(np.mean(replanned)) if replanned else 0.0,
        "time_to_reconverge_s": reconverge,
    }
    summary.update(log.meta)
    return summary


def write_plot_data(log, out_dir):
    """Gnuplot-style column files for the main mission traces."""
    out_dir.mkdir(parents=True, exist_ok=True)

    def dump(name, header, rows):
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            for row in rows:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")

    inspect = log.inspect_records()
    dump(
        "similarity.dat",
        "t gamma_s deviation f_d",
        [(r.t, r.gamma_s, r.deviation, r.f_d) for r in inspect],
    )
    dump(
        "rmse.dat",
        "t rmse_pre rmse_post",
        [(r.t, r.rmse_pre, r.rmse_post) for r in inspect],
    )
    dump(
        "viewing_distance.dat",
        "t viewing_distance",
        [(r.t, r.viewing_distance) for r in log.records],
    )
    dump("utility.dat", "t utility", [(r.t, r.utility) for r in log.records])
