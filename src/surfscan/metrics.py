"""Mission evaluation: viewpoint utility, path RMSE, viewing distance,
per-cycle logging and mission-level aggregates."""

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
# Unused here, but importable from this module: perfbench's tracer
# (`perfbench/tracing.py`) wraps `metrics.estimate_normal_map`.
from .depthcam import estimate_normal_map  # noqa: F401
from .geometry import NoSurfaceError, PathSegment, Pose6, nearest_point

__all__ = [
    "viewpoint_utility",
    "path_rmse",
    "viewing_distance",
    "MissionRecord",
    "MissionLog",
    "summarize",
    "write_plot_data",
]


def viewpoint_utility(depth, intrinsics, jump=0.3):
    """Mean cosine of the surface incidence angle over valid pixels.

    Per-pixel normals are estimated from the depth image; the incidence
    cosine compares each normal against the camera view direction (the
    optical axis), so a fronto-parallel surface scores 1 regardless of
    where it sits in the image.  The pixels and cosines are those of
    :func:`estimate_normal_map`'s finite normals, but only the cosines are
    computed (`kernels.incidence_cosines`).  Raises NoSurfaceError when no
    pixel has a valid normal.
    """
    if depth.height < 3 or depth.width < 3:
        raise ValueError("normal estimation needs at least a 3x3 image")
    cosines = kernels.incidence_cosines(
        depth.data,
        float(intrinsics.fx),
        float(intrinsics.fy),
        float(intrinsics.cx),
        float(intrinsics.cy),
        float(jump),
    )
    if cosines.size == 0:
        raise NoSurfaceError("no valid surface pixels in view")
    return float(np.abs(cosines).mean())


def path_rmse(a, b):
    """Root mean square position error between equally long paths."""
    a = a if isinstance(a, PathSegment) else PathSegment(a)
    b = b if isinstance(b, PathSegment) else PathSegment(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    d2 = np.sum((a.positions - b.positions) ** 2, axis=1)
    return float(np.sqrt(d2.mean()))


def viewing_distance(robot, cloud):
    """Distance from the robot to the nearest observed surface point."""
    pos = robot.position if isinstance(robot, Pose6) else np.asarray(robot, dtype=np.float64)
    _, dist = nearest_point(cloud, pos)
    return dist


@dataclass(frozen=True)
class MissionRecord:
    """One per-cycle log row.  Quantities that do not apply to the phase
    (e.g. path similarity while navigating) are NaN."""

    t: float
    phase: str  # navigate | inspect
    mode: str  # global | replanned
    f_d: float
    gamma_s: float
    deviation: float  # 1 - gamma_s
    rmse_pre: float
    rmse_post: float
    cursor: int
    visited: int
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
    replanned: int


_FIELDS = [f.name for f in fields(MissionRecord)]


class MissionLog:
    """Append-only record list with strictly increasing timestamps."""

    def __init__(self, meta=None):
        self.records = []
        self.meta = dict(meta or {})

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
            writer.writerow(_FIELDS)
            for rec in self.records:
                row = []
                for name in _FIELDS:
                    value = getattr(rec, name)
                    row.append(repr(float(value)) if isinstance(value, float) else str(value))
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path):
        """Read a log back from the published `mission_log.csv` format."""
        log = cls()
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != _FIELDS:
                raise ValueError(f"{path}: unexpected log header {header}")
            for row in reader:
                kwargs = {}
                for name, value in zip(_FIELDS, row):
                    if name in ("phase", "mode"):
                        kwargs[name] = value
                    elif name in ("cursor", "visited", "blocked", "replanned"):
                        kwargs[name] = int(value)
                    else:
                        kwargs[name] = float(value)
                log.append(MissionRecord(**kwargs))
        return log


# The viewing distance has reconverged once it lies within this fraction of
# d_view.
_RECONVERGE_FRAC = 0.1


def summarize(log, d_view=2.0):
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
