"""Mission scenario configuration: YAML schema, validation, demo scenes.

A scenario bundles the world (historical map plus an optional delta or
pre-built current map), the inspection tasks, the robot, and all planner
parameters.  The built-in demos synthesize small box-world scenes covering
the standard evaluation setups without external map files.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .depthcam import CameraIntrinsics
from .geometry import Pose6, PolygonROI
from .global_plan import InspectionTask, ViewConstraints
from .world import Box, MorphologyDelta, Scene, VoxelMap, load_map

__all__ = ["ScenarioConfig", "load_scenario", "demo_scenario", "build_scene", "DEMO_NAMES"]

SCHEMA_VERSION = 1
DEMO_NAMES = ("nominal", "receding", "obstacle", "receding_full")


@dataclass(frozen=True)
class MapSpec:
    """Where a map comes from: an xyz file or inline boxes."""

    file: str = None
    boxes: tuple = ()

    def build(self, voxel_size, bounds, base_dir=None):
        if self.file:
            path = Path(self.file)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            return load_map(path, voxel_size, bounds=bounds, padding=1.0 if bounds is None else 0.0)
        if not self.boxes:
            raise ValueError("map spec needs either a file or boxes")
        return VoxelMap.from_boxes(self.boxes, voxel_size, bounds=bounds)


@dataclass(frozen=True)
class TaskSpec:
    id: str
    vertices: tuple

    def to_task(self, constraints):
        return InspectionTask(
            id=self.id, roi=PolygonROI(np.asarray(self.vertices, dtype=np.float64)), constraints=constraints
        )


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    mode: str = "adaptive"  # adaptive | baseline
    seed: int = 1
    voxel_size: float = 0.1
    inflation: float = 0.5
    dt: float = 0.1
    max_sim_time: float = 120.0
    gamma_t: float = 0.5
    horizon: int = 5
    pos_tol: float = 0.3
    yaw_tol: float = 0.2
    z_band: tuple = (0.6, 0.6)
    start: tuple = (0.0, 0.0, 0.6, 0.0)  # x y z psi
    v_max: float = 0.8
    w_max: float = 1.0
    view: ViewConstraints = field(default_factory=ViewConstraints)
    camera: CameraIntrinsics = field(
        default_factory=lambda: CameraIntrinsics(
            alpha=np.deg2rad(69.5), beta=np.deg2rad(45.0), width=80, height=60, max_range=5.0
        )
    )
    sense_range: float = 12.0
    sense_rays: int = 2048
    odom_sigma_xy: float = 0.0
    odom_sigma_psi: float = 0.0
    bounds: tuple = None  # ((lo), (hi)) world AABB for the voxel grids
    historical: MapSpec = None
    current: MapSpec = None
    delta: MorphologyDelta = None
    tasks: tuple = ()

    def __post_init__(self):
        if self.mode not in ("adaptive", "baseline"):
            raise ValueError(f"mode must be adaptive or baseline, got {self.mode!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name, value, sign in (
            ("voxel_size", self.voxel_size, "positive"),
            ("inflation", self.inflation, "non-negative"),
            ("dt", self.dt, "positive"),
            ("max_sim_time", self.max_sim_time, "positive"),
            ("pos_tol", self.pos_tol, "positive"),
            ("yaw_tol", self.yaw_tol, "positive"),
            ("robot.v_max", self.v_max, "non-negative"),
            ("robot.w_max", self.w_max, "non-negative"),
            ("camera.max_range", self.camera.max_range, "positive"),
            ("sensing.range", self.sense_range, "positive"),
            ("sensing.odom_sigma_xy", self.odom_sigma_xy, "non-negative"),
            ("sensing.odom_sigma_psi", self.odom_sigma_psi, "non-negative"),
        ):
            _check_number(name, value, sign)
        if not (0.0 < self.gamma_t <= 1.0):
            raise ValueError("gamma_t must lie in (0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.sense_rays < 1:
            raise ValueError(f"sensing.rays must be at least 1, got {self.sense_rays}")
        if self.bounds is not None:
            lo = _finite_tuple(self.bounds[0], 3, "maps.bounds.lo", "x y z")
            hi = _finite_tuple(self.bounds[1], 3, "maps.bounds.hi", "x y z")
            if not all(l < h for l, h in zip(lo, hi)):
                raise ValueError(f"maps.bounds must have lo < hi on every axis, got lo {list(lo)}, hi {list(hi)}")
            object.__setattr__(self, "bounds", (lo, hi))
        object.__setattr__(self, "start", _finite_tuple(self.start, 4, "robot.start", "x y z psi"))
        if self.z_band is not None:
            lo, hi = _finite_tuple(self.z_band, 2, "z_band", "lo hi")
            if lo > hi:
                raise ValueError(f"z_band must have lo <= hi, got [{lo}, {hi}]")
            object.__setattr__(self, "z_band", (lo, hi))
        if not self.tasks:
            raise ValueError("no tasks defined")
        if self.historical is None:
            raise ValueError("historical map is required")

    @property
    def start_pose(self):
        x, y, z, psi = self.start
        return Pose6(x, y, z, 0.0, 0.0, psi)

    def task_objects(self):
        return [t.to_task(self.view) for t in self.tasks]


def _finite_tuple(value, n, name, fields):
    """`value` as a tuple of `n` finite floats, else ValueError naming
    `name` and its `fields`."""
    try:
        out = tuple(float(v) for v in value)
    except (TypeError, ValueError):
        out = ()
    if len(out) != n or not all(map(math.isfinite, out)):
        raise ValueError(f"{name} must be {n} finite numbers ({fields}), got {value!r}")
    return out


def _check_number(name, value, sign):
    """ValueError naming `name` unless `value` is finite and, as `sign`
    says, non-negative or positive."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0 or (value == 0 and sign == "positive"):
        raise ValueError(f"{name} must be {sign}, got {value}")


def build_scene(cfg, base_dir=None):
    """Materialize the world of a scenario config."""
    historical = cfg.historical.build(cfg.voxel_size, cfg.bounds, base_dir)
    if cfg.current is not None:
        current = cfg.current.build(cfg.voxel_size, cfg.bounds, base_dir)
        return Scene(historical=historical, current=current)
    if cfg.delta is not None:
        return Scene.from_delta(historical, cfg.delta)
    return Scene.unchanged(historical)


# Allowed keys of every mapping in a scenario file, by key path ("[]" for
# the entries of a list).
_SCHEMA = {
    "": {
        "version", "name", "mode", "seed", "voxel_size", "inflation", "dt", "max_sim_time",
        "gamma_t", "horizon", "pos_tol", "yaw_tol", "z_band",
        "robot", "view", "camera", "sensing", "maps", "tasks",
    },
    "robot": {"start", "v_max", "w_max"},
    "view": {"d_view", "gamma_h", "gamma_v", "alpha_deg", "beta_deg"},
    "camera": {"alpha_deg", "beta_deg", "width", "height", "max_range"},
    "sensing": {"range", "rays", "odom_sigma_xy", "odom_sigma_psi"},
    "maps": {"bounds", "historical", "current", "delta"},
    "maps.bounds": {"lo", "hi"},
    "maps.historical": {"file", "boxes"},
    "maps.current": {"file", "boxes"},
    "box": {"lo", "hi"},
    "maps.delta": {"removals", "additions"},
    "tasks[]": {"id", "vertices"},
}


def _mapping(value, where, schema=None):
    """`value` checked against the keys `_SCHEMA` allows at `where` (or at
    `schema`); a missing section (None) reads as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{where or 'scenario'} must be a mapping")
    allowed = _SCHEMA[where if schema is None else schema]
    unknown = sorted(str(k) for k in value if k not in allowed)
    if unknown:
        prefix = f"{where}." if where else ""
        raise ValueError(f"unknown key {prefix}{unknown[0]} (allowed: {', '.join(sorted(allowed))})")
    return value


def _parse_box(entry, where):
    entry = _mapping(entry, where, "box")
    return Box(tuple(entry["lo"]), tuple(entry["hi"]))


def _parse_boxes(entries, where):
    return tuple(_parse_box(b, f"{where}[{i}]") for i, b in enumerate(entries or ()))


def _parse_map_spec(entry, where):
    if entry is None:
        return None
    entry = _mapping(entry, where)
    if "file" in entry:
        return MapSpec(file=str(entry["file"]))
    if "boxes" in entry:
        return MapSpec(boxes=_parse_boxes(entry["boxes"], f"{where}.boxes"))
    raise ValueError("map spec must contain 'file' or 'boxes'")


# libyaml's parser when PyYAML was built with it (several times faster),
# else the pure-Python one; both build the same documents.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path):
    """Parse and validate a YAML scenario file."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: malformed YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: scenario must be a mapping")
    version = raw.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema version {version!r} (expected {SCHEMA_VERSION})")

    try:
        return _parse_scenario(raw, path)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed scenario: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_scenario(raw, path):
    raw = _mapping(raw, "")
    view_raw = _mapping(raw.get("view"), "view")
    # Checked before the constructors run, so that the error names the section.
    d_view = float(view_raw.get("d_view", 2.0))
    _check_number("view.d_view", d_view, "positive")
    view = ViewConstraints(
        d_view=d_view,
        gamma_h=float(view_raw.get("gamma_h", 0.6)),
        gamma_v=float(view_raw.get("gamma_v", 0.6)),
        alpha=np.deg2rad(float(view_raw.get("alpha_deg", 69.5))),
        beta=np.deg2rad(float(view_raw.get("beta_deg", 45.0))),
    )
    cam_raw = _mapping(raw.get("camera"), "camera")
    max_range = float(cam_raw.get("max_range", 5.0))
    _check_number("camera.max_range", max_range, "positive")
    camera = CameraIntrinsics(
        alpha=np.deg2rad(float(cam_raw.get("alpha_deg", np.rad2deg(view.alpha)))),
        beta=np.deg2rad(float(cam_raw.get("beta_deg", np.rad2deg(view.beta)))),
        width=int(cam_raw.get("width", 80)),
        height=int(cam_raw.get("height", 60)),
        max_range=max_range,
    )
    maps_raw = _mapping(raw.get("maps"), "maps")
    delta_raw = maps_raw.get("delta")
    delta = None
    if delta_raw is not None:
        delta_raw = _mapping(delta_raw, "maps.delta")
        delta = MorphologyDelta(
            removals=_parse_boxes(delta_raw.get("removals"), "maps.delta.removals"),
            additions=_parse_boxes(delta_raw.get("additions"), "maps.delta.additions"),
        )
    bounds_raw = _mapping(maps_raw.get("bounds"), "maps.bounds")
    bounds = (bounds_raw["lo"], bounds_raw["hi"]) if bounds_raw else None
    sensing = _mapping(raw.get("sensing"), "sensing")
    robot = _mapping(raw.get("robot"), "robot")
    tasks = []
    for i, entry in enumerate(raw.get("tasks") or ()):
        entry = _mapping(entry, f"tasks[{i}]", "tasks[]")
        spec = TaskSpec(id=str(entry["id"]), vertices=tuple(tuple(v) for v in entry["vertices"]))
        try:
            spec.to_task(view)  # builds the ROI, which checks the vertices
        except ValueError as exc:
            raise ValueError(f"tasks[{i}] ({spec.id}): {exc}") from exc
        tasks.append(spec)

    return ScenarioConfig(
        name=str(raw.get("name", path.stem)),
        mode=str(raw.get("mode", "adaptive")),
        seed=int(raw.get("seed", 1)),
        voxel_size=float(raw.get("voxel_size", 0.1)),
        inflation=float(raw.get("inflation", 0.5)),
        dt=float(raw.get("dt", 0.1)),
        max_sim_time=float(raw.get("max_sim_time", 120.0)),
        gamma_t=float(raw.get("gamma_t", 0.5)),
        horizon=int(raw.get("horizon", 5)),
        pos_tol=float(raw.get("pos_tol", 0.3)),
        yaw_tol=float(raw.get("yaw_tol", 0.2)),
        z_band=raw.get("z_band", (0.6, 0.6)),
        start=robot.get("start", (0.0, 0.0, 0.6, 0.0)),
        v_max=float(robot.get("v_max", 0.8)),
        w_max=float(robot.get("w_max", 1.0)),
        view=view,
        camera=camera,
        sense_range=float(sensing.get("range", 12.0)),
        sense_rays=int(sensing.get("rays", 2048)),
        odom_sigma_xy=float(sensing.get("odom_sigma_xy", 0.0)),
        odom_sigma_psi=float(sensing.get("odom_sigma_psi", 0.0)),
        bounds=bounds,
        historical=_parse_map_spec(maps_raw.get("historical"), "maps.historical"),
        current=_parse_map_spec(maps_raw.get("current"), "maps.current"),
        delta=delta,
        tasks=tuple(tasks),
    )


# -- built-in demo scenes ---------------------------------------------------

_BOUNDS = ((-1.0, -8.0, 0.0), (12.0, 7.0, 2.4))
_WALL_TASK = TaskSpec(
    id="wall",
    vertices=((6.0, -3.0, 0.0), (6.0, 3.0, 0.0), (6.0, 3.0, 2.0), (6.0, -3.0, 2.0)),
)


def demo_scenario(name, mode="adaptive", seed=1):
    """Built-in scenario generators for the standard evaluation setups.

    nominal        flat wall, current scene identical to the historical map
    receding       material removed from half of the face: the surface
                   recedes 1 m over y in [-3, 0], unchanged elsewhere
    obstacle       nominal scene plus a new obstruction across the approach
                   route (forces a detour on the current map)
    receding_full  the whole face receded 1.2 m beyond the camera's range,
                   used for adaptive-vs-baseline comparisons
    """
    if name not in DEMO_NAMES:
        raise ValueError(f"unknown demo {name!r}; choose from {DEMO_NAMES}")

    common = dict(
        name=f"demo-{name}",
        mode=mode,
        seed=seed,
        bounds=_BOUNDS,
        tasks=(_WALL_TASK,),
        start=(4.0, -5.0, 0.6, 0.0),
        max_sim_time=90.0,
    )

    if name == "nominal":
        historical = MapSpec(boxes=(Box((6.0, -3.0, 0.0), (6.4, 3.0, 2.4)),))
        return ScenarioConfig(historical=historical, **common)

    if name == "receding":
        # A wider face whose surface recedes 1 m over y in [-3, 0] and
        # tapers back to the unchanged surface by y = 2: the deviation is
        # coherent at the start of the tour and decays smoothly, so the
        # planner replans early and recaptures the global plan well before
        # the tour ends.
        historical = MapSpec(boxes=(Box((6.0, -3.0, 0.0), (7.4, 6.0, 2.4)),))
        removals = []
        y = -3.0
        while y < 2.0 - 1e-9:
            depth = 1.0 if y < 0.0 else max(1.0 - 0.5 * (y + 0.05), 0.0)
            depth = round(depth * 10.0) / 10.0
            if depth > 0.0:
                removals.append(Box((6.0, round(y, 9), 0.0), (6.0 + depth, round(y + 0.1, 9), 2.4)))
            y += 0.1
        delta = MorphologyDelta(removals=tuple(removals))
        common["horizon"] = 3  # keep the alignment window inside the coherent region
        common["tasks"] = (
            TaskSpec(
                id="wall",
                vertices=((6.0, -3.0, 0.0), (6.0, 6.0, 0.0), (6.0, 6.0, 2.0), (6.0, -3.0, 2.0)),
            ),
        )
        return ScenarioConfig(historical=historical, delta=delta, **common)

    if name == "obstacle":
        historical = MapSpec(boxes=(Box((6.0, -3.0, 0.0), (6.4, 3.0, 2.4)),))
        delta = MorphologyDelta(additions=(Box((1.5, -5.6, 0.0), (5.5, -5.2, 1.4)),))
        common["start"] = (4.0, -6.5, 0.6, 0.0)
        return ScenarioConfig(historical=historical, delta=delta, **common)

    # receding_full
    historical = MapSpec(
        boxes=(
            Box((6.0, -3.0, 0.0), (7.2, 3.0, 2.4)),  # material later removed
            Box((7.2, -3.0, 0.0), (7.6, 3.0, 2.4)),  # surface behind the removal
        )
    )
    delta = MorphologyDelta(removals=(Box((6.0, -3.0, 0.0), (7.2, 3.0, 2.4)),))
    camera = CameraIntrinsics(
        alpha=np.deg2rad(69.5), beta=np.deg2rad(45.0), width=80, height=60, max_range=3.0
    )
    return ScenarioConfig(historical=historical, delta=delta, camera=camera, **common)
