"""Mission scenario configuration: YAML schema, validation, demo scenes.

A scenario bundles the world (historical map plus an optional delta or
pre-built current map), the inspection tasks, the robot, and all planner
parameters.  The built-in demos synthesize small box-world scenes covering
the standard evaluation setups without external map files.
"""

import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .geometry import PolygonROI, ViewPose4
from .global_plan import InspectionTask, ViewConstraints, grid_size
from .world import Box, CameraIntrinsics, MorphologyDelta, Scene, VoxelMap, load_map

__all__ = ["ScenarioConfig", "load_scenario", "demo_scenario", "build_scene", "DEMO_NAMES"]

SCHEMA_VERSION = 1
DEMO_NAMES = ("nominal", "receding", "obstacle", "receding_full")
# The camera FOV (radians) of a scenario that sets none; the only FOV.
CAMERA_FOV = {"alpha": np.deg2rad(69.5), "beta": np.deg2rad(45.0)}
# The most rays a scan may cast and pixels a camera image side may have:
# these keys size the arrays of every scan and frame, and the shipped
# scenarios use at most 2048 rays and 80 x 60 pixels.
MAX_RAYS = 65536
MAX_IMAGE_SIDE = 4096
# The view and camera keys space a task's viewpoint grid.  Planning lays out
# every point of the grid's bounding box, then tours the viewpoints the
# height band keeps, whose pairwise tables grow as the square of their
# number.  On a 6 m x 2 m wall under a one-height band, `plan` took 0.7 s
# and 47 MB for 64 x 1024 grid points (64 viewpoints), 2.8 s and 93 MB for
# 64 x 4096, and 1.7 s and 119 MB for 1024 x 64 (1024 viewpoints); without
# a band, 2048 viewpoints took 2.2 s and 350 MB and 4096 took 6.8 s and
# 1.3 GB.  The shipped scenarios' grids hold at most 116 points and their
# tours 29 viewpoints.
MAX_GRID_POINTS = 65536
MAX_TOUR_VIEWPOINTS = 1024
_GRID_KEYS = "view.d_view, view.gamma_h, view.gamma_v, camera.alpha_deg and camera.beta_deg"


@dataclass(frozen=True)
class MapSpec:
    """Where a map comes from: an xyz file or inline boxes."""

    file: str = None
    boxes: tuple = ()

    def build(self, voxel_size, bounds, base_dir):
        """The map over `bounds` (None: the map's own extent, which only a
        historical map may take: a current map must lie on its grid); a
        relative file path is read from `base_dir` (None: the working
        directory)."""
        if self.file:
            path = Path(self.file)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            return load_map(path, voxel_size, bounds)
        return VoxelMap.from_boxes(self.boxes, voxel_size, bounds)


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
    camera: CameraIntrinsics = field(default_factory=lambda: CameraIntrinsics(**CAMERA_FOV))
    sense_range: float = 12.0
    sense_rays: int = 2048
    odom_sigma_xy: float = 0.0
    odom_sigma_psi: float = 0.0
    bounds: tuple = None  # ((lo), (hi)) world AABB for the voxel grids
    historical: MapSpec = None
    current: MapSpec = None
    delta: MorphologyDelta = None
    tasks: tuple = ()  # InspectionTask entries

    def __post_init__(self):
        # The scalar fields, converted and checked under their file keys.
        for key, (name, _) in _KEYS.items():
            if _OWNER[key] is ScenarioConfig:
                object.__setattr__(self, name, _value(key, getattr(self, name)))
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
        if self.current is not None and self.delta is not None:
            raise ValueError("maps.current and maps.delta cannot both be given")
        # A surface the camera cannot range is never seen at the standoff.
        if self.view.d_view > self.camera.max_range:
            raise ValueError(
                f"view.d_view must be at most camera.max_range ({self.camera.max_range}), got {self.view.d_view}"
            )
        for task in self.tasks:
            points, viewpoints = grid_size(task.roi, self.view, self.camera, self.z_band)
            if not points <= MAX_GRID_POINTS:
                raise ValueError(
                    f"task {task.id}: {_GRID_KEYS} space its viewpoint grid to {points:.0f} points, "
                    f"more than {MAX_GRID_POINTS}"
                )
            if not viewpoints <= MAX_TOUR_VIEWPOINTS:
                raise ValueError(
                    f"task {task.id}: {_GRID_KEYS} and z_band leave its tour up to {viewpoints:.0f} viewpoints, "
                    f"more than {MAX_TOUR_VIEWPOINTS}"
                )

    @property
    def start_pose(self):
        return ViewPose4(*self.start)


def _finite_tuple(value, n, name, axes):
    """`value` as a tuple of `n` finite floats (no booleans or strings),
    else ValueError naming `name` and its `axes`."""
    try:
        out = tuple(float(v) for v in value if not isinstance(v, (bool, str)))
    except (TypeError, ValueError):
        out = ()
    if len(out) != n or not all(map(math.isfinite, out)):
        raise ValueError(f"{name} must be {n} finite numbers ({axes}), got {value!r}")
    return out


# Every scalar key of a scenario file, as "section.key" (a top-level key has
# no section), with the field it sets in `_OWNER[key]` and the rule its value
# meets: the words an error shows, and the test.  The field's type gives the
# conversion; a `_deg` key is read in degrees and set in radians.  A key the
# file omits is not passed, so the field's default applies.  `ScenarioConfig`
# checks its tuples itself.
_POSITIVE = ("positive", lambda v: v > 0)
_NON_NEGATIVE = ("non-negative", lambda v: v >= 0)
_FRACTION = ("in [0, 1)", lambda v: 0 <= v < 1)
_FOV = ("in (0, 180)", lambda v: 0 < v < 180)
_KEYS = {
    "name": ("name", None),
    "mode": ("mode", ("adaptive or baseline", lambda v: v in ("adaptive", "baseline"))),
    "seed": ("seed", ("a non-negative integer", lambda v: v >= 0)),
    "voxel_size": ("voxel_size", _POSITIVE),
    "inflation": ("inflation", _NON_NEGATIVE),
    "dt": ("dt", _POSITIVE),
    "max_sim_time": ("max_sim_time", _POSITIVE),
    "gamma_t": ("gamma_t", ("in (0, 1]", lambda v: 0 < v <= 1)),
    "horizon": ("horizon", ("at least 1", lambda v: v >= 1)),
    "pos_tol": ("pos_tol", _POSITIVE),
    "yaw_tol": ("yaw_tol", _POSITIVE),
    "z_band": ("z_band", None),
    "robot.start": ("start", None),
    "robot.v_max": ("v_max", _POSITIVE),
    "robot.w_max": ("w_max", _POSITIVE),
    "view.d_view": ("d_view", _POSITIVE),
    "view.gamma_h": ("gamma_h", _FRACTION),
    "view.gamma_v": ("gamma_v", _FRACTION),
    "camera.alpha_deg": ("alpha", _FOV),
    "camera.beta_deg": ("beta", _FOV),
    "camera.width": ("width", (f"in [3, {MAX_IMAGE_SIDE}]", lambda v: 3 <= v <= MAX_IMAGE_SIDE)),
    "camera.height": ("height", (f"in [3, {MAX_IMAGE_SIDE}]", lambda v: 3 <= v <= MAX_IMAGE_SIDE)),
    "camera.max_range": ("max_range", _POSITIVE),
    "sensing.range": ("sense_range", _POSITIVE),
    "sensing.rays": ("sense_rays", (f"in [1, {MAX_RAYS}]", lambda v: 1 <= v <= MAX_RAYS)),
    "sensing.odom_sigma_xy": ("odom_sigma_xy", _NON_NEGATIVE),
    "sensing.odom_sigma_psi": ("odom_sigma_psi", _NON_NEGATIVE),
}
_SECTION_OWNERS = {"view": ViewConstraints, "camera": CameraIntrinsics}
# Derived from `_KEYS`: the dataclass each key sets a field of, and the
# field's type.
_OWNER = {key: _SECTION_OWNERS.get(key.partition(".")[0], ScenarioConfig) for key in _KEYS}
_TYPES = {key: next(f.type for f in fields(_OWNER[key]) if f.name == name) for key, (name, _) in _KEYS.items()}
# A number in exponent form, as a scenario file may spell one.
_EXPONENT = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


def _value(key, value):
    """`value` for the scenario key `key`, converted to the type of the field
    it sets and checked against its rule, else ValueError naming the key."""
    rule, kind = _KEYS[key][1], _TYPES[key]
    if kind is int:
        integral = isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer()
        if isinstance(value, bool) or not integral:
            raise ValueError(f"{key} must be an integer, got {value!r}")
        value = int(value)
    elif kind is float:
        if isinstance(value, str):
            reason = f"{key} must be a number, got {value!r}, a string"
            # PyYAML reads YAML 1.1, whose floats need a dot and a signed
            # exponent: 1e-3 and 1.0e3 load as strings.
            if _EXPONENT.fullmatch(value):
                reason += ": YAML reads an exponent only after a dot and with a sign, as in 1.0e-3"
            raise ValueError(reason)
        try:
            if isinstance(value, bool):
                raise TypeError("a boolean is not a number")
            value = float(value)
        except (TypeError, ValueError):
            raise ValueError(f"{key} must be a number, got {value!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    elif kind is str and not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    if rule is not None and not rule[1](value):
        raise ValueError(f"{key} must be {rule[0]}, got {value!r}")
    return np.deg2rad(value) if key.endswith("_deg") else value


def build_scene(cfg, base_dir):
    """Materialize the world of a scenario config on one grid: a delta is
    applied on the historical map's grid, and a `maps.current` is built over
    `maps.bounds` (`Scene` rejects one built on its own extent).  Map files
    with a relative path are read from `base_dir` (None: the working
    directory)."""
    historical = cfg.historical.build(cfg.voxel_size, cfg.bounds, base_dir)
    if cfg.current is not None:
        current = cfg.current.build(cfg.voxel_size, cfg.bounds, base_dir)
        return Scene(historical=historical, current=current)
    if cfg.delta is not None:
        return Scene.from_delta(historical, cfg.delta)
    return Scene.unchanged(historical)


# Allowed keys of every mapping in a scenario file, by key path ("[]" for
# the entries of a list); the scalar keys are added from `_KEYS` below.
_SCHEMA = {
    "": {"version", "robot", "view", "camera", "sensing", "maps", "tasks"},
    "maps": {"bounds", "historical", "current", "delta"},
    "maps.bounds": {"lo", "hi"},
    "maps.historical": {"file", "boxes"},
    "maps.current": {"file", "boxes"},
    "box": {"lo", "hi"},
    "maps.delta": {"removals", "additions"},
    "tasks[]": {"id", "vertices"},
}
for _key in _KEYS:
    _section, _, _name = _key.rpartition(".")
    _SCHEMA.setdefault(_section, set()).add(_name)


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


def _required(entry, key, where):
    """`entry[key]` of the mapping at `where`, else ValueError naming the
    key path."""
    if key not in entry:
        raise ValueError(f"{where}.{key} is required")
    return entry[key]


def _list(value, where):
    """`value` checked to be a list; a missing one (None) reads as empty."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list")
    return value


def _parse_boxes(entries, where):
    boxes = []
    for i, entry in enumerate(_list(entries, where)):
        at = f"{where}[{i}]"
        entry = _mapping(entry, at, "box")
        lo, hi = (_finite_tuple(_required(entry, key, at), 3, f"{at}.{key}", "x y z") for key in ("lo", "hi"))
        try:
            boxes.append(Box(lo, hi))
        except ValueError as exc:
            raise ValueError(f"{at}: {exc}") from exc
    return tuple(boxes)


def _parse_map_spec(entry, where):
    if entry is None:
        return None
    entry = _mapping(entry, where)
    file, boxes = entry.get("file"), entry.get("boxes")
    if bool(file) == bool(boxes):
        raise ValueError(f"{where} must give exactly one of file or a non-empty boxes list")
    if file:
        return MapSpec(file=str(file))
    return MapSpec(boxes=_parse_boxes(boxes, f"{where}.boxes"))


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
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema version {version!r} (expected {SCHEMA_VERSION})")

    try:
        return _parse_scenario(raw, path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_scenario(raw, path):
    raw = _mapping(raw, "")
    # Each value is converted and checked before its constructor runs, so
    # that an error names the key.
    args = {ScenarioConfig: {"name": path.stem}, ViewConstraints: {}, CameraIntrinsics: {}}
    for key, (name, _) in _KEYS.items():
        section, _, file_key = key.rpartition(".")
        given = _mapping(raw.get(section), section) if section else raw
        if file_key in given:
            args[_OWNER[key]][name] = _value(key, given[file_key])
    view = ViewConstraints(**args[ViewConstraints])
    camera = CameraIntrinsics(**{**CAMERA_FOV, **args[CameraIntrinsics]})
    maps_raw = _mapping(raw.get("maps"), "maps")
    delta_raw = maps_raw.get("delta")
    delta = None
    if delta_raw is not None:
        delta_raw = _mapping(delta_raw, "maps.delta")
        delta = MorphologyDelta(
            removals=_parse_boxes(delta_raw.get("removals"), "maps.delta.removals"),
            additions=_parse_boxes(delta_raw.get("additions"), "maps.delta.additions"),
        )
    bounds_raw = maps_raw.get("bounds")
    bounds = None
    if bounds_raw is not None:
        bounds_raw = _mapping(bounds_raw, "maps.bounds")
        bounds = (_required(bounds_raw, "lo", "maps.bounds"), _required(bounds_raw, "hi", "maps.bounds"))
    tasks = []
    for i, entry in enumerate(_list(raw.get("tasks"), "tasks")):
        at = f"tasks[{i}]"
        entry = _mapping(entry, at, "tasks[]")
        task_id = _required(entry, "id", at)
        if not isinstance(task_id, str):
            raise ValueError(f"{at}.id must be a string, got {task_id!r}")
        # The id names the task's artifact files, so it must be one file name.
        if task_id in ("", ".", "..") or "/" in task_id or "\\" in task_id:
            raise ValueError(f"{at}.id {task_id!r} must be a file name: not empty, '.' or '..', no '/' or '\\'")
        if any(task.id == task_id for task in tasks):
            raise ValueError(f"{at}.id {task_id!r} repeats an earlier task's id")
        where = f"{at}.vertices"
        vertices = [
            _finite_tuple(v, 3, f"{where}[{k}]", "x y z")
            for k, v in enumerate(_list(_required(entry, "vertices", at), where))
        ]
        try:
            tasks.append(InspectionTask(id=task_id, roi=PolygonROI(np.asarray(vertices, dtype=np.float64))))
        except ValueError as exc:
            raise ValueError(f"{at} ({task_id}): {exc}") from exc

    return ScenarioConfig(
        view=view,
        camera=camera,
        bounds=bounds,
        historical=_parse_map_spec(maps_raw.get("historical"), "maps.historical"),
        current=_parse_map_spec(maps_raw.get("current"), "maps.current"),
        delta=delta,
        tasks=tuple(tasks),
        **args[ScenarioConfig],
    )


# -- built-in demo scenes ---------------------------------------------------

_BOUNDS = ((-1.0, -8.0, 0.0), (12.0, 7.0, 2.4))
# The demo tasks, built once at import: an ROI build (about 0.16 ms) inside
# `demo_scenario` would add about a sixth to a demo's set-up time.
_WALL_TASK = InspectionTask(
    id="wall",
    roi=PolygonROI(np.array([[6.0, -3.0, 0.0], [6.0, 3.0, 0.0], [6.0, 3.0, 2.0], [6.0, -3.0, 2.0]])),
)
# receding's wider face.
_WIDE_WALL_TASK = InspectionTask(
    id="wall",
    roi=PolygonROI(np.array([[6.0, -3.0, 0.0], [6.0, 6.0, 0.0], [6.0, 6.0, 2.0], [6.0, -3.0, 2.0]])),
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
        common["tasks"] = (_WIDE_WALL_TASK,)
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
    camera = CameraIntrinsics(**CAMERA_FOV, max_range=3.0)
    return ScenarioConfig(historical=historical, delta=delta, camera=camera, **common)
