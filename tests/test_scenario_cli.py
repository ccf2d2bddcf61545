import contextlib
import copy
import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from surfscan.cli import main
from surfscan.depthcam import CameraIntrinsics
from surfscan.scenario import _KEYS, CAMERA_FOV, DEMO_NAMES, ScenarioConfig, build_scene, demo_scenario, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOOD_YAML = """
version: 1
name: test-wall
mode: adaptive
seed: 3
voxel_size: 0.1
inflation: 0.5
dt: 0.1
max_sim_time: 60
gamma_t: 0.5
horizon: 4
pos_tol: 0.3
yaw_tol: 0.2
z_band: [0.6, 0.6]
robot:
  start: [4.0, -5.0, 0.6, 0.0]
  v_max: 0.8
  w_max: 1.0
view: {d_view: 2.0, gamma_h: 0.6, gamma_v: 0.6}
camera: {alpha_deg: 69.5, beta_deg: 45.0, width: 64, height: 48, max_range: 5.0}
sensing: {range: 12.0, rays: 1024}
maps:
  bounds: {lo: [-1, -8, 0], hi: [12, 7, 2.4]}
  historical:
    boxes:
      - {lo: [6.0, -3.0, 0.0], hi: [6.4, 3.0, 2.4]}
  delta:
    removals: []
    additions:
      - {lo: [1.5, -4.6, 0.0], hi: [3.5, -4.2, 1.4]}
tasks:
  - id: wall
    vertices: [[6, -3, 0], [6, 3, 0], [6, 3, 2], [6, -3, 2]]
"""


def test_load_scenario_roundtrip(tmp_path):
    f = tmp_path / "scn.yaml"
    f.write_text(GOOD_YAML)
    cfg = load_scenario(f)
    assert cfg.name == "test-wall"
    assert cfg.seed == 3
    assert cfg.horizon == 4
    assert cfg.camera.width == 64
    assert cfg.sense_rays == 1024
    assert len(cfg.tasks) == 1
    # Each load builds its own task objects; the configs compare by value.
    assert load_scenario(f) == cfg and hash(load_scenario(f)) == hash(cfg)
    scene = build_scene(cfg, None)
    assert np.count_nonzero(scene.historical.occ) > 0
    assert np.count_nonzero(scene.current.occ) > np.count_nonzero(scene.historical.occ)  # addition applied


def test_load_scenario_map_file(tmp_path):
    f = tmp_path / "map.xyz"
    f.write_text("6.05 0.05 0.55\n")
    scn = tmp_path / "scn.yaml"
    scn.write_text(
        "version: 1\nmaps:\n  historical: {file: map.xyz}\n"
        "tasks:\n  - id: t\n    vertices: [[6,-1,0],[6,1,0],[6,1,1],[6,-1,1]]\n"
    )
    cfg = load_scenario(scn)
    scene = build_scene(cfg, base_dir=tmp_path)
    assert np.count_nonzero(scene.historical.occ) == 1


def test_load_scenario_rejects_bad_version(tmp_path):
    f = tmp_path / "scn.yaml"
    f.write_text("version: 99\ntasks: []\n")
    with pytest.raises(ValueError, match="version"):
        load_scenario(f)


def _with_extra_key(path, key, value):
    """GOOD_YAML with `key` added to the mapping at the key path `path`."""
    import yaml

    cfg = yaml.safe_load(GOOD_YAML)
    node = cfg
    for part in path:
        node = node[part]
    node[key] = value
    return yaml.safe_dump(cfg)


@pytest.mark.parametrize(
    "path, key, shown",
    [
        ((), "horizn", "horizn"),
        (("camera",), "widht", "camera.widht"),
        (("maps", "delta"), "additon", "maps.delta.additon"),
        (("tasks", 0), "vertex", "tasks[0].vertex"),
        (("maps", "delta", "additions", 0), "size", "maps.delta.additions[0].size"),
    ],
    ids=["top", "section", "subsection", "list_entry", "nested_list_entry"],
)
def test_load_scenario_rejects_unknown_key(tmp_path, path, key, shown):
    f = tmp_path / "scn.yaml"
    f.write_text(_with_extra_key(path, key, 3))
    with pytest.raises(ValueError, match=re.escape(f"unknown key {shown} ")):
        load_scenario(f)


def test_cli_rejects_unknown_scenario_key(tmp_path, capsys):
    f = tmp_path / "scn.yaml"
    f.write_text(_with_extra_key(("sensing",), "rayz", 512))
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    assert "unknown key sensing.rayz" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_malformed_yaml(tmp_path, capsys):
    f = tmp_path / "scn.yaml"
    f.write_text("version: 1\nname: [unclosed\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(f), "--out", str(out)]) == 64
    assert str(f) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("range", 0), ("rays", 0)])
def test_cli_rejects_invalid_sensing(tmp_path, capsys, key, value):
    import yaml

    cfg = yaml.safe_load(GOOD_YAML)
    cfg["sensing"][key] = value
    f = tmp_path / "scn.yaml"
    f.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(f), "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert str(f) in err and "sensing" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "path, value, reason",
    [
        (("robot", "v_max"), -1, "robot.v_max must be positive, got -1.0"),
        (("sensing", "odom_sigma_xy"), -0.1, "sensing.odom_sigma_xy must be non-negative, got -0.1"),
        (("robot", "start"), [1, 2, 3], "robot.start must be 4 finite numbers (x y z psi), got [1, 2, 3]"),
        (("z_band",), [0.6], "z_band must be 2 finite numbers (lo hi), got [0.6]"),
        (("z_band",), [0.9, 0.3], "z_band must have lo <= hi, got [0.9, 0.3]"),
    ],
    ids=["v_max", "odom_sigma_xy", "start", "z_band", "z_band_order"],
)
def test_cli_rejects_invalid_robot_and_band(tmp_path, capsys, path, value, reason):
    # Each value used to pass the load and fail mid-mission with a traceback.
    import yaml

    cfg = yaml.safe_load(GOOD_YAML)
    node = cfg
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    f = tmp_path / "scn.yaml"
    f.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(f), "--out", str(out)]) == 64
    assert f"{f}: {reason}" in capsys.readouterr().err
    assert not out.exists()


def _write_with(tmp_path, path, value):
    """GOOD_YAML with the value at the key path `path` replaced."""
    import yaml

    cfg = yaml.safe_load(GOOD_YAML)
    node = cfg
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    f = tmp_path / "scn.yaml"
    f.write_text(yaml.safe_dump(cfg))
    return f


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "path, value, reason",
    [
        (("dt",), NAN, "dt must be finite, got nan"),
        (("voxel_size",), NAN, "voxel_size must be finite, got nan"),
        (("max_sim_time",), NAN, "max_sim_time must be finite, got nan"),
        (("inflation",), NAN, "inflation must be finite, got nan"),
        (("pos_tol",), INF, "pos_tol must be finite, got inf"),
        (("yaw_tol",), -INF, "yaw_tol must be finite, got -inf"),
        (("robot", "v_max"), INF, "robot.v_max must be finite, got inf"),
        (("robot", "w_max"), NAN, "robot.w_max must be finite, got nan"),
        (("sensing", "range"), INF, "sensing.range must be finite, got inf"),
        (("sensing", "odom_sigma_psi"), NAN, "sensing.odom_sigma_psi must be finite, got nan"),
        (("camera", "max_range"), NAN, "camera.max_range must be finite, got nan"),
        (("camera", "max_range"), INF, "camera.max_range must be finite, got inf"),
        (("view", "d_view"), NAN, "view.d_view must be finite, got nan"),
        (("view", "d_view"), INF, "view.d_view must be finite, got inf"),
    ],
    ids=[
        "dt",
        "voxel_size",
        "max_sim_time",
        "inflation",
        "pos_tol",
        "yaw_tol",
        "v_max",
        "w_max",
        "sensing_range",
        "odom_sigma_psi",
        "camera_max_range_nan",
        "camera_max_range_inf",
        "d_view_nan",
        "d_view_inf",
    ],
)
def test_cli_rejects_non_finite_parameters(tmp_path, capsys, path, value, reason):
    # NaN used to pass every sign test and end the run with a traceback
    # (or, as a camera range, cap every depth ray at NaN and log a zero
    # utility); an infinite tolerance or speed loaded and the run timed
    # out.
    f = _write_with(tmp_path, path, value)
    out = tmp_path / "out"
    assert main(["run", "--config", str(f), "--out", str(out)]) == 64
    assert f"{f}: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "corner, value, reason",
    [
        ("lo", [1, 2], "maps.bounds.lo must be 3 finite numbers (x y z), got [1, 2]"),
        ("hi", [12, 7, NAN], "maps.bounds.hi must be 3 finite numbers (x y z), got [12, 7, nan]"),
        ("hi", [12, -8, 2.4], "maps.bounds must have lo < hi on every axis, got lo [-1.0, -8.0, 0.0], hi [12.0, -8.0, 2.4]"),
    ],
    ids=["short_lo", "nan_hi", "empty_axis"],
)
def test_cli_rejects_invalid_bounds(tmp_path, capsys, corner, value, reason):
    f = _write_with(tmp_path, ("maps", "bounds", corner), value)
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    assert f"{f}: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "path, value, reason",
    [
        (("horizon",), INF, "horizon must be an integer, got inf"),
        (("camera", "width"), INF, "camera.width must be an integer, got inf"),
        (("camera", "height"), 48.5, "camera.height must be an integer, got 48.5"),
        (("sensing", "rays"), NAN, "sensing.rays must be an integer, got nan"),
        (("seed",), 2.5, "seed must be an integer, got 2.5"),
        (("seed",), True, "seed must be an integer, got True"),
    ],
    ids=["horizon_inf", "width_inf", "height_fraction", "rays_nan", "seed_fraction", "seed_bool"],
)
def test_cli_rejects_non_integer_counts(tmp_path, capsys, path, value, reason):
    # An infinite horizon or image width ended the run with an
    # OverflowError traceback, a NaN ray count failed without naming the
    # key, and a fractional or boolean seed was silently truncated.
    f = _write_with(tmp_path, path, value)
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    assert f"{f}: {reason}" in capsys.readouterr().err
    assert not out.exists()


WALL_VERTICES = [[6, -3, 0], [6, 3, 0], [6, 3, 2], [6, -3, 2]]


@pytest.mark.parametrize(
    "path, value, reason",
    [
        (("maps", "bounds"), {"hi": [12, 7, 2.4]}, "maps.bounds.lo is required"),
        (("maps", "bounds"), {"lo": [-1, -8, 0]}, "maps.bounds.hi is required"),
        (("maps", "bounds"), {}, "maps.bounds.lo is required"),
        (("tasks",), [{"id": "wall", "vertices": WALL_VERTICES}, {"vertices": WALL_VERTICES}], "tasks[1].id is required"),
        (("tasks", 0), {"id": "wall"}, "tasks[0].vertices is required"),
        (("maps", "historical", "boxes", 0), {"lo": [6, -3, 0]}, "maps.historical.boxes[0].hi is required"),
        (
            ("maps", "delta", "additions", 0, "lo"),
            [1.5, -4.6],
            "maps.delta.additions[0].lo must be 3 finite numbers (x y z), got [1.5, -4.6]",
        ),
        (
            ("maps", "historical", "boxes", 0, "lo"),
            5,
            "maps.historical.boxes[0].lo must be 3 finite numbers (x y z), got 5",
        ),
        (
            ("maps", "delta", "additions", 0),
            {"lo": [3.5, -4.6, 0.0], "hi": [1.5, -4.2, 1.0]},
            "maps.delta.additions[0]: Box has hi < lo: (3.5, -4.6, 0.0) .. (1.5, -4.2, 1.0)",
        ),
        (("tasks", 0, "vertices"), 5, "tasks[0].vertices must be a list"),
        (
            ("tasks", 0, "vertices", 1),
            [6, 3],
            "tasks[0].vertices[1] must be 3 finite numbers (x y z), got [6, 3]",
        ),
        (("tasks",), {"id": "wall"}, "tasks must be a list"),
        (("maps", "historical", "boxes"), {"lo": [6, -3, 0]}, "maps.historical.boxes must be a list"),
        (
            ("tasks",),
            [{"id": "wall", "vertices": WALL_VERTICES}] * 2,
            "tasks[1].id 'wall' repeats an earlier task's id",
        ),
        (("tasks", 0, "id"), "", "tasks[0].id '' must be a file name"),
        (("tasks", 0, "id"), ".", "tasks[0].id '.' must be a file name"),
        (("tasks", 0, "id"), "..", "tasks[0].id '..' must be a file name"),
        (("tasks", 0, "id"), "a/b", "tasks[0].id 'a/b' must be a file name"),
        (("tasks", 0, "id"), "a\\b", "tasks[0].id 'a\\\\b' must be a file name"),
    ],
    ids=[
        "bounds_lo",
        "bounds_hi",
        "bounds_empty",
        "task_id",
        "task_vertices",
        "box_hi",
        "box_corner",
        "box_corner_scalar",
        "box_order",
        "vertices_scalar",
        "vertex_short",
        "tasks_mapping",
        "boxes_mapping",
        "task_id_repeated",
        "task_id_empty",
        "task_id_dot",
        "task_id_dotdot",
        "task_id_slash",
        "task_id_backslash",
    ],
)
def test_cli_scenario_errors_name_the_key_path(tmp_path, capsys, path, value, reason):
    # A missing nested key read `malformed scenario: 'lo'` (or 'id', 'hi'),
    # an empty `maps.bounds: {}` loaded as no bounds at all,
    # a bad box corner did not say which box, a scalar corner or vertex
    # list read `'int' object is not iterable`, a short vertex gave numpy's
    # "inhomogeneous shape" text, and a mapping in place of the task or box
    # list read `tasks[0] must be a mapping`.  Two tasks named `wall`
    # planned as "2 executable task(s)" with one task's files overwriting
    # the other's, and an id `a/b` planned, then failed with a
    # FileNotFoundError traceback (exit 1) writing `tour_a/b.json`.
    f = _write_with(tmp_path, path, value)
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    assert f"{f}: {reason}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_both_current_map_and_delta(tmp_path, capsys):
    # The delta was silently ignored: the current map was used as given.
    reason = "maps.current and maps.delta cannot both be given"
    f = _write_with(tmp_path, ("maps", "current"), {"boxes": [{"lo": [6.0, -3.0, 0.0], "hi": [6.4, 3.0, 2.4]}]})
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    assert f"{f}: {reason}" in capsys.readouterr().err
    assert not out.exists()
    demo = demo_scenario("receding")
    with pytest.raises(ValueError, match=reason):
        dataclasses.replace(demo, current=demo.historical)


def test_integral_float_counts_load_as_integers(tmp_path):
    cfg = load_scenario(_write_with(tmp_path, ("seed",), 7.0))
    assert cfg.seed == 7 and type(cfg.seed) is int


@pytest.mark.parametrize("which", ["historical", "current"])
@pytest.mark.parametrize(
    "spec",
    [{}, {"boxes": []}, {"file": "map.xyz", "boxes": [{"lo": [0, 0, 0], "hi": [1, 1, 1]}]}],
    ids=["empty", "no_boxes", "file_and_boxes"],
)
def test_cli_rejects_invalid_map_spec(tmp_path, capsys, which, spec):
    # An empty spec failed without naming the key, an empty box list passed
    # the load and failed while building the map, and boxes given next to a
    # file were silently ignored.
    f = _write_with(tmp_path, ("maps", which), spec)
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    reason = f"maps.{which} must give exactly one of file or a non-empty boxes list"
    assert f"{f}: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "path, value, reason",
    [
        (("view", "gamma_h"), 1.0, "view.gamma_h must be in [0, 1), got 1.0"),
        (("view", "gamma_v"), -0.1, "view.gamma_v must be in [0, 1), got -0.1"),
        (("view", "alpha_deg"), 60, "unknown key view.alpha_deg (allowed: d_view, gamma_h, gamma_v)"),
        (("camera", "alpha_deg"), 200, "camera.alpha_deg must be in (0, 180), got 200.0"),
        (("camera", "beta_deg"), 0, "camera.beta_deg must be in (0, 180), got 0.0"),
        (("camera", "width"), 2, "camera.width must be in [3, 4096], got 2"),
        (("camera", "max_range"), "far", "camera.max_range must be a number, got 'far'"),
    ],
    ids=["gamma_h", "gamma_v", "view_alpha", "camera_alpha", "camera_beta", "camera_width", "camera_range_text"],
)
def test_cli_view_and_camera_errors_name_their_key(tmp_path, capsys, path, value, reason):
    # The view and camera constructors report "overlap fractions must lie
    # in [0, 1)" or "FOV angles must lie in (0, pi)", naming neither the
    # section nor the key.
    f = _write_with(tmp_path, path, value)
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    assert f"{f}: {reason}" in capsys.readouterr().err
    assert not out.exists()


HUGE = "1000000000000000019884624838656"  # int(1e30)


@pytest.mark.parametrize(
    "path, value, reason",
    [
        (("sensing", "rays"), 65537, "sensing.rays must be in [1, 65536], got 65537"),
        (("sensing", "rays"), 1e30, f"sensing.rays must be in [1, 65536], got {HUGE}"),
        (("camera", "width"), 4097, "camera.width must be in [3, 4096], got 4097"),
        (("camera", "height"), 1e30, f"camera.height must be in [3, 4096], got {HUGE}"),
    ],
    ids=["rays", "rays_1e30", "width", "height_1e30"],
)
def test_cli_rejects_a_ray_count_or_image_side_beyond_its_cap(tmp_path, capsys, path, value, reason):
    # These keys size every scan's and every frame's arrays; a 1e30 loaded
    # as a 31-digit int and `plan` exited 0 with it.
    f = _write_with(tmp_path, path, value)
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    assert f"{f}: {reason}" in capsys.readouterr().err
    assert not out.exists()


def test_load_scenario_takes_the_ray_and_image_caps(tmp_path):
    cfg = yaml.safe_load(GOOD_YAML)
    cfg["sensing"]["rays"] = 65536
    cfg["camera"].update(width=4096, height=4096)
    f = tmp_path / "scn.yaml"
    f.write_text(yaml.safe_dump(cfg))
    loaded = load_scenario(f)
    assert (loaded.sense_rays, loaded.camera.width, loaded.camera.height) == (65536, 4096, 4096)


def test_omitted_keys_take_the_dataclass_defaults(tmp_path):
    f = tmp_path / "scn.yaml"
    f.write_text(
        "version: 1\nmaps:\n  historical: {boxes: [{lo: [6, -1, 0], hi: [6.4, 1, 2]}]}\n"
        "tasks:\n  - id: t\n    vertices: [[6,-1,0],[6,1,0],[6,1,1],[6,-1,1]]\n"
    )
    cfg = load_scenario(f)
    assert cfg == ScenarioConfig(name="scn", historical=cfg.historical, tasks=cfg.tasks)


def test_camera_fov_defaults_to_the_one_constant(tmp_path):
    # The camera alone holds the FOV: the view constraints have none, and a
    # file that omits the camera's takes 69.5 x 45 degrees.
    f = _write_with(tmp_path, ("camera",), {"width": 64, "height": 48})
    cfg = load_scenario(f)
    assert cfg.camera == CameraIntrinsics(alpha=np.deg2rad(69.5), beta=np.deg2rad(45.0), width=64, height=48)
    assert CAMERA_FOV == {"alpha": np.deg2rad(69.5), "beta": np.deg2rad(45.0)}
    assert ScenarioConfig(historical=cfg.historical, tasks=cfg.tasks).camera == CameraIntrinsics(**CAMERA_FOV)
    assert not hasattr(cfg.view, "alpha") and not hasattr(cfg.view, "beta")


def _scalar_keys(doc, prefix=""):
    """The dotted key of every entry of a scenario document's top level and
    its sections."""
    keys = set()
    for key, value in doc.items():
        keys.add(prefix + key)
        if isinstance(value, dict) and not prefix:
            keys |= _scalar_keys(value, f"{key}.")
    return keys


def test_shipped_scenarios_load():
    import yaml

    for name in ("wall_nominal", "wall_receding"):
        cfg = load_scenario(SCENARIOS / f"{name}.yaml")
        assert cfg.name == name.replace("_", "-")
        assert np.count_nonzero(build_scene(cfg, base_dir=SCENARIOS).historical.occ) > 0
    # The fully commented example names every scalar key, so that it cannot
    # fall behind the schema.
    nominal = yaml.safe_load((SCENARIOS / "wall_nominal.yaml").read_text())
    assert set(_KEYS) <= _scalar_keys(nominal)


def test_cli_rejects_negative_seed_in_scenario(tmp_path, capsys):
    f = _write_with(tmp_path, ("seed",), -1)
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    assert f"{f}: seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_negative_seed_flag(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["plan", "--demo", "nominal", "--seed", "-1", "--out", str(out)]) == 64
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "vertices, reason",
    [
        ([[6, -3, 0], [6, 3, 2], [6, 3, 0], [6, -3, 3]], "self-intersecting"),
        ([[6, -3, 0], [6, 3, 0]], "at least 3 vertices"),
    ],
)
def test_cli_rejects_invalid_task_roi(tmp_path, capsys, vertices, reason):
    import yaml

    cfg = yaml.safe_load(GOOD_YAML)
    cfg["tasks"][0]["vertices"] = vertices
    f = tmp_path / "scn.yaml"
    f.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert f"{f}: tasks[0] (wall): " in err and reason in err
    assert not out.exists()


def test_load_scenario_accepts_the_usual_task_ids(tmp_path):
    ids = ("wall", "face", "north", "south", "enclosed")
    f = _write_with(tmp_path, ("tasks",), [{"id": task_id, "vertices": WALL_VERTICES} for task_id in ids])
    assert tuple(task.id for task in load_scenario(f).tasks) == ids


def _leaves(node, path=()):
    """The key path of every scalar of a scenario document, with list
    entries by index."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _named(path):
    """The key a load error names for the scalar at `path`: a coordinate
    by its list, a list entry by its index."""
    if isinstance(path[-1], int):
        path = path[:-1]
    text = ""
    for part in path:
        text += f"[{part}]" if isinstance(part, int) else f".{part}" if text else part
    return text


def _at(doc, path):
    for part in path:
        doc = doc[part]
    return doc


def _with_value(path, value):
    """A copy of GOOD_YAML's document with the scalar at `path` replaced."""
    doc = copy.deepcopy(GOOD_DOC)
    _at(doc, path[:-1])[path[-1]] = value
    return doc


GOOD_DOC = yaml.safe_load(GOOD_YAML)
GOOD_LEAVES = tuple(_leaves(GOOD_DOC))
NUMBER_LEAVES = tuple(p for p in GOOD_LEAVES if p != ("version",) and isinstance(_at(GOOD_DOC, p), (int, float)))


@pytest.mark.parametrize("path", NUMBER_LEAVES, ids=[".".join(map(str, p)) for p in NUMBER_LEAVES])
def test_cli_rejects_a_boolean_for_a_number(tmp_path, capsys, path):
    # YAML's `true` loaded as 1.0 (or 1) wherever a number was read: a
    # 1 m voxel, a 1 s step, a unit box corner or task vertex.
    f = _write_with(tmp_path, path, True)
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    assert f"{f}: {_named(path)} must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "path, value, reason",
    [
        (("voxel_size",), "0.1", "voxel_size must be a number, got '0.1'"),
        (("robot", "start"), "4560", "robot.start must be 4 finite numbers (x y z psi), got '4560'"),
        (("z_band",), "06", "z_band must be 2 finite numbers (lo hi), got '06'"),
        (
            ("maps", "bounds", "lo"),
            ["-1", "-8", "0"],
            "maps.bounds.lo must be 3 finite numbers (x y z), got ['-1', '-8', '0']",
        ),
    ],
    ids=["voxel_size", "start", "z_band", "bounds"],
)
def test_cli_rejects_a_string_for_a_number(tmp_path, capsys, path, value, reason):
    # A quoted number loaded as a number, and a string of coordinates was
    # read character by character: `start: "4560"` loaded as (4, 5, 6, 0)
    # and `z_band: "06"` as (0, 6).
    f = _write_with(tmp_path, path, value)
    assert main(["plan", "--config", str(f), "--out", str(tmp_path / "out")]) == 64
    assert f"{f}: {reason}" in capsys.readouterr().err


def test_load_scenario_rejects_a_boolean_version(tmp_path):
    # `version: true` passed, because True == 1.
    with pytest.raises(ValueError, match=re.escape("unsupported schema version True (expected 1)")):
        load_scenario(_write_with(tmp_path, ("version",), True))


@pytest.mark.parametrize("key", ["v_max", "w_max"])
def test_cli_rejects_a_robot_that_cannot_move(tmp_path, capsys, key):
    # A speed of 0 was accepted, and the mission could only time out.
    f = _write_with(tmp_path, ("robot", key), 0)
    assert main(["plan", "--config", str(f), "--out", str(tmp_path / "out")]) == 64
    assert f"{f}: robot.{key} must be positive, got 0.0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value", [None, 0, NAN, True, [], {}], ids=["null", "zero", "nan", "true", "list", "mapping"]
)
def test_cli_rejects_a_task_id_that_is_not_a_string(tmp_path, capsys, value):
    # Any value was turned into a string: `id: ~` planned as the task
    # 'None', and `id: [1, 2]` wrote `tour_[1, 2].json`.
    f = _write_with(tmp_path, ("tasks", 0, "id"), value)
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    assert f"{f}: tasks[0].id must be a string, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_name_that_is_not_a_string(tmp_path, capsys):
    f = _write_with(tmp_path, ("name",), True)
    assert main(["plan", "--config", str(f), "--out", str(tmp_path / "out")]) == 64
    assert f"{f}: name must be a string, got True" in capsys.readouterr().err


FAR_LEAVES = (("z_band", 1),) + tuple(("maps", "historical", "boxes", 0, "hi", axis) for axis in range(3))


@pytest.mark.parametrize("path", FAR_LEAVES, ids=["z_band_hi", "box_hi_x", "box_hi_y", "box_hi_z"])
def test_cli_plans_a_far_coordinate_as_a_large_one(tmp_path, path):
    # 1e308 overflowed the int of a voxel layer or index (an OverflowError
    # traceback).  Clipped in float first, it plans as 1e30 does.
    artifacts = []
    for value in (1e30, 1e308):
        out = tmp_path / f"out_{value:g}"
        assert main(["plan", "--config", str(_write_with(tmp_path, path, value)), "--out", str(out)]) == 0
        artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("vertex, axis", [(0, 0), (1, 1), (3, 2)], ids=["x", "y", "z"])
def test_cli_rejects_a_task_vertex_that_overflows_the_frame(tmp_path, capsys, vertex, axis):
    # The polygon loaded with a NaN normal, and planning it ended in
    # "ValueError: cannot convert float NaN to integer" (a traceback).
    f = _write_with(tmp_path, ("tasks", 0, "vertices", vertex, axis), 1e308)
    assert main(["plan", "--config", str(f), "--out", str(tmp_path / "out")]) == 64
    reason = "tasks[0] (wall): polygon vertices are collinear, degenerate or too far apart"
    assert f"{f}: {reason}" in capsys.readouterr().err


def test_cli_plan_ends_a_huge_inflation_as_unreachable(tmp_path, capsys):
    # Every voxel lies within 1e308 m of the wall, so no route exists.  The
    # clearance radius overflowed an int (an OverflowError traceback).
    f = _write_with(tmp_path, ("inflation",), 1e308)
    assert main(["plan", "--config", str(f), "--out", str(tmp_path / "out")]) == 3
    assert "no executable tasks: all unreachable or in collision" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, reason",
    [
        (("robot", "start", 1), 1e30, "robot.start [4.0, 1e+30, 0.6] lies off the historical map"),
        (("maps", "bounds", "hi", 0), 1e30, "0.1 m voxels over [-1.0, -8.0, 0.0] .. [1e+30, 7.0, 2.4] are too many"),
        (("view", "d_view"), 6.0, "view.d_view must be at most camera.max_range (5.0), got 6.0"),
    ],
    ids=["start_off_the_map", "bounds_too_large", "d_view_beyond_range"],
)
def test_cli_rejects_a_scene_it_cannot_plan(tmp_path, capsys, path, value, reason):
    # A start far off the map or a 1e30 m map bound gave a NaN cast (a
    # RuntimeWarning) and then exit 3 or "negative dimensions are not
    # allowed"; a standoff beyond the camera's range planned a tour on
    # which the camera could see nothing.
    f = _write_with(tmp_path, path, value)
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    assert reason in capsys.readouterr().err
    assert not out.exists()


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# libyaml's emitter when PyYAML has it, several times faster.
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
# One bad value of each kind.
BAD_VALUES = {
    "null": None,
    "true": True,
    "list": [],
    "text": "x",
    "mapping": {},
    "minus_one": -1,
    "zero": 0,
    "big": 1e30,
    "huge": 1e308,
    "nan": NAN,
    "minus_inf": -INF,
}


@pytest.mark.parametrize("value", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_cli_plan_takes_any_one_bad_value(tmp_path, value):
    # Each scalar of GOOD_YAML in turn set to `value`: `plan` plans (0),
    # finds no executable task (3) or rejects the file (64), within a few
    # seconds, and raises nothing (a RuntimeWarning included).
    f = tmp_path / "scn.yaml"
    for path in GOOD_LEAVES:
        f.write_text(yaml.dump(_with_value(path, value), Dumper=YAML_DUMPER))
        try:
            with _time_limit(5.0):
                code = main(["plan", "--config", str(f), "--out", str(tmp_path / "out")])
        except Exception as exc:
            raise AssertionError(f"{_named(path)} = {value!r}: {exc!r}") from exc
        assert code in (0, 3, 64), f"{_named(path)} = {value!r}: exit {code}"


@pytest.mark.parametrize("bounds", [True, False], ids=["bounds", "no_bounds"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_survey_point(tmp_path, capsys, value, bounds):
    # With bounds the point was clipped onto an edge voxel; without them the
    # run ended with "error: negative dimensions are not allowed".
    (tmp_path / "map.xyz").write_text(f"6.05 0.05 0.55\n6.05 {value} 0.65\n")
    maps = "maps:\n" + ("  bounds: {lo: [-1, -8, 0], hi: [12, 7, 2.4]}\n" if bounds else "")
    f = tmp_path / "scn.yaml"
    f.write_text(
        "version: 1\n" + maps + "  historical: {file: map.xyz}\n"
        "tasks:\n  - id: t\n    vertices: [[6,-1,0],[6,1,0],[6,1,1],[6,-1,1]]\n"
    )
    out = tmp_path / "out"
    assert main(["plan", "--config", str(f), "--out", str(out)]) == 64
    assert f"map.xyz:2: non-finite value in '6.05 {value} 0.65'" in capsys.readouterr().err
    assert not out.exists()


def test_scenario_requires_tasks():
    with pytest.raises(ValueError, match="no tasks"):
        demo = demo_scenario("nominal")
        dataclasses.replace(demo, tasks=())


def test_scenario_validates_ranges():
    demo = demo_scenario("nominal")
    with pytest.raises(ValueError):
        dataclasses.replace(demo, gamma_t=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(demo, mode="other")


def test_demo_names():
    assert set(DEMO_NAMES) == {"nominal", "receding", "obstacle", "receding_full"}
    for name in DEMO_NAMES:
        cfg = demo_scenario(name)
        scene = build_scene(cfg, None)
        assert np.count_nonzero(scene.current.occ) > 0
    with pytest.raises(ValueError):
        demo_scenario("bogus")


def test_demo_scene_deltas():
    nominal = build_scene(demo_scenario("nominal"), None)
    assert np.array_equal(nominal.historical.occ, nominal.current.occ)
    receding = build_scene(demo_scenario("receding"), None)
    assert np.count_nonzero(receding.current.occ) < np.count_nonzero(receding.historical.occ)
    obstacle = build_scene(demo_scenario("obstacle"), None)
    assert np.count_nonzero(obstacle.current.occ) > np.count_nonzero(obstacle.historical.occ)


# ---------------------------------------------------------------- CLI


def test_cli_requires_config_or_demo(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "o")]) == 64
    assert main(["run", "--demo", "nominal", "--config", "x.yaml", "--out", str(tmp_path / "o")]) == 64


@pytest.mark.parametrize("value", ["bogus", "basic_format"])
def test_cli_rejects_unknown_log_level(tmp_path, capsys, monkeypatch, value):
    # A typo was read as `warning`, and `basic_format`, a name in the
    # logging module that is no level, ended in a traceback.
    monkeypatch.setenv("SURFSCAN_LOG", value)
    out = tmp_path / "out"
    assert main(["plan", "--demo", "nominal", "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert f"error: SURFSCAN_LOG must be one of debug, info, warning, error, got '{value}'" in err
    assert not out.exists()


def test_cli_accepts_log_level_names_in_any_case(tmp_path, monkeypatch):
    monkeypatch.setenv("SURFSCAN_LOG", "Error")
    assert main(["plan", "--demo", "nominal", "--out", str(tmp_path / "out")]) == 0


def test_cli_rejects_malformed_config_without_artifacts(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("version: 1\ntasks: []\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 64
    assert not out.exists()  # no partial files


def test_cli_plan_writes_artifacts(tmp_path):
    out = tmp_path / "plan"
    assert main(["plan", "--demo", "nominal", "--out", str(out)]) == 0
    order = json.loads((out / "task_order.json").read_text())
    assert order[0]["task"] == "wall" and order[0]["reachable"]
    tour = json.loads((out / "tour_wall.json").read_text())
    assert len(tour["order"]) == 6
    lines = (out / "task_wall_viewpoints.csv").read_text().strip().splitlines()
    assert lines[0] == "index,x,y,z,psi,valid"
    assert len(lines) == 7


def test_cli_run_timeout_exit_code(tmp_path):
    import yaml

    cfg = yaml.safe_load(GOOD_YAML)
    cfg["max_sim_time"] = 1.0  # far too short to finish
    del cfg["maps"]["delta"]
    f = tmp_path / "scn.yaml"
    f.write_text(yaml.safe_dump(cfg))
    assert main(["run", "--config", str(f), "--out", str(tmp_path / "out")]) == 2


def test_cli_run_and_summary(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--demo", "nominal", "--out", str(out), "--seed", "5"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["completed"] is True
    assert summary["seed"] == 5
    assert (out / "mission_log.csv").exists()
    assert (out / "plots" / "similarity.dat").exists()
    pred = (out / "predicted_paths.csv").read_text().strip().splitlines()
    assert pred[0] == "t,pose_index,x,y,z,psi"
    assert len(pred) > 1


def test_cli_plan_and_run_import_no_scipy(tmp_path):
    # The library needs numpy only; importing scipy.ndimage alone would add
    # about 27 MB to every process.  A fresh interpreter, since the tests'
    # oracles load scipy into this one.
    plan, run = str(tmp_path / "plan"), str(tmp_path / "run")
    code = f"""
import sys
from surfscan.cli import main
assert main(["plan", "--demo", "nominal", "--out", {plan!r}]) == 0
assert main(["run", "--demo", "nominal", "--out", {run!r}]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_cli_compare_shares_planning_artifacts(tmp_path, monkeypatch):
    from surfscan import mission

    calls = {"plan": 0, "scene": 0}
    plan, build = mission.MissionRunner.plan, mission.build_scene

    def counted_plan(self):
        calls["plan"] += 1
        return plan(self)

    def counted_build(*args, **kwargs):
        calls["scene"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(mission.MissionRunner, "plan", counted_plan)
    monkeypatch.setattr(mission, "build_scene", counted_build)
    out = tmp_path / "cmp"
    assert main(["compare", "--demo", "receding_full", "--out", str(out)]) == 0
    assert calls == {"plan": 1, "scene": 1}
    doc = json.loads((out / "compare.json").read_text())
    hashes = doc["tour_hashes"]["wall"]
    assert hashes["adaptive"] == hashes["baseline"]
    assert doc["adaptive"]["mean_utility"] > doc["baseline"]["mean_utility"]
    assert (out / "adaptive" / "mission_log.csv").exists()
    assert (out / "baseline" / "mission_log.csv").exists()


def test_cli_compare_with_skipped_task(tmp_path):
    import yaml

    cfg = yaml.safe_load(GOOD_YAML)
    del cfg["maps"]["delta"]
    cfg["tasks"][0]["vertices"] = [[6, -1, 0], [6, 1, 0], [6, 1, 1.2], [6, -1, 1.2]]
    # A closed room whose inner east face is a second task: unreachable, so
    # it is skipped and has no tour file.
    cfg["maps"]["historical"]["boxes"] += [
        {"lo": [8.0, 0.0, 0.0], "hi": [8.2, 6.0, 2.4]},
        {"lo": [11.6, 0.0, 0.0], "hi": [11.8, 6.0, 2.4]},
        {"lo": [8.0, 0.0, 0.0], "hi": [11.8, 0.2, 2.4]},
        {"lo": [8.0, 5.8, 0.0], "hi": [11.8, 6.0, 2.4]},
    ]
    cfg["tasks"].append(
        {"id": "room", "vertices": [[11.6, 2, 0], [11.6, 4, 0], [11.6, 4, 1.2], [11.6, 2, 1.2]]}
    )
    f = tmp_path / "scn.yaml"
    f.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(f), "--out", str(out)]) == 0
    doc = json.loads((out / "compare.json").read_text())
    assert list(doc["tour_hashes"]) == ["wall"]
    assert doc["tour_hashes"]["wall"]["adaptive"] == doc["tour_hashes"]["wall"]["baseline"]
    assert not (out / "adaptive" / "tour_room.json").exists()


def test_cli_unreachable_task_exit_code(tmp_path):
    import yaml

    cfg = yaml.safe_load(GOOD_YAML)
    # Add a block engulfing the whole viewpoint line at x=4.
    cfg["maps"]["delta"]["additions"] = [{"lo": [3.0, -4.0, 0.0], "hi": [5.0, 4.0, 2.4]}]
    f = tmp_path / "scn.yaml"
    f.write_text(yaml.safe_dump(cfg))
    assert main(["plan", "--config", str(f), "--out", str(tmp_path / "out")]) == 3


def test_cli_failing_scan_aborts(tmp_path, monkeypatch):
    from surfscan import supervisor
    from surfscan.geometry import PointCloud

    monkeypatch.setattr(supervisor, "sample_cloud", lambda *args, **kwargs: (PointCloud(np.zeros((0, 3))),))
    out = tmp_path / "run"
    assert main(["run", "--demo", "nominal", "--out", str(out)]) == 3
    assert json.loads((out / "summary.json").read_text())["status"] == "aborted"


def test_cli_missing_map_file_exit_code(tmp_path):
    f = tmp_path / "scn.yaml"
    f.write_text(
        "version: 1\nmaps:\n  historical: {file: nowhere.xyz}\n"
        "tasks:\n  - id: t\n    vertices: [[6,-1,0],[6,1,0],[6,1,1],[6,-1,1]]\n"
    )
    assert main(["run", "--config", str(f), "--out", str(tmp_path / "out")]) == 64


def test_cli_missing_map_file_creates_no_output(tmp_path, capsys):
    f = tmp_path / "scn.yaml"
    f.write_text(
        "version: 1\nmaps:\n  historical: {file: nowhere.xyz}\n"
        "tasks:\n  - id: t\n    vertices: [[6,-1,0],[6,1,0],[6,1,1],[6,-1,1]]\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(f), "--out", str(out)]) == 64
    assert "nowhere.xyz" in capsys.readouterr().err
    assert not out.exists()


def test_cli_directory_config_exit_code(tmp_path, capsys):
    scn = tmp_path / "scn.yaml"
    scn.mkdir()
    out = tmp_path / "out"
    assert main(["plan", "--config", str(scn), "--out", str(out)]) == 64
    assert str(scn) in capsys.readouterr().err
    assert not out.exists()


def test_cli_directory_map_file_exit_code(tmp_path, capsys):
    (tmp_path / "site.xyz").mkdir()
    f = tmp_path / "scn.yaml"
    f.write_text(
        "version: 1\nmaps:\n  historical: {file: site.xyz}\n"
        "tasks:\n  - id: t\n    vertices: [[6,-1,0],[6,1,0],[6,1,1],[6,-1,1]]\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(f), "--out", str(out)]) == 64
    assert "site.xyz" in capsys.readouterr().err
    assert not out.exists()


def test_cli_out_path_that_is_a_file_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    assert main(["plan", "--demo", "nominal", "--out", str(out)]) == 64
    assert str(out) in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "command, blocker",
    [(["run", "--demo", "nominal"], "plots"), (["compare", "--demo", "receding_full"], "adaptive")],
)
def test_cli_output_subdirectory_that_is_a_file_exits_before_planning(tmp_path, capsys, monkeypatch, command, blocker):
    from surfscan import mission

    def no_plan(self):
        raise AssertionError("planned before the output directories were made")

    monkeypatch.setattr(mission.MissionRunner, "plan", no_plan)
    out = tmp_path / "out"
    out.mkdir()
    (out / blocker).write_text("not a directory\n")
    assert main(command + ["--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / blocker) in err
    assert (out / blocker).read_text() == "not a directory\n"


def test_cli_mission_errors_propagate(tmp_path, monkeypatch):
    # Once the scenario and its maps have loaded, a ValueError is a fault of
    # the program, not a usage error: it must not exit 64.
    from surfscan import mission

    def broken(*args, **kwargs):
        raise ValueError("broken supervision")

    monkeypatch.setattr(mission, "step_mission", broken)
    with pytest.raises(ValueError, match="broken supervision"):
        main(["run", "--demo", "nominal", "--out", str(tmp_path / "run")])
