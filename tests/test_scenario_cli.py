import dataclasses
import json
import re

import numpy as np
import pytest

from surfscan.cli import main
from surfscan.scenario import DEMO_NAMES, build_scene, demo_scenario, load_scenario

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
view: {d_view: 2.0, gamma_h: 0.6, gamma_v: 0.6, alpha_deg: 69.5, beta_deg: 45.0}
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
    scene = build_scene(cfg)
    assert scene.historical.occupied_count > 0
    assert scene.current.occupied_count > scene.historical.occupied_count  # addition applied


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
    assert scene.historical.occupied_count == 1


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
        (("robot", "v_max"), -1, "robot.v_max must be non-negative, got -1.0"),
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
    ],
)
def test_cli_rejects_non_finite_parameters(tmp_path, capsys, path, value, reason):
    # NaN used to pass every sign test and end the run with a traceback;
    # an infinite tolerance or speed loaded and the run timed out.
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
        scene = build_scene(cfg)
        assert scene.current.occupied_count > 0
    with pytest.raises(ValueError):
        demo_scenario("bogus")


def test_demo_scene_deltas():
    nominal = build_scene(demo_scenario("nominal"))
    assert np.array_equal(nominal.historical.occ, nominal.current.occ)
    receding = build_scene(demo_scenario("receding"))
    assert receding.current.occupied_count < receding.historical.occupied_count
    obstacle = build_scene(demo_scenario("obstacle"))
    assert obstacle.current.occupied_count > obstacle.historical.occupied_count


# ---------------------------------------------------------------- CLI


def test_cli_requires_config_or_demo(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "o")]) == 64
    assert main(["run", "--demo", "nominal", "--config", "x.yaml", "--out", str(tmp_path / "o")]) == 64


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


def test_cli_failing_prediction_aborts(tmp_path, monkeypatch):
    from surfscan import supervisor

    monkeypatch.setattr(supervisor, "predict_local_path", lambda *args, **kwargs: (None, True))
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


def test_cli_mission_errors_propagate(tmp_path, monkeypatch):
    # Once the scenario and its maps have loaded, a ValueError is a fault of
    # the program, not a usage error: it must not exit 64.
    from surfscan import mission

    def broken(*args, **kwargs):
        raise ValueError("broken supervision")

    monkeypatch.setattr(mission, "step_mission", broken)
    with pytest.raises(ValueError, match="broken supervision"):
        main(["run", "--demo", "nominal", "--out", str(tmp_path / "run")])
