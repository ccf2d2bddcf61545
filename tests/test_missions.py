"""End-to-end mission behaviors beyond the acceptance scenarios."""

import dataclasses

import numpy as np
import pytest

from surfscan import world
from surfscan.geometry import NoSurfaceError, PolygonROI, ViewPose4, wrap_angle
from surfscan.global_plan import InspectionTask, ViewConstraints
from surfscan.metrics import viewing_distance, viewpoint_utility
from surfscan.mission import MissionRunner
from surfscan.scenario import MapSpec, ScenarioConfig, demo_scenario
from surfscan.world import Box


def task(id, vertices):
    return InspectionTask(id=id, roi=PolygonROI(np.asarray(vertices, dtype=np.float64)))


def test_obstacle_demo_detours_and_completes():
    cfg = demo_scenario("obstacle")
    result = MissionRunner(cfg).run()
    assert result.status == "completed"
    assert result.summary["visited_total"] == 6
    # The new obstruction spans the direct approach; the route detours
    # around its eastern end before reaching the tour.
    nav = [r for r in result.log.records if r.phase == "navigate"]
    assert max(r.x for r in nav) > 5.5
    assert all(abs(r.x - 4.0) < 0.2 for r in result.log.records if r.phase == "inspect")
    # The obstruction is far from the inspected face: no replanning.
    assert result.summary["pct_replanned"] == 0.0


@pytest.mark.parametrize("mode", ["adaptive", "baseline"])
def test_a_wall_cut_by_the_map_edge_is_inspected_on_the_map(mode):
    # The map ends at y = 1, across the nominal wall: the two viewpoints
    # past the edge are dropped, and the robot never leaves the map.
    cfg = demo_scenario("nominal", mode)
    lo, hi = cfg.bounds
    runner = MissionRunner(dataclasses.replace(cfg, bounds=(lo, (hi[0], 1.0, hi[2]))))
    artifacts = runner.plan()
    (task_plan,) = artifacts.executable
    assert task_plan.plan.valid.tolist() == [True] * 4 + [False] * 2
    assert all(vp.y >= 1.0 for vp, ok in zip(task_plan.plan.viewpoints, task_plan.plan.valid) if not ok)
    result = runner.run(artifacts)
    assert result.status == "completed" and result.summary["visited_total"] == 4
    assert len(result.log) == 67
    assert all(runner.scene.current.contains((r.x, r.y, r.z)) for r in result.log)


@pytest.mark.parametrize("mode", ["adaptive", "baseline"])
@pytest.mark.parametrize("demo", ["nominal", "receding", "obstacle", "receding_full"])
def test_demo_robots_stay_on_the_map_in_free_voxels(demo, mode):
    runner = MissionRunner(demo_scenario(demo, mode))
    result = runner.run()
    assert result.status == "completed"
    vmap = runner.scene.current
    for r in result.log:
        assert vmap.contains((r.x, r.y, r.z))
        assert not vmap.occ[tuple(np.floor(vmap.world_to_grid((r.x, r.y, r.z))).astype(int))]


def test_unchanged_scene_computes_clearance_once(monkeypatch):
    # The nominal scene's historical and current maps are one map, so
    # planning and navigation share its free_mask cache.
    calls = []
    clearance = world._clearance_free

    def counted(*args):
        calls.append(args[1])
        return clearance(*args)

    monkeypatch.setattr(world, "_clearance_free", counted)
    result = MissionRunner(demo_scenario("nominal")).run()
    assert result.status == "completed"
    assert len(calls) == 1


def test_two_task_mission_executes_in_priority_order():
    # Two wall faces; the east wall is nearer by traversable route.
    historical = MapSpec(
        boxes=(
            Box((6.0, -3.0, 0.0), (6.4, 3.0, 2.4)),  # east wall, faces -x
            Box((-6.4, -3.0, 0.0), (-6.0, 3.0, 2.4)),  # west wall, faces +x
        )
    )
    tasks = (
        task(
            id="west",
            vertices=((-6.0, -3.0, 0.0), (-6.0, -3.0, 2.0), (-6.0, 3.0, 2.0), (-6.0, 3.0, 0.0)),
        ),
        task(
            id="east",
            vertices=((6.0, -3.0, 0.0), (6.0, 3.0, 0.0), (6.0, 3.0, 2.0), (6.0, -3.0, 2.0)),
        ),
    )
    cfg = ScenarioConfig(
        name="two-walls",
        historical=historical,
        tasks=tasks,
        bounds=((-12.0, -8.0, 0.0), (12.0, 7.0, 2.4)),
        start=(2.0, -5.0, 0.6, 0.0),
        max_sim_time=240.0,
    )
    runner = MissionRunner(cfg)
    artifacts = runner.plan()
    assert [tp.task.id for tp in artifacts.executable] == ["east", "west"]
    assert [r.task.id for r in artifacts.ranked] == ["east", "west"]
    assert artifacts.ranked[0].route_length < artifacts.ranked[1].route_length
    result = runner.run(artifacts)
    assert result.status == "completed"
    assert result.summary["visited_total"] == 12  # both tours fully visited


def test_plan_reads_the_view_and_tasks_of_the_config():
    # The config's view is the one source of the grid spacing, and the
    # plan ranks the config's own task objects.
    cfg = demo_scenario("nominal")
    wide = dataclasses.replace(cfg, view=ViewConstraints(gamma_h=0.3))
    plans = {name: MissionRunner(c).plan() for name, c in (("default", cfg), ("wide", wide))}
    assert [len(plans[name].ranked[0].plan) for name in plans] == [6, 4]
    for c, artifacts in zip((cfg, wide), plans.values()):
        assert artifacts.ranked[0].task is c.tasks[0]
        assert artifacts.executable[0].task is c.tasks[0]


def test_nominal_mission_tolerates_small_odometry_noise():
    cfg = demo_scenario("nominal")
    cfg = dataclasses.replace(cfg, odom_sigma_xy=0.02, odom_sigma_psi=0.01)
    result = MissionRunner(cfg).run()
    assert result.status == "completed"
    assert result.summary["visited_total"] == 6


def test_prebuilt_current_map_mode():
    # The current scene is supplied directly instead of via a delta: the
    # face sits 1 m behind the planned surface, so the mission adapts.
    historical = MapSpec(boxes=(Box((6.0, -3.0, 0.0), (6.4, 3.0, 2.4)),))
    current = MapSpec(boxes=(Box((7.0, -3.0, 0.0), (7.4, 3.0, 2.4)),))
    cfg = ScenarioConfig(
        name="prebuilt",
        historical=historical,
        current=current,
        tasks=(
            task(
                id="wall",
                vertices=((6.0, -3.0, 0.0), (6.0, 3.0, 0.0), (6.0, 3.0, 2.0), (6.0, -3.0, 2.0)),
            ),
        ),
        bounds=((-1.0, -8.0, 0.0), (12.0, 7.0, 2.4)),
        start=(4.0, -5.0, 0.6, 0.0),
        max_sim_time=90.0,
    )
    result = MissionRunner(cfg).run()
    assert result.status == "completed"
    assert result.summary["pct_replanned"] > 0.0
    assert result.summary["approx_visits"] >= 1


def test_angled_wall_mission_completes():
    # A face rotated 25 degrees about z voxelizes into a staircase; the
    # planner must still track its tour without spurious replanning.
    th = np.deg2rad(25.0)
    d = np.array([np.cos(th), np.sin(th)])
    p0 = np.array([6.0, -2.5])
    boxes = []
    for step in np.arange(0.0, 6.0, 0.05):
        c = p0 + d * step
        boxes.append(Box((c[0], c[1], 0.0), (c[0] + 0.45, c[1] + 0.45, 2.4)))
    v0 = [p0[0], p0[1]]
    v1 = [p0[0] + 6 * d[0], p0[1] + 6 * d[1]]
    cfg = ScenarioConfig(
        name="angled",
        historical=MapSpec(boxes=tuple(boxes)),
        tasks=(
            task(
                id="w",
                vertices=(
                    (v0[0], v0[1], 0.0),
                    (v1[0], v1[1], 0.0),
                    (v1[0], v1[1], 2.0),
                    (v0[0], v0[1], 2.0),
                ),
            ),
        ),
        bounds=((-1.0, -8.0, 0.0), (13.0, 8.0, 2.4)),
        start=(3.0, -4.5, 0.6, 0.0),
        max_sim_time=90.0,
    )
    result = MissionRunner(cfg).run()
    assert result.status == "completed"
    assert result.summary["visited_total"] == 6
    assert result.summary["pct_replanned"] == 0.0
    inspect = result.log.inspect_records()
    scores = [r.gamma_s for r in inspect if np.isfinite(r.gamma_s)]
    assert min(scores) >= 0.5
    assert result.summary["mean_utility"] > 0.7
    vd = [r.viewing_distance for r in inspect if np.isfinite(r.viewing_distance)]
    assert 1.5 < min(vd) and max(vd) < 2.3


def test_timeout_reports_partial_progress():
    cfg = dataclasses.replace(demo_scenario("nominal"), max_sim_time=4.0)
    result = MissionRunner(cfg).run()
    assert result.status == "timeout"
    assert result.summary["duration_s"] <= 4.0 + 1e-9
    assert 0 <= result.summary["visited_total"] < 6


def assert_log_is_fresh(cfg, records, batches=None):
    """Every record's viewing distance and utility are bitwise those of a
    fresh single scan and a fresh frame at its logged pose, and the log's
    scans (if `batches` is given) went out eight poses per call, the last
    call excepted."""
    if batches is not None:
        assert batches and batches[:-1] == [8] * (len(batches) - 1) and 1 <= batches[-1] <= 8
    vmap = MissionRunner(cfg).scene.current
    for r in records:
        pose = ViewPose4(r.x, r.y, r.z, r.psi)
        nearest = world.sample_cloud(vmap, [pose.position], cfg.sense_range, cfg.sense_rays)
        (want,) = viewing_distance([pose.position], nearest)
        assert np.float64(r.viewing_distance).view(np.int64) == np.float64(want).view(np.int64)
        try:
            utility = viewpoint_utility(world.render_depth(vmap, pose, cfg.camera), cfg.camera)
        except NoSurfaceError:
            utility = 0.0
        assert np.float64(r.utility).view(np.int64) == np.float64(utility).view(np.int64)


def test_batched_viewing_distances_equal_fresh_single_scans(monkeypatch):
    # The log is built after the flight: every step, a cycle's included, is
    # scanned at its logged pose, eight poses per call.  A mission cut short by
    # its time budget or aborted must still log one record per control
    # step, each with the distance and utility of its logged pose.
    from surfscan import mission
    from surfscan.global_plan import RouteError

    cycles, batches, steps = [], [], []
    step_mission, sample_cloud, track_step = mission.step_mission, mission.sample_cloud, mission.track_step

    def counted(*args):
        ref, cycle = step_mission(*args)
        cycles.append(cycle)
        return ref, cycle

    def batched(vmap, positions, *args, **kwargs):
        batches.append(len(positions))
        return sample_cloud(vmap, positions, *args, **kwargs)

    monkeypatch.setattr(mission, "step_mission", counted)
    monkeypatch.setattr(mission, "sample_cloud", batched)
    cfg = dataclasses.replace(demo_scenario("receding"), max_sim_time=9.7)
    result = MissionRunner(cfg).run()
    assert result.status == "timeout"
    records = result.log.records
    assert len(records) == round(cfg.max_sim_time / cfg.dt)
    # Every record is scanned once; with a count not a multiple of eight,
    # the last call scans fewer poses.
    assert cycles and sum(batches) == len(records) and sum(batches) % 8 != 0
    assert_log_is_fresh(cfg, records, batches)

    # The navigate leg stalls with the robot held at the start, and the
    # replanned route fails: the mission aborts mid-leg.
    real_route = mission.plan_route
    routes = []

    def route_once(*args, **kwargs):
        routes.append(args)
        if len(routes) > 1:
            raise RouteError("goal unreachable")
        return real_route(*args, **kwargs)

    def held(pose, ref, vmap, cfg):
        steps.append(pose)
        return track_step(pose, pose, vmap, cfg)

    monkeypatch.setattr(mission, "plan_route", route_once)
    monkeypatch.setattr(mission, "track_step", held)
    batches.clear()
    cfg = demo_scenario("nominal")
    result = MissionRunner(cfg).run()
    assert result.status == "aborted" and len(routes) == 2
    records = result.log.records
    assert len(records) == len(steps) > 8 and sum(batches) == len(records)
    assert all(r.phase == "navigate" for r in records)
    assert_log_is_fresh(cfg, records, batches)


def test_log_measures_the_logged_pose_under_odometry_noise():
    # The cycles run at a noisy reported pose, but each record's viewing
    # distance is measured where the robot was, like every other record's.
    cfg = dataclasses.replace(demo_scenario("nominal"), odom_sigma_xy=0.05)
    result = MissionRunner(cfg).run()
    assert result.status == "completed"
    cycles = [r for r in result.log.records if r.phase == "inspect" and np.isfinite(r.f_d)]
    assert len(cycles) > 3
    assert_log_is_fresh(cfg, result.log.records)


def test_log_scans_that_see_nothing_log_nan():
    # A 0.5 m range sees nothing from the start, 2 m off the wall: each
    # navigate record's batched scan comes back empty and logs NaN.
    cfg = dataclasses.replace(demo_scenario("nominal"), sense_range=0.5, max_sim_time=2.0)
    records = MissionRunner(cfg).run().log.records
    assert len(records) == 20
    assert all(r.phase == "navigate" and np.isnan(r.viewing_distance) for r in records)


def test_navigate_route_error_aborts_and_other_errors_propagate(monkeypatch):
    from surfscan import mission
    from surfscan.global_plan import RouteError

    runner = MissionRunner(demo_scenario("nominal"))
    artifacts = runner.plan()

    def no_route(*args, **kwargs):
        raise RouteError("goal unreachable")

    monkeypatch.setattr(mission, "plan_route", no_route)
    assert runner.run(artifacts).status == "aborted"

    def broken(*args, **kwargs):
        raise ZeroDivisionError("programming error")

    monkeypatch.setattr(mission, "plan_route", broken)
    with pytest.raises(ZeroDivisionError):
        runner.run(artifacts)


def _stall_cap(dist, dyaw, cfg):
    """The step cap of a leg of length `dist` with yaw error `dyaw`: three
    times the unobstructed time, plus 20 steps."""
    return int(3.0 * (dist / cfg.v_max + dyaw / cfg.w_max) / cfg.dt) + 20


def test_blocked_navigation_replans_once_then_aborts(monkeypatch, caplog):
    from surfscan import mission

    cfg = demo_scenario("nominal")
    real_route = mission.plan_route
    routes = []

    def counting_route(*args, **kwargs):
        routes.append(real_route(*args, **kwargs))
        return routes[-1]

    monkeypatch.setattr(mission, "plan_route", counting_route)
    monkeypatch.setattr(mission, "track_step", lambda pose, ref, vmap, cfg: (pose, True))
    result = MissionRunner(cfg).run()
    assert result.status == "aborted"
    assert len(routes) == 2
    # Each leg steps for its stall cap; the robot never moves, so both legs
    # start from the same pose.
    records = result.log.records
    dyaw = abs(wrap_angle(records[0].ref_psi - cfg.start_pose.psi))
    caps = [_stall_cap(length, dyaw, cfg) for _, length in routes]
    assert [r.phase for r in records] == ["navigate"] * sum(caps)
    assert result.summary["duration_s"] < 0.5 * cfg.max_sim_time
    # Each row logs the previous step's blocked flag.
    assert [r.blocked for r in records] == [0] + [1] * (len(records) - 1)
    assert "task wall: navigation to tour start stalled twice; aborting" in caplog.text


def test_blocked_tracking_resupervises_at_the_stall_cap_and_times_out(monkeypatch):
    from surfscan import mission

    cfg = dataclasses.replace(demo_scenario("nominal"), max_sim_time=16.0)
    real_step, real_track = mission.step_mission, mission.track_step
    cycles = []

    def counting_step(state, scene, robot):
        cycles.append(robot)
        return real_step(state, scene, robot)

    def stuck_once_inspecting(pose, ref, vmap, cfg):
        if not cycles:
            return real_track(pose, ref, vmap, cfg)
        return pose, True

    monkeypatch.setattr(mission, "step_mission", counting_step)
    monkeypatch.setattr(mission, "track_step", stuck_once_inspecting)
    result = MissionRunner(cfg).run()
    assert result.status == "timeout"
    assert result.summary["duration_s"] <= cfg.max_sim_time + 1e-9
    inspect = result.log.inspect_records()
    # Supervision records are the unblocked ones: every step after the
    # first cycle is blocked.
    supervised = [i for i, r in enumerate(inspect) if not r.blocked]
    assert len(supervised) == len(cycles) >= 2
    assert sum(r.blocked for r in inspect) == len(inspect) - len(cycles)
    # Each cycle tracks for exactly its stall cap, one record per step,
    # and the robot never moves.
    for a, b in zip(supervised, supervised[1:]):
        rec = inspect[a]
        dist = float(np.linalg.norm([rec.ref_x - rec.x, rec.ref_y - rec.y, rec.ref_z - rec.z]))
        assert b - a == _stall_cap(dist, abs(wrap_angle(rec.ref_psi - rec.psi)), cfg)
    assert len({(r.x, r.y, r.z, r.psi) for r in inspect}) == 1
    dts = np.diff([r.t for r in result.log.records])
    assert np.allclose(dts, cfg.dt, rtol=0.0, atol=1e-9)


def test_a_reference_at_the_robot_still_costs_one_tracking_step(monkeypatch):
    # The third cycle emits the pose the robot reports as its reference.
    # TRACK still takes its first step before testing arrival: arriving
    # without a step would log the next cycle at the same time as this one.
    from surfscan import mission

    cfg = demo_scenario("nominal")
    real_step, real_track = mission.step_mission, mission.track_step
    steps_after_cycle = []

    def third_cycle_holds(state, scene, robot):
        steps_after_cycle.append(0)
        ref, cycle = real_step(state, scene, robot)
        if len(steps_after_cycle) == 3:
            assert ref is not None
            ref = robot
        return ref, cycle

    def counting_track(pose, ref, vmap, cfg):
        if steps_after_cycle:
            steps_after_cycle[-1] += 1
        return real_track(pose, ref, vmap, cfg)

    monkeypatch.setattr(mission, "step_mission", third_cycle_holds)
    monkeypatch.setattr(mission, "track_step", counting_track)
    result = MissionRunner(cfg).run()
    assert result.status == "completed"
    assert len(steps_after_cycle) > 3
    assert steps_after_cycle[2] == 1
    dts = np.diff([r.t for r in result.log.records])
    assert np.allclose(dts, cfg.dt, rtol=0.0, atol=1e-9)


def test_sense_retry_holds_the_robot_for_one_step(monkeypatch):
    from surfscan import supervisor

    cfg = demo_scenario("nominal")
    real_sample = supervisor.sample_cloud
    calls = []

    def blind_second_scan(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            return np.full((1, 3), np.nan)
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(supervisor, "sample_cloud", blind_second_scan)
    result = MissionRunner(cfg).run()
    assert result.status == "completed"
    records = result.log.records
    retries = [i for i, r in enumerate(records) if r.phase == "inspect" and np.isnan(r.ref_x)]
    retry = records[retries[0]]
    # The supervisor's scan came back empty, but the log measures the world
    # at the retry's pose.
    assert np.isnan(retry.f_d) and np.isfinite(retry.viewing_distance)
    assert_log_is_fresh(cfg, [retry])
    held = records[retries[0] + 1]
    assert held.phase == "inspect"
    assert round(held.t - retry.t, 9) == cfg.dt
    assert (held.x, held.y, held.z, held.psi) == (retry.x, retry.y, retry.z, retry.psi)
