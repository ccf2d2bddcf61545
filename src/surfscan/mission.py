"""Closed-loop mission execution.

Per task: plan the route to the tour start on the current map and track it
(NAVIGATE), then alternate supervision cycles with reference tracking
(INSPECT).  A supervision cycle runs when the previously commanded view
pose has been reached; the emitted reference then stays fixed while the
controller closes in on it.  One log record is written per control step;
similarity metrics refresh at supervision instants and are carried through
the tracking steps in between, while pose, viewing distance and viewpoint
utility are sampled fresh every step.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .controller import RobotState, add_odometry_noise, track_step
from .geometry import NoSurfaceError, ViewPose4, wrap_angle
from .global_plan import (
    RouteError,
    TaskUnreachableError,
    filter_viewpoints,
    generate_grid_viewpoints,
    plan_route,
    prioritize_tasks,
    solve_tour_sa_tsp,
)
from .local_plan import LocalPlanConfig
from .metrics import (
    MissionLog,
    MissionRecord,
    summarize,
    viewing_distance,
    viewpoint_utility,
)
from .scenario import build_scene
from .supervisor import MissionMode, MissionState, MissionStatus, step_mission
from .world import render_depth, sample_cloud

__all__ = ["MissionRunner", "MissionResult", "TaskPlan", "PlanArtifacts"]

log = logging.getLogger(__name__)

NAN = float("nan")


@dataclass(frozen=True)
class TaskPlan:
    task: object
    plan: object
    tour: object
    route_length: float


@dataclass(frozen=True)
class PlanArtifacts:
    ranked: list  # TaskPriority entries, ordered
    executable: list  # TaskPlan entries, ordered


@dataclass
class MissionResult:
    status: str  # completed | timeout | aborted
    log: MissionLog
    summary: dict
    artifacts: PlanArtifacts
    predicted_paths: list = None  # (t, PathSegment) per supervision cycle


class MissionRunner:
    def __init__(self, cfg, scene=None, base_dir=None):
        self.cfg = cfg
        self.scene = scene if scene is not None else build_scene(cfg, base_dir)
        self.local_cfg = LocalPlanConfig(
            constraints=cfg.view,
            horizon=cfg.horizon,
            z_band=tuple(cfg.z_band) if cfg.z_band is not None else None,
            sense_range=cfg.sense_range,
            sense_rays=cfg.sense_rays,
        )

    # -- planning ------------------------------------------------------------

    def plan(self):
        """Generate viewpoint grids on the historical map, rank tasks by
        traversable route length, filter against the current map and compute
        the visitation tours."""
        cfg = self.cfg
        start = cfg.start_pose
        tasks = cfg.task_objects()
        plans = [
            generate_grid_viewpoints(task, toward=start.position, z_band=cfg.z_band)
            for task in tasks
        ]
        ranked = prioritize_tasks(
            tasks, plans, start, self.scene.historical, cfg.inflation, z_band=cfg.z_band
        )
        executable = []
        for entry in ranked:
            if not entry.reachable:
                log.warning("task %s skipped: unreachable", entry.task.id)
                continue
            try:
                filtered = filter_viewpoints(entry.plan, self.scene.current, cfg.inflation)
            except TaskUnreachableError as exc:
                log.warning("task %s skipped: %s", entry.task.id, exc)
                continue
            tour = solve_tour_sa_tsp(filtered, start.position, cfg.seed)
            executable.append(TaskPlan(entry.task, filtered, tour, entry.route_length))
        if not executable:
            raise TaskUnreachableError("no executable tasks: all unreachable or in collision")
        return PlanArtifacts(ranked=ranked, executable=executable)

    # -- execution -------------------------------------------------------------

    def run(self, artifacts=None):
        cfg = self.cfg
        if artifacts is None:
            artifacts = self.plan()
        scene = self.scene
        rng = np.random.default_rng(cfg.seed)
        robot = RobotState(
            pose=cfg.start_pose, v_max=cfg.v_max, w_max=cfg.w_max, inflation=cfg.inflation
        )
        mission_log = MissionLog()
        clock = {"t": 0.0, "steps": 0}
        max_steps = int(round(cfg.max_sim_time / cfg.dt))
        adaptive = cfg.mode == "adaptive"

        nav_pos_tol = min(0.12, 0.4 * cfg.pos_tol)
        nav_yaw_tol = min(0.15, 0.75 * cfg.yaw_tol)
        arrive_pos = min(0.1, 0.4 * cfg.pos_tol)
        arrive_yaw = min(0.1, 0.5 * cfg.yaw_tol)

        # Similarity metrics carried between supervision instants.
        carried = {
            "mode": MissionMode.GLOBAL,
            "f_d": NAN,
            "gamma_s": NAN,
            "rmse_pre": NAN,
            "rmse_post": NAN,
            "cursor": 0,
            "visited": 0,
        }

        def observe(pose):
            try:
                depth = render_depth(scene.current, pose, cfg.camera)
                return viewpoint_utility(depth, cfg.camera)
            except NoSurfaceError:
                return 0.0

        def measure_vd(pose):
            cloud = sample_cloud(
                scene.current, pose, cfg.sense_range, cfg.sense_rays, nearest=True
            )
            return viewing_distance(pose, cloud) if not cloud.is_empty else NAN

        def reported(pose):
            if cfg.odom_sigma_xy == 0.0 and cfg.odom_sigma_psi == 0.0:
                return pose
            return add_odometry_noise(pose, cfg.odom_sigma_xy, cfg.odom_sigma_psi, rng)

        def refresh(cycle):
            carried["mode"] = cycle.mode
            carried["f_d"] = cycle.f_d
            carried["gamma_s"] = cycle.gamma_s
            carried["rmse_pre"] = cycle.rmse_pre
            carried["rmse_post"] = cycle.rmse_post
            carried["cursor"] = cycle.cursor
            carried["visited"] = cycle.visited

        def emit(phase, ref, blocked, vd=None):
            pose = robot.pose
            mode = carried["mode"]
            gamma_s = carried["gamma_s"]
            mission_log.append(
                MissionRecord(
                    t=round(clock["t"], 9),
                    phase=phase,
                    mode=mode.value,
                    f_d=carried["f_d"],
                    gamma_s=gamma_s,
                    deviation=1.0 - gamma_s if np.isfinite(gamma_s) else NAN,
                    rmse_pre=carried["rmse_pre"],
                    rmse_post=carried["rmse_post"],
                    cursor=carried["cursor"],
                    visited=carried["visited"],
                    viewing_distance=measure_vd(pose) if vd is None else vd,
                    utility=observe(pose),
                    x=pose.x,
                    y=pose.y,
                    z=pose.z,
                    psi=pose.psi,
                    ref_x=ref.x if ref is not None else NAN,
                    ref_y=ref.y if ref is not None else NAN,
                    ref_z=ref.z if ref is not None else NAN,
                    ref_psi=ref.psi if ref is not None else NAN,
                    blocked=int(blocked),
                    replanned=int(mode is MissionMode.REPLANNED),
                )
            )

        def out_of_time():
            return clock["steps"] >= max_steps

        def advance(ref):
            nonlocal robot
            target = ref if ref is not None else ViewPose4(
                robot.pose.x, robot.pose.y, robot.pose.z, robot.pose.psi
            )
            robot, blocked = track_step(robot, target, scene.current, cfg.dt)
            clock["t"] += cfg.dt
            clock["steps"] += 1
            return blocked

        def pose_error(ref):
            dist = float(np.linalg.norm(ref.position - robot.pose.position))
            dyaw = abs(wrap_angle(ref.psi - robot.pose.psi))
            return dist, dyaw

        status = "completed"
        total_visited = 0
        total_approx = 0
        predicted_paths = []

        for task_plan in artifacts.executable:
            first = task_plan.plan.viewpoints[task_plan.tour.order[0]]

            # NAVIGATE to the tour start over the current map.
            try:
                waypoints, _ = plan_route(
                    scene.current,
                    robot.pose.position,
                    first.position,
                    cfg.inflation,
                    z_band=cfg.z_band,
                )
            except RouteError as exc:
                log.warning("task %s: route to tour start failed: %s", task_plan.task.id, exc)
                status = "aborted"
                break
            wp_idx = 0
            while True:
                if out_of_time():
                    status = "timeout"
                    break
                pos = robot.pose.position
                while (
                    wp_idx < len(waypoints) - 1
                    and np.linalg.norm(waypoints[wp_idx] - pos) < 0.2
                ):
                    wp_idx += 1
                wp = waypoints[wp_idx]
                ref = ViewPose4(wp[0], wp[1], wp[2], first.psi)
                dist, dyaw = pose_error(ref)
                if wp_idx == len(waypoints) - 1 and dist <= nav_pos_tol and dyaw <= nav_yaw_tol:
                    break
                emit("navigate", ref, False)
                blocked = advance(ref)
                if blocked:
                    log.debug("navigate blocked at %s", robot.pose)
            if status != "completed":
                break

            # INSPECT: one supervision cycle per tracked view pose.  The
            # emitted reference stays fixed while the robot closes in on it.
            state = MissionState(
                plan=task_plan.plan,
                tour=task_plan.tour,
                local_cfg=self.local_cfg,
                gamma_t=cfg.gamma_t,
                pos_tol=cfg.pos_tol,
                yaw_tol=cfg.yaw_tol,
                adaptive=adaptive,
            )
            while state.status is MissionStatus.RUNNING:
                if out_of_time():
                    status = "timeout"
                    break
                ref, cycle = step_mission(state, scene, reported(robot.pose))
                refresh(cycle)
                emit("inspect", ref, False, vd=cycle.viewing_distance)
                if ref is not None and state.last_lvp is not None:
                    predicted_paths.append((round(clock["t"], 9), state.last_lvp))
                if state.status is not MissionStatus.RUNNING:
                    break
                if ref is None:  # sensing hiccup: hold one step and retry
                    advance(None)
                    continue
                dist, dyaw = pose_error(ref)
                cap = int(3.0 * (dist / max(cfg.v_max, 1e-9) + dyaw / max(cfg.w_max, 1e-9)) / cfg.dt) + 20
                blocked = advance(ref)
                tracked = 1
                while not out_of_time():
                    dist, dyaw = pose_error(ref)
                    if dist <= arrive_pos and dyaw <= arrive_yaw:
                        break
                    if tracked >= cap:
                        log.debug("tracking stalled toward %s; resupervising", ref)
                        break
                    emit("inspect", ref, blocked)
                    blocked = advance(ref)
                    tracked += 1
            if state.status is MissionStatus.ABORTED:
                status = "aborted"
            total_visited += state.visited_count
            total_approx += state.approx_visits
            if status != "completed":
                break
            # The completion cycle logged a record without moving the clock;
            # step once so the next task's records keep timestamps strict.
            advance(None)

        mission_log.meta.update(
            {
                "status": status,
                "completed": status == "completed",
                "mode": cfg.mode,
                "seed": cfg.seed,
                "scenario": cfg.name,
                "visited_total": total_visited,
                "approx_visits": total_approx,
            }
        )
        result_summary = summarize(mission_log, d_view=cfg.view.d_view)
        return MissionResult(
            status=status,
            log=mission_log,
            summary=result_summary,
            artifacts=artifacts,
            predicted_paths=predicted_paths,
        )
