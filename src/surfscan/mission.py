"""Closed-loop mission execution.

`MissionRunner.run` flies the planned tasks in priority order with a
stepper that moves through three phases per task:

- NAVIGATE: plan a route to the tour start on the current map and follow
  its waypoints; a leg that stalls is replanned once, then the task aborts.
- INSPECT: run a supervision cycle (`step_mission`) when the previously
  commanded view pose has been reached; a cycle without a reference (a
  sensing retry) holds the robot for one step.
- TRACK: step toward the reference the cycle emitted, which stays fixed,
  until it is reached, tracking stalls or the time budget runs out; then
  INSPECT again.

One log record is written per control step.  Similarity metrics come from
the last supervision cycle and are carried through the steps in between;
pose, viewing distance and viewpoint utility are sampled fresh every step.
A step's viewing distance only fills the log and feeds no decision, so its
pose is queued and scanned together with the next few by one multi-origin
`sample_cloud` call; each distance is `viewing_distance` on its pose's
cloud, and records reach the log in order once their batch is cast.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .controller import add_odometry_noise, track_step
from .geometry import NoSurfaceError, ViewPose4, pose_error
from .global_plan import (
    RouteError,
    TaskUnreachableError,
    filter_viewpoints,
    generate_grid_viewpoints,
    plan_route,
    prioritize_tasks,
    solve_tour_sa_tsp,
)
from .metrics import (
    MissionLog,
    MissionRecord,
    summarize,
    viewing_distance,
    viewpoint_utility,
)
from .scenario import build_scene
from .supervisor import (
    MissionMode,
    MissionState,
    MissionStatus,
    SupervisionCycle,
    step_mission,
)
from .world import render_depth, sample_cloud

__all__ = ["MissionRunner", "MissionResult", "TaskPlan", "PlanArtifacts"]

log = logging.getLogger(__name__)

NAN = float("nan")


@dataclass(frozen=True)
class TaskPlan:
    task: object
    plan: object
    tour: object


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
    predicted_paths: list  # (t, PathSegment) per supervision cycle


class MissionRunner:
    def __init__(self, cfg, scene=None, base_dir=None):
        self.cfg = cfg
        self.scene = scene if scene is not None else build_scene(cfg, base_dir)
        vmap = self.scene.historical
        if not all(0 <= (p - o) / vmap.voxel_size < n for p, o, n in zip(cfg.start, vmap.origin.tolist(), vmap.shape)):
            raise ValueError(f"robot.start {list(cfg.start[:3])} lies off the historical map")

    # -- planning ------------------------------------------------------------

    def plan(self):
        """Generate viewpoint grids on the historical map, rank tasks by
        traversable route length, filter against the current map and compute
        the visitation tours."""
        cfg = self.cfg
        start = cfg.start_pose
        plans = [generate_grid_viewpoints(task, cfg.view, cfg.camera, start.position, cfg.z_band) for task in cfg.tasks]
        ranked = prioritize_tasks(cfg.tasks, plans, start, self.scene.historical, cfg.inflation, cfg.z_band)
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
            executable.append(TaskPlan(entry.task, filtered, tour))
        if not executable:
            raise TaskUnreachableError("no executable tasks: all unreachable or in collision")
        return PlanArtifacts(ranked=ranked, executable=executable)

    # -- execution -------------------------------------------------------------

    def run(self, artifacts=None):
        if artifacts is None:
            artifacts = self.plan()
        cfg = self.cfg
        stepper = _Stepper(self)
        status = stepper.fly(artifacts.executable)
        stepper.log.meta.update(
            {
                "status": status,
                "completed": status == "completed",
                "mode": cfg.mode,
                "seed": cfg.seed,
                "scenario": cfg.name,
                "visited_total": stepper.visited_total,
                "approx_visits": stepper.approx_visits,
            }
        )
        return MissionResult(
            status=status,
            log=stepper.log,
            summary=summarize(stepper.log, cfg.view.d_view),
            artifacts=artifacts,
            predicted_paths=stepper.predicted_paths,
        )


# What every record carries before the first supervision cycle.
_NO_CYCLE = SupervisionCycle(MissionMode.GLOBAL, NAN, NAN, NAN, NAN, cursor=0, viewing_distance=NAN)
# Viewing-distance scans cast together in one raycast call.
_SCAN_BATCH = 8
# The mission status a task's inspection ends with; still running means out of time.
_INSPECT_STATUS = {
    MissionStatus.COMPLETE: "completed",
    MissionStatus.ABORTED: "aborted",
    MissionStatus.RUNNING: "timeout",
}


class _Stepper:
    """One mission's robot pose, clock, random generator and log, and the
    last supervision cycle, whose similarity metrics every record carries
    until the next cycle.  Every control step appends exactly one record,
    through a queue that holds records until their batch of viewing-distance
    scans is cast."""

    def __init__(self, runner):
        self.cfg = cfg = runner.cfg
        self.scene = runner.scene
        self.pose = cfg.start_pose
        self.rng = np.random.default_rng(cfg.seed)
        self.t = 0.0
        self.steps = 0
        self.max_steps = int(round(cfg.max_sim_time / cfg.dt))
        self.log = MissionLog()
        self.queued = []  # records not yet in the log, in step order
        self.scans = []  # (index into queued, pose) still to scan
        self.cycle = _NO_CYCLE
        self.predicted_paths = []
        self.visited_total = 0
        self.approx_visits = 0

    def fly(self, executable):
        """Navigate to and inspect each task in order; returns the mission
        status (completed | timeout | aborted).  Every queued record is in
        the log when it returns."""
        try:
            for task_plan in executable:
                status = self.navigate(task_plan)
                if status == "completed":
                    status = self.inspect(task_plan)
                if status != "completed":
                    return status
                # The completion cycle logged a record without moving the
                # clock; step once so the next task's records keep
                # timestamps strict.
                self.advance(None)
            return "completed"
        finally:
            self.flush()

    # -- phases ----------------------------------------------------------------

    def navigate(self, task_plan):
        """NAVIGATE: plan a route to the tour start on the current map and
        follow its waypoints until the last one is reached.  A leg gets
        TRACK's stall cap (three times the unobstructed time along the
        route, plus 20 steps); at the cap the route is replanned once from
        the current pose, and at the second cap the task aborts."""
        cfg = self.cfg
        task_id = task_plan.task.id
        first = task_plan.plan.viewpoints[task_plan.tour.order[0]]
        pos_tol = min(0.12, 0.4 * cfg.pos_tol)
        yaw_tol = min(0.15, 0.75 * cfg.yaw_tol)
        blocked = False
        for leg in range(2):
            try:
                waypoints, length = plan_route(
                    self.scene.current, self.pose.position, first.position, cfg.inflation, cfg.z_band
                )
            except RouteError as exc:
                log.warning("task %s: route to tour start failed: %s", task_id, exc)
                return "aborted"
            cap = self.stall_cap(length, pose_error(self.pose, first)[1])
            last = len(waypoints) - 1
            wp_idx = 0
            stepped = 0
            while not self.out_of_time():
                pos = self.pose.position
                while wp_idx < last and np.linalg.norm(waypoints[wp_idx] - pos) < 0.2:
                    wp_idx += 1
                wp = waypoints[wp_idx]
                ref = ViewPose4(wp[0], wp[1], wp[2], first.psi)
                dist, dyaw = pose_error(self.pose, ref)
                if wp_idx == last and dist <= pos_tol and dyaw <= yaw_tol:
                    return "completed"
                if stepped >= cap:
                    break
                self.record("navigate", ref, blocked)
                blocked = self.advance(ref)
                stepped += 1
            else:
                return "timeout"
            log.info("task %s: navigation stalled after %d steps on leg %d", task_id, cap, leg + 1)
        log.warning("task %s: navigation to tour start stalled twice; aborting", task_id)
        return "aborted"

    def inspect(self, task_plan):
        """INSPECT: one supervision cycle per view pose, each followed by
        TRACK toward the pose it emits; a cycle that emits none (a sensing
        retry) holds the robot for one step instead."""
        state = MissionState(plan=task_plan.plan, tour=task_plan.tour, cfg=self.cfg)
        while state.status is MissionStatus.RUNNING and not self.out_of_time():
            ref = self.supervise(state)
            if ref is not None:
                self.track(ref)
            elif state.status is MissionStatus.RUNNING:
                self.advance(None)
        self.visited_total += state.cursor
        self.approx_visits += state.approx_visits
        return _INSPECT_STATUS[state.status]

    def supervise(self, state):
        """Run one supervision cycle at the reported pose and log it.
        Returns the view pose to track, or None."""
        cfg = self.cfg
        reported = add_odometry_noise(
            self.pose, cfg.odom_sigma_xy, cfg.odom_sigma_psi, self.rng
        )
        ref, self.cycle = step_mission(state, self.scene, reported)
        self.record("inspect", ref, False, vd=self.cycle.viewing_distance)
        if ref is not None and state.last_lvp is not None:
            self.predicted_paths.append((round(self.t, 9), state.last_lvp))
        return ref

    def track(self, ref):
        """TRACK: step toward the fixed reference until it is reached within
        the arrival tolerances, the stall cap (three times the unobstructed
        time, plus 20 steps) is hit or the time budget runs out."""
        cfg = self.cfg
        pos_tol = min(0.1, 0.4 * cfg.pos_tol)
        yaw_tol = min(0.1, 0.5 * cfg.yaw_tol)
        cap = self.stall_cap(*pose_error(self.pose, ref))
        blocked = self.advance(ref)
        tracked = 1
        while not self.out_of_time():
            dist, dyaw = pose_error(self.pose, ref)
            if dist <= pos_tol and dyaw <= yaw_tol:
                return
            if tracked >= cap:
                log.debug("tracking stalled toward %s; resupervising", ref)
                return
            self.record("inspect", ref, blocked)
            blocked = self.advance(ref)
            tracked += 1

    # -- one control step --------------------------------------------------------

    def out_of_time(self):
        return self.steps >= self.max_steps

    def stall_cap(self, dist, dyaw):
        """Steps allowed for a leg of length `dist` with yaw error `dyaw`:
        three times the unobstructed time, plus 20."""
        cfg = self.cfg
        return int(3.0 * (dist / max(cfg.v_max, 1e-9) + dyaw / max(cfg.w_max, 1e-9)) / cfg.dt) + 20

    def advance(self, ref):
        """One control step toward `ref` (None: hold the current pose)."""
        pose = self.pose
        target = ref if ref is not None else pose
        self.pose, blocked = track_step(pose, target, self.scene.current, self.cfg)
        self.t += self.cfg.dt
        self.steps += 1
        return blocked

    def record(self, phase, ref, blocked, vd=None):
        """Log the current pose with fresh viewing distance (unless given)
        and utility, and the last cycle's similarity metrics.  A record
        without `vd` is queued for its scan; every `_SCAN_BATCH` scans the
        queue is flushed."""
        cfg = self.cfg
        vmap = self.scene.current
        pose = self.pose
        if vd is None:
            self.scans.append((len(self.queued), pose))
        try:
            utility = viewpoint_utility(render_depth(vmap, pose, cfg.camera), cfg.camera)
        except NoSurfaceError:
            utility = 0.0
        cycle = self.cycle
        self.queued.append(
            MissionRecord(
                t=round(self.t, 9),
                phase=phase,
                mode=cycle.mode.value,
                f_d=cycle.f_d,
                gamma_s=cycle.gamma_s,
                rmse_pre=cycle.rmse_pre,
                rmse_post=cycle.rmse_post,
                cursor=cycle.cursor,
                viewing_distance=NAN if vd is None else vd,
                utility=utility,
                x=pose.x,
                y=pose.y,
                z=pose.z,
                psi=pose.psi,
                ref_x=ref.x if ref is not None else NAN,
                ref_y=ref.y if ref is not None else NAN,
                ref_z=ref.z if ref is not None else NAN,
                ref_psi=ref.psi if ref is not None else NAN,
                blocked=int(blocked),
            )
        )
        if len(self.scans) >= _SCAN_BATCH:
            self.flush()

    def flush(self):
        """Cast the queued viewing-distance scans in one call, fill in each
        record's distance (NaN for an empty scan) and append the queued
        records to the log, in order."""
        if self.scans:
            cfg = self.cfg
            at, poses = zip(*self.scans)
            positions = [pose.position for pose in poses]
            clouds = sample_cloud(self.scene.current, positions, cfg.sense_range, cfg.sense_rays, nearest=True)
            for i, pose, cloud in zip(at, poses, clouds):
                vd = NAN if cloud.is_empty else viewing_distance(pose, cloud)
                self.queued[i] = replace(self.queued[i], viewing_distance=vd)
        for rec in self.queued:
            self.log.append(rec)
        self.queued.clear()
        self.scans.clear()
