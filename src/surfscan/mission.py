"""Closed-loop mission execution.

`MissionRunner.run` flies the planned tasks in priority order with a
stepper that moves through three phases per task:

- NAVIGATE: plan a route to the tour start on the current map and follow
  its waypoints; a stalled leg is replanned once, a second stall aborts.
- INSPECT: run a supervision cycle (`step_mission`) when the previously
  commanded view pose has been reached; a cycle without a reference (a
  sensing retry) holds the robot for one step.
- TRACK: step toward the reference the cycle emitted, which stays fixed,
  then INSPECT again, also after a stall; a timeout ends the mission.

NAVIGATE and TRACK share one leg follower, `_Stepper.follow`.  It moves on
to the next ref within 0.2 m of the current one and returns `completed`
(the last ref reached within the phase's tolerances: NAVIGATE min(0.12,
0.4 pos_tol) m and min(0.15, 0.75 yaw_tol) rad, TRACK min(0.1, 0.4
pos_tol) m and min(0.1, 0.5 yaw_tol) rad), `stalled` (the stall cap hit)
or `timeout`.

The stepper only flies: per control step it notes the pose, the reference
and the last supervision cycle, whose similarity metrics carry through the
steps in between.  A step's frame and viewing distance feed no decision,
so once the flight ends one pass, `_log_steps`, senses them at every
step's pose and writes one log record per step.
"""

import logging
from dataclasses import dataclass

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
        # The scene's two maps share one grid, so one check covers both.
        if not self.scene.historical.contains(cfg.start):
            raise ValueError(f"robot.start {list(cfg.start[:3])} lies off the map")

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
        mission_log = _log_steps(stepper.flown, self.scene.current, cfg)
        mission_log.meta.update(
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
            log=mission_log,
            summary=summarize(mission_log, cfg.view.d_view),
            artifacts=artifacts,
            predicted_paths=stepper.predicted_paths,
        )


# What every record carries before the first supervision cycle.
_NO_CYCLE = SupervisionCycle(
    MissionMode.GLOBAL, NAN, NAN, NAN, NAN, cursor=0, event=None, visited_index=None, short_prediction=False,
)
# Viewing-distance scans cast together in one raycast call.
_SCAN_BATCH = 8
# The mission status a task's inspection ends with; still running means out of time.
_INSPECT_STATUS = {
    MissionStatus.COMPLETE: "completed",
    MissionStatus.ABORTED: "aborted",
    MissionStatus.RUNNING: "timeout",
}


class _Stepper:
    """One mission's robot pose, clock and random generator, and the last
    supervision cycle, whose similarity metrics every step carries until the
    next cycle.  Every control step appends exactly one entry to `flown`:
    (t, phase, cycle, pose, ref, blocked)."""

    def __init__(self, runner):
        self.cfg = cfg = runner.cfg
        self.scene = runner.scene
        self.pose = cfg.start_pose
        self.rng = np.random.default_rng(cfg.seed)
        self.steps = 0
        self.max_steps = int(round(cfg.max_sim_time / cfg.dt))
        self.flown = []
        self.cycle = _NO_CYCLE
        self.predicted_paths = []
        self.visited_total = 0
        self.approx_visits = 0
        # Arrival tolerances (distance, yaw) at the last ref of a leg.
        self.navigate_tol = (min(0.12, 0.4 * cfg.pos_tol), min(0.15, 0.75 * cfg.yaw_tol))
        self.track_tol = (min(0.1, 0.4 * cfg.pos_tol), min(0.1, 0.5 * cfg.yaw_tol))

    def fly(self, executable):
        """Navigate to and inspect each task in order; returns the mission
        status (completed | timeout | aborted)."""
        for task_plan in executable:
            status = self.navigate(task_plan)
            if status == "completed":
                status = self.inspect(task_plan)
            if status != "completed":
                return status
            # The completion cycle noted a step without moving the clock;
            # step once so the next task's records keep timestamps strict.
            self.advance(None)
        return "completed"

    # -- phases ----------------------------------------------------------------

    def navigate(self, task_plan):
        """NAVIGATE: plan a route to the tour start on the current map and
        follow its waypoints, each at the tour start's yaw.  A leg gets
        TRACK's stall cap; a stalled leg is replanned once from the current
        pose, and a second stall aborts the task."""
        cfg = self.cfg
        task_id = task_plan.task.id
        first = task_plan.plan.viewpoints[task_plan.tour.order[0]]
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
            refs = [ViewPose4(wp[0], wp[1], wp[2], first.psi) for wp in waypoints]
            outcome, blocked = self.follow("navigate", refs, self.navigate_tol, cap, blocked)
            if outcome != "stalled":
                return outcome
            log.info("task %s: navigation stalled after %d steps on leg %d", task_id, cap, leg + 1)
        log.warning("task %s: navigation to tour start stalled twice; aborting", task_id)
        return "aborted"

    def inspect(self, task_plan):
        """INSPECT: one supervision cycle per view pose, each followed by
        TRACK toward the pose it emits; a cycle that emits none (a sensing
        retry) holds the robot for one step instead.  The cycle's record
        notes TRACK's first step, so it is taken before `follow`."""
        state = MissionState(plan=task_plan.plan, tour=task_plan.tour, cfg=self.cfg)
        while state.status is MissionStatus.RUNNING and not self.out_of_time():
            ref = self.supervise(state)
            if ref is not None:
                cap = self.stall_cap(*pose_error(self.pose, ref))
                blocked = self.advance(ref)
                if self.follow("inspect", [ref], self.track_tol, cap - 1, blocked)[0] == "stalled":
                    log.debug("tracking stalled toward %s; resupervising", ref)
            elif state.status is MissionStatus.RUNNING:
                self.advance(None)
        self.visited_total += state.cursor
        self.approx_visits += state.approx_visits
        return _INSPECT_STATUS[state.status]

    def supervise(self, state):
        """Run one supervision cycle at the reported pose and note its step.
        Returns the view pose to track, or None."""
        cfg = self.cfg
        reported = add_odometry_noise(
            self.pose, cfg.odom_sigma_xy, cfg.odom_sigma_psi, self.rng
        )
        ref, self.cycle = step_mission(state, self.scene, reported)
        self.record("inspect", ref, False)
        if ref is not None and state.last_lvp is not None:
            self.predicted_paths.append((round(self.steps * cfg.dt, 9), state.last_lvp))
        return ref

    def follow(self, phase, refs, tol, cap, blocked):
        """Step along the `ViewPose4` list `refs`, moving on to the next once
        within 0.2 m of the current one, and note each step as `phase` with
        the previous step's `blocked` flag.  Returns (outcome, blocked):
        completed once the last ref is within `tol` (distance, yaw), stalled
        after `cap` steps, or timeout."""
        last = len(refs) - 1
        i = 0
        stepped = 0
        while not self.out_of_time():
            pos = self.pose.position
            while i < last and np.linalg.norm(refs[i].position - pos) < 0.2:
                i += 1
            dist, dyaw = pose_error(self.pose, refs[i])
            if i == last and dist <= tol[0] and dyaw <= tol[1]:
                return "completed", blocked
            if stepped >= cap:
                return "stalled", blocked
            self.record(phase, refs[i], blocked)
            blocked = self.advance(refs[i])
            stepped += 1
        return "timeout", blocked

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
        self.steps += 1
        return blocked

    def record(self, phase, ref, blocked):
        """Note the current step: its pose, reference and cycle."""
        self.flown.append((round(self.steps * self.cfg.dt, 9), phase, self.cycle, self.pose, ref, blocked))


def _log_steps(flown, vmap, cfg):
    """The mission log of the `_Stepper.flown` steps, one record each, with
    fresh utility and viewing distance on `vmap` at the step's pose.  The
    steps are scanned `_SCAN_BATCH` poses per multi-origin `sample_cloud`
    call, in step order, and each call's distances come from one
    `viewing_distance` pass; a step whose scan sees nothing logs NaN."""
    distances = []
    for lo in range(0, len(flown), _SCAN_BATCH):
        positions = [step[3].position for step in flown[lo : lo + _SCAN_BATCH]]
        nearest = sample_cloud(vmap, positions, cfg.sense_range, cfg.sense_rays)
        distances += viewing_distance(positions, nearest).tolist()
    mission_log = MissionLog()
    for (t, phase, cycle, pose, ref, blocked), vd in zip(flown, distances):
        try:
            utility = viewpoint_utility(render_depth(vmap, pose, cfg.camera), cfg.camera)
        except NoSurfaceError:
            utility = 0.0
        mission_log.append(
            MissionRecord(
                t=t,
                phase=phase,
                mode=cycle.mode.value,
                f_d=cycle.f_d,
                gamma_s=cycle.gamma_s,
                rmse_pre=cycle.rmse_pre,
                rmse_post=cycle.rmse_post,
                cursor=cycle.cursor,
                viewing_distance=vd,
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
    return mission_log
