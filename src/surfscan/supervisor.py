"""Adaptive inspection supervision: segment extraction, path similarity,
the replanning decision, rigid reconciliation of the global segment, and
per-cycle mission bookkeeping."""

import enum
import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import (
    NoSurfaceError,
    PathSegment,
    ViewPose4,
    apply_transform,
    discrete_frechet,
    kabsch_align,
    wrap_angle,
)
from .local_plan import predict_local_path
from .metrics import path_rmse, viewing_distance
from .world import sample_cloud

__all__ = [
    "MissionMode",
    "MissionStatus",
    "SimilarityScore",
    "MissionState",
    "SupervisionCycle",
    "extract_global_segment",
    "path_similarity",
    "decide",
    "reconcile",
    "step_mission",
]

log = logging.getLogger(__name__)

# Consecutive failed sensing or prediction cycles a task survives; one more
# aborts it.
_MAX_RETRIES = 10


class MissionMode(enum.Enum):
    GLOBAL = "global"
    REPLANNED = "replanned"


class MissionStatus(enum.Enum):
    RUNNING = "running"
    COMPLETE = "complete"
    ABORTED = "aborted"


@dataclass(frozen=True)
class SimilarityScore:
    """Path similarity gamma_s = 1 / (1 + F_D); 1 means identical paths."""

    gamma_s: float
    f_d: float

    @classmethod
    def from_distance(cls, f_d):
        if f_d < 0 or not np.isfinite(f_d):
            raise ValueError(f"Frechet distance must be finite and non-negative, got {f_d}")
        return cls(gamma_s=1.0 / (1.0 + f_d), f_d=float(f_d))


def extract_global_segment(tour, plan, cursor, horizon):
    """Next `horizon` tour poses from the cursor, padded by repeating the
    final pose so the segment always has exactly `horizon` entries (keeps
    the index-wise alignment well-posed).  Returns None when the tour is
    exhausted (completion signal)."""
    if cursor >= len(tour.order):
        return None
    poses = []
    for k in range(cursor, cursor + horizon):
        idx = tour.order[min(k, len(tour.order) - 1)]
        poses.append(plan.viewpoints[idx])
    return PathSegment(poses)


def path_similarity(gvp, lvp):
    """Similarity score between the global segment and the local prediction."""
    return SimilarityScore.from_distance(discrete_frechet(gvp, lvp))


def decide(score, gamma_t):
    """Replan when similarity drops below the threshold (deviation high);
    exact threshold equality keeps the global plan."""
    return MissionMode.REPLANNED if score.gamma_s < gamma_t else MissionMode.GLOBAL


def reconcile(gvp, lvp, mode):
    """Reference path to track and the reprojected global segment.

    GLOBAL: the global segment is tracked and stands for itself.
    REPLANNED: the local prediction is tracked; the global segment is
    reprojected onto it by the rigid alignment so visitation can be
    accounted against the approximated plan.  Segments shorter than the
    3-point alignment minimum are padded (both sides, repeating the final
    pose) to keep the correspondence well-posed.
    """
    if mode is MissionMode.GLOBAL:
        return gvp, gvp
    if len(gvp) != len(lvp):
        raise ValueError(f"segment length mismatch: {len(gvp)} vs {len(lvp)}")
    gvp_a, lvp_a = gvp, lvp
    if len(gvp) < 3:
        gvp_a = _pad_segment(gvp, 3)
        lvp_a = _pad_segment(lvp, 3)
    return lvp, apply_transform(kabsch_align(gvp_a, lvp_a), gvp)


def _pad_segment(segment, length):
    if len(segment) >= length:
        return segment
    arr = segment.as_array()
    pad = np.vstack([arr] + [arr[-1:]] * (length - len(segment)))
    return PathSegment(pad)


@dataclass
class MissionState:
    """Mutable supervision state for one task's tour.  `cfg` is the
    mission's `ScenarioConfig`, the one holder of its parameters."""

    plan: object
    tour: object
    cfg: object

    cursor: int = 0
    visited_via: list = field(default_factory=list)  # None | "direct" | "approx"
    mode: MissionMode = MissionMode.GLOBAL
    status: MissionStatus = MissionStatus.RUNNING
    retries: int = 0
    aligned_target: Optional[ViewPose4] = None
    target_mode: MissionMode = MissionMode.GLOBAL
    last_rmse_post: float = 0.0
    last_lvp: Optional[PathSegment] = None

    def __post_init__(self):
        if not self.visited_via:
            self.visited_via = [None] * len(self.tour.order)

    @property
    def visited_count(self):
        return sum(1 for v in self.visited_via if v is not None)

    @property
    def approx_visits(self):
        return sum(1 for v in self.visited_via if v == "approx")


@dataclass(frozen=True)
class SupervisionCycle:
    """What one supervision cycle measured and decided."""

    mode: MissionMode
    f_d: float
    gamma_s: float
    rmse_pre: float
    rmse_post: float
    cursor: int
    visited: int
    viewing_distance: float
    event: Optional[str] = None  # visit | complete | sense_retry | abort
    visited_index: Optional[int] = None
    short_prediction: bool = False


def _within(robot, target, pos_tol, yaw_tol):
    if float(np.linalg.norm(robot.position - target.position)) > pos_tol:
        return False
    return abs(wrap_angle(target.psi - robot.psi)) <= yaw_tol


def _unscored_cycle(state, event, visited_index, vd=float("nan")):
    """The record of a cycle that emits no reference: no similarity."""
    nan = float("nan")
    return SupervisionCycle(
        mode=state.mode,
        f_d=nan,
        gamma_s=nan,
        rmse_pre=nan,
        rmse_post=nan,
        cursor=state.cursor,
        visited=state.visited_count,
        viewing_distance=vd,
        event=event,
        visited_index=visited_index,
    )


def _retry(state):
    """Count one failed sensing or prediction attempt; abort the task once
    the count passes `_MAX_RETRIES` (a successful prediction resets it).
    Returns the cycle event."""
    state.retries += 1
    if state.retries > _MAX_RETRIES:
        state.status = MissionStatus.ABORTED
        return "abort"
    return "sense_retry"


def step_mission(state, scene, robot):
    """One supervision cycle at the current robot pose.

    Marks the cursor viewpoint visited when the robot has reached its
    (possibly alignment-reprojected) counterpart, then senses, predicts the
    local path over the horizon guided by the global segment, scores the
    similarity, decides the mode and reconciles.  Returns the reference
    view pose to track (None on completion / sensing failure) and the cycle
    record.  Mode, horizon, sensing, similarity threshold and arrival
    tolerances come from `state.cfg`.
    """
    cfg = state.cfg
    # Visitation bookkeeping against the last reconciled counterpart.
    event = None
    visited_index = None
    if state.cursor < len(state.tour.order):
        target = state.aligned_target
        if target is None:
            target = state.plan.viewpoints[state.tour.order[state.cursor]]
        if _within(robot, target, cfg.pos_tol, cfg.yaw_tol):
            credit = (
                state.target_mode is MissionMode.GLOBAL
                or state.last_rmse_post < cfg.pos_tol
            )
            if credit:
                state.visited_via[state.cursor] = (
                    "direct" if state.target_mode is MissionMode.GLOBAL else "approx"
                )
                visited_index = state.cursor
                state.cursor += 1
                state.aligned_target = None
                state.target_mode = MissionMode.GLOBAL
                event = "visit"
                log.debug("visited tour index %d (%s)", visited_index, state.visited_via[visited_index])

    if state.cursor >= len(state.tour.order):
        state.status = MissionStatus.COMPLETE
        return None, _unscored_cycle(state, "complete", visited_index)

    cloud = sample_cloud(scene.current, robot.position, cfg.sense_range, cfg.sense_rays, nearest=True)
    if cloud.is_empty:
        return None, _unscored_cycle(state, _retry(state), visited_index)
    vd = viewing_distance(robot, cloud)

    # The segment shrinks near the tour end so the prediction chain never
    # runs past the final viewpoint.
    remaining = len(state.tour.order) - state.cursor
    horizon = min(cfg.horizon, remaining)
    gvp = extract_global_segment(state.tour, state.plan, state.cursor, horizon)
    try:
        lvp, short = predict_local_path(robot, scene.current, gvp, cfg, cloud)
    except NoSurfaceError:
        lvp, short = None, True
    if lvp is None:
        return None, _unscored_cycle(state, _retry(state), visited_index, vd)
    state.retries = 0
    lvp = _pad_segment(lvp, len(gvp))

    score = path_similarity(gvp, lvp)
    mode = decide(score, cfg.gamma_t) if cfg.mode == "adaptive" else MissionMode.GLOBAL
    ref_path, aligned = reconcile(gvp, lvp, mode)
    rmse_pre = path_rmse(gvp, lvp)
    rmse_post = path_rmse(aligned, lvp)

    state.mode = mode
    state.aligned_target = aligned[0]
    state.target_mode = mode
    state.last_rmse_post = rmse_post
    state.last_lvp = lvp

    return ref_path[0], SupervisionCycle(
        mode=mode,
        f_d=score.f_d,
        gamma_s=score.gamma_s,
        rmse_pre=rmse_pre,
        rmse_post=rmse_post,
        cursor=state.cursor,
        visited=state.visited_count,
        viewing_distance=vd,
        event=event,
        visited_index=visited_index,
        short_prediction=short,
    )
