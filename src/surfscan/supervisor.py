"""Adaptive inspection supervision: segment extraction, path similarity,
the replanning decision, rigid reconciliation of the global segment, and
per-cycle mission bookkeeping."""

import enum
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    PathSegment,
    ViewPose4,
    apply_transform,
    discrete_frechet,
    kabsch_align,
    pose_error,
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

# Consecutive cycles with an empty scan a task survives; one more aborts it.
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
    """The next `horizon` tour poses from the cursor; fewer near the tour
    end, so a prediction guided by them never runs past the final
    viewpoint."""
    return PathSegment([plan.viewpoints[i] for i in tour.order[cursor : cursor + horizon]])


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
    mission's `ScenarioConfig`, the one holder of its parameters.

    A visit credits the cursor viewpoint and advances the cursor, so
    `cursor` is also the count of viewpoints visited; `approx_visits` counts
    those credited against an alignment-reprojected counterpart.
    `aligned_target` is the last cycle's counterpart of the cursor
    viewpoint, cleared by a visit; it stands for an approximated plan
    exactly when `mode` is REPLANNED.
    """

    plan: object
    tour: object
    cfg: object

    cursor: int = 0
    approx_visits: int = 0
    mode: MissionMode = MissionMode.GLOBAL
    status: MissionStatus = MissionStatus.RUNNING
    retries: int = 0
    aligned_target: Optional[ViewPose4] = None
    last_rmse_post: float = 0.0
    last_lvp: Optional[PathSegment] = None


@dataclass(frozen=True)
class SupervisionCycle:
    """What one supervision cycle measured and decided."""

    mode: MissionMode
    f_d: float
    gamma_s: float
    rmse_pre: float
    rmse_post: float
    cursor: int  # also the count of viewpoints visited
    viewing_distance: float
    event: Optional[str] = None  # visit | complete | sense_retry | abort
    visited_index: Optional[int] = None
    short_prediction: bool = False


def _unscored_cycle(state, event, visited_index):
    """The record of a cycle that emits no reference: no scan, no similarity."""
    nan = float("nan")
    return SupervisionCycle(
        mode=state.mode,
        f_d=nan,
        gamma_s=nan,
        rmse_pre=nan,
        rmse_post=nan,
        cursor=state.cursor,
        viewing_distance=nan,
        event=event,
        visited_index=visited_index,
    )


def _retry(state):
    """Count one empty scan; abort the task once the count passes
    `_MAX_RETRIES` (a scan that sees a surface resets it).  Returns the
    cycle event."""
    state.retries += 1
    if state.retries > _MAX_RETRIES:
        state.status = MissionStatus.ABORTED
        return "abort"
    return "sense_retry"


def step_mission(state, scene, robot):
    """One supervision cycle at the current robot pose of a running task.

    Marks the cursor viewpoint visited when the robot has reached its
    (possibly alignment-reprojected) counterpart, then senses, predicts the
    local path over the horizon guided by the global segment, scores the
    similarity, decides the mode and reconciles.  A visit to a counterpart
    reprojected while REPLANNED is approximate and is credited only when
    that alignment's RMSE was below `pos_tol`.  Returns the reference view
    pose to track (None on completion / an empty scan) and the cycle
    record.  Mode, horizon, sensing, similarity threshold and arrival
    tolerances come from `state.cfg`.
    """
    cfg = state.cfg
    # Visitation bookkeeping against the last reconciled counterpart.
    event = None
    visited_index = None
    target = state.aligned_target
    approx = target is not None and state.mode is MissionMode.REPLANNED
    if target is None:
        target = state.plan.viewpoints[state.tour.order[state.cursor]]
    credit = not approx or state.last_rmse_post < cfg.pos_tol
    dist, dyaw = pose_error(robot, target)
    if credit and dist <= cfg.pos_tol and dyaw <= cfg.yaw_tol:
        state.approx_visits += int(approx)
        visited_index = state.cursor
        state.cursor += 1
        state.aligned_target = None
        event = "visit"
        log.debug("visited tour index %d (%s)", visited_index, "approx" if approx else "direct")

    if state.cursor >= len(state.tour.order):
        state.status = MissionStatus.COMPLETE
        return None, _unscored_cycle(state, "complete", visited_index)

    (cloud,) = sample_cloud(scene.current, [robot.position], cfg.sense_range, cfg.sense_rays, nearest=True)
    if cloud.is_empty:
        return None, _unscored_cycle(state, _retry(state), visited_index)
    state.retries = 0
    vd = viewing_distance(robot, cloud)

    gvp = extract_global_segment(state.tour, state.plan, state.cursor, cfg.horizon)
    lvp, short = predict_local_path(robot, scene.current, gvp, cfg, cloud)
    lvp = _pad_segment(lvp, len(gvp))

    score = path_similarity(gvp, lvp)
    mode = decide(score, cfg.gamma_t) if cfg.mode == "adaptive" else MissionMode.GLOBAL
    ref_path, aligned = reconcile(gvp, lvp, mode)
    rmse_pre = path_rmse(gvp, lvp)
    rmse_post = path_rmse(aligned, lvp)

    state.mode = mode
    state.aligned_target = aligned[0]
    state.last_rmse_post = rmse_post
    state.last_lvp = lvp

    return ref_path[0], SupervisionCycle(
        mode=mode,
        f_d=score.f_d,
        gamma_s=score.gamma_s,
        rmse_pre=rmse_pre,
        rmse_post=rmse_post,
        cursor=state.cursor,
        viewing_distance=vd,
        event=event,
        visited_index=visited_index,
        short_prediction=short,
    )
