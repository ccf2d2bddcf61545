import dataclasses

import numpy as np
import pytest

from surfscan import supervisor
from surfscan.geometry import PathSegment, ViewPose4, discrete_frechet
from surfscan.global_plan import Tour, ViewPlan
from surfscan.metrics import path_rmse
from surfscan.scenario import demo_scenario
from surfscan.supervisor import (
    MissionMode,
    MissionState,
    MissionStatus,
    SimilarityScore,
    decide,
    extract_global_segment,
    path_similarity,
    reconcile,
    step_mission,
)
from surfscan.world import Box, Scene, VoxelMap


def line_plan(n, x=4.0, y0=0.0, spacing=1.11):
    vps = tuple(ViewPose4(x, y0 + i * spacing, 0.6, 0.0) for i in range(n))
    return ViewPlan(
        task_id="t",
        viewpoints=vps,
        valid=np.ones(n, dtype=bool),
    )


def line_tour(n):
    return Tour(order=tuple(range(n)), length=0.0)


# ---------------------------------------------------------------- segments


def test_extract_segment_head():
    plan, tour = line_plan(10), line_tour(10)
    seg = extract_global_segment(tour, plan, 0, 3)
    assert len(seg) == 3
    assert np.allclose(seg.positions[:, 1], [0.0, 1.11, 2.22])


def test_extract_segment_near_tour_end_holds_only_the_remaining_poses():
    plan, tour = line_plan(10), line_tour(10)
    seg = extract_global_segment(tour, plan, 8, 3)
    assert len(seg) == 2
    assert np.allclose(seg.positions[:, 1], [8 * 1.11, 9 * 1.11])
    assert len(extract_global_segment(tour, plan, 9, 3)) == 1


def test_extract_segment_whole_tour():
    plan, tour = line_plan(4), line_tour(4)
    seg = extract_global_segment(tour, plan, 0, 4)
    assert len(seg) == 4


# ---------------------------------------------------------------- similarity


def test_similarity_identical():
    seg = PathSegment([[0, 0, 0], [1, 0, 0]])
    s = path_similarity(seg, seg)
    assert s.f_d == 0.0 and s.gamma_s == 1.0


def test_similarity_arithmetic():
    a = PathSegment([[0, 0, 0], [1, 0, 0]])
    b = PathSegment([[0, 1, 0], [1, 1, 0]])
    s = path_similarity(a, b)
    assert s.f_d == pytest.approx(1.0) and s.gamma_s == pytest.approx(0.5)
    c = PathSegment([[0, 3, 0], [1, 3, 0]])
    s = path_similarity(a, c)
    assert s.gamma_s == pytest.approx(0.25)


def test_similarity_score_invariants(rng):
    for f in rng.uniform(0, 50, size=200):
        s = SimilarityScore.from_distance(f)
        assert 0.0 < s.gamma_s <= 1.0
        assert (s.gamma_s == 1.0) == (f == 0.0)
    fs = np.sort(rng.uniform(0, 10, size=50))
    gammas = [SimilarityScore.from_distance(f).gamma_s for f in fs]
    assert all(b <= a for a, b in zip(gammas, gammas[1:]))  # monotone in deviation


def test_similarity_rejects_bad_distance():
    with pytest.raises(ValueError):
        SimilarityScore.from_distance(-1.0)


# ---------------------------------------------------------------- decide


def test_decide_identical_paths_stay_global():
    assert decide(SimilarityScore.from_distance(0.0), 0.5) is MissionMode.GLOBAL


def test_decide_replans_on_deviation():
    assert decide(SimilarityScore.from_distance(3.0), 0.5) is MissionMode.REPLANNED


def test_decide_boundary_equality_global():
    assert decide(SimilarityScore.from_distance(1.0), 0.5) is MissionMode.GLOBAL


# ---------------------------------------------------------------- reconcile


def test_reconcile_global_passthrough():
    gvp = PathSegment([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    lvp = PathSegment([[0, 1, 0], [1, 1, 0], [2, 1, 0]])
    ref, aligned = reconcile(gvp, lvp, MissionMode.GLOBAL)
    assert ref is gvp and aligned is gvp


def test_reconcile_translation_case():
    gvp = PathSegment([[0, 0, 0], [1, 0.2, 0], [2, 0, 0], [3, 0.3, 0]])
    lvp = PathSegment((gvp.positions + np.array([1.0, 0.0, 0.0])))
    ref, aligned = reconcile(gvp, lvp, MissionMode.REPLANNED)
    assert ref is lvp
    assert np.abs(aligned.positions - lvp.positions).max() < 1e-9
    assert path_rmse(aligned, lvp) < 1e-9


def test_reconcile_rotation_improves_rmse(rng):
    th = np.deg2rad(10.0)
    rz = np.array([[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1]])
    gvp_pts = rng.normal(size=(5, 3))
    lvp_pts = gvp_pts @ rz.T
    gvp, lvp = PathSegment(gvp_pts), PathSegment(lvp_pts)
    _, aligned = reconcile(gvp, lvp, MissionMode.REPLANNED)
    assert path_rmse(aligned, lvp) < path_rmse(gvp, lvp)


def test_reconcile_short_segments_padded():
    gvp = PathSegment([[0, 0, 0], [1, 0, 0]])
    lvp = PathSegment([[0, 1, 0], [1, 1, 0]])
    _, aligned = reconcile(gvp, lvp, MissionMode.REPLANNED)
    assert len(aligned) == 2
    assert path_rmse(aligned, lvp) <= path_rmse(gvp, lvp) + 1e-9


# ---------------------------------------------------------------- mission stepping


def wall_scene():
    vmap = VoxelMap.from_boxes(
        [Box((6.0, -5.0, 0.0), (6.4, 9.0, 2.4))],
        0.1,
        bounds=((-1.0, -7.0, 0.0), (10.0, 10.0, 2.4)),
    )
    return Scene.unchanged(vmap)


def make_state(n=4, adaptive=True):
    plan = line_plan(n)
    cfg = dataclasses.replace(
        demo_scenario("nominal"), horizon=3, mode="adaptive" if adaptive else "baseline"
    )
    return MissionState(plan=plan, tour=line_tour(n), cfg=cfg)


def test_step_mission_visits_and_advances():
    scene = wall_scene()
    state = make_state()
    robot = ViewPose4(4.0, 0.0, 0.6, 0.0)  # exactly at viewpoint 0
    ref, cycle = step_mission(state, scene, robot)
    assert cycle.event == "visit" and cycle.visited_index == 0
    assert state.cursor == 1 and state.approx_visits == 0
    assert ref is not None
    assert cycle.gamma_s > 0.5  # nominal scene stays similar


def test_step_mission_completion():
    scene = wall_scene()
    state = make_state(n=1)
    robot = ViewPose4(4.0, 0.0, 0.6)
    ref, cycle = step_mission(state, scene, robot)
    assert cycle.event == "complete" and ref is None
    assert state.status is MissionStatus.COMPLETE
    assert state.cursor == 1 and state.approx_visits == 0


def test_step_mission_no_visit_when_far():
    scene = wall_scene()
    state = make_state()
    robot = ViewPose4(4.0, -0.9, 0.6)
    _, cycle = step_mission(state, scene, robot)
    assert cycle.event is None and state.cursor == 0


def test_step_mission_yaw_gate():
    scene = wall_scene()
    state = make_state()
    robot = ViewPose4(4.0, 0.0, 0.6, 1.0)  # right spot, wrong heading
    _, cycle = step_mission(state, scene, robot)
    assert cycle.event is None and state.cursor == 0


def test_step_mission_approx_credit_gated_on_alignment():
    scene = wall_scene()
    state = make_state()
    # Pretend the last cycle reprojected viewpoint 0 to the robot's position
    # with a tight alignment: credit flows and is recorded as approximate.
    state.aligned_target = ViewPose4(5.0, 0.0, 0.6, 0.0)
    state.mode = MissionMode.REPLANNED
    state.last_rmse_post = 0.05
    robot = ViewPose4(5.0, 0.0, 0.6)
    _, cycle = step_mission(state, scene, robot)
    assert cycle.event == "visit" and cycle.visited_index == 0
    assert state.cursor == 1 and state.approx_visits == 1


def test_step_mission_approx_credit_denied_on_loose_alignment():
    scene = wall_scene()
    state = make_state()
    state.aligned_target = ViewPose4(5.0, 0.0, 0.6, 0.0)
    state.mode = MissionMode.REPLANNED
    state.last_rmse_post = 0.8  # alignment too loose to trust
    robot = ViewPose4(5.0, 0.0, 0.6)
    _, cycle = step_mission(state, scene, robot)
    assert cycle.event is None and state.cursor == 0


def test_step_mission_credits_directly_after_an_approximated_visit():
    # An approximated visit clears the reprojected counterpart; the mode
    # stays REPLANNED and the loose alignment stays on record, yet the next
    # viewpoint is credited directly at its own pose, even after a cycle
    # whose scan came up empty.
    scene = wall_scene()
    empty = Scene.unchanged(VoxelMap.empty((0, -1, 0), (8, 1, 2), 0.1))
    state = make_state()
    state.aligned_target = ViewPose4(5.0, 0.0, 0.6, 0.0)
    state.mode = MissionMode.REPLANNED
    state.last_rmse_post = 0.05
    step_mission(state, empty, ViewPose4(5.0, 0.0, 0.6))
    assert state.cursor == 1 and state.approx_visits == 1 and state.aligned_target is None
    state.last_rmse_post = state.cfg.pos_tol
    next_vp = state.plan.viewpoints[state.tour.order[1]]
    _, cycle = step_mission(state, empty, ViewPose4(5.0, 0.0, 0.6))
    assert cycle.event == "sense_retry" and state.cursor == 1
    assert state.mode is MissionMode.REPLANNED and state.last_rmse_post >= state.cfg.pos_tol
    _, cycle = step_mission(state, scene, next_vp)
    assert cycle.event == "visit" and cycle.visited_index == 1
    assert state.cursor == 2 and state.approx_visits == 1


def test_step_mission_sensing_failure_retries_then_aborts(monkeypatch):
    monkeypatch.setattr(supervisor, "_MAX_RETRIES", 2)
    empty = Scene.unchanged(VoxelMap.empty((0, -1, 0), (8, 1, 2), 0.1))
    state = make_state()
    robot = ViewPose4(4.0, 0.0, 0.6)
    events = []
    for _ in range(4):
        ref, cycle = step_mission(state, empty, robot)
        events.append(cycle.event)
        assert ref is None
        if state.status is MissionStatus.ABORTED:
            break
    assert events[:2] == ["sense_retry", "sense_retry"]
    assert state.status is MissionStatus.ABORTED


def test_step_mission_scores_short_prediction_padded(monkeypatch):
    # A 1-pose prediction for a 3-pose guide is scored against its last
    # pose repeated.
    lone = ViewPose4(4.2, -0.5, 0.6, 0.1)
    monkeypatch.setattr(
        supervisor, "predict_local_path", lambda *args, **kwargs: (PathSegment([lone]), True)
    )
    scene = wall_scene()
    state = make_state(adaptive=False)
    robot = ViewPose4(4.0, -0.9, 0.6)
    gvp = extract_global_segment(state.tour, state.plan, 0, 3)
    _, cycle = step_mission(state, scene, robot)
    assert cycle.short_prediction
    assert cycle.f_d == discrete_frechet(gvp, PathSegment([lone, lone, lone]))
    assert np.array_equal(state.last_lvp.as_array(), PathSegment([lone] * 3).as_array())


def test_step_mission_baseline_never_replans():
    # Current surface receded 1 m: adaptive would replan, baseline must not.
    vmap = VoxelMap.from_boxes(
        [Box((7.0, -5.0, 0.0), (7.4, 9.0, 2.4))],
        0.1,
        bounds=((-1.0, -7.0, 0.0), (10.0, 10.0, 2.4)),
    )
    scene = Scene.unchanged(vmap)
    for adaptive, expected in ((True, MissionMode.REPLANNED), (False, MissionMode.GLOBAL)):
        state = make_state(adaptive=adaptive)
        robot = ViewPose4(4.0, 0.0, 0.6)
        _, cycle = step_mission(state, scene, robot)
        assert cycle.mode is expected


def test_cursor_monotone_and_visited_grow():
    scene = wall_scene()
    state = make_state()
    cursors = []
    robot_positions = [(4.0, 0.0), (4.0, 1.11), (4.0, 2.22), (4.0, 3.33)]
    for x, y in robot_positions:
        step_mission(state, scene, ViewPose4(x, y, 0.6))
        cursors.append(state.cursor)
    assert cursors == sorted(cursors)
    assert cursors == [1, 2, 3, 4] and state.approx_visits == 0
