"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Mission-level criteria execute the built-in demo
scenarios end to end.
"""

import dataclasses
import math
import time

import numpy as np

from surfscan.cli import main as cli_main
from surfscan.controller import track_step
from surfscan.depthcam import CameraIntrinsics, DepthImage
from surfscan.geometry import (
    PathSegment,
    PointCloud,
    PolygonROI,
    ViewPose4,
    discrete_frechet,
    kabsch_align,
    polygon_basis,
    wrap_angle,
)
from surfscan.global_plan import InspectionTask, ViewConstraints, generate_grid_viewpoints, solve_tour_sa_tsp
from surfscan.local_plan import ego_frame
from surfscan.metrics import viewpoint_utility
from surfscan.mission import MissionRunner
from surfscan.scenario import CAMERA_FOV, demo_scenario
from surfscan.supervisor import MissionMode, SimilarityScore, decide
from surfscan.world import Box, VoxelMap, is_collision_free

from test_geometry import frechet_recursive, point_in_polygon, random_rotation
from test_global_plan import brute_force_open_tour, nearest_neighbor_cost, plan_from_positions
from test_local_plan import next_view


class criterion:
    """Times a criterion block and prints its PASS/FAIL line."""

    def __init__(self, number, description, budget_s=None):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} criterion {self.number} [{self.elapsed:6.2f}s]: {self.description}")
        return False


def test_criterion_01_frechet_oracle(rng):
    with criterion(1, "discrete Frechet DP equals the recursive-definition oracle") as c:
        for _ in range(200):
            na, nb = rng.integers(1, 7, size=2)
            a = rng.uniform(-5, 5, size=(na, 3))
            b = rng.uniform(-5, 5, size=(nb, 3))
            got = discrete_frechet(PathSegment(a), PathSegment(b))
            want = frechet_recursive(a, b)
            assert abs(got - want) <= 1e-12
        assert c.elapsed < 5.0


def test_criterion_02_kabsch_oracle(rng):
    with criterion(2, "Kabsch recovers random rigid transforms; det always +1") as c:
        for trial in range(100):
            n = int(rng.integers(4, 12))
            src = rng.uniform(-3, 3, size=(n, 3))
            rot = random_rotation(rng)
            t = rng.uniform(-5, 5, size=3)
            tgt = src @ rot.T + t
            tf = kabsch_align(PathSegment(src), PathSegment(tgt))
            assert np.abs(tf.apply(src) - tgt).max() < 1e-8
            assert abs(np.linalg.det(tf.rotation) - 1.0) < 1e-9
            # Reflected target: result must still be a proper rotation.
            mirrored = tgt.copy()
            mirrored[:, 1] *= -1.0
            tf_m = kabsch_align(PathSegment(src), PathSegment(mirrored))
            assert abs(np.linalg.det(tf_m.rotation) - 1.0) < 1e-9
            assert np.abs(tf_m.rotation @ tf_m.rotation.T - np.eye(3)).max() < 1e-9
        assert c.elapsed < 2.0


def test_criterion_03_sa_tsp_oracle(rng):
    with criterion(3, "SA-TSP within 5% of brute force, never worse than NN init") as c:
        for instance in range(20):
            n = int(rng.integers(3, 9))
            positions = rng.uniform(0, 10, size=(n, 3))
            positions[:, 2] = rng.uniform(0, 1)
            start = rng.uniform(0, 10, size=3)
            _, optimum = brute_force_open_tour(start, positions)
            nn_cost = nearest_neighbor_cost(start, positions)
            plan = plan_from_positions(positions)
            for seed in range(1, 6):
                tour = solve_tour_sa_tsp(plan, start, seed=seed)
                assert tour.length <= optimum * 1.05 + 1e-9
                assert tour.length <= nn_cost + 1e-9
        assert c.elapsed < 30.0


def test_criterion_04_next_view_closed_form():
    with criterion(4, "next-view-pose closed form at 4 m range"):
        cfg = dataclasses.replace(demo_scenario("nominal"), z_band=None)
        # `predict_local_path` with a one-pose guide on the +y side.
        pose = next_view(ViewPose4(0, 0, 0), PointCloud([[4.0, 0.0, 0.0]]), cfg)
        assert abs(pose.x - 2.000) < 1e-3
        assert abs(pose.y - 2.220) < 1e-3
        assert abs(pose.z - 1.326) < 1e-3
        assert abs(pose.psi) < 1e-9


def test_criterion_05_grid_spacing_and_coverage():
    with criterion(5, "grid spacing 1.110/0.663 m, 2 m standoff, >=99% footprint coverage"):
        c, camera = ViewConstraints(), CameraIntrinsics(**CAMERA_FOV)
        spacing_h, spacing_v = c.spacing(camera, c.d_view)
        # The spacing values, rounded to the mm, match the documented model.
        assert round(spacing_h, 3) == 1.110
        assert round(spacing_v, 3) == 0.663
        task = InspectionTask(
            id="wall",
            roi=PolygonROI(np.array([[6, -3, 0], [6, 3, 0], [6, 3, 2], [6, -3, 2]], dtype=float)),
        )
        plan = generate_grid_viewpoints(task, c, camera, [0.0, 0.0, 1.0], None)
        roi = task.roi
        u, v = polygon_basis(roi)
        n = roi.normal
        # Exactly d_view from the ROI plane.
        for vp in plan.viewpoints:
            assert abs(abs(float((vp.position - roi.centroid) @ n)) - 2.0) < 1e-9
        # Measured spacings equal the overlap model within 1e-6; the
        # viewpoints lie off the grid points along n, which u and v are
        # orthogonal to.
        positions = np.array([vp.position for vp in plan.viewpoints])
        su = np.round(positions @ u, 9)
        sv = np.round(positions @ v, 9)
        for row in np.unique(sv):
            cols = np.sort(su[sv == row])
            assert np.abs(np.diff(cols) - spacing_h).max() < 1e-6
        for col in np.unique(su):
            rows = np.sort(sv[su == col])
            assert np.abs(np.diff(rows) - spacing_v).max() < 1e-6
        # Footprint union covers at least 99% of sampled interior points.
        footprint_w, footprint_h = spacing_h / (1.0 - c.gamma_h), spacing_v / (1.0 - c.gamma_v)
        cu = positions @ u
        cv = positions @ v
        covered = total = 0
        for uu in np.arange(-2.95, 3.0, 0.1):
            for vv in np.arange(-0.95, 1.0, 0.1):
                g = roi.centroid + uu * u + vv * v
                if not point_in_polygon(roi, g):
                    continue
                total += 1
                gu, gv = float(g @ u), float(g @ v)
                if np.any(
                    (np.abs(cu - gu) <= footprint_w / 2) & (np.abs(cv - gv) <= footprint_h / 2)
                ):
                    covered += 1
        assert total > 0 and covered / total >= 0.99


def test_criterion_06_nominal_mission():
    with criterion(6, "nominal scenario: completes, zero replanning, tour tracked") as c:
        cfg = demo_scenario("nominal")
        result = MissionRunner(cfg).run()
        assert result.status == "completed"
        inspect = result.log.inspect_records()
        assert sum(r.replanned for r in inspect) == 0
        scores = [r.gamma_s for r in inspect if math.isfinite(r.gamma_s)]
        assert scores and min(scores) >= cfg.gamma_t
        # Executed path passes within pos_tol of every tour viewpoint.
        traj = np.array([[r.x, r.y, r.z] for r in result.log.records])
        task_plan = result.artifacts.executable[0]
        for idx in task_plan.tour.order:
            vp = task_plan.plan.viewpoints[idx]
            assert np.linalg.norm(traj - vp.position, axis=1).min() <= cfg.pos_tol
        assert c.elapsed < 30.0


def test_criterion_07_receding_mission():
    with criterion(7, "receding surface: replans at ~1 m deviation, reconverges, completes") as c:
        cfg = demo_scenario("receding")
        result = MissionRunner(cfg).run()
        assert result.status == "completed"
        inspect = result.log.inspect_records()
        replanned = [r for r in inspect if r.replanned]
        assert replanned, "replanning never triggered"
        # Deviation that triggered replanning is about the recession depth.
        assert abs(replanned[0].f_d - 1.0) <= 0.3
        # Viewing distance recovers within the first third of the mission.
        total = result.summary["duration_s"]
        recovered = [
            r.t
            for r in result.log.records
            if math.isfinite(r.viewing_distance) and abs(r.viewing_distance - 2.0) < 0.2
        ]
        assert recovered and min(recovered) <= total / 3.0
        # Kabsch reprojection never increases the segment error, and the two
        # RMSE traces meet again before completion.
        for r in replanned:
            if math.isfinite(r.rmse_pre):
                assert r.rmse_post <= r.rmse_pre + 1e-9
        finite = [r for r in inspect if math.isfinite(r.rmse_pre)]
        assert abs(finite[-1].rmse_pre - finite[-1].rmse_post) < 1e-9
        gap_max = max(r.rmse_pre - r.rmse_post for r in finite)
        assert gap_max > 0.5  # they were apart while replanning...
        assert finite[-1].rmse_pre - finite[-1].rmse_post < 0.05  # ...and converged
        # Replanning ends before the mission does: the tour finishes in
        # global mode.
        last_replanned_t = replanned[-1].t
        assert any(r.t > last_replanned_t and not r.replanned for r in inspect)
        assert not inspect[-1].replanned
        # Completion used approximation credit for at least one viewpoint.
        assert result.summary["approx_visits"] >= 1
        assert result.summary["visited_total"] == len(result.artifacts.executable[0].tour.order)
        assert c.elapsed < 60.0


def test_criterion_08_baseline_comparison():
    with criterion(8, "adaptive beats baseline on the receded face") as c:
        cfg = demo_scenario("receding_full")
        runs = {}
        for mode in ("adaptive", "baseline"):
            runs[mode] = MissionRunner(dataclasses.replace(cfg, mode=mode)).run()
            assert runs[mode].status == "completed"
        a, b = runs["adaptive"], runs["baseline"]
        assert a.summary["mean_utility"] > b.summary["mean_utility"]
        # Baseline never closes the viewing-distance gap.
        b_err = [
            abs(r.viewing_distance - 2.0)
            for r in b.log.records
            if math.isfinite(r.viewing_distance)
        ]
        assert b_err and min(b_err) > 0.5
        assert b.summary["time_to_reconverge_s"] is None
        # The adaptive run reconverges onto the receded surface.
        a_err = [
            abs(r.viewing_distance - 2.0)
            for r in a.log.records
            if math.isfinite(r.viewing_distance)
        ]
        assert min(a_err) < 0.2
        assert a.summary["time_to_reconverge_s"] is not None
        assert c.elapsed < 120.0


def test_criterion_09_determinism(tmp_path):
    with criterion(9, "fixed seed gives byte-identical mission logs"):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", "--demo", "receding", "--out", str(out1), "--seed", "11"]) == 0
        assert cli_main(["run", "--demo", "receding", "--out", str(out2), "--seed", "11"]) == 0
        log1 = (out1 / "mission_log.csv").read_bytes()
        log2 = (out2 / "mission_log.csv").read_bytes()
        assert log1 == log2
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        assert (out1 / "tour_wall.json").read_bytes() == (out2 / "tour_wall.json").read_bytes()


def test_criterion_10_invariants(rng):
    with criterion(10, "similarity, ego-frame, controller and utility invariants"):
        # Similarity bounds and monotonicity.
        fs = np.sort(rng.uniform(0, 20, size=100))
        scores = [SimilarityScore.from_distance(f) for f in fs]
        assert all(0.0 < s.gamma_s <= 1.0 for s in scores)
        assert all(b.gamma_s <= a.gamma_s for a, b in zip(scores, scores[1:]))
        assert decide(SimilarityScore.from_distance(0.0), 0.5) is MissionMode.GLOBAL

        # Ego-frame orthonormality.
        for _ in range(100):
            pos = rng.normal(size=3)
            off = rng.normal(size=3)
            if np.hypot(off[0], off[1]) < 0.2:
                continue
            nx, ny, nz, _ = ego_frame(pos, pos + off)
            basis = np.stack([nx, ny, nz])
            assert np.abs(basis @ basis.T - np.eye(3)).max() < 1e-9

        # Controller saturation and collision-free poses on a walled map.
        vmap = VoxelMap.from_boxes(
            [Box((6.0, -5.0, 0.0), (6.4, 5.0, 2.4))], 0.1, bounds=((-1, -7, 0), (10, 7, 2.4))
        )
        cfg = demo_scenario("nominal")  # v_max 0.8, w_max 1.0, inflation 0.5, dt 0.1
        pose = ViewPose4(4.0, 0.0, 0.6)
        for _ in range(150):
            ref = ViewPose4(
                rng.uniform(3, 9), rng.uniform(-4, 4), 0.6, rng.uniform(-np.pi, np.pi)
            )
            new, _ = track_step(pose, ref, vmap, cfg)
            assert np.linalg.norm(new.position - pose.position) <= cfg.v_max * cfg.dt + 1e-12
            assert abs(wrap_angle(new.psi - pose.psi)) <= cfg.w_max * cfg.dt + 1e-12
            assert is_collision_free(vmap, new.position, cfg.inflation)
            pose = new

        # Utility bounds and the two analytic incidence anchors.
        cam = CameraIntrinsics(
            alpha=np.deg2rad(69.5), beta=np.deg2rad(45.0), width=48, height=36, max_range=10.0
        )
        dirs = cam.pixel_directions()

        def plane_img(th):
            nrm = np.array([np.sin(th), 0.0, np.cos(th)])
            denom = dirs @ nrm
            with np.errstate(divide="ignore"):
                z = 2.0 / denom
            z[~np.isfinite(z) | (z <= 0)] = np.nan
            return DepthImage(z)

        flat = viewpoint_utility(plane_img(0.0), cam)
        oblique = viewpoint_utility(plane_img(np.deg2rad(60.0)), cam)
        assert abs(flat - 1.0) <= 0.02
        assert abs(oblique - 0.5) <= 0.02
        for th in rng.uniform(0, np.deg2rad(70), size=10):
            u = viewpoint_utility(plane_img(th), cam)
            assert 0.0 <= u <= 1.0
