"""The benchmark's workloads and their correctness checks.

A workload is one or more missions (scenario configs).  One run of a
workload:

1. repeats the set-up (scenario load plus `MissionRunner` construction) and
   `.plan()` of every mission, each time from scratch, for `seconds` and at
   least `MIN_REPS` times;
2. for mission workloads, flies each mission once with `.run(artifacts)` on
   the last runner and plan, and writes its log with `MissionLog.to_csv`;
   set-up and plan repetitions then share `seconds` between before and
   after the missions.

`setup_s` and `plan_s` are medians over the repetitions.  A traced run does
one repetition, so its counts repeat exactly from run to run.
"""

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import sitegen

MIN_REPS = 3


@dataclass
class Outcome:
    """Checks made on one run: (operation, passed, detail) triples."""

    checks: list = field(default_factory=list)

    def check(self, op, passed, detail=""):
        self.checks.append((op, bool(passed), detail))

    @property
    def attempted(self):
        return len(self.checks)

    @property
    def failed(self):
        return sum(1 for _, passed, _ in self.checks if not passed)


def _loaders(name, seed, tmp, modules):
    """(label, loader) per mission; a loader returns (cfg, base_dir)."""
    scenario = modules["scenario"]
    if name == "receding":
        return [("adaptive", lambda: (scenario.demo_scenario("receding", "adaptive", seed), None))]
    if name == "compare_receding_full":
        return [
            (mode, lambda mode=mode: (scenario.demo_scenario("receding_full", mode, seed), None))
            for mode in ("adaptive", "baseline")
        ]
    if name == "large_site_plan":
        path, _ = sitegen.write_site(seed, tmp)
        return [("plan", lambda: (scenario.load_scenario(path), path.parent))]
    raise ValueError(f"unknown workload {name!r}")


# name: whether the workload flies its missions after planning
WORKLOADS = {"receding": True, "compare_receding_full": True, "large_site_plan": False}


def _plan_signature(artifacts):
    return tuple(
        (tp.task.id, tp.tour.order, tuple(int(i) for i in tp.plan.valid_indices())) for tp in artifacts.executable
    )


def _check_plan(name, artifacts, out, op):
    for tp in artifacts.executable:
        valid = sorted(int(i) for i in tp.plan.valid_indices())
        out.check(op, sorted(tp.tour.order) == valid, f"tour of {tp.task.id} is not a permutation of its valid viewpoints")
    if name == "large_site_plan":
        executable = {tp.task.id for tp in artifacts.executable}
        skipped = {e.task.id for e in artifacts.ranked} - executable
        out.check(
            op,
            executable == sitegen.EXPECTED_EXECUTABLE and skipped == sitegen.EXPECTED_SKIPPED,
            f"executable {sorted(executable)}, skipped {sorted(skipped)}",
        )


def _plain(fn):
    """Traced runs time without normalization: (result, seconds, 1.0)."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0, 1.0


def _build(load, MissionRunner):
    cfg, base_dir = load()
    return MissionRunner(cfg, base_dir=base_dir)


def _repetition(loaders, MissionRunner, tracer, timed):
    """Set up and plan every mission from scratch.  Returns the summed
    normalized and raw set-up and plan times and the built missions."""
    times = [0.0] * 4  # setup_s, plan_s, raw setup_s, raw plan_s
    built = []
    for label, load in loaders:
        idx = tracer.open("bench.setup") if tracer else None
        runner, setup_s, f_setup = timed(lambda: _build(load, MissionRunner))
        if tracer:
            tracer.close(idx)
        artifacts, plan_s, f_plan = timed(runner.plan)
        for i, v in enumerate((setup_s * f_setup, plan_s * f_plan, setup_s, plan_s)):
            times[i] += v
        built.append((label, runner, artifacts))
    return times, built


def _fly(name, built, tmp, out, info, timed):
    """Run each mission once, write and hash its log, check its outcome."""
    totals = dict(run_s=0.0, run_raw_s=0.0, log_s=0.0, sim_s=0.0, visited=0, tour_points=0)
    utilities = {}
    for label, runner, artifacts in built:
        result, run_s, factor = timed(lambda: runner.run(artifacts))
        csv_path = Path(tmp) / f"mission_log_{label}.csv"
        t0 = time.perf_counter()
        result.log.to_csv(csv_path)
        log_s = time.perf_counter() - t0
        summary = result.summary
        points = sum(len(tp.tour.order) for tp in artifacts.executable)
        totals["run_s"] += run_s * factor
        totals["run_raw_s"] += run_s
        totals["log_s"] += log_s * factor
        totals["sim_s"] += summary["duration_s"]
        totals["visited"] += summary["visited_total"]
        totals["tour_points"] += points
        utilities[label] = summary["mean_utility"]
        info["digests"][label] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        op = f"mission [{label}]"
        out.check(op, result.status == "completed", f"status {result.status}")
        out.check(op, summary["visited_total"] == points, f"visited {summary['visited_total']} of {points}")
        out.check(op, summary["mean_utility"] is not None, "no inspect records")
        if name == "receding":
            replans = sum(r.replanned for r in result.log.inspect_records())
            out.check(op, replans >= 1, "never replanned")
            out.check(op, summary["approx_visits"] >= 1, "no approximated visit")
        info[label] = {
            "status": result.status,
            "visited_total": summary["visited_total"],
            "approx_visits": summary["approx_visits"],
            "duration_s": summary["duration_s"],
            "mean_utility": summary["mean_utility"],
        }
    if name == "compare_receding_full":
        a, b = utilities["adaptive"], utilities["baseline"]
        out.check(
            "compare",
            a is not None and b is not None and a > b,
            f"adaptive mean utility {a} not above baseline {b}",
        )
    return totals


def run_workload(name, seed, seconds, modules, tmp, tracer=None):
    """Run one workload; return (metrics, outcome, info) where metrics holds
    every end-to-end quantity it produces and info the mission details."""
    flies = WORKLOADS[name]
    loaders = _loaders(name, seed % 2**32, tmp, modules)
    MissionRunner = modules["mission"].MissionRunner
    out = Outcome()
    info = {"digests": {}}
    reps = []  # (setup_s, plan_s, raw setup_s, raw plan_s, plan signature)
    # Untraced times are normalized to the host's nominal speed (hostspeed).
    timed = hostspeed.Segments().measure if tracer is None else _plain

    def repeat(budget, min_reps):
        t_end = time.perf_counter() + budget
        while True:
            times, built = _repetition(loaders, MissionRunner, tracer, timed)
            reps.append((*times, tuple(_plan_signature(a) for _, _, a in built)))
            if tracer or (len(reps) >= min_reps and time.perf_counter() >= t_end):
                return built

    # Mission workloads repeat set-up and plan on both sides of their
    # missions: the host's speed changes within seconds, so the medians
    # then sample it over the whole run.
    built = repeat(seconds / 2 if flies else seconds, MIN_REPS)
    totals = _fly(name, built, tmp, out, info, timed) if flies else None
    if flies and not tracer:
        built = [(label, None, artifacts) for label, _, artifacts in built]  # free the flown runners
        repeat(seconds / 2, 0)

    op = f"plan x{len(reps)}"
    for label, _, artifacts in built:
        _check_plan(name, artifacts, out, f"{op} [{label}]")
    out.check(op, len({r[4] for r in reps}) == 1, "plans differ between repetitions")
    if len(built) > 1:
        out.check(op, len({_plan_signature(a) for _, _, a in built}) == 1, "plans differ between modes")

    metrics = {
        "setup_s": statistics.median(r[0] for r in reps),
        "plan_s": statistics.median(r[1] for r in reps),
        "setup_raw_s": statistics.median(r[2] for r in reps),
        "plan_raw_s": statistics.median(r[3] for r in reps),
        "tour_length_m": sum(tp.tour.length for tp in built[0][2].executable),
        "reps": len(reps),
    }
    if not flies:
        metrics["command_s"] = metrics["plan_s"]
        return metrics, out, info
    metrics.update(
        run_s=totals["run_s"],
        run_raw_s=totals["run_raw_s"],
        log_s=totals["log_s"],
        command_s=metrics["plan_s"] + totals["run_s"] + totals["log_s"],
        sim_rate=totals["sim_s"] / totals["run_raw_s"],
        visited_frac=totals["visited"] / totals["tour_points"],
    )
    return metrics, out, info
