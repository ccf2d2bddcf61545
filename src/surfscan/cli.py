"""Command-line mission front-end: plan | run | compare.

Exit codes: 0 completed, 2 timeout, 3 aborted/unreachable, 64 usage error.
Set SURFSCAN_LOG to debug, info, warning (the default) or error to control
verbosity; any other value is a usage error (64).
"""

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

from .global_plan import TaskUnreachableError
from .metrics import write_plot_data
from .mission import MissionRunner
from .scenario import DEMO_NAMES, demo_scenario, load_scenario

__all__ = ["main"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_TIMEOUT = 2
EXIT_ABORTED = 3
EXIT_USAGE = 64

_STATUS_CODES = {"completed": EXIT_OK, "timeout": EXIT_TIMEOUT, "aborted": EXIT_ABORTED}
# The directories under --out each command writes into, made before any work.
_OUT_DIRS = {"plan": (), "run": ("plots",), "compare": ("adaptive/plots", "baseline/plots")}
_LOG_LEVELS = ("debug", "info", "warning", "error")


def _setup_logging():
    """Log at the level SURFSCAN_LOG names; ValueError for any other value."""
    value = os.environ.get("SURFSCAN_LOG", "warning")
    if value.lower() not in _LOG_LEVELS:
        raise ValueError(f"SURFSCAN_LOG must be one of {', '.join(_LOG_LEVELS)}, got {value!r}")
    logging.basicConfig(level=value.upper(), format="%(levelname)s %(name)s: %(message)s")


def _build_parser():
    parser = argparse.ArgumentParser(prog="surfscan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("plan", "generate viewpoint grids, task order and tours (no simulation)"),
        ("run", "execute a mission and write logs and summaries"),
        ("compare", "run adaptive and baseline on the same scenario and seed"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="scenario YAML file")
        p.add_argument("--demo", choices=DEMO_NAMES, help="built-in scenario")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--mode", choices=("adaptive", "baseline"), help="override the mode")
    return parser


def _load(args):
    """Mission runner for the scenario named on the command line, its scene
    built.  Bad input (arguments, scenario file, map files) raises
    ValueError or OSError; a ValueError from building a `--config` scene
    names the file, as `load_scenario`'s do."""
    if bool(args.config) == bool(args.demo):
        raise ValueError("exactly one of --config or --demo is required")
    if args.demo:
        cfg, base_dir = demo_scenario(args.demo), None
    else:
        cfg, base_dir = load_scenario(args.config), Path(args.config).parent
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.mode is not None:
        cfg = dataclasses.replace(cfg, mode=args.mode)
    try:
        return MissionRunner(cfg, base_dir=base_dir)
    except ValueError as exc:
        if args.demo:
            raise
        raise ValueError(f"{Path(args.config)}: {exc}") from exc


def _json_dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_plan_artifacts(artifacts, out_dir):
    order = []
    for entry in artifacts.ranked:
        order.append(
            {
                "task": entry.task.id,
                "route_length": None if not entry.reachable else entry.route_length,
                "reachable": entry.reachable,
            }
        )
    _json_dump(order, out_dir / "task_order.json")

    for tp in artifacts.executable:
        rows = ["index,x,y,z,psi,valid"]
        for i, vp in enumerate(tp.plan.viewpoints):
            rows.append(
                f"{i},{vp.x!r},{vp.y!r},{vp.z!r},{vp.psi!r},{int(tp.plan.valid[i])}"
            )
        (out_dir / f"task_{tp.task.id}_viewpoints.csv").write_text("\n".join(rows) + "\n")
        tour_doc = {
            "task": tp.task.id,
            "order": list(tp.tour.order),
            "length": tp.tour.length,
            "poses": [
                [vp.x, vp.y, vp.z, vp.psi]
                for vp in (tp.plan.viewpoints[i] for i in tp.tour.order)
            ],
        }
        _json_dump(tour_doc, out_dir / f"tour_{tp.task.id}.json")


def _write_run_artifacts(result, out_dir):
    result.log.to_csv(out_dir / "mission_log.csv")
    _json_dump(result.summary, out_dir / "summary.json")
    write_plot_data(result.log, out_dir / "plots")
    _write_plan_artifacts(result.artifacts, out_dir)
    rows = ["t,pose_index,x,y,z,psi"]
    for t, path in result.predicted_paths:
        for i, row in enumerate(path.as_array()):
            rows.append(f"{t!r},{i},{row[0]!r},{row[1]!r},{row[2]!r},{row[3]!r}")
    (out_dir / "predicted_paths.csv").write_text("\n".join(rows) + "\n")


def _tour_hash(out_dir, task_id):
    return hashlib.sha256((out_dir / f"tour_{task_id}.json").read_bytes()).hexdigest()


def cmd_plan(runner, out_dir):
    artifacts = runner.plan()
    _write_plan_artifacts(artifacts, out_dir)
    print(f"plan: {len(artifacts.executable)} executable task(s) -> {out_dir}")
    return EXIT_OK


def cmd_run(runner, out_dir):
    result = runner.run()
    _write_run_artifacts(result, out_dir)
    print(
        f"run [{runner.cfg.mode}]: {result.status}, visited {result.summary['visited_total']} viewpoints "
        f"in {result.summary['duration_s']:.1f}s sim -> {out_dir}"
    )
    return _STATUS_CODES[result.status]


def cmd_compare(runner, out_dir):
    cfg = runner.cfg
    codes = {}
    reports = {}
    tour_hashes = {}
    # Planning does not depend on the mode: plan once, then fly both modes
    # on the one scene.
    runners = {
        mode: MissionRunner(dataclasses.replace(cfg, mode=mode), scene=runner.scene)
        for mode in ("adaptive", "baseline")
    }
    artifacts = runners["adaptive"].plan()
    for mode, mode_runner in runners.items():
        sub_dir = out_dir / mode
        result = mode_runner.run(artifacts)
        _write_run_artifacts(result, sub_dir)
        codes[mode] = _STATUS_CODES[result.status]
        reports[mode] = result.summary
        # Tour files exist only for executable tasks; skipped tasks have none.
        for tp in result.artifacts.executable:
            tour_hashes.setdefault(tp.task.id, {})[mode] = _tour_hash(sub_dir, tp.task.id)
    comparison = {
        "scenario": cfg.name,
        "seed": cfg.seed,
        "adaptive": reports["adaptive"],
        "baseline": reports["baseline"],
        "tour_hashes": tour_hashes,
    }
    _json_dump(comparison, out_dir / "compare.json")
    adaptive_u = reports["adaptive"].get("mean_utility")
    baseline_u = reports["baseline"].get("mean_utility")
    print(
        f"compare: adaptive mean utility {adaptive_u}, baseline mean utility {baseline_u} -> {out_dir}"
    )
    return max(codes.values())


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _setup_logging()
        runner = _load(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for sub_dir in _OUT_DIRS[args.command]:
            (out_dir / sub_dir).mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Past this point every input has loaded: an error other than an
    # unreachable task is a fault of the program, not of its input, and
    # propagates.
    command = {"plan": cmd_plan, "run": cmd_run, "compare": cmd_compare}[args.command]
    try:
        return command(runner, out_dir)
    except TaskUnreachableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORTED


if __name__ == "__main__":
    sys.exit(main())
