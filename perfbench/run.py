#!/usr/bin/env python3
"""Mission benchmark for surfscan.

Drives surfscan only through its public library calls, in the order
`surfscan plan|run|compare` uses them: `demo_scenario` / `load_scenario`,
`MissionRunner(...)`, `.plan()`, `.run(artifacts)`, `MissionLog.to_csv`.

    python3 perfbench/run.py --workload receding --seed 1 --seconds 2 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Workloads: receding, compare_receding_full, large_site_plan (see
perfbench/README.md).  `--workload all` runs each one in a fresh process
and, with `--trace 1`, also its traced run and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end metrics, measured untraced; with `--trace 1`
they are the per-layer metrics of a traced run.  The exit code is 0 when
every correctness check passed, 1 when one failed and 2 when surfscan
cannot be imported from this checkout's `src/`.
"""

import argparse
import hashlib
import importlib
import json
import logging
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOAD_NAMES = ("receding", "compare_receding_full", "large_site_plan")
END_TO_END = {"setup_s": "s", "command_s": "s", "peak_rss_mb": "MB", "tour_length_m": "m"}
# Printed on the lines before the result only: the metrics above are the
# ones every workload has and whose run-to-run spread fits their bounds.
PRINTED = {
    "plan_s": "s",
    "run_s": "s",
    "log_s": "s",
    "setup_raw_s": "s",
    "plan_raw_s": "s",
    "run_raw_s": "s",
    "sim_rate": "1",
    "visited_frac": "1",
}
SURFSCAN_MODULES = (
    "scenario",
    "mission",
    "world",
    "global_plan",
    "kernels",
    "metrics",
    "supervisor",
    "local_plan",
    "controller",
)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(nproc):
    """Cap the BLAS thread pools at nproc; must run before numpy loads."""
    for var in BLAS_VARS:
        try:
            current = int(os.environ[var])
        except (KeyError, ValueError):
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def import_surfscan():
    """surfscan's modules, imported from this checkout's src/ only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import surfscan

    if not Path(surfscan.__file__).resolve().is_relative_to(src):
        raise ImportError(f"surfscan resolved to {surfscan.__file__}, outside {src}")
    return surfscan, {name: importlib.import_module(f"surfscan.{name}") for name in SURFSCAN_MODULES}


def build_id():
    """Hash of the program and benchmark sources: same hash, same build."""
    h = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*.py")) + list(HERE.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(workload, seed, digests, outcome):
    """Mission logs of one build must be byte-identical across same-seed
    runs: the first run records their sha256, later runs compare."""
    if not digests:
        return
    path = STATE / "digests" / f"{build_id()}-{workload}-{seed}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        for label, digest in digests.items():
            outcome.check(f"log digest [{label}]", recorded.get(label) == digest, f"{digest} != recorded {recorded.get(label)}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digests, sort_keys=True))


def environment(surfscan, nproc):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "NUMBA_ENABLED": surfscan.NUMBA_ENABLED,
        "nproc": nproc,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_unit(name):
    stat = name.rsplit(".", 1)[1]
    if stat in ("s", "self_s"):
        return "s"
    return "ratio" if stat == "hit_frac" else "count"


def run_one(args):
    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    try:
        surfscan, modules = import_surfscan()
    except ImportError as exc:
        print(f"error: cannot import surfscan from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import hostspeed
    import workloads

    logging.basicConfig(level=logging.ERROR)

    env = environment(surfscan, nproc)
    env["cpu"] = hostspeed.pin_fastest()[0]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(modules)
    tmp = STATE / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        values, outcome, info = workloads.run_workload(
            args.workload, args.seed, args.seconds, modules, tmp, tracer
        )
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = info.pop("digests")
    check_digests(args.workload, args.seed, digests, outcome)
    for label, digest in sorted(digests.items()):
        print(f"mission_log.csv sha256 [{label}] {digest}")

    if tracer:
        layer = tracer.metrics()
        total_self, root = tracer.total_self_s(), tracer.root_s()
        outcome.check("trace", abs(total_self - root) <= 1e-6 * max(root, 1.0), f"self times {total_self} != roots {root}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} reps {values['reps']}")
    units = dict(END_TO_END, **PRINTED)
    for name, unit in units.items():
        if name in values:
            print(f"  {name:<14} {values[name]:.6g} {unit}")
    failed_frac = outcome.failed / outcome.attempted
    print(f"  {'failed_frac':<14} {failed_frac:.6g} 1  ({outcome.failed} of {outcome.attempted} operations)")
    for label, details in info.items():
        print(f"  mission [{label}] " + " ".join(f"{k}={v}" for k, v in details.items()))
    for op, passed, detail in outcome.checks:
        if not passed:
            print(f"  FAILED {op}: {detail}")

    if tracer:
        print(f"  traced self_s total {total_self:.6g} s over roots {root:.6g} s")
        ranked = sorted((n for n in layer if n.endswith(".self_s")), key=layer.get, reverse=True)
        for name in [n for n in ranked if n.startswith("layer.")] + [n for n in ranked if not n.startswith("layer.")][:10]:
            print(f"  {name:<44} {layer[name]:.6g} s")
        result_metrics = {name: metric(v, per_layer_unit(name)) for name, v in layer.items()}
    else:
        result_metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    print(f"detail {json.dumps(values, sort_keys=True)}")
    correct = outcome.failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": result_metrics}
        )
    )
    return 0 if correct else 1


def _child(workload, args, trace):
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise SystemExit(2)
    detail = next((json.loads(l[7:]) for l in lines if l.startswith("detail ")), {})
    return proc.returncode, json.loads(lines[-1]), detail


def run_all(args):
    """Each workload in a fresh process; with --trace 1 also its traced run
    and the tracing overhead (traced minus untraced set-up, plan and run)."""
    codes, attempted, failed, merged = [], 0, 0, {}
    for workload in WORKLOAD_NAMES:
        code, result, detail = _child(workload, args, 0)
        codes.append(code)
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
        if not args.trace:
            continue
        code, traced, _ = _child(workload, args, 1)
        codes.append(code)
        attempted += traced["attempted"]
        failed += traced["failed"]
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        overhead = {
            "setup_s": m["bench.setup.s"] - detail["setup_raw_s"],
            "plan_s": m["mission.MissionRunner.plan.s"] - detail["plan_raw_s"],
            "run_s": m["mission.MissionRunner.run.s"] - detail.get("run_raw_s", 0.0),
        }
        roots = ("bench.setup", "mission.MissionRunner.plan", "mission.MissionRunner.run", "metrics.MissionLog.to_csv")
        traced_total = sum(m[f"{root}.s"] for root in roots)
        self_total = sum(m[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
        print(
            f"overhead {workload}: "
            + " ".join(f"{k}={v:+.4f}s" for k, v in overhead.items())
            + f"; per-layer self_s sum {self_total:.4f}s vs traced setup+plan+run+log {traced_total:.4f}s"
        )
        merged.update({f"{workload}.trace_overhead_{k}": metric(v, "s") for k, v in overhead.items()})
    correct = failed == 0 and all(c == 0 for c in codes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2.0, help="set-up and plan repetition budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
