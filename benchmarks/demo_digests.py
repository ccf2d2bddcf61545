#!/usr/bin/env python3
"""Print a sha256 for every artifact file the built-in demos and scenario files write.

Runs `surfscan run --demo X` for each of the four demos,
`surfscan compare --demo receding_full`, `surfscan run --config` for each
of the two scenario files in `scenarios/` and `surfscan plan --config` on
the seeded site-scale yard of perfbench's `large_site_plan` workload
(three tours of 50 viewpoints in all, and an enclosed task the
reachability gate skips),
each into its own directory under a temporary directory, then prints one
`sha256sum`-style line per file (`<digest>  <run>/<relative path>`),
sorted by path.  Diff the output of two checkouts to see which artifacts a
change touched:

    python3 benchmarks/demo_digests.py > after.txt
    python3 benchmarks/demo_digests.py --root ../other-checkout > before.txt
    diff before.txt after.txt

`--root` names the checkout whose `src/` is imported and whose
`scenarios/` is run (default: the one holding this script); the site is
written by this script's own `perfbench/sitegen.py`, so both checkouts
plan the same input.  `--out` keeps
the artifacts in that directory instead of a temporary one.  Exit status
is nonzero if any command fails; a timeout or abort exit code of the CLI
counts as a failure too, since every run completes.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from sitegen import write_site  # noqa: E402

DEMOS = ("nominal", "receding", "obstacle", "receding_full")
SCENARIOS = ("wall_nominal", "wall_receding")
SITE_SEED = 1


def runs(root, site_yaml):
    """(run directory name, CLI arguments) for every run, in order."""
    return (
        tuple((f"run_{demo}", ("run", "--demo", demo)) for demo in DEMOS)
        + (("compare_receding_full", ("compare", "--demo", "receding_full")),)
        + tuple(
            (f"config_{name}", ("run", "--config", str(root / "scenarios" / f"{name}.yaml")))
            for name in SCENARIOS
        )
        + ((f"plan_site_{SITE_SEED}", ("plan", "--config", str(site_yaml))),)
    )


def digests(out_root):
    """(relative path, sha256) for every file under out_root, sorted."""
    return sorted(
        (path.relative_to(out_root).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
        for path in out_root.rglob("*")
        if path.is_file()
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--out", type=Path, help="keep the artifacts in this new or empty directory")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        site_dir = Path(tmp) / "site"
        site_dir.mkdir()
        site_yaml, _ = write_site(SITE_SEED, site_dir)
        out_root = args.out if args.out is not None else Path(tmp) / "runs"
        for name, cli_args in runs(root, site_yaml):
            cmd = [sys.executable, "-m", "surfscan.cli", *cli_args, "--out", str(out_root / name)]
            done = subprocess.run(cmd, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(f"{' '.join(cli_args)} exited {done.returncode}\n{done.stderr}")
                return 1
        for rel, digest in digests(out_root):
            print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
