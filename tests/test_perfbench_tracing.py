"""The benchmark's tracer must keep finding every surfscan binding it
wraps: a rename in surfscan that would break `perfbench/run.py --trace 1`
fails here.  `perfbench/tracing.py` is loaded from its file, unchanged."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from surfscan.scenario import demo_scenario

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_uninstalls():
    tracing = load_tracing()
    # The modules the bindings name, imported as perfbench/run.py does.
    modules = {mod: importlib.import_module(f"surfscan.{mod}") for _, mod, *_ in tracing.BINDINGS}
    mission = modules["mission"]
    originals = {name: getattr(mission, name) for name in ("step_mission", "track_step")}
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        assert all(getattr(mission, name) is not fn for name, fn in originals.items())
        # A short mission reaches the supervision and control hooks, which
        # read the cycle record and the blocked flag at result[1].
        cfg = dataclasses.replace(demo_scenario("nominal"), max_sim_time=8.0)
        mission.MissionRunner(cfg).run()
    finally:
        tracer.uninstall()
    assert all(getattr(mission, name) is fn for name, fn in originals.items())
    metrics = tracer.metrics()
    assert metrics["mission.MissionRunner.run.calls"] == 1
    assert metrics["mission.step_mission.cycles"] == metrics["mission.step_mission.calls"] > 0
    assert metrics["mission.track_step.calls"] > 0
    assert metrics["kernels.raycast_batch.rays"] > 0
