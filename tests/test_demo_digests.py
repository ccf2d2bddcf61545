"""`benchmarks/demo_digests.py` is the byte-identity gate on the built-in
demos and scenario files: it must run every demo and every file under
`scenarios/`, so that no artifact drops out of the diff unseen.  The script
is loaded from its file, unchanged; nothing is run."""

import importlib.util
import sys
from pathlib import Path

from surfscan.scenario import DEMO_NAMES

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "demo_digests.py"


def load_script(monkeypatch):
    # The script puts perfbench/ on the import path; keep that to this test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("demo_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_digests_covers_every_demo_and_scenario_file(monkeypatch):
    script = load_script(monkeypatch)
    assert script.DEMOS == DEMO_NAMES
    assert sorted(script.SCENARIOS) == sorted(path.stem for path in (ROOT / "scenarios").glob("*.yaml"))
