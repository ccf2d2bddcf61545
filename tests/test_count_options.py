"""`benchmarks/count_options.py` counts what it says: defaulted dataclass
fields and defaulted parameters, not required ones."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "count_options.py"

SAMPLE = '''
import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    name: str
    size: int = 3
    tags: tuple = ()


@dataclasses.dataclass
class Other:
    x: float = 0.0


class Plain:
    y: int = 1

    def method(self, a, b=2, *, c, d=None):
        return lambda e, f=1: e


def free(g, h=0.5, *rest, **options):
    pass
'''


def load_script():
    spec = importlib.util.spec_from_file_location("count_options", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_options_counts_defaulted_fields_and_parameters(tmp_path, capsys):
    script = load_script()
    # Fields: size, tags, x (Plain is no dataclass).  Parameters: b, d, f, h
    # (the keyword-only c has no default).
    assert script.count_module(SAMPLE) == (3, 4)
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text("")
    assert script.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].split() == ["3", "fields", "4", "params", "total", "7"]
    assert [line.split()[-1] for line in lines[:-1]] == ["empty.py", "sample.py"]


# The package's settable values today.  A change that adds an option has
# to raise this number in its own diff.
PACKAGE_OPTIONS = 53


def test_count_options_reads_the_package():
    counts = load_script().count_package(load_script().DEFAULT_PACKAGE)
    assert "scenario.py" in counts and all(f >= 0 and p >= 0 for f, p in counts.values())
    assert sum(f + p for f, p in counts.values()) <= PACKAGE_OPTIONS
