#!/usr/bin/env python3
"""Count the settable values of a package: defaulted fields and parameters.

A settable value is a field of a `@dataclass` class that has a default, or
a parameter of a function, method or lambda that has one (a keyword-only
parameter without a default does not count).  Each is a value a caller can
leave out or change, so each one is a configuration that tests and
benchmarks may have to cover.  The count is read from the source with
`ast`; nothing is imported.

    python3 benchmarks/count_options.py            # src/surfscan
    python3 benchmarks/count_options.py some/pkg   # any directory

prints one line per module (`<fields> fields  <params> params  <module>`)
and the total.
"""

import argparse
import ast
import sys
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "surfscan"


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def count_module(source):
    """(defaulted dataclass fields, defaulted parameters) in `source`."""
    fields = params = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(1 for stmt in node.body if isinstance(stmt, ast.AnnAssign) and stmt.value is not None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params += len(args.defaults) + sum(1 for d in args.kw_defaults if d is not None)
    return fields, params


def count_package(root):
    """{module file name: (fields, params)} for every `.py` file directly in
    `root`, sorted by name."""
    return {path.name: count_module(path.read_text(encoding="utf-8")) for path in sorted(Path(root).glob("*.py"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=DEFAULT_PACKAGE)
    args = parser.parse_args(argv)
    counts = count_package(args.package)
    if not counts:
        print(f"error: no .py files in {args.package}", file=sys.stderr)
        return 1
    for name, (fields, params) in counts.items():
        print(f"{fields:>4} fields {params:>4} params  {name}")
    total_fields = sum(f for f, _ in counts.values())
    total_params = sum(p for _, p in counts.values())
    print(f"{total_fields:>4} fields {total_params:>4} params  total {total_fields + total_params}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
