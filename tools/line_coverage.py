"""List the lines of src/volrisk that a pytest run never executes.

    python3 tools/line_coverage.py [pytest arguments]

Run from the repository root.  It runs pytest in this process, with the
arguments given, under a line tracer set by ``sys.settrace``, and prints
every executable line of ``src/volrisk/*.py`` that no traced frame
reached, as ``file:line: source``, then a count on stderr.  A line is
executable when an instruction of the module's compiled code objects
carries it (``co_lines()``).  Lines run only on other threads, or only in
child processes such as ``python -m volrisk.cli``, are not seen.  The exit
status is pytest's.  Tracing makes the tests several times slower; tier-1
takes 100–125 s on a 2-core machine.
"""
from __future__ import annotations

import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "volrisk"


def executable_lines(path: Path) -> set:
    """The line numbers that the code objects compiled from ``path`` carry."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _line_tracer(seen: set):
    def trace(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return trace
    return trace


def main(argv=None) -> int:
    files = sorted(PACKAGE.glob("*.py"))
    hits = {str(p): set() for p in files}
    tracers = {name: _line_tracer(seen) for name, seen in hits.items()}
    # co_filename as the import spelled it -> the tracer of that file, or None
    resolved: dict = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            resolved[name] = tracers.get(os.path.realpath(name))
        local = resolved[name]
        if local is not None:
            local(frame, "line", arg)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(on_call)
    try:
        status = pytest.main(sys.argv[1:] if argv is None else argv)
    finally:
        sys.settrace(None)
    missed = total = 0
    for path in files:
        lines = executable_lines(path)
        source = path.read_text(encoding="utf-8").splitlines()
        total += len(lines)
        for line in sorted(lines - hits[str(path)]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
