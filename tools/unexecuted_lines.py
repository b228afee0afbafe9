"""Executable lines of ``src/liepoisson`` that no test runs.

    python3 tools/unexecuted_lines.py [<pytest args>]

Runs pytest in this process (by default on ``tests/`` with ``-q
--continue-on-collection-errors``, as the tier-1 command does) under a
``sys.settrace`` line tracer that keeps only frames whose code lives in the
``src/`` next to this file, and imports the package from that ``src/``.  It
then prints, module by module, the executable lines (the line numbers of
the compiled code objects) that no traced frame reached, as ranges, and the
total.  A function counts its ``def`` line as run when it is called.

Only the main thread of this process is traced: a line that only a fresh
interpreter runs (the CLI and demo tests that start one) is listed as
unexecuted.  Tracing about doubles the time of the suite; the whole tier-1
suite takes about a minute on two cores.  The script is a diagnostic, not part of tier-1, and needs
nothing beyond pytest (``coverage`` is not required).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "liepoisson") + os.sep


def executable_lines(path: str) -> set:
    """The line numbers of every code object compiled from the file."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines) -> str:
    """The sorted lines as ranges: {3, 7, 8, 9} gives "3, 7-9"."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def traced_pytest(args) -> tuple:
    """Run pytest under the line tracer; (exit code, {file: lines run})."""
    import pytest

    hits: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        hits.setdefault(code.co_filename, set()).add(code.co_firstlineno)
        return local

    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return code, hits


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or [
        "-q", "--continue-on-collection-errors", os.path.join(ROOT, "tests")]
    sys.path.insert(0, SRC)
    code, hits = traced_pytest(args)
    package = sys.modules.get("liepoisson")
    if package is None or not package.__file__.startswith(PACKAGE):
        print(f"the tests did not import liepoisson from {SRC}", file=sys.stderr)
        return 2
    total = missed = 0
    print(f"\npytest exit {int(code)}; executable lines no test ran:")
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        unrun = lines - hits.get(path, set())
        total, missed = total + len(lines), missed + len(unrun)
        if unrun:
            print(f"{os.path.relpath(path, ROOT)} ({len(unrun)}): {_ranges(unrun)}")
    print(f"{missed} of {total} executable lines not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
