"""Reach map: the lines of `src/pogc` that no test runs.

Standard library and pytest only.  From the repository root:

    python3 bench/reach.py > reach.json

pytest runs all of `tests/` in this process under a `sys.settrace`
hook that records, in frames of files under `src/pogc` only, every
line that runs.  A module's executable lines are the lines in the line
tables (`co_lines`) of the code objects compiled from its source.  The
report, JSON on stdout, maps each module, by its path under `src/`, to
the executable lines that no test ran, sorted; pytest's own output
goes to stderr.  Test outcomes are ignored: a test that fails still
counts for the lines it ran.  The tracer makes the suite about five
times slower, so the tests with a time budget fail under it.  Lines
that run only in a child process (the tests that start `python -m
pogc`) count as not run.  This is a probe of the tests, not one of
them: pytest does not collect it.

The standard library's `trace.Trace` does not fit: it caches its
ignore decision by file basename without a package, so once a
site-packages `__init__.py` is ignored, so is `pogc/__init__.py`.  On
`tests/test_pog.py` and `tests/test_cli.py` it recorded no line of
`pogc/__init__.py` (this tracer records 11), and took 147 s against
this tracer's 72 s on a 2-vCPU host.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "pogc")


def executable_lines(path):
    """The lines of a source file that its code objects' line tables
    name."""
    with open(path) as fh:
        todo, lines = [compile(fh.read(), path, "exec")], set()
    while todo:
        code = todo.pop()
        # None or 0 marks code with no source line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(run):
    """run() under a tracer; returns its result and the set of
    (path, line) run in frames of the package's files."""
    hits, ours = set(), {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        mine = ours.get(path)
        if mine is None:
            mine = ours[path] = os.path.realpath(path).startswith(PACKAGE + os.sep)
        return local if mine else None

    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, {(os.path.realpath(p), line) for p, line in hits}


def main():
    import pytest

    with contextlib.redirect_stdout(sys.stderr):  # stdout is the report's
        status, hits = traced(lambda: pytest.main(
            ["-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
             os.path.join(ROOT, "tests")]))
    report = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            report["pogc/" + name] = sorted(
                line for line in executable_lines(path) if (path, line) not in hits)
    sys.stdout.write(json.dumps(report, indent=1) + "\n")
    print("pytest exit status %s; %d lines not run in %d modules" % (
        status, sum(map(len, report.values())), sum(map(bool, report.values()))),
        file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
