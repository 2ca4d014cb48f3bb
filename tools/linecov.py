#!/usr/bin/env python3
"""Dependency-free line coverage for the test suite.

CI measures coverage with pytest-cov; this script is the fallback for
environments where coverage.py is not installed (the local toolchain
ships only numpy/pytest/hypothesis).  It records executed lines with
``sys.settrace`` — the only portable hook before ``sys.monitoring``
(3.12) — counts executable lines from compiled code objects
(``co_lines``), and fails when total coverage drops below the floor.

Usage::

    PYTHONPATH=src python tools/linecov.py [--fail-under PCT] [pytest args...]

Caveats (why the floor is a little below pytest-cov's number): lines
executed before tracing starts are not recorded, and ``co_lines`` counts a few
artifact lines (e.g. module docstrings) that coverage.py excludes.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from collections import defaultdict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")

_executed = defaultdict(set)


def _local_trace(frame, event, arg):
    if event == "line":
        _executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _local_trace


def _global_trace(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(SRC_ROOT):
        return _local_trace
    return None


def executable_lines(path: str) -> set:
    """All line numbers the compiler marks executable in ``path``."""
    with open(path, "r", encoding="utf-8") as f:
        source = f.read()
    lines = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(ln for _, _, ln in code.co_lines() if ln is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def source_files() -> list:
    files = []
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        files.extend(os.path.join(dirpath, n)
                     for n in filenames if n.endswith(".py"))
    return sorted(files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--fail-under", type=float, default=0.0,
                        help="minimum acceptable total line coverage (percent)")
    parser.add_argument("--worst", type=int, default=10,
                        help="how many least-covered files to list")
    parser.add_argument("pytest_args", nargs="*",
                        help="extra arguments passed through to pytest")
    opts, unknown = parser.parse_known_args(argv)
    opts.pytest_args = opts.pytest_args + unknown

    import pytest  # after parsing, so --help stays instant

    threading.settrace(_global_trace)
    sys.settrace(_global_trace)
    try:
        status = pytest.main(opts.pytest_args or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"linecov: pytest exited {status}; coverage not evaluated")
        return int(status)

    per_file = []
    total_exec = total_hit = 0
    for path in source_files():
        want = executable_lines(path)
        if not want:
            continue
        hit = len(want & _executed.get(path, set()))
        total_exec += len(want)
        total_hit += hit
        per_file.append((100.0 * hit / len(want), hit, len(want),
                         os.path.relpath(path, REPO_ROOT)))

    percent = 100.0 * total_hit / total_exec if total_exec else 100.0
    print(f"\nlinecov: {total_hit}/{total_exec} lines "
          f"({percent:.2f}%) across {len(per_file)} files")
    for pct, hit, want, rel in sorted(per_file)[:opts.worst]:
        print(f"  {pct:6.2f}%  {hit:5d}/{want:<5d}  {rel}")
    if percent < opts.fail_under:
        print(f"linecov: FAIL — total coverage {percent:.2f}% is below "
              f"the floor {opts.fail_under:.2f}%")
        return 2
    print(f"linecov: OK (floor {opts.fail_under:.2f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
