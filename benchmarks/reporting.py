"""Benchmark report output.

pytest captures stdout, so the per-figure tables (the rows/series the
paper reports) are written both to ``benchmarks/results/<name>.txt`` and
to the real stdout (``sys.__stdout__``), making them visible in a plain
``pytest benchmarks/ --benchmark-only`` run.

Reports that also pass ``data=`` get merged into
``benchmarks/results/bench_latest.json`` — one consolidated,
machine-readable snapshot of the latest benchmark run (what
``make bench-smoke`` publishes for CI artifacts and regression diffing).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
LATEST_JSON = os.path.join(RESULTS_DIR, "bench_latest.json")


def _git_sha() -> str | None:
    """The repo's current commit, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def emit(name: str, lines, data=None, recorded_at: float = None) -> None:
    """Write a benchmark report to results/<name>.txt and the console;
    with ``data``, also merge ``{name: data}`` into bench_latest.json.

    Each recorded suite entry is stamped with the host's core count, the
    git commit it ran at, and a timestamp (``recorded_at`` when the
    caller measured one, else now) — without these, a snapshot recorded
    on a 1-core CI box is indistinguishable from a 16-core dev machine
    and regression diffs compare apples to oranges.  The merge is
    idempotent per suite key: re-running a suite replaces only its own
    entry and leaves every other suite's untouched.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines) + "\n"
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text)
    if data is not None:
        entry = dict(data)
        entry.setdefault("host_cores", os.cpu_count() or 1)
        entry.setdefault("recorded_at", recorded_at if recorded_at is not None
                         else time.time())
        sha = _git_sha()
        if sha is not None:
            entry.setdefault("git_sha", sha)
        merged = {}
        try:
            with open(LATEST_JSON) as f:
                merged = json.load(f)
        except (OSError, ValueError):
            pass
        merged[name] = entry
        tmp = LATEST_JSON + ".tmp"
        with open(tmp, "w") as f:
            json.dump(merged, f, indent=2, sort_keys=True)
        os.replace(tmp, LATEST_JSON)
    sys.__stdout__.write(f"\n===== {name} =====\n{text}")
    sys.__stdout__.flush()
