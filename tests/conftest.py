"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.sql.session import Session
from repro.sql.types import StructType
from repro.sources.memory import MemoryStream

# ---------------------------------------------------------------------------
# Hypothesis profiles: one knob for how hard property tests try.
#
#   ci      (default) - moderate example counts, what the suite gates on
#   dev     - a handful of examples for fast local iteration
#   nightly - deep search for soak runs
#
# Select with HYPOTHESIS_PROFILE=dev|ci|nightly.  Individual tests should
# NOT carry their own @settings(max_examples=...) — the profile governs.
# ---------------------------------------------------------------------------
settings.register_profile("ci", max_examples=20, deadline=None)
settings.register_profile("dev", max_examples=5, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def session() -> Session:
    return Session()


@pytest.fixture
def checkpoint(tmp_path) -> str:
    return str(tmp_path / "checkpoint")


@pytest.fixture(scope="session")
def matrix(tmp_path_factory):
    """The fault sweep's (config -> measured golden run, point -> cells),
    once per session: ``tests/test_fault_sweep.py`` runs the cells and
    ``tests/test_mode_equivalence.py`` compares the golden runs."""
    from tests import sweep  # tests.sweep imports this module

    measured = sweep.measure(str(tmp_path_factory.mktemp("golden")))
    return measured, sweep.plan_cells(measured)


def make_stream(fields) -> MemoryStream:
    """A MemoryStream with a tuple-spec schema."""
    return MemoryStream(StructType(tuple(fields)))


def rows_set(rows) -> set:
    """Rows as a set of sorted-item tuples for order-insensitive compare."""
    return {tuple(sorted(r.items())) for r in rows}


def start_memory_query(df, mode: str, name: str, checkpoint_dir: str = None, **options):
    """Start a manually driven streaming query into a MemorySink."""
    writer = df.write_stream.format("memory").query_name(name).output_mode(mode)
    for key, value in options.items():
        writer = writer.option(key, value)
    return writer.start(checkpoint_dir)


def framed(kind: str, version: int, *records: str) -> str:
    """The state file the codec writes for these record lines: golden
    tests pin the header and record bytes literally; the trailer's
    digest follows from them."""
    import hashlib

    body = (f'{{"format":"repro-state/1","kind":"{kind}",'
            f'"version":{version}}}\n' + "".join(r + "\n" for r in records))
    digest = hashlib.sha256(body.encode()).hexdigest()
    return body + f'{{"count":{len(records)},"sha256":"{digest}"}}\n'
