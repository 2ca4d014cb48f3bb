"""The fault sweep: every registered fault point, crossed with every
configuration value it fires under.

``tests/sweep.py`` derives the matrix from the corpus registry
(``tests/checkpoint_scenarios.py``) and each config's measured golden
run.  Each cell crashes (or tears/drops/fails) the query at one named
fault point, restarts it from its checkpoint until it completes, and
checks the paper's exactly-once guarantee against the fault-free golden
run — plus a Hypothesis mode that draws random multi-crash schedules
from a seed (every failure message embeds the seed and schedule for
replay, see docs/fault_tolerance.md).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.testing.faults import REGISTRY, FaultInjector, injected
from repro.testing.harness import ExactlyOnceChecker, run_with_crashes

from tests import checkpoint_scenarios as corpus
from tests import sweep


@pytest.mark.parametrize("point,mode", list(sweep.OLD_CELLS))
def test_sweep_cell(point, mode, matrix, tmp_path):
    """A cell of the hand-kept matrix the generator replaced, run as the
    generated cell of its point with the same dimensions."""
    measured, cells = matrix
    cell = sweep.old_cells(cells)[point, mode]
    assert cell is not None, f"the matrix lost old cell ({point}, {mode})"
    sweep.run_cell(cell, str(tmp_path), measured[cell.config].golden)


@pytest.mark.parametrize("point", sorted(REGISTRY))
def test_fault_point(point, matrix, tmp_path):
    """Every generated cell of ``point`` that no old cell id runs."""
    measured, cells = matrix
    assert cells[point], f"no config fires {point}"
    old = set(sweep.old_cells(cells).values())
    for i, cell in enumerate(c for c in cells[point] if c not in old):
        sweep.run_cell(cell, str(tmp_path / str(i)),
                       measured[cell.config].golden)


def test_old_cells_are_distinct(matrix):
    _measured, cells = matrix
    found = list(sweep.old_cells(cells).values())
    assert len(set(found)) == len(found)


def test_every_scenario_is_crashed(matrix):
    _measured, cells = matrix
    crashed = {cell.config.scenario for point in cells for cell in cells[point]}
    assert crashed == set(corpus.SCENARIOS)


@pytest.mark.slow
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_random_multi_crash_schedules(matrix, tmp_path_factory, seed):
    """Hypothesis mode: up to three faults at seed-chosen points and
    occurrences, on the windowed append aggregate into the file sink.
    Any failure reproduces with ``FaultInjector.from_seed(seed)``."""
    measured, _cells = matrix
    instance = sweep.Instance(sweep.AGGREGATE_INTO_FILES,
                              str(tmp_path_factory.mktemp("fuzz")))
    injector = FaultInjector.from_seed(seed)
    checker = ExactlyOnceChecker(
        measured[sweep.AGGREGATE_INTO_FILES].golden, ordered=True)
    with injected(injector):
        run_with_crashes(
            instance.build, instance.steps,
            injector=injector,
            read_sink=instance.read_sink,
            checker=checker,
            checkpoint_dir=instance.checkpoint,
        )
    checker.check_final(instance.read_sink(), context=injector.describe())
