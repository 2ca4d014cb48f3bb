"""The execution strategy does not change a query's meaning.

Three knobs are meant to change only how a query runs: ``pipeline`` (the
async state flusher and group-commit WAL against the sequential loop),
the state backend (dict or tiered) and the sink (memory or transactional
files).  The fault sweep's session ``matrix`` already holds a fault-free
golden run of every config (``tests/sweep.py``); for every two configs
that differ in exactly one of these knobs, this compares them:

* ``pipeline``: the sink after every step and the checkpoint bytes
  (``corpus.fingerprint``, which drops the offsets' wall-clock time);
* the backend: the sink after every step.  A backend twin is a registry
  scenario that differs from another only in its backend (and bumps),
  such as ``<name>_dict`` and ``<name>_tiered``;
* the sink: the final table, as a multiset of rows.

A scenario added to the registry joins every comparison it has a twin
in, with no edit here.
"""

from collections import Counter
from dataclasses import replace
from functools import partial

from repro.testing.harness import canonical

from tests import checkpoint_scenarios as corpus


def _steps(golden) -> list:
    return [canonical(snapshot) for snapshot in golden.snapshots]


def _twins(measured, knob: str, values: tuple) -> list:
    """(config, twin) pairs of measured configs that differ only in
    ``knob``, the first taking ``values[0]`` and the twin ``values[1]``."""
    return [(config, twin) for config in measured
            if getattr(config, knob) == values[0]
            for twin in [replace(config, **{knob: values[1]})]
            if twin in measured]


def _query(scenario) -> tuple:
    """What a scenario runs, whatever its backend: two ``partial`` builds
    of one function with the same arguments are one query."""
    build = scenario.build
    if isinstance(build, partial):
        build = (build.func, build.args, build.keywords)
    return build, scenario.mode, scenario.first, scenario.second


def _backend_twins(measured) -> list:
    """(dict config, tiered config) pairs whose scenarios differ only in
    their backend."""
    scenarios = corpus.SCENARIOS
    twins = {name: tiered for name in scenarios for tiered in scenarios
             if scenarios[name].backend == "dict"
             and scenarios[tiered].backend == "tiered"
             and _query(scenarios[name]) == _query(scenarios[tiered])}
    return [(config, twin) for config in measured
            if config.scenario in twins
            for twin in [replace(config, scenario=twins[config.scenario])]
            if twin in measured]


def test_pipeline_does_not_change_output_or_checkpoint(matrix):
    measured, _cells = matrix
    pairs = _twins(measured, "pipeline", ("off", "on"))
    assert pairs
    for off, on in pairs:
        sequential, pipelined = measured[off].golden, measured[on].golden
        assert _steps(pipelined) == _steps(sequential), f"{on} vs {off}"
        assert pipelined.fingerprint == sequential.fingerprint, (
            f"{on} wrote other checkpoint bytes than {off}")


def test_backend_does_not_change_output(matrix):
    measured, _cells = matrix
    pairs = _backend_twins(measured)
    assert pairs
    for dict_config, tiered_config in pairs:
        assert (_steps(measured[tiered_config].golden)
                == _steps(measured[dict_config].golden)), (
            f"{tiered_config} vs {dict_config}")


def test_sink_does_not_change_final_table(matrix):
    measured, _cells = matrix
    pairs = _twins(measured, "sink", ("memory", "file"))
    assert pairs
    for memory, files in pairs:
        assert (Counter(canonical(measured[files].golden.final))
                == Counter(canonical(measured[memory].golden.final))), (
            f"{files} vs {memory}")
