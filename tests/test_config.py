"""EngineConfig: every engine knob is resolved once, at one site, with
precedence ``.option()`` > ``REPRO_*`` > default."""

from __future__ import annotations

import os
import re
from dataclasses import fields

import pytest

import repro
from repro.sinks.memory import MemorySink
from repro.sql import functions as F
from repro.sql.session import Session
from repro.streaming.config import ENV_VARS, REMOVED_KNOBS, EngineConfig
from repro.streaming.state import DEFAULT_MEMTABLE_BYTES
from repro.streaming.state_lsm import TieredOperatorStateHandle

from tests.conftest import make_stream

#: field -> (default, value set by option, env text, value the env yields)
CASES = {
    "max_records_per_epoch": (None, 7, None, None),
    "state_checkpoint_interval": (1, 3, None, None),
    "retain_epochs": (None, 5, None, None),
    "state_backend": ("dict", "tiered", "tiered", "tiered"),
    "state_memtable_bytes": (DEFAULT_MEMTABLE_BYTES, 123, "2048", 2048),
    "pipeline": (False, "on", "1", True),
}
OPTION_RESULT = {"pipeline": True}  # "on" -> True; the rest come back as set


def test_cases_cover_every_field():
    assert set(CASES) == {f.name for f in fields(EngineConfig)}
    assert {name for name, case in CASES.items() if case[2] is not None} \
        == set(ENV_VARS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_option_beats_env_beats_default(name):
    default, option, env_text, env_value = CASES[name]
    assert getattr(EngineConfig.resolve({}, {}), name) == default
    # CI passes empty variables on legs that do not use them.
    empty = {var: "" for var in ENV_VARS.values()}
    assert getattr(EngineConfig.resolve({name: None}, empty), name) == default
    environ = {}
    if env_text is not None:
        environ = {ENV_VARS[name]: env_text}
        assert getattr(EngineConfig.resolve({}, environ), name) == env_value
    resolved = EngineConfig.resolve({name: option}, environ)
    assert getattr(resolved, name) == OPTION_RESULT.get(name, option)


def test_resolve_reads_the_process_environment(monkeypatch):
    monkeypatch.setenv("REPRO_STATE_MEMTABLE_BYTES", "4096")
    monkeypatch.setenv("REPRO_PIPELINE", "0")
    config = EngineConfig.resolve({})
    assert config.state_memtable_bytes == 4096 and config.pipeline is False


def test_unknown_values_rejected_at_resolution():
    with pytest.raises(ValueError, match="state backend"):
        EngineConfig.resolve({"state_backend": "rocksdb"}, {})
    with pytest.raises(ValueError, match="state backend"):
        EngineConfig.resolve({}, {"REPRO_STATE_BACKEND": "rocksdb"})


def test_six_fields_and_three_environment_variables():
    assert len(fields(EngineConfig)) == 6
    assert sorted(ENV_VARS.values()) == [
        "REPRO_PIPELINE", "REPRO_STATE_BACKEND",
        "REPRO_STATE_MEMTABLE_BYTES"]


@pytest.mark.parametrize("cap", [0, -1])
def test_records_cap_below_one_is_rejected(tmp_path, cap):
    """A cap of 0 would read nothing and one below 0 would compute end
    offsets before the start: either way the query would stall with its
    input unread, so the cap is refused when the query starts."""
    with pytest.raises(ValueError, match="max_records_per_epoch"):
        EngineConfig(max_records_per_epoch=cap)
    message = _start_with(tmp_path, "max_records_per_epoch", cap)
    assert "max_records_per_epoch" in message


def _start_with(tmp_path, name=None, value=None, **trigger):
    stream = make_stream((("k", "string"), ("v", "long")))
    writer = Session().read_stream.memory(stream).write_stream.sink(
        MemorySink())
    if name is not None:
        writer = writer.option(name, value)
    if trigger:
        writer = writer.trigger(**trigger)
    with pytest.raises(ValueError) as error:
        writer.start(str(tmp_path / "cp"))
    assert not os.path.exists(str(tmp_path / "cp"))
    return str(error.value)


def test_scheduler_option_is_rejected_not_ignored(tmp_path):
    """The removed object-valued option would otherwise be dropped like
    any unknown key and the caller silently get the inline executor."""
    message = _start_with(tmp_path, "scheduler", object())
    assert "'scheduler'" in message and "removed" in message
    assert "one task per epoch" in message


@pytest.mark.parametrize("name,value", [
    ("executor", "process"), ("num_workers", 2), ("executor", "inline"),
])
def test_removed_executor_option_is_rejected_by_name(tmp_path, name, value):
    """Even ``executor="inline"`` raises: a script naming the knob still
    believes there is a choice to make."""
    message = _start_with(tmp_path, name, value)
    assert repr(name) in message
    assert "process executor was removed" in message


def test_removed_shard_count_is_rejected_by_name(tmp_path):
    """A script or CI leg still asking for shards must not silently run
    one state dict per operator: the option and the variable raise."""
    message = _start_with(tmp_path, "num_shards", 4)
    assert "'num_shards'" in message and "shards were removed" in message
    with pytest.raises(ValueError, match="REPRO_NUM_SHARDS is set"):
        EngineConfig.resolve({}, {"REPRO_NUM_SHARDS": "1"})
    assert EngineConfig.resolve({}, {"REPRO_NUM_SHARDS": ""}) == EngineConfig()


@pytest.mark.parametrize("name", ["num_shards", "executor", "num_workers"])
def test_continuous_query_refuses_removed_knobs(tmp_path, monkeypatch, name):
    """A continuous query resolves the knobs a microbatch one does: a
    removed knob's option or variable raises before anything starts."""
    message = _start_with(tmp_path, name, 4, continuous=0.05)
    assert repr(name) in message and "removed" in message
    variable, _message = REMOVED_KNOBS[name]
    monkeypatch.setenv(variable, "4")
    assert f"{variable} is set" in _start_with(tmp_path, continuous=0.05)


@pytest.mark.parametrize("variable", ["REPRO_EXECUTOR", "REPRO_NUM_WORKERS"])
def test_removed_environment_variable_raises(variable):
    """A stale CI variable must not silently run inline."""
    assert variable in {var for var, _ in REMOVED_KNOBS.values()}
    with pytest.raises(ValueError, match="process executor was removed") \
            as error:
        EngineConfig.resolve({}, {variable: "process"})
    assert variable in str(error.value)
    # Empty counts as unset, as for every other variable.
    assert EngineConfig.resolve({}, {variable: ""}) == EngineConfig()


def test_config_is_frozen():
    config = EngineConfig()
    with pytest.raises(AttributeError):
        config.pipeline = True


def test_writer_hands_the_engine_one_resolved_config(tmp_path, monkeypatch):
    """End to end: env picks the backend, an option overrides the env
    budget, and the engine's state store is built from those values."""
    monkeypatch.setenv("REPRO_STATE_BACKEND", "tiered")
    monkeypatch.setenv("REPRO_STATE_MEMTABLE_BYTES", "2048")
    session = Session()
    stream = make_stream((("k", "string"), ("v", "long")))
    df = (session.read_stream.memory(stream)
          .group_by("k").agg(F.sum("v").alias("total")))
    query = (df.write_stream.sink(MemorySink()).output_mode("update")
             .option("state_memtable_bytes", 512)
             .start(str(tmp_path / "cp")))
    try:
        config = query.engine.config
        assert config.state_backend == "tiered"
        assert config.state_memtable_bytes == 512
        assert query.engine.state_store.backend == "tiered"
        handle = next(iter(query.engine.state_store._handles.values()))
        assert isinstance(handle, TieredOperatorStateHandle)
        assert handle.memtable_bytes == 512
    finally:
        query.stop()


def _sources_matching(pattern, packages=("",)):
    """Files under ``repro/<package>`` whose text matches ``pattern``."""
    root = os.path.dirname(repro.__file__)
    matches = []
    for package in packages:
        for dirpath, _dirs, files in os.walk(os.path.join(root, package)):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    if re.search(pattern, f.read()):
                        matches.append(os.path.relpath(path, root))
    return sorted(matches)


def test_only_the_config_module_reads_the_environment():
    assert _sources_matching(
        r"os\.(environ|getenv)", ("streaming", "cluster")
    ) == [os.path.join("streaming", "config.py")]


def test_one_vectorized_evaluator_and_eval_row_is_the_oracle_only():
    """``eval_batch`` is the only evaluator the engine runs: the closure
    compiler is gone and nothing outside the expression AST itself
    (where the oracle is defined) touches ``eval_row``."""
    assert _sources_matching(r"sql\.codegen|import codegen") == []
    assert _sources_matching(r"eval_row") == [
        os.path.join("sql", "expressions.py")]


def test_one_executor_no_pool_no_fork():
    """Shard tasks run on the engine thread; the process pool, its
    shared-memory transport and the state-replica journal are gone, not
    fenced — no name of theirs survives under ``src/``."""
    assert _sources_matching(
        r"ProcessPool|SharedBatch|shared_memory|register_at_fork"
        r"|collect_sync_delta|fork\(") == []
    assert _sources_matching(r"TaskScheduler|run_stage") == []
    assert _sources_matching(r"threading\.Thread\(", ("cluster",)) == []
    root = os.path.dirname(repro.__file__)
    for gone in ("scheduler.py", "failures.py", "process_pool.py",
                 "perfmodel.py"):
        assert not os.path.exists(os.path.join(root, "cluster", gone))


def test_one_keyed_state_layout_no_shards():
    """Each keyed operator runs one task per epoch against one state
    dict: the shard layer is gone, not fenced.  ``num_shards`` survives
    only in the config module, which refuses it by name."""
    assert _sources_matching(
        r"_StateShard|run_keyed_shard_tasks|run_op_shard_tasks"
        r"|state_aligned|hash_partition", ("streaming",)) == []
    assert _sources_matching(r"num_shards", ("streaming",)) == [
        os.path.join("streaming", "config.py")]
    assert "num_shards" in REMOVED_KNOBS
