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
from repro.streaming.config import ENV_VARS, EXECUTORS, EngineConfig
from repro.streaming.state import DEFAULT_MEMTABLE_BYTES
from repro.streaming.state_lsm import TieredOperatorStateHandle

from tests.conftest import make_stream

#: field -> (default, value set by option, env text, value the env yields)
CASES = {
    "max_records_per_epoch": (None, 7, None, None),
    "state_checkpoint_interval": (1, 3, None, None),
    "retain_epochs": (None, 5, None, None),
    "num_shards": (1, 3, "6", 6),
    "state_backend": ("dict", "tiered", "tiered", "tiered"),
    "state_memtable_bytes": (DEFAULT_MEMTABLE_BYTES, 123, "2048", 2048),
    "pipeline": (False, "on", "1", True),
    "executor": ("inline", "process", "process", "process"),
    "num_workers": (min(4, os.cpu_count() or 1), 3, "2", 2),
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
        # Pin the knob the shards-follow-workers rule would otherwise move.
        pinned = {} if name == "num_shards" else {"num_shards": 1}
        assert getattr(EngineConfig.resolve(pinned, environ), name) == env_value
    resolved = EngineConfig.resolve({name: option}, environ)
    assert getattr(resolved, name) == OPTION_RESULT.get(name, option)


def test_resolve_reads_the_process_environment(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_SHARDS", "5")
    monkeypatch.setenv("REPRO_PIPELINE", "0")
    config = EngineConfig.resolve({})
    assert config.num_shards == 5 and config.pipeline is False


def test_shards_follow_workers_unless_given():
    process = {"executor": "process", "num_workers": 3}
    assert EngineConfig.resolve(process, {}).num_shards == 3
    assert EngineConfig.resolve(dict(process, num_shards=2), {}).num_shards == 2
    assert EngineConfig.resolve(
        process, {"REPRO_NUM_SHARDS": "8"}).num_shards == 8
    assert EngineConfig.resolve(
        {}, {"REPRO_EXECUTOR": "process", "REPRO_NUM_WORKERS": "2"}
    ).num_shards == 2
    # Inline: workers are irrelevant, one shard.
    assert EngineConfig.resolve({"num_workers": 3}, {}).num_shards == 1


def test_unknown_values_rejected_at_resolution():
    with pytest.raises(ValueError, match="state backend"):
        EngineConfig.resolve({"state_backend": "rocksdb"}, {})
    with pytest.raises(ValueError, match="state backend"):
        EngineConfig.resolve({}, {"REPRO_STATE_BACKEND": "rocksdb"})
    with pytest.raises(ValueError, match="executor"):
        EngineConfig.resolve({"executor": "gpu"}, {})
    with pytest.raises(ValueError, match="executor"):
        EngineConfig.resolve({}, {"REPRO_EXECUTOR": "thread"})


def test_unknown_executor_message_names_only_what_exists():
    with pytest.raises(ValueError) as error:
        EngineConfig.resolve({"executor": "thread"}, {})
    assert str(EXECUTORS) in str(error.value)
    assert "scheduler" not in str(error.value).lower()


def test_scheduler_option_is_rejected_not_ignored(tmp_path):
    """The removed object-valued option would otherwise be dropped like
    any unknown key and the caller silently get the inline executor."""
    stream = make_stream((("k", "string"), ("v", "long")))
    writer = (Session().read_stream.memory(stream)
              .write_stream.sink(MemorySink()).option("scheduler", object()))
    with pytest.raises(ValueError) as error:
        writer.start(str(tmp_path / "cp"))
    assert '.option("executor", "process")' in str(error.value)
    assert "num_workers" in str(error.value)
    assert not os.path.exists(str(tmp_path / "cp"))


def test_config_is_frozen():
    config = EngineConfig()
    with pytest.raises(AttributeError):
        config.num_shards = 2


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


def test_two_executors_and_no_thread_pool():
    """Shard tasks run inline or on the process pool; the thread executor
    and its scheduler are gone, not fenced — no name of theirs survives
    under ``src/`` and the cluster package starts no thread."""
    assert EXECUTORS == ("inline", "process")
    assert _sources_matching(r"threading\.Thread\(", ("cluster",)) == []
    assert _sources_matching(r"TaskScheduler|run_stage") == []
    root = os.path.dirname(repro.__file__)
    for gone in ("scheduler.py", "failures.py"):
        assert not os.path.exists(os.path.join(root, "cluster", gone))
