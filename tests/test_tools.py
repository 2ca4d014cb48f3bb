"""Tests for the checkpoint administration tooling (§7.2)."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.sources import ChangeStream
from repro.sql import functions as F
from repro.sql.types import StructType
from repro.tools.checkpoint import describe_checkpoint, main, rollback_checkpoint

from tests.conftest import make_stream, start_memory_query


@pytest.fixture
def populated_checkpoint(session, checkpoint):
    stream = make_stream((("t", "timestamp"), ("k", "string")))
    df = (session.read_stream.memory(stream)
          .with_watermark("t", "10s")
          .group_by("k").count())
    # The state summaries below are of the dict backend's files, so
    # the fixture pins it even under REPRO_STATE_BACKEND=tiered.
    query = start_memory_query(df, "update", "adm", checkpoint,
                               state_backend="dict")
    for t in (5.0, 25.0):
        stream.add_data([{"t": t, "k": "a"}])
        query.process_all_available()
    return checkpoint, query, stream, df


class TestDescribe:
    def test_epoch_summary(self, populated_checkpoint):
        checkpoint, _query, _stream, _df = populated_checkpoint
        info = describe_checkpoint(checkpoint)
        assert info["num_epochs"] == 2
        assert info["latest_committed"] == 1
        assert info["uncommitted"] == []
        assert info["epochs"][0]["committed"]
        assert "source-0" in info["epochs"][0]["sources"]

    def test_watermarks_reported(self, populated_checkpoint):
        checkpoint, _q, _s, _df = populated_checkpoint
        info = describe_checkpoint(checkpoint)
        # Epoch 1's entry carries the watermark derived from epoch 0.
        assert info["epochs"][1]["watermarks"] == {"t": -5.0}

    def test_state_store_summary(self, populated_checkpoint):
        checkpoint, _q, _s, _df = populated_checkpoint
        info = describe_checkpoint(checkpoint)
        assert "agg-0" in info["state"]
        assert info["state"]["agg-0"]["versions"] == [0, 1]
        assert info["state"]["agg-0"]["keys_at_last_snapshot"] == 1

    def test_uncommitted_epoch_flagged(self, populated_checkpoint):
        checkpoint, query, _s, _df = populated_checkpoint
        query.engine.wal.write_offsets(2, {"sources": {}})
        info = describe_checkpoint(checkpoint)
        assert info["uncommitted"] == [2]

    def test_metadata_included(self, populated_checkpoint):
        checkpoint, _q, _s, _df = populated_checkpoint
        assert describe_checkpoint(checkpoint)["metadata"]["output_mode"] == "update"

    def test_tiered_handle_reports_its_manifest(self, session, checkpoint):
        """A tiered handle's newest file is a manifest, which records the
        live key count."""
        cdc = ChangeStream(StructType((("k", "string"), ("v", "long"))))
        df = session.read_stream.cdc(cdc).group_by("k").agg(F.sum("v"))
        query = start_memory_query(df, "retract", "adm-tiered", checkpoint,
                                   state_backend="tiered",
                                   state_memtable_bytes=64)
        cdc.insert([{"k": f"k{i}", "v": i} for i in range(20)])
        query.process_all_available()
        query.stop()
        described = describe_checkpoint(checkpoint)["state"]["agg-0"]
        assert described["format"] == "manifest"
        assert described["keys_at_last_snapshot"] == 20


class TestRollback:
    def test_rollback_removes_epochs(self, populated_checkpoint):
        checkpoint, _q, _s, _df = populated_checkpoint
        result = rollback_checkpoint(checkpoint, 0)
        assert result == {"rolled_back_to": 0, "epochs_removed": [1]}
        assert describe_checkpoint(checkpoint)["num_epochs"] == 1

    def test_rollback_unknown_epoch_rejected(self, populated_checkpoint):
        checkpoint, _q, _s, _df = populated_checkpoint
        with pytest.raises(ValueError, match="not found"):
            rollback_checkpoint(checkpoint, 42)

    def test_restart_after_tool_rollback_recomputes(self, session, populated_checkpoint):
        checkpoint, query, stream, df = populated_checkpoint
        rollback_checkpoint(checkpoint, 0)
        sink = query.engine.sink
        q2 = (df.write_stream.sink(sink).output_mode("update").start(checkpoint))
        q2.process_all_available()
        # Epoch 1 recomputed: final count is still 2.
        assert sink.rows() == [{"k": "a", "count": 2}]


class TestCli:
    def test_describe_command(self, populated_checkpoint, capsys):
        checkpoint, _q, _s, _df = populated_checkpoint
        assert main(["describe", checkpoint]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_epochs"] == 2

    def test_rollback_command(self, populated_checkpoint, capsys):
        checkpoint, _q, _s, _df = populated_checkpoint
        assert main(["rollback", checkpoint, "0"]) == 0
        assert json.loads(capsys.readouterr().out)["epochs_removed"] == [1]

    def test_module_run_warns_nothing(self, populated_checkpoint):
        checkpoint, _q, _s, _df = populated_checkpoint
        env = {**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(repro.__file__))}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.tools.checkpoint", "describe", checkpoint],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["num_epochs"] == 2

    def test_usage_on_bad_args(self, capsys):
        assert main([]) == 2
        assert "describe" in capsys.readouterr().err


class TestMonitorNetRates:
    """Retract/cascade throughput in the monitor (satellite fix).

    Retract-mode epochs deliver delete+insert delta rows; the dashboard
    must rate the *net* row count (sum of weights), not the delivered
    delta count — a retraction-heavy window used to read as inflated
    (or, with negative deltas, nonsensical) throughput.
    """

    def test_retract_cascade_rates_use_net_rows(self, session, tmp_path):
        from repro.sources.cdc import ChangeStream
        from repro.sql.types import StructType
        from repro.tools.monitor import load_events, render

        cdc = ChangeStream(StructType((("k", "string"), ("v", "long"))))
        silver = (session.read_stream.cdc(cdc)
                  .filter(F.col("v") >= 0).select("k", "v"))
        ck1 = str(tmp_path / "ck-silver")
        ck2 = str(tmp_path / "ck-gold")
        upstream = (silver.write_stream.to_table("mon_silver")
                    .output_mode("retract").start(ck1))
        downstream = (session.read_stream_table("mon_silver")
                      .group_by("k").agg(F.sum("v").alias("total"))
                      .write_stream.format("memory").query_name("mon-gold")
                      .output_mode("retract").start(ck2))

        def drive():
            upstream.process_all_available()
            downstream.process_all_available()

        cdc.insert([{"k": "a", "v": 5}, {"k": "b", "v": 3}])
        drive()
        # An update retracts the old total and asserts the new one:
        # 2 delivered delta rows, net table growth 0.
        cdc.update([{"k": "a", "v": 5}], [{"k": "a", "v": 2}])
        drive()

        events = load_events(ck2)
        assert len(events) == 2
        assert events[0]["numOutputRows"] == 2
        assert events[0]["numOutputRowsNet"] == 2
        assert events[1]["numOutputRows"] == 2
        assert events[1]["numOutputRowsNet"] == 0

        text = render(events)
        # Window rates use the net count; the delivered delta-row count
        # stays visible as an annotation instead of inflating the rate.
        assert "rows in/out 4/2 (4 delivered)" in text

        # The upstream (stream-table) stage logs net weights too: the
        # update epoch ships one -1 and one +1 row.
        silver_events = load_events(ck1)
        assert silver_events[1]["numOutputRows"] == 2
        assert silver_events[1]["numOutputRowsNet"] == 0

        upstream.stop()
        downstream.stop()

    def test_render_without_net_counts_unchanged(self):
        from repro.tools.monitor import render

        events = [{"epoch": 0, "triggerTime": 1.0, "durationSeconds": 1.0,
                   "numInputRows": 10, "numOutputRows": 10,
                   "backlogRows": 0, "stateKeys": 0, "lateRowsDropped": 0}]
        text = render(events)
        assert "rows in/out 10/10 " in text
        assert "delivered" not in text


def _bench_pairs():
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "tools", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairsVerdict:
    """``tools/bench_pairs.py`` applies bench/README.md's claim rule:
    win nine decided pairs in ten AND medians apart by more than the
    parent's own inter-quartile range."""

    @pytest.fixture(scope="class")
    def judge(self):
        return _bench_pairs().judge

    def test_clear_gain(self, judge):
        parent = [100, 101, 99, 102, 98, 100, 101, 99, 100, 102]
        change = [v * 0.7 for v in parent]
        verdict = judge(parent, change, "lower")
        assert (verdict["wins"], verdict["verdict"]) == (10, "better")
        assert judge(parent, change, "higher")["verdict"] == "WORSE"

    def test_eight_of_ten_is_unresolved(self, judge):
        parent = [100.0] * 10
        change = [90.0] * 8 + [110.0] * 2
        assert judge(parent, change, "lower")["verdict"] == "unresolved"

    def test_wins_inside_the_parents_spread_are_unresolved(self, judge):
        parent = [80, 90, 100, 110, 120, 80, 90, 100, 110, 120]
        change = [v - 1 for v in parent]        # wins all ten, by noise
        verdict = judge(parent, change, "lower")
        assert (verdict["wins"], verdict["verdict"]) == (10, "unresolved")


def test_bench_pairs_copies_the_checkout_as_it_is(tmp_path, monkeypatch):
    """``--base`` runs the change from a copy beside the parent worktree:
    tracked files as modified, untracked ones git does not ignore, never
    an ignored or a deleted file."""
    import subprocess

    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-C", str(repo), *args], check=True,
                       capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("results/\n")
    (repo / "src").mkdir()
    (repo / "src" / "kept.py").write_text("committed\n")
    (repo / "gone.py").write_text("committed\n")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "x")
    (repo / "src" / "kept.py").write_text("modified\n")
    (repo / "src" / "new.py").write_text("untracked\n")
    (repo / "gone.py").unlink()
    (repo / "results").mkdir()
    (repo / "results" / "run.json").write_text("ignored\n")
    module = _bench_pairs()
    monkeypatch.setattr(module, "ROOT", str(repo))
    dest = tmp_path / "change"
    module.copy_checkout(str(dest))
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*")
                    if p.is_file())
    assert copied == [".gitignore", "src/kept.py", "src/new.py"]
    assert (dest / "src" / "kept.py").read_text() == "modified\n"


def test_bench_pairs_reports_a_failed_runs_breakdown(capsys):
    """A run with failed operations is reported with its count and its
    ``stamp.failures`` breakdown, so late generator ticks read apart
    from mismatched rows; the exit status stays 1."""
    module = _bench_pairs()

    def run(failures):
        return {"correct": failures.get("mismatched_rows", 0) == 0,
                "failed": sum(failures.values()), "failures": failures,
                "metrics": {"setup_s": 1.0}}

    late = {"late_ticks": 62, "unsustained_ticks": 0, "mismatched_rows": 0}
    runs = {"parent": [run({}), run(late)], "change": [run({}), run({})]}
    described = {"setup_s": {"better": "lower", "bound": 0.25}}
    assert module.report("w", runs, described) == 1
    out = capsys.readouterr().out
    assert "parent: runs [1] reported" in out
    assert ("run 1: failed=62 correct=True late_ticks=62 "
            "mismatched_rows=0 unsustained_ticks=0") in out
    assert "change: runs" not in out
