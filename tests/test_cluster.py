"""Tests for the process pool as a stage executor (§6.2): results in
shard order, sticky routing, per-task retry, the retry budget and the
per-stage reports — driven directly, without an engine, over a
stand-in operator (``tests/conftest.py::ShardTaskOp``)."""

import json
from types import SimpleNamespace

import pytest

from repro.cluster import TaskFailure, process_pool
from repro.testing.faults import injected

from tests.conftest import bound_pool, fail_shard

LABEL = ("op", 1)


def run_stage(pool, op, method, payloads, epoch=0):
    return pool.run_op_stage(
        SimpleNamespace(epoch_id=epoch), LABEL, op, method, payloads)


class TestStageExecution:
    def test_all_tasks_run_and_results_collected(self, op_pool):
        pool, op = op_pool
        results = run_stage(pool, op, "square", [(i,) for i in range(6)])
        assert results == [i * i for i in range(6)]

    def test_empty_stage(self, op_pool):
        pool, op = op_pool
        assert run_stage(pool, op, "square", [None] * 4) == [None] * 4

    def test_tasks_run_in_parallel(self, op_pool):
        """Two shards on two workers: distinct processes, overlapping
        execution intervals."""
        pool, op = op_pool
        (pid_a, start_a, end_a), (pid_b, start_b, end_b) = run_stage(
            pool, op, "stamp", [(0.2,), (0.2,)])
        assert pid_a != pid_b
        assert start_a < end_b and start_b < end_a

    def test_sequential_stages(self, op_pool):
        pool, op = op_pool
        first = run_stage(pool, op, "nap", [(0, "a"), (0, "b")])
        second = run_stage(pool, op, "nap", [(0, "c"), (0, "d")], epoch=1)
        assert (first, second) == (["a", "b"], ["c", "d"])

    def test_results_ordered_by_submission_not_completion(self, op_pool):
        """Worker 1 (shards 1, 3) replies long before worker 0 (shards 0,
        4); the result list is still in shard order, gaps included, so
        epoch merges are deterministic."""
        pool, op = op_pool
        payloads = [(0.15, 0), (0.0, 10), None, (0.0, 30), (0.15, 40)]
        assert run_stage(pool, op, "nap", payloads) == [0, 10, None, 30, 40]

    def test_shards_route_stickily(self, op_pool):
        """Shard ``i`` always runs on worker ``i % num_workers`` — the
        worker holding its state replica — across stages."""
        pool, op = op_pool
        pids = [[pid for pid, _, _ in run_stage(
            pool, op, "stamp", [(0.0,)] * 4, epoch=epoch)]
            for epoch in range(2)]
        assert pids[0] == pids[1]
        assert pids[0][0] == pids[0][2] != pids[0][1] == pids[0][3]


class TestFaultRecovery:
    def test_failed_task_retried_not_whole_stage(self, op_pool):
        """Shard 3's task fails once in a live worker: only it is re-sent
        — two attempts for it, one for every sibling, nobody died."""
        pool, op = op_pool
        injector = fail_shard(3)
        with injected(injector):
            results = run_stage(pool, op, "square", [(i,) for i in range(6)])
        assert results == [i * i for i in range(6)]
        assert injector.fired == [("worker.task", 1, "fail")]
        report = pool.last_stage_report
        assert [t["attempts"] for t in report["tasks"]] == [1, 1, 1, 2, 1, 1]
        assert report["retries"] == 1
        assert report["executor"]["worker_deaths"] == 0
        # Six tasks plus the one failed attempt ran; no sibling re-ran.
        assert sum(w["tasks"] for w in report["executor"]["workers"]) == 7

    def test_retry_budget_exhaustion_fails_stage(self, shm_guard):
        pool, op = bound_pool(max_retries=2)
        try:
            with injected(fail_shard(0, times=None)):
                with pytest.raises(TaskFailure, match="failed 3 times"):
                    run_stage(pool, op, "square", [(i,) for i in range(4)])
            assert pool.worker_deaths == 0
            # The pool outlives the failed stage.  (Its workers keep the
            # injector they forked with, so shard 0 sits this one out.)
            assert run_stage(pool, op, "square", [None, (2,), (3,)],
                             epoch=1) == [None, 4, 9]
        finally:
            pool.shutdown()


class TestStageMetrics:
    def test_per_task_wall_time_and_attempts_recorded(self, op_pool):
        pool, op = op_pool
        run_stage(pool, op, "square", [(i,) for i in range(4)], epoch=7)
        report = pool.last_stage_report
        assert report["num_tasks"] == 4
        assert [s["task_id"] for s in report["tasks"]] == [
            str((LABEL, 7, shard)) for shard in range(4)]
        for stats in report["tasks"]:
            assert stats["seconds"] >= 0.0
            assert stats["attempts"] == 1
        assert report["wall_seconds"] >= max(
            s["seconds"] for s in report["tasks"])

    def test_stage_reports_history_is_bounded(self, shm_guard, monkeypatch):
        monkeypatch.setattr(process_pool, "STAGE_HISTORY", 3)
        pool, op = bound_pool()
        try:
            for epoch in range(5):
                run_stage(pool, op, "square", [(epoch,), (epoch,)], epoch=epoch)
            reports = pool.stage_reports
            assert len(reports) == 3
            assert reports[-1] is pool.last_stage_report
            assert [r["tasks"][0]["task_id"] for r in reports] == [
                str((LABEL, epoch, 0)) for epoch in (2, 3, 4)]
        finally:
            pool.shutdown()

    def test_stage_report_is_json_serializable(self, op_pool):
        pool, op = op_pool
        run_stage(pool, op, "square", [(i,) for i in range(3)])
        report = json.loads(json.dumps(pool.last_stage_report))
        assert report["executor"]["type"] == "process"
        assert not [key for key in report if key.startswith("specul")]
