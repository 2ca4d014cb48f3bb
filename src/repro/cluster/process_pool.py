"""Persistent process workers for true multicore epoch execution (§6.2).

The engine's inline executor runs an epoch's per-shard tasks one after
another on its own thread.  This pool runs the same pure shard tasks in
forked worker processes:

* **Zero-copy input shipping** — per-shard ``RecordBatch`` arguments are
  encoded as :class:`~repro.sql.batch.SharedBatch` descriptors; numeric
  columns live in one shared-memory segment per batch and only the
  descriptor crosses the pipe.
* **Sticky routing over live replicas** — worker ``shard % num_workers``
  always runs a given shard's tasks, and every worker keeps a full
  synchronized state replica across epochs.  The driver stays
  authoritative (it applies every deferred write itself, so checkpoint
  and sink bytes are identical to the inline executor); workers receive
  only the *state-sync deltas* journaled since the op's last stage
  (:meth:`~repro.streaming.state.OperatorStateHandle.collect_sync_delta`),
  broadcast because operators may partition tasks by a coarser key than
  the state store shards by.
* **Per-worker plan cache for free** — workers fork from the driver
  *after* the engine compiled its incremental plan, so every compiled
  closure (`plancompiler` kernels, grouping pipelines) is inherited
  once per worker, never rebuilt per task.
* **Worker-death recovery** — a dead or hung worker is respawned (a
  fresh fork), told to re-restore its shards from the last state
  checkpoint plus the driver's uncommitted residual, and the stage's
  undelivered tasks are re-sent.  Sync deltas are idempotent snapshots,
  so replay after respawn is safe by construction.
* **Per-task retry** — a task that raises in a live worker reports
  failure for that shard alone; the driver re-sends only it, up to
  ``max_retries`` times, then raises :class:`TaskFailure`.

The pool starts no thread: the driver multiplexes its workers' pipes
with ``connection.wait`` from the engine thread.

Fault-state synchronization: the ``worker.*`` fault points fire *inside*
worker processes, whose injector is a fork-time copy of the driver's.  Workers report their
fault counters to the driver (eagerly, before executing a fatal action),
and the driver merges them into its own injector — the single source of
truth that respawned workers re-inherit at fork.  Without the merge, a
respawned worker would replay the same occurrence forever.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import deque
from multiprocessing import connection, get_context

from repro.observability import metrics, tracing
from repro.sql.batch import RecordBatch, SharedBatch
from repro.testing import faults

#: Fault points that fire inside worker processes (see module docstring),
#: in firing order before each shard task.
WORKER_POINTS = ("worker.task", "worker.hang", "worker.crash_mid_task")
#: Stage reports kept in :attr:`ProcessPool.stage_reports`.
STAGE_HISTORY = 256

_PROTO = pickle.HIGHEST_PROTOCOL


class TaskFailure(Exception):
    """A task or its worker exhausted the stage's retry budget."""


def _collect_fault_state(injector) -> dict | None:
    """Snapshot of a worker injector's progress, for merging driver-side."""
    if injector is None:
        return None
    with injector._lock:
        return {
            "counts": {
                p: injector.counts[p] for p in WORKER_POINTS
                if injector.counts.get(p)
            },
            "triggered": [f.triggered for f in injector.faults],
            "fired": [e for e in injector.fired if e[0] in WORKER_POINTS],
        }


def _merge_fault_state(state: dict | None) -> None:
    """Fold a worker's fault-state snapshot into the driver's injector.

    Max-merge: counts and per-entry trigger counts only move forward, so
    merging the same snapshot twice (e.g. an eager death report followed
    by a later reply) is a no-op.
    """
    injector = faults.active_injector()
    if injector is None or not state:
        return
    with injector._lock:
        for point, count in state["counts"].items():
            if count > injector.counts.get(point, 0):
                injector.counts[point] = count
        for fault, triggered in zip(injector.faults, state["triggered"]):
            if triggered > fault.triggered:
                fault.triggered = triggered
        seen = {tuple(e) for e in injector.fired}
        for entry in state["fired"]:
            entry = tuple(entry)
            if entry not in seen:
                injector.fired.append(entry)
                seen.add(entry)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _fire_worker_point(conn, point: str, shard: int) -> None:
    """Worker-side twin of ``fault_point``, fired before each shard task.

    Replicates :meth:`FaultInjector.fire` bookkeeping.  A ``fail`` action
    raises :class:`~repro.testing.faults.InjectedTaskError` into the
    caller's per-task ``try`` — that one task reports failure and the
    worker lives on.  Any other action is process death, and the updated
    fault state is reported to the driver *before* it executes: a crashed
    or hung-then-killed worker must not take the knowledge that its
    fault triggered to the grave, or the respawned worker (which
    re-inherits the driver's injector) would fire it again in an endless
    kill loop.
    """
    injector = faults.active_injector()
    if injector is None:
        return
    ctx = {"shard": shard, "pid": os.getpid()}
    with injector._lock:
        count = injector.counts.get(point, 0)
        injector.counts[point] = count + 1
        chosen = None
        for fault in injector.faults:
            if fault.point == point and fault.wants(count, ctx):
                fault.triggered += 1
                chosen = fault
                break
        if chosen is not None:
            injector.fired.append((point, count, chosen.action))
    if chosen is None:
        return
    if chosen.action == "fail":
        raise faults.InjectedTaskError(
            f"injected fail at {point}#{count}")
    try:
        conn.send_bytes(pickle.dumps(
            ("fault", _collect_fault_state(injector)), protocol=_PROTO))
    except OSError:
        pass
    if chosen.action == "hang":
        time.sleep(chosen.seconds)
    # Process death (never sys.exit: a normal interpreter exit would run
    # fork-inherited atexit handlers and unlink the driver's live
    # shared-memory segments).
    os._exit(17)


def _worker_main(conn, slot: int, ops: dict, handles: list) -> None:
    """Forked worker loop: apply state-sync deltas, run shard tasks.

    Fork hygiene first: the child inherits the driver's observability
    registries (whose locks another driver thread may have held at fork)
    and its injector lock — both are reset before any work.  The loop
    exits only via ``os._exit`` so inherited atexit handlers (the
    shared-memory sweep!) never run in the child.
    """
    from repro.observability import metrics as _metrics
    from repro.observability import tracing as _tracing

    _metrics._registry = None
    _tracing._tracer = None
    injector = faults.active_injector()
    if injector is not None:
        injector._lock = threading.Lock()
    try:
        while True:
            try:
                msg = pickle.loads(conn.recv_bytes())
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "exit":
                break
            if kind == "restore":
                # Respawn path: rebuild owned shards from the last state
                # checkpoint on disk, then overlay the driver's
                # uncommitted residual — reproducing driver state
                # exactly, from durable artifacts.
                _, instructions = msg
                for handle_idx, version, residual in instructions:
                    handle = handles[handle_idx]
                    handle.restore(version)
                    for shard_i, (puts, removes) in residual.items():
                        handle.apply_sync_delta(shard_i, puts, removes)
                conn.send_bytes(pickle.dumps(("restored",), protocol=_PROTO))
                continue
            if kind != "stage":
                continue
            _, seq, token, method, deltas, tasks = msg
            for handle_idx, shard_i, puts, removes in deltas:
                handles[handle_idx].apply_sync_delta(shard_i, puts, removes)
            fn = getattr(ops[token], method)
            results = []
            for shard_i, args in tasks:
                started = time.monotonic()
                try:
                    for point in WORKER_POINTS:
                        _fire_worker_point(conn, point, shard_i)
                    decoded = tuple(
                        a.decode() if isinstance(a, SharedBatch) else a
                        for a in args
                    )
                    started = time.monotonic()
                    value = fn(*decoded)
                except Exception as exc:  # transient: driver retries
                    results.append((
                        shard_i, False, f"{type(exc).__name__}: {exc}",
                        time.monotonic() - started,
                    ))
                else:
                    results.append((
                        shard_i, True, value, time.monotonic() - started,
                    ))
                for a in args:
                    if isinstance(a, SharedBatch):
                        a.close_reader()
            reply = ("ok", seq, results,
                     _collect_fault_state(faults.active_injector()))
            conn.send_bytes(pickle.dumps(reply, protocol=_PROTO))
    finally:
        os._exit(0)


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
class _WorkerHandle:
    """Driver-side record of one live worker process."""

    __slots__ = ("slot", "proc", "conn", "generation", "spawned_at",
                 "busy_seconds", "tasks_run")

    def __init__(self, slot, proc, conn, generation):
        self.slot = slot
        self.proc = proc
        self.conn = conn
        self.generation = generation
        self.spawned_at = time.monotonic()
        self.busy_seconds = 0.0
        self.tasks_run = 0


class _WorkerDied(Exception):
    """Internal signal: a worker's pipe broke or its deadline passed."""


class ProcessPool:
    """A bound set of forked workers executing per-shard operator stages.

    One pool serves one engine at a time: :meth:`bind` (re)binds to an
    engine's compiled plan, enabling write journaling on every state
    handle the pool will replicate.  Workers fork lazily on the first
    stage so they inherit fully-recovered state and compiled plans.
    """

    def __init__(self, num_workers: int, max_retries: int = 3):
        self.num_workers = max(1, num_workers)
        #: Re-sends allowed per task, and respawns per worker, in a stage.
        self.max_retries = max_retries
        #: Seconds a worker may hold a stage message (or a restore)
        #: before the driver kills and respawns it.
        self.task_timeout = 60.0
        #: Report of the most recent completed stage (see _record_stage).
        self.last_stage_report = None
        self._stage_records = deque(maxlen=STAGE_HISTORY)
        self._ctx = get_context("fork")
        self._workers = [None] * self.num_workers
        self._generation = 0
        self._engine = None
        self._ops = {}            # token -> operator
        self._op_tokens = {}      # id(operator) -> token
        self._handles = []        # journaled state handles (fork-shared order)
        self._handle_tokens = {}  # id(handle) -> index into _handles
        self._seq = 0
        self.worker_deaths = 0

    @property
    def stage_reports(self) -> list:
        """Recorded per-stage reports, oldest first (bounded history)."""
        return list(self._stage_records)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        """(Re)bind to an engine: reset workers, enumerate the plan's
        operators, and enable state-sync journaling on their handles.
        Called after engine recovery, so the fork baseline is final."""
        self._stop_workers()
        self._engine = engine
        self._ops = {}
        self._op_tokens = {}
        self._handles = []
        self._handle_tokens = {}
        stack = [engine.plan.root]
        while stack:
            op = stack.pop()
            token = len(self._ops)
            self._ops[token] = op
            self._op_tokens[id(op)] = token
            stack.extend(reversed(op.child_ops()))
            for handle in op.state_handles():
                if id(handle) not in self._handle_tokens:
                    self._handle_tokens[id(handle)] = len(self._handles)
                    self._handles.append(handle)
                    handle.enable_journal()

    def knows(self, op) -> bool:
        """True if ``op`` belongs to the *currently bound* plan.

        Identity-checked against the operator table, not just ``id()``
        membership: a rebuilt engine runs its recovery replay before
        rebinding, and a recycled ``id`` must not route its tasks to
        workers forked from the previous plan.
        """
        token = self._op_tokens.get(id(op))
        return token is not None and self._ops.get(token) is op

    def shutdown(self) -> None:
        """Stop all workers (idempotent)."""
        self._stop_workers()

    def _stop_workers(self) -> None:
        exit_msg = pickle.dumps(("exit",), protocol=_PROTO)
        for handle in self._workers:
            if handle is None:
                continue
            try:
                handle.conn.send_bytes(exit_msg)
            except (OSError, ValueError):
                pass
        for slot, handle in enumerate(self._workers):
            if handle is None:
                continue
            handle.proc.join(timeout=2.0)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(timeout=2.0)
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout=2.0)
            try:
                handle.conn.close()
            except OSError:
                pass
            self._workers[slot] = None

    def _spawn(self, slot: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        self._generation += 1
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, slot, self._ops, self._handles),
            name=f"repro-pworker-{slot}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle = _WorkerHandle(slot, proc, parent_conn, self._generation)
        self._workers[slot] = handle
        return handle

    def _ensure_workers(self) -> None:
        for slot in range(self.num_workers):
            if self._workers[slot] is None:
                self._spawn(slot)

    def _respawn(self, slot: int) -> _WorkerHandle:
        """Replace a dead worker: fresh fork (inheriting merged fault
        state), then a genuine re-restore of its shards from the last
        state checkpoint plus the driver's uncommitted residual."""
        old = self._workers[slot]
        if old is not None:
            if old.proc.is_alive():
                old.proc.terminate()
                old.proc.join(timeout=2.0)
                if old.proc.is_alive():
                    old.proc.kill()
                    old.proc.join(timeout=2.0)
            try:
                old.conn.close()
            except OSError:
                pass
            self._workers[slot] = None
        self.worker_deaths += 1
        metrics.count("executor.worker_deaths")
        handle = self._spawn(slot)
        instructions = [
            (idx, h.last_committed_version, h.sync_residual())
            for idx, h in enumerate(self._handles)
        ]
        handle.conn.send_bytes(pickle.dumps(
            ("restore", instructions), protocol=_PROTO))
        deadline = time.monotonic() + self.task_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not handle.conn.poll(remaining):
                raise TaskFailure(
                    f"respawned worker {slot} did not acknowledge restore "
                    f"within {self.task_timeout}s"
                )
            msg = pickle.loads(handle.conn.recv_bytes())
            if msg[0] == "restored":
                return handle
            if msg[0] == "fault":
                _merge_fault_state(msg[1])

    # ------------------------------------------------------------------
    # Stage execution
    # ------------------------------------------------------------------
    def run_op_stage(self, ctx, label, op, method: str, payloads) -> list:
        """Run ``op.<method>(*payloads[shard])`` for every non-None shard
        on the owning workers; results in shard order (None for skipped
        shards), exactly like the inline arm of ``run_op_shard_tasks``."""
        token = self._op_tokens[id(op)]
        self._seq += 1
        seq = self._seq
        started = time.monotonic()
        self._ensure_workers()
        workers = self.num_workers

        # Ship phase: drain this op's state journals and encode batch
        # arguments as shared memory.  When the op's task partitioning
        # is the state key partitioning (``op.state_aligned``), a shard's
        # delta goes only to the worker that owns the shard — its tasks
        # are the only readers of those keys.  Otherwise deltas are
        # broadcast: operators may partition *tasks* by a coarser key
        # than the state store shards by (e.g. tumbling-window
        # aggregation partitions on window start alone, while state
        # hashes the full group key), so each worker keeps a full
        # synchronized replica and task routing alone is sticky.
        ship_started = time.monotonic()
        aligned = getattr(op, "state_aligned", False)
        deltas_by_worker = [[] for _ in range(workers)]
        for handle in op.state_handles():
            handle_idx = self._handle_tokens[id(handle)]
            for shard_i, (puts, removes) in handle.collect_sync_delta().items():
                entry = (handle_idx, shard_i, puts, removes)
                if aligned:
                    deltas_by_worker[shard_i % workers].append(entry)
                else:
                    for deltas in deltas_by_worker:
                        deltas.append(entry)
        shared = []
        tasks_by_worker = [[] for _ in range(workers)]
        for shard_i, args in enumerate(payloads):
            if args is None:
                continue
            encoded = []
            for arg in args:
                if isinstance(arg, RecordBatch):
                    batch = SharedBatch.encode(arg)
                    shared.append(batch)
                    encoded.append(batch)
                else:
                    encoded.append(arg)
            tasks_by_worker[shard_i % workers].append((shard_i, tuple(encoded)))

        messages = {}
        for w in range(workers):
            if deltas_by_worker[w] or tasks_by_worker[w]:
                messages[w] = pickle.dumps(
                    ("stage", seq, token, method,
                     deltas_by_worker[w], tasks_by_worker[w]),
                    protocol=_PROTO)
        ipc_bytes = sum(len(m) for m in messages.values())
        ipc_bytes += sum(b.ipc_bytes for b in shared)

        results = {}
        task_seconds = {}
        attempts = {
            shard_i: 1
            for w in messages for shard_i, _ in tasks_by_worker[w]
        }
        retries = 0
        merge_seconds = 0.0
        worker_failures = dict.fromkeys(range(workers), 0)
        deadlines = {}
        pending = {}  # slot -> outstanding message bytes (resent on respawn)

        def dispatch(slot, message):
            # Retained first so fail_worker can resend it even when this
            # very send is what discovers the worker died.
            pending[slot] = message
            deadlines[slot] = time.monotonic() + self.task_timeout
            try:
                self._workers[slot].conn.send_bytes(message)
            except (OSError, ValueError) as exc:
                raise _WorkerDied(f"send to worker {slot}: {exc}") from exc

        def fail_worker(slot, reason):
            # Respawn and re-send until it sticks: a replacement that
            # dies during its restore handshake, or before the re-send
            # lands, spends the same per-worker budget.
            nonlocal retries
            message = pending[slot]
            while True:
                worker_failures[slot] += 1
                retries += 1
                if worker_failures[slot] > self.max_retries:
                    raise TaskFailure(
                        f"process worker {slot} failed "
                        f"{worker_failures[slot]} times during stage "
                        f"{label!r}: {reason}"
                    )
                for shard_i, _ in _stage_tasks(message):
                    if shard_i not in results:
                        attempts[shard_i] = attempts.get(shard_i, 0) + 1
                try:
                    self._respawn(slot)
                    dispatch(slot, message)
                    return
                except (_WorkerDied, EOFError, OSError) as exc:
                    reason = f"respawned worker died: {exc}"

        try:
            with tracing.trace_span(f"executor:stage:{method}",
                                    epoch=ctx.epoch_id):
                for w, message in messages.items():
                    try:
                        dispatch(w, message)
                    except _WorkerDied as died:
                        fail_worker(w, died)
                ship_seconds = time.monotonic() - ship_started

                while pending:
                    now = time.monotonic()
                    conns = {
                        self._workers[w].conn: w for w in pending
                    }
                    timeout = max(0.0, min(deadlines.values()) - now)
                    ready = connection.wait(list(conns), timeout=timeout)
                    for conn in ready:
                        w = conns[conn]
                        merge_started = time.monotonic()
                        try:
                            msg = pickle.loads(conn.recv_bytes())
                        except (EOFError, OSError) as exc:
                            fail_worker(w, f"worker died: {exc}")
                            continue
                        merge_seconds += time.monotonic() - merge_started
                        kind = msg[0]
                        if kind == "fault":
                            _merge_fault_state(msg[1])
                            continue
                        if kind != "ok" or msg[1] != seq:
                            continue  # stale reply from a killed stage
                        _merge_fault_state(msg[3])
                        handle = self._workers[w]
                        retry_tasks = []
                        for shard_i, success, value, seconds in msg[2]:
                            handle.busy_seconds += seconds
                            handle.tasks_run += 1
                            if success:
                                results[shard_i] = value
                                task_seconds[shard_i] = (
                                    task_seconds.get(shard_i, 0.0) + seconds)
                                _record_task_span(
                                    label, ctx, shard_i, seconds, handle)
                            else:
                                if attempts[shard_i] > self.max_retries:
                                    raise TaskFailure(
                                        f"task {(label, ctx.epoch_id, shard_i)} "
                                        f"failed {attempts[shard_i]} times: "
                                        f"{value}"
                                    )
                                attempts[shard_i] += 1
                                retries += 1
                                retry_tasks.append(
                                    (shard_i, _stage_task_args(
                                        pending[w], shard_i)))
                        pending.pop(w, None)
                        deadlines.pop(w, None)
                        if retry_tasks:
                            try:
                                dispatch(w, pickle.dumps(
                                    ("stage", seq, token, method, [],
                                     retry_tasks), protocol=_PROTO))
                            except _WorkerDied as died:
                                fail_worker(w, died)
                    if not ready:
                        expired = [
                            w for w, d in deadlines.items()
                            if time.monotonic() >= d
                        ]
                        for w in expired:
                            self._drain_fault_reports(w)
                            fail_worker(
                                w, f"no reply within {self.task_timeout}s")
        finally:
            for batch in shared:
                batch.release()

        wall = time.monotonic() - started
        self._record_stage(ctx, label, wall, ship_seconds, merge_seconds,
                           ipc_bytes, task_seconds, attempts, retries)
        return [results.get(i) for i in range(len(payloads))]

    def _drain_fault_reports(self, slot: int) -> None:
        """Pull any queued eager fault reports off a worker's pipe before
        killing it (a hung worker reported its fault, then slept)."""
        handle = self._workers[slot]
        if handle is None:
            return
        try:
            while handle.conn.poll(0):
                msg = pickle.loads(handle.conn.recv_bytes())
                if msg[0] == "fault":
                    _merge_fault_state(msg[1])
        except (EOFError, OSError):
            pass

    def _record_stage(self, ctx, label, wall, ship_seconds, merge_seconds,
                      ipc_bytes, task_seconds, attempts, retries) -> None:
        now = time.monotonic()
        worker_stats = []
        for handle in self._workers:
            if handle is None:
                continue
            alive = max(now - handle.spawned_at, 1e-9)
            worker_stats.append({
                "worker": handle.slot,
                "generation": handle.generation,
                "tasks": handle.tasks_run,
                "busy_seconds": handle.busy_seconds,
                "utilization": min(handle.busy_seconds / alive, 1.0),
            })
        report = {
            "num_tasks": len(task_seconds),
            "wall_seconds": wall,
            "tasks": [
                {
                    "seconds": task_seconds[shard_i],
                    "attempts": attempts.get(shard_i, 1),
                    "task_id": str((label, ctx.epoch_id, shard_i)),
                }
                for shard_i in sorted(task_seconds)
            ],
            "retries": retries,
            "executor": {
                "type": "process",
                "num_workers": self.num_workers,
                "ipc_bytes": ipc_bytes,
                "ship_seconds": ship_seconds,
                "merge_seconds": merge_seconds,
                "worker_deaths": self.worker_deaths,
                "workers": worker_stats,
            },
        }
        self.last_stage_report = report
        self._stage_records.append(report)
        metrics.count("executor.ipc_bytes", ipc_bytes)
        metrics.observe("executor.ship_seconds", ship_seconds)
        metrics.observe("executor.merge_seconds", merge_seconds)


def _record_task_span(label, ctx, shard_i: int, seconds: float,
                      handle) -> None:
    """Driver-side ``task:<op>:shard<i>`` span for a worker-run task.

    Workers null their tracer at fork (its lock may be mid-acquire),
    so task spans are reconstructed here from the worker's reported
    duration — keeping trace coverage identical across executors."""
    tracer = tracing.active()
    if tracer is None:
        return
    op = label[0] if isinstance(label, tuple) else label
    stack = tracer._stack()
    end = time.perf_counter()
    tracer.record({
        "name": f"task:{op}:shard{shard_i}",
        "id": next(tracer._ids),
        "parent": stack[-1].id if stack else None,
        "start_us": (end - seconds - tracer.started_at) * 1e6,
        "duration_us": seconds * 1e6,
        "tid": handle.proc.pid,
        "thread": f"repro-pworker-{handle.slot}",
        "args": {"epoch": ctx.epoch_id, "shard": shard_i,
                 "worker": handle.slot},
    })


def _stage_tasks(message: bytes) -> list:
    """Decode the task list of a retained stage message."""
    return pickle.loads(message)[5]


def _stage_task_args(message: bytes, shard_i: int):
    """Decode one shard's encoded args from a retained stage message."""
    for candidate, args in _stage_tasks(message):
        if candidate == shard_i:
            return args
    raise KeyError(shard_i)
