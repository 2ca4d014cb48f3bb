"""The five workloads: how each is set up, driven, timed and checked.

Every rate and count is a constant of its class.  Work is fixed, not
time: a run performs a set number of blocks of a set size, so two runs
with the same seed do the same thing and differ only in how long it
took.  ``BLOCKS_PER_SECOND`` was calibrated once on the 2-core host so
that ``--seconds 20`` gives 15-18 s of timed work (a whole run, set-up
and output check included, then stays near 20 s, and the driver's 114
runs inside its 3420 s); it scales the number of blocks, never their
size.

Closed-loop workloads publish an epoch's input and call ``run_epoch()``
themselves; open-loop workloads run a generator thread on a fixed
schedule against a query with its own driver thread.
"""

from __future__ import annotations

import gc
import os
import shutil
import threading
import time

import numpy as np

import inputs
from estimators import (
    Block,
    due_latency_ms,
    due_times,
    late_ticks,
    lateness_ms,
    schedule_lateness_ms,
)
from repro import Broker, Session
from repro.sinks.base import Sink
from repro.sinks.file import TransactionalFileSink
from repro.sinks.memory import MemorySink
from repro.sources.cdc import ChangeStream
from repro.sql import functions as F
from repro.sql.batch import RecordBatch
from repro.testing import faults
from repro.workloads.yahoo import (
    YAHOO_EVENT_SCHEMA,
    YahooWorkload,
    structured_streaming_query,
)

#: Every third block of a traced run is an untraced control block; the
#: ratio of the two kinds' CPU per record is ``trace.overhead_ratio``.
CONTROL_EVERY = 3
#: Source chunks older than this many epochs are trimmed from the bus,
#: so its chunk scans stay stationary; the margin keeps what a restart
#: may still have to replay (one epoch when state commits inline, more
#: when the pipelined engine's flusher lags).
TRIM_LAG_EPOCHS = {"closed": 4, "open": 64}
RESTART_CYCLES = 12
CRASH_TIMEOUT_S = 30.0


def is_control(block: int) -> bool:
    return block % CONTROL_EVERY == CONTROL_EVERY - 1


# ----------------------------------------------------------------------
# Harness-side sinks and listeners
# ----------------------------------------------------------------------
class _Stamped:
    """Sink mix-in: notes when each epoch's ``add_batch`` returned, and
    every delivery, so a replayed epoch arriving twice is noticed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.returned = {}
        self.deliveries = []

    def add_batch(self, epoch_id, batch, mode):
        super().add_batch(epoch_id, batch, mode)
        self.returned.setdefault(epoch_id, time.perf_counter())
        self.deliveries.append(epoch_id)


class StampedMemorySink(_Stamped, MemorySink):
    pass


class StampedFileSink(_Stamped, TransactionalFileSink):
    """Also accepts retract-mode deltas: written as append files that
    carry their ``__weight__`` column, netted by the reader."""

    supported_modes = ("append", "complete", "retract")


class ProbeSink(Sink):
    """Continuous-mode sink: per ``append_rows`` call, the first and
    last tick stamp it carried, its row count and value checksum, and
    when it returned.  Rows themselves are dropped, so the run's heap —
    and with it the cost of a full GC pass — does not grow."""

    supported_modes = ("append",)

    def __init__(self):
        self.key_names = []
        self.calls = []

    def append_rows(self, rows):
        self.calls.append((
            rows[0]["publish_time"], rows[-1]["publish_time"], len(rows),
            sum(row["doubled"] for row in rows), time.perf_counter()))


#: The classes whose ``add_batch`` / ``append_rows`` a traced run wraps.
SINK_CLASSES = (_Stamped, ProbeSink)


class EpochLog:
    """Progress listener: one entry per epoch, and bus retention."""

    def __init__(self, trim=None, lag: int = 0):
        self.entries = []
        self._trim = trim
        self._lag = lag

    def on_progress(self, progress) -> None:
        self.entries.append({
            "epoch": progress.epoch_id,
            # Records consumed so far, all sources and partitions.
            "end": sum(sum(rng["end"].values())
                       for rng in progress.sources.values()),
            "duration_s": progress.duration_seconds,
            "backlog_rows": progress.backlog_rows,
            "state_keys": progress.state_keys,
            "late_rows_dropped": progress.late_rows_dropped,
        })
        if self._trim is not None and len(self.entries) > self._lag:
            self._trim(self.entries[-1 - self._lag])


# ----------------------------------------------------------------------
# Base
# ----------------------------------------------------------------------
class Workload:
    """Life cycle: ``setup`` (timed as set-up, warm-up included) →
    ``measure`` → ``close_window`` and ``restart_cycles`` (traced runs)
    → ``mismatches`` → ``teardown``."""

    name = ""
    loop = ""
    BLOCKS_PER_SECOND = 1.0

    def __init__(self, seed: int, blocks: int, workdir: str, tracer=None):
        self.seed = seed
        self.blocks = blocks
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        #: Failed operations by reason.
        self.failures = {}
        self.gen_late_ms_p99 = 0.0
        self.restart_ms = []
        #: Per block of a traced run: were spans recorded (True) or was
        #: it an untraced control block (False)?
        self.block_traced = []
        self.query = None

    def _trace(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.enabled = on

    def _published(self, fn, *args, rows=None):
        """Call a bus publish method, as a ``bus.publish`` span if traced."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call("bus.publish", fn, args, rows=rows)

    def engine_options(self) -> dict:
        engine = self.query.engine
        store = getattr(engine, "state_store", None)
        return {
            "engine": type(engine).__name__,
            "pipelined": getattr(engine, "pipelined", False),
            "num_shards": getattr(engine, "num_shards", 1),
            "executor": "inline" if getattr(engine, "scheduler", None) is None
            else "scheduler",
            "state_backend": getattr(store, "backend", None),
        }

    def close_window(self) -> None:
        """Mark where the timed window's spans and fsyncs end; what a
        traced run records after this belongs to the restart cycles."""
        self.window_spans = len(self.tracer.spans)
        self.window_fsyncs = self.tracer.fsyncs

    def restart_cycles(self) -> None:
        """Crash→restart cycles (microbatch workloads only)."""

    def check_listeners(self) -> None:
        """The engine swallows a raising progress listener; the harness
        depends on its own, so a swallowed error invalidates the run."""
        if self.query.engine.progress.listener_errors:
            raise RuntimeError("a harness progress listener raised")

    def teardown(self) -> None:
        if self.query is not None:
            self.query.stop()
            self.query = None
        shutil.rmtree(self.workdir, ignore_errors=True)


class MicrobatchWorkload(Workload):
    """Shared by the four microbatch workloads: query start, crash
    injection, restart timing."""

    MODE = "update"
    OPTIONS = {}
    THREADED = False

    def _start_query(self):
        writer = self.df.write_stream.sink(self.sink).output_mode(self.MODE)
        for key, value in self.OPTIONS.items():
            writer = writer.option(key, value)
        if self.THREADED:
            writer = writer.trigger(interval=0)
        query = writer.start(os.path.join(self.workdir, "checkpoint"))
        query.add_listener(self.log)
        return query

    def _crash_next_epoch(self) -> None:
        """Feed one more unit of input and let the engine die on it,
        after processing and before the sink write."""
        raise NotImplementedError

    def restart_cycles(self) -> None:
        """Time ``start(same_checkpoint)`` after a crash: state restore
        plus the replay of the epoch that never committed.  Runs after
        the timed window so the ledger's layer times stay undisturbed."""
        self._trace(True)
        for _ in range(RESTART_CYCLES):
            faults.install(faults.FaultInjector(
                [faults.Fault("epoch.after_process")]))
            try:
                self._crash_next_epoch()
            except faults.CrashPoint:
                pass
            else:
                raise RuntimeError("the injected crash did not fire")
            finally:
                faults.uninstall()
            self.query.stop()
            started = time.perf_counter()
            self.query = self._start_query()
            self.restart_ms.append((time.perf_counter() - started) * 1000.0)
        self._trace(False)
        self.query.process_all_available()
        deliveries = self.sink.deliveries
        if len(deliveries) != len(set(deliveries)):
            raise RuntimeError("a replayed epoch reached the sink twice")


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
class ClosedLoopWorkload(MicrobatchWorkload):
    """One client: publish an epoch's input, run the epoch, repeat."""

    loop = "closed"
    WARMUP_EPOCHS = 0
    EPOCHS_PER_BLOCK = 0

    def _publish_epoch(self) -> int:
        """Publish the next epoch's input; returns its record count."""
        raise NotImplementedError

    def _step(self):
        published_at = time.perf_counter()
        records = self._publish_epoch()
        started = time.perf_counter()
        progress = self.query.run_epoch()
        wall = time.perf_counter() - started
        if progress is None or progress.input_rows != records:
            raise RuntimeError(f"epoch did not consume its {records} records")
        latency = self.sink.returned[progress.epoch_id] - published_at
        return records, wall, latency * 1000.0

    def _warm_up(self) -> None:
        for _ in range(self.WARMUP_EPOCHS):
            self._step()
        gc.collect()

    def measure(self) -> list:
        blocks = []
        for index in range(self.blocks):
            traced = self.tracer is not None and not is_control(index)
            self._trace(traced)
            self.block_traced.append(traced)
            block = Block()
            cpu = time.process_time()
            for _ in range(self.EPOCHS_PER_BLOCK):
                self.attempted += 1
                records, wall, latency = self._step()
                block.records += records
                block.wall_s += wall
                block.latencies_ms.append(latency)
            block.cpu_s = time.process_time() - cpu
            blocks.append(block)
        self._trace(False)
        return blocks

    def _crash_next_epoch(self) -> None:
        self._publish_epoch()
        self.query.run_epoch()


class YahooDrain(ClosedLoopWorkload):
    name = "yahoo_drain"
    BLOCKS_PER_SECOND = 1.25
    WARMUP_EPOCHS = 20
    EPOCHS_PER_BLOCK = 20
    EVENTS = 200_000
    PARTITIONS = 4
    #: Event time moves 2.5 s per epoch and a segment spans 4.5 s, so
    #: consecutive epochs overlap by 2 s: out of order, never late.
    ADVANCE_S = 2.5
    SPREAD_S = 4.5

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        generator = YahooWorkload(seed=self.seed)
        segment = inputs.yahoo_segment(
            rng, self.EVENTS, generator.num_ads, self.SPREAD_S)
        self.reference = inputs.YahooReference(
            [segment], generator.ads_per_campaign, generator.num_campaigns)
        self._shards = [
            {name: column[i::self.PARTITIONS] for name, column in segment.items()}
            for i in range(self.PARTITIONS)
        ]
        broker = Broker()
        self.topic = broker.create_topic("events", self.PARTITIONS)
        self.df = structured_streaming_query(
            Session(), broker, "events", generator)
        self.sink = StampedMemorySink()
        self.log = EpochLog(self._trim, TRIM_LAG_EPOCHS["closed"])
        self._epoch = 0
        self.query = self._start_query()
        self._warm_up()

    def _trim(self, entry) -> None:
        before = entry["end"] // self.PARTITIONS
        for partition in self.topic.partitions:
            partition.trim(before)

    def _publish_epoch(self) -> int:
        shift = self.ADVANCE_S * self._epoch
        for index, shard in enumerate(self._shards):
            batch = RecordBatch(inputs.restamp(shard, shift), YAHOO_EVENT_SCHEMA)
            self._published(self.topic.publish_batch_to,
                            index, batch, rows=batch.num_rows)
        self._epoch += 1
        return self.EVENTS

    def mismatches(self) -> int:
        for epoch in range(self._epoch):
            self.reference.add(0, self.ADVANCE_S * epoch)
        late = sum(e["late_rows_dropped"] for e in self.log.entries)
        return late + count_mismatches(
            inputs.yahoo_sink_counts(self.sink.rows()), self.reference.counts())


class CdcJoinAgg(ClosedLoopWorkload):
    name = "cdc_join_agg"
    MODE = "retract"
    BLOCKS_PER_SECOND = 0.7
    #: 1 customer load + 3 order loads + 6 change epochs: the timed
    #: window starts on a snapshot epoch and every block holds one.
    LOAD_CHUNKS = 3
    WARMUP_EPOCHS = 6
    EPOCHS_PER_BLOCK = 10
    CUSTOMERS = 20_000
    REGIONS = 500
    ORDERS = 30_000
    INSERTS = 100
    UPDATES = 100
    MOVES = 4

    def setup(self) -> None:
        epochs = (self.WARMUP_EPOCHS + self.blocks * self.EPOCHS_PER_BLOCK
                  + (RESTART_CYCLES if self.tracer is not None else 0))
        self.script = inputs.CdcScript(
            self.seed, self.CUSTOMERS, self.REGIONS, self.ORDERS, epochs,
            self.INSERTS, self.UPDATES, self.MOVES)
        self.streams = {
            "orders": ChangeStream((("order_id", "long"), ("cust", "long"),
                                    ("amount", "long"))),
            "customers": ChangeStream((("cust", "long"), ("region", "long"))),
        }
        session = Session()
        self.df = (
            session.read_stream.cdc(self.streams["orders"])
            .join(session.read_stream.cdc(self.streams["customers"]), on="cust")
            .group_by("region")
            .agg(F.sum("amount").alias("total"), F.count().alias("n"))
        )
        self.sink = StampedFileSink(
            os.path.join(self.workdir, "table"), writer_id="bench")
        self.log = EpochLog()
        self._epoch = 0
        self.query = self._start_query()
        self.streams["customers"].insert(self.script.load["customers"])
        self.query.run_epoch()
        orders = self.script.load["orders"]
        chunk = len(orders) // self.LOAD_CHUNKS
        for i in range(self.LOAD_CHUNKS):
            self.streams["orders"].insert(orders[i * chunk:(i + 1) * chunk])
            self.query.run_epoch()
        self._warm_up()

    def _publish_epoch(self) -> int:
        changes = self.script.epochs[self._epoch]
        self._epoch += 1
        for name, stream in self.streams.items():
            for op, *rows in changes[name]:
                self._published(getattr(stream, op), *rows,
                                rows=sum(len(r) for r in rows))
        return self.script.records_per_epoch

    def mismatches(self) -> int:
        if self._epoch != len(self.script.epochs):
            raise RuntimeError("the change script was not published in full")
        return count_mismatches(
            inputs.cdc_sink_table(self.sink.read_rows()),
            self.script.reference())


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
class OpenLoopWorkload(Workload):
    """A generator thread publishes one tick of input every
    ``TICK_S`` on a fixed schedule, whatever the engine is doing; the
    query runs on the engine's own thread(s).  Latency counts from the
    moment a tick was due."""

    loop = "open"
    TICK_S = 0.01
    TICK_RECORDS = 0
    WARMUP_TICKS = 100
    #: Ticks published at once before the schedule starts (they count
    #: as warm-up).  The first epoch is cold — lazy imports, plan caches
    #: — and the backlog it would build on the schedule set the peak RSS
    #: at random.
    PRIME_TICKS = 1
    BLOCK_S = 1.5
    #: 12 blocks of 1.5 s in a 20 s budget.
    BLOCKS_PER_SECOND = 0.6
    #: The rate is sustained if no more ticks than this are unfinished
    #: one second after the last one was due.  A rate the engine cannot
    #: hold leaves seconds of backlog after an 18 s window; one second
    #: lets a transient stall (a slow fsync on the shared disk) in the
    #: window's last moments be caught up without failing the run.
    BACKLOG_TICKS = 2
    SUSTAIN_GRACE_S = 1.0

    @property
    def ticks_per_block(self) -> int:
        return round(self.BLOCK_S / self.TICK_S)

    def _publish_tick(self, tick: int) -> None:
        raise NotImplementedError

    def _completions(self, ticks: int) -> np.ndarray:
        """When each tick's result left the sink (NaN = not yet)."""
        raise NotImplementedError

    def _start_generator(self) -> None:
        """Begin the schedule; returns once warm-up has been published."""
        self._timed_ticks = self.blocks * self.ticks_per_block
        total = self.WARMUP_TICKS + self._timed_ticks
        self.due = np.empty(total + 1)
        self.sent = np.full(total, np.nan)
        prime = self.PRIME_TICKS
        self.due[:prime] = self.sent[:prime] = time.perf_counter()
        for tick in range(prime):
            self._publish_tick(tick)
        self._published_ticks = prime
        self._drain()
        gc.collect()
        self.due[prime:] = due_times(
            time.perf_counter() + 0.05, self.TICK_S, total + 1 - prime)
        #: (wall, cpu) at each block boundary, taken by the generator.
        self._stamps = []
        self._generator_error = None
        self._generator = threading.Thread(
            target=self._generate, name="bench-generator", daemon=True)
        self._warm = threading.Event()
        self._generator.start()
        self._warm.wait()

    def _wait_until(self, due: float) -> None:
        while True:
            remaining = due - time.perf_counter()
            if remaining <= 0:
                return
            time.sleep(remaining)

    def _generate(self) -> None:
        try:
            total = len(self.sent)
            for tick in range(self.PRIME_TICKS, total + 1):
                self._wait_until(self.due[tick])
                timed = tick - self.WARMUP_TICKS
                if timed == 0:
                    self._warm.set()
                if timed >= 0 and timed % self.ticks_per_block == 0:
                    block = timed // self.ticks_per_block
                    traced = (self.tracer is not None and block < self.blocks
                              and not is_control(block))
                    self._trace(traced)
                    self._stamps.append(
                        (time.perf_counter(), time.process_time()))
                    if block < self.blocks:
                        self.block_traced.append(traced)
                if tick < total:
                    self._publish_tick(tick)
                    self.sent[tick] = time.perf_counter()
                    self._published_ticks = tick + 1
        except BaseException as exc:  # re-raised on the main thread
            self._generator_error = exc
        finally:
            self._warm.set()

    def measure(self) -> list:
        self._generator.join()
        if self._generator_error is not None:
            raise self._generator_error
        judged_at = self.due[-1] + self.SUSTAIN_GRACE_S
        first = self.WARMUP_TICKS
        late = np.split(lateness_ms(self.due[first:-1], self.sent[first:]),
                        self.blocks)
        self.gen_late_ms_p99 = schedule_lateness_ms(late)
        # A schedule the generator did not keep is not the offered load.
        self.failures["late_ticks"] = late_ticks(late, self.TICK_S * 1000.0)
        self._drain()
        completed = self._completions(len(self.sent))
        self.attempted = self._timed_ticks
        unfinished = int(np.sum(~(completed[first:] <= judged_at)))
        if unfinished > self.BACKLOG_TICKS:
            self.failures["unsustained_ticks"] = unfinished
        blocks = []
        per_block = self.ticks_per_block
        for index in range(self.blocks):
            lo = first + index * per_block
            (start, cpu0), (end, cpu1) = self._stamps[index:index + 2]
            # NaN (never completed) compares false on both sides.
            finished = int(np.sum((completed >= start) & (completed < end)))
            blocks.append(Block(
                records=finished * self.TICK_RECORDS,
                wall_s=end - start,
                cpu_s=cpu1 - cpu0,
                latencies_ms=due_latency_ms(
                    self.due[lo:lo + per_block],
                    completed[lo:lo + per_block]).tolist(),
            ))
        return blocks

    def _drain(self) -> None:
        raise NotImplementedError


class YahooOpenLoop(OpenLoopWorkload, MicrobatchWorkload):
    """The Yahoo query at a fixed 500 000 records/s: one 10 000-event
    segment every 20 ms into a 1-partition topic.  A 10k-record epoch
    takes 6-9 ms on the 2-core host depending on its mood, so the engine
    is 30-45 % busy: far enough from saturation that latency tracks
    epoch time instead of queueing (at 10 ms ticks a 35 % slower host
    tripled the p50)."""

    THREADED = True
    TICK_S = 0.02
    WARMUP_TICKS = 50
    TICK_RECORDS = 10_000
    #: Epochs are capped at five ticks, as a deployment bounds its
    #: memory with maxOffsetsPerTrigger: a stall is then caught up in
    #: several epochs instead of one whose size — and with it the
    #: process's peak RSS — depends on how long the stall was.
    EPOCH_CAP_TICKS = 5
    OPTIONS = {"max_records_per_epoch": EPOCH_CAP_TICKS * TICK_RECORDS}
    #: The priming epoch is a full-size one, so the largest epoch the
    #: run can see has already been paid for in memory before it starts.
    PRIME_TICKS = EPOCH_CAP_TICKS
    SEGMENTS = 8
    #: Same event-time density as ``yahoo_drain`` (2.5 s per 200k).
    ADVANCE_S = 0.125
    SPREAD_S = 2.125

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        generator = YahooWorkload(seed=self.seed)
        self._segments = [
            inputs.yahoo_segment(rng, self.TICK_RECORDS, generator.num_ads,
                                 self.SPREAD_S)
            for _ in range(self.SEGMENTS)
        ]
        self.reference = inputs.YahooReference(
            self._segments, generator.ads_per_campaign, generator.num_campaigns)
        broker = Broker()
        self.topic = broker.create_topic("events", 1)
        self.df = structured_streaming_query(
            Session(), broker, "events", generator)
        self.sink = StampedMemorySink()
        self.log = EpochLog(
            lambda entry: self.topic.partitions[0].trim(entry["end"]),
            TRIM_LAG_EPOCHS["open"])
        self.query = self._start_query()
        self._start_generator()

    def _publish_tick(self, tick: int) -> None:
        batch = RecordBatch(
            inputs.restamp(self._segments[tick % self.SEGMENTS],
                           self.ADVANCE_S * tick),
            YAHOO_EVENT_SCHEMA)
        self._published(self.topic.publish_batch_to, 0, batch,
                        rows=batch.num_rows)

    def _completions(self, ticks: int) -> np.ndarray:
        completed = np.full(ticks, np.nan)
        done = 0
        for entry in self.log.entries:
            upto = entry["end"] // self.TICK_RECORDS
            completed[done:upto] = self.sink.returned[entry["epoch"]]
            done = upto
        return completed

    def _drain(self) -> None:
        self.query.process_all_available()

    def _crash_next_epoch(self) -> None:
        self._publish_tick(self._published_ticks)
        self._published_ticks += 1
        self.query.await_termination(CRASH_TIMEOUT_S)

    def mismatches(self) -> int:
        for tick in range(self._published_ticks):
            self.reference.add(tick % self.SEGMENTS, self.ADVANCE_S * tick)
        late = sum(e["late_rows_dropped"] for e in self.log.entries)
        return late + count_mismatches(
            inputs.yahoo_sink_counts(self.sink.rows()), self.reference.counts())


class YahooOpenLoopSeq(YahooOpenLoop):
    name = "yahoo_openloop_seq"


class YahooOpenLoopPipelined(YahooOpenLoop):
    name = "yahoo_openloop_pipelined"
    OPTIONS = dict(YahooOpenLoop.OPTIONS, pipeline="on")


class ContinuousOpenLoop(OpenLoopWorkload):
    name = "continuous_openloop"
    TICK_S = 0.005
    TICK_RECORDS = 100
    WARMUP_TICKS = 200
    SCHEMA = (("publish_time", "timestamp"), ("value", "long"))

    def setup(self) -> None:
        broker = Broker()
        self.topic = broker.create_topic("stream", 1)
        self.df = (
            Session().read_stream.kafka(broker, "stream", self.SCHEMA)
            .where(F.col("value") % inputs.MAP_DROP_EVERY != 0)
            .select("publish_time", (F.col("value") * 2).alias("doubled"))
        )
        self.sink = ProbeSink()
        self.log = EpochLog()
        self._consumed = [0]
        self.query = (self.df.write_stream.sink(self.sink)
                      .trigger(continuous="200ms")
                      .start(os.path.join(self.workdir, "checkpoint")))
        self.query.add_listener(self)
        self._start_generator()

    def on_progress(self, progress) -> None:
        """Epoch marker: log it, and trim the bus up to the marker
        before (one marker of margin for the engine's own replay)."""
        self.log.on_progress(progress)
        self.topic.partitions[0].trim(self._consumed[-1])
        self._consumed.append(self._consumed[-1] + progress.input_rows)

    def _publish_tick(self, tick: int) -> None:
        due = float(self.due[tick])
        first = tick * self.TICK_RECORDS
        rows = [{"publish_time": due, "value": first + i}
                for i in range(self.TICK_RECORDS)]
        self._published(self.topic.publish_to, 0, rows,
                        rows=len(rows))

    def _completions(self, ticks: int) -> np.ndarray:
        # Rows arrive in order, so a call carries every tick between its
        # first and last stamp; a tick split over two calls completes
        # with the later one (assignment order).
        completed = np.full(ticks, np.nan)
        for first, last, _rows, _checksum, returned in self.sink.calls:
            lo, hi = np.searchsorted(self.due, (first, last))
            completed[lo:hi + 1] = returned
        return completed

    def _drain(self) -> None:
        self.query.engine.run_available()

    def mismatches(self) -> int:
        want = inputs.map_reference(self._published_ticks * self.TICK_RECORDS)
        got = (sum(call[2] for call in self.sink.calls),
               sum(call[3] for call in self.sink.calls))
        return int(got != want)


def count_mismatches(got: dict, want: dict) -> int:
    """Keys on which the sink's table and the reference disagree."""
    return sum(1 for key in got.keys() | want.keys()
               if got.get(key) != want.get(key))


WORKLOADS = {cls.name: cls for cls in (
    YahooDrain, CdcJoinAgg, YahooOpenLoopSeq, YahooOpenLoopPipelined,
    ContinuousOpenLoop,
)}
