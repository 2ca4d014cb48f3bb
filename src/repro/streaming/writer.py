"""DataStreamWriter: configure and start a streaming query.

The builder mirrors the paper's example (§4.1)::

    query = (counts.write_stream
             .format("file").option("path", "/counts")
             .output_mode("complete")
             .start("/checkpoints/counts"))

Formats: ``memory`` (queryable in-memory table, registered as a temp
view under ``query_name``), ``file`` (transactional file table),
``kafka`` (bus topic), ``console``, ``foreach``, or a custom
:class:`~repro.sinks.base.Sink` via :meth:`DataStreamWriter.sink`.
"""

from __future__ import annotations

import tempfile

from repro.sql.expressions import AnalysisError
from repro.streaming.config import REMOVED_KNOBS, EngineConfig
from repro.streaming.query import StreamingQuery
from repro.streaming.triggers import (
    AvailableNowTrigger,
    ContinuousTrigger,
    ManualTrigger,
    OnceTrigger,
    ProcessingTimeTrigger,
)


class DataStreamWriter:
    """Builder for starting a streaming query on a DataFrame."""

    def __init__(self, df):
        self._df = df
        self._format = "memory"
        self._options = {}
        self._mode = "append"
        self._trigger = ManualTrigger()
        self._name = None
        self._sink = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def format(self, fmt: str) -> "DataStreamWriter":  # noqa: A003
        """Choose the sink format."""
        self._format = fmt
        return self

    def sink(self, sink) -> "DataStreamWriter":
        """Use a pre-built Sink instance."""
        self._sink = sink
        return self

    def option(self, key: str, value) -> "DataStreamWriter":
        """Set a sink option (``path``, ``broker``, ``topic``...) or an
        engine knob (a field of :class:`~repro.streaming.config.EngineConfig`)."""
        self._options[key] = value
        return self

    def output_mode(self, mode: str) -> "DataStreamWriter":
        """``append`` (default), ``update`` or ``complete`` (§4.2)."""
        self._mode = mode
        return self

    def query_name(self, name: str) -> "DataStreamWriter":
        """Name the query; memory sinks register a temp view under it."""
        self._name = name
        return self

    def trigger(self, interval=None, once: bool = False,
                available_now: bool = False, continuous=None,
                manual: bool = False) -> "DataStreamWriter":
        """Choose the trigger (§4): a processing-time interval, run-once,
        available-now, manual (synchronous driving, the default), or
        continuous processing (§6.3)."""
        chosen = [interval is not None, once, available_now,
                  continuous is not None, manual]
        if sum(chosen) != 1:
            raise ValueError("specify exactly one trigger kind")
        if once:
            self._trigger = OnceTrigger()
        elif available_now:
            self._trigger = AvailableNowTrigger()
        elif continuous is not None:
            self._trigger = ContinuousTrigger(continuous)
        elif manual:
            self._trigger = ManualTrigger()
        else:
            self._trigger = ProcessingTimeTrigger(interval)
        return self

    def to_table(self, name: str) -> "DataStreamWriter":
        """Publish the query's output to a named stream table.

        Another query can read it back with
        ``session.read_stream_table(name)``, forming an incrementally
        maintained cascade; in ``retract`` mode the table carries the
        upstream's Z-set deltas (``__weight__`` column) downstream.
        """
        self._format = "stream_table"
        self._options["table_name"] = name
        return self

    def foreach(self, fn) -> "DataStreamWriter":
        """Shortcut for the foreach sink: ``fn(epoch_id, rows, mode)``."""
        from repro.sinks.foreach import ForeachSink

        self._format = "foreach"
        self._sink = ForeachSink(fn)
        return self

    def foreach_batch(self, fn) -> "DataStreamWriter":
        """Each epoch's output as a batch DataFrame: ``fn(df, epoch_id)``."""
        from repro.sinks.foreach import ForeachBatchSink

        self._format = "foreach_batch"
        self._sink = ForeachBatchSink(fn, self._df._session)
        return self

    # ------------------------------------------------------------------
    # Start
    # ------------------------------------------------------------------
    def _build_sink(self):
        if self._sink is not None:
            return self._sink
        if self._format == "memory":
            from repro.sinks.memory import MemorySink

            return MemorySink()
        if self._format == "console":
            from repro.sinks.console import ConsoleSink

            return ConsoleSink()
        if self._format == "file":
            from repro.sinks.file import TransactionalFileSink

            path = self._options.get("path")
            if not path:
                raise AnalysisError("file sink requires option('path', ...)")
            return TransactionalFileSink(
                path, writer_id=self._name or "streaming-query")
        if self._format == "stream_table":
            from repro.streaming.stream_table import StreamTable

            table_name = self._options.get("table_name") or self._name
            if not table_name:
                raise AnalysisError("to_table sink requires a table name")
            tables = self._df._session.stream_tables
            table = tables.get(table_name)
            if table is None:
                table = StreamTable(table_name)
                tables[table_name] = table
            return table
        if self._format == "kafka":
            from repro.sinks.kafka import KafkaSink

            broker = self._options.get("broker")
            topic = self._options.get("topic")
            if broker is None or topic is None:
                raise AnalysisError("kafka sink requires broker and topic options")
            return KafkaSink(
                broker, topic,
                query_id=self._name or "anonymous",
                partition_key=self._options.get("partition_key"),
            )
        raise AnalysisError(f"unknown sink format {self._format!r}")

    def start(self, checkpoint_dir: str = None, use_thread: bool = None) -> StreamingQuery:
        """Start the query; returns its :class:`StreamingQuery` handle.

        ``checkpoint_dir`` holds the WAL and state store; restarting with
        the same directory resumes from where the query left off (§7.1).
        Without one, a temp directory is used (no cross-run recovery).
        ``use_thread=False`` builds a synchronous query you drive with
        ``run_epoch()`` / ``process_all_available()`` — the default for
        the run-once trigger.
        """
        # Every engine knob is resolved here, once, for either engine
        # and before anything is created: option > REPRO_* > default,
        # and a removed knob is refused.  Continuous mode then uses none
        # of them — it stays pinned to its single-partition fast path.
        for name, (_variable, message) in REMOVED_KNOBS.items():
            if name in self._options:
                raise ValueError(f"option {name!r}: {message}")
        config = EngineConfig.resolve(self._options)
        if checkpoint_dir is None:
            checkpoint_dir = tempfile.mkdtemp(prefix="repro-checkpoint-")
        sink = self._build_sink()

        if isinstance(self._trigger, ContinuousTrigger):
            from repro.streaming.continuous import ContinuousEngine

            engine = ContinuousEngine(
                self._df.plan, sink, self._mode, checkpoint_dir,
                epoch_interval=self._trigger.epoch_interval,
                latency_column=self._options.get("latency_column"),
            )
            query = StreamingQuery(engine, self._trigger, self._name, use_thread=False)
            engine.start()
            self._register_view(sink)
            self._df._session.streams.register(query)
            return query

        from repro.streaming.microbatch import MicrobatchEngine

        engine = MicrobatchEngine(
            self._df.plan, sink, self._mode, checkpoint_dir, config)
        from repro.streaming.stream_table import StreamTable

        if isinstance(sink, StreamTable):
            # The table's row schema is the query's output schema —
            # weighted when the query emits retraction deltas.
            sink.bind_schema(engine.plan.root.output_schema, self._mode)
        if use_thread is None:
            # Only interval triggers need a driver thread; once /
            # available-now / manual triggers run synchronously.
            use_thread = isinstance(self._trigger, ProcessingTimeTrigger)
        query = StreamingQuery(engine, self._trigger, self._name, use_thread=use_thread)
        if not use_thread:
            if isinstance(self._trigger, OnceTrigger):
                engine.run_epoch()
            elif isinstance(self._trigger, AvailableNowTrigger):
                engine.run_available()
        self._register_view(sink)
        self._df._session.streams.register(query)
        return query

    def _register_view(self, sink) -> None:
        """Memory sinks become queryable temp views (§3: interactive
        queries on consistent snapshots of stream output)."""
        from repro.sinks.memory import MemorySink

        if not isinstance(sink, MemorySink) or not self._name:
            return
        session = self._df._session
        schema = self._df.schema
        if self._mode == "retract":
            # The sink's rows() are the live table: weight already applied.
            from repro.streaming.zset import data_schema

            schema = data_schema(schema)

        class _LiveProvider:
            def read_batches(self):
                from repro.sql.batch import RecordBatch

                return [RecordBatch.from_rows(sink.rows(), schema)]

        from repro.sql import logical as L
        from repro.sql.dataframe import DataFrame

        scan = L.Scan(schema, _LiveProvider(), False, name=f"memory:{self._name}")
        session.catalog[self._name] = DataFrame(scan, session)
