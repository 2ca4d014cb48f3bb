"""Incremental physical operators (§5.2, §6.1).

The incrementalizer maps a static logical plan to a tree of these
operators.  Each epoch, ``process(ctx)`` consumes the epoch's *delta*
from its children and returns this operator's delta — time proportional
to new data, never to the whole stream.  Stateful operators keep their
state in :class:`~repro.streaming.state.OperatorStateHandle` so the
engine can checkpoint and restore it transparently to user code.

Internally each operator has an output behaviour (append-like deltas vs
updates vs complete results) tracked by the engine — the intra-DAG modes
the paper says users never specify by hand (§5.2).
"""

from __future__ import annotations

import functools
import time
from operator import itemgetter

import numpy as np

from repro import observability
from repro.observability import metrics, tracing
from repro.sql import logical as L
from repro.sql import plancompiler
from repro.sql.batch import RecordBatch
from repro.sql.grouping import PartialTable, encode_groups, shared_nan
from repro.sql.joins import (
    UniqueKeyIndex,
    assemble_join_output,
    hash_join,
    join_indices,
)
from repro.sql.physical import aggregate_result_batch, execute
from repro.sql.types import StructType
from repro.streaming.state import encode_key
from repro.streaming.stateful import GroupState, normalize_func_output
from repro.streaming.zset import (
    WEIGHT_COLUMN,
    attach_weights,
    split_by_sign,
    thread_weights,
    weighted_schema,
)


class EpochContext:
    """Everything an operator may read while processing one epoch."""

    def __init__(self, epoch_id: int, inputs: dict, watermarks,
                 processing_time: float, output_mode: str,
                 output_enabled: bool = True, is_first_epoch: bool = False):
        self.epoch_id = epoch_id
        #: source name -> RecordBatch of this epoch's new records.
        self.inputs = inputs
        #: WatermarkTracker frozen at epoch start (observe() still records).
        self.watermarks = watermarks
        self.processing_time = processing_time
        self.output_mode = output_mode
        #: False while replaying epochs purely to rebuild state (§6.1).
        self.output_enabled = output_enabled
        self.is_first_epoch = is_first_epoch
        #: Filled by operators for progress reporting (§7.4).
        self.metrics = {"rows_processed": 0, "late_rows_dropped": 0}
        #: Operator label -> {"rows_out", "seconds", "calls"}, filled by
        #: the instrumented process wrappers when observability is on.
        self.op_metrics = {}

    def narrowed(self, source_name: str, part: RecordBatch) -> "EpochContext":
        """This context with one source's input replaced by ``part`` (one
        part of its chunked read); watermarks, metrics and op_metrics
        stay shared, so repeated calls add up as one epoch's."""
        ctx = object.__new__(EpochContext)
        ctx.__dict__.update(self.__dict__)
        ctx.inputs = {**self.inputs, source_name: part}
        return ctx


def apply_kernel(ctx: EpochContext, result, states) -> list:
    """Commit a keyed kernel's deferred writes; returns its ``out`` list.

    A keyed kernel is *pure*: it reads pre-epoch state only and returns
    ``(writes, out, late_rows)``, ``writes`` holding one ``(puts,
    removes)`` pair per handle in ``states`` in the shape
    :meth:`~repro.streaming.state.OperatorStateHandle.apply` takes (keys
    encoded once, by the kernel) and ``out`` a list.
    """
    writes, out, late_rows = result
    for state, (puts, removes) in zip(states, writes):
        state.apply(puts, removes)
    ctx.metrics["late_rows_dropped"] += late_rows
    return out


def _instrumented_process(fn, label: str):
    """Wrap an operator's ``process`` with a ``stage:<Op>`` span and
    per-epoch rows/seconds bookkeeping (§7.4).

    Disabled observability costs one extra call frame + one branch per
    operator per epoch (process runs once per operator per epoch, never
    per row).  Enabled, the recorded seconds are *inclusive* of child
    operators — matching the nested-span semantics of the trace view.
    """
    span_name = f"stage:{label}"
    rows_metric = f"op.{label}.rows_out"

    @functools.wraps(fn)
    def process(self, ctx):
        if not observability.active():
            return fn(self, ctx)
        started = time.perf_counter()
        with tracing.trace_span(span_name, epoch=ctx.epoch_id):
            out = fn(self, ctx)
        seconds = time.perf_counter() - started
        rows = out.num_rows if out is not None else 0
        metrics.count(rows_metric, rows)
        entry = ctx.op_metrics.get(label)
        if entry is None:
            ctx.op_metrics[label] = {
                "rows_out": rows, "seconds": seconds, "calls": 1,
            }
        else:
            entry["rows_out"] += rows
            entry["seconds"] += seconds
            entry["calls"] += 1
        return out

    process._instrumented = True
    return process


class IncrementalOp:
    """Base class for incremental operators."""

    #: Output schema of this operator's deltas.
    output_schema: StructType = None
    #: True when the operator keeps cross-epoch state.
    stateful = False

    def __init_subclass__(cls, **kwargs):
        """Every subclass that defines ``process`` gets it wrapped with
        stage-span tracing and rows-out metrics — one choke point for
        the whole operator zoo, on or off with the observability layer."""
        super().__init_subclass__(**kwargs)
        fn = cls.__dict__.get("process")
        if fn is not None and not getattr(fn, "_instrumented", False):
            cls.process = _instrumented_process(fn, cls.__name__)

    def process(self, ctx: EpochContext) -> RecordBatch:
        """Consume this epoch's input deltas; return this op's delta."""
        raise NotImplementedError

    def has_pending_timeout(self, processing_time: float) -> bool:
        """True if the operator needs an epoch even without new data."""
        return False

    @property
    def row_local_scan(self):
        """The one stream scan this operator's output is a row-local
        function of, or None.  Row-local down to one scan (stages, the
        stream–static join, the watermark tracker): each input row's
        output rows depend on that row alone, so the operator may run
        once per part of the scan's chunked read and the outputs' union
        is the epoch's.  A union, a stateful operator or a second scan
        below makes it None."""
        return None

    def child_ops(self) -> list:
        """Child operators, for plan rendering and traversal."""
        found = []
        for attr in ("child", "left", "right", "stream", "static"):
            op = getattr(self, attr, None)
            if isinstance(op, IncrementalOp):
                found.append(op)
        return found

    def describe(self) -> str:
        """One-line description for ``explain``."""
        label = type(self).__name__
        if self.stateful:
            label += " [stateful]"
        return label

    def explain_string(self, indent: int = 0) -> str:
        """Readable tree rendering of the incremental plan (the physical
        operator DAG of §5.2, which users never write by hand)."""
        lines = ["  " * indent + ("+- " if indent else "") + self.describe()]
        for child in self.child_ops():
            lines.append(child.explain_string(indent + 1))
        return "\n".join(lines)

    def _empty(self) -> RecordBatch:
        return RecordBatch.empty(self.output_schema)


def make_placeholder(schema: StructType) -> L.Scan:
    """A scan node standing for "this operator's child output"; stateless
    operators execute their logical node against it via the batch
    executor with an override."""
    return L.Scan(schema, None, False, name="<child>")


class StreamScanOp(IncrementalOp):
    """Leaf: yields the epoch's new records from one source."""

    def __init__(self, source_name: str, schema: StructType):
        self.source_name = source_name
        self.output_schema = schema

    def process(self, ctx: EpochContext) -> RecordBatch:
        batch = ctx.inputs.get(self.source_name)
        if batch is None:
            return self._empty()
        ctx.metrics["rows_processed"] += batch.num_rows
        return batch

    @property
    def row_local_scan(self):
        return self

    def describe(self) -> str:
        return f"StreamScan [{self.source_name}]"


class StaticOp(IncrementalOp):
    """Leaf: a batch (non-streaming) subplan, materialized once.

    Used for the static side of stream-static joins and unions: "compute
    a static table ... and join it with a stream" (§3).
    """

    def __init__(self, plan: L.LogicalPlan):
        self._plan = plan
        self.output_schema = plan.schema
        self._cached = None

    def materialize(self) -> RecordBatch:
        """The static relation (computed on first access)."""
        if self._cached is None:
            self._cached = execute(self._plan)
        return self._cached

    def process(self, ctx: EpochContext) -> RecordBatch:
        return self.materialize()


class StatelessOp(IncrementalOp):
    """A maximal chain of Project/Filter nodes, applied to each delta.

    These operators are trivially incremental — f(old ∪ new) =
    f(old) ∪ f(new) for per-row transformations.  The incrementalizer
    hands one ``StatelessOp`` the *whole* adjacent stateless chain, which
    is compiled here once at construction into a fused pipeline
    (:mod:`repro.sql.plancompiler`, §5.3); each epoch then runs only the
    compiled kernels over the delta, with no plan walk or expression
    compilation.  Being row-local, the pipeline runs once per part of a
    chunked source read.  Under a grouped aggregate whose child is
    row-local down to the scan (this stage, the stream–static join, the
    watermark tracker), the aggregate calls it once per part and folds
    each part into per-group partials, so nothing is concatenated (float
    ``sum``/``avg`` then add per-part totals, which can differ from one
    pass in the last place).  Otherwise, as the scan's first consumer,
    it concatenates only its survivors.  Every other consumer of a read
    (a stream–stream join, a dedup, a union, an aggregate over any of
    these) reads ``columns``, which concatenates the read first.
    """

    def __init__(self, node: L.LogicalPlan, child: IncrementalOp):
        self._placeholder = make_placeholder(child.output_schema)
        self._node = self._graft(node)
        if WEIGHT_COLUMN in child.output_schema:
            # The physical child may carry a weight column the logical
            # chain does not know about (e.g. projections above a
            # retract-mode aggregate): re-thread it so the multiplicity
            # survives this stateless segment too.
            self._node = thread_weights(self._node)
        self.output_schema = self._node.schema
        self.child = child
        self._compiled = plancompiler.compile_plan(self._node)

    def _graft(self, node: L.LogicalPlan) -> L.LogicalPlan:
        """Rebuild the stateless chain with the placeholder scan at its
        bottom (the operator's child boundary)."""
        if isinstance(node, (L.Project, L.Filter)) and \
                isinstance(node.child, (L.Project, L.Filter)):
            return node.with_children((self._graft(node.child),))
        return node.with_children((self._placeholder,))

    def apply(self, batch: RecordBatch) -> RecordBatch:
        """Run the compiled chain on one delta batch, part by part."""
        compiled, key = self._compiled, id(self._placeholder)
        return RecordBatch.concat(
            [compiled({key: part}) for part in batch.chunks()],
            self.output_schema)

    @property
    def row_local_scan(self):
        return self.child.row_local_scan

    def process(self, ctx: EpochContext) -> RecordBatch:
        batch = self.child.process(ctx)
        if batch.num_rows == 0:
            return self._empty()
        return self.apply(batch)


class WatermarkTrackOp(IncrementalOp):
    """Observes event-time maxima for a watermarked column (§4.3.1).

    Pass-through for data; the engine advances the watermark from the
    observed maxima after the epoch completes, so new values take effect
    next epoch (matching Spark's semantics).
    """

    def __init__(self, column: str, child: IncrementalOp):
        self.column = column
        self.child = child
        self.output_schema = child.output_schema

    @property
    def row_local_scan(self):
        return self.child.row_local_scan

    def process(self, ctx: EpochContext) -> RecordBatch:
        batch = self.child.process(ctx)
        ctx.watermarks.observe_values(self.column, batch.columns[self.column])
        return batch


class UnionOp(IncrementalOp):
    """Union of two inputs; a static side is emitted once, in epoch 0."""

    def __init__(self, left: IncrementalOp, right: IncrementalOp,
                 left_static: bool, right_static: bool, schema: StructType):
        self.left = left
        self.right = right
        self._left_static = left_static
        self._right_static = right_static
        self.output_schema = schema

    def _side(self, op: IncrementalOp, static: bool, ctx: EpochContext) -> RecordBatch:
        if static and not ctx.is_first_epoch:
            return RecordBatch.empty(op.output_schema)
        return op.process(ctx)

    def process(self, ctx: EpochContext) -> RecordBatch:
        left = self._side(self.left, self._left_static, ctx)
        right = self._side(self.right, self._right_static, ctx)
        right = right.select(left.schema.names)
        return RecordBatch.concat([left, right], self.output_schema)


class StreamStaticJoinOp(IncrementalOp):
    """Join between a stream delta and a static relation (§3, §5.2).

    The static side is materialized — and, when its join key is unique,
    indexed — once, at construction; each epoch joins only the new stream
    rows against it, so cost is proportional to the delta.
    """

    def __init__(self, node: L.Join, stream: IncrementalOp, static: StaticOp,
                 stream_is_left: bool):
        self._node = node
        self.stream = stream
        self.static = static
        self.stream_is_left = stream_is_left
        self.output_schema = node.schema
        #: None: duplicate, object or NaN static keys take the hash path.
        self._index = UniqueKeyIndex.build(static.materialize(), node.on)
        self._indexed = "right" if stream_is_left else "left"

    @property
    def row_local_scan(self):
        # Analysis admits an outer join only with the stream side kept, so
        # each output row comes from one stream row.
        return self.stream.row_local_scan

    def join_delta(self, delta: RecordBatch) -> RecordBatch:
        """Join one stream delta against the static side: a lookup of
        each delta key in the static index and a masked gather."""
        if delta.num_rows == 0:
            return self._empty()
        static_batch = self.static.materialize()
        if self.stream_is_left:
            left, right = delta, static_batch
        else:
            left, right = static_batch, delta
        on, how = self._node.on, self._node.how
        indices = None
        if self._index is not None:
            indices = self._index.join(delta.columns[on[0]], how, self._indexed)
        if indices is None:
            indices = hash_join(left, right, on, how)
        return assemble_join_output(
            left, right, on, how, self.output_schema, *indices)

    def process(self, ctx: EpochContext) -> RecordBatch:
        delta = self.stream.process(ctx)
        return self.join_delta(delta)


def _by_group_key(items: list) -> list:
    """``(group_key, ...)`` tuples in key value order, nulls last per
    column.  A raw tuple sort raises on ``None`` vs a value, so it only
    serves (several times faster) when no key holds a null."""
    if any(None in item[0] for item in items):
        return sorted(
            items, key=lambda item: tuple((v is None, v) for v in item[0]))
    return sorted(items, key=itemgetter(0))


class StatefulAggregateOp(IncrementalOp):
    """Incrementally maintained grouped aggregation (§5.2, Figure 4).

    Per-key aggregate buffers live in the state store.  Each epoch the
    new data's per-group vectorized partials are merged into the buffers;
    what is emitted depends on the query's output mode:

    * ``complete`` — the whole result table;
    * ``update`` — only keys whose buffers changed this epoch;
    * ``append`` — nothing until the watermark passes a key's event-time
      bound, at which point the key is emitted once and evicted;
    * ``retract`` (weighted input) — the change as a Z-set: a changed
      group's previous result row with weight -1 and its new one with
      weight +1, either half absent at group birth/death.

    With a watermark, rows later than the bound are dropped and finalized
    keys evicted in update mode too, keeping state bounded (§4.3.1).

    The fold is a partial aggregate per input part merged once into the
    state store (§5.2, §6.1): over a chunked read, and a child that is
    row-local down to its scan, each part is run through the child,
    grouped and reduced to per-group partials that merge into one epoch
    table (:class:`~repro.sql.grouping.PartialTable`) before the next
    part is read.  State is then read and written once per key.

    One fold serves both delta models (§4.2 generalized, DBSP): +1 rows
    *merge* their partials into a group's buffers, -1 rows *retract*
    theirs, and append-only input is the all-ones Z-set — a single +1
    part, no weight column read.  Only the stored value differs:
    append-only groups never lose rows and store bare ``buffers``;
    weighted groups store ``[live, buffers]``, the live-row count telling
    an empty group (removed) from one whose buffers sum to zero.
    """

    stateful = True

    def __init__(self, node: L.Aggregate, child: IncrementalOp, state_handle,
                 watermark_column: str = None, output_mode: str = None):
        self._node = node
        self.child = child
        self.state = state_handle
        #: Weighted (Z-set) input carries explicit +1/-1 row weights.
        self.weighted = WEIGHT_COLUMN in child.output_schema
        self.output_schema = (
            weighted_schema(node.schema)
            if self.weighted and output_mode == "retract" else node.schema
        )
        #: Which watermark gates emission/eviction for this aggregate:
        #: the window's time column, or a directly watermarked group key.
        #: None over weighted input: a retraction may arrive arbitrarily
        #: late, so nothing is dropped as late and nothing is evicted.
        self.watermark_column = None if self.weighted else watermark_column
        self._window = node.window
        #: Group-key pipeline compiled once; per epoch only kernels run.
        self._grouping = plancompiler.compile_grouping(node)
        #: The scan whose chunked read the fold takes part by part.
        self._part_scan = child.row_local_scan
        #: A null (NaN) double key must be one group across rows and
        #: parts, as it is one state key.
        self._key_fn = shared_nan if any(
            g.data_type(node.child.schema).numpy_dtype == np.float64
            for g in node.plain_grouping) else None
        #: Index of the watermarked plain grouping key (non-window case).
        self._key_time_index = None
        if self.watermark_column is not None and self._window is None:
            for i, g in enumerate(node.plain_grouping):
                if g.references() == {watermark_column}:
                    self._key_time_index = i
                    break
        if self.watermark_column is not None:
            # Expiry-indexed state: advancing the watermark pops only
            # finalized keys instead of scanning the whole store.
            self.state.set_expiry(lambda key, _value: self._key_expiry(key))

    # -- event-time bound of a key ------------------------------------
    def _key_expiry(self, key_tuple):
        """Event time at which a key becomes final (None if unbounded)."""
        if self._window is not None:
            return key_tuple[-1] + self._window.duration  # window end
        if self._key_time_index is not None:
            return key_tuple[self._key_time_index]
        return None

    def _unpack(self, value) -> tuple:
        """``(live_rows, buffers)`` of a stored value (``live_rows`` is
        None for append-only input, which stores bare buffers)."""
        if value is None:
            return 0, None
        return value if self.weighted else (None, value)

    def process(self, ctx: EpochContext) -> RecordBatch:
        watermark = (
            ctx.watermarks.current(self.watermark_column)
            if self.watermark_column is not None else None
        )
        changes = self._fold(ctx, watermark)
        if ctx.output_mode == "complete":
            # Canonical (encoded-key) order: the dict backend iterates in
            # insertion order, the tiered one in key order.
            keys, buffers = [], []
            for key, value in sorted(
                    self.state.items(), key=lambda kv: encode_key(kv[0])):
                keys.append(key)
                buffers.append(self._unpack(value)[1])
            return aggregate_result_batch(self._node, keys, buffers)
        if self.weighted:
            return self._retract_delta(changes)
        # append: emit exactly the keys the watermark has finalized.
        emit = self._evict_finalized(watermark)
        if ctx.output_mode == "update":
            # Changed keys with their new buffers.  None was just evicted:
            # eviction and the fold's late drop share one bound, so a
            # group the watermark finalized never folded this epoch.
            emit = [(key, new) for key, _old, new in _by_group_key(changes)]
        return aggregate_result_batch(
            self._node, [k for k, _ in emit], [b for _, b in emit]
        )

    def _retract_delta(self, changes: list) -> RecordBatch:
        """The epoch's changes as a Z-set: canonical key order, -1 old
        row before +1 new row, unchanged result rows suppressed."""
        changes.sort(key=lambda c: encode_key(c[0]))
        keys, buffers, weights = [], [], []
        for key, old_buffers, new_buffers in changes:
            if old_buffers is not None and old_buffers == new_buffers:
                continue  # result row unchanged: no visible delta
            for sign, side in ((-1, old_buffers), (1, new_buffers)):
                if side is not None:
                    keys.append(key)
                    buffers.append(side)
                    weights.append(sign)
        if not keys:
            return self._empty()
        result = aggregate_result_batch(self._node, keys, buffers)
        return attach_weights(result, weights)

    def _child_parts(self, ctx: EpochContext):
        """The epoch's child output, one batch per part of a chunked read
        when the child is row-local down to that read's scan (each part
        driven through the child's ``process`` under a narrowed context),
        else the one whole-epoch batch."""
        scan = self._part_scan
        read = ctx.inputs.get(scan.source_name) if scan is not None else None
        if read is None or len(read.chunks()) < 2:
            yield self.child.process(ctx)
            return
        for part in read.chunks():
            yield self.child.process(ctx.narrowed(scan.source_name, part))

    def _fold(self, ctx: EpochContext, watermark) -> list:
        """Fold the epoch's delta into state; returns the per-key changes
        ``(key, old_buffers_or_None, new_buffers_or_None)``; the child's
        output is read part by part (:meth:`_child_parts`)."""
        return apply_kernel(
            ctx, self._fold_delta(self._child_parts(ctx), watermark),
            [self.state])

    def _fold_delta(self, delta, watermark) -> tuple:
        """Pure keyed kernel: fold a delta's Z-set into state.

        ``delta`` is a batch or an iterable of batches, the epoch's parts,
        read one at a time.  Each part (each signed half of it, for
        weighted input) is grouped and reduced to per-group partials,
        which merge into one epoch table before the next part is read;
        groups the watermark has finalized are then dropped from the
        table, their rows counted as late.  Per key, the epoch partials
        merge into the pre-epoch buffers.  Returns ``(writes, changes,
        late)``.
        """
        aggs = self._node.aggregates
        table = PartialTable(
            [fn for fn, _ in aggs],
            count_rows=self.weighted or watermark is not None,
            key_fn=self._key_fn)
        parts = delta.chunks() if isinstance(delta, RecordBatch) else delta
        for part in parts:
            self._add_part(table, part)
            del part  # drop this part's rows before the next is read
        if not len(table):
            return [([], [])], [], 0
        keys, late_rows = table.keys, 0
        groups = range(len(keys))
        if watermark is not None:
            late = np.fromiter(
                ((expiry := self._key_expiry(key)) is not None
                 and expiry <= watermark for key in keys),
                dtype=bool, count=len(keys))
            if late.any():
                late_rows = int(table.counts()[late].sum())
                groups = np.flatnonzero(~late).tolist()
                keys = [keys[g] for g in groups]
        # Each group's partials, one per aggregate.
        partials = list(zip(*table.buffers()))
        counts = table.counts().tolist() if self.weighted else None
        encoded = [encode_key(key) for key in keys]
        merges = [fn.merge for fn, _ in aggs]
        puts, removes, changes = [], [], []
        for g, key, enc, stored in zip(
                groups, keys, encoded,
                self.state.get_many(encoded)):
            live, old_buffers = self._unpack(stored)
            buffers = [
                merge(buffer, partial) for merge, buffer, partial in zip(
                    merges, old_buffers if old_buffers is not None
                    else [fn.init() for fn, _ in aggs], partials[g])
            ]
            value = buffers
            if self.weighted:
                live += counts[g]
                if live < 0:
                    raise ValueError(
                        f"retraction of a row never added: group {key!r} "
                        f"multiplicity would become {live}"
                    )
                value = [live, buffers] if live else None
            if value is not None:
                puts.append((enc, key, value))
            elif stored is not None:
                removes.append((enc, key))
            changes.append(
                (key, old_buffers, buffers if value is not None else None))
        return [(puts, removes)], changes, late_rows

    def _add_part(self, table: PartialTable, batch: RecordBatch) -> None:
        """Group one part of the delta and merge its partials into the
        epoch table (a weighted part as its +1 and -1 halves)."""
        if batch.num_rows == 0:
            return
        halves = (zip((1, -1), split_by_sign(batch)) if self.weighted
                  else ((1, batch),))
        for sign, half in halves:
            if half.num_rows:
                expanded, codes, uniques = self._grouping(half)
                table.add(expanded, codes, uniques, sign)

    def _evict_finalized(self, watermark) -> list:
        """Remove keys the watermark finalized; returns (key, buffers).

        Uses the state handle's expiry index: cost is proportional to the
        number of finalized keys, not the total key count."""
        if watermark is None:
            return []
        finalized = self.state.pop_expired(watermark)
        for key, _buffers in finalized:
            self.state.remove(key)
        return _by_group_key(finalized)


class StreamingDedupOp(IncrementalOp):
    """Streaming DISTINCT: emit a row the first time its key is seen.

    State holds every seen key; when the dedup subset contains a
    watermarked event-time column, keys older than the watermark are
    evicted (late duplicates would be dropped anyway).

    Over weighted (Z-set) input the op maintains the distinct table
    under retraction.  State per key is the multiset of live rows
    sharing the key, in the layout a weighted stream–stream join side
    keeps (:mod:`repro.streaming.join_state`: a row's weight field is
    its count), and the epoch runs as that module's bulk kernel
    (:func:`~repro.streaming.join_state.dedup`).  Its delta is the
    epoch's net change per key: ``-1`` old *representative* / ``+1``
    new one, the representative being what batch ``drop_duplicates``
    keeps (the earliest surviving occurrence).  A value codec keeps the
    checkpoint record ``[total, [[count, row], ...]]``.

    The two kernels stay separate on purpose: append-only input needs
    only a seen-marker per key and is vectorised (``encode_groups`` +
    ``np.unique``); weighted input needs the key's live-row multiset.
    One merged kernel would branch on its caller at every step.
    """

    stateful = True

    def __init__(self, node: L.Deduplicate, child: IncrementalOp, state_handle,
                 watermark_column: str = None):
        self._node = node
        self.child = child
        self.state = state_handle
        self.output_schema = node.schema
        self.weighted = WEIGHT_COLUMN in child.output_schema
        #: Weighted dedup never drops late rows or evicts: a late
        #: retraction must still find the key's multiplicity.
        self.watermark_column = (
            watermark_column
            if watermark_column in node.subset and not self.weighted else None
        )
        self._time_index = (
            node.subset.index(self.watermark_column)
            if self.watermark_column is not None else None
        )
        if self.watermark_column is not None:
            # State values are the key's event time: expiry == value.
            self.state.set_expiry(lambda _key, value: value)
        if self.weighted:
            # Imported here: only a weighted dedup or a stream–stream
            # join compiles it.
            from repro.streaming import join_state

            #: The weighted epoch's pure keyed kernel.
            self._kernel = join_state.dedup
            self._layout = join_state.side_layout(
                child.output_schema, False,
                child.output_schema.names.index(WEIGHT_COLUMN))
            self.state.set_codec(*join_state.multiset_codec(self._layout))

    def process(self, ctx: EpochContext) -> RecordBatch:
        batch = self.child.process(ctx)
        if batch.num_rows == 0:
            return self._empty()
        if self.weighted:
            emits = apply_kernel(ctx, self._kernel(self, batch), [self.state])
            return emits[0] if emits else self._empty()
        watermark = (
            ctx.watermarks.current(self.watermark_column)
            if self.watermark_column is not None else None
        )
        emits = apply_kernel(ctx, self._dedup_first_seen(batch, watermark),
                             [self.state])
        if watermark is not None:
            for key, _value in self.state.pop_expired(watermark):
                self.state.remove(key)
        if not emits:
            return self._empty()
        return batch.take(np.asarray(emits, dtype=np.int64))

    def _dedup_first_seen(self, batch: RecordBatch, watermark) -> tuple:
        """Pure keyed kernel: first-seen rows of the epoch's delta.

        Returns ``(writes, emits, late_rows)`` with emits as the kept
        rows' positions in the delta, ascending.
        """
        codes, uniques = encode_groups(
            [batch.columns[n] for n in self._node.subset]
        )
        # First occurrence of each dense code, vectorized: codes are
        # 0..G-1 with every code present, so np.unique's return_index
        # gives the first row position per code.
        _, first_pos = np.unique(codes, return_index=True)
        live_codes = np.arange(len(uniques))
        late_rows = 0
        if watermark is not None:
            key_times = np.asarray(
                [uniques[g][self._time_index] for g in range(len(uniques))],
                dtype=np.float64,
            )
            late = key_times <= watermark
            if late.any():
                # Every occurrence of a late key is a dropped row (§7.4).
                counts = np.bincount(codes, minlength=len(uniques))
                late_rows = int(counts[late].sum())
                live_codes = live_codes[~late]
        puts = []
        emits = []
        live_codes = live_codes.tolist()
        keys = [uniques[g] for g in live_codes]
        encoded = [encode_key(key) for key in keys]
        seen = self.state.get_many(encoded)
        for g, key, enc, marker in zip(live_codes, keys, encoded, seen):
            if marker is None:
                puts.append((enc, key, (
                    key[self._time_index] if self._time_index is not None else 1
                )))
                emits.append(int(first_pos[g]))
        emits.sort()
        return [(puts, ())], emits, late_rows


class StreamStreamJoinOp(IncrementalOp):
    """Join between two streams (§5.2, §8.1's TCP ⋈ DHCP pattern).

    Both sides' rows are buffered in the state store.  Each epoch,
    new-left rows join buffered+new right rows and buffered left rows
    join new-right rows (so no pair is produced twice) — DBSP's
    ``Δa ⋈ (b + Δb) + a ⋈ Δb``, run as one bulk kernel over the whole
    epoch (:func:`repro.streaming.join_state.probe`): the delta's keys
    are probed once, and pairs, matched flags and the write-back are
    array programs, with no Python object per pair or per row.  A key
    holding a null or NaN matches nothing, so an inner join never
    buffers such rows; an outer join buffers them to emit at eviction.

    State bounding follows the paper's rule that "the join condition
    must involve a watermarked column": with a ``within`` time bound,
    rows older than their own side's watermark are dropped as late at
    the input, and a buffered row is evicted once the *other* side's
    watermark passes its time plus the allowed skew — at which point it
    is provably unmatchable, so outer joins can emit it null-padded;
    eviction masks the popped keys' rows as one row array
    (:func:`repro.streaming.join_state.evict`).  Without a bound (inner
    joins only), no state is ever evicted, as in Spark.

    Over a weighted (retraction) side the buffered state is the
    *integral* of that side's input Z-set (DBSP): entries are
    consolidated by row identity as they are written back, weights add,
    and a row whose weights sum to zero no longer exists — so state
    tracks the live rows, not the change history.

    A side's state value for a key is immutable, like the integral it
    stands for: the key's buffered rows in the keyed-multiset layout it
    shares with weighted dedup (:mod:`repro.streaming.join_state`) —
    packed bytes when every column is fixed-width, else one flat tuple
    — whose value codec keeps the checkpoint records in their nested
    ``[[row, matched], ...]`` form.
    A packed side also hands the checkpoint writer those records' text
    in bulk, column by column, byte for byte what the encoder writes.
    """

    stateful = True

    def __init__(self, node: L.Join, left: IncrementalOp, right: IncrementalOp,
                 left_state, right_state):
        self._node = node
        self.left = left
        self.right = right
        self._left_state = left_state
        self._right_state = right_state
        self.within = node.within  # (left_time_col, right_time_col, skew)
        self.output_schema = node.schema
        self._inner = self._inner_schema()
        #: Weighted sides: a buffered row's weight rides along in its
        #: stored values; an output pair's weight is the *product* of
        #: the two sides' weights (Z-set bilinearity), so a -1 input row
        #: retracts every pair its +1 twin produced.  With both sides
        #: weighted the two weight columns fold into one output column.
        left_names = left.output_schema.names
        right_names = right.output_schema.names
        self._left_weight = (left_names.index(WEIGHT_COLUMN)
                             if WEIGHT_COLUMN in left_names else None)
        self._right_weight = (right_names.index(WEIGHT_COLUMN)
                              if WEIGHT_COLUMN in right_names else None)
        fold = self._left_weight is not None and self._right_weight is not None
        #: Right-side columns appended to a matched left row.
        self._rest_idx = [
            i for i, n in enumerate(right_names)
            if n not in node.on and not (fold and n == WEIGHT_COLUMN)
        ]
        #: ``(left_weight_idx, right_weight_idx, output_slot)`` — either
        #: index None for an unweighted side — or None for append-only.
        self._pair_weight = None
        if self._left_weight is not None:
            self._pair_weight = (self._left_weight, self._right_weight,
                                 self._left_weight)
        elif self._right_weight is not None:
            self._pair_weight = (
                None, self._right_weight,
                len(left_names) + self._rest_idx.index(self._right_weight))
        #: Matched flags only decide which evicted rows an *outer* join
        #: null-pads; an inner join never reads them, so it stores none.
        self._track_matched = node.how != "inner"
        # Imported here so that only a query with such a join compiles it.
        from repro.streaming.join_state import probe, side_layout

        #: The epoch's pure keyed kernel (probe, pairs and write-back):
        #: returns ``(writes, batches of matched pairs, 0)``.
        self._kernel = probe
        self._left_layout = side_layout(
            left.output_schema, self._track_matched, self._left_weight)
        self._right_layout = side_layout(
            right.output_schema, self._track_matched, self._right_weight)
        for state, layout in ((left_state, self._left_layout),
                              (right_state, self._right_layout)):
            state.set_codec(layout.to_disk, layout.from_disk, layout.schema)
            state.set_row_count(layout.stride)
        if self.within is not None:
            left_col, right_col, skew = self.within
            # A key's rows become evictable starting at min(row time) +
            # skew; re-puts refresh the index.
            self._left_state.set_expiry(self._left_layout.expiry(
                left_names.index(left_col), skew))
            self._right_state.set_expiry(self._right_layout.expiry(
                right_names.index(right_col), skew))

    def describe(self) -> str:
        """The join type, keys and each side's state layout."""
        return (f"{super().describe()} {self._node.how} on "
                f"[{', '.join(self._node.on)}] left: "
                f"{self._left_layout.describe()}, right: "
                f"{self._right_layout.describe()}")

    def _drop_late_input(self, batch: RecordBatch, time_col: str,
                         watermark, ctx: EpochContext) -> RecordBatch:
        """Drop input rows at or below their side's watermark, and rows
        with a null or NaN event time whatever the watermark (both count
        as late): required for eviction to be sound.  An accepted row's
        time always exceeds the watermark at acceptance; a row with no
        time is outside every time bound, and its key's expiry would be
        NaN, which never pops."""
        if batch.num_rows == 0:
            return batch
        times = np.asarray(batch.columns[time_col], dtype=np.float64)
        keep = ~np.isnan(times) if watermark is None else times > watermark
        if not keep.all():
            ctx.metrics["late_rows_dropped"] += int((~keep).sum())
            batch = batch.filter(keep)
        return batch

    def process(self, ctx: EpochContext) -> RecordBatch:
        new_left = self.left.process(ctx)
        new_right = self.right.process(ctx)

        if self.within is not None:
            left_col, right_col, skew = self.within
            new_left = self._drop_late_input(
                new_left, left_col, ctx.watermarks.current(left_col), ctx)
            new_right = self._drop_late_input(
                new_right, right_col, ctx.watermarks.current(right_col), ctx)
            lt_idx = self.left.output_schema.names.index(left_col)
            rt_idx = self.right.output_schema.names.index(right_col)
        else:
            lt_idx = rt_idx = skew = None

        out_parts = apply_kernel(
            ctx, self._kernel(self, new_left, new_right, lt_idx, rt_idx,
                              skew),
            [self._left_state, self._right_state])
        out_parts.extend(self._evict(ctx))
        if not out_parts:
            return self._empty()
        parts = [self._to_output_schema(p) for p in out_parts]
        return RecordBatch.concat(parts, self.output_schema)

    def _inner_schema(self) -> StructType:
        """Schema of matched pairs (no null padding yet)."""
        return L.Join(
            make_placeholder(self.left.output_schema),
            make_placeholder(self.right.output_schema),
            self._node.on, "inner",
        ).schema

    def _to_output_schema(self, batch: RecordBatch) -> RecordBatch:
        """Cast a partial result to the (possibly nullable-promoted)
        output schema of the outer join."""
        if batch.schema.names != self.output_schema.names:
            batch = batch.select(self.output_schema.names)
        columns = {}
        for field in self.output_schema:
            col = batch.columns[field.name]
            target = field.data_type.numpy_dtype
            if target is not object and col.dtype != object and col.dtype != target:
                col = col.astype(target)
            columns[field.name] = col
        return RecordBatch(columns, self.output_schema)

    def _evict(self, ctx: EpochContext) -> list:
        """Evict rows the time bound has made unmatchable; emit outer
        results for never-matched evicted rows.

        A buffered left row with time t can only match right rows with
        time in [t - skew, t + skew]; since late right input is dropped
        at the right watermark, the left row is final once
        ``right_watermark >= t + skew`` — and symmetrically.

        The expiry index pops exactly the keys holding at least one
        evictable entry (their earliest entry time + skew has passed), so
        the scan is proportional to evicted keys, not buffered state.
        """
        if self.within is None:
            return []
        from repro.streaming.join_state import evict

        left_col, right_col, skew = self.within
        parts = []
        for side, state, layout, schema, own_col, other_col in (
                ("left", self._left_state, self._left_layout,
                 self.left.output_schema, left_col, right_col),
                ("right", self._right_state, self._right_layout,
                 self.right.output_schema, right_col, left_col)):
            bound = ctx.watermarks.current(other_col)
            popped = [] if bound is None else state.pop_expired(bound)
            if not popped:
                continue
            keys, values = zip(*popped)
            kept, unmatched = evict(
                layout, values, schema.names.index(own_col), skew, bound)
            for key, value in zip(keys, kept):
                if value:
                    state.put(key, value)
                else:
                    state.remove(key)
            # Only an outer join emits, and it keeps flags.
            if self._node.how == f"{side}_outer" and len(unmatched):
                columns = {field.name: unmatched[f"f{i}"].astype(
                    field.data_type.numpy_dtype)
                    for i, field in enumerate(schema)}
                parts.append(self._null_padded(RecordBatch(columns, schema),
                                               side))
        return parts

    def _null_padded(self, batch: RecordBatch, side: str) -> RecordBatch:
        """Outer-join rows for evicted unmatched rows of one side."""
        how, on = f"{side}_outer", self._node.on
        other = RecordBatch.empty(
            (self.right if side == "left" else self.left).output_schema)
        pair = (batch, other) if side == "left" else (other, batch)
        return assemble_join_output(*pair, on, how, self.output_schema,
                                    *join_indices(*pair, on, how))


class MapGroupsWithStateOp(IncrementalOp):
    """Custom per-key stateful processing (§4.3.2, Figure 3).

    State entries: ``{"s": user_state, "t": timeout_timestamp}``.  Each
    epoch the update function runs once per key with new data; keys whose
    armed timeout expired (processing time passed it, or the event-time
    watermark passed it) and that received no data this epoch get a
    timed-out invocation with no rows.
    """

    stateful = True

    def __init__(self, node: L.MapGroupsWithState, child: IncrementalOp,
                 state_handle, watermark_column: str = None):
        self._node = node
        self.child = child
        self.state = state_handle
        self.output_schema = node.schema
        self.watermark_column = watermark_column
        if node.timeout != "none":
            # Index armed timeouts so expiry checks need no full scan.
            self.state.set_expiry(lambda _key, value: value.get("t"))

    def has_pending_timeout(self, processing_time: float) -> bool:
        if self._node.timeout != "processing_time":
            return False
        earliest = self.state.next_expiry()
        return earliest is not None and earliest <= processing_time

    def _watermark(self, ctx: EpochContext):
        if self.watermark_column is None:
            return None
        return ctx.watermarks.current(self.watermark_column)

    def process(self, ctx: EpochContext) -> RecordBatch:
        batch = self.child.process(ctx)
        watermark = self._watermark(ctx)
        out_rows = []
        processed_keys = set()

        if batch.num_rows:
            codes, uniques = encode_groups(
                [batch.columns[n] for n in self._node.key_columns]
            )
            rows = batch.to_rows()
            grouped = {}
            for code, row in zip(codes.tolist(), rows):
                grouped.setdefault(code, []).append(row)
            for code in sorted(grouped):
                key = uniques[code]
                processed_keys.add(key)
                out_rows.extend(self._invoke(
                    key, grouped[code], ctx, watermark, has_timed_out=False
                ))

        out_rows.extend(self._fire_timeouts(ctx, watermark, processed_keys))
        return RecordBatch.from_rows(out_rows, self.output_schema)

    def _invoke(self, key, rows, ctx: EpochContext, watermark, has_timed_out: bool) -> list:
        entry = self.state.get(key)
        state = GroupState(
            value=None if entry is None else entry.get("s"),
            exists=entry is not None,
            has_timed_out=has_timed_out,
            watermark=watermark,
            processing_time=ctx.processing_time,
            timeout_conf=self._node.timeout,
        )
        key_value = key[0] if len(self._node.key_columns) == 1 else key
        result = self._node.func(key_value, iter(rows), state)
        outcome = state._outcome()
        if outcome["removed"]:
            self.state.remove(key)
        elif outcome["updated"] or outcome["timeout_changed"]:
            timeout = outcome["timeout_timestamp"] if outcome["timeout_changed"] \
                else (entry.get("t") if entry else None)
            if outcome["updated"]:
                self.state.put(key, {"s": outcome["value"], "t": timeout})
            elif entry is not None:
                self.state.put(key, {"s": entry.get("s"), "t": timeout})
        return normalize_func_output(
            result, self._node.flat, self._node.key_columns, key
        )

    def _fire_timeouts(self, ctx: EpochContext, watermark, processed_keys: set) -> list:
        """Invoke the function with ``has_timed_out=True`` for expired keys."""
        timeout_conf = self._node.timeout
        if timeout_conf == "none":
            return []
        if timeout_conf == "processing_time":
            now = ctx.processing_time
        else:
            now = watermark
        if now is None:
            return []
        out_rows = []
        expired = sorted(self.state.pop_expired(now), key=lambda kv: str(kv[0]))
        for key, entry in expired:
            if key in processed_keys:
                # Saw data this epoch: fires next epoch (as the old full
                # scan would), so put the index entry back untouched.
                self.state.reindex(key)
                continue
            # Clear the timeout before invoking so the function can
            # re-arm or remove state explicitly.
            self.state.put(key, {"s": entry.get("s"), "t": None})
            out_rows.extend(self._invoke(
                key, [], ctx, watermark, has_timed_out=True
            ))
        return out_rows


class CompleteModePostOp(IncrementalOp):
    """Sort/Limit applied to a complete-mode result table (§5.2).

    Only valid in complete mode, where each epoch's emission *is* the
    whole result table; the node then applies like a batch operator.
    """

    def __init__(self, node: L.LogicalPlan, child: IncrementalOp):
        self._placeholder = make_placeholder(child.output_schema)
        self._node = node.with_children((self._placeholder,))
        self.output_schema = self._node.schema
        self.child = child
        self._compiled = plancompiler.compile_plan(self._node)

    def process(self, ctx: EpochContext) -> RecordBatch:
        batch = self.child.process(ctx)
        return self._compiled({id(self._placeholder): batch})
