"""Flight recorder: the last N epochs, durable at the moment of death.

The live metrics/tracing layer (PR 5) answers "how is the query doing
*now*" but keeps no history a crash can't destroy — exactly when an
operator needs it most (§2.3's monitoring challenge; the event-log /
postmortem design of Spark's own event logging).  Every engine's epoch
reporter (:class:`repro.streaming.progress.EpochReporter`) carries a
:class:`FlightRecorder`, which reads the reporter's one bounded ring of
recent epochs — each entry the epoch's ``events.jsonl`` line (watermark
positions, stage timings, bottleneck attribution) plus its metric
deltas while a registry is live — and keeps noteworthy one-off events
itself (engine start with its configuration, prior crashes).

When a query dies — ``StreamingQuery.exception`` fires, a fault-sweep
cell crashes the engine, or the user calls ``query.dump_postmortem()``
— the ring is serialized atomically as a self-contained
``postmortem.json`` in the checkpoint directory.  Existing dumps are
rotated (``postmortem-1.json`` .. ``postmortem-3.json``) so successive
crashes never overwrite each other; recovery picks prior dumps up and
records them in the new recorder's event stream.

The dump path deliberately bypasses :mod:`repro.storage` (and with it
every registered fault point): a postmortem written *because* of an
injected storage crash must not re-enter the crashing code, and a
failed dump must never mask the original exception — ``dump`` swallows
its own errors and returns ``None``.

Cost model: the recorder adds nothing per epoch — the ring entry is
the dict the reporter already serialized for ``events.jsonl``; span
summaries are computed only at dump time.  Nothing here touches
checkpoint bytes — ``postmortem.json`` lives outside the
``offsets``/``commits``/``state`` directories that recovery and the
checkpoint fingerprint read.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

from repro.observability import metrics, tracing

#: Postmortem document schema version (bump on breaking layout changes).
SCHEMA_VERSION = 1
#: One-off events retained (recovery notes, prior dumps, ...).
EVENT_CAPACITY = 128
#: Rotated prior dumps kept next to ``postmortem.json``.
MAX_ROTATED = 3


def postmortem_path(checkpoint_dir: str) -> str:
    """The canonical dump path for a checkpoint directory."""
    return os.path.join(checkpoint_dir, "postmortem.json")


def load_postmortem(path: str):
    """Parse a postmortem file (or a checkpoint dir's newest dump);
    returns the document dict, or None when absent/unreadable."""
    if os.path.isdir(path):
        path = postmortem_path(path)
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


class FlightRecorder:
    """Per-engine crash recorder with atomic, rotated dumps; ``epochs()``
    returns the epoch reporter's ring entries, oldest first."""

    def __init__(self, checkpoint_dir: str, engine: str, epochs,
                 clock=time.time):
        self.checkpoint_dir = checkpoint_dir
        self.engine = engine
        self.clock = clock
        self._epochs = epochs
        self._events = deque(maxlen=EVENT_CAPACITY)
        self._lock = threading.Lock()
        #: Error object of the last crash dump (identity-deduplicated so
        #: an exception surfaced at several boundaries dumps once).
        self._dumped_error = None
        self._last_path = None
        #: Prior dumps found at recovery time (paths), newest first.
        self.prior_postmortems = []

    # ------------------------------------------------------------------
    # Recording (once per incident)
    # ------------------------------------------------------------------
    def note(self, kind: str, **info) -> None:
        """Record a one-off lifecycle event."""
        event = {"ts": self.clock(), "kind": kind}
        event.update(info)
        with self._lock:
            self._events.append(event)

    def adopt_prior_dumps(self) -> list:
        """Pick up dumps a previous incarnation left in the checkpoint
        (called during recovery); they stay on disk until rotation."""
        found = []
        base = postmortem_path(self.checkpoint_dir)
        candidates = [base] + [
            os.path.join(self.checkpoint_dir, f"postmortem-{k}.json")
            for k in range(1, MAX_ROTATED + 1)
        ]
        for path in candidates:
            doc = load_postmortem(path)
            if doc is not None:
                found.append(path)
                self.note("prior-postmortem", path=os.path.basename(path),
                          reason=doc.get("reason"),
                          crash=doc.get("crash"))
        self.prior_postmortems = found
        return found

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------
    def to_json(self, reason: str, error=None, epoch=None) -> dict:
        """The self-contained postmortem document."""
        epochs = self._epochs()
        with self._lock:
            events = list(self._events)
        crash = None
        if error is not None or epoch is not None:
            crash = {
                "epoch": epoch,
                "error": str(error) if error is not None else None,
                "type": type(error).__name__ if error is not None else None,
            }
        return {
            "version": SCHEMA_VERSION,
            "reason": reason,
            "dumped_at": self.clock(),
            "engine": self.engine,
            "checkpoint_dir": self.checkpoint_dir,
            "crash": crash,
            "epochs": epochs,
            "events": events,
            "metrics": metrics.snapshot(),
            "spans": self._span_summaries(epochs),
            "prior_postmortems": [os.path.basename(p)
                                  for p in self.prior_postmortems],
        }

    def dump(self, reason: str, error=None, epoch=None,
             force: bool = False):
        """Atomically write ``postmortem.json``; returns its path.

        Identity-deduplicated on ``error`` unless ``force``: the same
        exception surfacing at run_epoch, stop(), and the query loop
        produces one dump.  Never raises — a broken disk during the
        postmortem must not mask the crash being recorded.
        """
        if (not force and error is not None
                and error is self._dumped_error):
            return self._last_path
        try:
            document = self.to_json(reason, error=error, epoch=epoch)
            os.makedirs(self.checkpoint_dir, exist_ok=True)
            self._rotate()
            path = postmortem_path(self.checkpoint_dir)
            tmp = path + ".tmp"
            # Direct write + os.replace on purpose: repro.storage's
            # atomic_write carries fault points that must not fire
            # while reporting a fault.
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(document, f)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except Exception:
            return None
        if error is not None:
            self._dumped_error = error
        self._last_path = path
        return path

    def _rotate(self) -> None:
        """Shift ``postmortem.json`` -> ``postmortem-1.json`` -> ... so
        a new dump never erases a predecessor (up to MAX_ROTATED)."""
        base = postmortem_path(self.checkpoint_dir)
        if not os.path.exists(base):
            return
        stem = os.path.join(self.checkpoint_dir, "postmortem-%d.json")
        for k in range(MAX_ROTATED - 1, 0, -1):
            if os.path.exists(stem % k):
                os.replace(stem % k, stem % (k + 1))
        os.replace(base, stem % 1)

    # ------------------------------------------------------------------
    def _span_summaries(self, epochs: list) -> dict:
        """Per-epoch span rollups for epochs still in the ring.

        Child spans don't carry an ``epoch`` attribute — they nest under
        one that does (the ``epoch`` span, or a ``task:*`` span) — so
        each buffered span's epoch is resolved by walking its parent
        chain.  Dump-time only: one pass over the tracer's ring.
        """
        tracer = tracing.active()
        if tracer is None:
            return {}
        wanted = {entry.get("epoch") for entry in epochs}
        wanted.discard(None)
        if not wanted:
            return {}
        spans = tracer.spans
        by_id = {span["id"]: span for span in spans}
        resolved = {}

        def epoch_of(span):
            span_id = span["id"]
            if span_id in resolved:
                return resolved[span_id]
            chain = []
            current = span
            epoch = None
            while current is not None:
                if current["id"] in resolved:
                    epoch = resolved[current["id"]]
                    break
                chain.append(current["id"])
                epoch = (current.get("args") or {}).get("epoch")
                if epoch is not None:
                    break
                current = by_id.get(current.get("parent"))
            for span_id in chain:
                resolved[span_id] = epoch
            return epoch

        summaries = {}
        for span in spans:
            epoch = epoch_of(span)
            if epoch not in wanted:
                continue
            per_epoch = summaries.setdefault(str(epoch), {})
            slot = per_epoch.setdefault(
                span["name"], {"count": 0, "total_us": 0.0})
            slot["count"] += 1
            slot["total_us"] += span["duration_us"]
        return summaries
