"""Event-time watermark tracking (§4.3.1).

For a watermarked column C with delay t, the watermark is
``max(C) - t`` over all data seen so far; it only moves forward.  As the
paper notes, this is naturally robust to backlog: if the engine falls
behind, max(C) stops advancing and no state is dropped prematurely.

Following Spark's semantics, the watermark used while processing epoch N
is computed from data seen in epochs < N; the tracker therefore exposes
``current()`` (frozen at epoch start) separate from ``observe`` /
``advance``.  The tracker state is persisted in each epoch's WAL offsets
entry so recovery resumes with the same watermark.
"""

from __future__ import annotations

import math

import numpy as np


class WatermarkTracker:
    """Tracks per-column maxima and derived watermarks."""

    def __init__(self, delays: dict):
        # delays: column name -> lateness threshold in seconds.
        self._delays = dict(delays)
        self._max_seen = {}
        self._watermarks = {}

    @property
    def columns(self) -> list:
        """Watermarked column names."""
        return sorted(self._delays)

    def current(self, column: str):
        """The watermark for a column (None until any data was seen)."""
        return self._watermarks.get(column)

    def global_minimum(self):
        """The minimum watermark across all columns (None if any unset).

        Used by operators keyed on multiple event-time inputs (e.g.
        stream-stream joins): state is only safe to drop below the
        slowest stream's watermark.
        """
        if not self._delays:
            return None
        values = [self._watermarks.get(c) for c in self._delays]
        if any(v is None for v in values):
            return None
        return min(values)

    def observe(self, column: str, max_event_time: float) -> None:
        """Record the max event time seen for a column in this epoch.

        A non-finite time (NaN, ±inf) carries no event time and is
        ignored: an infinite maximum would make every later row late."""
        if column not in self._delays or not math.isfinite(max_event_time):
            return
        previous = self._max_seen.get(column)
        if previous is None or max_event_time > previous:
            self._max_seen[column] = max_event_time

    def observe_values(self, column: str, values) -> None:
        """Record the max of one epoch's event times for a column.

        Null (NaN) and infinite times carry no event time: the max is
        taken over the rest, and a column holding no finite time records
        nothing — a NaN maximum would compare false against every later
        one and freeze the watermark, an infinite one would make every
        later row late (an infinite time lands in no window either).
        """
        if not len(values):
            return
        latest = float(np.max(values))
        if not math.isfinite(latest):
            valid = values[np.isfinite(values)]
            if not len(valid):
                return
            latest = float(np.max(valid))
        self.observe(column, latest)

    def advance(self) -> None:
        """Move watermarks forward from the observed maxima (monotonic).

        Called once at the end of each epoch; the new values take effect
        for the *next* epoch.
        """
        for column, max_seen in self._max_seen.items():
            candidate = max_seen - self._delays[column]
            previous = self._watermarks.get(column)
            if previous is None or candidate > previous:
                self._watermarks[column] = candidate

    # ------------------------------------------------------------------
    # WAL (de)serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """State for the WAL offsets entry."""
        return {
            "max_seen": dict(self._max_seen),
            "watermarks": dict(self._watermarks),
        }

    def load_json(self, payload: dict) -> None:
        """Restore from a WAL offsets entry."""
        self._max_seen = dict(payload.get("max_seen", {}))
        self._watermarks = dict(payload.get("watermarks", {}))
