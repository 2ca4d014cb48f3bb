"""Seeded input generators and the reference results they imply.

Every input is a pure function of the seed.  Each generator also knows
the right answer for what it generated, computed here with numpy /
``Counter`` and never with the engine, so the harness can check the
sink's final table without trusting the code under test.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

WINDOW_SECONDS = 10.0
EVENT_TYPES = ("view", "click", "purchase")
AD_TYPES = ("banner", "modal", "sponsored-search", "mail", "mobile")


# ----------------------------------------------------------------------
# Yahoo ad events
# ----------------------------------------------------------------------
def yahoo_segment(rng, events: int, num_ads: int, time_spread: float) -> dict:
    """One columnar segment of ad events.  ``event_time`` is *unsorted*
    over ``[0, time_spread)``: re-stamped segments overlap in event time,
    so the stream is out of order but well inside the 10 s watermark."""
    return {
        "user_id": rng.integers(0, 10_000, events),
        "page_id": rng.integers(0, 1_000, events),
        "ad_id": rng.integers(0, num_ads, events),
        "ad_type": rng.choice(np.array(AD_TYPES, dtype=object), events),
        "event_type": rng.choice(np.array(EVENT_TYPES, dtype=object), events),
        "event_time": rng.uniform(0.0, time_spread, events),
    }


def restamp(segment: dict, shift: float) -> dict:
    """The segment with every event time moved ``shift`` seconds on;
    the other columns are shared, not copied."""
    columns = dict(segment)
    columns["event_time"] = segment["event_time"] + shift
    return columns


class YahooReference:
    """(campaign, window) -> view count over everything published."""

    def __init__(self, segments, ads_per_campaign: int, num_campaigns: int):
        self._num_campaigns = num_campaigns
        self._views = []
        for segment in segments:
            views = segment["event_type"] == "view"
            self._views.append((
                (segment["ad_id"][views] // ads_per_campaign).astype(np.int64),
                segment["event_time"][views],
            ))
        self._by_window = {}

    def add(self, segment_index: int, shift: float) -> None:
        """Account for one publication of ``restamp(segment, shift)``."""
        campaign, base_time = self._views[segment_index]
        # Same float expression as restamp(), so window edges agree bit
        # for bit with what the engine saw.
        window = np.floor((base_time + shift) / WINDOW_SECONDS).astype(np.int64)
        first = int(window.min())
        width = int(window.max()) - first + 1
        counts = np.bincount(
            campaign * width + (window - first),
            minlength=self._num_campaigns * width,
        ).reshape(self._num_campaigns, width)
        for offset in range(width):
            total = self._by_window.setdefault(
                first + offset, np.zeros(self._num_campaigns, dtype=np.int64))
            total += counts[:, offset]

    def counts(self) -> dict:
        """{(campaign_id, window_index): count}, zero counts left out."""
        return {
            (campaign, window): int(n)
            for window, per_campaign in self._by_window.items()
            for campaign, n in enumerate(per_campaign) if n
        }


def yahoo_sink_counts(rows) -> dict:
    """The sink's final table in the reference's shape."""
    return {
        (row["campaign_id"], int(round(row["window_start"] / WINDOW_SECONDS))):
        row["count"]
        for row in rows
    }


# ----------------------------------------------------------------------
# CDC orders x customers
# ----------------------------------------------------------------------
class CdcScript:
    """A deterministic change script for ``orders ⨝ customers``.

    ``load`` holds the initial inserts; ``epochs[i]`` is one epoch's
    changes as ``{"orders": [(op, rows...)], "customers": [...]}`` with
    ``op`` in insert / delete / update, each update a (old, new) pair of
    lists.  The live set stays the same size: every epoch inserts as
    many orders as it deletes.
    """

    def __init__(self, seed: int, customers: int, regions: int, orders: int,
                 epochs: int, inserts: int, updates: int, moves: int):
        rng = np.random.default_rng(seed)
        self._region = rng.integers(0, regions, customers).tolist()
        self._live = {}
        self._next_order = 0
        self._customers = customers
        self.load = {
            "customers": [{"cust": c, "region": r}
                          for c, r in enumerate(self._region)],
            "orders": [self._new_order(rng) for _ in range(orders)],
        }
        self.epochs = [
            self._epoch(rng, regions, inserts, updates, moves)
            for _ in range(epochs)
        ]
        #: Change records per epoch as the engine counts them: an update
        #: is a -1/+1 pair.
        self.records_per_epoch = 2 * inserts + 2 * updates + 2 * moves

    def _new_order(self, rng) -> dict:
        order = {
            "order_id": self._next_order,
            "cust": int(rng.integers(0, self._customers)),
            "amount": int(rng.integers(1, 1000)),
        }
        self._next_order += 1
        self._live[order["order_id"]] = order
        return order

    def _epoch(self, rng, regions, inserts, updates, moves) -> dict:
        ids = list(self._live)
        picked = rng.choice(len(ids), inserts + updates, replace=False)
        deleted = [self._live.pop(ids[i]) for i in picked[:inserts]]
        old, new = [], []
        for i in picked[inserts:]:
            before = self._live[ids[i]]
            after = dict(before, amount=int(rng.integers(1, 1000)))
            self._live[after["order_id"]] = after
            old.append(before)
            new.append(after)
        inserted = [self._new_order(rng) for _ in range(inserts)]
        moved_old, moved_new = [], []
        for cust in rng.choice(self._customers, moves, replace=False).tolist():
            moved_old.append({"cust": cust, "region": self._region[cust]})
            self._region[cust] = int(rng.integers(0, regions))
            moved_new.append({"cust": cust, "region": self._region[cust]})
        return {
            "orders": [("insert", inserted), ("delete", deleted),
                       ("update", old, new)],
            "customers": [("update", moved_old, moved_new)],
        }

    def reference(self) -> dict:
        """region -> (sum(amount), count) over the final live orders
        joined with the final customer regions."""
        total, count = Counter(), Counter()
        for order in self._live.values():
            region = self._region[order["cust"]]
            total[region] += order["amount"]
            count[region] += 1
        return {region: (total[region], count[region]) for region in count}


def net_by_weight(rows, weight_column: str = "__weight__") -> list:
    """Apply a retract-mode sink's Z-set rows: the rows whose net
    multiplicity is positive, once per surviving occurrence."""
    net = Counter()
    for row in rows:
        key = tuple(sorted((k, v) for k, v in row.items() if k != weight_column))
        net[key] += int(row.get(weight_column, 1))
    negative = [key for key, n in net.items() if n < 0]
    if negative:
        raise ValueError(f"negative multiplicity for {negative[:3]}")
    return [dict(key) for key, n in net.items() for _ in range(n)]


def cdc_sink_table(rows) -> dict:
    """The netted sink rows in the reference's shape."""
    return {row["region"]: (row["total"], row["n"]) for row in net_by_weight(rows)}


# ----------------------------------------------------------------------
# Map query (continuous engine)
# ----------------------------------------------------------------------
MAP_DROP_EVERY = 5


def map_reference(records: int) -> tuple:
    """(row count, checksum) of ``where(value % 5 != 0)
    .select(value * 2)`` over values ``0..records-1``."""
    values = np.arange(records, dtype=np.int64)
    kept = values[values % MAP_DROP_EVERY != 0]
    return int(kept.size), int((kept * 2).sum())
