from collections import Counter

import numpy as np
import pytest

import inputs


def test_yahoo_reference_on_four_events():
    segment = {
        "ad_id": np.array([0, 10, 11, 25]),
        "event_type": np.array(["view", "click", "view", "view"], dtype=object),
        "event_time": np.array([1.0, 2.0, 9.5, 9.9]),
    }
    reference = inputs.YahooReference([segment], ads_per_campaign=10,
                                      num_campaigns=3)
    reference.add(0, 0.0)    # views: c0@1.0, c1@9.5, c2@9.9 -> window 0
    reference.add(0, 0.5)    # c0@1.5 -> w0; c1@10.0, c2@10.4 -> window 1
    assert reference.counts() == {
        (0, 0): 2, (1, 0): 1, (2, 0): 1, (1, 1): 1, (2, 1): 1}
    rows = [{"campaign_id": 0, "window_start": 0.0, "window_end": 10.0, "count": 2},
            {"campaign_id": 1, "window_start": 10.0, "window_end": 20.0, "count": 1}]
    assert inputs.yahoo_sink_counts(rows) == {(0, 0): 2, (1, 1): 1}


def test_restamp_shares_every_other_column():
    rng = np.random.default_rng(0)
    segment = inputs.yahoo_segment(rng, 50, num_ads=20, time_spread=4.5)
    moved = inputs.restamp(segment, 2.5)
    assert moved["ad_id"] is segment["ad_id"]
    assert np.array_equal(moved["event_time"], segment["event_time"] + 2.5)
    assert segment["event_time"].max() < 4.5
    assert not np.all(np.diff(segment["event_time"]) >= 0)  # unsorted


def _replay(script):
    """Apply the script the slow way: a table of orders and customers."""
    orders = Counter()
    region = {}
    for row in script.load["customers"]:
        region[row["cust"]] = row["region"]
    for row in script.load["orders"]:
        orders[tuple(sorted(row.items()))] += 1
    for epoch in script.epochs:
        for op, *rows in epoch["orders"]:
            minus, plus = {"insert": ([], rows[0]), "delete": (rows[0], []),
                           "update": (rows[0], rows[-1])}[op]
            for row in minus:
                orders[tuple(sorted(row.items()))] -= 1
            for row in plus:
                orders[tuple(sorted(row.items()))] += 1
        for _op, old, new in epoch["customers"]:
            for before, after in zip(old, new):
                assert region[before["cust"]] == before["region"]
                region[after["cust"]] = after["region"]
    assert min(orders.values()) >= 0          # never deletes what is not there
    table = {}
    for key, n in orders.items():
        order = dict(key)
        total, count = table.get(region[order["cust"]], (0, 0))
        table[region[order["cust"]]] = (total + n * order["amount"], count + n)
    return {r: v for r, v in table.items() if v[1]}


def test_cdc_script_reference_matches_a_replay_and_is_seeded():
    make = lambda seed: inputs.CdcScript(  # noqa: E731
        seed, customers=30, regions=4, orders=40, epochs=6,
        inserts=5, updates=5, moves=2)
    script = make(11)
    assert script.records_per_epoch == 5 + 5 + 10 + 4
    assert script.reference() == _replay(script)
    assert sum(count for _, count in script.reference().values()) == 40
    assert make(11).epochs == script.epochs
    assert make(12).epochs != script.epochs


def test_net_by_weight_and_sink_table():
    rows = [
        {"region": 1, "total": 10, "n": 1, "__weight__": 1},
        {"region": 1, "total": 10, "n": 1, "__weight__": -1},
        {"region": 1, "total": 25, "n": 2, "__weight__": 1},
        {"region": 2, "total": 7, "n": 1, "__weight__": 1},
    ]
    assert inputs.cdc_sink_table(rows) == {1: (25, 2), 2: (7, 1)}
    with pytest.raises(ValueError, match="negative"):
        inputs.net_by_weight([{"region": 1, "__weight__": -1}])


def test_map_reference_by_hand():
    # 0..9 without multiples of 5: 1 2 3 4 6 7 8 9, doubled and summed.
    assert inputs.map_reference(10) == (8, 80)
