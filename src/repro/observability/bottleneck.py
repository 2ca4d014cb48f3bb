"""Bottleneck attribution: name where an epoch's time went (§2.3, §7.4).

The engines already time every phase of the Figure-4 protocol
(``stage_timings``) and every operator's ``process`` share
(``operator_metrics``) while observability is enabled.  This module
folds those raw timings into a small attribution model so the answer to
"why was that epoch slow" is one name with a share, not a table the
operator has to eyeball:

* ``source-read``        — reading the epoch's input ranges;
* ``stage:<Op>``         — one incremental operator's compute (the
  ``process`` phase is split by per-operator seconds; plan overhead
  outside any operator reports as ``stage:plan``);
* ``wal-sync``           — offsets + commit entries and group-commit
  barrier fsyncs;
* ``sink``               — the idempotent sink write;
* ``state-commit``       — synchronous state checkpointing;
* ``flusher-backpressure`` — time the engine blocked on the async state
  flusher draining (pipelined mode);

Unknown phases pass through under their own name, so new engine phases
degrade to visible-but-unclassified instead of silently vanishing.

``attribute`` works on one epoch, ``attribute_many`` on a window of
(stage_timings, operator_metrics) pairs, and ``attribute_events`` on
the camelCase event dicts from ``events.jsonl`` or a postmortem — the
same model serves ``query.bottleneck()``, ``EpochProgress.bottleneck``,
and the monitor's "where is the time going" panel.
"""

from __future__ import annotations

#: Engine phase -> attribution category.
CATEGORY_FOR_PHASE = {
    "read-inputs": "source-read",
    "wal-offsets": "wal-sync",
    "wal-commit": "wal-sync",
    "group-sync": "wal-sync",
    "sink-write": "sink",
    "state-commit": "state-commit",
    "flusher-wait": "flusher-backpressure",
}


def fold_costs(stage_timings: dict, operator_metrics: dict) -> dict:
    """Merge raw phase/operator timings into ``{category: seconds}``.

    The ``process`` phase is split across ``stage:<Op>`` entries by the
    operators' own measured seconds; whatever remains (batch plumbing)
    is attributed to ``stage:plan``.
    """
    costs = {}
    process_seconds = 0.0
    for phase, seconds in (stage_timings or {}).items():
        if not isinstance(seconds, (int, float)) or seconds <= 0:
            continue
        if phase == "process":
            process_seconds = seconds
            continue
        category = CATEGORY_FOR_PHASE.get(phase, phase)
        costs[category] = costs.get(category, 0.0) + seconds
    operator_seconds = 0.0
    for op, stats in (operator_metrics or {}).items():
        seconds = stats.get("seconds", 0.0)
        if seconds > 0:
            key = f"stage:{op}"
            costs[key] = costs.get(key, 0.0) + seconds
            operator_seconds += seconds
    leftover = process_seconds - operator_seconds
    if leftover > 0:
        costs["stage:plan"] = costs.get("stage:plan", 0.0) + leftover
    return costs


def _from_costs(costs: dict, epochs: int = 1):
    total = sum(costs.values())
    if total <= 0:
        return {}
    name, seconds = max(costs.items(), key=lambda kv: kv[1])
    return {
        "name": name,
        "seconds": seconds,
        "share": seconds / total,
        "total_seconds": total,
        "epochs": epochs,
        "breakdown": [
            {"name": n, "seconds": s, "share": s / total}
            for n, s in sorted(costs.items(), key=lambda kv: -kv[1])
        ],
    }


def attribute(stage_timings: dict, operator_metrics: dict = None) -> dict:
    """Attribution for one epoch; ``{}`` when no timings were collected
    (observability disabled)."""
    return _from_costs(fold_costs(stage_timings, operator_metrics))


def attribute_many(pairs) -> dict:
    """Attribution over a window of ``(stage_timings, operator_metrics)``
    pairs (e.g. ``query.recent_progress``)."""
    merged = {}
    epochs = 0
    for stage_timings, operator_metrics in pairs:
        costs = fold_costs(stage_timings, operator_metrics)
        if not costs:
            continue
        epochs += 1
        for name, seconds in costs.items():
            merged[name] = merged.get(name, 0.0) + seconds
    return _from_costs(merged, epochs=epochs)


def attribute_events(events) -> dict:
    """Attribution over event-log / postmortem epoch dicts (camelCase
    keys, as written by ``EpochProgress.to_json``)."""
    return attribute_many(
        (event.get("stageTimings"), event.get("operatorMetrics"))
        for event in events
    )


def summary(stage_timings: dict, operator_metrics: dict = None) -> dict:
    """The compact per-epoch form stored on ``EpochProgress.bottleneck``
    and in ``events.jsonl`` (name/share/seconds only)."""
    full = attribute(stage_timings, operator_metrics)
    if not full:
        return {}
    return {"name": full["name"], "share": round(full["share"], 4),
            "seconds": full["seconds"]}
