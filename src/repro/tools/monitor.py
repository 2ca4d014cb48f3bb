"""Text dashboard over a query's structured event log (§7.4).

Every epoch of either engine appends one JSON line to
``<checkpoint>/events.jsonl`` (see :mod:`repro.streaming.progress`);
this tool turns that log into
the monitoring view the paper says operators need (§2.3): processing
rate, backlog, state size, watermarks and their lag, plus — when the
observability layer was enabled — the engine's per-phase time
breakdown, per-operator row counts and continuous-mode latency
percentiles.

Usable as a CLI::

    python -m repro.tools.monitor <checkpoint-dir-or-events.jsonl>
    python -m repro.tools.monitor <path> --follow   # live, like top(1)
    python -m repro.tools.monitor <path> --window 50
    python -m repro.tools.monitor <path> --serve --port 9464  # OpenMetrics

A ``postmortem.json`` path works anywhere ``events.jsonl`` does: the
dashboard (and the bottleneck panel) then replays the flight recorder's
last epochs instead of the live log.

or programmatically: ``render(load_events(path))`` returns the
dashboard as a string.  ``--serve`` replays the log into the ``engine.*``
metrics through the same function the live engines use
(:func:`repro.streaming.progress.apply_metrics`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.observability import bottleneck as bottleneck_model


def resolve_events_path(path: str) -> str:
    """Accept either an ``events.jsonl`` file or a checkpoint dir."""
    if os.path.isdir(path):
        return os.path.join(path, "events.jsonl")
    return path


def load_events(path: str) -> list:
    """Parse the event log into a list of per-epoch dicts.

    Accepts an ``events.jsonl`` file, a checkpoint directory containing
    one, or a ``postmortem.json`` flight-recorder dump (whose buffered
    epochs replay through the same dashboard).  Tolerates a torn final
    line (the query may be appending while we read) by skipping
    unparseable lines.
    """
    path = resolve_events_path(path)
    events = []
    if not os.path.exists(path):
        return events
    if path.endswith(".json"):
        from repro.observability.flightrec import load_postmortem

        doc = load_postmortem(path)
        return list(doc.get("epochs", ())) if doc else []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError:
                continue
    return events


# ----------------------------------------------------------------------
# Formatting helpers
# ----------------------------------------------------------------------
def _fmt_rate(value) -> str:
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M/s"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k/s"
    return f"{value:.1f}/s"


def _fmt_count(value) -> str:
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e4:
        return f"{value / 1e3:.1f}k"
    return str(int(value))


def _fmt_seconds(value) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 0.001:
        return f"{value * 1e3:.1f}ms"
    return f"{value * 1e6:.0f}us"


def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
def render(events: list, window: int = 20) -> str:
    """Render the dashboard for ``events`` (newest epochs dominate)."""
    if not events:
        return "no epochs recorded yet\n"
    recent = events[-window:]
    last = events[-1]
    lines = []

    total_in = sum(e.get("numInputRows", 0) for e in recent)
    # Retract-mode epochs deliver delete+insert delta rows; the *net*
    # row count (sum of weights) is the true table growth, so rates are
    # computed from it when present — a retraction-heavy window used to
    # read as inflated throughput.
    total_out = sum(
        e.get("numOutputRowsNet", e.get("numOutputRows", 0)) for e in recent
    )
    total_delivered = sum(e.get("numOutputRows", 0) for e in recent)
    total_seconds = sum(e.get("durationSeconds", 0.0) for e in recent)
    rate = total_in / total_seconds if total_seconds > 0 else None
    lines.append(
        f"epoch {last.get('epoch', '?')}  "
        f"({len(events)} epochs logged, window={len(recent)})"
    )
    out_note = ""
    if total_delivered != total_out:
        out_note = f" ({_fmt_count(total_delivered)} delivered)"
    lines.append(
        f"  input rate    {_fmt_rate(rate):>10}   "
        f"rows in/out {_fmt_count(total_in)}/{_fmt_count(total_out)}"
        f"{out_note}   "
        f"epoch time {_fmt_seconds(last.get('durationSeconds'))}"
    )
    lines.append(
        f"  backlog       {_fmt_count(last.get('backlogRows')):>10}   "
        f"state keys {_fmt_count(last.get('stateKeys'))}"
        f" rows {_fmt_count(last.get('stateRows'))}   "
        f"late dropped {_fmt_count(sum(e.get('lateRowsDropped', 0) for e in recent))}"
    )

    watermarks = last.get("watermarks", {})
    if isinstance(watermarks, dict) and watermarks.get("watermarks"):
        watermarks = watermarks["watermarks"]
    if watermarks:
        trigger_time = last.get("triggerTime")
        for column, value in sorted(watermarks.items()):
            lag = ""
            if (isinstance(value, (int, float))
                    and isinstance(trigger_time, (int, float))
                    and 0 <= trigger_time - value < 10 * 365 * 86400):
                lag = f"   lag {_fmt_seconds(trigger_time - value)}"
            lines.append(f"  watermark     {column} = {value}{lag}")

    # End-to-end event-time lag (ingest -> this stage's epoch end),
    # propagated through stream-table cascades.
    lags = sorted(
        e["eventTimeLagSeconds"] for e in recent
        if isinstance(e.get("eventTimeLagSeconds"), (int, float))
    )
    if lags:
        def _pct(q):
            return lags[min(len(lags) - 1, int(q * len(lags)))]
        newest = next(
            e["eventTimeLagSeconds"] for e in reversed(recent)
            if isinstance(e.get("eventTimeLagSeconds"), (int, float))
        )
        lines.append(
            f"  event-time lag  p50 {_fmt_seconds(_pct(0.50))}   "
            f"p95 {_fmt_seconds(_pct(0.95))}   "
            f"p99 {_fmt_seconds(_pct(0.99))}   "
            f"last {_fmt_seconds(newest)}"
        )

    # Where is the time going? (bottleneck attribution over the window;
    # requires stage timings, i.e. observability on when recorded.)
    attribution = bottleneck_model.attribute_events(recent)
    if attribution:
        lines.append(
            f"  bottleneck    {attribution['name']}  "
            f"({100 * attribution['share']:.1f}% of "
            f"{_fmt_seconds(attribution['total_seconds'])} over "
            f"{attribution['epochs']} epochs)"
        )
        for entry in attribution["breakdown"][:5]:
            lines.append(
                f"    {entry['name']:<22} {_bar(entry['share'])} "
                f"{_fmt_seconds(entry['seconds']):>8}  "
                f"{100 * entry['share']:5.1f}%"
            )

    # Engine phase breakdown (requires REPRO_METRICS/observability on).
    phase_totals = {}
    for event in recent:
        for phase, seconds in event.get("stageTimings", {}).items():
            phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
    if phase_totals:
        lines.append("  stage time breakdown (window total):")
        grand = sum(phase_totals.values()) or 1.0
        for phase, seconds in sorted(
                phase_totals.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"    {phase:<14} {_bar(seconds / grand)} "
                f"{_fmt_seconds(seconds):>8}  {100 * seconds / grand:5.1f}%"
            )

    op_totals = {}
    for event in recent:
        for op, stats in event.get("operatorMetrics", {}).items():
            slot = op_totals.setdefault(op, {"rows_out": 0, "seconds": 0.0})
            slot["rows_out"] += stats.get("rows_out", 0)
            slot["seconds"] += stats.get("seconds", 0.0)
    if op_totals:
        lines.append("  operators (window total):")
        for op, stats in sorted(
                op_totals.items(), key=lambda kv: -kv[1]["seconds"]):
            lines.append(
                f"    {op:<14} rows_out {_fmt_count(stats['rows_out']):>8}  "
                f"time {_fmt_seconds(stats['seconds'])}"
            )

    latency = last.get("latencyPercentiles", {})
    if latency:
        lines.append(
            f"  record latency  p50 {_fmt_seconds(latency.get('p50'))}   "
            f"p95 {_fmt_seconds(latency.get('p95'))}   "
            f"p99 {_fmt_seconds(latency.get('p99'))}   "
            f"(n={_fmt_count(latency.get('count'))})"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# OpenMetrics replay/export
# ----------------------------------------------------------------------
def registry_from_events(events: list):
    """Synthesize a :class:`MetricsRegistry` from logged epochs, for
    ``--serve`` over a query that ran without a live registry (or
    crashed).  The ``engine.*`` metrics come from the live engines' own
    :func:`~repro.streaming.progress.apply_metrics`; ``op.<Op>.rows_out``
    (counted live by the operators) from each ``operatorMetrics``."""
    from repro.observability.metrics import MetricsRegistry
    from repro.streaming.progress import apply_metrics

    registry = MetricsRegistry()
    for event in events:
        apply_metrics(registry, event)
        for op, stats in (event.get("operatorMetrics") or {}).items():
            registry.counter(f"op.{op}.rows_out").inc(
                stats.get("rows_out", 0))
    return registry


def serve_events(path: str, port: int = 0):
    """Serve ``path`` (events.jsonl / checkpoint dir / postmortem.json)
    as an OpenMetrics endpoint; re-reads the file on every scrape.
    Returns the running :class:`MetricsServer`."""
    from repro.observability.serve import MetricsServer

    def render_exposition():
        events = load_events(path)
        return registry_from_events(events).to_openmetrics()

    return MetricsServer(port=port, render=render_exposition)


def main(argv=None) -> str:
    """CLI entry point; returns the last rendered dashboard."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.monitor",
        description="Dashboard over a streaming query's events.jsonl",
    )
    parser.add_argument("path", help="checkpoint directory, events.jsonl, "
                                     "or postmortem.json")
    parser.add_argument("--window", type=int, default=20,
                        help="epochs aggregated in the rolling view")
    parser.add_argument("--follow", action="store_true",
                        help="re-render every --interval seconds")
    parser.add_argument("--interval", type=float, default=2.0)
    parser.add_argument("--serve", action="store_true",
                        help="expose the event log as an OpenMetrics "
                             "(Prometheus) endpoint instead of rendering")
    parser.add_argument("--port", type=int, default=9464,
                        help="port for --serve (default 9464; 0 = free)")
    parser.add_argument("--serve-seconds", type=float, default=None,
                        help="with --serve: exit after this many seconds "
                             "(default: serve until interrupted)")
    args = parser.parse_args(argv)

    if args.serve:
        server = serve_events(args.path, port=args.port)
        url = server.url
        print(f"serving OpenMetrics at {url}")
        try:
            if args.serve_seconds is not None:
                time.sleep(args.serve_seconds)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
        return url

    text = render(load_events(args.path), window=args.window)
    print(text, end="")
    while args.follow:
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            break
        text = render(load_events(args.path), window=args.window)
        print("\n" + text, end="")
    return text


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
