#!/usr/bin/env python3
"""Live heap of one bench workload, by engine module.

    python3 tools/heap_by_layer.py --workload W [--seed N] [--blocks B]
                                   [--root <checkout>] [--lines K]
    make heap W=<workload> [BLOCKS=B]

Runs a ``bench/drivers.py`` workload under ``tracemalloc`` and prints
the bytes still live at the end of set-up, at the end of the timed
window and after the harness's correctness check (``mismatches()``:
for ``cdc_join_agg`` a read of the whole sink table, which is where the
run's RSS high-water is set), charged to the innermost ``src/repro``
module on each allocation's stack (``bench/`` frames count as the
harness, the rest as ``other``); the traced *peak* over each of the
three phases (the transient high-water mark a phase's working set
reaches, which live bytes at a boundary do not show); the number of
objects the cyclic collector tracks (what each of its full passes
walks) at each point; each state handle's keys, buffered rows, deep
bytes (keys with the handle's dict, and values) and bytes per row at
each point (one handle per stateful operator, one per join side, the
side's layout beside it; the tiered backend's memtable only); the
working set of the window's
epochs — each epoch's traced peak above the live bytes at its start,
with the operator ``process`` call the peak was reached in — as the
median and the largest epoch; then the ``--lines`` largest
``src/repro`` lines at the end of the window.  ``--root`` points at
another checkout — a copy of the parent commit — so a memory claim is
two runs of this one instrument.

``bench/`` is imported, never edited.  ``tracemalloc`` slows the run
several times over and adds its own bookkeeping to the process: read
the table for *who holds what*, and ``peak_rss_mb`` of ``bench/run.py``
for how much.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
import tempfile
import tracemalloc
from collections import defaultdict

#: Stack depth kept per allocation: deep enough to reach the engine
#: frame under numpy's and json's own.
FRAMES = 12


def charge(snapshot, root: str):
    """``(bytes by layer, bytes by src/repro line)`` of one snapshot."""
    package = os.path.join(root, "src", "repro") + os.sep
    harness = os.path.join(root, "bench") + os.sep
    layers, lines = defaultdict(int), defaultdict(int)
    for stat in snapshot.statistics("traceback"):
        layer = "other"
        for frame in reversed(stat.traceback):  # innermost first
            if frame.filename.startswith(package):
                module = frame.filename[len(package):]
                layer = module
                lines[f"{module}:{frame.lineno}"] += stat.size
                break
            if frame.filename.startswith(harness):
                layer = "bench/ (harness)"
                break
        layers[layer] += stat.size
    return layers, lines


def deep_bytes(handle) -> tuple:
    """``(key bytes, value bytes)`` of one state handle's in-memory keyed
    state: its dict with the encoded keys, and the values followed down
    tuples, lists and dicts, every object counted once (a small int or a
    shared string too).  A checkout whose handle split its state into
    ``_shards`` (one dict each) is read shard by shard."""
    keys, seen, total, stack = 0, set(), 0, []
    shards = getattr(handle, "_shards", None)
    for data in ([shard.data for shard in shards] if shards is not None
                 else [handle.data]):
        keys += sys.getsizeof(data) + sum(map(sys.getsizeof, data))
        stack.extend(data.values())
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
    return keys, total


def handle_layouts(engine) -> dict:
    """``id(handle) -> layout name`` for each stream–stream join side:
    its ``describe()``, or ``tuple`` for a checkout whose layouts have
    none (every side was a flat tuple before sides could pack)."""
    layouts = {}
    for op in getattr(getattr(engine, "plan", None), "stateful_ops", ()):
        for state, layout in ((getattr(op, "_left_state", None),
                               getattr(op, "_left_layout", None)),
                              (getattr(op, "_right_state", None),
                               getattr(op, "_right_layout", None))):
            if layout is not None:
                describe = getattr(layout, "describe", None)
                layouts[id(state)] = describe() if describe else "tuple"
    return layouts


def state_by_handle(workload) -> dict:
    """``handle id -> (layout, keys, rows, key bytes, value bytes)`` of
    the workload's query (empty for an engine without a state store);
    the layout is ``-`` for a handle that is not a join side."""
    engine = getattr(getattr(workload, "query", None), "engine", None)
    store = getattr(engine, "state_store", None)
    if store is None:
        return {}
    layouts = handle_layouts(engine)
    return {name: (layouts.get(id(handle), "-"), len(handle), handle.rows,
                   *deep_bytes(handle))
            for name, handle in store._handles.items()}


class EpochWatch:
    """Per-epoch working set under ``tracemalloc``: wraps the engine's
    ``run_epoch`` and every plan operator's ``process`` (per instance, so
    a rebuilt engine is not touched) and records, per epoch, the traced
    peak above the bytes live at its start and the innermost operator
    ``process`` call running when that peak was last raised (outside
    every operator: the engine's own source read, sink or commit).

    Reading the epoch peak resets ``tracemalloc``'s; :meth:`phase_peak`
    folds the peaks it consumed back into the phase's."""

    OUTSIDE = "(outside operators)"

    def __init__(self):
        self.epochs = []  # (working set bytes, operator)
        self._stack, self._mark, self._owner = [], 0, self.OUTSIDE
        self._folded = 0

    def install(self, engine) -> None:
        run_epoch = engine.run_epoch

        def watched(*args, **kwargs):
            self._folded = max(self._folded,
                               tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            start = self._mark = tracemalloc.get_traced_memory()[0]
            self._owner = self.OUTSIDE
            try:
                return run_epoch(*args, **kwargs)
            finally:
                self._event()
                peak = tracemalloc.get_traced_memory()[1]
                self._folded = max(self._folded, peak)
                self.epochs.append((peak - start, self._owner))

        engine.run_epoch = watched
        pending = [engine.plan.root]
        while pending:
            op = pending.pop()
            pending.extend(op.child_ops())
            op.process = self._wrap(op.process, f"{type(op).__name__}.process")

    def _event(self) -> None:
        """Charge a peak raised since the last call/return to the call
        that was innermost in between."""
        peak = tracemalloc.get_traced_memory()[1]
        if peak > self._mark:
            self._mark = peak
            self._owner = self._stack[-1] if self._stack else self.OUTSIDE

    def _wrap(self, process, label: str):
        def watched(ctx):
            self._event()
            self._stack.append(label)
            try:
                return process(ctx)
            finally:
                self._event()
                self._stack.pop()
        return watched

    def phase_peak(self) -> int:
        """The traced peak since the phase began, epochs included."""
        peak = max(self._folded, tracemalloc.get_traced_memory()[1])
        self._folded = 0
        return peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--blocks", type=int, default=3,
                        help="timed blocks to run (bench/run.py --quick "
                             "runs 3; its default for cdc_join_agg is 14)")
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="the checkout whose bench/ and src/ to run")
    parser.add_argument("--lines", type=int, default=8)
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)

    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import drivers

    # Where the harness keeps its own scratch: git-ignored, same disk.
    results = os.path.join(root, "bench", "results")
    os.makedirs(results, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="heap-", dir=results)
    workload = drivers.WORKLOADS[args.workload](
        args.seed, args.blocks, os.path.join(workdir, "run"))
    os.makedirs(workload.workdir)
    phases = ("end of set-up", "end of window", "after check")
    steps = (workload.setup, workload.measure, workload.mismatches)
    live, lines, peaks, tracked, handles = [], [], [], [], []
    watch, window_epochs = EpochWatch(), []
    tracemalloc.start(FRAMES)
    try:
        for step in steps:
            tracemalloc.reset_peak()
            watch.phase_peak()
            if step == workload.measure:
                engine = getattr(getattr(workload, "query", None),
                                 "engine", None)
                if hasattr(engine, "plan"):
                    watch.install(engine)
            step()
            if step == workload.measure:
                window_epochs = list(watch.epochs)
            peaks.append(watch.phase_peak())
            by_layer, by_line = charge(tracemalloc.take_snapshot(), root)
            live.append(by_layer)
            lines.append(by_line)
            tracked.append(len(gc.get_objects()))
            handles.append(state_by_handle(workload))
    finally:
        tracemalloc.stop()
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    mb = 1 / (1 << 20)
    print(f"{args.workload} seed {args.seed}, {args.blocks} blocks, {root}")
    print(f"{'live MB by layer':40s}" + "".join(f"{p:>15s}" for p in phases))
    layers = set().union(*live)
    for layer in sorted(layers, key=lambda n: max(p[n] for p in live),
                        reverse=True):
        if all(phase[layer] * mb < 0.05 for phase in live):
            continue
        print(f"{layer:40s}"
              + "".join(f"{phase[layer] * mb:>15.1f}" for phase in live))
    print(f"{'total':40s}"
          + "".join(f"{sum(phase.values()) * mb:>15.1f}" for phase in live))
    print(f"{'traced peak MB over the phase':40s}"
          + "".join(f"{peak * mb:>15.1f}" for peak in peaks))
    print(f"{'GC-tracked objects':40s}"
          + "".join(f"{count:>15,d}" for count in tracked))
    print(f"\n{'state by handle':16s}{'phase':>15s}{'keys':>9s}{'rows':>9s}"
          f"{'key MB':>9s}{'value MB':>9s}{'deep MB':>9s}{'B/row':>7s}"
          "  layout")
    for name in sorted(set().union(*handles)):
        for phase, by_handle in zip(phases, handles):
            if name not in by_handle:
                continue
            layout, keys, rows, key_bytes, value_bytes = by_handle[name]
            size = key_bytes + value_bytes
            per_row = f"{size / rows:>7.0f}" if rows else f"{'-':>7s}"
            print(f"{name:16s}{phase:>15s}{keys:>9,d}{rows:>9,d}"
                  f"{key_bytes * mb:>9.2f}{value_bytes * mb:>9.2f}"
                  f"{size * mb:>9.2f}{per_row}  {layout}")
    if window_epochs:
        ordered = sorted(window_epochs, key=lambda epoch: epoch[0])
        print(f"\nepoch working set over the window's {len(ordered)} epochs"
              " (traced peak above the live bytes at the epoch's start)")
        for name, (size, owner) in (
                ("median epoch", ordered[len(ordered) // 2]),
                ("largest epoch", ordered[-1])):
            print(f"{name:16s}{size * mb:>9.2f} MB  reached in {owner}")
    print("\nlargest src/repro lines at end of window")
    window = lines[1]
    for line in sorted(window, key=window.get, reverse=True)[:args.lines]:
        print(f"{line:40s}{window[line] * mb:>30.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
