#!/usr/bin/env python3
"""The repo benchmark: one command, five workloads.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N [--trace] [--quick]        # all five
    python3 bench/run.py --selfcheck [--runs N] [--workload W]   # noise check

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ledger).  Without it, each workload runs in a fresh
subprocess of this same script.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time

_PROCESS_START = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
QUICK_BLOCKS = 3


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="nominal length of the timed window "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="1: a traced run reporting the per-layer ledger")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_BLOCKS} blocks per workload: a smoke "
                             "run, not comparable with full runs")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two interleaved sets of full runs; fails if "
                             "they disagree beyond the bounds")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set for --selfcheck")
    parser.add_argument("--workdir", default=os.path.join(RESULTS_DIR, "work"),
                        help="where checkpoints and sink files go (real disk)")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def import_engine():
    """Import the engine from this checkout — and only from it — with no
    ``REPRO_*`` variable in sight (the engine reads them at nine sites)."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro

    if not os.path.abspath(repro.__file__).startswith(ROOT + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {ROOT}")


def pin_allocator() -> None:
    """Fix glibc malloc's mmap and trim thresholds for this process.

    Left alone, glibc moves both as the process frees large blocks, so
    an epoch's numpy temporaries come from fresh ``mmap`` pages (~4 800
    page faults and ~10 ms of system time per ``yahoo_drain`` epoch) for
    the first few hundred epochs and from the heap afterwards: epoch
    time then has two modes 25 % apart and a run reports whichever mix
    it happened to see.  Pinned at glibc's own maximum, every block
    under 32 MB is reused from the heap from the first epoch on — the
    state a long-running query settles into."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc: nothing to pin
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 1 << 30)


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(args) -> int:
    pin_allocator()
    try:
        import_engine()
    except ImportError as exc:
        print(f"cannot import the engine: {exc}", file=sys.stderr)
        return 2
    import numpy

    import drivers
    import ledger
    import spans
    from estimators import end_to_end

    spec = manifest()
    if args.workload not in drivers.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(drivers.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = drivers.WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    blocks = QUICK_BLOCKS if args.quick else max(
        QUICK_BLOCKS, round(seconds * cls.BLOCKS_PER_SECOND))
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, drivers.SINK_CLASSES)

    workdir = os.path.join(args.workdir, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    workload = cls(args.seed, blocks, workdir, tracer)
    try:
        workload.setup()
        # Process start -> first timed epoch or tick.
        window_started = time.perf_counter()
        setup_s = window_started - _PROCESS_START
        measured = workload.measure()
        window_s = time.perf_counter() - window_started
        if tracer is not None:
            workload.close_window()
            workload.restart_cycles()
        workload.check_listeners()
        mismatches = workload.mismatches()
        options = workload.engine_options()
        if tracer is not None:
            metrics = ledger.layer_metrics(workload, measured, tracer)
        else:
            metrics = {"setup_s": setup_s, "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            # The timings are printed by every run but gate nothing:
            # they are per-layer (e2e.*) metrics, see the README.
            metrics.update(end_to_end(measured))
    finally:
        workload.teardown()

    failures = dict(workload.failures, mismatched_rows=mismatches)
    failed = sum(failures.values())
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "blocks": blocks, "quick": args.quick, "trace": bool(args.trace),
        "window_s": window_s, "loop": cls.loop, "git_sha": git_sha(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "engine_options": options,
        "failures": failures,
    }
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    measured_metrics = {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}
    reported = spec["per_layer" if tracer is not None else "end_to_end"]
    result = {
        "correct": mismatches == 0,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": {m["name"]: measured_metrics[m["name"]] for m in reported},
    }
    # One file per run: e2e_<workload>.json, or trace_<workload>.json
    # which also holds the spans.
    record = {
        "stamp": stamp, "result": result, "measured": measured_metrics,
        "blocks": [{"records": b.records, "wall_s": b.wall_s, "cpu_s": b.cpu_s,
                    "latency_ms_p50": b.latency_ms_p50} for b in measured]}
    if tracer is not None:
        record.update(fields=spans.SPAN_FIELDS, spans=tracer.spans)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    kind = "trace" if tracer is not None else "e2e"
    with open(os.path.join(RESULTS_DIR, f"{kind}_{args.workload}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f)

    if args.quick:
        print("QUICK RUN: not comparable with full runs")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, metric in measured_metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'ops_total':32s} {result['attempted']:>16d}")
    print(f"{'ops_failed':32s} {result['failed']:>16d}")
    print(json.dumps(result))
    # Failed operations are reported, not fatal; a wrong output is.
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# All workloads, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, trace: int, args) -> dict:
    """Run one workload in a subprocess; returns the record it wrote:
    ``result`` (its last line of output) and ``measured`` (every metric
    the run took, gated or not)."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--workdir", args.workdir]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    # Exit code 1 still carries a result (a wrong output); anything
    # else means the run itself broke.
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload}: exit code {done.returncode}")
    kind = "trace" if trace else "e2e"
    with open(os.path.join(RESULTS_DIR, f"{kind}_{workload}.json"),
              encoding="utf-8") as f:
        record = json.load(f)
    if json.loads(lines[-1]) != record["result"]:
        raise SystemExit(f"{workload}: the last line of output is not the result")
    return record


def run_suite(args) -> int:
    spec = manifest()
    described = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    if args.quick:
        print("QUICK RUN: not comparable with full runs")
    status = 0
    for entry in spec["workloads"]:
        for trace in ([0, 1] if args.trace else [0]):
            record = run_child(entry["name"], args.seed, trace, args)
            result = record["result"]
            ok = result["correct"] and result["failed"] == 0
            status |= 0 if ok else 1
            print(f"== {entry['name']} ({'traced' if trace else 'end to end'}) "
                  f"ops_total={result['attempted']} "
                  f"ops_failed={result['failed']} correct={result['correct']}")
            for name, metric in record["measured"].items():
                extra = described[name]
                bound = (f"bound={extra['bound']:.0%}" if "bound" in extra
                         else "ungated")
                print(f"  {name:32s} {metric['value']:>16.6g} "
                      f"{metric['unit']:8s} better={extra['better']} {bound}")
    return status


def selfcheck(args) -> int:
    """Two sets of ``--runs`` full runs of this same code, interleaved
    A B A B.  Every workload x end-to-end metric must agree between the
    sets within its bound, and each set's inter-quartile range must fit
    inside the bound too.  The ungated timings are shown beside them,
    judged against nothing."""
    from estimators import quartiles, spread, worse_by

    spec = manifest()
    described = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    status = 0
    print(f"{'workload':26s}{'metric':20s}{'A q1/median/q3':>36s}"
          f"{'B q1/median/q3':>36s}{'iqrA':>7s}{'iqrB':>7s}{'B vs A':>8s}"
          f"{'bound':>9s}")
    for entry in spec["workloads"]:
        if args.workload not in (None, entry["name"]):
            continue
        sets = {"A": [], "B": []}
        for run in range(args.runs):
            for label in ("A", "B"):
                seed = args.seed + len(sets["A"]) + len(sets["B"])
                record = run_child(entry["name"], seed, 0, args)
                result = record["result"]
                if not result["correct"] or result["failed"]:
                    status = 1
                    print(f"{entry['name']} seed {seed}: correct="
                          f"{result['correct']} failed={result['failed']}"
                          f"/{result['attempted']}  FAIL")
                sets[label].append(record["measured"])
        for name in sets["A"][0]:
            bound = described[name].get("bound")
            a = [m[name]["value"] for m in sets["A"]]
            b = [m[name]["value"] for m in sets["B"]]
            qa, qb = quartiles(a), quartiles(b)
            drift = worse_by(qa[1], qb[1], described[name]["better"])
            bad = bound is not None and max(
                spread(a), spread(b), abs(drift)) > bound
            status |= int(bad)
            print(f"{entry['name']:26s}{name:20s}"
                  f"{'/'.join(f'{q:.5g}' for q in qa):>36s}"
                  f"{'/'.join(f'{q:.5g}' for q in qb):>36s}"
                  f"{spread(a):>7.1%}{spread(b):>7.1%}{drift:>+8.1%}"
                  + (f"{bound:>9.0%}" if bound is not None else f"{'ungated':>9s}")
                  + ("  FAIL" if bad else ""))
            sys.stdout.flush()
    print("selfcheck " + ("FAILED" if status else "passed"))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
