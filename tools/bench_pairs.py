#!/usr/bin/env python3
"""Interleaved parent/change pairs of one bench workload, judged by the
rule in bench/README.md.

    python3 tools/bench_pairs.py --workload W --base <sha> [--pairs 10]
    make bench-pairs W=<workload> BASE=<sha> [N=10]

With ``--base`` the parent commit is checked out into a temporary
``git worktree`` and this checkout is copied (its tracked files as they
are in the working tree, plus untracked ones git does not ignore) beside
it, as siblings in one temporary directory that is removed afterwards:
the two trees then differ only in their contents, never in where they
live (an A/A of identical trees read -5.9 % from the checkout's own
directory alone).  ``--base-dir`` names an existing parent copy instead
and runs this checkout as it is, so run it from a copy of the change
that sits beside that parent copy.  Each pair runs
``bench/run.py --workload W`` once on the parent and once on the change
with the same fresh seed, alternating which side goes first so both see
the same weather.  Every metric the runs print is then reported with
both medians, both inter-quartile ranges and the pairs won, and gets
the README's verdict: a gain (or a loss) only when one side wins at
least nine pairs in ten *and* the medians differ by more than the
parent's own IQR; otherwise ``unresolved``.

Reads ``bench/`` and ``BENCHMARK.json``; edits nothing in them (run
records land in each tree's git-ignored ``bench/results``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Pairs one side must win, as a share of the pairs that were not ties.
WIN_SHARE = 0.9


def run_once(tree: str, workload: str, seed: int, workdir: str) -> dict:
    """One untraced run in ``tree``; returns every metric it measured
    (``{name: value}``) plus ``correct``/``failed`` and the failed
    count's breakdown (``failures``).  Both sides'
    checkpoints and sink files go to the one ``workdir``, so they fsync
    on the same filesystem."""
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--workdir", workdir],
        capture_output=True, text=True, timeout=900)
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{tree}: bench/run.py exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(tree, "bench", "results", f"e2e_{workload}.json"),
              encoding="utf-8") as f:
        record = json.load(f)
    return {"correct": result["correct"], "failed": result["failed"],
            "failures": record["stamp"].get("failures", {}),
            "metrics": {name: m["value"]
                        for name, m in record["measured"].items()}}


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def judge(parent: list, change: list, better: str) -> dict:
    """The README's claim rule over paired samples of one metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    qp, qc = quartiles(parent), quartiles(change)
    apart = abs(qc[1] - qp[1]) > qp[2] - qp[0]
    decided = wins + losses
    verdict = "unresolved"
    if decided and apart:
        if wins >= WIN_SHARE * decided and sign * (qc[1] - qp[1]) > 0:
            verdict = "better"
        elif losses >= WIN_SHARE * decided and sign * (qc[1] - qp[1]) < 0:
            verdict = "WORSE"
    return {"parent": qp, "change": qc, "wins": wins, "losses": losses,
            "verdict": verdict}


def report(workload: str, runs: dict, described: dict) -> int:
    pairs = len(runs["parent"])
    print(f"\n{workload}: {pairs} interleaved pairs "
          f"(claim rule: win >= {WIN_SHARE:.0%} of decided pairs and "
          "medians apart by more than the parent's IQR)")
    print(f"{'metric':24s}{'parent median':>15s}{'IQR':>8s}"
          f"{'change median':>15s}{'IQR':>8s}{'change':>9s}"
          f"{'won':>5s}{'lost':>5s}  verdict")
    status = 0
    for name in runs["parent"][0]["metrics"]:
        better = described[name]["better"]
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        j = judge(parent, change, better)
        (p1, p2, p3), (c1, c2, c3) = j["parent"], j["change"]
        moved = (c2 - p2) / abs(p2) if p2 else 0.0
        bound = described[name].get("bound")
        note = ""
        if bound is not None:
            worse = moved if better == "lower" else -moved
            note = f"  (gated: bound {bound:.0%})"
            if worse > bound:
                note += " OVER BOUND"
                status = 1
        print(f"{name:24s}{p2:>15.6g}{(p3 - p1) / p2 if p2 else 0:>8.1%}"
              f"{c2:>15.6g}{(c3 - c1) / c2 if c2 else 0:>8.1%}"
              f"{moved:>+9.1%}{j['wins']:>5d}{j['losses']:>5d}  "
              f"{j['verdict']}{note}")
    for side in ("parent", "change"):
        bad = [i for i, r in enumerate(runs[side])
               if not r["correct"] or r["failed"]]
        if bad:
            status = 1
            print(f"{side}: runs {bad} reported a wrong output or failed "
                  "operations")
            for i in bad:
                print(f"  run {i}: {failure_line(runs[side][i])}")
    return status


def failure_line(run: dict) -> str:
    """A failed run's count and its breakdown (``stamp.failures``): late
    generator ticks on a busy host read apart from mismatched rows."""
    parts = [f"failed={run['failed']}", f"correct={run['correct']}"]
    parts += [f"{name}={count}"
              for name, count in sorted(run["failures"].items())]
    return " ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", help="parent commit (checked out into "
                        "a temporary git worktree)")
    parser.add_argument("--base-dir", help="an existing checkout of the "
                        "parent to use instead of --base")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3000,
                        help="seed of the first pair; pair i uses seed+i")
    args = parser.parse_args(argv)
    if bool(args.base) == bool(args.base_dir):
        parser.error("give exactly one of --base and --base-dir")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    described = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    siblings = None
    trees = {"parent": args.base_dir and os.path.abspath(args.base_dir),
             "change": ROOT}
    workdir = os.path.join(ROOT, "bench", "results", "pairs-work")
    if args.base:
        siblings = tempfile.mkdtemp(prefix="bench-pairs-")
        trees = {side: os.path.join(siblings, side)
                 for side in ("parent", "change")}
        workdir = os.path.join(siblings, "work")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        trees["parent"], args.base], check=True,
                       stdout=subprocess.DEVNULL)
        copy_checkout(trees["change"])
    runs = {"parent": [], "change": []}
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for side in order:
                runs[side].append(run_once(
                    trees[side], args.workload, args.seed + pair, workdir))
            p, c = runs["parent"][-1]["metrics"], runs["change"][-1]["metrics"]
            print(f"pair {pair} seed {args.seed + pair} ({order[0]} first): "
                  + "  ".join(f"{n}={p[n]:.5g}/{c[n]:.5g}" for n in p),
                  flush=True)
    finally:
        if siblings is not None:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", trees["parent"]], check=False)
            shutil.rmtree(siblings, ignore_errors=True)
    return report(args.workload, runs, described)


def copy_checkout(dest: str) -> None:
    """Copy this checkout's files as they are in the working tree:
    tracked ones (modified or not) and untracked ones git does not
    ignore; a tracked file deleted in the working tree is left out."""
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, capture_output=True).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = os.path.join(ROOT, name)
        if not os.path.isfile(source):
            continue
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)


if __name__ == "__main__":
    sys.exit(main())
