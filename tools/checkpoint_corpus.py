"""Write a label of the checkpoint-compatibility corpus.

    python tools/checkpoint_corpus.py write <label>

Runs every scenario of ``tests/checkpoint_scenarios.py`` up to its
restart with whichever ``repro`` is importable, and stores the
checkpoint files in ``tests/data/checkpoints/<label>.json``: a file
whose fingerprint is unchanged keeps the bytes of the newest label
holding it, so writing a label twice from one tree changes nothing.  The label,
named after the commit of the tree that writes it, goes last in
``index.json``, or keeps its place if it is listed already.
``PYTHONPATH=<older checkout>/src`` writes an older tree's label;
``make corpus LABEL=<label>`` runs ``write`` on this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.append(os.path.join(ROOT, "src"))  # after any PYTHONPATH tree

from tests import checkpoint_scenarios as corpus  # noqa: E402


def _newest_files() -> dict:
    """scenario -> its files in the newest label holding it."""
    newest = {}
    for entry in corpus.label_index():
        newest.update(corpus.load_label(entry["label"]))
    return newest


def write_label(label: str) -> dict:
    """Write ``label`` and list it in the index; returns its entry.

    A file whose ``checkpoint_fingerprint`` entry equals the one in the
    newest label holding the scenario keeps that label's bytes (an
    offsets file's wall-clock ``trigger_time`` among them), so a label's
    diff shows only what changed.
    """
    stored = {}
    labelled = _newest_files()
    for name, scenario in corpus.SCENARIOS.items():
        with tempfile.TemporaryDirectory() as directory:
            ours = os.path.join(directory, "ours")
            corpus.write_first_half(scenario, ours)
            files = corpus.durable_files(ours)
            newest = labelled.get(name)
            if newest is not None:
                fingerprint = corpus.fingerprint(ours)
                theirs = corpus.fingerprint(corpus.materialize(
                    newest, os.path.join(directory, "theirs")))
                files.update({path: newest[path] for path in fingerprint
                              if path in newest
                              and theirs.get(path) == fingerprint[path]})
            stored[name] = corpus.encode_files(files)
    with open(corpus.label_path(label), "w", encoding="utf-8") as f:
        json.dump(stored, f, indent=1, sort_keys=True)
        f.write("\n")
    index = corpus.label_index()
    entry = {"label": label, "commit": label}
    places = [i for i, old in enumerate(index) if old["label"] == label]
    if places:
        index[places[0]] = entry
    else:
        index.append(entry)
    with open(corpus.INDEX, "w", encoding="utf-8") as f:
        json.dump(index, f, indent=1)
        f.write("\n")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    write = commands.add_parser("write", help="write a label")
    write.add_argument("label")
    args = parser.parse_args(argv)
    entry = write_label(args.label)
    print(json.dumps(entry))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
