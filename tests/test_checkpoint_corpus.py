"""Every label of the checkpoint-compatibility corpus restarts, and the
current tree still writes its bytes (§7.2: restart with new code).

For each (label, scenario) of ``tests/checkpoint_scenarios.py``:

* a query restarted on the label's files and fed the remaining epochs
  reaches the sink table of an uninterrupted run, and that table is not
  empty.  Both runs take the environment's backend for a dict label
  (CI's tiered leg restarts every dict label on the tiered backend) and
  the tiered backend for a tiered one;
* the current tree, run on the first epochs, writes the label's files
  (``checkpoint_fingerprint``: WAL entries without wall-clock times,
  state files and tiered manifests, which hash their runs).  A file a
  :class:`~tests.checkpoint_scenarios.Bump` changed after the label was
  written equals it in the newest label holding the scenario instead;
* on the tiered backend, ``describe`` reads the label's manifests.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib.util
import os

import pytest

from repro.testing.oracle import canonical_rows
from repro.tools.checkpoint import describe_checkpoint

from tests import checkpoint_scenarios as corpus

INDEX = corpus.label_index()
ORDER = {entry["label"]: i for i, entry in enumerate(INDEX)}
load_label = functools.lru_cache(maxsize=None)(corpus.load_label)
CASES = [(entry["label"], name) for entry in INDEX
         for name in load_label(entry["label"])]


def _bumped(path, bumps) -> bool:
    return any(fnmatch.fnmatchcase(path, bump.files) for bump in bumps)


def expected_files(label, name, tmp_path) -> dict:
    """The fingerprint the current tree must write for ``name``."""
    theirs = corpus.fingerprint(corpus.materialize(
        load_label(label)[name], tmp_path / "expected"))
    bumps = [bump for bump in corpus.SCENARIOS[name].bumps
             if ORDER[bump.commit] > ORDER[label]]
    if not bumps:
        return theirs
    for bump in bumps:
        assert any(_bumped(path, [bump]) for path in theirs), (
            f"{bump} matches no file of label {label}")
    newest = max((entry["label"] for entry in INDEX
                  if name in load_label(entry["label"])), key=ORDER.get)
    moved = corpus.fingerprint(corpus.materialize(
        load_label(newest)[name], tmp_path / "newest"))
    return {**{path: data for path, data in theirs.items()
               if not _bumped(path, bumps)},
            **{path: data for path, data in moved.items()
               if _bumped(path, bumps)}}


@pytest.mark.parametrize("label,name", CASES,
                         ids=[f"{label}-{name}" for label, name in CASES])
def test_restart_and_bytes(tmp_path, label, name):
    scenario = corpus.SCENARIOS[name]
    files = load_label(label)[name]
    sources, plan, sink = corpus.write_first_half(scenario, tmp_path / "own")
    assert corpus.fingerprint(tmp_path / "own") == expected_files(
        label, name, tmp_path)

    stored = corpus.materialize(files, tmp_path / "label")
    if scenario.backend == "tiered":
        described = [describe_checkpoint(str(state.parent))["state"]
                     for state in stored.glob("**/state")]
        handles = [h for state in described for h in state.values()]
        assert handles and all(
            h["format"] == "manifest"
            and isinstance(h["keys_at_last_snapshot"], int)
            for h in handles), described
    queries = corpus.start(plan, scenario.mode, stored,
                           scenario.restart_options(), sink=sink)
    corpus.drive(sources, queries, scenario.second)
    corpus.stop(queries)

    reference = corpus.run_whole(scenario, tmp_path / "reference")
    assert sink.rows(), "scenario ends with an empty table; test is vacuous"
    assert canonical_rows(sink.rows()) == canonical_rows(reference)


#: The scenarios the tool's tests write.
NAMES = ("weighted_numeric_dedup", "cascade_tiered")


@pytest.fixture
def tool(tmp_path, monkeypatch):
    """``tools/checkpoint_corpus.py`` on a corpus under ``tmp_path``
    holding an empty label ``a``, over two scenarios."""
    spec = importlib.util.spec_from_file_location(
        "checkpoint_corpus", os.path.join(os.path.dirname(__file__),
                                          os.pardir, "tools",
                                          "checkpoint_corpus.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(corpus, "SCENARIOS",
                        {name: corpus.SCENARIOS[name] for name in NAMES})
    monkeypatch.setattr(corpus, "CORPUS", str(tmp_path))
    monkeypatch.setattr(corpus, "INDEX", str(tmp_path / "index.json"))
    (tmp_path / "index.json").write_text('[{"label": "a", "commit": "b"}]')
    (tmp_path / "a.json").write_text("{}")
    return tool


def test_tool_writes_a_label_the_corpus_reads(tmp_path, tool):
    """``tools/checkpoint_corpus.py write`` lists the label last and
    stores files that restore to the current tree's bytes: block files
    (base64) and a tiered cascade's two checkpoints among them."""
    newest = INDEX[-1]["label"]
    expected = {name: corpus.fingerprint(corpus.materialize(
        load_label(newest)[name], tmp_path / newest / name))
        for name in NAMES}

    assert tool.main(["write", "new"]) == 0
    assert corpus.label_index() == [{"label": "a", "commit": "b"},
                                    {"label": "new", "commit": "new"}]
    written = corpus.load_label("new")
    assert {name: corpus.fingerprint(corpus.materialize(
        written[name], tmp_path / "new" / name)) for name in NAMES} == expected


def test_writing_a_label_twice_changes_no_byte(tmp_path, tool):
    """A rewrite keeps every file whose fingerprint is unchanged as the
    label holds it: wall-clock ``trigger_time``s do not move."""
    tool.write_label("new")
    first = (tmp_path / "new.json").read_bytes()
    tool.write_label("new")
    assert (tmp_path / "new.json").read_bytes() == first
