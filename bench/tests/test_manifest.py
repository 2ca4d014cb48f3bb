"""BENCHMARK.json against the code that has to honour it."""

import json
import os
import re

import drivers

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_manifest_lists_the_workloads_the_harness_runs():
    assert [w["name"] for w in load()["workloads"]] == list(drivers.WORKLOADS)


def test_manifest_stays_inside_the_contract():
    spec = load()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["command"][1].startswith("bench/")
    assert 2 <= len(spec["workloads"]) <= 8 and 1 <= spec["run_seconds"] <= 60
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's 3420 s.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 6) <= 3420
