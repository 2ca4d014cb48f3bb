import os
import threading

import pytest

import spans as sp


def span(span_id, name, start, end, parent=None, epoch=None, rows=None):
    return sp.Span(span_id, name, start, end, parent, epoch, 1, rows)


#: run_epoch [0,10] > aggregate [1,8] > join [2,6] > scan [3,4];
#: run_epoch also holds a sink write [8,9.5].
TREE = [
    span(0, "engine.run_epoch", 0.0, 10.0, rows=100),
    span(1, "operators.aggregate", 1.0, 8.0, parent=0, rows=5),
    span(2, "operators.join", 2.0, 6.0, parent=1, rows=40),
    span(3, "operators.scan", 3.0, 4.0, parent=2, rows=100),
    span(4, "sinks.write", 8.0, 9.5, parent=0, rows=5),
]


def test_self_time_is_duration_minus_direct_children():
    own = sp.self_times(TREE)
    assert own == {0: 1.5, 1: 3.0, 2: 3.0, 3: 1.0, 4: 1.5}
    assert sum(own.values()) == 10.0  # the layers partition the epoch
    assert sp.busy_by_name(TREE)["operators.join"] == 3.0


def test_rows_in_and_out():
    assert sp.rows_by_name(TREE)["operators.join"] == 40
    assert sp.child_rows_by_name(TREE)["operators.join"] == 100
    assert sp.child_rows_by_name(TREE)["operators.aggregate"] == 40
    nested = [span(0, "sources.read", 0, 2, rows=10),
              span(1, "sources.read", 0, 1, parent=0, rows=10)]
    assert sp.rows_by_name(nested) == {"sources.read": 10}


def test_tracer_nests_per_thread_and_inherits_the_epoch():
    tracer = sp.Tracer()
    tracer.enabled = True

    def inner():
        return "x"

    def outer():
        return tracer.call("inner", inner, rows=lambda result, args: len(result))

    other = threading.Thread(
        target=lambda: tracer.call("elsewhere", inner), name="t")
    assert tracer.call("outer", outer, epoch=7) == "x"
    other.start()
    other.join(timeout=5)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].epoch == 7                  # inherited
    assert by_name["inner"].rows == 1                   # rows(result, args)
    assert by_name["elsewhere"].parent is None          # other thread: a root
    assert by_name["outer"].start <= by_name["inner"].start <= by_name["inner"].end


def test_wrap_passes_through_when_disabled_and_restores():
    class Engine:
        def run(self, n):
            if n < 0:
                raise ValueError(n)
            return n * 2

    tracer = sp.Tracer()
    tracer.wrap(Engine, "run", "engine.run", epoch=lambda self, n: n)
    assert Engine().run(2) == 4 and tracer.spans == []
    tracer.enabled = True
    assert Engine().run(3) == 6
    with pytest.raises(ValueError):
        Engine().run(-1)
    assert [(s.name, s.epoch) for s in tracer.spans] == [
        ("engine.run", 3), ("engine.run", -1)]
    tracer.uninstall()
    assert Engine().run(1) == 2 and len(tracer.spans) == 2


def test_fsyncs_are_counted_only_while_enabled(tmp_path):
    tracer = sp.Tracer()
    tracer.count_fsyncs()
    try:
        with open(tmp_path / "f", "w") as f:
            os.fsync(f.fileno())
            tracer.enabled = True
            os.fsync(f.fileno())
    finally:
        tracer.uninstall()
    assert tracer.fsyncs == 1
