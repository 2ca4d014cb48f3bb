"""What a process loads: a map query must not pay for digests it never
takes.

Importing ``hashlib`` loads ``_hashlib`` and the OpenSSL library behind
it (a few MB resident).  The engine imports it where a digest is first
taken — a state file's sha256 trailer, a string key's blake2b — so a
continuous map query never loads it.  Each check runs in a fresh
interpreter: this suite's own imports (hypothesis) load hashlib.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` on the path; its
    stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_continuous_map_query_loads_no_openssl(tmp_path):
    out = run_fresh(f"""
        import sys, time
        from repro.bus import Broker
        from repro.sinks.memory import MemorySink
        from repro.sql import functions as F
        from repro.sql.session import Session

        broker = Broker()
        topic = broker.create_topic("stream", 1)
        sink = MemorySink()
        query = (Session().read_stream
                 .kafka(broker, "stream", (("t", "timestamp"), ("v", "long")))
                 .where(F.col("v") % 5 != 0)
                 .select("t", (F.col("v") * 2).alias("doubled"))
                 .write_stream.sink(sink).trigger(continuous="20ms")
                 .start({str(tmp_path / "checkpoint")!r}))
        for tick in range(5):
            topic.publish_to(0, [{{"t": time.monotonic(), "v": tick * 10 + i}}
                                 for i in range(10)])
        query.engine.run_available()
        query.stop()
        assert len(sink.rows()) == 40, len(sink.rows())
        print(sorted(m for m in ("_hashlib", "hashlib") if m in sys.modules))
    """)
    assert out.split() == ["[]"]


def test_stateful_query_trailers_verify_on_restart(tmp_path):
    """The lazily bound sha256 still writes trailers that a restarted
    query (and ``statefile.verify``) accept.  Pinned to the dict
    backend, whose state files are the ``.jsonl`` ones globbed here."""
    out = run_fresh(f"""
        import glob, os, sys
        from repro.sources.memory import MemoryStream
        from repro.sql.session import Session
        from repro.sql.types import StructType
        from repro.streaming import statefile

        checkpoint = {str(tmp_path / "checkpoint")!r}
        stream = MemoryStream(StructType((("k", "string"), ("v", "long"))))
        df = Session().read_stream.memory(stream).group_by("k").count()

        def start():
            return (df.write_stream.format("memory").query_name("counts")
                    .output_mode("complete").option("state_backend", "dict")
                    .start(checkpoint))

        query = start()
        stream.add_data([{{"k": "a", "v": 1}}, {{"k": "b", "v": 2}}])
        query.process_all_available()
        stream.add_data([{{"k": "a", "v": 3}}])
        query.process_all_available()
        query.stop()
        files = glob.glob(os.path.join(checkpoint, "state", "**", "*.jsonl"),
                          recursive=True)
        assert files
        for path in files:
            statefile.verify(path)

        restarted = start()
        stream.add_data([{{"k": "b", "v": 4}}])
        restarted.process_all_available()
        rows = {{r["k"]: r["count"] for r in restarted.engine.sink.rows()}}
        restarted.stop()
        assert rows == {{"a": 2, "b": 2}}, rows
        print("_hashlib" in sys.modules)
    """)
    assert out.split() == ["True"]
