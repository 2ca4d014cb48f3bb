"""Harness unit tests: ``python3 -m pytest bench/tests``.

Not collected by the repo's tier-1 run (its ``testpaths`` is ``tests``).
The harness modules are flat files next to ``run.py``, so both that
directory and the engine's ``src`` go on the path here.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
