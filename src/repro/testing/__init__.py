"""Deterministic fault injection + exactly-once checking (ISSUE 4).

``repro.testing.faults`` is imported by the engine's lowest layers and
must stay import-cycle-free, so this package init re-exports only the
fault primitives eagerly; the harness (which imports the engines)
loads lazily on first attribute access.  The fault sweep's matrix lives
beside the checkpoint corpus, in ``tests/sweep.py``.
"""

from repro.testing.faults import (  # noqa: F401
    CRASHABLE_POINTS,
    REGISTRY,
    CrashPoint,
    Fault,
    FaultInjector,
    InjectedTaskError,
    active_injector,
    fault_point,
    injected,
    install,
    uninstall,
)

_LAZY = {
    "ExactlyOnceChecker": "repro.testing.harness",
    "ExactlyOnceError": "repro.testing.harness",
    "GoldenRun": "repro.testing.harness",
    "run_with_crashes": "repro.testing.harness",
    "run_golden": "repro.testing.harness",
    "check_checkpoint_invariants": "repro.testing.harness",
    "checkpoint_fingerprint": "repro.testing.harness",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
