"""Operator tooling for inspecting and administering checkpoints.

The exports load on first attribute access, so that ``python -m
repro.tools.checkpoint`` does not find its module imported already.
"""

_LAZY = {
    "describe_checkpoint": "repro.tools.checkpoint",
    "rollback_checkpoint": "repro.tools.checkpoint",
}

__all__ = list(_LAZY)


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
