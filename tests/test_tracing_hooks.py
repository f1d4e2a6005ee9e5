"""The benchmark's tracer hooks (perfbench/tracing.py) name attributes that
exist in the library: a hook that no longer resolves is only reported as
"not traced" by a traced run, so its layer metrics would silently read 0."""

import importlib.util
from pathlib import Path

import flutterrom
import flutterrom.continuation  # noqa: F401  (the tracer's layers, as package attributes)
import flutterrom.dpim  # noqa: F401
import flutterrom.models  # noqa: F401
import flutterrom.polytensor  # noqa: F401
import flutterrom.romdyn  # noqa: F401
import flutterrom.spectral  # noqa: F401


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves():
    tracing = load_tracing()
    hooks = [hook[:3] for hook in tracing.SPANS + tracing.COUNTERS]
    hooks.append(("models", "ZieglerModel", "fom_rhs"))
    missing = []
    for module, cls, attr in hooks:
        owner = getattr(flutterrom, module, None)
        if cls:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    assert missing == []
