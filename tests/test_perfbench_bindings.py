"""The module bindings that perfbench's traced run patches must exist.

perfbench/tracing.py swaps named module attributes for recording
wrappers; a refactor that drops or renames one would otherwise fail
only in the traced benchmark run. The tracer is loaded from its file
and nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _tracing()


@pytest.mark.parametrize(
    "module, attr",
    [(m, a) for m, a, _ in _MODULE.WRAPPED] + [(m, a) for m, a in _MODULE.COUNTED],
)
def test_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
