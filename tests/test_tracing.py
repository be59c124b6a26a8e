"""The benchmark's span tracer finds every function it traces.

``perfbench/tracing.py`` rebinds module-level ``nnlif`` functions by name; a
renamed or moved target would otherwise only be reported as not traced.
"""

import importlib.util
import os

import nnlif.experiments  # noqa: F401  (imports every traced module)
from nnlif import twopop

_TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_target():
    tracing = _load_tracing()
    original = twopop.step_twopop
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert twopop.step_twopop is not original
    finally:
        tracer.uninstall()
    assert twopop.step_twopop is original
