"""The traced benchmark run (perfbench/tracer.py) wraps loopcoh functions
by module and attribute name; a rename that drops one of them would
break the traced run, so every listed target must still resolve."""
import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                      "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_name, path",
    [(t[0], t[1]) for t in _tracer().SPANS + _tracer().COUNTS])
def test_trace_target_resolves(module_name, path):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # the tracer replaces methods in the owning class's own dict
        target = getattr(module, owner_name).__dict__[attr]
    else:
        target = getattr(module, attr)
    assert callable(target)
