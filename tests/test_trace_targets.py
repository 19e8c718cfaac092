"""Every function that `perfbench/tracer.py` wraps still exists in sclim.

The tracer looks each target up with a bare `getattr` when it installs, so a
deleted or renamed function breaks `perfbench/run.py --trace 1`.  These tests
resolve the same names in the tier-1 suite.  They load the tracer by file path
and install nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("name, module, path", TARGETS, ids=[t[0] for t in TARGETS])
def test_traced_name_resolves(name, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
