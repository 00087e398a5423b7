"""Every function the benchmark traces still exists in `fences`.

bench/tracer.py wraps functions by name from its SELF_TIME table and
skips a name that no longer resolves, so renaming or deleting a traced
function would silently read 0 for its layer.  This loads that table
from bench/tracer.py as it stands and resolves every name the way the
tracer does: a module attribute, or "Class.method" on a class.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _self_time():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SELF_TIME


SELF_TIME = _self_time()


@pytest.mark.parametrize("metric", sorted(SELF_TIME))
def test_every_traced_name_resolves(metric):
    module_name, names = SELF_TIME[metric]
    module = importlib.import_module(module_name)
    assert names, f"{metric} traces no function"
    for name in names:
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(vars(owner).get(attr)), f"{metric}: {module_name}.{name}"
