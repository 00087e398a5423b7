"""Every function the benchmark traces still exists in `fences`, and the
smoke jobs reach every traced layer.

bench/tracer.py wraps functions by name from its SELF_TIME table and
skips a name that no longer resolves, so renaming or deleting a traced
function would silently read 0 for its layer.  This loads that table
from bench/tracer.py as it stands and resolves every name the way the
tracer does: a module attribute, or "Class.method" on a class.

A name can also resolve and still read 0, because no job calls it any
more.  So the tracer is installed and the smoke job lists of all three
workloads (bench/jobs.py) are run through the CLI, and every layer but
the one that no job reaches today must record a span.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

import fences.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

# tile_counts builds nothing that a bench job needs: profiles read their
# tile counts off the count table through tiling.tiling_lemma, so this
# layer reads 0 everywhere
UNREACHED = {"tiling.counts_s"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer_module = _load("tracer")
jobs_module = _load("jobs")
SELF_TIME = tracer_module.SELF_TIME


@pytest.mark.parametrize("metric", sorted(SELF_TIME))
def test_every_traced_name_resolves(metric):
    module_name, names = SELF_TIME[metric]
    module = importlib.import_module(module_name)
    assert names, f"{metric} traces no function"
    for name in names:
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(vars(owner).get(attr)), f"{metric}: {module_name}.{name}"


def test_smoke_jobs_reach_every_traced_layer():
    tracer = tracer_module.Tracer()
    codes = {}
    try:
        tracer.install()
        for workload in jobs_module.WORKLOADS:
            for argv in jobs_module.jobs(workload, 0, "smoke"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    codes[" ".join(argv)] = fences.cli.main(argv)
    finally:
        tracer.uninstall()
    assert tracer_module.wrapped_attributes() == 0
    assert set(codes.values()) == {0}, codes
    reached = {tracer.metric_of[span[0]] for span in tracer.spans}
    assert not set(SELF_TIME) - UNREACHED - reached
