import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# traced names the package no longer defines; the tracer skips them silently
STALE = {"discrete.assemble_fullline_form", "discrete.riesz_kernel_entry"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_installs_and_restores_every_binding():
    # the benchmark's tracer wraps package functions and foreign bindings
    # (such as each module's ``quad``) by name; deleting one makes install()
    # raise, which otherwise only a traced benchmark run would show
    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.restore()
    assert tracer.leftover_wrappers() == []


def test_traced_groups_name_defined_functions():
    # a per-layer metric sums the calls of its listed names, so a renamed or
    # deleted function would read 0 there without any error
    tracer = _load_tracer()
    listed = {*tracer.APPLY, *tracer.ASSEMBLE, *tracer.ENVELOPES, *tracer.HOOKS}
    missing = set()
    for name in listed:
        layer, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"hardyops.{layer}"), func, None)):
            missing.add(name)
    assert missing == STALE
