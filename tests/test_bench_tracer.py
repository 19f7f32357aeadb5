import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_installs_and_restores_every_binding():
    # the benchmark's tracer wraps package functions and foreign bindings
    # (such as each module's ``quad``) by name; deleting one makes install()
    # raise, which otherwise only a traced benchmark run would show
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.restore()
    assert tracer.leftover_wrappers() == []
