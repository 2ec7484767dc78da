"""bench/tracing.py patches sunet names from outside and raises if one is
missing; entering its tracer here catches a deleted or renamed name in
seconds, not only in the traced benchmark runs."""
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_name_and_restores_it():
    path = list(sys.path)
    tracer = load_tracing().Tracer()
    sites = [(owner, attr) for owner, attr, _ in tracer._patches()]
    names = {f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in sites}
    assert {"sunet.tensor.relu", "sunet.tensor.phase_mask", "sunet.metrics.copy_shared",
            "sunet.metrics.rebuild_for_input"} <= names
    before = [owner.__dict__[attr] for owner, attr in sites]
    with tracer.installed():
        during = [owner.__dict__[attr] for owner, attr in sites]
    after = [owner.__dict__[attr] for owner, attr in sites]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
    assert sys.path == path
