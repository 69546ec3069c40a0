"""perfbench's tracer wraps names in the package's modules by ``getattr``; a
name it wraps that is gone must fail here, not only in a traced benchmark
run."""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def test_tracer_wraps_every_name_and_restores_it():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
        import worker
    finally:
        sys.path.remove(PERFBENCH)
    t = tracer.Tracer()
    try:
        worker.install_tracer(t)  # AttributeError on a name that is gone
    finally:
        patched = list(t._patched)
        t.restore()
    assert len(patched) == 22
    assert all(getattr(module, attr) is fn for module, attr, fn in patched)
