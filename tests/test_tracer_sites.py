"""The benchmark's tracer finds every name it wraps, and restores them.

edbench/tracer.py replaces names in the edlab modules where callers look
them up.  A refactor that moves or drops one of those names breaks a
traced benchmark run (`--trace 1`); this test catches it without
running one.  It only reads the tracer, never edits it.
"""

import importlib.util
from pathlib import Path

from edlab import algorithms, core

TRACER = Path(__file__).resolve().parent.parent / "edbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("edbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_site_resolves_and_is_restored():
    tracer = _load_tracer()
    compare, drive = core.CountingOracle.compare, algorithms.drive
    tr = tracer.Tracer()
    tr.install()  # raises if a site's name is gone
    try:
        assert algorithms.drive is not drive
    finally:
        tr.enable(False)
    assert core.CountingOracle.compare is compare
    assert algorithms.drive is drive
    for owner, attr, original, _ in tr.sites:
        assert getattr(owner, attr) is original, (owner, attr)
