"""The clibench tracer finds every steinkit name it patches, and puts it back.

``clibench/tracing.py`` replaces layer functions by name in each module
namespace that calls them.  The suite collects only ``tests/``, so a refactor
that renames a patched function, or rebinds it in one namespace, would pass
here and break only ``clibench/run.py --trace 1``.  This test reads
``clibench/`` and changes nothing in it.
"""

import importlib
from pathlib import Path

CLIBENCH = Path(__file__).resolve().parents[1] / "clibench"


def test_tracer_patches_and_restores_every_pinned_name(monkeypatch):
    monkeypatch.syspath_prepend(str(CLIBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    pins = [(ns, attr) for namespaces, attr, _ in tracer._patches() for ns in namespaces]
    before = [getattr(ns, attr) for ns, attr in pins]
    with tracer.installed():  # raises if a namespace binds a name to something else
        patched = [getattr(ns, attr) for ns, attr in pins]
    assert all(p is not b for p, b in zip(patched, before))
    assert all(getattr(ns, attr) is b for (ns, attr), b in zip(pins, before))
