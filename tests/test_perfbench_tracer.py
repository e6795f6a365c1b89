"""The benchmark's layer tracer finds every name it wraps, and puts each one back.

perfbench/worker.py wraps program functions at the module attributes their
callers look up; a renamed or dropped name breaks every ``--trace 1`` run.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layer_tracer_installs_and_restores(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    worker = importlib.import_module("worker")
    modules, _, _ = worker.import_program(ROOT)
    tracer = worker.layer_tracer(modules)
    targets = [(module, attr) for module, attr, _, _ in tracer._wraps]
    originals = [getattr(module, attr) for module, attr in targets]
    tracer.install()
    try:
        for (module, attr), original in zip(targets, originals):
            assert getattr(module, attr).__wrapped__ is original, (module.__name__, attr)
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(targets, originals):
        assert getattr(module, attr) is original, (module.__name__, attr)
