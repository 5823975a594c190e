"""The benchmark's call tracer still finds every function it wraps.

``bench/run.py --trace 1`` patches the package by function name, so a rename
or signature change in ``src/`` would break it silently; this test makes that
a tier-1 failure.
"""
import importlib
import os

from elabmech import verify
from elabmech.fixtures import fixture

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _resolve(module_name, qualname):
    owner = importlib.import_module(f"elabmech.{module_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_patches_every_target_and_counts_plan_replays(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    tracer = importlib.import_module("tracer")
    assert len(tracer.TARGETS) == 36
    originals = {name: _resolve(module, qualname)
                 for name, module, qualname, _ in tracer.TARGETS}
    active = tracer.Tracer()
    active.install()
    try:
        unpatched = [name for name, module, qualname, _ in tracer.TARGETS
                     if _resolve(module, qualname) is originals[name]]
        s = fixture("example2")
        assert verify.check_conditional_dominance(s, s.scheme).holds
    finally:
        active.uninstall()
    assert unpatched == []
    assert active.records[tracer.PLAN_REPLAY][0] > 0
    assert all(_resolve(module, qualname) is originals[name]
               for name, module, qualname, _ in tracer.TARGETS)
