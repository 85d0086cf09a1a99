"""The benchmark's contract with the library, checked in the unit run.

`bench/tracer.py` wraps named entry points of every module, and the
workloads read some internals (an amalgam's `_shared` pairing among them).
A refactor that renames one of them would otherwise fail only when the
benchmark runs.  Here each workload's first round runs at seed 7 with the
tracer installed, and every job must pass its own check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round_zero_passes_its_checks_under_the_tracer(monkeypatch, name):
    monkeypatch.chdir(BENCH.parent)  # workload paths are checkout-relative
    rounds = workloads.WORKLOADS[name].setup(7)
    t = tracer.Tracer()
    with t.installed():
        for job in rounds[0]:
            ok, line = job.check(job.run())
            assert ok, line
    assert t.stats, "the tracer saw no library call"
