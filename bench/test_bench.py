"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_library()

import tracer  # noqa: E402
import workloads  # noqa: E402
from groupforge import fingrp  # noqa: E402


def test_wrong_verdict_counts_as_failure_and_changes_digest(monkeypatch):
    rounds = workloads.WORKLOADS["finite-groups"].setup(3)
    loop = run.run_loop(rounds, 1)
    assert loop.failures == []
    assert len(loop.lines) == len(loop.times) == len(rounds[0])

    real = fingrp.is_complete

    def wrong(g, **kw):
        rep = real(g, **kw)
        rep.ok = not rep.ok
        return rep

    monkeypatch.setattr(fingrp, "is_complete", wrong)
    wrong_loop = run.run_loop(rounds, 1)
    complete_jobs = sum(1 for job in rounds[0]
                        if job.label.startswith("complete "))
    assert len(wrong_loop.failures) == complete_jobs > 0
    assert run.digest(wrong_loop.lines) != run.digest(loop.lines)


def test_raising_job_counts_as_failure(monkeypatch):
    rounds = workloads.WORKLOADS["finite-groups"].setup(3)

    def broken(*args, **kwargs):
        raise fingrp.BudgetExceeded("forced")

    monkeypatch.setattr(fingrp, "automorphism_group", broken)
    loop = run.run_loop(rounds, 1)
    assert loop.failures and all("raised" in f for f in loop.failures)
    assert set(loop.failures) <= set(loop.lines)


def test_tracing_keeps_verdicts_and_restores_the_library():
    rounds = workloads.WORKLOADS["finite-groups"].setup(5)
    original = fingrp.enumerate_homs
    plain = run.run_loop(rounds, 1)
    t = tracer.Tracer()
    with t.installed():
        assert fingrp.enumerate_homs is not original
    assert fingrp.enumerate_homs is original
    plain_times, traced = run.run_traced(rounds, 1, t)
    assert fingrp.enumerate_homs is original
    assert len(plain_times) == len(traced.times) == len(rounds[0])
    assert traced.failures == [] and traced.lines == plain.lines
    assert t.stats["fingrp.enumerate_homs.calls"] > 0
    assert t.stats["fingrp.enumerate_homs.homs_out"] > 0
    assert t.stats["smallcancel.build_tau.calls"] == 0
    assert set(t.stats) <= set(run.PER_LAYER_NAMES) | {"universe.le.true"}


def test_replay_counts_survive_the_check_exclusion():
    rounds = workloads.WORKLOADS["sc-decide"].setup(2)
    t = tracer.Tracer()
    _, loop = run.run_traced(rounds, 1, t)
    members = sum(1 for job in rounds[0] if job.label.endswith(" member"))
    assert loop.failures == []
    assert t.stats["smallcancel.greendlinger_decide.calls"] == len(rounds[0])
    assert t.stats["smallcancel.replay_trace.calls"] == members
    assert t.stats["smallcancel.replay_trace.failures"] == 0


def test_tail_percentile_leaves_ten_jobs_beyond():
    for wl in workloads.WORKLOADS.values():
        rounds = wl.setup(1)
        jobs = wl.tail_rounds * len(rounds[0])
        assert round(jobs * (1 - run.tail_pct(wl, rounds)), 9) == 10
    assert run.percentile(range(11), 0.5) == 5
    assert run.percentile([1.0, 2.0], 0.25) == 1.25


def test_manifest_matches_benchmark_json():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.manifest(workloads.WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sc-decide", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_cli_child_times_its_parts_and_keeps_a_bad_exit():
    ok = run.spawn_cli(["group", "suitable", "a5"])
    assert ok.code == 0 and ok.out
    assert 0 < ok.import_s + ok.run_s < ok.total_s
    bad = run.spawn_cli(["no-such-command"])
    assert bad.code != 0
    assert not workloads.WORKLOADS["finite-groups"].cli_check(bad.code,
                                                              bad.out)[0]
