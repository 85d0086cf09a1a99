#!/usr/bin/env python3
"""groupforge benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload sc-decide --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1   # each in a fresh process
    python3 bench/run.py --manifest                # rewrite BENCHMARK.json
    python3 -m pytest -q bench/test_bench.py       # the benchmark's own tests

Run it from the root of a checkout; it imports the library from `src/` and
fails when that is missing.  Each workload is a single-process closed loop
with one client: a job starts when the previous one has returned.  A run
builds its inputs from the seed, times whole rounds of jobs until at least
`--seconds` of job time and enough jobs for the tail percentile have passed,
checks every job against its reference outside the timed region, then times
the workload's representative `forge` command in fresh processes.  Times are
reported at a reference CPU speed (see calib.py); the unscaled figures are
printed beside them.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1` each
job of a fixed set runs untraced and traced (see tracer.py), and the run
reports the per-layer metrics, zero for layers the workload never calls,
plus the difference between the two job times.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  Failed jobs and CLI reports count in `failed`; the printed
`failed_frac` is `failed / attempted`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent.relative_to(ROOT).as_posix()

RUN_SECONDS = 15
SETUP_REPS = 5        # at least; more while they take under SETUP_WINDOW
SETUP_WINDOW = 2.0    # seconds
CLI_SPAWNS = 5        # at least; more while they take under CLI_WINDOW
CLI_WINDOW = 4.0      # seconds

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_p50_ms", "ms", "lower", 0.25),
    ("job_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("cli_p50_s", "s", "lower", 0.25),
]

PER_LAYER_NAMES = """
words.concat.calls words.concat.syllables_out words.concat.self_s
words.invert.calls words.invert.self_s
fingrp.mul.calls fingrp.inverse.calls
fingrp.enumerate_homs.calls fingrp.enumerate_homs.homs_out
fingrp.enumerate_homs.self_s
fingrp.automorphism_group.calls fingrp.automorphism_group.self_s
fingrp.is_complete.calls fingrp.is_complete.self_s
fingrp.is_suitable.calls fingrp.is_suitable.self_s
fingrp.is_localization.calls fingrp.is_localization.self_s
fingrp.budget_exceeded.count
amalgam.reduce.calls amalgam.reduce.long_calls amalgam.reduce.syllables_in
amalgam.reduce.self_s amalgam.hnn_reduce.calls amalgam.hnn_reduce.self_s
amalgam.mul_words.calls amalgam.mul_words.long_calls amalgam.mul_words.self_s
amalgam.canonical.calls amalgam.canonical.self_s
amalgam.weakly_cyclic_reduce.calls amalgam.weakly_cyclic_reduce.self_s
amalgam.intern.calls amalgam.registry_words
smallcancel.build_tau.calls smallcancel.build_tau.syllables_out
smallcancel.build_tau.self_s smallcancel.RelatorSystem.self_s
smallcancel.max_piece.calls smallcancel.max_piece.self_s
smallcancel.greendlinger_decide.calls smallcancel.greendlinger_decide.self_s
smallcancel.greendlinger_decide.dehn_steps
smallcancel.greendlinger_decide.undecided smallcancel.decided_frac
smallcancel.replay_trace.calls smallcancel.replay_trace.failures
universe.standard_family.self_s universe.tables.builds universe.tables.self_s
universe.le.calls universe.le.self_s universe.le.true_frac
universe.check_ugroup.calls universe.check_ugroup.self_s
universe.is_strong_iso.calls universe.is_strong_iso.self_s
universe.code.calls universe.code.self_s universe.poset_axiom_probe.self_s
universe.density_simplicity_step.calls universe.density_simplicity_step.self_s
cli.import_s cli.run_s
bench.trace_overhead_s bench.trace_overhead_frac
""".split()

HIGHER_IS_BETTER = {"smallcancel.decided_frac", "universe.le.true_frac"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


PER_LAYER = [(n, _unit(n), "higher" if n in HIGHER_IS_BETTER else "lower")
             for n in PER_LAYER_NAMES]


def manifest(workloads) -> dict:
    return {
        "command": ["python3", f"{BENCH_DIR}/run.py"],
        "paths": [BENCH_DIR],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def load_library():
    """Import groupforge from this checkout's `src/`, or exit non-zero."""
    if not (SRC / "groupforge" / "__init__.py").is_file():
        sys.exit(f"bench: no groupforge sources under {SRC}; run the "
                 f"benchmark from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import groupforge
    if Path(groupforge.__file__).resolve().parent != SRC / "groupforge":
        sys.exit(f"bench: imported groupforge from {groupforge.__file__}, "
                 f"not from {SRC}")


def machine_facts() -> str:
    import numpy
    load = " ".join(f"{v:.2f}" for v in os.getloadavg())
    return (f"nproc {os.cpu_count()} python {platform.python_version()} "
            f"numpy {numpy.__version__} loadavg {load}")


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_pct(wl, rounds) -> float:
    """The highest percentile with ten jobs beyond it, at the smallest job
    count an untraced run can have."""
    return 1 - 10 / (wl.tail_rounds * len(rounds[0]))


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def time_job(job):
    """Run one job: (seconds, output, traceback if it raised)."""
    t0 = perf_counter()
    try:
        out = job.run()
    except Exception:
        return perf_counter() - t0, None, traceback.format_exc()
    return perf_counter() - t0, out, None


def check_job(job, out, err, tracer=None):
    """Check a job's output outside the timed region: (ok, verdict line,
    traceback if the job or its check raised)."""
    if err is not None:
        return False, f"{job.label}: raised {err.splitlines()[-1]}", err
    keep = tracer.excluding("smallcancel.replay_trace.") if tracer \
        else nullcontext()
    with keep:
        try:
            ok, line = job.check(out)
        except Exception:
            tb = traceback.format_exc()
            line = f"{job.label}: check raised {tb.splitlines()[-1]}"
            return False, line, tb
    return ok, line, None


@dataclass
class Loop:
    times: list = field(default_factory=list)        # per job, seconds
    round_times: list = field(default_factory=list)  # per round, job time
    speeds: list = field(default_factory=list)       # per round, calib.speed()
    lines: list = field(default_factory=list)   # verdicts, first fixed rounds
    failures: list = field(default_factory=list)

    def record(self, ok, line, tb, keep_line):
        if not ok:
            self.failures.append(line)
            if tb and len(self.failures) <= 3:
                print(tb, file=sys.stderr)
        if keep_line:
            self.lines.append(line)


def run_loop(rounds, fixed, least=0, seconds=0.0) -> Loop:
    """Run whole rounds: at least `fixed` and `least`, then on until `seconds`
    of job time.  A calibration block follows each job; a round's speed is
    the median of its blocks' factors (see calib.py)."""
    loop = Loop()
    busy = 0.0
    r = 0
    while r < max(fixed, least) or busy < seconds:
        round_start = busy
        speeds = []
        for job in rounds[r % len(rounds)]:
            dt, out, err = time_job(job)
            loop.times.append(dt)
            busy += dt
            speeds.append(calib.speed())
            loop.record(*check_job(job, out, err), r < fixed)
        loop.round_times.append(busy - round_start)
        loop.speeds.append(statistics.median(speeds))
        r += 1
    return loop


def run_traced(rounds, fixed, tracer):
    """Run each job of the first `fixed` rounds untraced and traced, in
    alternating order so that warm caches favour neither side.  Returns the
    untraced job times and the traced loop."""
    plain, loop = [], Loop()
    for r in range(fixed):
        for i, job in enumerate(rounds[r % len(rounds)]):
            if i % 2:
                plain.append(time_job(job)[0])
            with tracer.installed():
                dt, out, err = time_job(job)
                loop.times.append(dt)
                loop.record(*check_job(job, out, err, tracer), True)
            if not i % 2:
                plain.append(time_job(job)[0])
    return plain, loop


def _cli_env() -> dict:
    env = dict(os.environ)
    env.pop("FORGE_BUDGET", None)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT / BENCH_DIR)] + ([extra] if extra else []))
    return env


# One fresh `forge` process: it times five calibration blocks, then
# `import groupforge.cli`, then the command through `cli.run`, as the `forge`
# entry point runs it.  A block timed in the parent does not follow the
# child's speed.  The times go to standard error after the command's output.
_FORGE = """\
import sys, time
from calib import speed
t0 = time.perf_counter()
factor = sorted(speed() for _ in range(5))[2]
t1 = time.perf_counter()
try:
    import groupforge.cli as cli
    t2 = time.perf_counter()
    sys.argv[0] = "forge"
    code = cli.run(sys.argv[1:])
finally:
    t3 = time.perf_counter()
    t2 = globals().get("t2", t3)
    sys.stdout.flush()
    sys.stderr.write(f"\\nbench-cli-times {factor!r} {t1 - t0!r} "
                     f"{t2 - t1!r} {t3 - t2!r}\\n")
sys.exit(code)
"""


@dataclass
class CliRun:
    """One `forge` process.  The times are as measured; `factor` is the
    child's calib.speed(), which scales them to the reference speed."""
    code: int
    out: str
    total_s: float     # the process's wall time less the calibration blocks
    import_s: float    # import groupforge.cli
    run_s: float       # cli.run
    factor: float


def spawn_cli(args) -> CliRun:
    """One fresh `forge` process, timed without its calibration blocks.  A
    command that exits non-zero is returned like any other, for the
    workload's cli_check to judge."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _FORGE, *args], cwd=ROOT, env=_cli_env(),
        capture_output=True, text=True, timeout=150)
    wall = perf_counter() - t0
    marked = [line for line in proc.stderr.splitlines()
              if line.startswith("bench-cli-times ")]
    if not marked:
        raise RuntimeError(f"forge child wrote no times:\n{proc.stderr}")
    factor, blocks, import_s, run_s = map(float, marked[-1].split()[1:])
    return CliRun(proc.returncode, proc.stdout, wall - blocks, import_s,
                  run_s, factor)


def spawn_clis(args) -> list:
    """CLI_SPAWNS fresh processes, and more while they take under
    CLI_WINDOW seconds."""
    runs = []
    start = perf_counter()
    while len(runs) < CLI_SPAWNS or perf_counter() - start < CLI_WINDOW:
        runs.append(spawn_cli(args))
    return runs


def layer_metrics(stats, cli_runs, untraced_s, traced_s) -> dict:
    got = dict(stats)
    decides = got.get("smallcancel.greendlinger_decide.calls", 0)
    got["smallcancel.decided_frac"] = (
        (decides - got.get("smallcancel.greendlinger_decide.undecided", 0))
        / decides if decides else 0.0)
    les = got.get("universe.le.calls", 0)
    got["universe.le.true_frac"] = (got.get("universe.le.true", 0) / les
                                    if les else 0.0)
    # the parts of the same processes as cli_p50_s, at the reference speed
    got["cli.import_s"] = statistics.median(c.import_s * c.factor
                                            for c in cli_runs)
    got["cli.run_s"] = statistics.median(c.run_s * c.factor for c in cli_runs)
    got["bench.trace_overhead_s"] = traced_s - untraced_s
    got["bench.trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return {n: {"value": got.get(n, 0), "unit": u} for n, u, _ in PER_LAYER}


def time_setup(wl, seed):
    """Build the inputs SETUP_REPS times, and more while the builds and
    their calibration blocks take under SETUP_WINDOW.  A block follows each
    build; as a round in run_loop, the median build is scaled by the median
    of the blocks' factors.  Returns (median build time, the same at the
    reference speed, builds, last inputs)."""
    times, speeds = [], []
    start = perf_counter()
    while len(times) < SETUP_REPS or perf_counter() - start < SETUP_WINDOW:
        t0 = perf_counter()
        rounds = wl.setup(seed)
        times.append(perf_counter() - t0)
        speeds.append(calib.speed())
    setup = statistics.median(times)
    return setup, setup * statistics.median(speeds), len(times), rounds


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import Tracer

    print(f"workload: {wl.name} seed {seed} seconds {seconds} trace "
          f"{int(trace)}")
    print(f"machine: {machine_facts()}")
    setup_raw, setup_s, builds, rounds = time_setup(wl, seed)

    if trace:
        tracer = Tracer()
        plain, loop = run_traced(rounds, wl.fixed_rounds, tracer)
        cli_runs = spawn_clis(wl.cli_args)
        untraced_s, traced_s = sum(plain), sum(loop.times)
        metrics = layer_metrics(tracer.stats, cli_runs, untraced_s, traced_s)
        print(f"traced: {len(loop.times)} jobs in {wl.fixed_rounds} rounds; "
              f"job time {untraced_s:.3f} s untraced, {traced_s:.3f} s "
              f"traced")
    else:
        loop = run_loop(rounds, wl.fixed_rounds, wl.tail_rounds, seconds)
        tail = tail_pct(wl, rounds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        cli_runs = spawn_clis(wl.cli_args)
        # every job is scaled by its round's speed; every round has the same
        # mix, and the median round resists short stalls better than a total
        per_round = len(rounds[0])
        scaled = [t * loop.speeds[i // per_round]
                  for i, t in enumerate(loop.times)]
        round_scaled = [t * v for t, v in zip(loop.round_times, loop.speeds)]
        values = {
            "setup_s": setup_s,
            "jobs_per_s": per_round / statistics.median(round_scaled),
            "job_p50_ms": 1000 * statistics.median(scaled),
            "job_tail_ms": 1000 * percentile(scaled, tail),
            "peak_rss_mb": peak_kib / 1024,
            "cli_p50_s": statistics.median(c.total_s * c.factor
                                           for c in cli_runs),
        }
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u, _, _ in END_TO_END}
        unscaled = {
            "setup_s": setup_raw,
            "jobs_per_s": per_round / statistics.median(loop.round_times),
            "job_p50_ms": 1000 * statistics.median(loop.times),
            "job_tail_ms": 1000 * percentile(loop.times, tail),
            "cli_p50_s": statistics.median(c.total_s for c in cli_runs),
        }
        print(f"speed: median factor {statistics.median(loop.speeds):.3f} "
              f"over rounds (1 = calibration block in "
              f"{1000 * calib.REF_S:g} ms); unscaled: "
              + ", ".join(f"{n} {v:.6g}" for n, v in unscaled.items()))
        print(f"jobs: {len(loop.times)} in {len(loop.round_times)} rounds, "
              f"{sum(loop.times):.3f} s of job time; tail is "
              f"p{100 * tail:.4g} over {len(loop.times)} jobs; setup is the "
              f"median of {builds} builds, cli the median of {len(cli_runs)} "
              f"spawns of: forge {' '.join(wl.cli_args)}")

    failures = loop.failures
    cli_lines = []
    for c in cli_runs:
        ok, shown = wl.cli_check(c.code, c.out)
        if not ok:
            failures.append("cli: " + " | ".join(shown))
        cli_lines = cli_lines or shown
    attempted = len(loop.times) + len(cli_runs)
    failed = len(failures)
    for line in failures[:20]:
        print(f"FAIL {line}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"failed_frac: {failed / attempted:.6g} ratio ({failed} of "
          f"{attempted})")
    print(f"digest: {digest(loop.lines + cli_lines)} over "
          f"{len(loop.lines)} verdicts of the first {wl.fixed_rounds} rounds "
          f"and the cli report")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own fresh process, one after the other."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.splitlines()
        print("\n".join(out[:-1]))
        result = json.loads(out[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = m
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--manifest", action="store_true",
                    help="rewrite BENCHMARK.json from the definitions here")
    args = ap.parse_args(argv)
    load_library()
    from workloads import WORKLOADS

    if args.manifest:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(manifest(WORKLOADS), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        result = run_workload(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    else:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
