#!/usr/bin/env python3
"""levytails benchmark: one closed-loop client running a named workload.

    python3 bench/run.py --workload {curves,audit,cli,all} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The library is imported from ``src/`` of
this checkout and nowhere else; without it the run exits 1 and prints no
result.

``--trace 0`` measures for ``--seconds`` seconds of task time (whole cycles
of the workload's task mix only, and at least 40 tasks on curves and audit,
100 on cli) and prints the end-to-end metrics:

    setup_s      median over 3 fresh processes of the time from process
                 start to the first timed task (import, spectra, warm-up)
    work_per_s   points/s on curves, draws/s on audit, jobs/s on cli
    task_p50_s   median task wall time
    task_tail_s  p75 (curves, audit) or p90 (cli) task wall time; a lower
                 percentile when fewer than 10 tasks lie beyond it (only
                 at the self-test's tiny sizes)
    peak_rss_mb  peak resident memory of this process

``--trace 1`` runs a fixed schedule twice with the same inputs, untraced
then traced, and prints the per-layer spans and counts of the traced pass
plus the tracing overhead.  Counts repeat exactly for a given seed.

Every task's output is checked outside the timed region.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Known-defect probes of the cli workload are reported on their own line and
in ``cli.probe_failures``, not in ``attempted``/``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("curves", "audit", "cli")
WORK_UNIT = {"curves": "points", "audit": "draws", "cli": "jobs"}
SETUP_REPEATS = 3
# Cycles per pass of a traced run: fixed, so that counts repeat exactly.
TRACE_CYCLES = {"curves": 1, "audit": 2, "cli": 2}
# Tail percentile per workload: the highest of p50/p75/p90/p95/p99 that
# leaves at least 10 tasks beyond it in a 25 s run.  Fixed in advance, so
# that a run with a few more or fewer tasks reports the same percentile.
TAIL_PERCENTILE = {"curves": 75.0, "audit": 75.0, "cli": 90.0}
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
# A timed run goes on past --seconds until it holds this many tasks, so
# that a slow machine still leaves 10 tasks beyond the tail percentile.
MIN_TASKS = {"curves": 40, "audit": 40, "cli": 100}
# One BLAS thread: the box has 2 cores and the harness is one client.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_library():
    """Import levytails from this checkout's src/ and the harness modules."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import levytails
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import levytails from "
                         f"{ROOT / 'src'}: {exc}")
    origin = Path(levytails.__file__).resolve()
    if (ROOT / "src") not in origin.parents:
        raise SystemExit(f"bench: levytails came from {origin}, "
                         f"not from {ROOT / 'src'}")


def make_context(tr, workload, scale, fault):
    import workloads
    ctx = workloads.Context(tr=tr, sizes=workloads.SIZES[scale],
                            work_dir=ROOT / ".bench_work" / workload,
                            fault=fault)
    workloads.setup(ctx)
    return ctx


def warm_up(workload):
    """One tiny cycle, so that lazy imports and first-call costs are paid
    before timing."""
    import numpy as np
    from tracer import NullTracer
    import workloads
    ctx = make_context(NullTracer(), workload, "tiny", False)
    for task in workloads.CYCLES[workload](ctx, np.random.default_rng(0), 0):
        task.check(task.run())
    workloads.cleanup_cycle(ctx)


def setup_probe(args):
    """Wall time of a fresh process that imports, sets up and warms up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed: "
                         f"{proc.stderr.strip()[-500:]}")
    return elapsed


def measure(ctx, workload, seed, seconds=None, cycles=None, min_tasks=0):
    """Run whole cycles of the workload; returns (records, task time, n).

    With ``seconds``, stops before a cycle that would end more than half a
    cycle past the budget, once at least ``min_tasks`` tasks have run; with
    ``cycles``, runs exactly that many.
    """
    import numpy as np
    import workloads
    records = []
    measured = 0.0
    n = 0
    while True:
        rng = np.random.default_rng([seed, n])
        done = []
        for task in workloads.CYCLES[workload](ctx, rng, n):
            t0 = time.perf_counter()
            try:
                result, error = task.run(), None
            except Exception as exc:  # reported as a failed task
                result, error = None, f"{task.kind}: {exc!r}"
                traceback.print_exc(file=sys.stderr)
            done.append((task, result, error, time.perf_counter() - t0))
        for task, result, error, dt in done:
            if error is None:
                try:
                    problems = task.check(result)
                except Exception as exc:  # a crashing check is a failure
                    problems = [f"{task.kind} check: {exc!r}"]
                    traceback.print_exc(file=sys.stderr)
            else:
                problems = [error]
            records.append({"kind": task.kind, "dt": dt, "work": task.work,
                            "problems": problems,
                            "known_defect": task.known_defect})
            measured += dt
        workloads.cleanup_cycle(ctx)
        n += 1
        if cycles is not None:
            if n >= cycles:
                break
        elif (measured * (1.0 + 0.5 / n) >= seconds
              and len(records) >= min_tasks):
            break
    return records, measured, n


def tail_percentile(workload, count):
    """The workload's tail percentile, or the highest lower one on the
    ladder that still has at least 10 of ``count`` tasks beyond it."""
    fitting = [p for p in TAIL_LADDER if p <= TAIL_PERCENTILE[workload]
               and count * (1.0 - p / 100.0) >= 10.0]
    return fitting[-1] if fitting else None


def percentile(values, p):
    import numpy as np
    return float(np.percentile(np.asarray(values), p))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outcome(records):
    regular = [r for r in records if not r["known_defect"]]
    failed = [r for r in regular if r["problems"]]
    probes = [r for r in records if r["known_defect"]]
    probe_failed = [r for r in probes if r["problems"]]
    for r in failed + probe_failed:
        tag = "known defect" if r["known_defect"] else "FAILED"
        print(f"{tag}: {r['problems'][0]}")
    return regular, failed, probes, probe_failed


def report_fail_frac(regular, failed, probes, probe_failed):
    print(f"fail_frac = {len(failed)}/{len(regular)} tasks")
    if probes:
        total = len(regular) + len(probes)
        bad = len(failed) + len(probe_failed)
        print(f"known-defect probes: {len(probe_failed)}/{len(probes)} "
              f"failing; fail_frac with probes = {bad}/{total} = "
              f"{bad / total:.4f}")


def end_to_end(args, ctx_factory):
    setups = [setup_probe(args) for _ in range(SETUP_REPEATS)]
    load_library()
    from tracer import NullTracer
    warm_up(args.workload)
    ctx = ctx_factory(NullTracer())
    min_tasks = MIN_TASKS[args.workload] if args.scale == "full" else 0
    records, measured, cycles = measure(ctx, args.workload, args.seed,
                                        seconds=args.seconds,
                                        min_tasks=min_tasks)
    regular, failed, probes, probe_failed = outcome(records)
    times = [r["dt"] for r in records]
    work = sum(r["work"] for r in records)
    tail_p = tail_percentile(args.workload, len(times))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (work / measured, "1/s"),
        "task_p50_s": (percentile(times, 50.0), "s"),
        "task_tail_s": (percentile(times, tail_p or 100.0), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"workload={args.workload} seed={args.seed} cycles={cycles} "
          f"tasks={len(times)} measured={measured:.3f}s")
    print(f"setup_s = {metrics['setup_s'][0]:.4f} s (median of "
          f"{len(setups)}: {', '.join(f'{s:.3f}' for s in setups)})")
    print(f"{WORK_UNIT[args.workload]}_per_s = {metrics['work_per_s'][0]:.6g}"
          f" 1/s ({work} {WORK_UNIT[args.workload]} in {measured:.3f} s)")
    print(f"task_p50_s = {metrics['task_p50_s'][0]:.4f} s "
          f"(n={len(times)} tasks)")
    print(f"task_tail_s = {metrics['task_tail_s'][0]:.4f} s "
          f"(p{tail_p:g} of n={len(times)} tasks)" if tail_p else
          f"task_tail_s = max of n={len(times)} tasks (fewer than 20)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB")
    for kind in dict.fromkeys(r["kind"] for r in records):
        dts = [r["dt"] for r in records if r["kind"] == kind]
        print(f"  {kind}: n={len(dts)} median {statistics.median(dts):.4f} s")
    report_fail_frac(regular, failed, probes, probe_failed)
    return regular, failed, metrics


def per_layer(args, ctx_factory):
    import layers
    from tracer import NullTracer, Tracer, patch_cli, patch_moments
    import levytails.cli
    import levytails.models
    import levytails as lt
    warm_up(args.workload)
    cycles = TRACE_CYCLES[args.workload]
    plain = ctx_factory(NullTracer())
    _, untraced_s, _ = measure(plain, args.workload, args.seed,
                               cycles=cycles)
    tr = Tracer()
    ctx = ctx_factory(tr)
    with patch_cli(tr, levytails.cli, lt), \
            patch_moments(tr, levytails.models):
        records, traced_s, _ = measure(ctx, args.workload, args.seed,
                                       cycles=cycles)
    regular, failed, probes, probe_failed = outcome(records)
    metrics = layers.layer_metrics(tr, untraced_s, traced_s,
                                   len(probe_failed))
    print(f"workload={args.workload} seed={args.seed} traced cycles={cycles}"
          f" tasks={len(records)}")
    print(f"tracing overhead: {traced_s - untraced_s:+.3f} s on "
          f"{untraced_s:.3f} s untraced "
          f"({metrics['trace.overhead_pct'][0]:+.1f}%)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    report_fail_frac(regular, failed, probes, probe_failed)
    return regular, failed, metrics


def environment(args):
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "caches": {},
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "seed": args.seed,
        "commit": "unknown (not a git checkout)",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = \
                (index / "size").read_text().strip()
        except OSError:
            pass
    import numpy
    import scipy
    info["numpy"] = numpy.__version__
    info["scipy"] = scipy.__version__
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            info["commit"] = proc.stdout.strip()
    return info


def run_all(args):
    """Run each workload in its own process; relay its report."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks: tiny task sizes, and a wrong reference value that
    # the correctness checks must catch.
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--inject-fault", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        load_library()
        warm_up(args.workload)
        return 0

    def ctx_factory(tr):
        return make_context(tr, args.workload, args.scale, args.inject_fault)

    try:
        if args.trace:
            load_library()
            regular, failed, metrics = per_layer(args, ctx_factory)
        else:
            regular, failed, metrics = end_to_end(args, ctx_factory)
    finally:
        shutil.rmtree(ROOT / ".bench_work", ignore_errors=True)
    print("env: " + json.dumps(environment(args), sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(regular),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
