#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny task sizes.

    python3 bench/selftest.py

For every workload it checks that an untraced run prints exactly the
end-to-end metrics BENCHMARK.json names, a traced run exactly the per-layer
ones, each with its unit; that both pass their correctness checks; that
two traced runs give identical counts; and that a deliberately wrong
reference value (``--inject-fault``) shows up as failed tasks.  Exits 1 on
any problem.  Takes about two minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_UNITS = ("count", "B")


def run(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:"
                           f" {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_problems(label, result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if got != declared:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(got))}, "
                        f"extra {sorted(set(got) - set(declared))}, "
                        f"units {[n for n in got if n in declared and got[n] != declared[n]]}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        problems += metric_problems(f"{workload} trace 0",
                                    run(workload, 0), end_to_end)
        first, second = run(workload, 1), run(workload, 1)
        problems += metric_problems(f"{workload} trace 1", first, per_layer)
        for name, unit in per_layer.items():
            if unit in COUNT_UNITS and name in first["metrics"] and \
                    first["metrics"][name] != second["metrics"].get(name):
                problems.append(f"{workload}: count {name} differs between "
                                f"two traced runs")
    for workload in ("curves", "audit"):
        faulty = run(workload, 0, "--inject-fault")
        if faulty["correct"] or faulty["failed"] == 0:
            problems.append(f"{workload}: a wrong reference value went "
                            f"unnoticed")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {'FAILED' if problems else 'passed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
