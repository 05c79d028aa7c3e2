"""Run every workload untraced and traced, and print one table of the results.

    python3 perfbench/summary.py [--seed N]

Runs for BENCHMARK.json's run_seconds.  Prints, per workload, every end-to-end metric with its unit, the failure
rate, the sample counts, the tracing overhead (traced minus untraced median
operation wall time) and the per-layer metrics of the traced run.  Each run
is a separate process, one after the other.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, check=True)
    lines = proc.stdout.splitlines()
    details = json.loads(lines[-2].removeprefix("details: "))
    return details, json.loads(lines[-1])


def value(metric):
    """A metric's value for printing; a failed run may leave it None."""
    return float("nan") if metric["value"] is None else metric["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    seconds = SPEC["run_seconds"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        details, plain = bench(workload, args.seed, seconds, 0)
        _, traced = bench(workload, args.seed, seconds, 1)
        inputs = details["inputs"]
        print(f"== {workload}  seed {args.seed}  correct {plain['correct'] and traced['correct']}")
        print(f"   inputs: {inputs['descriptor']}  requested {inputs['requested_vertices']}"
              f" -> {inputs.get('vertices')} vertices  |G| {inputs.get('group_order')}"
              f"  Steklov DOFs {inputs.get('steklov_dofs')}")
        env = details["environment"]
        print(f"   env: nproc {env['nproc']}  threads {env['threads']}  numpy {env['numpy']}"
              f"  scipy {env['scipy']}  load {env['load1_start']:.2f}->{env['load1_end']:.2f}"
              f"{'  OVERLOADED' if env['overloaded'] else ''}")
        print(f"   samples: {inputs.get('samples')}")
        for failure in details["failures"]:
            print(f"   FAILED: {failure}")
        for name, m in plain["metrics"].items():
            print(f"   {name:<22} {value(m):>14.6g} {m['unit']}")
        print(f"   {'failure_rate':<22} {plain['failed'] / plain['attempted']:>14.6g}"
              f" ({plain['failed']}/{plain['attempted']})")
        overhead = value(traced["metrics"]["trace.wall_s"]) - value(plain["metrics"]["wall_s"])
        print(f"   {'tracing_overhead_s':<22} {overhead:>14.6g} s")
        for name, m in traced["metrics"].items():
            if m["value"]:
                print(f"     {name:<40} {value(m):>14.6g} {m['unit']}")


if __name__ == "__main__":
    main()
