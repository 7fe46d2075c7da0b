"""Do two independent sets of runs agree?  The benchmark's steadiness check.

    python3 perfbench/steady.py [--runs 10] [--workloads select,fleet]

Run from the root of a checkout.  For each workload it makes two sets of
``--runs`` untraced runs, each run with its own seed (set A uses seeds
1..N, set B seeds N+1..2N), and prints for every end-to-end metric of
BENCHMARK.json both medians, both sets' quartiles, the spread (distance
between the quartiles over the median) and whether the two sets agree:
both spreads within the metric's bound, and the two medians apart by no
more than the bound, in either direction.  It also checks that the share
of failed operations is identical in every run.  Exit code 1 when
anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int) -> tuple:
    """The run's result line and its last stderr line (set-ups, steal)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            proc.stderr.strip().splitlines()[-1])


def spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all of BENCHMARK.json)")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    ok = True
    for workload in workloads:
        sets = []
        for first in (1, args.runs + 1):
            results = []
            for seed in range(first, first + args.runs):
                result, note = one_run(workload, seed, spec["run_seconds"])
                print(f"{workload} seed={seed} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"{json.dumps(result['metrics'])}\n  {note}",
                      file=sys.stderr, flush=True)
                ok &= result["correct"]
                results.append(result)
            sets.append(results)
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        print(f"\n{workload}: failed share in every run: "
              f"{sorted(shares)}{'' if len(shares) == 1 else '  DIFFERS'}")
        ok &= len(shares) == 1
        print(f"{'metric':28s} {'median A':>12s} {'median B':>12s} "
              f"{'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in s])
                     for s in sets]
            (ma, _, _, sa), (mb, _, _, sb) = stats
            agree = abs(mb - ma) / ma <= bound and sa <= bound and sb <= bound
            ok &= agree
            print(f"{name:28s} {ma:12.5g} {mb:12.5g} {sa:9.3f} {sb:9.3f} "
                  f"{bound:6.2f}  {'agree' if agree else 'DISAGREE'}"
                  f"  (quartiles A {stats[0][1]:.5g}..{stats[0][2]:.5g}, "
                  f"B {stats[1][1]:.5g}..{stats[1][2]:.5g})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
