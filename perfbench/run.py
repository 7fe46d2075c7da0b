"""The repo's benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload select --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics against the real server processes; ``--trace 1`` replays the same
request stream in-process with the layer functions wrapped and reports
the per-layer split (README.md).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when the run completed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import sys
from pathlib import Path

import gen  # this directory is on sys.path: it holds the script

ROOT = Path.cwd()
#: Workloads and metrics, with their units, are BENCHMARK.json's.
SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


def named(metrics: dict, kind: str) -> dict:
    """``{name: {"value", "unit"}}`` for every ``kind`` metric of the spec."""
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in SPEC[kind]}


def _checkout_ok() -> bool:
    needed = [ROOT / "src" / "repro" / "cli.py"] + [
        ROOT / "data" / f"{name}.ulm" for name in gen.SHIPPED
    ]
    missing = [str(path) for path in needed if not path.is_file()]
    if missing:
        print(f"perfbench: not a checkout of the program (missing "
              f"{', '.join(missing)})", file=sys.stderr)
    return not missing


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    import harness

    bench = harness.Bench(ROOT, workload, seed)
    try:
        setups = [bench.setup() for _ in range(SETUPS)]
        stream = bench.new_stream()
        record = bench.drive(seconds, stream)
        correct = bench.correct(record)
        metrics = {"setup_s": statistics.median(setups), **record.metrics()}
        print(f"perfbench: {workload} seed={seed} setups={setups} "
              f"retried={record.retried} double_applied={record.double_applied} "
              f"warmup_unavailable={bench.setup_unavailable} "
              f"host_steal_s={record.steal_seconds:.2f}", file=sys.stderr)
        return {
            "correct": correct,
            "attempted": record.attempted,
            "failed": record.failed,
            "metrics": metrics,
        }
    finally:
        bench.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _checkout_ok():
        return 2
    # Byte-compile the program first: every server launch then loads the
    # same cached bytecode, and the first run's set-up costs what later
    # runs' do.
    compileall.compile_dir(ROOT / "src", quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    if args.trace:
        import layers

        result = layers.run(ROOT, args.workload, args.seed, args.seconds)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    result["metrics"] = named(result["metrics"],
                              "per_layer" if args.trace else "end_to_end")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
