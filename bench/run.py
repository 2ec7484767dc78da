"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a source checkout:

    python3 bench/run.py --workload train-aug --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, and the
spans are written under ``.bench_out/``. The last line of standard output
is ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See bench/README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def import_program():
    """Import sunet from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "sunet", "__init__.py")):
        sys.exit(f"bench: no sunet sources under {SRC}")
    sys.path.insert(0, SRC)
    import sunet
    if os.path.dirname(os.path.dirname(os.path.abspath(sunet.__file__))) != SRC:
        sys.exit(f"bench: sunet imported from {sunet.__file__}, not {SRC}")


def main(argv=None) -> int:
    import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    trace_path = (os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
                  if args.trace else None)
    try:
        result = workloads.Run(workloads.WORKLOADS[args.workload], args.seed,
                               args.seconds, work, trace_path).execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
