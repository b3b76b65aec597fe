"""Entry point of the dape benchmark.

    python3 perfbench/run.py --workload train_default --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run it from the root of a checkout: it imports `dape` from that checkout's
`src/` and nothing else. `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer ones from a traced run. `--workload all` runs every workload in
a process of its own and prints each one's report. The last line of a single
workload's output is its result as one JSON object.

`--write-pins` records the counts and values that the default seed is checked
against (`pinned.json`); use it only when a change is meant to alter them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# Pinned before numpy loads: one BLAS thread keeps the single-caller loop
# within one core and its timing free of thread hand-offs.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv, bench) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="dape benchmark")
    p.add_argument("--workload", required=True, choices=[*bench.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=bench.DEFAULT_SEED, help="corpus seed")
    p.add_argument("--seconds", type=float, default=30.0, help="timed op time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-pins", action="store_true")
    return p.parse_args(argv)


def run_all(args, workloads) -> int:
    """Each workload in its own process, one after the other."""
    ok = True
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    if not (SRC / "dape" / "__init__.py").is_file():
        print(f"perfbench: no dape sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    args = parse_args(argv, bench)
    if args.workload == "all":
        return run_all(args, bench.WORKLOADS)
    return bench.main(args, BLAS_ENV)


if __name__ == "__main__":
    sys.exit(main())
