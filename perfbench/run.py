"""sparsedl benchmark: one workload per process.

Run from the root of a sparsedl checkout:

    python3 perfbench/run.py --workload dct-256-s20 --seed 1 --seconds 30 --trace 0

BLAS threads are pinned to the workload's count before numpy loads, and
the library is imported from the checkout's ``src`` directory.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``,
per-layer ones with ``--trace 1``.  The full record, with spans, goes to
``perfbench/out/``.  Without ``--workload``, every workload runs, each in
a fresh process, and a table of their metrics is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = status or proc.returncode
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:26s} {m['value']:.6g} {m['unit']}")
        if not result["correct"]:
            status = status or 1
    return status


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = Path.cwd() / "src"
    if not (src / "sparsedl" / "__init__.py").is_file():
        print("perfbench: no src/sparsedl here; run from the root of a sparsedl checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    w = WORKLOADS[args.workload]
    for var in THREAD_VARS:
        os.environ[var] = str(w.threads)
    sys.path.insert(0, str(src))

    import bench

    return bench.main(w, args.seed, args.seconds, bool(args.trace), THREAD_VARS, loadavg)


if __name__ == "__main__":
    sys.exit(main())
