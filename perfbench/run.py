"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload fast-static --seed 1 --seconds 10 --trace 0

The last line of standard output is the result; the line before it is a
detail record (environment, sample counts, failures).  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the load is sized for two cores, and the
# pool's workers inherit this.  Must be set before numpy is imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker the process pool started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result, detail = harness.run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()
    if not detail["environment"]["comparable"]:
        print("perfbench: kernel providers differ from expected_environment.json; "
              "this result is not comparable", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
