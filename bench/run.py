"""levitherm benchmark entry point.

Run from the root of a source checkout:

    python3 bench/run.py --workload calibrate --seed 1 --seconds 36 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  Progress and
any failed check go to standard error.  The program under test is
imported from `./src`; without it the benchmark exits with status 2.
"""

import json
import os
import sys
from pathlib import Path

# Cap BLAS/OpenMP threads before anything imports numpy.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "levitherm" / "cli.py").is_file():
        print(f"error: no levitherm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness
    workloads = harness.SPEC["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads), file=sys.stderr)
        return 2
    import levitherm
    if Path(levitherm.__file__).resolve().parent != (src / "levitherm").resolve():
        print(f"error: levitherm imported from {levitherm.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    result = harness.run_workload(workloads[args.workload], args.seed,
                                  args.seconds, bool(args.trace),
                                  root / ".bench_work", src,
                                  name=args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
