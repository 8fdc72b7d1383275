"""gg1lab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics;
the line before it is the run record (machine, versions, digests).
Both are also written under .perfbench_out/.  See perfbench/README.md.
"""

import time

STARTED = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cap_blas_threads(n: int) -> None:
    """At most one BLAS thread per core this process may use; must run
    before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= n):
            os.environ[var] = str(n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gg1lab benchmark")
    parser.add_argument("--workload", required=True, choices=["verify", "replication-export", "mdp-solve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gg1lab", "__init__.py")):
        print(f"error: no gg1lab sources under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import record

    _cap_blas_threads(record.nproc())
    from perfbench import bench

    result, run_record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                   root=ROOT, started=STARTED)
    print(json.dumps({"record": run_record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
