"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics from untraced launches: one untimed warm-up (it fills a fresh
kernel cache of this invocation's own), set-up-only launches for about
30% of ``--seconds``, and one timed launch that runs whole periods of ops for about
``--seconds``.  ``--trace 1`` measures the per-layer metrics instead: a
traced warm-up, an untraced launch of about half the time, and a traced
launch of the same ops, whose spans are written to
``.perfbench_work/traces/`` when the benchmark ends.

Every launch's outputs are checked (``perfbench/references.json`` holds
the recorded references); the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the exit
code is non-zero on any failure.
"""

import os
import sys
from typing import NoReturn

# Pin BLAS before NumPy loads, here and in the forked rank processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def _fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    import argparse

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        _fail(f"no program sources under {os.path.join(ROOT, 'src')}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    import shutil
    import tempfile

    os.makedirs(WORK_DIR, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="kernels-", dir=WORK_DIR)
    os.environ["REPRO_KERNEL_CACHE"] = cache
    try:
        from perfbench.report import run_benchmark

        return run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), WORK_DIR)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
