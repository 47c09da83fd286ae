"""Record the correctness references of every workload.

    python3 perfbench/record_references.py [--seeds N] [workload ...]

Runs each workload's check prefix (``check_periods`` periods, untimed) for
seeds ``0..N-1`` (once for a workload that takes no seed) and writes the
snapshots to ``perfbench/references.json``.  Run it only when a change is
meant to alter a workload's outputs, and say so in the change.
"""

import argparse
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
os.environ.setdefault("REPRO_KERNEL_CACHE", os.path.join(ROOT, ".perfbench_work", "kernels"))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=16)
    p.add_argument("workloads", nargs="*")
    args = p.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.harness import launch
    from perfbench.report import load_references, reference_key
    from perfbench.workloads import WORKLOADS

    refs = load_references()
    for name in args.workloads or list(WORKLOADS):
        wl = WORKLOADS[name]
        seeds = [0] if getattr(wl, "seed_unused", False) else range(args.seeds)
        for seed in seeds:
            run = launch(name, wl.inputs(seed), "run", seconds=0.0)
            check = run.ranks[0]["check"]
            problems = wl.verify(check, run.ranks[0]["finish"], None)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[reference_key(wl, seed)] = check
            print(name, seed, check, flush=True)
    with open(os.path.join(ROOT, "perfbench", "references.json"), "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
