"""Run one workload end to end, check it, and print the result."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from typing import Dict, List

import numpy as np

from perfbench.harness import launch
from perfbench.metrics import design_checks, end_to_end, named_wall_metrics, per_layer
from perfbench.workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up-only launches per untraced run: at least ``SETUP_MIN``, and more
#: until they have taken ``SETUP_SHARE`` of ``--seconds``.  With the timed
#: launch's own set-up they give the median ``setup_s``; on a shared 2-vCPU
#: VM one set-up's CPU time varies by about 25% between launches, so the
#: median needs many.
SETUP_MIN = 6
SETUP_SHARE = 0.3

#: Op fields that are measured, not counted; everything else must repeat exactly.
TIMED_FIELDS = ("t0", "t1", "cpu", "parent_cpu", "timings")


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as f:
        return json.load(f)


def reference_key(wl, seed: int) -> str:
    return "any" if getattr(wl, "seed_unused", False) else str(seed)


def declared_metrics(trace: bool) -> List[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def host_line() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy builds without the dict form
        blas_build = "unknown"
    return (
        f"# host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas_build} "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')} "
        f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS')}"
    )


def exact_fields(op: dict) -> dict:
    return {k: v for k, v in op.items() if k not in TIMED_FIELDS}


def count_mismatches(a, b, nops: int, what: str) -> List[str]:
    """Exact per-op counts of two launches of the same inputs must agree."""
    bad = []
    for ra, rb in zip(a.ranks, b.ranks):
        for i in range(nops):
            ea, eb = exact_fields(ra["ops"][i]), exact_fields(rb["ops"][i])
            if ea != eb:
                bad.append(f"{what}: rank {ra['rank']} op {i} counts differ: {ea} != {eb}")
                break
    return bad


def check_launch(wl, run, ref) -> List[str]:
    rank0 = run.ranks[0]
    if rank0["check"] is None:
        return [f"only {run.nops} ops ran; the check needs {wl.check_periods} periods"]
    return wl.verify(rank0["check"], rank0["finish"], ref)


def write_trace(work_dir: str, name: str, seed: int, launches: Dict[str, object]) -> str:
    out_dir = os.path.join(work_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-seed{seed}.json")
    payload = {
        label: [list(s) for r in l.ranks for s in r["spans"]] for label, l in launches.items()
    }
    with open(path, "w") as f:
        json.dump({"fields": ["name", "start", "end", "parent", "rank", "op"], **payload}, f)
    return path


def print_wall_metrics(wl, run) -> None:
    for label, (value, unit, n) in named_wall_metrics(wl, run).items():
        print(f"{label} = {value:.6g} {unit} (n={n})")


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, work_dir: str) -> int:
    if name not in WORKLOADS:
        print(f"perfbench: unknown workload {name!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[name]
    ranks = min(wl.ranks, os.cpu_count() or 1)
    print(f"# perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(host_line())
    print(f"# ranks={ranks}" + (" backend=process start_method=fork" if ranks > 1 else " in-process SerialComm"))
    if getattr(wl, "seed_unused", False):
        print(f"# the seed is unused: {name} takes no seeded input")
    inputs = wl.inputs(seed)
    ref = load_references().get(name, {}).get(reference_key(wl, seed)) if ranks == wl.ranks else None
    print(f"# inputs={json.dumps(inputs)} reference={'recorded' if ref is not None else 'none'}")
    print(f"# one item = {wl.item}")

    attempted = 0
    failures: List[str] = []
    values: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    try:
        if trace:
            warm = launch(name, inputs, "warmup", trace=True, ops=wl.warmup_ops)
            untraced = launch(name, inputs, "run", seconds=seconds / 2)
            traced = launch(name, inputs, "run", trace=True, periods=untraced.nops // wl.period)
            checked = [untraced, traced]
            failures += count_mismatches(warm, untraced, wl.warmup_ops, "warm-up vs untraced")
            failures += count_mismatches(untraced, traced, traced.nops, "untraced vs traced")
            values = per_layer(wl, warm, untraced, traced, [warm, untraced, traced])
            print_wall_metrics(wl, untraced)
            for label, share in design_checks(wl, traced).items():
                print(f"design: {label} = {share:.3f}")
            path = write_trace(work_dir, name, seed, {"warmup": warm, "traced": traced})
            print(f"# spans written to {os.path.relpath(path, ROOT)}")
        else:
            warm = launch(name, inputs, "warmup", ops=wl.warmup_ops)
            setups = []
            t0 = time.perf_counter()
            while len(setups) < SETUP_MIN or time.perf_counter() - t0 < SETUP_SHARE * seconds:
                setups.append(launch(name, inputs, "setup"))
            main = launch(name, inputs, "run", seconds=seconds)
            checked = [main]
            failures += count_mismatches(warm, main, wl.warmup_ops, "warm-up vs timed")
            parent_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            measured = end_to_end(wl, setups, main, parent_rss)
            values = {k: v for k, (v, _) in measured.items()}
            samples = {k: n for k, (_, n) in measured.items()}
            print_wall_metrics(wl, main)
        for run in checked:
            attempted += run.nops
            failures += check_launch(wl, run, ref)
    except Exception:  # noqa: BLE001 - the benchmark's boundary: report, then fail
        traceback.print_exc()
        failures.append("a launch raised")
        attempted = max(attempted, 1)

    metrics = {}
    for spec in declared_metrics(trace):
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    if not failures:
        for spec in declared_metrics(trace):
            if spec["name"] not in metrics:
                failures.append(f"metric {spec['name']} was not measured")
        for key, m in metrics.items():
            n = f" (n={samples[key]})" if key in samples else ""
            print(f"{key} = {m['value']:.6g} {m['unit']}{n}")
    for msg in failures:
        print(f"FAILED: {msg}")
    correct = not failures
    print(f"error_rate = {0.0 if correct else 1.0} ratio (n={attempted} ops)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": 0 if correct else attempted,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1
