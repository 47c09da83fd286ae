"""End-to-end and per-layer metrics from launches.

End-to-end metrics come from untraced launches only.  ``setup_s`` and
``cpu_us_per_item`` are CPU seconds of every process of a launch: the
ranks and the parent, which forks them and routes every collective.  CPU
time spreads less than wall time between runs on a shared host, but it
cannot see a rank waiting for a slower one, so ``wall_throughput`` keeps
one wall-clock figure gated; the other wall figures are printed by name
(``named_wall_metrics``).  Per-layer metrics come from the traced launch:
a per-call value is the median over calls on one rank, then the max over
ranks; self time is a span's duration minus the part its children cover.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

from perfbench.spans import SETUP_OP, self_times, covered_time

P4EST_CALLS = ("refine", "coarsen", "balance", "partition", "ghost", "nodes")
COLLECTIVES = ("exchange", "allgather", "allreduce", "alltoall")


def _median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def tail(samples: Sequence[float]):
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``; with ten samples or fewer there is
    no such percentile and the value is the median (percentile 50).
    """
    n = len(samples)
    if n <= 10:
        return _median(samples), 50, n
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)], pct, n


# -- end to end ----------------------------------------------------------------------


def kind_durations(launch, kind: str) -> List[float]:
    return [
        launch.op_seconds(i)
        for i, op in enumerate(launch.ranks[0]["ops"])
        if op["kind"] == kind
    ]


def _work(wl, launch) -> float:
    return sum(wl.throughput_work(op) for op in launch.ranks[0]["ops"])


def run_seconds(launch) -> float:
    """Wall time of the timed section: the sum of its ops' wall times."""
    return sum(launch.op_seconds(i) for i in range(launch.nops))


def end_to_end(wl, setups: Sequence, main, parent_rss_mb: float) -> Dict[str, tuple]:
    """``name -> (value, samples)`` for the end-to-end metrics."""
    launches = list(setups) + [main]
    rss = max([parent_rss_mb] + [r["maxrss_mb"] for l in launches for r in l.ranks])
    cpu = sum(main.op_cpu(i) for i in range(main.nops))
    return {
        "setup_s": (_median([l.setup_cpu_s for l in launches]), len(launches)),
        "cpu_us_per_item": (cpu / _work(wl, main) * 1e6, main.nops),
        "wall_throughput": (_work(wl, main) / run_seconds(main), main.nops),
        "peak_rss_mb": (rss, sum(len(l.ranks) for l in launches) + 1),
    }


def named_wall_metrics(wl, run) -> Dict[str, tuple]:
    """The wall-time figures by their workload names (cycle_p50_s,
    step_tail_s, ...): ``name -> (value, unit, samples)``."""
    out: Dict[str, tuple] = {}
    out["setup_wall_s"] = (run.setup_s, "s", 1)
    out["run_s"] = (run_seconds(run), "s", run.nops)
    for kind in ("cycle", "step", "adapt", "picard"):
        xs = kind_durations(run, kind)
        if not xs:
            continue
        if kind == "picard":
            # The MINRES count alternates, so a per-iteration median is bimodal.
            out["picard_s"] = (sum(xs) / len(xs), "s", len(xs))
        else:
            out[f"{kind}_p50_s"] = (_median(xs), "s", len(xs))
        if kind == wl.primary:
            value, pct, n = tail(xs)
            out[f"{kind}_tail_s"] = (value, f"s (p{pct})", n)
    return out


# -- per-layer ------------------------------------------------------------------------


def _local_work(rank: dict, op: int) -> int:
    return rank["setup_work"] if op == SETUP_OP else rank["ops"][op]["work"]


def _per_call_us(ranks, name: str, with_setup: bool = False) -> float:
    """Median self time per call per unit of local work, max over ranks (µs)."""
    best = 0.0
    for r in ranks:
        st = self_times(r["spans"])
        vals = [
            t / max(_local_work(r, s.op), 1) * 1e6
            for s, t in zip(r["spans"], st)
            if s.name == name and (s.op >= 0 or (with_setup and s.op == SETUP_OP))
        ]
        best = max(best, _median(vals))
    return best


def _op_window_totals(rank: dict):
    """Per-rank sums over op windows: op time, comm time, per-name self time."""
    st = self_times(rank["spans"])
    op_time = sum(op["t1"] - op["t0"] for op in rank["ops"])
    by_name: Dict[str, float] = {}
    for s, t in zip(rank["spans"], st):
        if s.op >= 0:
            by_name[s.name] = by_name.get(s.name, 0.0) + t
    comm = sum(t for k, t in by_name.items() if k.startswith("parallel."))
    return op_time, comm, by_name


def _ops_median(ops, key, kind=None) -> float:
    return _median([op[key] for op in ops if key in op and (kind is None or op["kind"] == kind)])


def per_layer(wl, warm, untraced, traced, launches: Sequence) -> Dict[str, float]:
    ranks = traced.ranks
    ops0 = ranks[0]["ops"]
    # Exact counts come from the ops every launch runs (the checked prefix),
    # so they repeat exactly however many ops the time budget allowed.
    nfixed = wl.check_periods * wl.period
    fixed = ops0[:nfixed]
    m: Dict[str, float] = {}

    # p4est
    for call in P4EST_CALLS:
        m[f"p4est.{call}_us_per_oct"] = _per_call_us(ranks, f"p4est.{call}")
    m["p4est.octants"] = _ops_median(fixed, "octants")
    m["p4est.ghost_octants"] = _median(
        [sum(r["ops"][i]["local_ghost_octants"] for r in ranks)
         for i, op in enumerate(fixed) if "local_ghost_octants" in op]
    )
    m["p4est.balance_added"] = _ops_median(fixed, "balance_added")
    m["p4est.partition_moved"] = _ops_median(fixed, "partition_moved")

    # amr
    m["amr.adapt_us_per_elem"] = _per_call_us(ranks, "amr.adapt_and_rebalance")
    for key in ("refined", "coarsened", "moved"):
        m[f"amr.{key}"] = _ops_median(fixed, key, "adapt")

    # mangll
    m["mangll.rhs_us_per_elem"] = _per_call_us(ranks, "mangll.rhs")
    shares = []
    for r in ranks:
        step_time = sum(op["t1"] - op["t0"] for op in r["ops"] if op["kind"] == "step")
        st = self_times(r["spans"])
        rk = sum(t for s, t in zip(r["spans"], st) if s.name == "mangll.lsrk45_step" and s.op >= 0)
        shares.append(rk / step_time if step_time else 0.0)
    m["mangll.rk_update_share"] = max(shares)
    m["mangll.mesh_us_per_elem"] = _per_call_us(ranks, "mangll.build_mesh", with_setup=True)
    m["mangll.bind_us_per_elem"] = _per_call_us(ranks, "mangll.bind", with_setup=True)
    # What the empty kernel cache adds to set-up; the binds of seismic-static
    # run inside SeismicRun(...), so a bind span alone would miss them.
    m["mangll.compile_cold_s"] = warm.setup_s - traced.setup_s
    m["mangll.rhs_gflops_computed"] = _median(
        [op["flops"] / traced.op_seconds(i) / 1e9 for i, op in enumerate(ops0) if "flops" in op]
    )

    # solvers (through StokesResult)
    picards = [op for op in ops0 if op["kind"] == "picard"]
    per_period = [fixed[p * wl.period:(p + 1) * wl.period] for p in range(wl.check_periods)]
    m["solvers.minres_iters"] = _median(
        [sum(op.get("minres_iters", 0) for op in ops) for ops in per_period] if picards else []
    )
    m["solvers.vcycles"] = _median(
        [sum(op.get("vcycles", 0) for op in ops) for ops in per_period] if picards else []
    )
    vc = sum(op["vcycles"] for op in picards)
    m["solvers.vcycle_ms"] = (
        sum(op["timings"]["vcycle"] for op in picards) / vc * 1e3 if vc else 0.0
    )
    for key in ("amg_setup", "assemble", "krylov_other"):
        m[f"solvers.{key}_s"] = _median([op["timings"][key] for op in picards])
    m["solvers.converged_ratio"] = (
        sum(op["converged"] for op in picards) / len(picards) if picards else 0.0
    )

    # apps
    other = []
    for i, op in enumerate(ops0):
        if op["kind"] == "picard":
            span = [s for s in ranks[0]["spans"] if s.name == "apps.picard_step" and s.op == i]
            other.append(span[0].end - span[0].start - sum(op["timings"].values()))
    m["apps.picard_other_s"] = _median(other)
    marks = []
    for i in range(len(ops0)):
        per_rank = []
        for r in ranks:
            st = self_times(r["spans"])
            per_rank.append(
                sum(t for s, t in zip(r["spans"], st) if s.name == "apps.front_distance" and s.op == i)
            )
        if max(per_rank) > 0:
            marks.append(max(per_rank))
    m["apps.mark_s"] = _median(marks)

    # parallel
    m["parallel.launch_s"] = _median([l.launch_s for l in launches if l.machine])
    for name in COLLECTIVES:
        m[f"parallel.{name}_calls"] = _median(
            [sum(r["ops"][i]["comm"].get(name, (0, 0, 0))[0] for r in ranks) for i in range(nfixed)]
        )
        m[f"parallel.{name}_bytes"] = _median(
            [sum(r["ops"][i]["comm"].get(name, (0, 0, 0))[2] for r in ranks) for i in range(nfixed)]
        )
        m[f"parallel.{name}_us"] = max(
            _median([(s.end - s.start) * 1e6 for s in r["spans"] if s.name == f"parallel.{name}" and s.op >= 0])
            for r in ranks
        )
    totals = [_op_window_totals(r) for r in ranks]
    m["parallel.comm_share"] = max(comm / op_time for op_time, comm, _ in totals)
    busy = [op_time - comm for op_time, comm, _ in totals]
    m["parallel.imbalance"] = max(busy) / (sum(busy) / len(busy))

    # the benchmark itself
    m["bench.trace_overhead"] = run_seconds(traced) / run_seconds(untraced) - 1.0
    gaps = []
    for r in ranks:
        op_time = covered = 0.0
        for i, op in enumerate(r["ops"]):
            op_time += op["t1"] - op["t0"]
            covered += covered_time([s for s in r["spans"] if s.op == i], op["t0"], op["t1"])
        gaps.append(1.0 - covered / op_time)
    m["bench.untraced_gap"] = max(gaps)
    m["bench.op_tail_s"] = named_wall_metrics(wl, untraced)[f"{wl.primary}_tail_s"][0]
    return m


def design_checks(wl, traced) -> Dict[str, float]:
    """Shares of op time the workload design rests on (max over ranks)."""

    def share(prefixes) -> float:
        return max(
            sum(t for k, t in by_name.items() if k.startswith(prefixes)) / op_time
            for op_time, _, by_name in map(_op_window_totals, traced.ranks)
        )

    picards = [op for op in traced.ranks[0]["ops"] if op["kind"] == "picard"]
    solver = sum(sum(op["timings"].values()) for op in picards)
    run_s = run_seconds(traced)
    return {
        "p4est+parallel self time / op time": share(("p4est.", "parallel.")),
        "mangll.rhs self time / op time": share(("mangll.rhs",)),
        "parallel time / op time": share(("parallel.",)),
        "StokesResult timings / run_s": solver / run_s,
    }
