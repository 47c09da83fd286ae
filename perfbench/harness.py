"""Launch a workload's rank program, time its ops, and collect the results.

One *launch* is one ``Machine.run`` (or, for one-rank workloads, one call
on a :class:`SerialComm` in this process, so the parallel layer is
bypassed).  The rank program sets the workload up, then runs whole
*periods* of ops (a period is the workload's repeating unit, e.g. eight
RK steps and one AMR cycle) until the time budget is spent, and records
per op its start, end, CPU time, local work, counts and the exact
:class:`CommStats` delta.  CPU time covers the parent process too: in a
``Machine.run`` launch the parent forks the ranks and routes every
collective, so rank 0 also reads the parent's CPU clock around each op
and at the end of set-up.  After ``check_periods`` periods it takes the
workload's correctness snapshot, outside any op; after the last period it
runs the workload's final checks.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from typing import Any, Dict, List, Optional

from repro.parallel import Machine, RunConfig, SerialComm

from perfbench.comm_proxy import SpannedComm
from perfbench.spans import Recorder
from perfbench.workloads import WORKLOADS

#: ``Recorder.op`` while correctness checks run: their spans belong to no op.
CHECK_OP = -2


def _stats_snapshot(stats) -> Dict[str, tuple]:
    return {name: (s.calls, s.messages, s.bytes_sent) for name, s in stats.ops.items()}


def _stats_delta(after: Dict[str, tuple], before: Dict[str, tuple]) -> Dict[str, tuple]:
    out = {}
    for name, a in after.items():
        b = before.get(name, (0, 0, 0))
        d = tuple(x - y for x, y in zip(a, b))
        if any(d):
            out[name] = d
    return out


def _parent_cpu_clock() -> int:
    """Clock id of the parent process's CPU time (all its threads).

    This is what ``clock_getcpuclockid(getppid())`` returns on Linux
    (``~pid << 3 | CPUCLOCK_SCHED``); Python does not expose that call.
    """
    return (~os.getppid() << 3) | 2


def make_job(
    workload: str,
    inputs: dict,
    mode: str,
    trace: bool = False,
    seconds: float = 0.0,
    periods: Optional[int] = None,
    ops: int = 0,
    forked: bool = False,
) -> Dict[str, Any]:
    """The job a rank program runs; ``mode`` is ``"setup"``, ``"warmup"`` or
    ``"run"``, and ``forked`` says the ranks are child processes."""
    return {
        "workload": workload,
        "inputs": inputs,
        "mode": mode,
        "trace": trace,
        "seconds": seconds,
        "periods": periods,
        "ops": ops,
        "forked": forked,
    }


def rank_program(comm, job: Dict[str, Any]) -> Dict[str, Any]:
    """The SPMD program every launch runs (module level, so it pickles)."""
    t_enter = time.perf_counter()
    wl = WORKLOADS[job["workload"]]
    # A forked rank's own CPU clock starts at the fork; the parent's CPU is
    # counted once, by rank 0.
    pclock = _parent_cpu_clock() if job["forked"] and comm.rank == 0 else None

    def parent_cpu() -> float:
        return time.clock_gettime(pclock) if pclock is not None else 0.0

    rec = Recorder(comm.rank, job["trace"])
    layer_comm = SpannedComm(comm, rec) if job["trace"] and comm.size > 1 else comm
    st = wl.setup(layer_comm, rec, job["inputs"])
    comm.barrier()
    out: Dict[str, Any] = {
        "rank": comm.rank,
        "t_enter": t_enter,
        "t_ready": time.perf_counter(),
        "cpu_ready": time.process_time(),
        "parent_cpu_ready": parent_cpu(),
        "setup_work": wl.work(st),
        "ops": [],
        "check": None,
        "finish": None,
    }
    if job["mode"] != "setup":
        _run_ops(comm, wl, st, rec, job, out, parent_cpu)
        rec.op = CHECK_OP
        if job["mode"] == "run":
            out["finish"] = wl.finish(st)
    out["spans"] = rec.spans
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _run_ops(comm, wl, st, rec, job, out, parent_cpu) -> None:
    ops: List[Dict[str, Any]] = out["ops"]
    spent = last = 0.0
    periods = 0
    while True:
        go = None
        if comm.rank == 0:
            if job["mode"] == "warmup":
                go = len(ops) < job["ops"]
            elif job["periods"] is not None:
                go = periods < job["periods"]
            else:
                go = periods < wl.check_periods or spent + last <= job["seconds"]
        if not comm.bcast(go):
            return
        p0 = time.perf_counter()
        for _ in range(wl.period):
            i = len(ops)
            rec.op = i
            s0 = _stats_snapshot(comm.stats)
            p0_cpu = parent_cpu()
            c0 = time.process_time()
            t0 = time.perf_counter()
            rec_op = wl.op(st, rec, i)
            t1 = time.perf_counter()
            rec_op.update(
                t0=t0,
                t1=t1,
                cpu=time.process_time() - c0,
                parent_cpu=parent_cpu() - p0_cpu,
                work=wl.work(st),
                comm=_stats_delta(_stats_snapshot(comm.stats), s0),
            )
            ops.append(rec_op)
            if job["mode"] == "warmup" and len(ops) >= job["ops"]:
                return
        last = time.perf_counter() - p0
        spent += last
        periods += 1
        rec.op = CHECK_OP
        if periods == wl.check_periods:
            out["check"] = wl.check(st)


class Launch:
    """What one launch returned: per-rank outputs plus the parent's view."""

    def __init__(self, t_call: float, c_call: float, ranks: List[Dict[str, Any]], machine: bool) -> None:
        self.t_call = t_call
        self.c_call = c_call  # the parent's CPU clock at the launch call
        self.ranks = ranks
        self.machine = machine  # launched through Machine.run, not in-process

    @property
    def setup_s(self) -> float:
        """Wall time from the launch call until every rank is ready."""
        return max(r["t_ready"] for r in self.ranks) - self.t_call

    @property
    def setup_cpu_s(self) -> float:
        """CPU seconds from the launch call until every rank is ready: the
        parent's (fork and routing) plus every rank's.  An in-process rank
        is the parent itself, so its clock alone covers both."""
        own = sum(r["cpu_ready"] for r in self.ranks)
        return own + self.ranks[0]["parent_cpu_ready"] - self.c_call

    @property
    def launch_s(self) -> float:
        return max(r["t_enter"] for r in self.ranks) - self.t_call

    @property
    def nops(self) -> int:
        return len(self.ranks[0]["ops"])

    def op_cpu(self, i: int) -> float:
        """CPU seconds of op ``i``: every rank's plus the parent's."""
        return sum(r["ops"][i]["cpu"] + r["ops"][i]["parent_cpu"] for r in self.ranks)

    def op_seconds(self, i: int) -> float:
        """Wall time of op ``i``: first rank in to last rank out."""
        return max(r["ops"][i]["t1"] for r in self.ranks) - min(r["ops"][i]["t0"] for r in self.ranks)


def launch(
    workload: str,
    inputs: dict,
    mode: str,
    trace: bool = False,
    seconds: float = 0.0,
    periods: Optional[int] = None,
    ops: int = 0,
) -> Launch:
    """Run one launch; ``mode`` is ``"setup"``, ``"warmup"`` or ``"run"``."""
    wl = WORKLOADS[workload]
    forked = min(wl.ranks, os.cpu_count() or 1) > 1
    job = make_job(workload, inputs, mode, trace, seconds, periods, ops, forked)
    # Free the previous launch's state (app objects hold reference cycles),
    # so its garbage neither inflates this one's memory nor its GC pauses.
    gc.collect()
    if not forked:
        # A fresh start on a warm disk cache, as a new process would see it.
        from repro.mangll.compiler.cache import default_cache

        default_cache().clear_memory()
        c_call, t_call = time.process_time(), time.perf_counter()
        return Launch(t_call, c_call, [rank_program(SerialComm(), job)], machine=False)
    with Machine(RunConfig(size=wl.ranks, backend="process", start_method="fork")) as machine:
        c_call, t_call = time.process_time(), time.perf_counter()
        result = machine.run(rank_program, job)
    return Launch(t_call, c_call, result.values, machine=True)
