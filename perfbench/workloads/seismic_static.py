"""seismic-static: the Fig. 9 run on one rank.

Elastic dG of degree 3 on the wavelength-adapted PREM shell, built once
in set-up; then LSRK steps with a Ricker point source whose position the
seed draws.  The compiled elastic right-hand side does almost all of the
stepping work; p4est appears only in set-up, and the parallel layer is
bypassed (one rank, no communicator proxy).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from repro.apps.dgea.driver import SeismicConfig, SeismicRun
from repro.mangll.rk import lsrk45_step

from perfbench.workloads._shell import random_rotation

SOURCE_RADIUS = 0.85
REL_TOL = 1e-6  # against recorded references; allows BLAS kernel differences across CPUs


def config(source_position) -> SeismicConfig:
    return SeismicConfig(
        degree=3,
        source_frequency=8.0,
        base_level=1,
        max_level=2,
        points_per_wavelength=4.0,
        source_position=tuple(source_position),
    )


class _SpannedOperator:
    """Forwards to a bound operator, recording a span around ``rhs``."""

    def __init__(self, op, rec) -> None:
        self._op = op
        self.rhs = rec.wrap("mangll.rhs", op.rhs)

    def __getattr__(self, name):
        return getattr(self._op, name)


class SeismicStatic:
    name = "seismic-static"
    ranks = 1
    period = 1
    check_periods = 4
    warmup_ops = 1
    primary = "step"
    item = "one global unknown advanced one RK step (dof_steps_per_s)"

    def inputs(self, seed: int) -> dict:
        return {"source": (random_rotation(seed) @ np.array([0.0, 0.0, SOURCE_RADIUS])).tolist()}

    def setup(self, comm, rec, inputs):
        st = SimpleNamespace()
        st.run = rec.call("apps.SeismicRun", SeismicRun, comm, config(inputs["source"]))
        if rec.enabled:
            st.run.solver = _SpannedOperator(st.run.solver, rec)
        st.rhs = rec.wrap("apps.SeismicRun.rhs", st.run.rhs)
        st.dt = rec.call("mangll.stable_dt", st.run.solver.stable_dt, st.run.q, cfl=st.run.cfg.cfl)
        st.scratch = np.zeros_like(st.run.q)
        return st

    def op(self, st, rec, i):
        run = st.run
        run.q = rec.call("mangll.lsrk45_step", lsrk45_step, run.q, run.t, st.dt, st.rhs, st.scratch)
        run.t += st.dt
        run.step_count += 1
        return {
            "kind": "step",
            "dof_steps": run.global_unknowns(),
            "flops": run.flops_per_step_estimate(),
        }

    def work(self, st) -> int:
        return st.run.forest.local_count

    def throughput_work(self, op: dict) -> float:
        return float(op["dof_steps"])

    def check(self, st) -> dict:
        return {"elements": st.run.global_elements(), "energy": st.run.total_energy()}

    def finish(self, st) -> dict:
        return {"energy": st.run.total_energy()}

    def verify(self, check: dict, finish: dict, ref) -> list:
        bad = []
        for when, e in (("check", check["energy"]), ("end", finish["energy"])):
            if not (math.isfinite(e) and e > 0.0):
                bad.append(f"total energy at {when} is {e!r}")
        if ref is not None:
            if check["elements"] != ref["elements"]:
                bad.append(f"elements {check['elements']} != reference {ref['elements']}")
            if not math.isclose(check["energy"], ref["energy"], rel_tol=REL_TOL):
                bad.append(f"energy {check['energy']!r} != reference {ref['energy']!r}")
        return bad


WORKLOAD = SeismicStatic()
