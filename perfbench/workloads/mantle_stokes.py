"""mantle-stokes: the Fig. 7 run, Rhea on the shell with plates.

Levels 1 -> 2 (808 elements), lagged-viscosity Picard iterations with a
solution-adaptive ``adapt`` after every second one.  The Stokes solve
raises ``NotImplementedError`` at more than one rank, so this workload
runs on one.  It is the only workload where ``repro.solvers`` does most
of the work; the solver is reached only through ``StokesProblem.solve``
inside ``RheaRun.picard_step``, whose ``StokesResult`` reports the
iteration counts and the solver's own timings.  ``RheaRun`` takes no
seeded input, so the seed is unused here.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.apps.rhea.driver import RheaConfig, RheaRun

PICARD_PER_ADAPT = 2
SOLVER_TIMINGS = ("assemble", "amg_setup", "vcycle", "krylov_other")

CONFIG = RheaConfig(
    domain="shell",
    base_level=1,
    max_level=2,
    rayleigh=1e4,
    picard_per_adapt=PICARD_PER_ADAPT,
    stokes_tol=1e-6,
    stokes_maxiter=250,
)


class MantleStokes:
    name = "mantle-stokes"
    ranks = 1
    period = PICARD_PER_ADAPT + 1  # two Picard iterations, then adapt
    check_periods = 2
    warmup_ops = 1
    primary = "picard"
    item = "one global velocity unknown through one Picard iteration"
    seed_unused = True

    def inputs(self, seed: int) -> dict:
        return {}

    def setup(self, comm, rec, inputs):
        st = SimpleNamespace()
        st.run = rec.call("apps.RheaRun", RheaRun, comm, CONFIG)
        st.minres = []
        st.converged = []
        return st

    def op(self, st, rec, i):
        if i % self.period < PICARD_PER_ADAPT:
            res = rec.call("apps.picard_step", st.run.picard_step)
            st.minres.append(res.iterations)
            st.converged.append(bool(res.converged))
            return {
                "kind": "picard",
                "minres_iters": res.iterations,
                "vcycles": res.vcycles,
                "converged": bool(res.converged),
                "timings": {k: res.timings[k] for k in SOLVER_TIMINGS},
                "dof_steps": st.run.ln.global_num_nodes * st.run.dim,
            }
        rec.call("apps.adapt", st.run.adapt)
        return {"kind": "adapt", "octants": st.run.forest.global_count}

    def work(self, st) -> int:
        return st.run.forest.local_count

    def throughput_work(self, op: dict) -> float:
        return float(op.get("dof_steps", 0))

    def check(self, st) -> dict:
        return {"minres": list(st.minres), "elements": st.run.forest.global_count}

    def finish(self, st) -> dict:
        return {"converged": list(st.converged)}

    def verify(self, check: dict, finish: dict, ref) -> list:
        bad = []
        if not all(finish["converged"]):
            bad.append(f"Stokes solves not converged: {finish['converged']}")
        if ref is not None and check != ref:
            bad.append(f"MINRES iterations {check} != reference {ref}")
        return bad


WORKLOAD = MantleStokes()
