"""advect-amr: the Fig. 5 run, written from public layer calls.

Degree-3 dG advection of four spherical fronts on the 24-tree shell,
levels 1 -> 3, with a full AMR cycle every 8 RK steps: mark, adapt and
rebalance carrying ``q``, ghost, mesh, rebind.  The program mirrors
:class:`repro.apps.advection.driver.AdvectionRun` call for call, so at the
same configuration it reproduces AdvectionRun's element count and error
(a self-test checks it); the seed rotates the fronts and the rotation
axis together.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from repro.amr import adapt_and_rebalance
from repro.apps.advection.fronts import SphericalFronts
from repro.mangll import ShellGeometry, build_mesh
from repro.mangll.models import AdvectionModel
from repro.mangll.op import DGOperator, MeshContext
from repro.mangll.rk import lsrk45_step
from repro.p4est import Forest, ForestInvariantError, balance, build_ghost, validate_forest
from repro.p4est.builders import shell
from repro.parallel.ops import MIN, SUM

from perfbench.workloads._shell import element_centers, element_h, random_rotation

DEGREE = 3
BASE_LEVEL, MAX_LEVEL = 1, 3
ADAPT_EVERY = 8
CFL = 0.4
INNER, OUTER = 0.55, 1.0
REFINE_BAND, COARSEN_BAND = 1.0, 3.0
L2_ERROR_LIMIT = 0.05  # for seeds without a recorded reference
MASS_DRIFT_LIMIT = 1e-5
REL_TOL = 1e-6  # against recorded references; allows BLAS kernel differences across CPUs


class AdvectAmr:
    name = "advect-amr"
    ranks = 2
    period = ADAPT_EVERY + 1  # eight RK steps, then one AMR cycle
    check_periods = 1
    warmup_ops = ADAPT_EVERY + 1
    primary = "step"
    item = "one global unknown advanced one RK step (dof_steps_per_s)"

    def inputs(self, seed: int) -> dict:
        rot = random_rotation(seed)
        base = SphericalFronts()
        return {
            "centers": (base.centers @ rot.T).tolist(),
            "omega": (rot @ np.asarray(base.omega)).tolist(),
        }

    def setup(self, comm, rec, inputs):
        st = SimpleNamespace()
        st.comm, st.rec = comm, rec
        st.fronts = SphericalFronts(
            omega=tuple(inputs["omega"]), centers=np.asarray(inputs["centers"])
        )
        st.geom = ShellGeometry(INNER, OUTER)
        st.t = 0.0
        st.forest = rec.call("p4est.new", Forest.new, shell(INNER, OUTER), comm, level=max(BASE_LEVEL, 1))
        f = st.forest
        local_min = int(f.local.level.min()) if f.local_count else MAX_LEVEL
        global_min = int(comm.allreduce(local_min, MIN))
        for _ in range(MAX_LEVEL - global_min):
            mask = self._refine_mask(st)
            if not bool(comm.allreduce(bool(mask.any()))):
                break
            rec.call("p4est.refine", f.refine, mask=mask, maxlevel=MAX_LEVEL)
        rec.call("p4est.balance", balance, f)
        rec.call("p4est.partition", f.partition)
        self._rebuild(st)
        st.q = rec.call("apps.fronts_value", st.fronts.value, self._xl(st), 0.0)
        st.dt = rec.call("mangll.stable_dt", st.solver.stable_dt, st.q, cfl=CFL)
        st.mass0 = self.mass(st)
        return st

    def _xl(self, st):
        return st.mesh.coords[: st.mesh.nelem_local]

    def _rebuild(self, st) -> None:
        rec = st.rec
        st.ghost = rec.call("p4est.ghost", build_ghost, st.forest)
        st.mesh = rec.call("mangll.build_mesh", build_mesh, st.forest, st.geom, DEGREE, st.ghost)
        model = AdvectionModel(3, st.fronts.velocity())
        ctx = MeshContext(st.forest, st.ghost, st.mesh, st.comm)
        st.solver = rec.call("mangll.bind", DGOperator(model, DEGREE).bind, ctx)
        st.rhs = rec.wrap("mangll.rhs", st.solver.rhs)

    def _distance(self, st, t):
        centers = element_centers(st.forest, st.geom)
        return st.rec.call("apps.front_distance", st.fronts.front_distance, centers, t)

    def _refine_mask(self, st):
        d = self._distance(st, st.t)
        h = element_h(st.forest, OUTER - INNER)
        return (d < REFINE_BAND * np.maximum(h, 1e-12)) & (st.forest.local.level < MAX_LEVEL)

    def _coarsen_mask(self, st):
        d = self._distance(st, st.t)
        h = element_h(st.forest, OUTER - INNER)
        return (d > COARSEN_BAND * h) & (st.forest.local.level > max(BASE_LEVEL, 1))

    def op(self, st, rec, i):
        if i % self.period < ADAPT_EVERY:
            dofs = st.forest.global_count * st.mesh.npts
            st.q = rec.call("mangll.lsrk45_step", lsrk45_step, st.q, st.t, st.dt, st.rhs)
            st.t += st.dt
            return {"kind": "step", "dof_steps": dofs}
        refine = self._refine_mask(st)
        coarsen = self._coarsen_mask(st)
        result, (st.q,) = rec.call(
            "amr.adapt_and_rebalance",
            adapt_and_rebalance,
            st.forest,
            refine,
            coarsen,
            fields=[st.q],
            degree=DEGREE,
            max_level=MAX_LEVEL,
        )
        self._rebuild(st)
        st.dt = rec.call("mangll.stable_dt", st.solver.stable_dt, st.q, cfl=CFL)
        return {
            "kind": "adapt",
            "octants": st.forest.global_count,
            "refined": result.refined,
            "coarsened": result.coarsened,
            "moved": result.moved,
        }

    def work(self, st) -> int:
        return st.forest.local_count

    def throughput_work(self, op: dict) -> float:
        return float(op.get("dof_steps", 0))

    # -- diagnostics (collective, outside ops) ----------------------------------

    def mass(self, st) -> float:
        return float(st.solver.integrate_quantity(st.q)[0])

    def l2_error(self, st) -> float:
        """Global L2 error against the analytically advected field."""
        exact = st.fronts.value(self._xl(st), st.t)
        nl = st.mesh.nelem_local
        wdet = st.mesh.detj[:nl] * st.mesh.weights[None, :]
        num = st.comm.allreduce(float((wdet * (st.q - exact) ** 2).sum()), SUM)
        den = st.comm.allreduce(float((wdet * exact**2).sum()), SUM)
        return float(np.sqrt(num / max(den, 1e-300)))

    def check(self, st) -> dict:
        return {
            "elements": st.forest.global_count,
            "l2_error": self.l2_error(st),
            "mass_drift": abs(self.mass(st) - st.mass0) / abs(st.mass0),
        }

    def finish(self, st) -> dict:
        out = {"mass_drift": abs(self.mass(st) - st.mass0) / abs(st.mass0), "valid": True}
        try:
            validate_forest(st.comm, st.forest, ghost=st.ghost)
        except ForestInvariantError as exc:
            out.update(valid=False, error=str(exc))
        return out

    def verify(self, check: dict, finish: dict, ref) -> list:
        bad = []
        if not finish["valid"]:
            bad.append("validate_forest: " + finish["error"])
        for when, drift in (("check", check["mass_drift"]), ("end", finish["mass_drift"])):
            if not drift <= MASS_DRIFT_LIMIT:
                bad.append(f"relative mass drift at {when} {drift:.3e} > {MASS_DRIFT_LIMIT}")
        if not check["l2_error"] < L2_ERROR_LIMIT:
            bad.append(f"L2 error {check['l2_error']} >= {L2_ERROR_LIMIT}")
        if ref is not None:
            if check["elements"] != ref["elements"]:
                bad.append(f"elements {check['elements']} != reference {ref['elements']}")
            if not math.isclose(check["l2_error"], ref["l2_error"], rel_tol=REL_TOL):
                bad.append(f"L2 error {check['l2_error']!r} != reference {ref['l2_error']!r}")
        return bad


WORKLOAD = AdvectAmr()
