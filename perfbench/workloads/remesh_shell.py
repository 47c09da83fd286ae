"""remesh-shell: p4est and the process transport alone.

A seed-placed spherical band (one :class:`SphericalFronts` front) rotates
rigidly through the 24-tree shell; every cycle marks octants from their
physical centres, so the band crosses the tree gluings, then runs
refine -> coarsen -> balance -> partition -> ghost -> nodes(degree 2).
There are no fields and no dG kernels.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.apps.advection.fronts import SphericalFronts
from repro.mangll.geometry import ShellGeometry
from repro.p4est import Forest, ForestInvariantError, balance, build_ghost, lnodes, validate_forest
from repro.p4est.builders import shell
from repro.parallel.ops import LOR

from perfbench.workloads._shell import element_centers, element_h, random_rotation

INNER, OUTER = 0.55, 1.0
BASE_LEVEL, MAX_LEVEL = 2, 5
REFINE_BAND, COARSEN_BAND = 1.0, 2.0
BAND_RADIUS = 0.25
BAND_OFFSET = 0.775  # distance of the band's centre from the shell's centre
ANGLE_PER_CYCLE = 0.12  # radians the band turns between cycles
NODES_DEGREE = 2


class RemeshShell:
    name = "remesh-shell"
    ranks = 2
    period = 1  # ops per period: one remesh cycle
    check_periods = 4
    warmup_ops = 1
    primary = "cycle"
    item = "one global octant through one remesh cycle (octants_per_s)"

    def inputs(self, seed: int) -> dict:
        rot = random_rotation(seed)
        return {
            "center": (rot @ np.array([BAND_OFFSET, 0.0, 0.0])).tolist(),
            "axis": (rot @ np.array([0.0, 0.6, 0.8])).tolist(),
        }

    def setup(self, comm, rec, inputs):
        st = SimpleNamespace()
        st.band = SphericalFronts(
            omega=tuple(inputs["axis"]),
            centers=np.array([inputs["center"]]),
            radius=BAND_RADIUS,
        )
        st.geom = ShellGeometry(INNER, OUTER)
        st.forest = rec.call("p4est.new", Forest.new, shell(INNER, OUTER), comm, level=BASE_LEVEL)
        st.ghost = None
        for _ in range(MAX_LEVEL - BASE_LEVEL):
            mask = self._refine_mask(st, rec, 0.0)
            if not comm.allreduce(bool(mask.any()), LOR):
                break
            rec.call("p4est.refine", st.forest.refine, mask=mask, maxlevel=MAX_LEVEL)
        rec.call("p4est.balance", balance, st.forest)
        rec.call("p4est.partition", st.forest.partition)
        return st

    def _distance(self, st, rec, t):
        centers = element_centers(st.forest, st.geom)
        return rec.call("apps.front_distance", st.band.front_distance, centers, t)

    def _refine_mask(self, st, rec, t):
        d = self._distance(st, rec, t)
        h = element_h(st.forest, OUTER - INNER)
        return (d < REFINE_BAND * h) & (st.forest.local.level < MAX_LEVEL)

    def op(self, st, rec, i):
        f = st.forest
        t = (i + 1) * ANGLE_PER_CYCLE
        rec.call("p4est.refine", f.refine, mask=self._refine_mask(st, rec, t), maxlevel=MAX_LEVEL)
        d = self._distance(st, rec, t)
        h = element_h(f, OUTER - INNER)
        rec.call("p4est.coarsen", f.coarsen, mask=(d > COARSEN_BAND * h) & (f.local.level > BASE_LEVEL))
        before = f.global_count
        rec.call("p4est.balance", balance, f)
        added = f.global_count - before
        moved = rec.call("p4est.partition", f.partition)
        st.ghost = rec.call("p4est.ghost", build_ghost, f)
        rec.call("p4est.nodes", lnodes, f, st.ghost, NODES_DEGREE)
        return {
            "kind": "cycle",
            "octants": f.global_count,
            "local_ghost_octants": len(st.ghost),
            "balance_added": added,
            "partition_moved": moved,
        }

    def work(self, st) -> int:
        return st.forest.local_count

    def throughput_work(self, op: dict) -> float:
        return float(op["octants"])

    def check(self, st) -> dict:
        return {"checksum": int(st.forest.checksum()), "octants": st.forest.global_count}

    def finish(self, st) -> dict:
        try:
            validate_forest(st.forest.comm, st.forest, ghost=st.ghost)
        except ForestInvariantError as exc:
            return {"valid": False, "error": str(exc)}
        return {"valid": True}

    def verify(self, check: dict, finish: dict, ref) -> list:
        bad = []
        if not finish["valid"]:
            bad.append("validate_forest: " + finish["error"])
        if ref is not None and check != ref:
            bad.append(f"checksum after {self.check_periods} cycles: {check} != reference {ref}")
        return bad


WORKLOAD = RemeshShell()
