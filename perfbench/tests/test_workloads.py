"""The workload programs against the apps, both backends and other seeds."""

import pytest

from repro.apps.advection.driver import AdvectionConfig, AdvectionRun
from repro.parallel import Machine, RunConfig, SerialComm

from perfbench.harness import launch, make_job, rank_program
from perfbench.workloads import WORKLOADS
from perfbench.workloads import advect_amr


def test_advect_program_reproduces_advection_run():
    """Built from public layer calls, the advect-amr program matches
    ``AdvectionRun`` at the same config (default fronts, no rotation)."""
    wl = WORKLOADS["advect-amr"]
    from repro.apps.advection.fronts import SphericalFronts

    base = SphericalFronts()
    inputs = {"centers": base.centers.tolist(), "omega": list(base.omega)}
    job = make_job("advect-amr", inputs, "run", periods=1)
    out = rank_program(SerialComm(), job)

    cfg = AdvectionConfig(
        degree=advect_amr.DEGREE,
        base_level=advect_amr.BASE_LEVEL,
        max_level=advect_amr.MAX_LEVEL,
        adapt_every=advect_amr.ADAPT_EVERY,
        cfl=advect_amr.CFL,
    )
    run = AdvectionRun(SerialComm(), cfg)
    run.run(advect_amr.ADAPT_EVERY)
    assert len(out["ops"]) == wl.period
    assert out["check"]["elements"] == run.global_elements()
    assert out["check"]["l2_error"] == pytest.approx(run.l2_error(), rel=1e-12)


def test_remesh_checksum_is_identical_on_thread_and_process_backends():
    wl = WORKLOADS["remesh-shell"]
    checks = []
    for backend in ("thread", "process"):
        job = make_job(wl.name, wl.inputs(0), "run", periods=wl.check_periods, forked=backend == "process")
        cfg = RunConfig(size=wl.ranks, backend=backend, start_method="fork")
        with Machine(cfg) as machine:
            values = machine.run(rank_program, job).values
        checks.append(values[0]["check"])
        assert all(v["finish"]["valid"] for v in values)
    assert checks[0] == checks[1]


@pytest.mark.parametrize("name", ["remesh-shell", "advect-amr", "seismic-static"])
def test_non_default_seed_changes_inputs_and_passes_every_check(name):
    wl = WORKLOADS[name]
    assert wl.inputs(0) != wl.inputs(12345)
    run = launch(name, wl.inputs(12345), "run", seconds=0.0)
    assert run.ranks[0]["check"] is not None
    assert wl.verify(run.ranks[0]["check"], run.ranks[0]["finish"], None) == []
