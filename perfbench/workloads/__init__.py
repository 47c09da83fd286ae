"""The benchmark's workloads, by name."""

from perfbench.workloads.advect_amr import WORKLOAD as _advect
from perfbench.workloads.mantle_stokes import WORKLOAD as _mantle
from perfbench.workloads.remesh_shell import WORKLOAD as _remesh
from perfbench.workloads.seismic_static import WORKLOAD as _seismic

WORKLOADS = {w.name: w for w in (_remesh, _advect, _seismic, _mantle)}
