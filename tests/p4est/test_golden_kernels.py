"""Bit-exactness pins for the vectorized Balance/Ghost/Nodes kernels.

``golden_kernels.json`` was captured from the scalar (pre-flat-array)
implementations of the hot kernels (rotcubes, square) and from the
per-link-group exterior routing that preceded the link-image table (the
24-tree shell and a doubly periodic brick, which also pin the two-layer
ghost).  These tests re-run every scenario at P in {1, 3, 8} and require
every output hash — forest checksum, ghost octants and mirror/ghost maps,
lnodes arrays and send/recv maps — and every per-op :class:`CommStats`
entry to match exactly.  Any vectorization change that alters results or wire traffic
(message counts or bytes) fails here before it can reach a benchmark.

Regenerate the goldens (only when an *intentional* output change lands)
by re-running the capture recipe documented in docs/PERFORMANCE.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.p4est.balance import balance
from repro.p4est.builders import brick_3d, rotcubes, shell, unit_square
from repro.p4est.forest import Forest
from repro.p4est.ghost import build_ghost
from repro.p4est.nodes import lnodes
from repro.parallel import Machine, RunConfig

GOLDEN_PATH = Path(__file__).parent / "golden_kernels.json"


def _hash_arrays(*arrays) -> str:
    m = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        m.update(str(a.dtype).encode())
        m.update(str(a.shape).encode())
        m.update(a.tobytes())
    return m.hexdigest()[:16]


def _hash_map(d) -> str:
    m = hashlib.sha256()
    for k in sorted(d):
        m.update(str(k).encode())
        m.update(np.ascontiguousarray(d[k]).tobytes())
    return m.hexdigest()[:16]


SCENARIOS = ("rotcubes", "square", "shell", "pbrick")
# Scenarios that also pin the two-layer ghost (added after the first two,
# whose recorded CommStats do not include it).
MULTILAYER = ("shell", "pbrick")


def _frac(o, lmax=3):
    cid = o.child_ids()
    return ((cid == 0) | (cid == 3) | (cid == 5) | (cid == 6)) & (o.level < lmax)


def _ghost_hashes(ghost):
    g_h = _hash_arrays(
        ghost.octants.tree,
        ghost.octants.x,
        ghost.octants.y,
        ghost.octants.z,
        ghost.octants.level,
        ghost.owners,
        ghost.mirrors,
    )
    return g_h, _hash_map(ghost.mirror_map) + "/" + _hash_map(ghost.ghost_map)


def _run_scenario(comm, conn_name: str) -> dict:
    if conn_name in ("rotcubes", "shell", "pbrick"):
        conn = {
            "rotcubes": rotcubes,
            "shell": lambda: shell(0.55, 1.0),
            "pbrick": lambda: brick_3d(3, 2, 2, periodic_x=True, periodic_y=True),
        }[conn_name]()
        forest = Forest.new(conn, comm, level=1)
        forest.refine(callback=_frac, recursive=True)
        deg = 2
    else:
        forest = Forest.new(unit_square(), comm, level=2)
        forest.refine(
            callback=lambda o: (o.x < o.D.root_len // 2) & (o.level < 4),
            recursive=True,
        )
        deg = 3
    forest.partition()
    rounds = balance(forest)
    cks = forest.checksum()
    ghost = build_ghost(forest)
    g_h, gm_h = _ghost_hashes(ghost)
    extra = {}
    if conn_name in MULTILAYER:
        g2_h, g2m_h = _ghost_hashes(build_ghost(forest, layers=2))
        extra = dict(ghost2=g2_h, g2maps=g2m_h)
    ln = lnodes(forest, ghost, deg)
    he = ln.hanging_edge if ln.hanging_edge is not None else np.empty(0)
    ln_h = _hash_arrays(
        ln.element_nodes, ln.keys, ln.owner, ln.global_ids, ln.hanging_face, he
    )
    lnm_h = _hash_map(ln.send_map) + "/" + _hash_map(ln.recv_map)
    stats = {
        op: [s.calls, s.messages, s.bytes_sent]
        for op, s in sorted(comm.stats.ops.items())
    }
    return dict(
        rounds=rounds,
        checksum=cks,
        nglobal=forest.global_count,
        ghost=g_h,
        gmaps=gm_h,
        nodes=ln_h,
        nmaps=lnm_h,
        nnodes=ln.global_num_nodes,
        stats=stats,
        **extra,
    )


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("conn_name", SCENARIOS)
@pytest.mark.parametrize("P", [1, 3, 8])
def test_kernel_outputs_bit_exact(goldens, conn_name, P):
    got = Machine(RunConfig(size=P)).run(
        lambda c: _run_scenario(c, conn_name)
    ).values
    want = goldens[f"{conn_name}/P{P}"]
    assert len(got) == len(want) == P
    for rank, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{conn_name}/P{P} rank {rank} diverged from its golden"
