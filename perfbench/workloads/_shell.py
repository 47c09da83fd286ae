"""Helpers the shell workloads share: seeded placement and octant centres."""

from __future__ import annotations

import numpy as np


def random_rotation(seed: int) -> np.ndarray:
    """A uniformly distributed proper rotation matrix drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def element_centers(forest, geometry) -> np.ndarray:
    """Physical centre of every local octant (as the apps mark them)."""
    octs = forest.local
    L = forest.D.root_len
    half = octs.lens() / 2
    u = np.stack(
        [(octs.x + half) / L, (octs.y + half) / L, (octs.z + half) / L], axis=1
    ).astype(np.float64)
    out = np.zeros((len(octs), 3))
    for tree in np.unique(octs.tree):
        sel = np.flatnonzero(octs.tree == tree)
        out[sel] = geometry.map_points(int(tree), u[sel])
    return out


def element_h(forest, span: float) -> np.ndarray:
    """Physical radial size of every local octant."""
    return forest.local.lens().astype(np.float64) / forest.D.root_len * span
