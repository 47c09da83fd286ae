"""2:1 balance across faces, edges, and corners, within and between trees.

``Balance`` (paper §II-C) refines octants locally until no leaf differs by
more than one level from any neighbor, where "neighbor" includes octants
in other trees reached through macro-face, -edge, or -corner connections
with arbitrary rotations.

The algorithm iterates a bulk-synchronous round until a global fixpoint:

1. every rank generates *constraints* from its leaves — for each leaf at
   level ``l`` and each neighbor direction, the same-size neighbor region,
   transformed into the neighbor tree when it lies outside the leaf's own
   tree (one evaluation of the connectivity's link-image table: the rigid
   face transforms and the pinned edge/corner seeds);
2. constraints are routed to the ranks owning any leaf overlapping them
   (SFC owner search) with one sparse exchange;
3. each rank refines any leaf that is a *proper ancestor* of a constraint
   region with ``level < constraint.level - 1`` (in a valid leaf set this
   is the only way a leaf can violate 2:1 against the region), repeating
   locally until stable;
4. a logical-or allreduce decides whether another round is needed.

Refinement is monotone and bounded by ``maxlevel``, so the loop
terminates; at the fixpoint the 2:1 condition holds globally by
construction.  :func:`is_balanced` re-runs the generation in check-only
mode and is used by the tests as an independent verifier.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.p4est.connectivity import Connectivity
from repro.p4est.forest import Forest, octants_from_wire, octants_to_wire
from repro.parallel.collectives import collective
from repro.p4est.octant import (
    Octants,
    is_ancestor_pairwise,
    merge_sorted_octants,
    neighborhood,
    searchsorted_octants,
)
from repro.parallel.ops import LAND, LOR
from repro.trace.tracer import PHASE_BALANCE, traced


def generate_neighbor_regions(
    conn: Connectivity, leaves: Octants, codim: int, min_level: int = 0
) -> Octants:
    """Same-size neighbor regions of all leaves, across codimensions
    1..codim, mapped into valid tree coordinates.

    Regions beyond an unconnected tree boundary are dropped, as are
    regions of level below ``min_level`` (fused into the interior mask so
    Balance's level filter costs no extra full-array copy).  The result
    may contain duplicates; callers dedup as needed.
    """
    dim = conn.dim
    if not len(leaves):
        return Octants.empty(dim)
    # One batched shift over every (codim, direction) offset at once; the
    # former per-offset loop built 26 small arrays per call in 3D.
    _, nb = neighborhood(leaves, codim)
    inside = nb.inside_root()
    deep = nb.level >= min_level if min_level > 0 else None
    out: List[Octants] = []
    take = inside if deep is None else inside & deep
    if take.any():
        out.append(nb[take])
    outside = ~inside if deep is None else ~inside & deep
    if outside.any():
        _, routed = route_exterior_indexed(conn, nb[outside])
        if len(routed):
            out.append(routed)
    if not out:
        return Octants.empty(dim)
    return Octants.concat(out)


def route_exterior_indexed(
    conn: Connectivity, ext: Octants, src_idx: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, Octants]:
    """Map exterior octants through the face/edge/corner links of their
    tree, keeping per-image source indices.

    Octants outside exactly one axis go through the face transform;
    outside two axes through the edge links (3D) or corner links (2D);
    outside three axes through the corner links.  All of them are one
    column-wise evaluation of ``conn.link_images``.  Returns ``(src,
    images)`` where ``src[i]`` is ``src_idx`` (default: the position in
    ``ext``) of the octant ``images[i]`` came from; an octant has one
    image per link sharing its boundary entity and none beyond an
    unconnected boundary.  Image order is unspecified — every consumer
    dedups or takes an order-free union.
    """
    dim = conn.dim
    L = conn.D.root_len
    coords = [ext.x, ext.y, ext.z][:dim]
    code = ext.tree.astype(np.int64) * 3**dim
    for a in range(dim):
        code += (coords[a] < 0) * 3**a + (coords[a] >= L) * (2 * 3**a)
    src, tree, out = conn.link_images.apply(code, coords, h=ext.lens())
    if dim == 2:
        out.append(np.zeros(len(src), dtype=np.int64))
    images = Octants._wrap(dim, tree, *out, ext.level[src])
    return (src if src_idx is None else src_idx[src]), images


def dedup_octants(octs: Octants) -> Octants:
    """Sort and deduplicate an octant array (one gather, not two)."""
    if len(octs) < 2:
        return octs
    if octs.is_sorted():  # e.g. one already-sorted inbox part
        return octs.dedup()
    # Quicksort the keys, then stable-sort by tree: same (tree, key) order
    # as ``sort_order()`` but ~2x faster than lexsort's all-stable passes.
    # Tie order among equal keys is unobservable here — a (tree, key)
    # pair fully determines the octant, and duplicates are removed below.
    a = np.argsort(octs.keys())
    b = np.argsort(octs.tree[a], kind="stable")
    order = a[b]
    t = octs.tree[order]
    k = octs.keys()[order]
    keep = np.empty(len(octs), dtype=bool)
    keep[0] = True
    keep[1:] = (t[1:] != t[:-1]) | (k[1:] != k[:-1])
    return octs[order[keep]]


def split_by_dest(dests: np.ndarray, src: np.ndarray, n: int):
    """Group ``(dest rank, source index)`` pairs by destination.

    Deduplicates the pairs and yields ``(rank, ascending unique source
    indices)`` per destination in ascending rank order — the flat-array
    replacement for the former ``setdefault``-accumulated send sets of
    Ghost and Balance.  ``n`` is the exclusive bound on source indices.
    """
    if not len(dests):
        return
    n = max(int(n), 1)
    pair = np.unique(dests.astype(np.int64) * n + src)
    d = pair // n
    s = pair - d * n
    cut = np.flatnonzero(d[1:] != d[:-1]) + 1
    starts = np.concatenate([[0], cut])
    ends = np.concatenate([cut, [len(d)]])
    for a, b in zip(starts, ends):
        yield int(d[a]), s[a:b]


def _enforce_constraints(leaves: Octants, constraints: Octants) -> Tuple[Octants, bool]:
    """Refine leaves violating the constraints until locally stable.

    A leaf violates a constraint region C iff the leaf is a proper
    ancestor of C with ``leaf.level < C.level - 1``; then the leaf is
    split.  Returns the updated leaf set and whether anything changed.
    """
    changed = False
    # Constraints of level <= 1 can never force a refinement.
    keep = constraints.level > 1
    constraints = constraints[keep]
    while len(constraints) and len(leaves):
        pos = searchsorted_octants(leaves, constraints, side="right")
        cand = np.maximum(pos - 1, 0)
        has_prev = pos > 0
        anc = leaves[cand]
        viol = (
            has_prev
            & is_ancestor_pairwise(anc, constraints)
            & (anc.level < constraints.level - 1)
        )
        if not viol.any():
            break
        mask = np.zeros(len(leaves), dtype=bool)
        mask[cand[viol]] = True
        split = leaves[mask].children()
        rest = leaves[~mask]
        # ``split`` is itself in SFC order (children of sorted, disjoint
        # parents) and disjoint from ``rest``, so a linear merge replaces
        # the former full re-sort of the leaf array.
        leaves = merge_sorted_octants(rest, split) if len(rest) else split
        changed = True
    return leaves, changed


def route_to_owners(forest: Forest, regions: Octants) -> Octants:
    """Exchange ``regions`` so each rank receives the regions that overlap
    its leaf segment; returns the received (deduplicated) set.

    Every region is sent to each rank in its inclusive owner range, which
    by the SFC ownership argument covers every rank holding a leaf that
    intersects the region.  One sparse exchange total.
    """
    comm = forest.comm
    outbox: Dict[int, np.ndarray] = {}
    if len(regions):
        dests, src = forest.owner_segments(regions)
        for p, idxs in split_by_dest(dests, src, len(regions)):
            outbox[p] = octants_to_wire(regions[idxs])
    inbox = comm.exchange(outbox)
    received = [octants_from_wire(forest.dim, w) for w in inbox.values() if len(w)]
    if not received:
        return Octants.empty(forest.dim)
    return dedup_octants(Octants.concat(received))


def _violations(leaves: Octants, constraints: Octants) -> np.ndarray:
    """Boolean per constraint: some leaf is >1 level coarser than it.

    In a valid leaf set the only leaf that can contain a constraint region
    is the one immediately preceding it on the SFC.
    """
    if not len(leaves) or not len(constraints):
        return np.zeros(len(constraints), dtype=bool)
    pos = searchsorted_octants(leaves, constraints, side="right")
    cand = np.maximum(pos - 1, 0)
    anc = leaves[cand]
    return (
        (pos > 0)
        & is_ancestor_pairwise(anc, constraints)
        & (anc.level < constraints.level - 1)
    )


@traced(PHASE_BALANCE)
@collective("function", "balance")
def balance(forest: Forest, codim: Optional[int] = None) -> int:
    """Enforce 2:1 neighbor size relations globally (``Balance``).

    ``codim`` selects the adjacency: 1 = faces only, 2 = faces+edges
    (3D) or faces+corners (2D), 3 = full corner balance in 3D.  Default
    is the full balance (``dim``), matching the paper's usage.  Returns
    the number of bulk-synchronous rounds.
    """
    dim = forest.dim
    codim = dim if codim is None else codim
    if not 1 <= codim <= dim:
        raise ValueError(f"codim must be in [1, {dim}]")
    comm = forest.comm
    rounds = 0
    while True:
        rounds += 1
        regions = generate_neighbor_regions(
            forest.conn, forest.local, codim, min_level=2
        )
        regions = dedup_octants(regions)
        constraints = route_to_owners(forest, regions)
        new_local, changed = _enforce_constraints(forest.local, constraints)
        forest.local = new_local
        if not comm.allreduce(changed, LOR):
            break
    forest._refresh_counts()
    return rounds


@collective("function", "is_balanced")
def is_balanced(forest: Forest, codim: Optional[int] = None) -> bool:
    """Collectively check the 2:1 condition without modifying the forest."""
    dim = forest.dim
    codim = dim if codim is None else codim
    regions = generate_neighbor_regions(
        forest.conn, forest.local, codim, min_level=2
    )
    regions = dedup_octants(regions)
    constraints = route_to_owners(forest, regions)
    ok = not _violations(forest.local, constraints).any()
    return bool(forest.comm.allreduce(ok, LAND))
