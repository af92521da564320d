"""Global edge connectivity with an explicit minimum-cut certificate.

Every minimum cut here is a pair ``(size, side mask)``: the mask's set bits
are the vertices on one side, and the cut edges are those leaving them.
Two production paths.  ``min_cuts`` runs Stoer-Wagner on a whole adjacency
stack at once, every graph through the same n-1 phases, and gives
``dsr.verify`` each class's pair from one call per order.
``edge_connectivity`` cuts one graph, for ``dsr compute``: it returns a
minimum-degree star when the diameter is at most 2 and otherwise runs
maximum-adjacency phases with Nagamochi-Ibaraki contraction, which on one
graph costs far less than a stack's phases.  ``brute_force_min_cut``, the
spectra suite's independent oracle, scans every bipartition of an
adjacency stack for its cut sizes.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from .graphs import DisconnectedGraphError, Graph, _bits, is_connected, stack_chunks

logger = logging.getLogger(__name__)


def _certificate(g: Graph, side_mask: int) -> tuple[int, int]:
    # the size is counted from the rows of the side the caller named, a
    # star's one row, so it is a cut of g whatever produced the mask
    return sum((g.rows[v] & ~side_mask).bit_count() for v in _bits(side_mask)), side_mask


def _diameter_at_most_2(rows: tuple[int, ...]) -> bool:
    """True iff every closed 2-neighbourhood is the whole vertex set."""
    full = (1 << len(rows)) - 1
    for v, row in enumerate(rows):
        reach = row | 1 << v
        rest = row
        while reach != full:
            if not rest:
                return False
            low = rest & -rest
            reach |= rows[low.bit_length() - 1]
            rest ^= low
    return True


def edge_connectivity(g: Graph) -> tuple[int, int]:
    """Certified global minimum edge cut ``(size, side mask)``, the pair of
    one ``min_cuts`` row, via maximum-adjacency (MA) phases with
    Nagamochi-Ibaraki contraction.

    U starts at the minimum degree (a star).  Each phase grows an MA order
    of the supernodes, ties to the smallest name, lowers U to the cut of the
    last one, and merges each consecutive pair whose attachment q at
    addition is at least U: the order's prefix has no cut below q between
    them (minimum-cut phase lemma).  The last pair's q is the phase cut.

    A graph of diameter at most 2 has edge connectivity equal to its minimum
    degree (Plesnik 1975), so there the star is returned without phases.
    """
    degrees = [row.bit_count() for row in g.rows]
    best_size = min(degrees)
    best_mask = 1 << degrees.index(best_size)
    if g.n > 1 and _diameter_at_most_2(g.rows):  # such a graph is connected
        logger.debug("min cut order %d: diameter <= 2, 0 phases, size %d", g.n, best_size)
        return _certificate(g, best_mask)
    if g.n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    if not is_connected(g):
        raise DisconnectedGraphError("graph is disconnected; no finite edge cut")
    rows = g.rows
    merged = {v: 1 << v for v in range(g.n)}  # supernode name -> its vertex mask
    name = list(range(g.n))  # vertex -> name of its supernode
    phases = 0
    while len(merged) > 1 and best_size > 1:  # a connected graph has no cut below 1
        phases += 1
        key = dict.fromkeys(merged, 0)  # names ascend, so max() ties to the smallest
        outside = (1 << g.n) - 1  # vertices of the supernodes not yet added
        order = []
        while key:
            z = max(key, key=key.__getitem__)
            order.append((z, key.pop(z)))
            members = merged[z]
            outside ^= members
            while members:  # each member's neighbours outside, lowest bits first
                low = members & -members
                nbrs = rows[low.bit_length() - 1] & outside
                members ^= low
                while nbrs:
                    v = nbrs & -nbrs
                    key[name[v.bit_length() - 1]] += 1
                    nbrs ^= v
        last, cut = order[-1]
        if cut < best_size:
            best_size, best_mask = cut, merged[last]
        contracted = {}
        for z, q in order:
            if q < best_size:
                h = z  # a run of merging pairs is named after its first supernode
            contracted[h] = contracted.get(h, 0) | merged[z]
        merged = dict(sorted(contracted.items()))
        for h, mask in merged.items():
            for v in _bits(mask):
                name[v] = h
    logger.debug("min cut order %d: %d phases, size %d", g.n, phases, best_size)
    return _certificate(g, best_mask)


def min_cuts(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Int64 minimum-cut sizes and uint64 minimum-cut side masks of every
    graph of a (k, n, n) boolean adjacency stack, 2 <= n <= 64, by
    Stoer-Wagner (J. ACM 44, 1997), one ``stack_chunks`` chunk at a time.

    Each of the n-1 phases grows a maximum-adjacency order of the live
    supernodes of every graph at once, each step the ``argmax`` of the keys
    (ties to the smallest index), and merges its last supernode t into the
    one before it; the key of t when added is the cut of t's vertices,
    which becomes the graph's side mask when it is below every earlier
    phase cut.  Weights and keys are int16: both are edge counts between
    two disjoint vertex sets, so at most n*n/4.  A graph with a cut of 0 is
    disconnected and raises, naming its stack index."""
    k, n = adj.shape[:2]
    if not 2 <= n <= 64:
        raise ValueError(f"Stoer-Wagner kernel needs 2 <= n <= 64, got {n}")
    start = time.perf_counter()
    sizes = np.empty(k, dtype=np.int64)
    sides = np.empty(k, dtype=np.uint64)
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    chunks = list(stack_chunks(k, n * n))
    for chunk in chunks:
        w = adj[chunk].astype(np.int16)
        rows, live = np.arange(len(w)), np.arange(n)
        # a live diagonal of -n*n drops the key of each supernode added, and
        # keeps it negative under the at most n*n/4 of weight it gains later
        w[:, live, live] = -n * n
        dead = np.zeros((len(w), n), dtype=np.int16)  # the start keys
        members = np.repeat(bits[None], len(w), axis=0)
        best = np.full(len(w), n * n, dtype=np.int16)
        side = np.zeros(len(w), dtype=np.uint64)
        for phase in range(n - 1):
            key = dead.copy()
            for _ in range(n - phase - 1):
                s = key.argmax(axis=1)
                key += w[rows, s]
            t = key.argmax(axis=1)
            cut = key[rows, t]
            lower = cut < best
            best[lower], side[lower] = cut[lower], members[rows, t][lower]
            merged = w[rows, s] + w[rows, t]
            merged[rows, s], merged[rows, t] = -n * n, 0
            w[rows, s] = w[rows, :, s] = merged
            w[rows, t] = w[rows, :, t] = 0
            members[rows, s] |= members[rows, t]
            dead[rows, t] = -n * n
        sizes[chunk], sides[chunk] = best, side
        zero = np.flatnonzero(best == 0)
        if zero.size:
            raise DisconnectedGraphError(f"stack graph {chunk.start + zero[0]} is disconnected")
    logger.debug("min cuts order %d: %d graphs, %d chunks, %d phases each, %.3f s",
                 n, k, len(chunks), n - 1, time.perf_counter() - start)
    return sizes, sides


def brute_force_min_cut(adj: np.ndarray) -> np.ndarray:
    """Int64 minimum-cut sizes of a (k, n, n) boolean adjacency stack of
    connected graphs, 2 <= n <= 12: every side S over vertices 0..n-2 of
    every graph at once, its cut the neighbours in S of each vertex outside
    it, by one float32 product SA (exact: every value is an integer of at
    most 144), one ``stack_chunks`` chunk of temporaries at a time.  A graph
    with a cut of 0 is disconnected and raises, naming its stack index: each
    component without vertex n-1 is one of the sides."""
    k, n = adj.shape[:2]
    if not 2 <= n <= 12:
        raise ValueError(f"bipartition scan needs 2 <= n <= 12, got {n}")
    side = (np.arange(1, 1 << (n - 1))[:, None] >> np.arange(n) & 1).astype(np.float32)
    sizes = np.empty(k, dtype=np.int64)
    for chunk in stack_chunks(k, side.size):
        cut = np.einsum("kmj,mj->km", side @ adj[chunk].astype(np.float32), 1 - side)
        sizes[chunk] = cut.min(axis=1)
        zero = np.flatnonzero(sizes[chunk] == 0)
        if zero.size:
            raise DisconnectedGraphError(f"stack graph {chunk.start + zero[0]} is disconnected")
    return sizes
