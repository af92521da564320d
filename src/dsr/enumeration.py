"""Exhaustive streams of connected graphs, one canonical representative per
isomorphism class.

Order n is grown from the connected order-(n-1) classes by adding a vertex
v joined to a nonempty attachment set S of the old ones.  A candidate is
canonicalized only if v is a chosen removal: no vertex whose deletion leaves
the graph connected has a larger key (degree, sorted neighbour degrees) than
v.  The key is an isomorphism invariant, so every class is still reached:
deleting its non-cut vertex w of largest key leaves a connected order-(n-1)
class P, and growing P back by w's neighbours gives a candidate that passes
(McKay, *Isomorph-free exhaustive generation*, J. Algorithms 26, 1998).

Each parent P tries only the least attachment set of each orbit under the
group generated by the automorphisms that its own canonical search meets,
on P's rows; none outlives the loop over parents.  For any automorphism
gamma of P, P + S and P + gamma(S) are isomorphic by gamma extended to fix
v, so v passes the rule in one iff it passes in the other, and the
completeness argument above holds for the orbits of any subgroup of Aut(P).
Missing generators only cost duplicates, never a class; a bogus generator
could drop one, so each is checked to map P's rows onto themselves before it
prunes anything.  Duplicates that remain (ties of the key, small subgroups)
are removed by a set of canonical forms, and the classes are emitted sorted
by canonical rows.
"""

from __future__ import annotations

import logging
import time
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .graphs import Graph, _bits, _reach
from .isomorphism import _canonical_search, _orbit

logger = logging.getLogger(__name__)

MAX_BUILTIN_ORDER = 8

Perm = tuple[int, ...]


def _chosen_removal_test(prow: Sequence[int]) -> Callable[[int], bool]:
    """For a connected parent P with rows ``prow``, a test of attachment sets:
    True iff the new vertex v of P + v, joined to the mask ``sub``, is a
    chosen removal, so that no vertex whose deletion leaves P + v connected
    has a larger key than v.  Degrees are compared first; neighbour degrees
    only on a tie.  P + v - w is connected iff ``sub`` meets every component
    of P - w, which are found once per parent."""
    m = len(prow)
    deg = [row.bit_count() for row in prow]
    # rivals by falling degree, so the scan stops at the first one that v
    # outranks whether or not it joins v
    by_degree = sorted(range(m), key=deg.__getitem__, reverse=True)
    nbrs = [list(_bits(row)) for row in prow]
    components = []
    for w in range(m):
        alive = rest = ((1 << m) - 1) ^ (1 << w)
        comps = []
        while rest:
            comp = _reach(prow, rest & -rest, alive)
            comps.append(comp)
            rest ^= comp
        components.append(comps)

    def chosen(sub: int) -> bool:
        dv = sub.bit_count()
        v_nbr_degs = None
        for w in by_degree:
            if deg[w] + 1 < dv:
                break
            joined = sub >> w & 1
            dw = deg[w] + joined
            if dw < dv:
                continue
            if dw == dv:
                if v_nbr_degs is None:
                    v_nbr_degs = sorted([deg[u] + 1 for u in _bits(sub)])
                w_nbr_degs = [deg[u] + (sub >> u & 1) for u in nbrs[w]]
                if joined:
                    w_nbr_degs.append(dv)
                if sorted(w_nbr_degs) <= v_nbr_degs:
                    continue
            if all(sub & comp for comp in components[w]):
                return False
        return True

    return chosen


def _orbit_representatives(prow: Sequence[int], generators: Sequence[Perm]) -> Sequence[int]:
    """The least member of each orbit of the nonempty vertex subsets of the
    graph with rows ``prow``, as masks in increasing order, under the group
    the permutations generate.  Each generator's image table takes one step
    per subset, and must map every row onto the row of the image vertex, or
    RuntimeError is raised: a permutation that is no automorphism could merge
    orbits and so drop a class."""
    m = len(prow)
    full = 1 << m
    if not generators:
        return range(1, full)
    tables = []
    for gamma in generators:
        image = [0] * full
        for s in range(1, full):
            low = s & -s
            image[s] = image[s ^ low] | 1 << gamma[low.bit_length() - 1]
        if any(image[row] != prow[gamma[v]] for v, row in enumerate(prow)):
            raise RuntimeError(f"{gamma} is not an automorphism of the graph with rows {prow}")
        tables.append(image)
    reps = []
    seen: set[int] = set()
    for s in range(1, full):
        if s not in seen:
            reps.append(s)
            seen |= _orbit(s, tables)
    return reps


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[Graph, ...]:
    """The order-n classes sorted by canonical rows."""
    if n == 1:
        return (Graph(1, (0,)),)
    parents = _classes(n - 1)
    start = time.perf_counter()
    new_bit = 1 << (n - 1)
    codes: set[tuple[int, ...]] = set()
    tried = chosen = 0
    for parent in parents:
        prow = parent.rows
        is_chosen = _chosen_removal_test(prow)
        subs = _orbit_representatives(prow, _canonical_search(n - 1, prow)[1])
        tried += len(subs)
        for sub in subs:
            if not is_chosen(sub):
                continue
            chosen += 1
            rows = tuple(
                prow[i] | new_bit if sub >> i & 1 else prow[i] for i in range(n - 1)
            ) + (sub,)
            codes.add(_canonical_search(n, rows)[0])
    logger.info(
        "enumerated %d connected classes of order %d (%d candidates, "
        "%d orbit representatives, %d canonicalized) in %.3f s",
        len(codes), n, len(parents) * (new_bit - 1), tried, chosen,
        time.perf_counter() - start,
    )
    # relabeling keeps any asymmetry, so validating the canonical rows checks
    # the candidates too
    return tuple(Graph(n, code) for code in sorted(codes))


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Connected graphs of order n, one canonical representative per
    isomorphism class, sorted by adjacency rows."""
    if not 1 <= n <= MAX_BUILTIN_ORDER:
        raise ValueError(
            f"built-in enumeration supports 1 <= n <= {MAX_BUILTIN_ORDER}, got {n}"
        )
    yield from _classes(n)
