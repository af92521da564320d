"""Exhaustive streams of connected graphs, one canonical representative per
isomorphism class.

Order n is grown from the connected order-(n-1) classes by adding a vertex
v joined to a nonempty subset of the old ones.  A candidate is canonicalized
only if v is a chosen removal: no vertex whose deletion leaves the graph
connected has a larger key (degree, sorted neighbour degrees) than v.  The
key is an isomorphism invariant, so every class is still reached: deleting
its non-cut vertex w of largest key leaves a connected order-(n-1) class,
and growing that class back by w gives a candidate that passes (McKay,
*Isomorph-free exhaustive generation*, J. Algorithms 26, 1998).  Ties can
let several candidates of one class through; a set of canonical forms
removes them, and the classes are emitted sorted by canonical rows.
"""

from __future__ import annotations

import logging
from functools import lru_cache
from typing import Iterator

from .graphs import Graph, _bits, _reach
from .isomorphism import _canonical_rows

logger = logging.getLogger(__name__)

MAX_BUILTIN_ORDER = 8


def _last_is_chosen(n: int, rows: tuple[int, ...]) -> bool:
    """True iff no vertex whose deletion leaves the graph connected has a
    larger key than the last one, v = n-1, which must itself be such a
    vertex.  Degrees are compared first; neighbour degrees only on a tie."""
    deg = [row.bit_count() for row in rows]
    v = n - 1
    dv = deg[v]
    v_nbr_degs = None
    for w in range(v):
        if deg[w] < dv:
            continue
        if deg[w] == dv:
            if v_nbr_degs is None:
                v_nbr_degs = sorted([deg[u] for u in _bits(rows[v])])
            if sorted([deg[u] for u in _bits(rows[w])]) <= v_nbr_degs:
                continue
        alive = ((1 << n) - 1) ^ (1 << w)
        if _reach(rows, alive & -alive, alive) == alive:
            return False
    return True


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    new_bit = 1 << (n - 1)
    parents = _classes(n - 1)
    reps: set[Graph] = set()
    chosen = 0
    for parent in parents:
        prow = parent.rows
        for sub in range(1, new_bit):
            rows = tuple(
                prow[i] | new_bit if sub >> i & 1 else prow[i] for i in range(n - 1)
            ) + (sub,)
            if _last_is_chosen(n, rows):
                chosen += 1
                # relabeling keeps any asymmetry, so validating the canonical
                # rows checks the candidate too
                reps.add(Graph(n, _canonical_rows(n, rows)))
    logger.info(
        "enumerated %d connected classes of order %d (%d candidates, %d canonicalized)",
        len(reps), n, len(parents) * (new_bit - 1), chosen,
    )
    return tuple(sorted(reps, key=lambda g: g.rows))


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Connected graphs of order n, one canonical representative per
    isomorphism class, sorted by adjacency rows."""
    if not 1 <= n <= MAX_BUILTIN_ORDER:
        raise ValueError(
            f"built-in enumeration supports 1 <= n <= {MAX_BUILTIN_ORDER}, got {n}"
        )
    yield from _classes(n)
