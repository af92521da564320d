"""Exhaustive streams of connected graphs, one canonical representative per
isomorphism class.

Order n is grown from the connected order-(n-1) classes by adding a vertex
joined to every nonempty subset of the old ones.  Every connected graph has
a vertex whose removal leaves it connected, so this reaches every class.
Candidates go into a dict keyed by their canonical form, which removes
duplicates and keeps the emission order deterministic.
"""

from __future__ import annotations

import logging
from functools import lru_cache
from typing import Iterator

from .graphs import Graph
from .isomorphism import _canonical_rows

logger = logging.getLogger(__name__)

MAX_BUILTIN_ORDER = 8


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    new_bit = 1 << (n - 1)
    reps: dict[Graph, None] = {}
    for parent in _classes(n - 1):
        prow = parent.rows
        for sub in range(1, new_bit):
            rows = tuple(
                prow[i] | new_bit if sub >> i & 1 else prow[i] for i in range(n - 1)
            ) + (sub,)
            # relabeling keeps any asymmetry, so validating the canonical
            # rows checks the candidate too
            reps[Graph(n, _canonical_rows(n, rows))] = None
    logger.info("enumerated %d connected classes of order %d", len(reps), n)
    return tuple(reps)


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Connected graphs of order n, one per isomorphism class, deterministic order."""
    if not 1 <= n <= MAX_BUILTIN_ORDER:
        raise ValueError(
            f"built-in enumeration supports 1 <= n <= {MAX_BUILTIN_ORDER}, got {n}"
        )
    yield from _classes(n)
