"""Builders for the named graph families: complete graphs, a clique with an
attached vertex with its direct recognizer, and the two-clique bridge
family with its flattening transform.

Vertex numbering is fixed so spectral block patterns can be asserted
positionally: the first clique occupies 0..n1-1 with the hub at index 0,
the second clique occupies n1..n1+n2-1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graphs import MAX_VERTICES, Graph


def _clique_rows(offset: int, size: int, total: int) -> list[int]:
    block = ((1 << size) - 1) << offset
    rows = [0] * total
    for v in range(offset, offset + size):
        rows[v] = block ^ (1 << v)
    return rows


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return Graph(n, tuple(_clique_rows(0, n, n)))


def kpq(p: int, q: int) -> Graph:
    """K_p plus one extra vertex (index p) joined to vertices 0..q-1.

    The result has order p+1 and edge connectivity q.
    """
    if q < 1 or q > p:
        raise ValueError(f"need 1 <= q <= p, got p={p}, q={q}")
    rows = _clique_rows(0, p, p + 1)
    for v in range(q):
        rows[v] |= 1 << p
    rows[p] = (1 << q) - 1
    return Graph(p + 1, tuple(rows))


def is_kpq(g: Graph, q: int) -> bool:
    """True iff g is isomorphic to kpq(g.n - 1, q); False unless 1 <= q <= n-1.

    Exact in O(n): a graph with C(n-1, 2) + q edges and a vertex of degree q
    leaves C(n-1, 2) edges on the other n-1 vertices, so they form a clique
    and the vertex joins q of them.
    """
    n = g.n
    return (
        1 <= q <= n - 1
        and g.num_edges() == (n - 1) * (n - 2) // 2 + q
        and any(row.bit_count() == q for row in g.rows)
    )


@dataclass(frozen=True)
class BridgeFamilyParams:
    """Parameters of a two-clique graph joined by r bridge edges.

    ``t`` of the bridge edges run from the hub (vertex number 1 of the first
    clique) to vertices 1..t of the second clique; the remaining r-t are
    ``cross_edges``, given as (i, j) pairs of within-clique vertex numbers
    counted from 1, with i >= 2 so none touches the hub.
    """

    n1: int
    n2: int
    r: int
    t: int
    cross_edges: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "cross_edges", tuple(tuple(e) for e in self.cross_edges))
        if self.r < 1:
            raise ValueError(f"need r >= 1, got {self.r}")
        if not 1 <= self.t <= self.r:
            raise ValueError(f"need 1 <= t <= r, got t={self.t}, r={self.r}")
        if min(self.n1, self.n2) < self.r + 2:
            raise ValueError(
                f"need min(n1, n2) >= r+2, got n1={self.n1}, n2={self.n2}, r={self.r}"
            )
        if self.order > MAX_VERTICES:
            raise ValueError(f"need n1 + n2 <= {MAX_VERTICES}, got {self.order}")
        if len(self.cross_edges) != self.r - self.t:
            raise ValueError(
                f"need exactly r-t={self.r - self.t} cross edges, got {len(self.cross_edges)}"
            )
        seen = set()
        for i, j in self.cross_edges:
            if not 2 <= i <= self.n1:
                raise ValueError(f"cross edge first endpoint {i} not in 2..{self.n1}")
            if not 1 <= j <= self.n2:
                raise ValueError(f"cross edge second endpoint {j} not in 1..{self.n2}")
            if (i, j) in seen:
                raise ValueError(f"duplicate cross edge ({i}, {j})")
            seen.add((i, j))

    @property
    def order(self) -> int:
        return self.n1 + self.n2


def random_cross_edges(
    n1: int, n2: int, r: int, t: int, rng: random.Random
) -> tuple[tuple[int, int], ...]:
    """Sample of r-t distinct non-hub bridge edges drawn with ``rng``.  It
    draws indices into the pairs (i, j) in row order, so no order builds the
    pair list."""
    picks = rng.sample(range(max(n1 - 1, 0) * max(n2, 0)), r - t)
    return tuple(sorted((2 + k // n2, 1 + k % n2) for k in picks))


def bridge_graph(params: BridgeFamilyParams) -> Graph:
    """Two disjoint cliques joined by the r bridge edges described by ``params``."""
    n1, n2 = params.n1, params.n2
    n = params.order
    rows = [a | b for a, b in zip(_clique_rows(0, n1, n), _clique_rows(n1, n2, n))]
    for j in range(1, params.t + 1):
        v = n1 + j - 1
        rows[0] |= 1 << v
        rows[v] |= 1
    for i, j in params.cross_edges:
        u, v = i - 1, n1 + j - 1
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def bridge_graph_tilde(params: BridgeFamilyParams) -> Graph:
    """Flattened form of the bridge graph: the hub keeps degree r, everything
    else collapses to one big clique.

    The hub stays joined to its t bridge targets and to the last r-t vertices
    of its own clique; all remaining hub edges are dropped and every pair
    between the rest of the first clique and the whole second clique is
    joined.  The result is isomorphic to kpq(n1+n2-1, r) for every valid
    parameter set, independent of t and cross_edges.
    """
    n = params.order
    rows = _clique_rows(1, n - 1, n)  # everything except the hub
    for v in tilde_level_groups(params)[2]:
        rows[0] |= 1 << v
        rows[v] |= 1
    return Graph(n, tuple(rows))


def tilde_level_groups(
    params: BridgeFamilyParams,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Index groups (hub, non-neighbors, hub neighbors) of the flattened graph.

    The Perron vector of the flattened graph is constant on each group, with
    the hub largest and its neighbors smallest.
    """
    n1, n2 = params.n1, params.n2
    r, t = params.r, params.t
    near = tuple(range(n1 - (r - t), n1)) + tuple(range(n1, n1 + t))
    mid = tuple(range(1, n1 - (r - t))) + tuple(range(n1 + t, n1 + n2))
    return (0,), mid, near
