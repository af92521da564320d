"""Bitset-backed simple graphs and unweighted shortest-path distances.

Vertices are the integers 0..n-1 and adjacency is stored as one Python int
per vertex, so neighborhood operations are single machine-word bit ops for
every order this toolkit supports (n <= 64).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_VERTICES = 64

# entries per chunk of a stacked kernel (see stack_chunks): 256 order-8
# matrices; larger chunks raise peak memory and gain no speed
STACK_ENTRIES = 1 << 14


class DisconnectedGraphError(ValueError):
    """An operation that requires a connected graph received one that is not."""


def _bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected labeled graph; ``rows[v]`` has bit u set iff uv is an edge.

    Adjacency is symmetric with a zero diagonal; both are enforced at
    construction time so every Graph in the system is structurally valid.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {self.n}")
        if len(self.rows) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        w = matrix_width(self.n)
        packed = 0
        for row in reversed(self.rows):
            packed = packed << w | (row & full)
        asym = packed & ~bit_transpose(packed, w)
        # (v, u) is the first asymmetric pair in row order; a range or
        # self-loop fault in rows 0..v comes first, as in a row-by-row scan
        v, u = divmod((asym & -asym).bit_length() - 1, w) if asym else (self.n, 0)
        for k, row in enumerate(self.rows[: v + 1]):
            if row & ~full:
                raise ValueError(f"row {k} has bits outside 0..{self.n - 1}")
            if row >> k & 1:
                raise ValueError(f"self-loop at vertex {k}")
        if asym:
            raise ValueError(f"adjacency not symmetric at ({u}, {v})")

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            for v in _bits(self.rows[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def with_edge(self, u: int, v: int) -> "Graph":
        """Copy of the graph with edge uv added (no-op if present)."""
        _check_pair(self.n, u, v)
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def without_edge(self, u: int, v: int) -> "Graph":
        """Copy of the graph with edge uv removed (no-op if absent)."""
        _check_pair(self.n, u, v)
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


def matrix_width(n: int) -> int:
    """Row stride of an order-n packed bit matrix: the least power of two >= max(n, 8)."""
    return max(8, 1 << (n - 1).bit_length())


@cache
def _block_swaps(w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per step of a w x w transpose; the mask selects the
    top-right s x s block of every 2s x 2s block, for s = w/2, ..., 1."""
    steps = []
    s = w >> 1
    while s:
        cols = sum(1 << j for j in range(w) if j & s)
        steps.append((s * (w - 1), sum(cols << i * w for i in range(w) if not i & s)))
        s >>= 1
    return tuple(steps)


def bit_transpose(packed: int, w: int) -> int:
    """Transpose of a w x w bit matrix whose row i is bits i*w..i*w+w-1 of
    ``packed``, by log2(w) block swaps (Hacker's Delight, section 7-3)."""
    for shift, mask in _block_swaps(w):
        t = (packed ^ packed >> shift) & mask
        packed ^= t | t << shift
    return packed


def _check_pair(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex index out of range for order {n}: ({u}, {v})")
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) not allowed")


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on n vertices from unordered index pairs (duplicates allowed)."""
    if not 1 <= n <= MAX_VERTICES:  # before the row list is allocated
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    rows = [0] * n
    for u, v in edges:
        _check_pair(n, u, v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def _reach(rows: Sequence[int], seed: int, alive: int) -> int:
    """Mask of the vertices that paths inside the ``alive`` mask join to the
    ``seed`` mask, a subset of ``alive``."""
    seen = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & alive & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    """True iff vertex 0 reaches every vertex."""
    return _reach(g.rows, 1, (1 << g.n) - 1) == (1 << g.n) - 1


def stack_chunks(k: int, entries: int) -> Iterator[slice]:
    """The chunks of every stacked kernel: slices of a k-row stack, at least
    one row and at most ``STACK_ENTRIES`` entries at ``entries`` per row."""
    step = max(1, STACK_ENTRIES // entries)
    return (slice(start, start + step) for start in range(0, k, step))


def adjacency_stack(n: int, graphs: Sequence[Graph] | np.ndarray) -> np.ndarray:
    """(k, n, n) boolean adjacency matrices of k order-n graphs, or of a
    (k, n) array of their bit rows, unpacked from the bit rows at their
    ``matrix_width(n) // 8``-byte width."""
    if not isinstance(graphs, np.ndarray):
        graphs = [g.rows for g in graphs]
    rows = np.asarray(graphs, dtype=f"<u{matrix_width(n) // 8}")
    return np.unpackbits(rows.reshape(-1, n, 1).view(np.uint8),
                         axis=2, count=n, bitorder="little").view(bool)


def distance_stack(adj: np.ndarray) -> np.ndarray:
    """(k, n, n) int8 hop counts of the k connected graphs of a (k, n, n)
    boolean adjacency stack, from all their breadth-first searches at once,
    one ``stack_chunks`` chunk at a time: each level grows every reached set
    by its neighbours with one float32 matmul (sums of at most 64 terms of 0
    or 1, so exact), and each entry counts the levels at which its vertex
    was not yet reached.  Raises on disconnected input."""
    k, n = adj.shape[:2]
    dist = np.zeros((k, n, n), dtype=np.int8)  # hop counts stay below n <= 64
    for chunk in stack_chunks(k, n * n):
        a, part = adj[chunk].astype(np.float32), dist[chunk]
        reach = np.eye(n, dtype=bool)  # the first level broadcasts it over the chunk
        for _ in range(n - 1):  # no hop count exceeds n - 1
            if reach.all():
                break
            part += ~reach
            reach = reach | (reach.astype(np.float32) @ a > 0)
        # a disconnected graph leaves some vertex unreached from source 0
        if not reach[:, 0].all():
            unreached = np.argwhere(~reach[:, 0])
            raise DisconnectedGraphError(
                f"vertex {unreached[0, 1]} unreachable from 0; graph is disconnected"
            )
    return dist


def distance_matrix(g: Graph) -> np.ndarray:
    """Read-only (n, n) int64 all-pairs shortest-path matrix; raises on
    disconnected input."""
    d = distance_stack(adjacency_stack(g.n, [g]))[0].astype(np.int64)
    d.setflags(write=False)
    return d
