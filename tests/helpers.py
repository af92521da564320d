"""Shared test helpers, including brute-force oracles kept deliberately
independent of the production code paths they check."""

import math
import random
from functools import lru_cache
from itertools import permutations

import numpy as np

from dsr import (BridgeFamilyParams, ConvergenceError, Graph, Graph6Error, from_edge_list,
                 random_cross_edges)
from dsr.isomorphism import _pickers, _refine, canonical_form
from dsr.spectra import PerronPair


def upper_triangle_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs (i, j), i < j, in column-major order: (0,1),(0,2),(1,2),(0,3),..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def random_graph(rng, n: int, p: float) -> Graph:
    """Erdos-Renyi sample G(n, p), possibly disconnected."""
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < p])


def random_connected(rng, n: int, p: float) -> Graph:
    """G(n, p) plus a random spanning tree (vertex v joins an earlier one)."""
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    return from_edge_list(n, tree + random_graph(rng, n, p).edges())


def crossing_edges(g: Graph, side: int) -> list[tuple[int, int]]:
    """The edges of g with one end in the vertex mask ``side`` and one out."""
    return [(u, v) for u, v in g.edges() if (side >> u & 1) != (side >> v & 1)]


def perm_canonical(g: Graph) -> tuple:
    """Minimum adjacency bit string over all vertex permutations.

    Exponential; usable up to n ~ 6.  Two graphs are isomorphic iff their
    minima coincide, independent of the production isomorphism code.
    """
    pairs = upper_triangle_pairs(g.n)
    best = None
    for perm in permutations(range(g.n)):
        s = tuple(1 if g.has_edge(perm[i], perm[j]) else 0 for i, j in pairs)
        if best is None or s < best:
            best = s
    return best


def automorphism_count(g: Graph) -> int:
    """|Aut g| by backtracking, independent of the production isomorphism
    code: vertices 0, 1, ... are mapped in turn to each unused vertex of the
    same degree whose adjacency to the images of the earlier vertices
    matches, and every completed map is counted."""
    image = [0] * g.n

    def extend(v: int, used: int) -> int:
        if v == g.n:
            return 1
        want = 0  # images of v's earlier neighbours
        for u in range(v):
            if g.has_edge(u, v):
                want |= 1 << image[u]
        total = 0
        for w in range(g.n):
            if not used >> w & 1 and g.degree(w) == g.degree(v) and g.rows[w] & used == want:
                image[v] = w
                total += extend(v + 1, used | 1 << w)
        return total

    return extend(0, 0)


def relabel(g: Graph, perm) -> Graph:
    """The graph with vertex v renamed perm[v]."""
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def reference_refine(g: Graph, colors: list[int]) -> list[int]:
    """Coarsest equitable coloring of g finer than ``colors``: each pass
    ranks the distinct (color, sorted neighbor colors) signatures through a
    set, a sort and a dict, until the number of colors stops growing."""
    nbrs = [[u for u in range(g.n) if row >> u & 1] for row in g.rows]
    ncolors = len(set(colors))
    while True:
        sigs = [(c, tuple(sorted(colors[u] for u in nb))) for c, nb in zip(colors, nbrs)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == ncolors:
            return colors
        ncolors = len(rank)


def root_colors(rows) -> list[int]:
    """The equitable coloring that the canonical search of the graph with
    rows ``rows`` starts from, one graph at a time: the reference for the
    enumeration's stacked root colourings."""
    return _refine(_pickers(rows), [0] * len(rows))


@lru_cache(maxsize=None)
def unfiltered_classes(n: int) -> frozenset:
    """Canonical rows of the connected order-n classes, grown from the
    order-(n-1) ones by adding a vertex joined to every nonempty subset of
    the old ones and canonicalizing every candidate, with no acceptance rule.
    """
    if n == 1:
        return frozenset({(0,)})
    new_bit = 1 << (n - 1)
    classes = set()
    for prow in unfiltered_classes(n - 1):
        for sub in range(1, new_bit):
            rows = tuple(
                prow[i] | new_bit if sub >> i & 1 else prow[i] for i in range(n - 1)
            ) + (sub,)
            classes.add(canonical_form(Graph(n, rows)).rows)
    return frozenset(classes)


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper; returns the list of call args."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_slow_paths(monkeypatch) -> list[list]:
    """Count, one list each, the per-graph isomorphism and canonical-form
    tests that the stacked solves do without (dsr.verify binds neither
    power iteration nor one-graph distance matrices)."""
    import dsr.isomorphism
    import dsr.verify

    return [count_calls(monkeypatch, module, name) for module, name in [
        (dsr.verify, "canonical_form"), (dsr.isomorphism, "isomorphic"),
        (dsr.isomorphism, "canonical_form"),
    ]]


def adjacency(g: Graph) -> np.ndarray:
    """(n, n) boolean adjacency matrix, one edge test per entry."""
    return np.array([[g.has_edge(u, v) for v in range(g.n)] for u in range(g.n)])


def reference_order_holds(g: Graph, x: np.ndarray, u: int, v: int, tol: float) -> bool:
    """The Perron-entry relation that neighborhood inclusion implies for the
    pair u, v, from the bitset rows: coinciding neighborhoods (apart from
    each other) give entries within tol, a strictly smaller neighborhood
    gives a strictly larger entry, and incomparable neighborhoods claim
    nothing."""
    nu = g.rows[u] & ~(1 << v)
    nv = g.rows[v] & ~(1 << u)
    if nu == nv:
        return abs(x[u] - x[v]) <= tol
    if nu & ~nv == 0:  # N(u)\{v} strictly inside N(v)\{u}: u gets the larger entry
        return x[u] > x[v]
    if nv & ~nu == 0:
        return x[v] > x[u]
    return True


def reference_min_cut(g: Graph) -> tuple[int, int]:
    """Minimum cut ``(size, side mask)`` by scanning the sides over vertices
    0..n-2 one mask at a time, counting each side's crossing edges row by
    row; the side is the least mask of minimum cut."""
    full = (1 << g.n) - 1
    best_size, best_mask = None, 0
    for mask in range(1, 1 << (g.n - 1)):
        crossing = sum((g.rows[v] & full & ~mask).bit_count()
                       for v in range(g.n) if mask >> v & 1)
        if best_size is None or crossing < best_size:
            best_size, best_mask = crossing, mask
    return best_size, best_mask


def reference_shortest_paths(adj: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per graph of a stack of adjacency and hop-count matrices, whether d
    solves Bellman's equations d_vv = 0 and d_uv = 1 + min d_wv over the
    neighbours w of u (n where u has none), with (n, n, n) temporaries per
    graph."""
    n = d.shape[1]
    nearest = np.where(adj[:, :, :, None], d[:, None], n).min(axis=2)
    bellman = np.where(np.eye(n, dtype=bool), 0, nearest + 1)
    return (d == bellman).all(axis=(1, 2))


def reference_bridge_grid(seed: int, r_max: int):
    """The bridge grid as nested loops over r, t, n1 and n2 (clique orders
    r+2..r+6): a hub-only cell yields one instance, a mixed cell five, their
    cross edges drawn in turn from one stream seeded with ``seed``."""
    rng = random.Random(seed)
    for r in range(1, r_max + 1):
        for t in range(1, r + 1):
            for n1 in range(r + 2, r + 7):
                for n2 in range(r + 2, r + 7):
                    if t == r:
                        yield BridgeFamilyParams(n1, n2, r, t)
                    else:
                        for _ in range(5):
                            yield BridgeFamilyParams(
                                n1, n2, r, t, random_cross_edges(n1, n2, r, t, rng)
                            )


def reference_transpose(packed: int, w: int) -> int:
    """w x w bit-matrix transpose, one bit at a time."""
    out = 0
    for i in range(w):
        for j in range(w):
            if packed >> (i * w + j) & 1:
                out |= 1 << (j * w + i)
    return out


def reference_row_fault(n: int, rows: tuple) -> str | None:
    """The message of the first fault a row-by-row, bit-by-bit scan finds in
    rows of a valid order n, or None for a valid adjacency."""
    full = (1 << n) - 1
    for v, row in enumerate(rows):
        if row & ~full:
            return f"row {v} has bits outside 0..{n - 1}"
        if row >> v & 1:
            return f"self-loop at vertex {v}"
        rest = row
        while rest:  # set bits, lowest first
            u = (rest & -rest).bit_length() - 1
            if not rows[u] >> v & 1:
                return f"adjacency not symmetric at ({u}, {v})"
            rest &= rest - 1
    return None


def reference_graph6_encode(g: Graph) -> bytes:
    """Short-form graph6, one upper-triangle pair at a time."""
    out = bytearray([g.n + 63])
    bits = [g.rows[i] >> j & 1 for i, j in upper_triangle_pairs(g.n)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        out.append(int("".join(map(str, bits[k:k + 6])), 2) + 63)
    return bytes(out)


def reference_graph6_decode(data: bytes | str) -> Graph:
    """Short-form graph6 decoder that reads one bit at a time, with the same
    checks, messages and precedence as ``dsr.graph6_decode``."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error(f"non-ASCII input: {exc}") from None
    if not data:
        raise Graph6Error("empty graph6 string")
    first = data[0]
    if first == 126:
        raise Graph6Error("long-form graph6 (order > 62) not supported")
    if not 63 <= first < 126:
        raise Graph6Error(f"malformed length byte {first!r}")
    n = first - 63
    if n == 0:
        raise Graph6Error("order-0 graph not representable")
    pairs = upper_triangle_pairs(n)
    nbytes = (len(pairs) + 5) // 6
    body = data[1:]
    if len(body) < nbytes:
        raise Graph6Error(f"truncated: need {nbytes} data bytes for order {n}, got {len(body)}")
    if len(body) > nbytes:
        raise Graph6Error(f"trailing garbage after {nbytes} data bytes")
    for byte in body:
        if not 63 <= byte <= 126:
            raise Graph6Error(f"data byte {byte!r} outside graph6 range")
    bits = [(byte - 63) >> shift & 1 for byte in body for shift in range(5, -1, -1)]
    if any(bits[len(pairs):]):
        raise Graph6Error("nonzero padding bits")
    rows = [0] * n
    for (i, j), bit in zip(pairs, bits):
        if bit:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def reference_perron(d: np.ndarray) -> PerronPair:
    """Power iteration with a fresh array per step, ``np.linalg.norm`` and
    ``np.max(np.abs(...))``; ``dsr.perron`` must match it bit for bit."""
    n = len(d)
    if n == 1:
        return PerronPair(0.0, np.ones(1), 0.0, 0)
    a = d.astype(np.float64)
    tol = 1e-12 * n
    max_iter = int(100 * n * math.log(1.0 / tol))
    x = np.full(n, 1.0 / math.sqrt(n))
    for it in range(1, max_iter + 1):
        y = a @ x
        rho = float(x @ y)
        residual = float(np.max(np.abs(y - rho * x)))
        if residual <= tol:
            return PerronPair(rho, x.copy(), residual, it)
        x = y / np.linalg.norm(y)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (last residual {residual:.3e})"
    )
