"""Canonical labeling by individualization-refinement, and isomorphism as
equality of canonical forms.

``canonical_form`` refines a coloring of the vertices to an equitable
partition, then branches on the vertices of the first non-singleton cell,
individualizing each and refining again, until every partition is discrete.
Each discrete partition orders the vertices; the relabeled adjacency rows
with the smallest tuple are the canonical graph (McKay & Piperno, *Practical
graph isomorphism II*, 2014).  Two graphs are isomorphic iff their canonical
forms are equal.

Two leaves with equal codes give an automorphism.  The search skips a child
that is a twin of a sibling already tried, or that shares an orbit with one
under the automorphisms found so far that fix the current prefix pointwise.
It also abandons the rest of a subtree once an automorphism maps an earlier
sibling's subtree onto it.  Every skipped subtree is an automorphic image of
one already searched, so the result does not change; without these rules,
graphs with large automorphism groups, such as the 6-cube or a perfect
matching on 64 vertices, take minutes instead of a fraction of a second.
"""

from __future__ import annotations

from .graphs import Graph, _bits


def _refine(nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """Coarsest equitable coloring finer than ``colors``.

    New colors are ranks of (color, sorted neighbor colors) signatures, so
    they depend on the structure only, never on the vertex labels, and keep
    the relative order of the old colors.
    """
    ncolors = len(set(colors))
    while True:
        sigs = [(c, tuple(sorted([colors[u] for u in nb]))) for c, nb in zip(colors, nbrs)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == ncolors:
            return colors
        ncolors = len(rank)


def _orbit(v: int, generators: list[tuple[int, ...]]) -> set[int]:
    orbit = {v}
    stack = [v]
    while stack:
        w = stack.pop()
        for gamma in generators:
            x = gamma[w]
            if x not in orbit:
                orbit.add(x)
                stack.append(x)
    return orbit


def canonical_form(g: Graph) -> Graph:
    """The relabeling of g that every graph isomorphic to g maps to."""
    return Graph(g.n, _canonical_rows(g.n, g.rows))


def _canonical_rows(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    """Adjacency rows of the canonical relabeling; ``rows`` are not validated."""
    nbrs = [list(_bits(row)) for row in rows]
    best_code = best_colors = best_path = None
    automorphisms: list[tuple[int, ...]] = []
    unwind_to = -1  # depth to return to once a subtree is shown to copy one searched

    def leaf(colors: list[int], path: list[int]) -> None:
        nonlocal best_code, best_colors, best_path, unwind_to
        relabeled = [0] * n
        for v, nb in enumerate(nbrs):
            relabeled[colors[v]] = sum(1 << colors[u] for u in nb)
        code = tuple(relabeled)
        if best_code is None or code < best_code:
            best_code, best_colors, best_path = code, colors, path
        elif code == best_code:
            vertex_at = [0] * n
            for v, pos in enumerate(best_colors):
                vertex_at[pos] = v
            gamma = tuple(vertex_at[colors[v]] for v in range(n))
            automorphisms.append(gamma)
            # where the two paths part, gamma maps the subtree searched
            # first onto the one being searched, so the rest of it is a copy
            d = next(i for i, (u, v) in enumerate(zip(best_path, path)) if u != v)
            if all(gamma[v] == u for u, v in zip(path[: d + 1], best_path)):
                unwind_to = d

    def search(colors: list[int], path: list[int]) -> None:
        nonlocal unwind_to
        sizes = [0] * n
        for c in colors:
            sizes[c] += 1
        cell = next((c for c in range(n) if sizes[c] > 1), None)
        if cell is None:
            leaf(colors, path)
            return
        tried: list[int] = []
        for v in (v for v in range(n) if colors[v] == cell):
            if any(rows[u] & ~(1 << v) == rows[v] & ~(1 << u) for u in tried):
                continue
            fixing = [a for a in automorphisms if all(a[p] == p for p in path)]
            if fixing and not _orbit(v, fixing).isdisjoint(tried):
                continue
            tried.append(v)
            child = [2 * c for c in colors]
            child[v] -= 1
            search(_refine(nbrs, child), path + [v])
            if unwind_to >= 0:
                if unwind_to < len(path):
                    return
                unwind_to = -1

    search(_refine(nbrs, [0] * n), [])
    return best_code


def isomorphic(g: Graph, h: Graph) -> bool:
    """True iff an edge-preserving bijection between g and h exists."""
    return (
        g.n == h.n
        and g.num_edges() == h.num_edges()
        and canonical_form(g) == canonical_form(h)
    )
