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

The automorphisms met on the way, the leaf automorphisms and the
transposition of each twin pair skipped, come back from ``_canonical_search``
as found, on the labeling of the rows it searched: they generate a subgroup
of that graph's automorphism group, and enumeration searches each parent to
try its attachment sets once per orbit.  The search's first coloring,
``_refine`` from one color, is an isomorphism invariant of each vertex;
enumeration computes the same coloring for whole stacks of candidates,
``enumeration._root_colours``, to choose each candidate's new vertex
without a search, and searches a candidate the coloring leaves open only
if another open candidate of its order shares its invariant key of colors
and closed-walk counts.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from .graphs import Graph, _bits


def _pickers(rows: Sequence[int]) -> list[itemgetter]:
    """Per vertex, a getter of its neighbors' colors from a coloring with
    two sentinel slots of color -2 appended, so that every pick is a tuple
    and the sentinels sort first in every signature alike."""
    n = len(rows)
    return [itemgetter(*_bits(row), n, n + 1) for row in rows]


def _refine(pickers: list[itemgetter], colors: list[int]) -> list[int]:
    """Coarsest equitable coloring finer than ``colors``, with ``pickers``
    from ``_pickers``.

    New colors are ranks of (color, sorted neighbor colors) signatures, so
    they depend on the structure only, never on the vertex labels, and keep
    the relative order of the old colors.
    """
    ncolors = len(set(colors))
    vertices = range(len(colors))
    while True:
        padded = colors + [-2, -2]
        sigs = [(c, sorted(pick(padded))) for c, pick in zip(colors, pickers)]
        order = sorted(vertices, key=sigs.__getitem__)
        colors = [0] * len(sigs)
        for u, v in zip(order, order[1:]):
            colors[v] = colors[u] + (sigs[v] != sigs[u])
        count = colors[order[-1]] + 1
        if count == ncolors:
            return colors
        ncolors = count


def _orbit(v: int, generators: Sequence[Sequence[int]]) -> set[int]:
    """The images of ``v`` under the group the permutation tables generate."""
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
    return Graph(g.n, _canonical_search(g.n, g.rows)[0])


def _canonical_search(
    n: int, rows: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Adjacency rows of the canonical relabeling, and the automorphisms the
    search met, each a tuple gamma with gamma[v] the image of vertex v of
    ``rows``; ``rows`` are not validated."""
    nbrs = [list(_bits(row)) for row in rows]
    pickers = _pickers(rows)
    best_code = best_colors = best_path = None
    automorphisms: list[tuple[int, ...]] = []
    twins: dict[tuple[int, int], None] = {}  # insertion-ordered set
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
            twin = next((u for u in tried if rows[u] & ~(1 << v) == rows[v] & ~(1 << u)), None)
            if twin is not None:
                twins[twin, v] = None
                continue
            fixing = [a for a in automorphisms if all(a[p] == p for p in path)]
            if fixing and not _orbit(v, fixing).isdisjoint(tried):
                continue
            tried.append(v)
            child = [2 * c for c in colors]
            child[v] -= 1
            search(_refine(pickers, child), path + [v])
            if unwind_to >= 0:
                if unwind_to < len(path):
                    return
                unwind_to = -1

    search(_refine(pickers, [0] * n), [])
    for u, v in twins:
        swap = list(range(n))
        swap[u], swap[v] = v, u
        automorphisms.append(tuple(swap))
    return best_code, tuple(automorphisms)


def isomorphic(g: Graph, h: Graph) -> bool:
    """True iff an edge-preserving bijection between g and h exists."""
    return (
        g.n == h.n
        and g.num_edges() == h.num_edges()
        and canonical_form(g) == canonical_form(h)
    )
