"""Verification harness: exhaustive extremal search plus property checks.

Everything here turns a spectral claim into a computation with an explicit
margin or residual.  Strictness thresholds separate numerical noise from a
genuine tie; anything inside the noise band counts as a failure rather than
silently passing.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, product, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cuts import brute_force_min_cut, min_cuts
from .enumeration import enumerate_connected
from .families import (
    BridgeFamilyParams,
    bridge_graph,
    bridge_graph_tilde,
    complete_graph,
    is_kpq,
    kpq,
    random_cross_edges,
    tilde_level_groups,
)
from .graph6 import graph6_decode, graph6_encode
from .graphs import (
    Graph,
    _reach,
    adjacency_stack,
    distance_stack,
    from_edge_list,
    is_connected,
    stack_chunks,
)
from .isomorphism import canonical_form
from .spectra import perron_stack

logger = logging.getLogger(__name__)

# relative margin below which a strict inequality is treated as unresolved
STRICT_MARGIN = 1e-9
# minimum gap between best and runner-up radius for a uniqueness claim
UNIQUENESS_GAP = 1e-6
# max within-group deviation for a block-constant Perron pattern
GROUP_DEV_TOL = 1e-9
# absolute residual allowed in the closed-form eigen identities
IDENTITY_TOL = 1e-8
# two Perron entries this close count as equal
ENTRY_EQ_TOL = 1e-10
# clique orders of the bridge grid, as offsets above r
GRID_OFFSETS = (2, 3, 4, 5, 6)
# random graphs drawn by the edge-monotonicity suite, and their largest order
MONOTONICITY_CASES = 200
MONOTONICITY_MAX_ORDER = 20
# seeded cross-edge placements per mixed bridge instance, in the grid and in
# ``dsr check``
PLACEMENTS = 5


class CorpusError(ValueError):
    """A search input that cannot be scanned: a graph of the wrong order, or
    no graph with the requested edge connectivity."""


def _solve(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one distance-to-Perron step: the (k, n, n) distance stack of a
    boolean adjacency stack of connected graphs and its certified Perron
    pairs, ``(d, rho, x)``."""
    d = distance_stack(adj)
    return (d, *perron_stack(d))


def _stacked_solve(graphs: Sequence[Graph]) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """One ``(d, rho, x)`` record per connected graph of any mix of orders,
    in input order, from one adjacency stack and one ``_solve`` per order."""
    solved = {}
    for n in sorted({g.n for g in graphs}):
        d, rho, x = _solve(adjacency_stack(n, [g for g in graphs if g.n == n]))
        solved[n] = zip(d, rho.tolist(), x)
    return [next(solved[g.n]) for g in graphs]


def _strictly_above(lhs: float, rhs: float) -> bool:
    """True when lhs exceeds rhs by more than the relative noise band."""
    return lhs - rhs > STRICT_MARGIN * max(lhs, rhs)


@dataclass(frozen=True)
class LemmaVerdict:
    """One bridge claim, its fields the ``dsr check`` columns in order.  A
    strict inequality fills the claimed-larger radius, the smaller one and
    their margin; an identity fills its residual.  ``holds`` says whether
    the claim clears its noise band."""

    claim: str
    params: str
    lhs_rho: float | None
    rhs_rho: float | None
    margin: float | None
    residual: float | None
    holds: bool


@dataclass(frozen=True)
class ExtremalReport:
    """Result of scanning one (n, r) class for the minimum distance spectral
    radius."""

    n: int
    r: int
    class_size: int
    min_rho: float
    runner_up_rho: float | None
    uniqueness_gap: float | None
    minimizer_graph6: str
    matches_kpq: bool

    def holds(self) -> bool:
        """The theorem at (n, r): the minimizer is kpq(n-1, r) and no second
        class comes within the uniqueness gap."""
        return self.matches_kpq and (
            self.uniqueness_gap is None or self.uniqueness_gap > UNIQUENESS_GAP
        )


# ---------------------------------------------------------------------------
# class tables


@dataclass(frozen=True, eq=False)
class ClassTable:
    """Per-graph quantities of connected order-n graphs, one column each.

    Row i describes ``graphs[i]``: ``lam`` its edge connectivity and
    ``side`` the vertex mask of one side of a minimum cut (both 0 for a
    single vertex), ``rho`` and ``x`` its Perron pair, certified when it was
    solved, and ``adjacency`` its (n, n) boolean adjacency matrix.  ``x``
    and ``adjacency`` are one stacked array each, not an object per graph;
    the adjacency stack is unpacked once, when the table is built, and read
    by every later reader.
    """

    graphs: tuple[Graph, ...]
    lam: np.ndarray
    side: np.ndarray
    rho: np.ndarray
    x: np.ndarray
    adjacency: np.ndarray

    def __post_init__(self):
        # cached tables are shared by every caller in the process
        for column in (self.lam, self.side, self.rho, self.x, self.adjacency):
            column.setflags(write=False)


def _build_table(n: int, graphs: Iterable[Graph]) -> ClassTable:
    graphs = tuple(graphs)
    adj = adjacency_stack(n, graphs)
    if n >= 2:
        lam, side = min_cuts(adj)
    else:
        lam, side = np.zeros(len(graphs), dtype=np.int64), np.zeros(len(graphs), dtype=np.uint64)
    return ClassTable(graphs, lam, side, *_solve(adj)[1:], adj)


@lru_cache(maxsize=None)
def class_table(n: int) -> ClassTable:
    """The table of every connected order-n class, built once per order."""
    return _build_table(n, enumerate_connected(n))


# ---------------------------------------------------------------------------
# extremal search


def extremal_search(
    n: int,
    r: int,
    graphs: Sequence[Graph] | None = None,
) -> ExtremalReport:
    """Scan every connected order-n class (the cached class table, or a table
    of the given connected graphs), keep those with edge connectivity exactly
    r, and report the minimum-radius class with its uniqueness gap and the
    isomorphism verdict against kpq(n-1, r).

    The minimizer is the least (rho, graph6) pair, so only the graphs whose
    rho equals the minimum exactly are encoded; the built-in table's is
    named by its canonical form, a corpus minimizer by its own line.  The
    runner-up rho is the least rho of a graph not isomorphic to the
    minimizer, so a list that holds one class twice cannot fake a tie, and
    a true tie between two classes shows as a zero gap.
    """
    if not 1 <= r <= n - 2:
        raise ValueError(f"need 1 <= r <= n-2, got n={n}, r={r}")
    if graphs is not None and any(g.n != n for g in graphs):
        raise CorpusError(f"every graph must have order {n}")
    table = class_table(n) if graphs is None else _build_table(n, graphs)
    kept = np.flatnonzero(table.lam == r)
    if not kept.size:
        raise CorpusError(f"no connected graphs of order {n} with edge connectivity {r}")
    rho = table.rho[kept]
    min_rho = float(rho.min())
    min_g6, min_i = min(
        (graph6_encode(table.graphs[i]).decode("ascii"), i) for i in kept[rho == min_rho]
    )
    best = canonical_form(table.graphs[min_i])
    if graphs is None:
        # enumeration keeps most classes' rows as built, so the built-in
        # table's minimizer is named by its canonical form
        min_g6 = graph6_encode(best).decode("ascii")
    runner = next((
        float(table.rho[i]) for i in kept[np.argsort(rho)]
        if i != min_i and canonical_form(table.graphs[i]) != best
    ), None)
    gap = None if runner is None else runner - min_rho
    matches = is_kpq(table.graphs[min_i], r)
    logger.info(
        "search n=%d r=%d: %d classes, min %.6f at %s, gap %s",
        n, r, kept.size, min_rho, min_g6, gap,
    )
    return ExtremalReport(n, r, kept.size, min_rho, runner, gap, min_g6, matches)


# ---------------------------------------------------------------------------
# bridge claims


def bridge_claims(grid: Sequence[BridgeFamilyParams],
                  bridges: Sequence[Graph]) -> list[list[LemmaVerdict]]:
    """Per bridge instance, the flattening verdict and then one verdict per
    identity.  The flattened graph reads only the cell (n1, n2, r, t), so one
    per cell is solved, stacked with ``bridges``, the instances' bridge
    graphs, and evaluated once: its Perron levels x1 (hub), x2 and x3, the
    pattern (flat levels, x3 < x2 < x1, and kpq(n1+n2-1, r)), the hub row
    rho*x1 = r*x3 + 2(n1+n2-r-1)*x2 and the closed side of the form shift
    x(D - D~)x = 2(n1-1) x2 (-x1 + r x3 + 2(n2-r) x2).  Each instance adds
    what it owns: its label, its radius's strict margin over the cell's, and
    when t == r the form's direct side from its distance matrix.  A residual
    holds below IDENTITY_TOL, None where a strict consequence of the hub row
    fails."""
    cells = {(p.n1, p.n2, p.r, p.t): p for p in grid}
    flat = [bridge_graph_tilde(p) for p in cells.values()]
    records = _stacked_solve([*bridges, *flat])
    evaluated = {}
    for (key, p), tilde, (dt, rhs, xt) in zip(cells.items(), flat, records[len(grid):]):
        n1, n2, r, n = p.n1, p.n2, p.r, p.order
        _, mid, near = (xt[list(idx)] for idx in tilde_level_groups(p))
        m1, m2, m3 = float(xt[0]), float(mid.mean()), float(near.mean())
        deviation = float(max(np.abs(mid - m2).max(), np.abs(near - m3).max()))
        pattern = deviation < GROUP_DEV_TOL and m3 < m2 < m1 and is_kpq(tilde, r)
        # the hub row's strict consequences: rho > n-1 and x1 < r*x3 + 2(n2-r)*x2
        strict = rhs > n - 1 and m1 < r * m3 + 2.0 * (n2 - r) * m2
        hub = abs(rhs * m1 - (r * m3 + 2.0 * (n - r - 1) * m2)) if strict else None
        closed = 2.0 * (n1 - 1) * m2 * (-m1 + r * m3 + 2.0 * (n2 - r) * m2)
        evaluated[key] = dt, rhs, xt, pattern, hub, closed
    out = []
    for params, (dg, lhs, _) in zip(grid, records):
        n1, n2, r = params.n1, params.n2, params.r
        dt, rhs, xt, pattern, hub, closed = evaluated[n1, n2, r, params.t]
        label = f"n1={n1} n2={n2} r={r} t={params.t} cross={list(params.cross_edges)}"
        flattens = _strictly_above(lhs, rhs) and pattern
        claims = [LemmaVerdict("bridge_flattening_decreases_radius", label,
                               lhs, rhs, lhs - rhs, None, flattens)]
        residuals = [("hub_row_identity", hub)]
        if params.t == r:
            direct = float(xt @ ((dg - dt) @ xt))
            residuals.append(("form_shift_identity", abs(direct - closed)))
        claims += [
            LemmaVerdict(claim, label, None, None, None, res,
                         res is not None and res < IDENTITY_TOL)
            for claim, res in residuals
        ]
        out.append(claims)
    return out


# ---------------------------------------------------------------------------
# randomized instance generation


def random_connected_graph(rng: random.Random) -> Graph:
    """Connected Erdos-Renyi sample of order 4..MONOTONICITY_MAX_ORDER; edge
    probability drawn from {0.3, 0.5, 0.7}, rejection-sampled until connected."""
    n = rng.randint(4, MONOTONICITY_MAX_ORDER)
    p = rng.choice((0.3, 0.5, 0.7))
    while True:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = from_edge_list(n, edges)
        if is_connected(g):
            return g


def bridge_instances(n1: int, n2: int, r: int, t: int,
                     rngs: Iterable[random.Random]) -> list[BridgeFamilyParams]:
    """The hub-only instance, or with 1 <= t < r PLACEMENTS cross-edge
    placements, the i-th drawn with the i-th of ``rngs``.  Bad parameters
    raise BridgeFamilyParams's ValueError before any placement is drawn."""
    if not 1 <= t < r:
        return [BridgeFamilyParams(n1, n2, r, t)]
    BridgeFamilyParams(n1, n2, r, r)  # validates n1, n2 and r
    return [BridgeFamilyParams(n1, n2, r, t, random_cross_edges(n1, n2, r, t, rng))
            for rng in islice(rngs, PLACEMENTS)]


def bridge_grid(seed: int, r_max: int) -> Iterator[BridgeFamilyParams]:
    """Deterministic parameter grid over the bridge family for r = 1..r_max,
    every placement drawn from one stream seeded with ``seed``."""
    rngs = repeat(random.Random(seed))
    for r in range(1, r_max + 1):
        cliques = [r + o for o in GRID_OFFSETS]
        for t, n1, n2 in product(range(1, r + 1), cliques, cliques):
            yield from bridge_instances(n1, n2, r, t, rngs)


# ---------------------------------------------------------------------------
# suites


@dataclass(frozen=True)
class SuiteResult:
    name: str
    instances: int
    failures: int
    notes: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _tally(name: str, outcomes: Iterable[bool], notes: str = "") -> SuiteResult:
    """A suite's result from one pass/fail outcome per instance."""
    instances = failures = 0
    for ok in outcomes:
        instances += 1
        failures += not ok
    return SuiteResult(name, instances, failures, notes)


def suite_closed_forms() -> SuiteResult:
    """Spot values: complete graphs hit order-1 exactly; the two small paths
    and the pendant-triangle hit their polynomial roots."""
    targets = [(complete_graph(n), n - 1.0, 1e-10) for n in range(2, 13)]
    targets += [
        (from_edge_list(3, [(0, 1), (1, 2)]), 1.0 + np.sqrt(3.0), 1e-9),
        (from_edge_list(4, [(0, 1), (1, 2), (2, 3)]), 2.0 + np.sqrt(10.0), 1e-9),
        (kpq(3, 1), float(max(np.roots([1.0, -1.0, -11.0, -7.0]).real)), 1e-9),
    ]
    records = _stacked_solve([g for g, _, _ in targets])
    return _tally("closed_forms", (
        abs(rho - expected) <= tol for (_, rho, _), (_, expected, tol) in zip(records, targets)
    ))


def suite_graph6_roundtrip(max_n: int) -> SuiteResult:
    return _tally("graph6_roundtrip", (
        graph6_decode(graph6_encode(g)) == g
        for n in range(1, max_n + 1) for g in enumerate_connected(n)
    ))


def _shortest_paths(adj: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per graph of a stack of adjacency and hop-count matrices, whether d
    has the level sets that on a connected graph only its distances have:
    d is 0 on the diagonal and positive off it, and for each L < n-1,
    [d <= L+1] = I | (A·[d <= L] > 0), one exact float32 product a level."""
    k, n, _ = d.shape
    eye = np.eye(n, dtype=bool)
    holds = np.where(eye, d == 0, d > 0).all(axis=(1, 2))
    for chunk in stack_chunks(k, n * n):
        a, part = adj[chunk].astype(np.float32), d[chunk]
        for level in range(n - 1):
            grown = eye | (a @ (part <= level).astype(np.float32) > 0)
            holds[chunk] &= ((part <= level + 1) == grown).all(axis=(1, 2))
    return holds


def suite_spectra_oracle(max_n: int) -> SuiteResult:
    """Over every class, one order's stack at a time: a distance stack
    rebuilt from the table's adjacency and certified by its level sets, the
    table's radius within the band of a dense symmetric eigensolver's on it
    and of both ends of the Collatz-Wielandt enclosure min/max (Dx)_i/x_i of
    its own vector x > 0 (Horn & Johnson 8.1; an entry <= 0 makes them NaN
    and fails), and the table's cut sizes equal to the bipartition scan's."""
    verdicts = []
    for n in range(1, max_n + 1):
        table = class_table(n)
        hops = distance_stack(table.adjacency)
        d = hops.astype(float)
        dense = np.linalg.eigvalsh(d)[:, -1]
        x = np.where(table.x > 0, table.x, np.nan)
        ratios = (d @ x[:, :, None])[:, :, 0] / x
        bounds = np.stack([dense, ratios.min(axis=1), ratios.max(axis=1)])
        holds = (np.abs(table.rho - bounds) <= 1e-8 * np.maximum(1.0, np.abs(dense))).all(0)
        holds &= _shortest_paths(table.adjacency, hops)
        if n >= 2:
            holds &= table.lam == brute_force_min_cut(table.adjacency)
        verdicts += holds.tolist()
    return _tally("spectra_and_cut_oracle", verdicts)


def suite_theorem(max_n: int) -> SuiteResult:
    """For every n and every feasible r, the minimum-radius class must be
    kpq(n-1, r), unique with a clear gap.  The built-in classes are pairwise
    non-isomorphic, so two or more of them without a runner-up can only come
    from a broken runner-up test, and fail too.  The notes lead with the
    smallest uniqueness gap and where it occurs, then name each failure."""
    reports = [extremal_search(n, r) for n in range(4, max_n + 1) for r in range(1, n - 1)]
    faults = [
        f"minimizer {rep.minimizer_graph6}" if not rep.holds()
        else f"no runner-up among {rep.class_size} classes"
        if rep.class_size >= 2 and rep.uniqueness_gap is None else None
        for rep in reports
    ]
    notes = [f"n={rep.n} r={rep.r}: {fault}" for rep, fault in zip(reports, faults) if fault]
    # (gap, n, r) in scan order, so min() keeps the first of equal gaps
    gaps = [(rep.uniqueness_gap, rep.n, rep.r) for rep in reports
            if rep.uniqueness_gap is not None]
    if gaps:
        notes.insert(0, "min uniqueness gap {:.6e} at n={} r={}".format(*min(gaps)))
    return _tally("extremal_theorem", (fault is None for fault in faults), "; ".join(notes))


def suite_edge_monotonicity(seed: int) -> SuiteResult:
    """Random connected graphs; one random edge addition and one random
    non-bridge deletion each must move the radius strictly the right way.
    Every graph is drawn first, each (larger, smaller) radius pair kept as
    two indices into them, then all are solved once in one stacked call."""
    rng = random.Random(seed)
    graphs, pairs = [], []
    for _ in range(MONOTONICITY_CASES):
        g = random_connected_graph(rng)
        non_edges = [
            (u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)
        ]
        # uv is no bridge iff another neighbour of u reaches v in g - u
        full = (1 << g.n) - 1
        deletable = [
            (u, v) for u, v in g.edges()
            if _reach(g.rows, g.rows[u] ^ 1 << v, full ^ 1 << u) >> v & 1
        ]
        base = len(graphs)
        graphs.append(g)
        if non_edges:
            pairs.append((base, len(graphs)))
            graphs.append(g.with_edge(*rng.choice(non_edges)))
        if deletable:
            pairs.append((len(graphs), base))
            graphs.append(g.without_edge(*rng.choice(deletable)))
    radii = [rho for _, rho, _ in _stacked_solve(graphs)]
    return _tally("edge_monotonicity",
                  (_strictly_above(radii[big], radii[small]) for big, small in pairs))


def _entry_order(adj: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per pair (u, v) of each (n, n) adjacency and Perron vector x in a
    stack, the entry order that neighborhood inclusion implies: equal
    neighborhoods (apart from u, v) give entries within ENTRY_EQ_TOL, a
    strictly smaller one a strictly larger entry, incomparable ones nothing.
    N(u) - v lies inside N(v) iff deg u - a_uv - (A^2)_uv is zero."""
    a = adj.astype(np.float32)
    inside = a.sum(axis=2)[:, :, None] - a - a @ a == 0
    contains = inside.transpose(0, 2, 1)  # N(v) - u inside N(u)
    gap = x[:, :, None] - x[:, None, :]  # x_u - x_v
    return np.where(inside, np.where(contains, np.abs(gap) <= ENTRY_EQ_TOL, gap > 0),
                    ~contains | (gap < 0))


def suite_perron_order(max_n: int) -> SuiteResult:
    """Exhaustive neighborhood-inclusion ordering check over all vertex pairs
    u < v of all classes, one order's stack at a time."""
    verdicts = []
    for n in range(2, max_n + 1):
        table = class_table(n)
        u, v = np.triu_indices(n, 1)
        holds = _entry_order(table.adjacency, table.x)
        verdicts += holds[:, u, v].ravel().tolist()
    return _tally("perron_entry_order", verdicts)


def suite_bridge_grid(grid: Sequence[BridgeFamilyParams],
                      bridges: Sequence[Graph]) -> SuiteResult:
    """Bridge-family grid: flattening strictly lowers the radius, lands on
    kpq, shows the three-level pattern, and satisfies both eigen identities."""
    claims = bridge_claims(grid, bridges)
    worst = max((float("inf") if c.residual is None else c.residual
                 for instance in claims for c in instance[1:]), default=0.0)
    notes = f"max identity residual {worst:.3e}"
    return _tally("bridge_grid_and_identities",
                  (all(c.holds for c in instance) for instance in claims), notes)


def _min_degree(adj: np.ndarray) -> np.ndarray:
    """Each graph's minimum degree, read off a (k, n, n) adjacency stack."""
    return adj.sum(axis=2, dtype=np.int16).min(axis=1)


def suite_cut_sides(max_n: int, bridges: Sequence[Graph]) -> SuiteResult:
    """The cut-side lemma: when every degree exceeds the edge connectivity r,
    each side S of a minimum cut has |S|(r+1) <= |S|(|S|-1) + r, so at least
    r+2 vertices, whichever minimum cut is read.  Checked on the table's cut
    of every class up to max_n whose minimum degree exceeds its table edge
    connectivity, and on the cut of each grid graph in ``bridges`` (which
    must meet the hypothesis), one ``min_cuts`` stack per order.  A class
    whose minimum degree is below it fails: a minimum-degree star is a cut."""

    def sides_clear(adj: np.ndarray, lam: np.ndarray, side: np.ndarray,
                    star_ok: bool) -> list[bool]:
        n, degree = adj.shape[1], _min_degree(adj)
        a = np.array([mask.bit_count() for mask in side.tolist()], dtype=np.int64)
        clear = (degree > lam) & (np.minimum(a, n - a) >= lam + 2)
        return (clear | star_ok & (degree == lam)).tolist()

    verdicts = []
    for table in map(class_table, range(2, max_n + 1)):
        verdicts += sides_clear(table.adjacency, table.lam, table.side, True)
    for n in sorted({g.n for g in bridges}):
        adj = adjacency_stack(n, [g for g in bridges if g.n == n])
        verdicts += sides_clear(adj, *min_cuts(adj), False)
    return _tally("cut_side_orders", verdicts)


def run_all_suites(seed: int, max_n: int) -> list[SuiteResult]:
    """Every verification suite at the given caps, in a fixed order.  The
    bridge grid and its bridge graphs are built once for both grid suites."""
    small = min(7, max_n)
    grid = list(bridge_grid(seed, min(4, max(1, max_n - 4))))
    bridges = [bridge_graph(params) for params in grid]
    results = [
        suite_closed_forms(),
        suite_graph6_roundtrip(small),
        suite_spectra_oracle(small),
    ]
    if max_n >= 4:
        results.append(suite_theorem(max_n))
    results.append(suite_edge_monotonicity(seed))
    results.append(suite_perron_order(small))
    results.append(suite_bridge_grid(grid, bridges))
    results.append(suite_cut_sides(max_n, bridges))
    return results
