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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cuts import CutCertificate, brute_force_min_cut, edge_connectivity, min_degree
from .enumeration import enumerate_connected
from .families import (
    BridgeFamilyParams,
    bridge_graph,
    bridge_graph_tilde,
    complete_graph,
    kpq,
    random_cross_edges,
    tilde_level_groups,
)
from .graph6 import Graph6Error, graph6_decode, graph6_encode
from .graphs import Graph, distance_matrix, from_edge_list, is_connected
from .isomorphism import canonical_form, isomorphic
from .spectra import perron, perron_group_pattern, perron_stack, quadratic_form

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


class VerificationError(RuntimeError):
    """A property that must hold mathematically failed numerically."""


class CorpusError(ValueError):
    """A search input that cannot be scanned: a bad corpus line, or no graph
    with the requested edge connectivity."""


def graph_rho(g: Graph) -> float:
    """Distance spectral radius of a connected graph."""
    return perron(distance_matrix(g)).rho


@dataclass(frozen=True)
class LemmaVerdict:
    """Outcome of one strict-inequality check: the claimed-larger radius on
    the left, the smaller on the right, and whether the margin clears the
    noise threshold."""

    lemma: str
    params: str
    lhs_rho: float | None
    rhs_rho: float | None
    margin: float | None
    holds: bool
    applicable: bool = True
    detail: str = ""


@dataclass(frozen=True)
class PerronOrderVerdict:
    """Neighborhood-inclusion classification of a vertex pair and the
    corresponding Perron-entry relation."""

    relation: str  # "equal" | "nested" | "incomparable"
    u: int
    v: int
    x_u: float
    x_v: float
    larger: int | None
    holds: bool


@dataclass(frozen=True)
class CutOrderVerdict:
    """Side sizes of the certified minimum cut when its removal leaves two
    cliques and every degree exceeds the cut size."""

    applicable: bool
    cut_size: int
    side_sizes: tuple[int, int]
    graph_min_degree: int
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

    def unique(self) -> bool:
        """True when no second class comes within the uniqueness gap."""
        return self.uniqueness_gap is None or self.uniqueness_gap > UNIQUENESS_GAP


# ---------------------------------------------------------------------------
# class tables


@dataclass(frozen=True, eq=False)
class ClassTable:
    """Per-graph quantities of connected order-n graphs, one column each.

    Row i describes ``graphs[i]``: ``lam`` its edge connectivity (0 for a
    single vertex), ``rho``, ``x`` and ``residual`` its certified Perron
    pair.  ``x`` is one (k, n) array, not an object per graph.
    """

    graphs: tuple[Graph, ...]
    lam: np.ndarray
    rho: np.ndarray
    x: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        # cached tables are shared by every caller in the process
        for column in (self.lam, self.rho, self.x, self.residual):
            column.setflags(write=False)


def _build_table(n: int, graphs: Iterable[Graph]) -> ClassTable:
    graphs = tuple(graphs)
    lam = np.array(
        [edge_connectivity(g).size if n >= 2 else 0 for g in graphs], dtype=np.int64
    )
    # every distance is below n <= 64, so int8 holds the stack compactly
    dist = np.empty((len(graphs), n, n), dtype=np.int8)
    for i, g in enumerate(graphs):
        dist[i] = distance_matrix(g).d
    return ClassTable(graphs, lam, *perron_stack(dist))


@lru_cache(maxsize=None)
def class_table(n: int) -> ClassTable:
    """The table of every connected order-n class, built once per order."""
    return _build_table(n, enumerate_connected(n))


# ---------------------------------------------------------------------------
# extremal search


def extremal_search(
    n: int,
    r: int,
    corpus: Iterable[bytes | str] | None = None,
) -> ExtremalReport:
    """Scan every connected order-n class (the cached class table, or a table
    of the corpus lines), keep those with edge connectivity exactly r, and
    report the minimum-radius class with its uniqueness gap and the
    isomorphism verdict against kpq(n-1, r).

    The minimizer is the least (rho, graph6) pair.  The runner-up is the
    next graph in that order that is not isomorphic to it, so a corpus that
    lists one class twice cannot fake a tie, and a true tie between two
    classes shows as a zero gap.
    """
    if not 1 <= r <= n - 2:
        raise ValueError(f"need 1 <= r <= n-2, got n={n}, r={r}")
    table = class_table(n) if corpus is None else _build_table(n, _read_corpus(corpus, n))
    kept = []
    for i in np.flatnonzero(table.lam == r):
        g = table.graphs[i]
        kept.append((float(table.rho[i]), graph6_encode(g).decode("ascii"), g))
    if not kept:
        raise CorpusError(f"no connected graphs of order {n} with edge connectivity {r}")
    kept.sort(key=lambda item: item[:2])
    min_rho, min_g6, min_g = kept[0]
    best = canonical_form(min_g)
    runner = next((rho for rho, _, g in kept[1:] if canonical_form(g) != best), None)
    gap = None if runner is None else runner - min_rho
    matches = best == canonical_form(kpq(n - 1, r))
    logger.info(
        "search n=%d r=%d: %d classes, min %.6f at %s, gap %s",
        n, r, len(kept), min_rho, min_g6, gap,
    )
    return ExtremalReport(n, r, len(kept), min_rho, runner, gap, min_g6, matches)


def _read_corpus(corpus: Iterable[bytes | str], n: int) -> Iterator[Graph]:
    """Connected order-n graphs from graph6 lines; blank lines are skipped and
    every error names its line."""
    for lineno, line in enumerate(corpus, start=1):
        if isinstance(line, bytes):
            line = line.decode("ascii", errors="replace")
        line = line.strip()
        if not line:
            continue
        try:
            g = graph6_decode(line)
        except Graph6Error as exc:
            raise CorpusError(f"corpus line {lineno}: {exc}") from None
        if g.n != n:
            raise CorpusError(f"corpus line {lineno}: order {g.n}, expected {n}")
        if not is_connected(g):
            raise CorpusError(f"corpus line {lineno}: graph is disconnected")
        yield g


# ---------------------------------------------------------------------------
# per-claim checks


def check_edge_monotonicity(g: Graph, u: int, v: int) -> LemmaVerdict:
    """Adding an edge strictly lowers the radius; deleting a non-bridge edge
    strictly raises it.  Bridge deletions are reported inapplicable."""
    where = f"g6={graph6_encode(g).decode()} u={u} v={v}"
    if not g.has_edge(u, v):
        lhs = graph_rho(g)
        rhs = graph_rho(g.with_edge(u, v))
        lemma = "edge_addition_decreases_radius"
    else:
        smaller = g.without_edge(u, v)
        if not is_connected(smaller):
            return LemmaVerdict(
                lemma="edge_deletion_increases_radius",
                params=where,
                lhs_rho=None,
                rhs_rho=None,
                margin=None,
                holds=True,
                applicable=False,
                detail="deleting this edge disconnects the graph",
            )
        lhs = graph_rho(smaller)
        rhs = graph_rho(g)
        lemma = "edge_deletion_increases_radius"
    margin = lhs - rhs
    return LemmaVerdict(
        lemma=lemma,
        params=where,
        lhs_rho=lhs,
        rhs_rho=rhs,
        margin=margin,
        holds=margin > STRICT_MARGIN * max(lhs, rhs),
    )


def _order_claim(g: Graph, x: np.ndarray, u: int, v: int) -> PerronOrderVerdict:
    nu = g.rows[u] & ~(1 << v)
    nv = g.rows[v] & ~(1 << u)
    xu, xv = float(x[u]), float(x[v])
    if nu == nv:
        return PerronOrderVerdict("equal", u, v, xu, xv, None, abs(xu - xv) <= ENTRY_EQ_TOL)
    if nu & ~nv == 0:  # N(u)\{v} strictly inside N(v)\{u}: u gets the larger entry
        return PerronOrderVerdict("nested", u, v, xu, xv, u, xu > xv)
    if nv & ~nu == 0:
        return PerronOrderVerdict("nested", u, v, xu, xv, v, xv > xu)
    return PerronOrderVerdict("incomparable", u, v, xu, xv, None, True)


def check_perron_order(g: Graph, u: int, v: int) -> PerronOrderVerdict:
    """Classify a vertex pair by neighborhood inclusion and assert the implied
    Perron-entry relation: coinciding neighborhoods give equal entries, a
    strictly smaller neighborhood gives a strictly larger entry."""
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"need two distinct vertices in 0..{g.n - 1}, got ({u}, {v})")
    pp = perron(distance_matrix(g))
    return _order_claim(g, pp.x, u, v)


def check_degree_r_reduction(g: Graph, v: int) -> LemmaVerdict:
    """Completing the graph on everything except a vertex of minimum-cut
    degree yields kpq(n-1, r) and can only lower the radius; equality happens
    exactly when nothing was added."""
    r = edge_connectivity(g).size
    if g.degree(v) != r:
        raise ValueError(f"vertex {v} has degree {g.degree(v)}, edge connectivity is {r}")
    n = g.n
    rest = ((1 << n) - 1) ^ (1 << v)
    rows = list(g.rows)
    for u in range(n):
        if u != v:
            rows[u] = (rest ^ (1 << u)) | (g.rows[u] & (1 << v))
    completed = Graph(n, tuple(rows))
    same = completed.rows == g.rows
    lhs = graph_rho(g)
    rhs = graph_rho(completed)
    margin = lhs - rhs
    iso_ok = isomorphic(completed, kpq(n - 1, r))
    holds = iso_ok and (
        (same and abs(margin) <= STRICT_MARGIN * lhs)
        or (not same and margin > STRICT_MARGIN * lhs)
    )
    return LemmaVerdict(
        lemma="degree_r_completion_minimizes",
        params=f"g6={graph6_encode(g).decode()} v={v} r={r}",
        lhs_rho=lhs,
        rhs_rho=rhs,
        margin=margin,
        holds=holds,
        detail="" if iso_ok else "completion not isomorphic to kpq(n-1, r)",
    )


def _tilde_pattern(params: BridgeFamilyParams):
    """Perron pair of the flattened graph plus its three-level group stats."""
    tilde = bridge_graph_tilde(params)
    pp = perron(distance_matrix(tilde))
    stats = perron_group_pattern(pp, tilde_level_groups(params))
    return tilde, pp, stats


def check_transformation(params: BridgeFamilyParams) -> LemmaVerdict:
    """Flattening a two-clique bridge graph strictly lowers the radius, lands
    on kpq(n1+n2-1, r), and produces the three-level Perron pattern."""
    g = bridge_graph(params)
    tilde, pp, stats = _tilde_pattern(params)
    lhs = graph_rho(g)
    rhs = pp.rho
    margin = lhs - rhs
    (m1, _), (m2, d2), (m3, d3) = stats
    pattern_ok = max(d2, d3) < GROUP_DEV_TOL and m3 < m2 < m1
    iso_ok = isomorphic(tilde, kpq(params.order - 1, params.r))
    problems = []
    if not pattern_ok:
        problems.append("three-level Perron pattern violated")
    if not iso_ok:
        problems.append("flattened graph not isomorphic to kpq")
    return LemmaVerdict(
        lemma="bridge_flattening_decreases_radius",
        params=f"n1={params.n1} n2={params.n2} r={params.r} t={params.t} "
        f"cross={list(params.cross_edges)}",
        lhs_rho=lhs,
        rhs_rho=rhs,
        margin=margin,
        holds=margin > STRICT_MARGIN * max(lhs, rhs) and pattern_ok and iso_ok,
        detail="; ".join(problems),
    )


def check_form_shift_identity(params: BridgeFamilyParams) -> float:
    """Residual of the closed form for the quadratic-form change under the
    hub-only flattening, evaluated at the Perron vector of the flattened
    graph: the change equals 2(n1-1) x2 (-x1 + r x3 + 2(n2-r) x2)."""
    if params.t != params.r:
        raise ValueError(f"identity requires t == r, got t={params.t}, r={params.r}")
    g = bridge_graph(params)
    tilde, pp, stats = _tilde_pattern(params)
    (m1, _), (m2, _), (m3, _) = stats
    x = pp.x
    direct = quadratic_form(distance_matrix(g), x) - quadratic_form(distance_matrix(tilde), x)
    n1, n2, r = params.n1, params.n2, params.r
    closed = 2.0 * (n1 - 1) * m2 * (-m1 + r * m3 + 2.0 * (n2 - r) * m2)
    return abs(direct - closed)


def check_hub_row_identity(params: BridgeFamilyParams) -> float:
    """Residual of the eigen-equation row at the hub of the flattened graph,
    rho*x1 = r*x3 + 2(n1+n2-r-1)*x2, plus the strict consequences: the radius
    exceeds order-1 and x1 < r*x3 + 2(n2-r)*x2."""
    _, pp, stats = _tilde_pattern(params)
    (m1, _), (m2, _), (m3, _) = stats
    n = params.order
    r = params.r
    if not pp.rho > n - 1:
        raise VerificationError(
            f"radius {pp.rho!r} not above {n - 1} on {params}"
        )
    residual = abs(pp.rho * m1 - (r * m3 + 2.0 * (n - r - 1) * m2))
    bound = r * m3 + 2.0 * (params.n2 - r) * m2
    if not m1 < bound:
        raise VerificationError(
            f"hub entry {m1!r} not below bound {bound!r} on {params}"
        )
    return residual


def _induces_clique(g: Graph, vertices: Sequence[int]) -> bool:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return all(g.rows[v] & mask == mask ^ (1 << v) for v in vertices)


def check_cut_order_bound(g: Graph) -> CutOrderVerdict:
    """When the certified minimum cut splits the graph into two cliques and
    every degree exceeds the cut size, both sides must have at least cut
    size + 2 vertices."""
    return _cut_order(g, edge_connectivity(g))


def _cut_order(g: Graph, cert: CutCertificate) -> CutOrderVerdict:
    sides = (len(cert.side_a), len(cert.side_b))
    md = min_degree(g)
    applicable = (
        md > cert.size
        and _induces_clique(g, cert.side_a)
        and _induces_clique(g, cert.side_b)
    )
    holds = True
    if applicable:
        holds = min(sides) >= cert.size + 2
    return CutOrderVerdict(applicable, cert.size, sides, md, holds)


# ---------------------------------------------------------------------------
# randomized instance generation


def random_connected_graph(rng: random.Random, n_min: int = 4, n_max: int = 20) -> Graph:
    """Connected Erdos-Renyi sample; edge probability drawn from {0.3, 0.5, 0.7},
    rejection-sampled until connected."""
    n = rng.randint(n_min, n_max)
    p = rng.choice((0.3, 0.5, 0.7))
    while True:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = from_edge_list(n, edges)
        if is_connected(g):
            return g


def bridge_grid(
    seed: int = 0,
    r_values: Sequence[int] = (1, 2, 3, 4),
    offsets: Sequence[int] = (2, 3, 4, 5, 6),
    placements: int = 5,
) -> Iterator[BridgeFamilyParams]:
    """Deterministic parameter grid over the bridge family; hub-only cases get
    one instance, mixed cases get ``placements`` seeded cross-edge samples."""
    rng = random.Random(seed)
    for r in r_values:
        for t in range(1, r + 1):
            for n1 in (r + o for o in offsets):
                for n2 in (r + o for o in offsets):
                    if t == r:
                        yield BridgeFamilyParams(n1, n2, r, t)
                    else:
                        for _ in range(placements):
                            yield BridgeFamilyParams(
                                n1, n2, r, t, random_cross_edges(n1, n2, r, t, rng)
                            )


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


def suite_closed_forms() -> SuiteResult:
    """Spot values: complete graphs hit order-1 exactly; the two small paths
    and the pendant-triangle hit their polynomial roots."""
    failures = 0
    instances = 0
    for n in range(2, 13):
        instances += 1
        if abs(graph_rho(complete_graph(n)) - (n - 1)) > 1e-10:
            failures += 1
    targets = [
        (from_edge_list(3, [(0, 1), (1, 2)]), 1.0 + np.sqrt(3.0)),
        (from_edge_list(4, [(0, 1), (1, 2), (2, 3)]), 2.0 + np.sqrt(10.0)),
        (kpq(3, 1), float(max(np.roots([1.0, -1.0, -11.0, -7.0]).real))),
    ]
    for g, expected in targets:
        instances += 1
        if abs(graph_rho(g) - expected) > 1e-9:
            failures += 1
    return SuiteResult("closed_forms", instances, failures)


def suite_graph6_roundtrip(max_n: int = 7) -> SuiteResult:
    failures = 0
    instances = 0
    for n in range(1, max_n + 1):
        for g in enumerate_connected(n):
            instances += 1
            if graph6_decode(graph6_encode(g)) != g:
                failures += 1
    return SuiteResult("graph6_roundtrip", instances, failures)


def suite_spectra_oracle(max_n: int = 7) -> SuiteResult:
    """Over every class: the class table's stacked radius vs. power
    iteration, power iteration vs. a dense symmetric eigensolver, and the
    table's phase-contraction cut size vs. the bipartition scan."""

    def examine(g: Graph, rho: float, lam: int) -> bool:
        dm = distance_matrix(g)
        power = perron(dm).rho
        dense = float(np.linalg.eigvalsh(dm.d.astype(float))[-1])
        scale = max(1.0, abs(dense))
        if abs(rho - power) > 1e-8 * scale or abs(power - dense) > 1e-8 * scale:
            return False
        if g.n >= 2 and lam != brute_force_min_cut(g).size:
            return False
        return True

    failures = 0
    instances = 0
    for n in range(1, max_n + 1):
        table = class_table(n)
        results = [examine(*row) for row in zip(table.graphs, table.rho, table.lam)]
        instances += len(results)
        failures += sum(1 for ok in results if not ok)
    return SuiteResult("spectra_and_cut_oracle", instances, failures)


def suite_theorem(max_n: int = 8) -> SuiteResult:
    """For every n and every feasible r, the minimum-radius class must be
    kpq(n-1, r), unique with a clear gap.  The notes lead with the smallest
    uniqueness gap and where it occurs."""
    failures = 0
    instances = 0
    notes = []
    closest = None  # (gap, n, r) of the smallest uniqueness gap
    for n in range(4, max_n + 1):
        for r in range(1, n - 1):
            instances += 1
            report = extremal_search(n, r)
            gap = report.uniqueness_gap
            if gap is not None and (closest is None or gap < closest[0]):
                closest = (gap, n, r)
            if not (report.matches_kpq and report.unique()):
                failures += 1
                notes.append(f"n={n} r={r}: minimizer {report.minimizer_graph6}")
    if closest is not None:
        notes.insert(0, "min uniqueness gap {:.6e} at n={} r={}".format(*closest))
    return SuiteResult("extremal_theorem", instances, failures, "; ".join(notes))


def suite_edge_monotonicity(
    cases: int = 200, seed: int = 0, n_max: int = 20
) -> SuiteResult:
    """Random connected graphs; one random edge addition and one random
    non-bridge deletion each must move the radius strictly the right way."""
    rng = random.Random(seed)
    failures = 0
    instances = 0
    for _ in range(cases):
        g = random_connected_graph(rng, 4, n_max)
        non_edges = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if non_edges:
            u, v = rng.choice(non_edges)
            instances += 1
            if not check_edge_monotonicity(g, u, v).holds:
                failures += 1
        deletable = [
            (u, v) for u, v in g.edges() if is_connected(g.without_edge(u, v))
        ]
        if deletable:
            u, v = rng.choice(deletable)
            instances += 1
            if not check_edge_monotonicity(g, u, v).holds:
                failures += 1
    return SuiteResult("edge_monotonicity", instances, failures)


def suite_perron_order(max_n: int = 7) -> SuiteResult:
    """Exhaustive neighborhood-inclusion ordering check over all vertex pairs
    of all classes."""
    failures = 0
    instances = 0
    for n in range(2, max_n + 1):
        table = class_table(n)
        for g, x in zip(table.graphs, table.x):
            for u in range(n):
                for v in range(u + 1, n):
                    instances += 1
                    if not _order_claim(g, x, u, v).holds:
                        failures += 1
    return SuiteResult("perron_entry_order", instances, failures)


def suite_bridge_grid(
    seed: int = 0,
    placements: int = 5,
    r_max: int = 4,
) -> SuiteResult:
    """Bridge-family grid: flattening strictly lowers the radius, lands on
    kpq, shows the three-level pattern, and satisfies both eigen identities."""

    def examine(params: BridgeFamilyParams) -> tuple[bool, float]:
        verdict = check_transformation(params)
        try:
            worst = check_hub_row_identity(params)
            if params.t == params.r:
                worst = max(worst, check_form_shift_identity(params))
        except VerificationError:
            return False, float("inf")
        return verdict.holds and worst < IDENTITY_TOL, worst

    grid = list(bridge_grid(seed, range(1, r_max + 1), placements=placements))
    results = [examine(params) for params in grid]
    failures = sum(1 for ok, _ in results if not ok)
    worst = max((res for _, res in results), default=0.0)
    return SuiteResult(
        "bridge_grid_and_identities",
        len(grid),
        failures,
        f"max identity residual {worst:.3e}",
    )


def suite_cut_sides(
    max_n: int = 8, seed: int = 0, r_max: int = 4
) -> SuiteResult:
    """Two-clique minimum cuts with all degrees above the cut size must leave
    at least r+2 vertices on each side: exhaustively over small classes and
    on every grid instance (where the check must also apply).  A class whose
    minimum degree equals its edge connectivity cannot meet the hypothesis,
    so only the others get a cut certificate."""
    failures = 0
    instances = 0
    for n in range(2, max_n + 1):
        table = class_table(n)
        for g, lam in zip(table.graphs, table.lam):
            instances += 1
            if min_degree(g) > lam and not _cut_order(g, edge_connectivity(g)).holds:
                failures += 1

    def grid_case(params: BridgeFamilyParams) -> bool:
        verdict = check_cut_order_bound(bridge_graph(params))
        return verdict.applicable and verdict.holds

    grid = list(bridge_grid(seed, range(1, r_max + 1)))
    results = [grid_case(params) for params in grid]
    instances += len(results)
    failures += sum(1 for ok in results if not ok)
    return SuiteResult("cut_side_orders", instances, failures)


def run_all_suites(
    seed: int = 0,
    max_n: int = 8,
    monotonicity_cases: int = 200,
) -> list[SuiteResult]:
    """Every verification suite at the given caps, in a fixed order."""
    small = min(7, max_n)
    grid_r = min(4, max(1, max_n - 4))
    results = [
        suite_closed_forms(),
        suite_graph6_roundtrip(small),
        suite_spectra_oracle(small),
    ]
    if max_n >= 4:
        results.append(suite_theorem(max_n))
    results.append(suite_edge_monotonicity(monotonicity_cases, seed))
    results.append(suite_perron_order(small))
    results.append(suite_bridge_grid(seed, r_max=grid_r))
    results.append(suite_cut_sides(max_n, seed, grid_r))
    return results
