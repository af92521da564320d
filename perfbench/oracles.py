"""Independent checks of the program's outputs.

None of these calls dsr: radii come from ``numpy.linalg.eigvalsh`` on
distance matrices built here, edge connectivity and isomorphism from
networkx, and suite instance counts from the published class counts and
the suites' own sampling rules. Each check returns (attempted, failed,
problems).
"""

from __future__ import annotations

import json
import random
from math import comb
from pathlib import Path

import networkx as nx
import numpy as np

from inputs import g6_decode

# connected graphs per order n = 1..8 (OEIS A001349)
CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
# order-8 classes per edge connectivity r = 1..6
SEARCH_CLASS_SIZES = {1: 3714, 2: 4820, 3: 2159, 4: 378, 5: 41, 6: 4}
RHO_RTOL_COMPUTE = 1e-8
RHO_RTOL_SEARCH = 1e-9
UNIQUENESS_GAP = 1e-6
CONNECTIVITY_SAMPLE = 100


def _load(path: Path):
    """A JSON output file, or None when the program did not write it."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def distance_matrix(adj: np.ndarray) -> np.ndarray:
    """Hop counts of a connected graph by breadth-first frontier products."""
    n = adj.shape[0]
    a = adj.astype(np.int64)
    reached = np.eye(n, dtype=bool)
    dist = np.zeros((n, n), dtype=np.int64)
    k = 0
    while not reached.all():
        k += 1
        grown = reached | (reached.astype(np.int64) @ a > 0)
        if (grown == reached).all():
            raise ValueError("disconnected graph")
        dist[grown & ~reached] = k
        reached = grown
    return dist


def spectral_radius(adj: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(distance_matrix(adj).astype(float))[-1])


def kpq_adjacency(p: int, q: int) -> np.ndarray:
    """K_p plus one vertex joined to q of its vertices."""
    adj = np.ones((p + 1, p + 1), dtype=bool)
    np.fill_diagonal(adj, False)
    adj[p, q:p] = adj[q:p, p] = False
    return adj


class ComputeOracle:
    """Expected radius per corpus line, and edge connectivity on a seeded
    sample of lines."""

    def __init__(self, corpus: bytes, seed: int):
        self.lines = corpus.splitlines()
        adjs = [g6_decode(line) for line in self.lines]
        self.orders = [a.shape[0] for a in adjs]
        self.rho = [spectral_radius(a) for a in adjs]
        sample = random.Random(seed).sample(range(len(adjs)), CONNECTIVITY_SAMPLE)
        self.connectivity = {
            k: nx.edge_connectivity(nx.from_numpy_array(adjs[k])) for k in sample
        }

    def check(self, out_path: Path, exit_code: int):
        """The output file of one pass over the corpus."""
        records = _load(out_path)
        if exit_code != 0 or records is None:
            return len(self.lines), len(self.lines), [f"{out_path.name}: exit code {exit_code}"]
        if len(records) != len(self.lines):
            return len(self.lines), len(self.lines), [
                f"{len(records)} records for {len(self.lines)} graphs"]
        failed, problems = 0, []
        for k, rec in enumerate(records):
            ok = (
                rec["index"] == k
                and rec["graph6"] == self.lines[k].decode("ascii")
                and rec["n"] == self.orders[k]
                and abs(rec["rho"] - self.rho[k]) <= RHO_RTOL_COMPUTE * self.rho[k]
                and self.connectivity.get(k, rec["edge_connectivity"]) == rec["edge_connectivity"]
            )
            if not ok:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"corpus line {k} wrong: {rec['graph6']}")
        return len(records), failed, problems


def check_search(r: int, out_path: Path, exit_code: int):
    """One `dsr search --n 8 --r r` report: class size, kpq minimizer,
    uniqueness, and the radius of kpq(7, r) from eigvalsh."""
    rep = _load(out_path)
    if rep is None:
        return 1, 1, [f"search r={r}: no report, exit code {exit_code}"]
    expected_rho = spectral_radius(kpq_adjacency(7, r))
    minimizer = nx.from_numpy_array(g6_decode(rep["minimizer_graph6"]))
    problems = [
        what for what, ok in (
            ("exit code", exit_code == 0),
            ("order and r", rep["n"] == 8 and rep["r"] == r),
            ("class size", rep["class_size"] == SEARCH_CLASS_SIZES[r]),
            ("matches_kpq", rep["matches_kpq"] is True),
            ("minimizer is kpq(7, r)",
             nx.is_isomorphic(minimizer, nx.from_numpy_array(kpq_adjacency(7, r)))),
            ("unique", rep["uniqueness_gap"] is not None
             and rep["uniqueness_gap"] > UNIQUENESS_GAP),
            ("min_rho", abs(rep["min_rho"] - expected_rho) <= RHO_RTOL_SEARCH * expected_rho),
        ) if not ok
    ]
    return 1, int(bool(problems)), [f"search r={r}: {p} wrong" for p in problems]


def monotonicity_instances(seed: int, cases: int = 200, n_max: int = 20) -> int:
    """Instances the edge-monotonicity suite draws for a seed, replaying its
    random stream: one per graph with a non-edge, one per graph with a
    non-bridge edge."""
    rng = random.Random(seed)
    total = 0
    for _ in range(cases):
        n = rng.randint(4, n_max)
        p = rng.choice((0.3, 0.5, 0.7))
        while True:
            g = nx.empty_graph(n)
            g.add_edges_from(
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            )
            if nx.is_connected(g):
                break
        non_edges = comb(n, 2) - g.number_of_edges()
        if non_edges:
            rng.choice(range(non_edges))
            total += 1
        deletable = g.number_of_edges() - sum(1 for _ in nx.bridges(g))
        if deletable:
            rng.choice(range(deletable))
            total += 1
    return total


def verify_reference(seed: int) -> list[tuple[str, int]]:
    """(suite, instances) of `dsr verify-all --max-n 8` for a seed, in report
    order; every suite must report zero failures."""
    grid = sum(25 * (1 if t == r else 5) for r in range(1, 5) for t in range(1, r + 1))
    small = sum(CLASS_COUNTS[n] for n in range(1, 8))
    return [
        ("closed_forms", 11 + 3),
        ("graph6_roundtrip", small),
        ("spectra_and_cut_oracle", small),
        ("extremal_theorem", sum(n - 2 for n in range(4, 9))),
        ("edge_monotonicity", monotonicity_instances(seed)),
        ("perron_entry_order", sum(CLASS_COUNTS[n] * comb(n, 2) for n in range(2, 8))),
        ("bridge_grid_and_identities", grid),
        ("cut_side_orders", sum(CLASS_COUNTS[n] for n in range(2, 9)) + grid),
    ]


def check_verify(reference, seed: int, out_path: Path, exit_code: int):
    """Each suite's instances and failures against the reference, plus the
    overall verdict and exit code."""
    rep = _load(out_path)
    if rep is None:
        return len(reference) + 1, len(reference) + 1, [f"no report, exit code {exit_code}"]
    got = {s["name"]: (s["instances"], s["failures"]) for s in rep["suites"]}
    problems = [
        f"suite {name}: got {got.get(name)}, expected ({instances}, 0)"
        for name, instances in reference if got.get(name) != (instances, 0)
    ]
    if [s["name"] for s in rep["suites"]] != [name for name, _ in reference]:
        problems.append(f"suite list {list(got)}")
    overall = rep["ok"] is True and exit_code == 0 and rep["seed"] == seed and rep["max_n"] == 8
    if not overall:
        problems.append(f"verdict ok={rep['ok']} exit={exit_code}")
    return len(reference) + 1, min(len(problems), len(reference) + 1), problems
