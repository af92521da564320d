"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also exercised by a plain `pytest`.
"""

import json
import math
import time

import numpy as np
import pytest

from dsr import (
    brute_force_min_cut,
    complete_graph,
    distance_matrix,
    edge_connectivity,
    enumerate_connected,
    extremal_search,
    graph6_decode,
    graph6_encode,
    kpq,
    perron,
)
from dsr.cli import main
from dsr.graphs import adjacency_stack
from dsr.verify import (
    MONOTONICITY_CASES,
    MONOTONICITY_MAX_ORDER,
    _stacked_solve,
    bridge_claims,
    bridge_grid,
    suite_cut_sides,
    suite_edge_monotonicity,
    suite_perron_order,
)
from helpers import path_graph

GRID_SEED = 0


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def grid_outcomes():
    """Every bridge-grid instance evaluated once, in one ``bridge_claims``
    call; criteria 6 and 7 read it.  A hub row whose strict consequences
    fail has a None residual, read here as an infinite one."""
    start = time.perf_counter()
    grid = list(bridge_grid(GRID_SEED, 4))
    rows = []
    for params, (verdict, *identities) in zip(grid, bridge_claims(grid)):
        residuals = {c.claim: c.residual for c in identities}
        hub_residual = residuals["hub_row_identity"]
        strict_ok = hub_residual is not None
        rows.append((params, verdict, hub_residual if strict_ok else float("inf"),
                     residuals.get("form_shift_identity"), strict_ok))
    return rows, time.perf_counter() - start


def test_criterion_1_oracle_completeness():
    start = time.perf_counter()
    checked = 0
    bad = []
    for n in range(1, 8):
        for g in enumerate_connected(n):
            checked += 1
            d = distance_matrix(g)
            rho = perron(d).rho
            dense = float(np.linalg.eigvalsh(d.astype(float))[-1])
            if abs(rho - dense) > 1e-8 * max(1.0, abs(dense)):
                bad.append((graph6_encode(g), "rho", rho, dense))
            if n >= 2:
                fast = edge_connectivity(g)[0]
                slow = brute_force_min_cut(adjacency_stack(n, [g]))[0]
                if fast != slow:
                    bad.append((graph6_encode(g), "cut", fast, slow))
    elapsed = time.perf_counter() - start
    ok = not bad and checked == 1 + 1 + 2 + 6 + 21 + 112 + 853 and elapsed < 60
    report(1, ok, f"{checked} classes, {len(bad)} mismatches, {elapsed:.1f}s")
    assert checked == 996
    assert not bad, bad[:5]
    assert elapsed < 60


def test_criterion_2_theorem_reproduction():
    start = time.perf_counter()
    bad = []
    scanned = 0
    for n in range(4, 9):
        corpus = [graph6_decode(graph6_encode(g)) for g in enumerate_connected(n)]
        for r in range(1, n - 1):
            scanned += 1
            rep = extremal_search(n, r, corpus)
            if not (rep.matches_kpq and rep.uniqueness_gap is not None
                    and rep.uniqueness_gap > 1e-6):
                bad.append((n, r, rep.minimizer_graph6, rep.uniqueness_gap))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 600
    report(2, ok, f"{scanned} (n, r) classes, {len(bad)} failures, {elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 600


def test_criterion_3_closed_form_spot_values():
    cubic_root = float(max(np.roots([1.0, -1.0, -11.0, -7.0]).real))
    spots = [(f"K_{n}", complete_graph(n), n - 1, 1e-10) for n in range(2, 13)]
    spots += [
        ("P3", path_graph(3), 1 + math.sqrt(3), 1e-9),
        ("P4", path_graph(4), 2 + math.sqrt(10), 1e-9),
        ("kpq(3,1)", kpq(3, 1), cubic_root, 1e-9),
    ]
    records = _stacked_solve([g for _, g, _, _ in spots])
    bad = [name for (name, _, expected, tol), (_, value, _) in zip(spots, records)
           if abs(value - expected) > tol]
    assert len(spots) == 14
    report(3, not bad, f"14 spot values, failures: {bad or 'none'}")
    assert not bad


def test_criterion_4_edge_monotonicity_suite():
    start = time.perf_counter()
    result = suite_edge_monotonicity(GRID_SEED)
    elapsed = time.perf_counter() - start
    assert MONOTONICITY_CASES == 200 and MONOTONICITY_MAX_ORDER == 20
    ok = result.failures == 0 and elapsed < 30
    report(4, ok, f"{result.instances} toggles on 200 graphs, "
                  f"{result.failures} failures, {elapsed:.1f}s")
    assert result.failures == 0
    assert elapsed < 30


def test_criterion_5_perron_order_exhaustive():
    result = suite_perron_order(max_n=7)
    report(5, result.failures == 0,
           f"{result.instances} vertex pairs, {result.failures} violations")
    assert result.failures == 0


def test_criterion_6_bridge_grid(grid_outcomes):
    rows, elapsed = grid_outcomes
    bad = [params for params, verdict, *_ in rows if not verdict.holds]
    ok = not bad and elapsed < 120
    report(6, ok, f"{len(rows)} grid instances, {len(bad)} failures, {elapsed:.1f}s")
    assert not bad, bad[:5]
    assert elapsed < 120


def test_criterion_7_identity_residuals(grid_outcomes):
    rows, _ = grid_outcomes
    bad = []
    for params, _, hub_residual, shift_residual, strict_ok in rows:
        if not strict_ok or hub_residual >= 1e-8:
            bad.append((params, "hub_row", hub_residual))
        if shift_residual is not None and shift_residual >= 1e-8:
            bad.append((params, "form_shift", shift_residual))
    worst_hub = max(h for _, _, h, _, _ in rows)
    report(7, not bad, f"{len(rows)} instances, worst hub-row residual "
                       f"{worst_hub:.2e}, {len(bad)} failures")
    assert not bad, bad[:5]


def test_criterion_8_cut_side_orders():
    result = suite_cut_sides(8, list(bridge_grid(GRID_SEED, 4)))
    report(8, result.failures == 0,
           f"{result.instances} graphs (exhaustive n<=8 plus grid), "
           f"{result.failures} counterexamples")
    assert result.failures == 0


def test_criterion_9_determinism_across_threads(tmp_path):
    search_blobs = []
    verify_blobs = []
    for threads in ("1", "4", "8"):
        sp = tmp_path / f"search-{threads}.json"
        assert main(["search", "--n", "6", "--r", "2",
                     "--threads", threads, "--out", str(sp)]) == 0
        search_blobs.append(sp.read_bytes())
        vp = tmp_path / f"verify-{threads}.json"
        assert main(["verify-all", "--max-n", "5", "--seed", "7",
                     "--threads", threads, "--out", str(vp)]) == 0
        verify_blobs.append(vp.read_bytes())
    ok = len(set(search_blobs)) == 1 and len(set(verify_blobs)) == 1
    report(9, ok, "search and verify-all JSON byte-identical for threads 1/4/8")
    assert len(set(search_blobs)) == 1
    assert len(set(verify_blobs)) == 1
    # sanity: the verify-all runs really passed
    assert json.loads(verify_blobs[0])["ok"] is True
