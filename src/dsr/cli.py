"""Command-line front end.

Subcommands:
  compute     radius, Perron vector, residual, and connectivity per input graph
  check       bridge-family flattening checks for one parameter set
  search      extremal scan of one (n, r) class
  verify-all  every verification suite, summary table plus JSON report

Exit codes: 0 success, 2 usage or parse error, 3 verification failure,
4 internal (non-convergence).  Output files are byte-stable for a fixed
seed and configuration.  All work runs in one thread; --threads is still
accepted and ignored.  Set DSR_LOG=debug|info for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from dataclasses import asdict

from .cuts import edge_connectivity
from .enumeration import MAX_BUILTIN_ORDER
from .families import BridgeFamilyParams, random_cross_edges
from .graph6 import Graph6Error, graph6_decode, graph6_encode
from .graphs import Graph, distance_matrix, from_edge_list, is_connected
from .spectra import ConvergenceError, perron
from .verify import (
    CorpusError,
    VerificationError,
    check_form_shift_identity,
    check_hub_row_identity,
    check_transformation,
    extremal_search,
    run_all_suites,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

# The GIL made a thread pool slower than one thread on this pure-Python
# work, so the option only survives for existing command lines.
THREADS_HELP = "accepted for compatibility; the work runs in one thread"

SEARCH_REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "n", "r", "class_size", "min_rho", "runner_up_rho",
        "uniqueness_gap", "minimizer_graph6", "matches_kpq",
    ],
    "properties": {
        "n": {"type": "integer"},
        "r": {"type": "integer"},
        "class_size": {"type": "integer"},
        "min_rho": {"type": "number"},
        "runner_up_rho": {"type": ["number", "null"]},
        "uniqueness_gap": {"type": ["number", "null"]},
        "minimizer_graph6": {"type": "string"},
        "matches_kpq": {"type": "boolean"},
    },
    "additionalProperties": False,
}

CHECK_RECORD_SCHEMA = {
    "type": "object",
    "required": ["claim", "params", "holds"],
    "properties": {
        "claim": {"type": "string"},
        "params": {"type": "string"},
        "lhs_rho": {"type": ["number", "null"]},
        "rhs_rho": {"type": ["number", "null"]},
        "margin": {"type": ["number", "null"]},
        "residual": {"type": ["number", "null"]},
        "holds": {"type": "boolean"},
    },
    "additionalProperties": False,
}

VERIFY_REPORT_SCHEMA = {
    "type": "object",
    "required": ["seed", "max_n", "suites", "ok"],
    "properties": {
        "seed": {"type": "integer"},
        "max_n": {"type": "integer"},
        "suites": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "instances", "failures"],
                "properties": {
                    "name": {"type": "string"},
                    "instances": {"type": "integer"},
                    "failures": {"type": "integer"},
                    "notes": {"type": "string"},
                },
                "additionalProperties": False,
            },
        },
        "ok": {"type": "boolean"},
    },
    "additionalProperties": False,
}


def _round12(x):
    """12 significant digits; run-to-run noise below that would break byte
    identity of reports."""
    if x is None:
        return None
    return float(f"{x:.12g}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


class _InputError(Exception):
    """Bad user input outside argparse's reach (files, inline edge lists)."""


def _parse_edges(text: str, n_override: int | None) -> Graph:
    pairs = []
    top = -1
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split("-")
        if len(parts) != 2:
            raise _InputError(f"bad edge token {token!r}, expected like 0-1")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise _InputError(f"bad edge token {token!r}, expected integers") from None
        pairs.append((u, v))
        top = max(top, u, v)
    if not pairs:
        raise _InputError("no edges given")
    n = n_override if n_override is not None else top + 1
    try:
        g = from_edge_list(n, pairs)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    if not is_connected(g):
        raise _InputError("--edges: graph is disconnected")
    return g


def _load_graphs(args) -> list[tuple[str, Graph]]:
    """(label, graph) pairs from --edges or a graph6 file, one per line."""
    if args.edges:
        g = _parse_edges(args.edges, args.n)
        return [(graph6_encode(g).decode(), g)]
    if not args.source:
        raise _InputError("give a graph6 file or --edges")
    out = []
    with open(args.source, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                g = graph6_decode(line)
            except Graph6Error as exc:
                raise _InputError(f"{args.source}: line {lineno}: {exc}") from None
            if not is_connected(g):
                raise _InputError(f"{args.source}: line {lineno}: graph is disconnected")
            out.append((line.decode("ascii"), g))
    if not out:
        raise _InputError(f"{args.source}: no graphs found")
    return out


def cmd_compute(args) -> int:
    graphs = _load_graphs(args)
    records = []
    for index, (label, g) in enumerate(graphs):
        pp = perron(distance_matrix(g))
        conn = edge_connectivity(g).size if g.n >= 2 else None
        records.append({
            "index": index,
            "graph6": label,
            "n": g.n,
            "rho": _round12(pp.rho),
            "residual": _round12(pp.residual),
            "iterations": pp.iterations,
            "edge_connectivity": conn,
            "perron": [_round12(v) for v in pp.x],
        })
    if args.format == "json":
        _emit(_json_text(records), args.out)
    elif args.format == "csv":
        columns = ["index", "graph6", "n", "rho", "residual", "iterations",
                   "edge_connectivity", "perron"]
        rows = [dict(rec, perron=";".join(str(v) for v in rec["perron"]))
                for rec in records]
        _emit(_csv_text(columns, rows), args.out)
    else:
        lines = []
        for rec in records:
            lines.append(
                f"[{rec['index']}] {rec['graph6']}  n={rec['n']}  "
                f"rho={rec['rho']:.10f}  connectivity={rec['edge_connectivity']}  "
                f"residual={rec['residual']:.3e}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    records = []
    failed = False
    if args.t == args.r:
        placements = [()]
    else:
        placements = [
            random_cross_edges(args.n1, args.n2, args.r, args.t, args.seed + k)
            for k in range(5)
        ]
    for cross in placements:
        params = BridgeFamilyParams(args.n1, args.n2, args.r, args.t, cross)
        verdict = check_transformation(params)
        records.append({
            "claim": verdict.lemma,
            "params": verdict.params,
            "lhs_rho": _round12(verdict.lhs_rho),
            "rhs_rho": _round12(verdict.rhs_rho),
            "margin": _round12(verdict.margin),
            "residual": None,
            "holds": verdict.holds,
        })
        failed |= not verdict.holds
        for claim, checker in (
            ("hub_row_identity", check_hub_row_identity),
            ("form_shift_identity", check_form_shift_identity),
        ):
            if claim == "form_shift_identity" and args.t != args.r:
                continue
            try:
                residual = checker(params)
                holds = residual < 1e-8
            except VerificationError:
                residual, holds = None, False
            records.append({
                "claim": claim,
                "params": verdict.params,
                "lhs_rho": None,
                "rhs_rho": None,
                "margin": None,
                "residual": _round12(residual),
                "holds": holds,
            })
            failed |= not holds
    if args.format == "csv":
        columns = ["claim", "params", "lhs_rho", "rhs_rho", "margin", "residual", "holds"]
        _emit(_csv_text(columns, records), args.out)
    elif args.format == "text":
        lines = [
            f"{'ok' if rec['holds'] else 'FAIL':4s} {rec['claim']:36s} {rec['params']}"
            for rec in records
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_text(records), args.out)
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_search(args) -> int:
    corpus = None
    if args.corpus:
        with open(args.corpus, "rb") as fh:
            corpus = fh.read().splitlines()
    report = extremal_search(args.n, args.r, corpus=corpus)
    payload = {
        "n": report.n,
        "r": report.r,
        "class_size": report.class_size,
        "min_rho": _round12(report.min_rho),
        "runner_up_rho": _round12(report.runner_up_rho),
        "uniqueness_gap": _round12(report.uniqueness_gap),
        "minimizer_graph6": report.minimizer_graph6,
        "matches_kpq": report.matches_kpq,
    }
    if args.format == "csv":
        columns = list(payload)
        _emit(_csv_text(columns, [payload]), args.out)
    elif args.format == "text":
        _emit(
            f"n={payload['n']} r={payload['r']} classes={payload['class_size']} "
            f"min_rho={payload['min_rho']} gap={payload['uniqueness_gap']} "
            f"minimizer={payload['minimizer_graph6']} "
            f"matches_kpq={payload['matches_kpq']}\n",
            args.out,
        )
    else:
        _emit(_json_text(payload), args.out)
    if report.matches_kpq and report.unique():
        return EXIT_OK
    print(
        f"COUNTEREXAMPLE CANDIDATE: n={args.n} r={args.r} minimizer "
        f"{report.minimizer_graph6} (matches_kpq={report.matches_kpq}, "
        f"gap={report.uniqueness_gap}); this falsifies the run, audit it",
        file=sys.stderr,
    )
    return EXIT_VERIFY


def cmd_verify_all(args) -> int:
    results = run_all_suites(seed=args.seed, max_n=args.max_n)
    if args.inject_fault:
        from .verify import SuiteResult

        results.append(SuiteResult("injected_fault", 1, 1, "self-test fault"))
    ok = all(r.ok for r in results)
    width = max(len(r.name) for r in results)
    print(f"{'suite':{width}s}  {'cases':>7s}  {'failed':>6s}  status")
    for r in results:
        print(f"{r.name:{width}s}  {r.instances:7d}  {r.failures:6d}  "
              f"{'ok' if r.ok else 'FAIL'}")
    print("overall:", "ok" if ok else "FAIL")
    payload = {
        "seed": args.seed,
        "max_n": args.max_n,
        "suites": [asdict(r) for r in results],
        "ok": ok,
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_json_text(payload))
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsr",
        description="Distance spectral radius toolkit: compute, check, search, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="radius/Perron/connectivity per input graph")
    p.add_argument("source", nargs="?", help="file with one graph6 string per line")
    p.add_argument("--edges", help='inline edge list, e.g. "0-1,1-2"')
    p.add_argument("--n", type=int, help="vertex count override for --edges")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out", help="write output here instead of stdout")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("check", help="bridge-family flattening checks")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="extremal scan of one (n, r) class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--corpus", help="graph6 file, one class representative per line")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-all", help="run every verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=8, dest="max_n",
                   help="cap for the exhaustive scans, 1..8 (scales the grid too)")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify_all)
    return parser


def _configure_logging() -> None:
    level = os.environ.get("DSR_LOG", "").lower()
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(levelname)s %(name)s: %(message)s",
        )


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "search":
        if not 1 <= args.r <= args.n - 2:
            parser.error(f"need 1 <= r <= n-2, got n={args.n}, r={args.r}")
        if args.n > MAX_BUILTIN_ORDER and not args.corpus:
            parser.error(f"--n above {MAX_BUILTIN_ORDER} needs --corpus, got n={args.n}")
    if args.command == "verify-all" and not 1 <= args.max_n <= MAX_BUILTIN_ORDER:
        parser.error(f"--max-n must be in 1..{MAX_BUILTIN_ORDER}, got {args.max_n}")
    if args.command == "check":
        try:
            BridgeFamilyParams(
                args.n1, args.n2, args.r, args.t,
                random_cross_edges(args.n1, args.n2, args.r, args.t, args.seed)
                if args.t != args.r else (),
            )
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except (_InputError, Graph6Error, CorpusError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
