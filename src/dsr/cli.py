"""Command-line front end.

Subcommands:
  compute     radius, Perron vector, residual, and connectivity per input graph
  check       bridge-family flattening checks for one parameter set
  search      extremal scan of one (n, r) class
  verify-all  every verification suite, summary table plus JSON report

Exit codes: 0 success, 2 usage or parse error, 3 verification failure,
4 internal (non-convergence).  Output files are byte-stable for a fixed
seed and configuration.  All work runs in one thread; --threads is still
accepted, must be at least 1, and is otherwise ignored.  Set
DSR_LOG=debug|info for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import logging
import math
import os
import random
import sys
import time
from dataclasses import MISSING, asdict, fields
from json.encoder import encode_basestring_ascii

from .cuts import edge_connectivity
from .enumeration import MAX_BUILTIN_ORDER
from .families import bridge_graph
from .graph6 import Graph6Error, graph6_decode, graph6_encode
from .graphs import Graph, distance_matrix, from_edge_list, is_connected
from .spectra import ConvergenceError, perron
from .verify import (
    CorpusError,
    ExtremalReport,
    LemmaVerdict,
    SuiteResult,
    bridge_claims,
    bridge_instances,
    extremal_search,
    run_all_suites,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

# The GIL made a thread pool slower than one thread on this pure-Python
# work, so the option only survives for existing command lines.
THREADS_HELP = "accepted for compatibility; the work runs in one thread"

# a prefix that the loader drops from any line of a graph6 file
HEADER = b">>graph6<<"

_JSON_TYPES = {"int": "integer", "float": "number", "str": "string", "bool": "boolean",
               "None": "null"}


def _schema(cls) -> dict:
    """JSON schema of a record dataclass: one property per field, typed from
    its annotation string (``X | None`` also admits null), required unless
    the field has a default."""
    properties = {}
    for f in fields(cls):
        kinds = [_JSON_TYPES[kind] for kind in f.type.split(" | ")]
        properties[f.name] = {"type": kinds if len(kinds) > 1 else kinds[0]}
    return {
        "type": "object",
        "required": [f.name for f in fields(cls) if f.default is MISSING],
        "properties": properties,
        "additionalProperties": False,
    }


SEARCH_REPORT_SCHEMA = _schema(ExtremalReport)
CHECK_RECORD_SCHEMA = _schema(LemmaVerdict)
VERIFY_REPORT_SCHEMA = {
    "type": "object",
    "required": ["seed", "max_n", "suites", "ok"],
    "properties": {
        "seed": {"type": "integer"},
        "max_n": {"type": "integer"},
        "suites": {"type": "array", "items": _schema(SuiteResult)},
        "ok": {"type": "boolean"},
    },
    "additionalProperties": False,
}


def _round12(x: float) -> float:
    """12 significant digits; run-to-run noise below that would break byte
    identity of reports."""
    return float(f"{x:.12g}")


def _record(obj) -> dict:
    """A dataclass as one report record, its floats rounded by ``_round12``."""
    return {key: _round12(value) if isinstance(value, float) else value
            for key, value in asdict(obj).items()}


def _json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of a report payload, whose dicts have
    string keys, byte for byte, built by joins rather than by the
    pure-Python encoder that ``indent`` selects; ``pad`` is the newline and
    indent of the line ``value`` closes on.  Strings are escaped by
    ``json``'s own ASCII escaper (a graph6 label may hold a backslash), and
    finite floats are their ``repr``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict) and value:
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(key) + ": " + _json(item, inner)
            for key, item in value.items()) + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {float} and math.isfinite(sum(value)):
            # no item is NaN or infinite, so the list's repr spells each one
            # as json does, ", " apart
            return "[" + inner + repr(list(value))[1:-1].replace(", ", "," + inner) + pad + "]"
        return "[" + inner + ("," + inner).join(_json(item, inner) for item in value) + pad + "]"
    return json.dumps(value)  # null, true, false, [], {}, NaN and the infinities


def _write(args, records: list[dict], line, payload) -> None:
    """Render ``--format`` and write it to ``--out`` or stdout: ``payload`` as
    JSON, ``records`` as CSV rows under the first record's keys with list
    fields joined by ";", or ``line(record)`` per record as text lines."""
    if args.format == "json":
        text = _json(payload) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(records[0]), lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow({key: ";".join(map(str, value)) if isinstance(value, list)
                             else value for key, value in rec.items()})
        text = buf.getvalue()
    else:
        text = "\n".join(line(rec) for rec in records) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _InputError(Exception):
    """Bad user input outside argparse's reach (files, inline edge lists)."""


def _parse_edges(text: str) -> Graph:
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
    try:
        g = from_edge_list(top + 1, pairs)
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    if not is_connected(g):
        raise _InputError("--edges: graph is disconnected")
    return g


def _load_graphs(path: str, order: int | None = None) -> list[tuple[str, Graph]]:
    """(line, graph) pairs of a graph6 file, one graph per nonblank line, the
    line stripped of whitespace and of one leading HEADER.  The file is
    read as bytes and split on newlines only.  A line that does not decode,
    is not of the given order or is disconnected is an error that names the
    path and the line, counted from 1."""
    out = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            line = line.removeprefix(HEADER)
            try:
                g = graph6_decode(line)
            except Graph6Error as exc:
                raise _InputError(f"{path}: line {lineno}: {exc}") from None
            if order is not None and g.n != order:
                raise _InputError(f"{path}: line {lineno}: order {g.n}, expected {order}")
            if not is_connected(g):
                raise _InputError(f"{path}: line {lineno}: graph is disconnected")
            out.append((line.decode("ascii"), g))
    if not out:
        raise _InputError(f"{path}: no graphs found")
    return out


def cmd_compute(args) -> int:
    start = time.perf_counter()
    if args.edges is not None:
        g = _parse_edges(args.edges)
        graphs = [(graph6_encode(g).decode(), g)]
    else:
        graphs = _load_graphs(args.source)
    loaded = time.perf_counter()
    spent = [0.0, 0.0, 0.0]  # seconds in distances, Perron pairs, cuts
    iterations = 0
    records = []
    for index, (label, g) in enumerate(graphs):
        t0 = time.perf_counter()
        d = distance_matrix(g)
        t1 = time.perf_counter()
        pp = perron(d)
        t2 = time.perf_counter()
        conn = edge_connectivity(g)[0] if g.n >= 2 else None
        t3 = time.perf_counter()
        spent[0] += t1 - t0
        spent[1] += t2 - t1
        spent[2] += t3 - t2
        iterations += pp.iterations
        records.append({
            "index": index,
            "graph6": label,
            "n": g.n,
            "rho": _round12(pp.rho),
            "residual": _round12(pp.residual),
            "iterations": pp.iterations,
            "edge_connectivity": conn,
            "perron": [_round12(v) for v in pp.x.tolist()],
        })
    computed = time.perf_counter()
    _write(args, records, lambda rec: (
        f"[{rec['index']}] {rec['graph6']}  n={rec['n']}  "
        f"rho={rec['rho']:.10f}  connectivity={rec['edge_connectivity']}  "
        f"residual={rec['residual']:.3e}"
    ), records)
    logger.info(
        "compute: %d graphs, %.1f power iterations mean; load %.3f s, distances "
        "%.3f s, perron %.3f s, cuts %.3f s, write %.3f s", len(graphs),
        iterations / len(graphs), loaded - start, *spent, time.perf_counter() - computed,
    )
    return EXIT_OK


def cmd_check(args) -> int:
    # main validated the parameters by drawing them, and kept the draw
    claims = bridge_claims(args.params, [bridge_graph(p) for p in args.params])
    records = [_record(c) for instance in claims for c in instance]
    _write(args, records, lambda rec: (
        f"{'ok' if rec['holds'] else 'FAIL':4s} {rec['claim']:36s} {rec['params']}"
    ), records)
    return EXIT_OK if all(rec["holds"] for rec in records) else EXIT_VERIFY


def cmd_search(args) -> int:
    graphs = [g for _, g in _load_graphs(args.corpus, args.n)] if args.corpus else None
    report = extremal_search(args.n, args.r, graphs)
    payload = _record(report)
    _write(args, [payload], lambda rec: (
        f"n={rec['n']} r={rec['r']} classes={rec['class_size']} "
        f"min_rho={rec['min_rho']} gap={rec['uniqueness_gap']} "
        f"minimizer={rec['minimizer_graph6']} matches_kpq={rec['matches_kpq']}"
    ), payload)
    if report.holds():
        return EXIT_OK
    print(
        f"COUNTEREXAMPLE CANDIDATE: n={args.n} r={args.r} minimizer "
        f"{report.minimizer_graph6} (matches_kpq={report.matches_kpq}, "
        f"gap={report.uniqueness_gap}); this falsifies the run, audit it",
        file=sys.stderr,
    )
    return EXIT_VERIFY


def cmd_verify_all(args) -> int:
    created = False
    if args.out:
        # a bad --out path fails here, before any suite runs; an existing
        # report is left as it is until the new one is written
        created = not os.path.exists(args.out)
        open(args.out, "a").close()
    try:
        results = run_all_suites(seed=args.seed, max_n=args.max_n)
    except BaseException:
        if created:
            os.remove(args.out)
        raise
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
            fh.write(_json(payload) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsr",
        description="Distance spectral radius toolkit: compute, check, search, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="radius/Perron/connectivity per input graph")
    p.add_argument("source", nargs="?", help="file with one graph6 string per line")
    p.add_argument("--edges", help='inline edge list on vertices 0..largest index, '
                   'e.g. "0-1,1-2"')
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out", help="write output here instead of stdout")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("check", help="bridge-family flattening checks")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="with t < r, seeds the five "
                   "cross-edge placements SEED..SEED+4; n1 + n2 must be at most 64")
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
    if args.command == "compute" and (args.source is None) == (args.edges is None):
        parser.error("give exactly one of a graph6 file and --edges")
    if getattr(args, "threads", 1) < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")
    if args.command == "verify-all" and not 1 <= args.max_n <= MAX_BUILTIN_ORDER:
        parser.error(f"--max-n must be in 1..{MAX_BUILTIN_ORDER}, got {args.max_n}")
    if args.command == "check":
        try:
            args.params = bridge_instances(args.n1, args.n2, args.r, args.t,
                                           map(random.Random, itertools.count(args.seed)))
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except (_InputError, Graph6Error, CorpusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
