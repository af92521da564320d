"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public ``dsr`` functions with timing wrappers at
every module binding that refers to them, so ``from .spectra import perron``
in ``dsr.verify`` and ``dsr.cli`` is traced as well as ``dsr.spectra.perron``.
Nothing under ``src/`` changes.

High-frequency calls are aggregated into a count, busy time, self time and a
log-bucketed latency histogram. Per-call spans are kept only at coarse
boundaries (CLI command, suite, ``run_all_suites``, ``extremal_search``,
``enumerate_connected(n)``), held in memory and returned once at the end.
Self time is a call's duration minus the time of the traced calls it made.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

from inputs import SEARCH_RS

perf = time.perf_counter

# histogram resolution: buckets per factor of two in latency (about 2%)
_BUCKETS_PER_OCTAVE = 32

# Report names of the eight verification suites, in report order.
SUITES = (
    "closed_forms",
    "graph6_roundtrip",
    "spectra_and_cut_oracle",
    "extremal_theorem",
    "edge_monotonicity",
    "perron_entry_order",
    "bridge_grid_and_identities",
    "cut_side_orders",
)
FAMILIES = (
    "complete_graph", "kpq", "bridge_graph", "bridge_graph_tilde",
    "random_cross_edges", "tilde_level_groups",
)


class Stat:
    """Aggregate of every call to one traced function."""

    __slots__ = ("calls", "busy", "self_time", "hist")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.hist: dict[int, int] = defaultdict(int)

    def quantile_us(self, q: float) -> float:
        """Latency quantile in microseconds, interpolated inside its bucket;
        0 when the function was never called."""
        if not self.calls:
            return 0.0
        rank = q * (self.calls - 1)
        seen = 0
        for bucket in sorted(self.hist):
            count = self.hist[bucket]
            if seen + count > rank:
                frac = (rank - seen + 0.5) / count
                return 1e6 * 2.0 ** ((bucket + frac) / _BUCKETS_PER_OCTAVE)
            seen += count
        raise AssertionError("rank beyond histogram")


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[dict] = []
        self.bindings: dict[str, int] = {}
        # time spent in traced callees, one accumulator per active traced call
        self._child = [0.0]
        self._open = [None]  # ids of the enclosing spans
        self._iso_true = 0
        self._perron_iterations = 0
        self._perron_residual_max = 0.0
        self._perron_failures = 0
        self._cut_graphs: set = set()
        self._suite_s: dict[str, float] = defaultdict(float)
        self._extremal_s: dict[int, float] = defaultdict(float)
        self._min_gap: float | None = None
        self._enum: dict[int, dict] = {}  # first exhausted enumeration per order

    # -- wrappers ----------------------------------------------------------

    def _call(self, key, fn, observe=None, span=None):
        stat = self.stats[key]
        child = self._child
        hist = stat.hist
        log2 = math.log2

        def wrapper(*args, **kwargs):
            record = span(*args, **kwargs) if span else None
            if record is not None:
                self._push_span(record)
            child.append(0.0)
            t0 = perf()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                dt = perf() - t0
                inner = child.pop()
                child[-1] += dt
                stat.calls += 1
                stat.busy += dt
                stat.self_time += dt - inner
                hist[math.floor(log2(dt if dt > 0 else 1e-9) * _BUCKETS_PER_OCTAVE)] += 1
                if observe:
                    observe(args, kwargs, outcome, dt)
                if record is not None:
                    self._open.pop()
                    record.update(start=t0, end=t0 + dt, busy=dt, self=dt - inner)

        return wrapper

    def _gen(self, key, fn):
        """Wrap a generator function; time only the work inside ``next``."""
        stat = self.stats[key]
        iso = self.stats["isomorphism.isomorphic"]

        def wrapper(n, *args, **kwargs):
            return self._iterate(stat, iso, n, fn(n, *args, **kwargs))

        return wrapper

    def _iterate(self, stat, iso, n, gen):
        child = self._child
        record = {"id": len(self.spans), "parent": self._open[-1],
                  "name": f"enumeration.enumerate_connected n={n}"}
        self.spans.append(record)
        busy = inner_total = 0.0
        start = None
        items = iso_calls = 0
        exhausted = False
        try:
            while True:
                self._open.append(record["id"])
                child.append(0.0)
                calls_before = iso.calls
                t0 = perf()
                start = t0 if start is None else start
                try:
                    item = next(gen)
                except StopIteration:
                    exhausted = True
                finally:
                    dt = perf() - t0
                    inner = child.pop()
                    child[-1] += dt
                    self._open.pop()
                    busy += dt
                    inner_total += inner
                    iso_calls += iso.calls - calls_before
                    stat.calls += 1
                    stat.busy += dt
                    stat.self_time += dt - inner
                if exhausted:
                    return
                items += 1
                yield item
        finally:
            record.update(start=start, end=perf(), busy=busy, self=busy - inner_total,
                          items=items, exhausted=exhausted)
            if exhausted and n not in self._enum:
                self._enum[n] = {"busy": busy, "items": items, "iso_calls": iso_calls}

    # -- spans -------------------------------------------------------------

    def _push_span(self, record):
        record["id"] = len(self.spans)
        record["parent"] = self._open[-1]
        self.spans.append(record)
        self._open.append(record["id"])

    # -- observers ---------------------------------------------------------

    def _observe_isomorphic(self, args, kwargs, outcome, dt):
        if outcome is True:
            self._iso_true += 1

    def _observe_perron(self, args, kwargs, outcome, dt):
        if isinstance(outcome, Exception):
            self._perron_failures += isinstance(outcome, self._convergence_error)
            return
        self._perron_iterations += outcome.iterations
        self._perron_residual_max = max(self._perron_residual_max, outcome.residual)

    def _observe_cut(self, args, kwargs, outcome, dt):
        g = args[0] if args else kwargs["g"]
        self._cut_graphs.add((g.n, g.rows))

    def _observe_suite(self, args, kwargs, outcome, dt):
        if not isinstance(outcome, Exception):
            self._suite_s[outcome.name] += dt

    def _observe_extremal(self, args, kwargs, outcome, dt):
        r = args[1] if len(args) > 1 else kwargs["r"]
        self._extremal_s[r] += dt
        gap = getattr(outcome, "uniqueness_gap", None)
        if gap is not None and (self._min_gap is None or gap < self._min_gap):
            self._min_gap = gap

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions at every binding in loaded dsr modules."""
        import dsr.cli  # noqa: F401  (loads every dsr module)
        import dsr.verify as verify
        from dsr.spectra import ConvergenceError

        self._convergence_error = ConvergenceError

        def extremal_span(n, r, *args, **kwargs):
            return {"name": f"verify.extremal_search n={n} r={r}"}

        def cli_span(argv=None):
            return {"name": f"cli.main {argv[0] if argv else '?'}"}

        targets = [
            ("dsr.enumeration", "enumerate_connected", "enumeration.enumerate_connected",
             {"gen": True}),
            ("dsr.isomorphism", "isomorphic", "isomorphism.isomorphic",
             {"observe": self._observe_isomorphic}),
            ("dsr.graphs", "distance_matrix", "graphs.distance_matrix", {}),
            ("dsr.graph6", "graph6_decode", "graph6.decode", {}),
            ("dsr.graph6", "graph6_encode", "graph6.encode", {}),
            ("dsr.spectra", "perron", "spectra.perron", {"observe": self._observe_perron}),
            ("dsr.cuts", "edge_connectivity", "cuts.edge_connectivity",
             {"observe": self._observe_cut}),
            # no metric of its own; traced so the oracle suite's bipartition
            # scans are not counted as verify self time
            ("dsr.cuts", "brute_force_min_cut", "cuts.brute_force_min_cut", {}),
            ("dsr.verify", "run_all_suites", "verify.run_all_suites",
             {"span": lambda *a, **k: {"name": "verify.run_all_suites"}}),
            ("dsr.verify", "extremal_search", "verify.extremal_search",
             {"observe": self._observe_extremal, "span": extremal_span}),
            ("dsr.cli", "main", "cli.main", {"span": cli_span}),
        ]
        targets += [("dsr.families", name, f"families.{name}", {}) for name in FAMILIES]
        targets += [
            ("dsr.verify", name, f"verify.{name}",
             {"observe": self._observe_suite,
              "span": lambda *a, _name=name, **k: {"name": f"verify.{_name}"}})
            for name in vars(verify) if name.startswith("suite_")
        ]
        modules = [m for name, m in sys.modules.items() if name == "dsr" or name.startswith("dsr.")]
        for module_name, attr, key, how in targets:
            original = getattr(sys.modules[module_name], attr)
            if how.get("gen"):
                wrapper = self._gen(key, original)
            else:
                wrapper = self._call(key, original, how.get("observe"), how.get("span"))
            count = 0
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        count += 1
            self.bindings[f"{module_name}.{attr}"] = count

    # -- results -----------------------------------------------------------

    def _layer_self(self, prefix: str) -> float:
        return sum(s.self_time for k, s in self.stats.items() if k.startswith(prefix))

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values, every name present on every workload;
        a function that was never called reports zeros."""
        st = self.stats
        iso = st["isomorphism.isomorphic"]
        dm = st["graphs.distance_matrix"]
        dec, enc = st["graph6.decode"], st["graph6.encode"]
        per = st["spectra.perron"]
        cut = st["cuts.edge_connectivity"]
        e8 = self._enum.get(8, {"busy": 0.0, "items": 0, "iso_calls": 0})
        out = {}
        for n in (6, 7, 8):
            out[f"enumeration.cold_s.n{n}"] = self._enum.get(n, {"busy": 0.0})["busy"]
        out["enumeration.classes.n8"] = e8["items"]
        out.update({
            "isomorphism.calls": iso.calls,
            "isomorphism.busy_s": iso.busy,
            "isomorphism.us_p50": iso.quantile_us(0.5),
            "isomorphism.us_p99": iso.quantile_us(0.99),
            "isomorphism.true_ratio": self._iso_true / iso.calls if iso.calls else 0.0,
            "isomorphism.calls_per_class.n8": e8["iso_calls"] / e8["items"] if e8["items"] else 0.0,
            "graphs.distance_matrix.calls": dm.calls,
            "graphs.distance_matrix.busy_s": dm.busy,
            "graphs.distance_matrix.us_p50": dm.quantile_us(0.5),
            "graph6.decode.calls": dec.calls,
            "graph6.decode.busy_s": dec.busy,
            "graph6.encode.calls": enc.calls,
            "graph6.encode.busy_s": enc.busy,
            "spectra.perron.calls": per.calls,
            "spectra.perron.busy_s": per.busy,
            "spectra.perron.us_p50": per.quantile_us(0.5),
            "spectra.perron.us_p99": per.quantile_us(0.99),
            "spectra.perron.iterations_mean":
                self._perron_iterations / per.calls if per.calls else 0.0,
            "spectra.perron.residual_max": self._perron_residual_max,
            "spectra.perron.failures": self._perron_failures,
            "cuts.edge_connectivity.calls": cut.calls,
            "cuts.edge_connectivity.busy_s": cut.busy,
            "cuts.edge_connectivity.us_p50": cut.quantile_us(0.5),
            "cuts.edge_connectivity.us_p99": cut.quantile_us(0.99),
            "cuts.calls_per_class":
                cut.calls / len(self._cut_graphs) if self._cut_graphs else 0.0,
            "families.busy_s": self._layer_self("families."),
        })
        for suite in SUITES:
            out[f"verify.suite_s.{suite}"] = self._suite_s.get(suite, 0.0)
        for r in SEARCH_RS:
            out[f"verify.extremal_search_s.r{r}"] = self._extremal_s.get(r, 0.0)
        out["verify.self_s"] = self._layer_self("verify.")
        out["verify.min_uniqueness_gap"] = self._min_gap or 0.0
        out["cli.self_s"] = self._layer_self("cli.")
        return out
