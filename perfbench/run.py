"""The dsr benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root. Workloads (see README.md for why each):

  verify_all_n8     dsr verify-all --max-n 8 --seed S, one cold process
  compute_corpus    dsr compute F --out J over 2,000 seeded random graphs
  search_corpus_n8  dsr search --n 8 --r r --corpus F for r = 1..6, where F
                    holds the 11,117 order-8 classes, seeded relabeling;
                    run by hand, not listed in BENCHMARK.json

The body of each run, and each set-up sample, runs in a fresh worker
process (worker.py) with --threads 1 and BLAS pinned to one thread. With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it runs the
body once untraced and, at the same time on the other core, once under
tracer.py, and reports the per-layer metrics. Outputs are checked by
oracles.py. The last stdout line is the JSON result; a full record
(environment, all samples, spans) goes to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from inputs import CLASSES8_COUNT, CORPORA, g6_decode, is_connected  # noqa: E402
from worker import body_argvs, input_files  # noqa: E402

WORKLOADS = ("verify_all_n8", "search_corpus_n8", "compute_corpus")
# set-up is measured this many times per run, and the median reported
SETUP_SAMPLES = 5
# a run, every worker included, must end within this many seconds
RUN_DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_ENV,
        "dsr_threads": 1,
    }


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.base = root / ".perfbench_out" / f"{workload}-s{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, **THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), self.env.get("PYTHONPATH")) if p)
        self.env.pop("DSR_LOG", None)
        self.corpus = CORPORA[workload](seed) if workload in CORPORA else None
        self.reference = oracles.verify_reference(seed) if workload == "verify_all_n8" else None
        self.compute_oracle = None

    def count(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    def start(self, name: str, *flags: str) -> tuple:
        """Start worker.py in a fresh interpreter under ``<base>/<name>``."""
        workdir = self.base / name
        workdir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--dir", str(workdir), *flags]
        with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
        return name, proc, workdir, spawned

    def finish(self, handle: tuple) -> tuple[dict, Path]:
        """Wait for a started worker; returns its result with ``setup_s``
        (spawn to first timed call) added, and its directory."""
        name, proc, workdir, spawned = handle
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {name} passed the {RUN_DEADLINE_S:.0f} s deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            tail = (workdir / "stderr.txt").read_text(errors="replace")[-2000:]
            raise BenchError(f"worker {name} exited {code}:\n{tail}")
        result = json.loads((workdir / "result.json").read_text())
        result["setup_s"] = result["ready"] - spawned
        return result, workdir

    def worker(self, name: str, *flags: str) -> tuple[dict, Path]:
        return self.finish(self.start(name, *flags))

    def check_inputs(self) -> None:
        """Seeded inputs: same seed gives the same bytes, another seed other
        bytes, and the order-8 corpus has 11,117 connected lines."""
        if self.corpus is None:
            return
        make = CORPORA[self.workload]
        problems = []
        if make(self.seed) != self.corpus:
            problems.append("same seed gave different corpora")
        if make(self.seed + 1) == self.corpus:
            problems.append("two seeds gave the same corpus")
        if self.workload == "search_corpus_n8":
            lines = self.corpus.splitlines()
            if len(lines) != CLASSES8_COUNT:
                problems.append(f"order-8 corpus has {len(lines)} lines")
            if not all(is_connected(g6_decode(line)) for line in lines):
                problems.append("order-8 corpus has a disconnected line")
        self.count(1, int(bool(problems)), problems)

    def check_outputs(self, result: dict, workdir: Path) -> None:
        if self.corpus is not None:
            written = b"".join(path.read_bytes() for path in input_files(self.workload, workdir))
            same = written == self.corpus
            self.count(1, int(not same), [] if same else ["worker's corpus differs from the seed's"])
        for p, codes in enumerate(result["exit_codes"]):
            outs = [Path(argv[argv.index("--out") + 1])
                    for argv in body_argvs(self.workload, self.seed, workdir, p)]
            if self.workload == "verify_all_n8":
                self.count(*oracles.check_verify(self.reference, self.seed, outs[0], codes[0]))
            elif self.workload == "search_corpus_n8":
                for r, out, code in zip(oracles.SEARCH_CLASS_SIZES, outs, codes):
                    self.count(*oracles.check_search(r, out, code))
            else:
                if self.compute_oracle is None:
                    self.compute_oracle = oracles.ComputeOracle(self.corpus, self.seed)
                self.count(*self.compute_oracle.check(outs[0], codes[0]))

    def items(self) -> int:
        """Items of one body pass: suite instances, (class, r) evaluations,
        or corpus graphs."""
        if self.workload == "verify_all_n8":
            return sum(n for _, n in self.reference)
        lines = len(self.corpus.splitlines())
        return lines * len(oracles.SEARCH_CLASS_SIZES) if self.workload == "search_corpus_n8" else lines

    def end_to_end(self) -> tuple[dict, dict]:
        self.check_inputs()
        setups = [self.worker(f"setup{k}", "--setup-only")[0]["setup_s"]
                  for k in range(SETUP_SAMPLES)]
        # a cold process runs verify-all once; the others repeat the body
        # for up to --seconds and report its mean over the passes, so the
        # machine's slow and fast spells are averaged over the whole run
        seconds = 0 if self.workload == "verify_all_n8" else self.seconds
        result, workdir = self.worker("main", "--seconds", str(seconds))
        self.check_outputs(result, workdir)
        setups.append(result["setup_s"])
        wall = statistics.fmean(sum(times) for times in result["passes"])
        metrics = {
            "wall_s": wall,
            "graphs_per_s": self.items() / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        record = {"passes": result["passes"], "setups": setups}
        return metrics, record

    def traced(self) -> tuple[dict, dict]:
        # the untraced and traced bodies run at the same time, one per core,
        # so both see the same machine and the overhead ratio compares like
        # with like
        handles = [self.start("untraced"), self.start("traced", "--trace")]
        try:
            (plain, plain_dir), (traced, traced_dir) = [self.finish(h) for h in handles]
        finally:
            for _, proc, _, _ in handles:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        self.check_outputs(plain, plain_dir)
        self.check_outputs(traced, traced_dir)
        metrics = dict(traced["layers"])
        plain_s, traced_s = sum(plain["passes"][0]), sum(traced["passes"][0])
        metrics["trace.overhead_ratio"] = traced_s / plain_s
        self.check_trace_counts(metrics)
        record = {"untraced_s": plain_s, "traced_s": traced_s,
                  "bindings": traced["bindings"], "spans": traced["spans"]}
        return metrics, record

    def check_trace_counts(self, m: dict) -> None:
        """Tracer completeness: traced counts equal what the inputs imply."""
        if self.workload == "search_corpus_n8":
            lines = len(self.corpus.splitlines())
            rs = len(oracles.SEARCH_CLASS_SIZES)
            kept = sum(oracles.SEARCH_CLASS_SIZES.values())
            expected = {
                "cuts.edge_connectivity.calls": rs * lines,
                "spectra.perron.calls": kept,
                # every line once per r, plus the minimizer once per r
                "graph6.decode.calls": rs * lines + rs,
                "graph6.encode.calls": kept,
            }
        elif self.workload == "compute_corpus":
            lines = len(self.corpus.splitlines())
            expected = {
                "graph6.decode.calls": lines,
                "graphs.distance_matrix.calls": lines,
                "spectra.perron.calls": lines,
                "cuts.edge_connectivity.calls": lines,
            }
        else:
            expected = {"enumeration.classes.n8": oracles.CLASS_COUNTS[8]}
        problems = [f"trace count {k}: {m[k]}, expected {v}"
                    for k, v in expected.items() if m[k] != v]
        self.count(len(expected), len(problems), problems)


def declared_metrics(root: Path) -> tuple[dict, dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}  # noqa: E731
    return units("end_to_end"), units("per_layer")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "dsr" / "cli.py").is_file():
        print(f"perfbench: {root} has no src/dsr/cli.py; run from the repository root",
              file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = declared_metrics(root)
    runner = Runner(root, args.workload, args.seed, args.seconds)
    try:
        metrics, record = runner.traced() if args.trace else runner.end_to_end()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.base, ignore_errors=True)
    units = per_layer_units if args.trace else end_to_end_units
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    env = environment()
    out = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    results = root / ".perfbench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "env": env, "problems": runner.problems,
                    **record, **out}, indent=1))

    print(f"env {json.dumps(env)}")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"error_rate {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.6f}")
    for k in units:
        print(f"{k:40s} {metrics[k]:>16.6g} {units[k]}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
