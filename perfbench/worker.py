"""One benchmark process: set up one workload, then run its body.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
Set-up is importing dsr and writing the seeded inputs; the body is calls
into ``dsr.cli.main`` exactly as the command line makes them, each timed
alone. The result, including ``time.monotonic()`` at the first timed call
so the parent can measure set-up from interpreter start, goes to
``<dir>/result.json``.

    python3 perfbench/worker.py --workload W --seed S --dir D [--seconds T]
        [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from inputs import CORPORA, SEARCH_RS


def input_files(workload: str, workdir: Path) -> list[Path]:
    return [workdir / "corpus.g6"] if workload in CORPORA else []


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    for path in input_files(workload, workdir):
        path.write_bytes(CORPORA[workload](seed))


def body_argvs(workload: str, seed: int, workdir: Path, p: int) -> list[list[str]]:
    """The CLI calls of pass p of the workload body."""
    if workload == "verify_all_n8":
        return [["verify-all", "--max-n", "8", "--seed", str(seed), "--threads", "1",
                 "--out", str(workdir / f"verify-p{p}.json")]]
    corpus = str(workdir / "corpus.g6")
    if workload == "search_corpus_n8":
        return [["search", "--n", "8", "--r", str(r), "--corpus", corpus, "--threads", "1",
                 "--out", str(workdir / f"search-p{p}-r{r}.json")] for r in SEARCH_RS]
    if workload == "compute_corpus":
        return [["compute", corpus, "--out", str(workdir / f"compute-p{p}.json")]]
    raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="repeat the body until this much time has passed")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import dsr.cli

    write_inputs(args.workload, args.seed, args.dir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    result = {"ready": ready, "passes": [], "exit_codes": []}
    if not args.setup_only:
        # whole passes only; stop before a pass of average length would
        # run past --seconds, so the body never outlasts it by a pass
        while True:
            times, codes = [], []
            for argv in body_argvs(args.workload, args.seed, args.dir, len(result["passes"])):
                t0 = time.perf_counter()
                codes.append(dsr.cli.main(argv))
                times.append(time.perf_counter() - t0)
            result["passes"].append(times)
            result["exit_codes"].append(codes)
            elapsed = time.monotonic() - ready
            if elapsed * (1 + 1 / len(result["passes"])) > args.seconds:
                break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["layers"] = tracer.metrics()
        result["bindings"] = tracer.bindings
        result["spans"] = tracer.spans
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
