"""Write classes8.g6: one representative per isomorphism class of connected
order-8 graphs, for the search_corpus_n8 workload.

The list comes from the program's own enumeration, then is checked
independently with networkx: 11,117 lines (OEIS A001349), every graph
connected, no two isomorphic. Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_classes.py

and paste the printed digest into inputs.CLASSES8_SHA256.
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from collections import defaultdict

import networkx as nx

from inputs import CLASSES8, CLASSES8_COUNT, g6_decode


def main() -> int:
    from dsr.enumeration import enumerate_connected
    from dsr.graph6 import graph6_encode

    lines = [graph6_encode(g) for g in enumerate_connected(8)]
    if len(lines) != CLASSES8_COUNT:
        raise SystemExit(f"enumeration gave {len(lines)} classes, expected {CLASSES8_COUNT}")
    # networkx warns that unattributed graph hashes changed in 3.5; only
    # equality within one run matters here
    warnings.filterwarnings("ignore", category=UserWarning, module="networkx")
    buckets = defaultdict(list)
    for line in lines:
        g = nx.from_numpy_array(g6_decode(line))
        if not nx.is_connected(g):
            raise SystemExit(f"{line!r} is disconnected")
        bucket = buckets[nx.weisfeiler_lehman_graph_hash(g, iterations=4)]
        if any(nx.is_isomorphic(g, h) for h in bucket):
            raise SystemExit(f"{line!r} repeats a class")
        bucket.append(g)
    data = b"".join(line + b"\n" for line in lines)
    CLASSES8.write_bytes(data)
    print(f"wrote {CLASSES8} ({len(lines)} classes), sha256 {hashlib.sha256(data).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
