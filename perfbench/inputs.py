"""Seeded benchmark inputs and the benchmark's own graph6 codec.

Nothing here imports ``dsr``: the program under test only ever sees the
graph6 files written from these functions, and the oracles in ``run.py``
decode those files with this codec, not with the program's.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# One representative per isomorphism class of connected order-8 graphs
# (OEIS A001349). Written by make_classes.py, pinned by its digest.
CLASSES8 = HERE / "classes8.g6"
CLASSES8_COUNT = 11117
CLASSES8_SHA256 = "1fba38d80d3945197e48109599fa17e0b95017289e939f35c0f669aeb91758c2"

# search_corpus_n8 runs `dsr search --n 8 --r r` for each of these r
SEARCH_RS = range(1, 7)

# compute_corpus: graph count, order range and edge probabilities
COMPUTE_GRAPHS = 2000
COMPUTE_ORDERS = (16, 40)
COMPUTE_PROBS = (0.3, 0.5, 0.7)

# distinct streams for the two generators, so one seed never couples them
_STREAM_COMPUTE = 1
_STREAM_SEARCH = 2

_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)


def g6_encode(adj: np.ndarray) -> bytes:
    """graph6 short form of a symmetric boolean adjacency matrix, n <= 62."""
    n = adj.shape[0]
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 short form needs 1 <= n <= 62, got {n}")
    # column order (0,1),(0,2),(1,2),(0,3),...: row-major lower triangle
    bits = adj[np.tril_indices(n, -1)].astype(np.uint8)
    bits = np.concatenate([bits, np.zeros(-len(bits) % 6, dtype=np.uint8)])
    groups = bits.reshape(-1, 6) @ _WEIGHTS + 63
    return bytes([n + 63]) + groups.astype(np.uint8).tobytes()


def g6_decode(line: bytes | str) -> np.ndarray:
    """Symmetric boolean adjacency matrix of one graph6 short-form string."""
    data = line.encode("ascii") if isinstance(line, str) else line
    data = data.strip()
    n = data[0] - 63
    if not 1 <= n <= 62:
        raise ValueError(f"not a short-form graph6 string: {data[:8]!r}")
    npairs = n * (n - 1) // 2
    groups = np.frombuffer(data[1:], dtype=np.uint8) - 63
    if len(groups) != -(-npairs // 6) or np.any(groups > 63):
        raise ValueError(f"malformed graph6 string: {data!r}")
    bits = np.unpackbits(groups[:, None], axis=1)[:, 2:].ravel()[:npairs]
    adj = np.zeros((n, n), dtype=bool)
    adj[np.tril_indices(n, -1)] = bits.astype(bool)
    return adj | adj.T


def is_connected(adj: np.ndarray) -> bool:
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _random_connected(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    while True:
        upper = np.triu(rng.random((n, n)) < p, 1)
        adj = upper | upper.T
        if is_connected(adj):
            return adj


def compute_corpus(seed: int) -> bytes:
    """COMPUTE_GRAPHS connected Erdos-Renyi graphs of mixed order, one
    graph6 line each, rejection-sampled until connected. The (order, edge
    probability) pairs cycle through every pair of COMPUTE_ORDERS and
    COMPUTE_PROBS, so every seed gets the same multiset of pairs; the seed
    picks their order and the edges."""
    rng = np.random.default_rng([_STREAM_COMPUTE, seed])
    cells = [(n, p) for n in range(COMPUTE_ORDERS[0], COMPUTE_ORDERS[1] + 1)
             for p in COMPUTE_PROBS]
    picks = rng.permutation([k % len(cells) for k in range(COMPUTE_GRAPHS)])
    return b"".join(g6_encode(_random_connected(rng, *cells[k])) + b"\n" for k in picks)


def load_classes8() -> list[bytes]:
    """The pinned order-8 class list; refuses a file that is not the one
    make_classes.py wrote."""
    data = CLASSES8.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != CLASSES8_SHA256:
        raise ValueError(f"{CLASSES8.name}: sha256 {digest}, expected {CLASSES8_SHA256}")
    lines = data.splitlines()
    if len(lines) != CLASSES8_COUNT:
        raise ValueError(f"{CLASSES8.name}: {len(lines)} lines, expected {CLASSES8_COUNT}")
    return lines


def search_corpus(seed: int) -> bytes:
    """Every order-8 class, each relabeled by a seeded random permutation,
    in seeded random line order."""
    lines = load_classes8()
    # all order-8 lines have the same length, so decode them as one array
    groups = np.frombuffer(b"".join(lines), dtype=np.uint8).reshape(len(lines), -1)[:, 1:] - 63
    bits = np.unpackbits(groups[:, :, None], axis=2)[:, :, 2:].reshape(len(lines), -1)[:, :28]
    lower = np.tril_indices(8, -1)
    adj = np.zeros((len(lines), 8, 8), dtype=bool)
    adj[:, lower[0], lower[1]] = bits.astype(bool)
    adj |= adj.transpose(0, 2, 1)
    rng = np.random.default_rng([_STREAM_SEARCH, seed])
    perm = rng.permuted(np.tile(np.arange(8), (len(lines), 1)), axis=1)
    rows = np.arange(len(lines))[:, None, None]
    relabeled = adj[rows, perm[:, :, None], perm[:, None, :]]
    relabeled = relabeled[rng.permutation(len(lines))]
    bits = np.zeros((len(lines), 30), dtype=np.uint8)
    bits[:, :28] = relabeled[:, lower[0], lower[1]]
    out = np.empty((len(lines), 7), dtype=np.uint8)
    out[:, 0] = 8 + 63
    out[:, 1:6] = bits.reshape(len(lines), 5, 6) @ _WEIGHTS + 63
    out[:, 6] = ord("\n")
    return out.tobytes()


CORPORA = {"compute_corpus": compute_corpus, "search_corpus_n8": search_corpus}
