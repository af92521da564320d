"""Distance spectral radius and Perron vector with certified residuals.

The distance matrix of a connected graph is nonnegative, symmetric, and
irreducible, so its largest eigenvalue is simple with a strictly positive
eigenvector; power iteration started inside the positive cone converges to
exactly that pair.  ``perron_stack`` solves many distance matrices at once
with a dense symmetric eigensolver and certifies each result the same way:
a strictly positive unit vector with a small eigen-residual can only be the
Perron pair, whatever produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import DistanceMatrix


# matrix entries per np.linalg.eigh call in perron_stack: 256 graphs of
# order 8, fewer of larger orders; larger chunks raise peak memory and gain
# no speed
STACK_ENTRIES = 1 << 14


class ConvergenceError(RuntimeError):
    """No certified Perron pair: power iteration missed its residual tolerance
    within the cap, or a stacked solve returned a pair that fails the
    residual or positivity check."""


@dataclass(frozen=True, eq=False)
class PerronPair:
    """Dominant eigenvalue with a unit, entrywise-positive eigenvector.

    ``residual`` is the max-norm of D x - rho x at the returned pair; callers
    can treat it as an a-posteriori certificate.
    """

    rho: float
    x: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        self.x.setflags(write=False)


def perron(dm: DistanceMatrix) -> PerronPair:
    """Dominant eigenpair of a distance matrix by power iteration.

    Starts from the uniform vector, estimates the eigenvalue by Rayleigh
    quotient each step, and stops once the infinity-norm residual drops to
    1e-12 * n.  Non-convergence raises instead of returning a bad pair.
    """
    n = dm.n
    if n == 1:
        return PerronPair(0.0, np.ones(1), 0.0, 0)
    a = dm.d.astype(np.float64)
    tol = 1e-12 * n
    max_iter = int(100 * n * math.log(1.0 / tol))
    x = np.full(n, 1.0 / math.sqrt(n))
    for it in range(1, max_iter + 1):
        y = a @ x
        rho = float(x @ y)
        residual = float(np.max(np.abs(y - rho * x)))
        if residual <= tol:
            return PerronPair(rho, x.copy(), residual, it)
        x = y / np.linalg.norm(y)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (last residual {residual:.3e})"
    )


def perron_stack(
    mats: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Perron pairs of distance matrices of connected graphs, any mix of orders.

    Matrices of one order are stacked and solved by ``np.linalg.eigh`` in
    chunks of at most ``STACK_ENTRIES`` entries.  Each top eigenvector is
    taken in absolute value and normalized, its Rayleigh quotient is
    recomputed, and every row must have an infinity-norm residual at most
    1e-12 * n and strictly positive entries, or ``ConvergenceError`` is
    raised.  Returns ``(rho, x, residual)``: ``rho`` and ``residual`` of
    shape (k,), ``x`` of shape (k, max order) with row i zero past the order
    of matrix i.
    """
    orders = np.array([len(m) for m in mats], dtype=np.int64)
    k = len(orders)
    rho = np.empty(k)
    x = np.zeros((k, int(orders.max(initial=0))))
    residual = np.empty(k)
    for n in np.unique(orders).tolist():
        rows = np.flatnonzero(orders == n)
        chunk = max(1, STACK_ENTRIES // (n * n))
        for start in range(0, len(rows), chunk):
            idx = rows[start:start + chunk]
            a = np.stack([mats[i] for i in idx]).astype(np.float64)
            vecs = np.abs(np.linalg.eigh(a)[1][:, :, -1])
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            y = np.matmul(a, vecs[:, :, None])[:, :, 0]
            values = np.einsum("ki,ki->k", vecs, y)
            res = np.max(np.abs(y - values[:, None] * vecs), axis=1)
            bad = (res > 1e-12 * n) | ~(vecs > 0).all(axis=1)
            if bad.any():
                first = int(np.flatnonzero(bad)[0])
                raise ConvergenceError(
                    f"stacked solve of matrix {int(idx[first])} (order {n}) not "
                    f"certified: residual {res[first]:.3e}, min entry "
                    f"{vecs[first].min():.3e}"
                )
            rho[idx] = values
            x[idx, :n] = vecs
            residual[idx] = res
    return rho, x, residual


def quadratic_form(dm: DistanceMatrix, x: Sequence[float] | np.ndarray) -> float:
    """sum_{u,v} d_uv x_u x_v."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dm.n,):
        raise ValueError(f"vector length {x.shape} does not match order {dm.n}")
    return float(x @ (dm.d @ x))


def rayleigh_bound_check(
    dm: DistanceMatrix, x: Sequence[float] | np.ndarray
) -> tuple[float, float]:
    """Quadratic form of a unit vector and its slack below the spectral radius.

    The slack is nonnegative for every unit vector and zero exactly at the
    Perron vector.
    """
    x = np.asarray(x, dtype=np.float64)
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"vector must be unit norm, got |x| = {norm!r}")
    value = quadratic_form(dm, x)
    slack = perron(dm).rho - value
    return value, slack


def perron_group_pattern(
    pp: PerronPair, groups: Sequence[Iterable[int]]
) -> list[tuple[float, float]]:
    """Per-group (mean entry, max within-group deviation) of the Perron vector.

    ``groups`` must partition 0..n-1; used to assert block-constant eigenvector
    structure on symmetric constructions.
    """
    n = len(pp.x)
    seen: set[int] = set()
    out = []
    for group in groups:
        idx = list(group)
        if not idx:
            raise ValueError("empty group")
        for v in idx:
            if not 0 <= v < n or v in seen:
                raise ValueError(f"groups do not partition 0..{n - 1}: bad index {v}")
            seen.add(v)
        entries = pp.x[idx]
        mean = float(entries.mean())
        out.append((mean, float(np.max(np.abs(entries - mean)))))
    if len(seen) != n:
        raise ValueError(f"groups do not partition 0..{n - 1}: {n - len(seen)} missing")
    return out
