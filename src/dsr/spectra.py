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

import numpy as np

from .graphs import stack_chunks

# a certified order-n Perron pair has infinity-norm residual <= this * n
RESIDUAL_PER_VERTEX = 1e-12


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


def perron(d: np.ndarray) -> PerronPair:
    """Dominant eigenpair of an (n, n) distance matrix by power iteration.

    Starts from the uniform vector, estimates the eigenvalue by Rayleigh
    quotient each step, and stops once the infinity-norm residual drops to
    RESIDUAL_PER_VERTEX * n.  Non-convergence raises, never a bad pair.
    """
    n = len(d)
    if n == 1:
        return PerronPair(0.0, np.ones(1), 0.0, 0)
    a = d.astype(np.float64)
    tol = RESIDUAL_PER_VERTEX * n
    max_iter = int(100 * n * math.log(1.0 / tol))
    x = np.full(n, 1.0 / math.sqrt(n))
    y = np.empty(n)
    r = np.empty(n)  # |D x - rho x|
    for it in range(1, max_iter + 1):
        np.matmul(a, x, out=y)
        rho = float(np.dot(x, y))
        np.multiply(x, rho, out=r)
        np.subtract(y, r, out=r)
        residual = float(np.abs(r, out=r).max())
        if residual <= tol:
            return PerronPair(rho, x, residual, it)
        np.divide(y, math.sqrt(np.dot(y, y)), out=x)  # np.linalg.norm(y) is sqrt(dot) too
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (last residual {residual:.3e})"
    )


def perron_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perron pairs of a (k, n, n) stack of distance matrices of connected
    order-n graphs.

    The stack is solved by ``np.linalg.eigh``, one ``stack_chunks`` chunk at
    a time.  Each top eigenvector is taken in absolute value and normalized,
    its Rayleigh quotient is recomputed, and every row must have an
    infinity-norm residual at most RESIDUAL_PER_VERTEX * n and strictly
    positive entries, or ``ConvergenceError`` is raised.  Returns ``(rho, x)``
    of shapes (k,) and (k, n).
    """
    k, n, _ = mats.shape
    rho = np.empty(k)
    x = np.empty((k, n))
    for chunk in stack_chunks(k, n * n):
        a = mats[chunk].astype(np.float64)
        vecs = np.abs(np.linalg.eigh(a)[1][:, :, -1])
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        y = np.matmul(a, vecs[:, :, None])[:, :, 0]
        values = np.einsum("ki,ki->k", vecs, y)
        res = np.max(np.abs(y - values[:, None] * vecs), axis=1)
        bad = (res > RESIDUAL_PER_VERTEX * n) | ~(vecs > 0).all(axis=1)
        if bad.any():
            first = int(np.flatnonzero(bad)[0])
            raise ConvergenceError(
                f"stacked solve of matrix {chunk.start + first} (order {n}) not "
                f"certified: residual {res[first]:.3e}, min entry "
                f"{vecs[first].min():.3e}"
            )
        rho[chunk] = values
        x[chunk] = vecs
    return rho, x
