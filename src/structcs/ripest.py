"""Empirical restricted-isometry constants and column coherence.

For a support T the local constant is the worst deviation of the
squared singular values of the column submatrix from 1; it is computed
from the extreme eigenvalues of the small Gram matrix (order m << n
makes that the cheap and stable route).  Exhaustive sweeps cover all
size-m supports behind a combinatorial guard; Monte Carlo sampling
gives a lower bound at larger scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dependency import SupportSet
from .matrices import SensingMatrix

__all__ = [
    "RipEstimate",
    "GuardExceededError",
    "EXHAUSTIVE_GUARD",
    "delta_for_support",
    "delta_exhaustive",
    "delta_monte_carlo",
    "coherence",
]

EXHAUSTIVE_GUARD = 10**6


class GuardExceededError(RuntimeError):
    """The requested exhaustive sweep is over the combinatorial guard."""


@dataclass(frozen=True)
class RipEstimate:
    """Estimated isometry constant for supports of one fixed size.

    ``method`` is "exhaustive" (exact maximum over all size-m supports)
    or "monte-carlo" (maximum over ``samples`` random supports, a lower
    bound on the exhaustive value).
    """

    order: int
    delta: float
    method: str
    worst_support: SupportSet
    samples: int | None = None


def _entries(matrix) -> np.ndarray:
    return matrix.entries if isinstance(matrix, SensingMatrix) else np.asarray(matrix)


def delta_for_support(matrix, support: SupportSet) -> float:
    """max(sigma_max^2 - 1, 1 - sigma_min^2) over the support columns."""
    A = _entries(matrix)
    support.validate_against(A.shape[1])
    sub = A[:, list(support.indices)]
    return float(_gram_deltas(sub.T @ sub))


def _gram_deltas(gram_stack: np.ndarray) -> np.ndarray:
    eig = np.linalg.eigvalsh(gram_stack)
    return np.maximum(eig[..., -1] - 1.0, 1.0 - eig[..., 0])


def _all_supports(N: int, m: int, guard: int):
    """Count and lexicographic iterator of all size-m supports of N columns.

    Raises GuardExceededError when C(N, m) is over ``guard``.
    """
    n_supports = math.comb(N, m)
    if n_supports > guard:
        raise GuardExceededError(
            f"C({N},{m}) = {n_supports} supports exceeds the guard {guard}"
        )
    return n_supports, itertools.combinations(range(N), m)


def _chunks(supports, size: int):
    """Consecutive (count, m) index arrays of at most ``size`` supports."""
    while block := list(itertools.islice(supports, size)):
        yield np.array(block)


def _scan_supports(A, supports_iter):
    """Max delta over an iterable of supports, deterministic tie-break.

    Supports are consumed in order and the first support achieving the
    running maximum is kept, so iterating in lexicographic order yields
    the lexicographically smallest witness.
    """
    N = A.shape[1]
    gram_full = A.T @ A if N <= 2048 else None
    best_delta = -math.inf
    best_support = None
    for idx in _chunks(supports_iter, 4096 if gram_full is not None else 256):
        if gram_full is not None:
            sub = gram_full[idx[:, :, None], idx[:, None, :]]
        else:
            cols = A[:, idx]  # (n, chunk, m)
            sub = np.einsum("ncm,ncp->cmp", cols, cols)
        deltas = _gram_deltas(sub)
        j = int(np.argmax(deltas))
        if deltas[j] > best_delta:
            best_delta = float(deltas[j])
            best_support = tuple(int(v) for v in idx[j])
    return best_delta, best_support


def delta_exhaustive(matrix, m: int, guard: int = EXHAUSTIVE_GUARD) -> RipEstimate:
    """Exact constant of order m: maximum over all size-m supports.

    Checking supports of size exactly m suffices because the constant
    is monotone under taking column subsets.
    """
    A = _entries(matrix)
    N = A.shape[1]
    if not 1 <= m <= N:
        raise ValueError(f"order m must be in 1..{N}, got {m}")
    _, supports = _all_supports(N, m, guard)
    delta, support = _scan_supports(A, supports)
    return RipEstimate(
        order=m, delta=delta, method="exhaustive", worst_support=SupportSet(support)
    )


def delta_monte_carlo(matrix, m: int, samples: int, seed: int) -> RipEstimate:
    """Max over ``samples`` uniform random size-m supports (a lower bound)."""
    A = _entries(matrix)
    N = A.shape[1]
    if not 1 <= m <= N:
        raise ValueError(f"order m must be in 1..{N}, got {m}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng([seed])

    def draws():
        for _ in range(samples):
            yield tuple(sorted(rng.choice(N, size=m, replace=False).tolist()))

    delta, support = _scan_supports(A, draws())
    return RipEstimate(
        order=m,
        delta=delta,
        method="monte-carlo",
        worst_support=SupportSet(support),
        samples=samples,
    )


def coherence(matrix) -> float:
    """Largest normalized inner product between two distinct columns."""
    A = _entries(matrix)
    if A.shape[1] < 2:
        raise ValueError("coherence needs at least two columns")
    norms = np.linalg.norm(A, axis=0)
    if (norms == 0).any():
        raise ValueError("matrix has a zero column")
    unit = A / norms
    gram = np.abs(unit.T @ unit)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())
