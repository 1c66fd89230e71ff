"""Empirical restricted-isometry constants and column coherence.

For a support T the local constant is the worst deviation of the
squared singular values of the column submatrix from 1; it is computed
from the extreme eigenvalues of the small Gram matrix (order m << n
makes that the cheap and stable route).  Exhaustive sweeps cover all
size-m supports behind a combinatorial guard; Monte Carlo sampling
gives a lower bound at larger scale.

A scan bounds every support, then eigensolves only those that can
reach the maximum.  The bound is Gershgorin's: the Gram's eigenvalues
lie within its diagonal entries plus or minus the absolute off-diagonal
row sums.  The scan is exact, with the same witness rule as a scan that
eigensolves everything: the first maximizer in iteration order, which
for exhaustive sweeps is the lexicographically smallest support.
"""

from __future__ import annotations

import functools
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
CHUNK = 2048  # supports per chunk: bounds a scan's working memory and peak RSS
FULL_GRAM_MAX = 2048  # up to this many columns a scan reads one full Gram
COLUMN_CHUNK = 256  # supports per einsum batch above FULL_GRAM_MAX; divides CHUNK
# eigvalsh is backward stable: each computed eigenvalue is within
# c(m)*eps*||G|| of the exact one, and ||G|| <= trace G <= m*max_j ||a_j||^2.
# The Gershgorin bound itself rounds by about m*eps*||G||.  For the small
# orders scanned here c(m)*eps is below 1e-13, so a slack of 1e-9 times
# max(1, m*max_j ||a_j||^2) keeps every support whose computed constant
# could tie or beat the maximum, with several orders of magnitude to spare.
SLACK = 1e-9


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
    A = matrix.entries if isinstance(matrix, SensingMatrix) else np.asarray(matrix)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return A


def delta_for_support(matrix, support: SupportSet) -> float:
    """max(sigma_max^2 - 1, 1 - sigma_min^2) over the support columns."""
    A = _entries(matrix)
    support.validate_against(A.shape[1])
    sub = A[:, list(support.indices)]
    return float(_gram_deltas(sub.T @ sub))


def _gram_deltas(gram_stack: np.ndarray) -> np.ndarray:
    eig = np.linalg.eigvalsh(gram_stack)
    return np.maximum(eig[..., -1] - 1.0, 1.0 - eig[..., 0])


def _support_chunks(N: int, m: int, size: int = CHUNK):
    """All size-m supports of N columns in lexicographic order, as
    consecutive (count, m) index arrays of at most ``size`` rows.

    A support is an (m-2)-prefix followed by a pair of larger indices;
    the pairs come from one ``np.triu_indices`` list, in which the pairs
    above any index form a suffix.  Chunks run across prefixes, so the
    chunk count is C(N, m) / size rounded up however small each
    prefix's share is.
    """
    if m == 1:
        for start in range(0, N, size):
            yield np.arange(start, min(start + size, N))[:, None]
        return
    first, second = np.triu_indices(N, k=1)
    # pairs_before[s]: pairs whose first index is below s
    pairs_before = np.concatenate(([0], np.cumsum(np.arange(N - 1, -1, -1))))
    combos = list(itertools.combinations(range(N), m - 2))
    prefixes = np.array(combos, dtype=np.intp).reshape(len(combos), m - 2)
    pair_start = pairs_before[prefixes[:, -1] + 1] if m > 2 else np.zeros(1, np.intp)
    # row_start[k]: the position of prefix k's first support in the sweep
    row_start = np.concatenate(([0], np.cumsum(len(first) - pair_start)))
    total = int(row_start[-1])
    for start in range(0, total, size):
        rows = np.arange(start, min(start + size, total))
        k = np.searchsorted(row_start, rows, side="right") - 1
        pair = pair_start[k] + rows - row_start[k]
        chunk = np.empty((len(rows), m), dtype=np.intp)
        chunk[:, : m - 2] = prefixes[k]
        chunk[:, m - 2] = first[pair]
        chunk[:, m - 1] = second[pair]
        yield chunk


def _all_supports(N: int, m: int, guard: int):
    """Count and lexicographic chunks (see _support_chunks) of all
    size-m supports of N columns.

    Raises GuardExceededError when C(N, m) is over ``guard``.
    """
    n_supports = math.comb(N, m)
    if n_supports > guard:
        raise GuardExceededError(
            f"C({N},{m}) = {n_supports} supports exceeds the guard {guard}"
        )
    return n_supports, _support_chunks(N, m)


def _reach(diag, radius, slack):
    """Gershgorin bound on each support's constant, plus ``slack``.

    ``diag`` and ``radius`` are (m, count): one row per position in the
    support, so the reductions run over m long rows.
    """
    hi = (diag + radius).max(axis=0) - 1.0
    lo = 1.0 - (diag - radius).min(axis=0)
    return np.maximum(hi, lo) + slack


@functools.cache
def _pairs(m: int):
    """The m(m-1)/2 position pairs (lo < hi) and their (m, pairs) incidence."""
    lo, hi = np.triu_indices(m, k=1)
    incidence = np.zeros((m, len(lo)))
    incidence[lo, np.arange(len(lo))] = 1.0
    incidence[hi, np.arange(len(lo))] = 1.0
    return lo, hi, incidence


def _gram_bounded(gram, chunks):
    """(supports, reach, sub-Gram gather) per chunk, all read off the
    full Gram: the diagonal and the lower-triangle pair entries, the
    ones eigvalsh reads, without forming any m x m block."""
    diag = np.diag(gram)
    top = float(diag.max(initial=0.0))
    for idx in chunks:
        m = idx.shape[1]
        lo, hi, incidence = _pairs(m)
        cols = idx.T
        radius = incidence @ np.abs(gram[cols[hi], cols[lo]])

        def gather(rows, idx=idx):
            sel = idx[rows]
            return gram[sel[:, :, None], sel[:, None, :]]

        yield idx, _reach(diag[cols], radius, SLACK * max(1.0, m * top)), gather


def _column_bounded(A, chunks):
    """(supports, reach, sub-Gram gather) per COLUMN_CHUNK supports, from
    einsum sub-Gram stacks; for matrices too wide to hold their Gram."""
    top = float(np.einsum("ij,ij->j", A, A).max(initial=0.0))
    for big in chunks:
        for start in range(0, len(big), COLUMN_CHUNK):
            idx = big[start : start + COLUMN_CHUNK]
            m = idx.shape[1]
            cols = A[:, idx]  # (n, chunk, m)
            sub = np.einsum("ncm,ncp->cmp", cols, cols)
            diag = np.diagonal(sub, axis1=1, axis2=2)
            radius = np.abs(sub).sum(axis=2) - np.abs(diag)
            reach = _reach(diag.T, radius.T, SLACK * max(1.0, m * top))
            yield idx, reach, sub.__getitem__


def _pruned_max(bounded):
    """Max delta over the chunks of ``bounded``, deterministic tie-break.

    In each chunk the support with the largest bound is eigensolved
    first; then only supports whose bound reaches the running maximum.
    The first support achieving the maximum in iteration order is kept.
    """
    best_delta = -math.inf
    best_support = None
    for idx, reach, gather in bounded:
        top = int(np.argmax(reach))
        if reach[top] < best_delta:
            continue
        top_delta = _gram_deltas(gather([top]))[0]
        rows = np.flatnonzero(reach >= max(best_delta, top_delta))
        rows = rows[rows != top]
        deltas = np.append(_gram_deltas(gather(rows)), top_delta)
        rows = np.append(rows, top)
        peak = deltas.max()
        if peak > best_delta:
            best_delta = float(peak)
            best_support = tuple(int(v) for v in idx[rows[deltas == peak].min()])
    return best_delta, best_support


def _scan_supports(A, chunks):
    """Max delta and its first witness over chunks of supports of A."""
    if A.shape[1] <= FULL_GRAM_MAX:
        return _pruned_max(_gram_bounded(A.T @ A, chunks))
    return _pruned_max(_column_bounded(A, chunks))


def delta_exhaustive(matrix, m: int, guard: int = EXHAUSTIVE_GUARD) -> RipEstimate:
    """Exact constant of order m: maximum over all size-m supports.

    Checking supports of size exactly m suffices because the constant
    is monotone under taking column subsets.
    """
    A = _entries(matrix)
    N = A.shape[1]
    if not 1 <= m <= N:
        raise ValueError(f"order m must be in 1..{N}, got {m}")
    _, chunks = _all_supports(N, m, guard)
    delta, support = _scan_supports(A, chunks)
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
        for start in range(0, samples, CHUNK):
            count = min(CHUNK, samples - start)
            block = [rng.choice(N, size=m, replace=False).tolist() for _ in range(count)]
            yield np.sort(np.array(block), axis=1)

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
