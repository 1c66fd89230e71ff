"""Deterministic 0/1 sensing matrices from polynomials over Z_p.

Columns are indexed by polynomials of degree at most r over the prime
field Z_p, enumerated lexicographically by coefficients.  A column is
the indicator of its polynomial's graph {(x, f(x))} inside the p*p grid
(row index x*p + f(x)), scaled by 1/sqrt(p) so columns are unit norm.
Two distinct polynomials agree on at most r points, which bounds the
raw integer inner product of two columns by r and yields an exact,
roundoff-free isometry certificate: for any m support columns the Gram
matrix has unit diagonal and off-diagonal row sums at most
(m-1)*r/p, so its spectrum lies in [1 - (m-1)*r/p, 1 + (m-1)*r/p].

The block extension arranges p^2 x l slices of the column sequence in a
banded grid of s block rows by t block columns (block number
t - 1 + i - j at block position (i, j), taken modulo t so only the
first t*l columns are ever used) and rescales by 1/sqrt(s*p); every
column then stacks s graph indicators and keeps unit norm while the
inner-product bound becomes s*r raw (r/p normalized), preserving the
same isometry constant.

All combinatorics run in exact integer arithmetic; floating point
enters only at the final scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import (
    BlockStructureSpec,
    DistributionKind,
    EntryDistribution,
    MatrixKind,
    SensingMatrix,
    from_blocks,
)
from .ripest import (
    EXHAUSTIVE_GUARD,
    _all_supports,
    _gram_bounded,
    _pruned_max,
)

__all__ = [
    "PolySpec",
    "GraphVector",
    "RipCertificate",
    "is_prime",
    "enumerate_polynomials",
    "graph_vector",
    "build_devore",
    "build_devore_block",
    "verify_rip_guarantee",
]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PolySpec:
    """Parameters of the block construction over Z_p.

    ``t`` block columns of width ``l``, ``s`` block rows; the column
    budget is t*l <= p^(r+1) since only the first t*l polynomial
    columns are used (block numbers wrap modulo t).
    """

    p: int
    r: int
    t: int = 1
    s: int = 1
    l: int | None = None

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not 0 < self.r < self.p:
            raise ValueError(f"need 0 < r < p, got r={self.r}, p={self.p}")
        if self.t < 1 or self.s < 1:
            raise ValueError("t and s must be >= 1")
        if self.l is None:
            object.__setattr__(self, "l", self.p ** (self.r + 1) // self.t)
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if self.t * self.l > self.p ** (self.r + 1):
            raise ValueError(
                f"column budget exceeded: t*l = {self.t * self.l} "
                f"> p^(r+1) = {self.p ** (self.r + 1)}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.s * self.p**2, self.t * self.l)


@dataclass(frozen=True)
class GraphVector:
    """A polynomial's coefficients plus its 0/1 graph indicator."""

    coeffs: tuple[int, ...]
    bits: np.ndarray

    def __post_init__(self):
        self.bits.setflags(write=False)


def enumerate_polynomials(p: int, r: int, count: int) -> list:
    """First ``count`` coefficient tuples (a_0, ..., a_r) over Z_p.

    Ordering is lexicographic on (a_r, ..., a_0), most significant
    coefficient first: tuple number i has a_j = (i // p^j) mod p.
    """
    total = p ** (r + 1)
    if not 0 <= count <= total:
        raise ValueError(f"count must be in 0..{total}, got {count}")
    out = []
    for i in range(count):
        v = i
        coeffs = []
        for _ in range(r + 1):
            coeffs.append(v % p)
            v //= p
        out.append(tuple(coeffs))
    return out


def _eval_mod(coeffs, x, p) -> int:
    """Horner evaluation of a_0 + a_1 x + ... + a_r x^r in Z_p."""
    acc = 0
    for a in reversed(coeffs):
        acc = (acc * x + a) % p
    return acc


def graph_vector(p: int, coeffs) -> GraphVector:
    """Indicator of {(x, f(x)) : x in Z_p} over the p*p grid, row-major."""
    coeffs = tuple(int(a) % p for a in coeffs)
    bits = np.zeros(p * p, dtype=np.int64)
    for x in range(p):
        bits[x * p + _eval_mod(coeffs, x, p)] = 1
    return GraphVector(coeffs=coeffs, bits=bits)


def _graph_columns(p: int, r: int, count: int) -> np.ndarray:
    """Integer matrix (p^2 x count) of graph indicators, lex column order."""
    cols = np.zeros((p * p, count), dtype=np.int64)
    for j, coeffs in enumerate(enumerate_polynomials(p, r, count)):
        cols[:, j] = graph_vector(p, coeffs).bits
    return cols


def build_devore(p: int, r: int, n_cols: int | None = None) -> SensingMatrix:
    """The p^2 x n_cols polynomial-graph matrix, scaled to unit columns:
    the one-block case of :func:`build_devore_block`."""
    return build_devore_block(PolySpec(p, r, l=n_cols))


def build_devore_block(spec: PolySpec) -> SensingMatrix:
    """Banded grid of polynomial-graph blocks, s*p^2 x t*l, unit columns.

    Block number b (modulo t) holds columns b*l .. b*l + l - 1 of the
    graph matrix; the grid places block (t - 1 + i - j) mod t at block
    position (i, j).  Every column stacks s indicators of p ones each,
    so after the 1/sqrt(s*p) scaling all columns are unit norm.
    """
    p, r, t, s, l = spec.p, spec.r, spec.t, spec.s, spec.l
    d = p * p
    raw = _graph_columns(p, r, t * l)
    # block b is graph columns b*l .. b*l + l - 1
    blocks = raw.reshape(d, t, l).transpose(1, 0, 2) / math.sqrt(s * p)
    dist = EntryDistribution(DistributionKind.BERNOULLI, s * d)
    mspec = BlockStructureSpec(MatrixKind.DETERMINISTIC, t, s, d, l, dist, seed=0)
    return from_blocks(mspec, blocks)


@dataclass(frozen=True)
class RipCertificate:
    """Outcome of the exhaustive isometry check at one support size."""

    order: int
    delta_bound: float
    worst_eig_delta: float
    worst_rowsum_delta: float
    supports_checked: int
    passed: bool


def verify_rip_guarantee(
    spec: PolySpec, m: int, guard: int = EXHAUSTIVE_GUARD
) -> RipCertificate:
    """Exhaustively certify the isometry constant (m-1)*r/p at order m.

    Requires m < p/r + 1.  Checks in exact integer arithmetic that raw
    off-diagonal inner products are at most s*r and takes, per column,
    the largest off-diagonal row sum any size-m support gives it; then
    checks the floating-point Gram spectrum of every size-m support
    against [1 - delta, 1 + delta].  Reports the worst observed values.
    """
    p, r, s = spec.p, spec.r, spec.s
    if m < 1:
        raise ValueError("m must be >= 1")
    if not m < p / r + 1:
        raise ValueError(f"need m < p/r + 1 = {p / r + 1}, got m={m}")
    matrix = build_devore_block(spec)
    N = matrix.N
    if m > N:
        raise ValueError(f"m={m} exceeds {N} columns")
    n_supports, chunks = _all_supports(N, m, guard)
    raw = np.rint(matrix.entries * math.sqrt(s * p)).astype(np.int64)
    raw_gram = raw.T @ raw  # exact integers
    off = raw_gram - np.diag(np.diag(raw_gram))
    if (np.diag(raw_gram) != s * p).any():
        raise AssertionError("a column does not carry exactly s*p ones")
    if (off > s * r).any():
        return RipCertificate(m, (m - 1) * r / p, math.inf, math.inf, 0, False)

    delta_bound = (m - 1) * r / p
    scale = float(s * p)
    # the worst off-diagonal row sum of a size-m support: column i with
    # its m - 1 largest raw inner products.  off is nonnegative with a
    # zero diagonal, so the m - 1 largest of a whole row skip i's own
    # entry or tie with it; off <= s*r keeps the sum within (m-1)*s*r
    top = np.sort(off, axis=1)[:, N - m + 1:].sum(axis=1)
    worst_rowsum = float(top.max()) / scale
    # the spectral check needs only the worst support: the pruned scan
    # eigensolves just those whose Gershgorin bound reaches it
    worst_eig, _ = _pruned_max(_gram_bounded(raw_gram / scale, chunks))
    worst_eig = max(0.0, worst_eig)
    tol = 1e-9
    passed = bool(worst_eig <= delta_bound + tol and worst_rowsum <= delta_bound + tol)
    return RipCertificate(
        order=m,
        delta_bound=delta_bound,
        worst_eig_delta=worst_eig,
        worst_rowsum_delta=worst_rowsum,
        supports_checked=n_supports,
        passed=passed,
    )
