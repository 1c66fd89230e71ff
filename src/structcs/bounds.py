"""Closed-form probability bounds and sample-complexity thresholds.

All bounds are driven by the concentration exponent

    f(n, m, delta) = c0*n - m*ln(12/delta) - ln(2),

the exponent in the probability that an n-row IID matrix with
unit-expected-norm columns acts as a near-isometry of constant delta on
a fixed support of size m.  The block-structure bounds reduce to it by
a union over block rows, or over the classes of an equitable coloring
of the row-dependency graph.

``c0`` is inherited from the underlying concentration inequality and is
never pinned by the structural theory; the default here is the standard
``delta^2/16 - delta^3/48`` rate, user-overridable.  ``c2`` may be any
value in (0, c0); the default fixes c2 = c0/10 for reproducibility.
Outputs are probabilities clamped to [0, 1]; a clamped-to-zero bound is
flagged vacuous rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BoundParams",
    "BoundResult",
    "default_c0",
    "default_c2",
    "concentration_exponent",
    "prob_rip_fixed_support",
    "prob_rip_fixed_support_balanced",
    "rip_success_bound",
]

REGIME_SMALL_L = "small-l"
REGIME_LARGE_L = "large-l"


def default_c0(delta: float) -> float:
    return delta**2 / 16.0 - delta**3 / 48.0


def default_c2(c0: float) -> float:
    return c0 / 10.0


@dataclass(frozen=True)
class BoundParams:
    """Inputs to the success bounds.

    ``l`` counts block rows (the product ``l1*l2`` for doubly-circulant
    grids);
    ``delta`` is the target isometry constant at order 3m.  ``c0`` and
    ``c2`` default as described in the module docstring and must
    satisfy 0 < c2 < c0.
    """

    m: int
    N: int
    n: int
    l: int
    delta: float
    c0: float | None = None
    c2: float | None = None

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        for name in ("m", "N", "n", "l"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.N <= self.m:
            raise ValueError("N must exceed m")
        c0 = self.c0 if self.c0 is not None else default_c0(self.delta)
        c2 = self.c2 if self.c2 is not None else default_c2(c0)
        if c0 <= 0:
            raise ValueError(f"c0 must be positive, got {c0}")
        if not 0 < c2 < c0:
            raise ValueError(f"need 0 < c2 < c0, got c2={c2}, c0={c0}")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c2", c2)


@dataclass(frozen=True)
class BoundResult:
    regime: str
    prob_lower: float
    n_required: int
    vacuous: bool
    c1: float


def concentration_exponent(n: int, m: int, delta: float, c0: float) -> float:
    """f(n, m, delta) = c0*n - m*ln(12/delta) - ln(2)."""
    return c0 * n - m * math.log(12.0 / delta) - math.log(2.0)


def _clamp_prob(exponent: float) -> float:
    """1 - e^{-exponent}, clamped into [0, 1]."""
    if exponent <= 0:
        return 0.0
    return min(1.0, 1.0 - math.exp(-exponent))


def prob_rip_fixed_support(d: int, m: int, delta: float, l: int, c0: float) -> float:
    """Fixed-support near-isometry probability via a union over l block rows.

    Each of the l stacked d-row sub-blocks is IID; rescaled by sqrt(l)
    their columns have unit expected norm, and the support submatrix
    inherits the isometry when all l sub-blocks do.  Returns
    max(0, 1 - e^{-(f(d, m, delta) - ln l)}).  With l = 1 this is the
    plain IID bound.
    """
    return _clamp_prob(concentration_exponent(d, m, delta, c0) - math.log(l))


def prob_rip_fixed_support_balanced(n: int, m: int, delta: float, c0: float) -> float:
    """Fixed-support bound via an equitable q-coloring of dependent rows.

    q = m(m-1) + 1 independent row classes of size at least floor(n/q)
    give max(0, 1 - e^{-(f(floor(n/q), m, delta) - ln q)}).  Tighter
    than the block-row union when l is large.
    """
    q = m * (m - 1) + 1
    return _clamp_prob(concentration_exponent(n // q, m, delta, c0) - math.log(q))


def _regime_constant(params: BoundParams, small_l: bool) -> float:
    c0, c2, delta = params.c0, params.c2, params.delta
    if small_l:
        return (3.0 * math.log(12.0 / delta) + 15.0) / (c0 - c2)
    if c0 <= 9.0 * c2:
        raise ValueError(
            f"the large-l constant needs c0 > 9*c2, got c0={c0}, c2={c2}"
        )
    c3 = math.log(12.0 / delta) + math.log(2.0) + c0 + 4.0
    # the infimum of the admissible constants; any larger value works too
    return 27.0 * c3 / (c0 - 9.0 * c2)


def rip_success_bound(params: BoundParams) -> BoundResult:
    """Success probability and measurement requirement at order 3m.

    Small-l regime (l <= 3m(3m-1)): with n >= c1*l*m*ln(N/m) the matrix
    acts as an order-3m near-isometry with probability at least
    1 - e^{-c2*n/l}, c1 = (3*ln(12/delta) + 15)/(c0 - c2).
    Large-l regime: with n >= c1*m^3*ln(N/m), probability at least
    1 - e^{-c2*n/m^2}, c1 = 27*c3/(c0 - 9*c2) with
    c3 = ln(12/delta) + ln(2) + c0 + 4.

    If n falls short of the requirement the bound is not in force:
    prob_lower is 0 and the result is flagged vacuous.
    """
    m, N, n, l = params.m, params.N, params.n, params.l
    small_l = l <= 3 * m * (3 * m - 1)
    c1 = _regime_constant(params, small_l)
    if small_l:
        regime = REGIME_SMALL_L
        n_required = math.ceil(c1 * l * m * math.log(N / m))
        exponent = params.c2 * n / l
    else:
        regime = REGIME_LARGE_L
        n_required = math.ceil(c1 * m**3 * math.log(N / m))
        exponent = params.c2 * n / m**2
    vacuous = n < n_required
    prob = 0.0 if vacuous else _clamp_prob(exponent)
    return BoundResult(
        regime=regime, prob_lower=prob, n_required=n_required,
        vacuous=vacuous, c1=c1,
    )
