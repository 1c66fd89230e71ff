"""Checks of the program's outputs against computations made apart from it.

Every function here takes the program's output together with what it
is checked against and returns a list of problems; an empty list means
the output passed.  Nothing here calls into ``structcs``: a trial's
verdict is rescored from the decoder's estimate, the LP oracle is HiGHS, the phase-transition prediction is computed from its formula,
isometry constants are recomputed from singular values, and dependency
sets are derived from the block layout formula.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

# a trial counts as recovered at this relative l2 error, as in the program
RECOVERY_REL_TOL = 1e-5
# float slack when comparing a recomputed isometry constant
DELTA_TOL = 1e-9


# ---------------------------------------------------------------------------
# sweeps


def lp_relative_error(A: np.ndarray, x_true: np.ndarray) -> float:
    """Relative l2 error of the HiGHS minimum-l1 solution of A x = A x_true."""
    from scipy.optimize import linprog

    n, N = A.shape
    res = linprog(np.ones(2 * N), A_eq=np.hstack([A, -A]), b_eq=A @ x_true,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        return math.inf
    return relative_error(x_true, res.x[:N] - res.x[N:])


def relative_error(x_true: np.ndarray, estimate: np.ndarray) -> float:
    """||estimate - x_true|| / ||x_true||, as a trial is scored."""
    return float(np.linalg.norm(estimate - x_true) / max(np.linalg.norm(x_true), 1e-12))


def recovered(x_true: np.ndarray, estimate) -> bool:
    """Whether a decoder's estimate recovers the signal; no estimate (the
    decode raised) does not."""
    return estimate is not None and relative_error(x_true, estimate) <= RECOVERY_REL_TOL


def trial_problems(tag: str, ok: bool, x_true: np.ndarray, estimate) -> list:
    """The program's verdict on one trial against its estimate's error."""
    if ok == recovered(x_true, estimate):
        return []
    err = "no estimate" if estimate is None else \
        f"relative error {relative_error(x_true, estimate):.3g}"
    return [f"{tag}: scored {'recovered' if ok else 'not recovered'} with {err}"]


def _gauss_tail(t: float) -> float:
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def l1_statistical_dimension(N: int, m: int) -> float:
    """Statistical dimension of the l1 descent cone at an m-sparse point.

    The formula of Amelunxen, Lotz, McCoy and Tropp (2014, Prop. 4.5),
    inf over tau >= 0 of m(1 + tau^2) + 2(N - m) E[(g - tau)_+^2] with g
    standard normal, minimized by golden-section search (the objective
    is convex in tau).
    """

    def psi(tau):
        phi = math.exp(-tau * tau / 2.0) / math.sqrt(2.0 * math.pi)
        tail = (1.0 + tau * tau) * _gauss_tail(tau) - tau * phi
        return m * (1.0 + tau * tau) + 2.0 * (N - m) * tail

    lo, hi = 0.0, 10.0
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    for _ in range(200):
        if psi(a) < psi(b):
            hi, b = b, a
            a = hi - g * (hi - lo)
        else:
            lo, a = a, b
            b = lo + g * (hi - lo)
    return psi(0.5 * (lo + hi))


def transition_halfwidth(N: int) -> float:
    """Half-width a_eta * sqrt(N) of the l1 phase transition at eta -> 1/2.

    By Theorem II of the same paper, success has probability <= eta
    below delta - a_eta sqrt(N) and >= 1 - eta above delta + a_eta sqrt(N),
    with a_eta = sqrt(8 log(4/eta)); every eta < 1/2 holds, so the 50%
    crossing lies within a_{1/2} sqrt(N) of the statistical dimension.
    """
    return math.sqrt(8.0 * math.log(8.0)) * math.sqrt(N)


def crossing_interval(n_grid, fractions) -> tuple[float, float]:
    """Interval (lo, hi] of n that holds the first 50% crossing of a curve."""
    prev = 0.0
    for n, f in zip(n_grid, fractions):
        if f >= 0.5:
            return prev, float(n)
        prev = float(n)
    return prev, math.inf


def curve_problems(N: int, m: int, n_grid, trials: int, counts: dict) -> list:
    """Shape checks of a success curve; ``counts`` maps (kind, n) -> successes.

    Each count lies in 0..trials; each kind recovers at least 95% of its
    trials at the largest n; the iid 50% crossing lies within the
    transition width of the statistical-dimension prediction.
    """
    problems = []
    kinds = sorted({k for k, _ in counts})
    for (kind, n), s in sorted(counts.items()):
        if not 0 <= s <= trials:
            problems.append(f"{kind} n={n}: {s} successes out of {trials} trials")
    top = max(n_grid)
    for kind in kinds:
        if counts[(kind, top)] < 0.95 * trials:
            problems.append(f"{kind} recovers {counts[(kind, top)]}/{trials} at n={top}, "
                            "far above the transition")
    if "iid" in kinds:
        lo, hi = crossing_interval(n_grid, [counts[("iid", n)] / trials for n in n_grid])
        pred = l1_statistical_dimension(N, m)
        width = transition_halfwidth(N)
        if hi < pred - width or lo > pred + width:
            problems.append(f"iid 50% crossing in ({lo:g}, {hi:g}] is outside "
                            f"{pred:.1f} +- {width:.1f}")
    return problems


def cell_problems(kind: str, n: int, trials: int, reported: int, verdicts) -> list:
    """The count a sweep reports for a cell against its per-trial verdicts."""
    if len(verdicts) != trials:
        return [f"{kind} n={n}: {len(verdicts)} verdicts for {trials} trials"]
    if reported != sum(bool(v) for v in verdicts):
        return [f"{kind} n={n}: reported {reported} successes, "
                f"its trials recover {sum(bool(v) for v in verdicts)}"]
    return []


# ---------------------------------------------------------------------------
# isometry constants


def svd_delta(A: np.ndarray, support) -> float:
    """max(s_max^2 - 1, 1 - s_min^2) from the singular values of A[:, support]."""
    s = np.linalg.svd(A[:, list(support)], compute_uv=False)
    smin = s[-1] if len(s) == len(support) else 0.0
    return float(max(s[0] ** 2 - 1.0, 1.0 - smin ** 2))


def delta_problems(A: np.ndarray, m: int, delta: float, witness, samples) -> list:
    """A reported order-m constant against singular-value recomputations.

    ``delta`` must equal the constant of its witness support, and no
    support in ``samples`` may exceed it.
    """
    problems = []
    if len(witness) != m:
        problems.append(f"witness {tuple(witness)} is not of size {m}")
        return problems
    own = svd_delta(A, witness)
    if abs(own - delta) > DELTA_TOL * max(1.0, abs(delta)):
        problems.append(f"delta {delta!r} differs from its witness's {own!r}")
    worst = max((svd_delta(A, s) for s in samples), default=-math.inf)
    if worst > delta + DELTA_TOL * max(1.0, abs(delta)):
        problems.append(f"a sampled support has delta {worst!r} > reported {delta!r}")
    return problems


def devore_problems(p: int, r: int, N: int, m: int, cert) -> list:
    """A deterministic-construction certificate against (m-1)r/p and C(N, m)."""
    bound = (m - 1) * r / p
    problems = []
    if not cert.passed:
        problems.append(f"p={p} r={r} m={m}: certificate did not pass")
    if abs(cert.delta_bound - bound) > 1e-12:
        problems.append(f"p={p} r={r} m={m}: bound {cert.delta_bound} != (m-1)r/p")
    for name in ("worst_eig_delta", "worst_rowsum_delta"):
        if getattr(cert, name) > bound + DELTA_TOL:
            problems.append(f"p={p} r={r} m={m}: {name} {getattr(cert, name)} > {bound}")
    if cert.supports_checked != math.comb(N, m):
        problems.append(f"p={p} r={r} m={m}: {cert.supports_checked} supports "
                        f"checked, C({N},{m}) = {math.comb(N, m)}")
    return problems


# ---------------------------------------------------------------------------
# row dependencies


def layout_dependencies(circulant: bool, k: int, l: int, d: int, e: int, support) -> list:
    """Per-row dependent-row sets of a banded block grid, from its layout.

    Entry (i*d + a, j*e + b) holds scalar (block, a, b) with block
    k-1+i-j, taken mod k for the circulant grid; two rows depend on each
    other over T when they hold a common scalar in the columns of T.
    """
    holders = defaultdict(set)
    for row in range(l * d):
        i, a = divmod(row, d)
        for col in support:
            j, b = divmod(col, e)
            block = k - 1 + i - j
            holders[(block % k if circulant else block, a, b)].add(row)
    deps = [set() for _ in range(l * d)]
    for rows in holders.values():
        for row in rows:
            deps[row] |= rows
    for row, s in enumerate(deps):
        s.discard(row)
    return deps


def dependency_problems(l: int, support, report, expected) -> list:
    """A dependency report against layout-derived sets and the bound."""
    size = len(support)
    tag = f"T={tuple(support)}"
    problems = []
    if [set(r) for r in report.per_row] != expected:
        problems.append(f"{tag}: dependency sets differ from the layout's")
    if report.max_size != max((len(s) for s in expected), default=0):
        problems.append(f"{tag}: max {report.max_size} is not the largest set")
    if report.max_size > min(size * (size - 1), l - 1):
        problems.append(f"{tag}: max {report.max_size} > min(|T|(|T|-1), l-1)")
    return problems


def coloring_problems(support, classes, expected) -> list:
    """An equitable coloring against layout-derived dependency sets."""
    tag = f"T={tuple(support)}"
    problems = []
    rows = sorted(r for c in classes for r in c)
    if rows != list(range(len(expected))):
        problems.append(f"{tag}: classes do not partition the rows")
    sizes = [len(c) for c in classes]
    if sizes and max(sizes) - min(sizes) > 1:
        problems.append(f"{tag}: class sizes {sizes} are not equitable")
    for c in classes:
        members = set(c)
        if any(expected[r] & members for r in c):
            problems.append(f"{tag}: class {tuple(c)} holds dependent rows")
            break
    return problems
