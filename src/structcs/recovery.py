"""Sparse recovery: l1 minimization and orthogonal matching pursuit.

``basis_pursuit`` solves min ||x||_1 subject to Ax = y exactly with the
lasso homotopy (Osborne, Presnell and Turlach 2000; Donoho and Tsaig
2008): it follows the minimizer of 1/2 ||Ax - y||^2 + lambda ||x||_1
from lambda = ||A^T y||_inf, where it is 0, down to lambda = 0.  The
path is piecewise linear in lambda and changes its active set I at one
index per step.  The operator is applied to y once, at the start, and to
each column once, when it joins I: the active columns A_I (from
``LinearOperator.column``) and their correlations A^T A_I are kept, and
a dropped index only shifts them.  Each step factors the Gram matrix
A_I^T A_I afresh with LAPACK ``potrf``, solves for the point and the
direction with ``potrs``, and reads every correlation off A^T A_I.  The
end of the path is checked with a dual certificate on the final active
set, so CONVERGED means a certified minimum-l1 solution.

``omp`` is the greedy cross-check decoder: pick the column most
correlated with the residual, refit by least squares, repeat.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fastops import LinearOperator, dense_operator

__all__ = [
    "SparseSignal",
    "RecoveryResult",
    "RecoveryStatus",
    "basis_pursuit",
    "omp",
    "is_exact_recovery",
]


class RecoveryStatus(str, enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max-iter"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SparseSignal:
    """A length-N vector supported on ``support`` with the given values."""

    length: int
    support: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        support = tuple(int(i) for i in self.support)
        values = np.asarray(self.values, dtype=float)
        if len(support) != len(set(support)):
            raise ValueError("support indices must be distinct")
        if any(not 0 <= i < self.length for i in support):
            raise IndexError("support index out of range")
        if values.shape != (len(support),):
            raise ValueError("values must match the support size")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)
        values.setflags(write=False)

    @property
    def sparsity(self) -> int:
        return len(self.support)

    def to_dense(self) -> np.ndarray:
        x = np.zeros(self.length)
        x[list(self.support)] = self.values
        return x


@dataclass(frozen=True)
class RecoveryResult:
    estimate: np.ndarray
    iterations: int
    residual_norm: float
    status: RecoveryStatus

    def __post_init__(self):
        self.estimate.setflags(write=False)


# relative size below which a homotopy quantity is rounding: a gap that
# closes at a rate below it never closes (a duplicate column's does not),
# and an event this close to the end of the path, as a fraction of the
# starting lambda, ties with the end (once y is in the span of A_I, every
# add lands on lambda = 0)
ROUNDING = 1e-9


def _as_operator(op) -> LinearOperator:
    return op if isinstance(op, LinearOperator) else dense_operator(op)


def _check_finite(values, step: int) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"homotopy step {step} is not finite")


# LAPACK's Cholesky factor and solve, bound once: the calls
# scipy.linalg.cho_factor and cho_solve make, without their per-call checks
_potrf = scipy.linalg.lapack.dpotrf
_potrs = scipy.linalg.lapack.dpotrs


def _cho_solve(gram, rhs) -> np.ndarray:
    """Solve gram @ z = rhs by Cholesky; LinAlgError, as cho_factor raises,
    when gram is not positive definite."""
    factor, info = _potrf(gram, lower=False, clean=False)
    if info == 0:
        z, info = _potrs(factor, rhs, lower=False)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky factor or solve failed: LAPACK info {info}")
    return z


def basis_pursuit(
    op,
    y,
    tol: float = 1e-7,
    max_iter: int = 3000,
) -> RecoveryResult:
    """Minimum-l1 solution of Ax = y by the lasso homotopy.

    ``op`` may be a LinearOperator or a dense array; ``max_iter`` caps the
    homotopy steps, the last of which solves at lambda = 0.  CONVERGED
    means the path ended with ||A x - y|| <= tol*||y|| and a dual
    certificate of l1 optimality; INFEASIBLE means it ended with a larger
    residual, so y is outside the range of A; MAX_ITER means the cap came
    first or the end was not certified.  The residual is recomputed with
    a forward apply at return.  The path is positively homogeneous in y,
    so scaling y scales the solution.  Raises ValueError when a step turns
    non-finite.
    """
    if max_iter < 1 or tol < 0:
        raise ValueError(f"need max_iter >= 1 and tol >= 0, got {max_iter} and {tol}")
    op = _as_operator(op)
    n, N = op.shape
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"y must have length {n}, got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("y contains non-finite values")
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        return RecoveryResult(np.zeros(N), 0, 0.0, RecoveryStatus.CONVERGED)

    corr = op.adjoint(y)
    j = int(np.argmax(np.abs(corr)))
    lam = float(abs(corr[j]))
    if lam == 0.0:
        # y is orthogonal to the range of A: the path stays at x = 0
        return RecoveryResult(np.zeros(N), 0, ynorm, RecoveryStatus.INFEASIBLE)
    end_tie = ROUNDING * lam
    # the active columns A_I and their correlations A^T A_I, in the order of
    # ``active``: Fortran order keeps a column contiguous, and np.empty
    # touches only the columns written.  I never outgrows min(n, N)
    active: list[int] = []
    signs: list[float] = []
    A_I = np.empty((n, min(n, N)), order="F")
    AtA_I = np.empty((N, min(n, N)), order="F")

    def add(j: int, sign: float, step: int) -> None:
        # the one adjoint apply of a column, made when it joins I
        k = len(active)
        A_I[:, k] = op.column(j)
        AtA_I[:, k] = op.adjoint(A_I[:, k])
        _check_finite(AtA_I[:, k], step)
        active.append(j)
        signs.append(sign)

    def drop(i: int) -> None:
        # shift the later columns left: no apply
        k = len(active)
        A_I[:, i:k - 1] = A_I[:, i + 1:k]
        AtA_I[:, i:k - 1] = AtA_I[:, i + 1:k]
        del active[i], signs[i]

    add(j, float(np.sign(corr[j])), 1)
    for it in range(1, max_iter + 1):
        # on the active set I with signs s, x_I solves
        # A_I^T A_I x_I = A_I^T y - lambda s and moves along
        # d_I = (A_I^T A_I)^-1 s as lambda falls
        k = len(active)
        cols = A_I[:, :k]
        gram = cols.T @ cols
        _check_finite(gram, it)
        s = np.array(signs)
        sol = _cho_solve(gram, np.column_stack([cols.T @ y - lam * s, s]))
        x_a, d_a = sol.T
        # c = A^T (y - A_I x_I) and a = A^T A_I d_I, from A^T y and the
        # kept A^T A_I; c is taken afresh from A^T y at every step, so
        # rounding does not build up along the path
        ca = AtA_I[:, :k] @ sol
        _check_finite(ca, it)
        c = corr - ca[:, 0]
        a = ca[:, 1]
        x = np.zeros(N)
        x[active] = x_a
        if lam == 0.0:
            # w = A_I (A_I^T A_I)^-1 s is dual feasible when ||A^T w||_inf
            # <= 1, and y^T w = s^T x_I then closes the duality gap
            certified = (np.abs(a).max() <= 1.0 + 1e-8
                         and s @ x_a >= (1.0 - 1e-8) * np.abs(x_a).sum())
            break
        # as lambda falls by gamma, c moves to c - gamma a and x_I to
        # x_I + gamma d_I: an inactive c_j reaching +-(lambda - gamma) adds
        # j, an active x_i reaching 0 drops i.  Only gaps that close count,
        # so a just-dropped index is not re-added and one already at its
        # bound is added at once
        gap = np.concatenate([lam - c, lam + c, s * x_a])
        rate = np.concatenate([1.0 - a, 1.0 + a, -s * d_a])
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.where(rate > ROUNDING, np.maximum(gap, 0.0) / rate, np.inf)
        adds = steps[:2 * N].reshape(2, N)
        adds[:, active] = np.inf
        if k == n:
            adds[:] = np.inf  # a full active set ties every add with the end
        e = int(np.argmin(steps))
        if steps[e] > lam - end_tie:
            lam = 0.0
            continue
        lam -= steps[e]
        if e < 2 * N:
            add(e % N, 1.0 if e < N else -1.0, it)
        else:
            drop(e - 2 * N)
    else:
        certified = None  # the cap came first

    residual = float(np.linalg.norm(op.forward(x) - y))
    if certified is not None and residual > tol * ynorm:
        status = RecoveryStatus.INFEASIBLE
    elif certified:
        status = RecoveryStatus.CONVERGED
    else:
        status = RecoveryStatus.MAX_ITER
    return RecoveryResult(x, it, residual, status)


def omp(op, y, sparsity: int, tol: float = 1e-10) -> RecoveryResult:
    """Greedy decoder: correlation pick, least-squares refit, repeat.

    Stops after ``sparsity`` picks or when the residual drops below
    tol*max(||y||, 1).  A rank-deficient refit yields INFEASIBLE.
    """
    if sparsity < 0 or tol < 0:
        raise ValueError(f"need sparsity >= 0 and tol >= 0, got {sparsity} and {tol}")
    op = _as_operator(op)
    n, N = op.shape
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"y must have length {n}, got {y.shape}")
    if sparsity > n:
        raise ValueError(f"sparsity {sparsity} exceeds {n} rows")
    stop = tol * max(float(np.linalg.norm(y)), 1.0)
    resid = y.copy()
    support: list[int] = []
    cols = np.empty((n, 0))
    coef = np.empty(0)
    it = 0
    if float(np.linalg.norm(resid)) <= stop:
        return RecoveryResult(np.zeros(N), 0, float(np.linalg.norm(resid)),
                              RecoveryStatus.CONVERGED)
    for it in range(1, sparsity + 1):
        corr = np.abs(op.adjoint(resid))
        corr[support] = -1.0
        pick = int(np.argmax(corr))
        support.append(pick)
        cols = np.column_stack([cols, op.column(pick)])
        coef, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
        if rank < len(support):
            estimate = np.zeros(N)
            return RecoveryResult(estimate, it, float(np.linalg.norm(y)),
                                  RecoveryStatus.INFEASIBLE)
        resid = y - cols @ coef
        if float(np.linalg.norm(resid)) <= stop:
            break
    estimate = np.zeros(N)
    estimate[support] = coef
    rnorm = float(np.linalg.norm(op.forward(estimate) - y))
    status = (RecoveryStatus.CONVERGED
              if rnorm <= stop or len(support) == sparsity
              else RecoveryStatus.MAX_ITER)
    return RecoveryResult(estimate, it, rnorm, status)


def is_exact_recovery(truth: SparseSignal, result: RecoveryResult,
                      rel_tol: float = 1e-5) -> bool:
    """Relative l2 closeness of the estimate to the true sparse signal."""
    x = truth.to_dense()
    err = float(np.linalg.norm(result.estimate - x))
    return err / max(float(np.linalg.norm(x)), 1e-12) <= rel_tol
