"""Sparse recovery: l1 minimization and orthogonal matching pursuit.

``basis_pursuit`` solves min ||x||_1 subject to Ax = y (the equality
relaxed to ||Ax - y|| <= tol*||y||) with a Douglas-Rachford splitting:
alternate soft-thresholding with exact projection onto the affine
constraint, using only forward/adjoint applications plus one cached
Cholesky factor of A A^T.  The operator forms the Gram matrix and the
column slices (the dense operator straight from its array), and each
iteration solves with one LAPACK ``potrs`` on the cached factor.  A
periodic support-polish step solves the least-squares system on the
current support and accepts the result early only when a dual
certificate confirms optimality, which both speeds up easy instances
and pins the objective to the exact optimum.

``omp`` is the greedy cross-check decoder: pick the column most
correlated with the residual, refit by least squares, repeat.
"""

from __future__ import annotations

import enum
import math
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


# DR iterations between support-polish attempts
POLISH_EVERY = 25


def _as_operator(op) -> LinearOperator:
    return op if isinstance(op, LinearOperator) else dense_operator(op)


class _AffineProjector:
    """Projection onto {x : Ax = y} through a cached A A^T factorization.

    Solves call LAPACK ``potrs`` on the factor directly: the same bits as
    ``scipy.linalg.cho_solve`` without its per-call finiteness check and
    lookup, which cost several times the solve at desk sizes.  The caller
    checks finiteness once per iteration instead.
    """

    def __init__(self, op: LinearOperator):
        gram = op.gram()
        gram = 0.5 * (gram + gram.T)
        self.op = op
        try:
            self._factor, self._lower = scipy.linalg.cho_factor(gram)
            self._potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (self._factor,))
            self._pinv = None
        except scipy.linalg.LinAlgError:
            self._potrs = None
            self._pinv = np.linalg.pinv(gram)

    def solve_normal(self, rhs):
        if self._potrs is None:
            return self._pinv @ rhs
        x, info = self._potrs(self._factor, rhs, lower=self._lower)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        return x

    def project(self, v, y):
        resid = self.op.forward(v) - y
        return v - self.op.adjoint(self.solve_normal(resid))

    def least_norm(self, y):
        return self.op.adjoint(self.solve_normal(y))


def _soft(v, thr):
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def _norm(v) -> float:
    """||v||_2 of a 1-D array: the dot and root np.linalg.norm computes."""
    return math.sqrt(v.dot(v))


def _certified_polish(op, y, support, tol_feas, ynorm):
    """Least-squares refit on a candidate support plus a dual certificate.

    Returns the refit solution when it is feasible and certified
    optimal for the l1 problem: with signs sigma on the support S, the
    least-norm dual w solving A_S^T w = sigma must satisfy
    |A_j^T w| <= 1 + eps off the support.  Returns None otherwise.
    """
    n, N = op.shape
    s = len(support)
    if s == 0 or s > n:
        return None
    cols = op.columns(support)
    coef, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
    if rank < s:
        return None
    if np.linalg.norm(cols @ coef - y) > tol_feas * ynorm:
        return None
    sigma = np.sign(coef)
    sigma[sigma == 0] = 1.0
    try:
        w = cols @ np.linalg.solve(cols.T @ cols, sigma)
    except np.linalg.LinAlgError:
        return None
    corr = np.abs(op.adjoint(w))
    off = np.ones(N, dtype=bool)
    off[list(support)] = False
    if corr[off].max(initial=0.0) > 1.0 + 1e-8:
        return None
    x = np.zeros(N)
    x[list(support)] = coef
    return x


def basis_pursuit(
    op,
    y,
    tol: float = 1e-7,
    max_iter: int = 3000,
) -> RecoveryResult:
    """Minimum-l1 solution of Ax = y via Douglas-Rachford splitting.

    ``op`` may be a LinearOperator or a dense array.  The returned
    estimate satisfies ||A x - y|| <= tol*||y|| when status is
    CONVERGED; the residual is recomputed independently at return.  The
    iteration is positively homogeneous in y, so scaling y scales the
    solution.  Raises ValueError when an iterate turns non-finite.
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

    proj = _AffineProjector(op)
    x_ls = proj.least_norm(y)
    feas0 = float(np.linalg.norm(op.forward(x_ls) - y))
    if feas0 > 1e-6 * ynorm:
        # y is (numerically) outside the range of A
        return RecoveryResult(np.zeros(N), 0, ynorm, RecoveryStatus.INFEASIBLE)
    gamma = 0.1 * float(np.abs(x_ls).max())
    if gamma == 0.0:
        gamma = 1.0

    w = x_ls.copy()
    x = x_ls.copy()
    v = x_ls.copy()
    best = None
    last_support = None
    status = RecoveryStatus.MAX_ITER
    it = 0
    for it in range(1, max_iter + 1):
        x = _soft(w, gamma)
        v = proj.project(2.0 * x - w, y)
        w += v - x
        gap = _norm(x - v)
        if not math.isfinite(gap):
            raise ValueError(f"iterate is not finite at iteration {it}")
        scale = max(_norm(v), ynorm)
        if gap <= tol * scale:
            status = RecoveryStatus.CONVERGED
            break
        if it % POLISH_EVERY == 0:
            support = tuple(np.nonzero(x)[0].tolist())
            if support and support != last_support:
                last_support = support
                z = _certified_polish(op, y, support, tol, ynorm)
                if z is not None:
                    best = z
                    status = RecoveryStatus.CONVERGED
                    break

    if best is None:
        # prefer the sparse iterate when it is already feasible
        candidates = [v]
        if float(np.linalg.norm(op.forward(x) - y)) <= tol * ynorm:
            candidates.append(x)
        support = tuple(np.nonzero(x)[0].tolist())
        z = _certified_polish(op, y, support, tol, ynorm) if support else None
        if z is not None:
            candidates.append(z)
        best = min(candidates, key=lambda c: float(np.abs(c).sum()))

    residual = float(np.linalg.norm(op.forward(best) - y))
    if status is RecoveryStatus.CONVERGED and residual > tol * ynorm:
        status = RecoveryStatus.MAX_ITER
    return RecoveryResult(best, it, residual, status)


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
        cols = np.column_stack([cols, op.columns([pick])])
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
