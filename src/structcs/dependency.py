"""Row-dependency structure of column submatrices.

Restricting a block-structured matrix to a column support T couples
rows that draw on a shared scalar variable.  Everything here is
computed from construction provenance (``var_id``), never from value
equality.  The module verifies the combinatorial bounds on the number
of coupled rows and produces checked equitable colorings of the
dependency graph (independent classes of near-equal size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import MatrixKind, SensingMatrix

__all__ = [
    "SupportSet",
    "DependencyReport",
    "ColoringPartition",
    "DependencyBoundViolation",
    "ColoringFailureError",
    "dependent_rows",
    "dependency_report",
    "dependency_bound_for",
    "check_toeplitz_dependency_bound",
    "circulant_dependency_bound",
    "equitable_color_graph",
    "equitable_coloring",
]


class DependencyBoundViolation(RuntimeError):
    """A verified dependency count exceeded its structural bound."""


class ColoringFailureError(RuntimeError):
    """The greedy equitable-coloring procedure could not finish."""


@dataclass(frozen=True)
class SupportSet:
    """A sorted set of column indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(idx) == 0:
            raise ValueError("support must be nonempty")
        if len(set(idx)) != len(idx):
            raise ValueError("support indices must be distinct")
        if idx[0] < 0:
            raise ValueError("support indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)

    def validate_against(self, n_cols: int) -> None:
        if self.indices[-1] >= n_cols:
            raise IndexError(
                f"support index {self.indices[-1]} out of range for {n_cols} columns"
            )


@dataclass(frozen=True)
class DependencyReport:
    """Per-row coupled-row sets with the applicable structural bound."""

    support: SupportSet
    per_row: tuple[frozenset, ...]
    max_size: int
    bound: int
    passed: bool

    def __post_init__(self):
        # symmetry and irreflexivity are structural; check on every report
        for i, deps in enumerate(self.per_row):
            if i in deps:
                raise ValueError(f"row {i} listed as dependent on itself")
            for j in deps:
                if i not in self.per_row[j]:
                    raise ValueError(f"asymmetric dependency between rows {i} and {j}")


def _adjacency(matrix: SensingMatrix, support: SupportSet, rows=None) -> np.ndarray:
    """Boolean len(rows) x n matrix: entry (a, j) says rows ``rows[a]`` and
    ``j`` share at least one variable over T; a row is not its own
    neighbour.  ``rows`` defaults to every row, giving the n x n matrix."""
    V = matrix.var_id[:, support.indices]
    rows = np.arange(matrix.n) if rows is None else np.asarray(rows)
    adj = (V[rows][:, None, :, None] == V[None, :, None, :]).any(axis=(2, 3))
    adj[np.arange(len(rows)), rows] = False
    return adj


def dependent_rows(matrix: SensingMatrix, support: SupportSet, row: int) -> set:
    """Rows j != row whose support-restricted entries share a variable with ``row``."""
    support.validate_against(matrix.N)
    if not 0 <= row < matrix.n:
        raise IndexError(f"row {row} out of range for {matrix.n} rows")
    return set(int(j) for j in np.nonzero(_adjacency(matrix, support, [row])[0])[0])


def dependency_bound_for(kind: MatrixKind, l: int, support_size: int) -> int:
    """Structural bound on the number of rows coupled to any one row.

    Toeplitz/circulant block grids bound the count by the smaller of
    ``|T|(|T|-1)`` and ``l - 1``; an IID matrix has no coupling at all;
    the doubly-circulant kinds carry the ``|T|(|T|-1)`` bound (valid for
    untruncated-period grids, inner q <= p and outer l <= k).
    """
    pairs = support_size * (support_size - 1)
    if kind is MatrixKind.IID:
        return 0
    if kind in (MatrixKind.TOEPLITZ_BLOCK, MatrixKind.CIRCULANT_BLOCK):
        return min(pairs, l - 1)
    return pairs


def dependency_report(matrix: SensingMatrix, support: SupportSet) -> DependencyReport:
    """Exact per-row dependency sets plus the applicable bound."""
    support.validate_against(matrix.N)
    adj = _adjacency(matrix, support)
    per_row = tuple(frozenset(int(j) for j in np.nonzero(adj[i])[0])
                    for i in range(matrix.n))
    max_size = int(adj.sum(axis=1).max()) if matrix.n else 0
    bound = dependency_bound_for(matrix.spec.kind, matrix.spec.l, support.size)
    return DependencyReport(
        support=support,
        per_row=per_row,
        max_size=max_size,
        bound=bound,
        passed=max_size <= bound,
    )


def check_toeplitz_dependency_bound(
    matrix: SensingMatrix, support: SupportSet
) -> DependencyReport:
    """Verify the coupled-row bound for a Toeplitz-block matrix.

    With l block rows: at most ``|T|(|T|-1)`` coupled rows when
    ``|T|(|T|-1) < l`` and at most ``l - 1`` otherwise.  Raises
    :class:`DependencyBoundViolation` on any excess.
    """
    if matrix.spec.kind is not MatrixKind.TOEPLITZ_BLOCK:
        raise ValueError(
            f"expected a toeplitz-block matrix, got {matrix.spec.kind.value}"
        )
    report = dependency_report(matrix, support)
    if not report.passed:
        raise DependencyBoundViolation(
            f"max dependency {report.max_size} exceeds bound {report.bound} "
            f"for |T|={support.size}, l={matrix.spec.l}"
        )
    return report


def circulant_dependency_bound(p: int, q: int, support: SupportSet) -> int:
    """Coupled-row count for a p x q scalar circulant band, via shifts.

    Builds the 0/1 indicator of T, stacks its p cyclic right-shifts,
    and counts shifted rows at Hamming distance < |T| from the first
    row over the support columns.  Requires p <= q (rows must not
    outrun one period).  Raises on counts above ``|T|(|T|-1)``.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    if p > q:
        raise ValueError(f"truncated circulant requires p <= q, got p={p} > q={q}")
    support.validate_against(q)
    cols = np.array(support.indices)
    t = np.zeros(q, dtype=int)
    t[cols] = 1
    shifted = np.stack([np.roll(t, s) for s in range(p)])
    sub = shifted[:, cols]
    hamming = (sub[1:] != sub[0]).sum(axis=1)
    count = int((hamming < support.size).sum())
    limit = support.size * (support.size - 1)
    if count > limit:
        raise DependencyBoundViolation(
            f"circulant dependency count {count} exceeds {limit} "
            f"for p={p}, q={q}, T={support.indices}"
        )
    return count


# ---------------------------------------------------------------------------
# equitable coloring


@dataclass(frozen=True)
class ColoringPartition:
    """Disjoint row classes covering 0..n-1, independent within classes."""

    classes: tuple[tuple[int, ...], ...]

    @property
    def q(self) -> int:
        return len(self.classes)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


def _validate_partition(neighbors, classes, q, n) -> None:
    if len(classes) != q:
        raise ColoringFailureError(f"expected {q} classes, got {len(classes)}")
    seen = [v for cls in classes for v in cls]
    if sorted(seen) != list(range(n)):
        raise ColoringFailureError("classes do not partition the vertex set")
    lo, hi = n // q, -(-n // q)
    for cls in classes:
        if len(cls) not in (lo, hi):
            raise ColoringFailureError(
                f"class size {len(cls)} outside equitable range {{{lo}, {hi}}}"
            )
        cset = set(cls)
        for v in cls:
            if neighbors[v] & cset:
                raise ColoringFailureError(f"vertex {v} has a neighbor in its class")


def equitable_color_graph(neighbors: list, q: int) -> ColoringPartition:
    """Greedy equitable q-coloring with balancing moves, verified post hoc.

    ``neighbors[v]`` is the set of vertices adjacent to v.  A maximum
    degree of at most q - 1 guarantees an equitable q-coloring exists;
    smaller q may still work (bipartite graphs, say) and is attempted.
    Greedy assignment fills the least-loaded admissible class; a
    balancing phase then moves or two-step-shuffles vertices from
    oversized to undersized classes.  The procedure is not guaranteed
    to succeed on adversarial graphs: it validates its output and
    raises :class:`ColoringFailureError` rather than return an invalid
    partition.
    """
    n = len(neighbors)
    if q < 1:
        raise ValueError("q must be >= 1")
    color = [-1] * n
    members = [set() for _ in range(q)]

    def admissible(v, c):
        return all(color[u] != c for u in neighbors[v])

    # highest-degree-first greedy, least-loaded admissible class; a max
    # degree below q guarantees options, otherwise greedy may get stuck
    order = sorted(range(n), key=lambda v: -len(neighbors[v]))
    for v in order:
        options = [c for c in range(q) if admissible(v, c)]
        if not options:
            raise ColoringFailureError(
                f"no admissible class for vertex {v} with {len(neighbors[v])} "
                f"neighbors and q={q}"
            )
        c = min(options, key=lambda c: (len(members[c]), c))
        color[v] = c
        members[c].add(v)

    def move(v, dst):
        members[color[v]].discard(v)
        color[v] = dst
        members[dst].add(v)

    lo, hi = n // q, -(-n // q)
    for _ in range(4 * n + 4 * q + 16):
        big = max(range(q), key=lambda c: (len(members[c]), c))
        small = min(range(q), key=lambda c: (len(members[c]), c))
        if len(members[big]) - len(members[small]) <= 1:
            break
        moved = False
        for v in sorted(members[big]):
            if admissible(v, small):
                move(v, small)
                moved = True
                break
        if moved:
            continue
        # two-step shuffle: big -> mid, mid -> small
        for v in sorted(members[big]):
            mids = [c for c in range(q)
                    if c not in (big, small) and len(members[c]) < hi and admissible(v, c)]
            done = False
            for mid in mids:
                for u in sorted(members[mid]):
                    if admissible(u, small):
                        move(u, small)
                        move(v, mid)
                        done = True
                        break
                if done:
                    break
            if done:
                moved = True
                break
        if not moved:
            raise ColoringFailureError(
                "balancing stalled; greedy equitable coloring failed"
            )
    classes = tuple(tuple(sorted(members[c])) for c in range(q))
    _validate_partition(neighbors, classes, q, n)
    return ColoringPartition(classes=classes)


def equitable_coloring(matrix: SensingMatrix, support: SupportSet) -> ColoringPartition:
    """Equitable coloring of the support's row-dependency graph.

    Uses ``q = |T|(|T|-1) + 1`` classes; the dependency bounds keep the
    graph's maximum degree below q, which makes such a coloring exist.
    The returned partition is always validated.
    """
    support.validate_against(matrix.N)
    adj = _adjacency(matrix, support)
    neighbors = [set(np.nonzero(adj[i])[0].tolist()) for i in range(matrix.n)]
    q = support.size * (support.size - 1) + 1
    return equitable_color_graph(neighbors, q)
