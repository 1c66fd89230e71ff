import hashlib
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structcs.dependency import (
    ColoringFailureError,
    DependencyBoundViolation,
    SupportSet,
    check_toeplitz_dependency_bound,
    circulant_dependency_bound,
    dependency_report,
    dependent_rows,
    equitable_color_graph,
    equitable_coloring,
)
from structcs.matrices import (
    build_structured,
    circulant_block_spec,
    circulant_circulant_block_spec,
    circulant_circulant_spec,
    iid_spec,
    toeplitz_block_spec,
    truncate_rows,
)


def naive_dependent_rows(matrix, support, i):
    """Brute-force label scan: python sets, no vectorization."""
    cols = list(support.indices)
    mine = {int(v) for v in matrix.var_id[i, cols]}
    out = set()
    for j in range(matrix.n):
        if j == i:
            continue
        theirs = {int(v) for v in matrix.var_id[j, cols]}
        if mine & theirs:
            out.add(j)
    return out


KINDS = ("iid", "toeplitz-block", "circulant-block",
         "circulant-circulant", "circulant-circulant-block")


def random_spec(rng, kind, seed):
    """A small spec of ``kind`` with dimensions drawn from ``rng``."""
    def draw(hi):
        return int(rng.integers(1, hi + 1))

    if kind == "iid":
        return iid_spec(draw(8), draw(10), seed=seed)
    if kind == "toeplitz-block":
        return toeplitz_block_spec(draw(5), draw(5), draw(3), draw(3), seed=seed)
    if kind == "circulant-block":
        return circulant_block_spec(draw(5), draw(5), draw(3), draw(3), seed=seed)
    if kind == "circulant-circulant":
        return circulant_circulant_spec(draw(4), draw(4), draw(4), draw(4), seed=seed)
    return circulant_circulant_block_spec(draw(3), draw(3), draw(3), draw(3),
                                          draw(2), draw(2), seed=seed)


class TestSupportSet:
    def test_sorts_and_dedups(self):
        assert SupportSet((3, 1, 2)).indices == (1, 2, 3)
        with pytest.raises(ValueError):
            SupportSet((1, 1))
        with pytest.raises(ValueError):
            SupportSet(())

    def test_range_validation(self):
        with pytest.raises(IndexError):
            SupportSet((0, 5)).validate_against(4)


class TestDependentRows:
    def test_iid_has_no_dependencies(self):
        M = build_structured(iid_spec(6, 8, seed=0))
        T = SupportSet((0, 3, 7))
        for i in range(6):
            assert dependent_rows(M, T, i) == set()

    def test_pure_toeplitz_4x4_frozen_case(self):
        # scalar band: entry (i, j) holds variable 3 + i - j; with
        # T = {0, 1} row 0 carries {3, 2} and only row 1 overlaps ({4, 3})
        M = build_structured(toeplitz_block_spec(4, 4, 1, 1, seed=5))
        T = SupportSet((0, 1))
        assert dependent_rows(M, T, 0) == {1}
        assert dependent_rows(M, T, 0) == naive_dependent_rows(M, T, 0)

    def test_single_block_row_is_independent(self):
        M = build_structured(toeplitz_block_spec(5, 1, 2, 2, seed=6))
        T = SupportSet((0, 4, 9))
        for i in range(M.n):
            assert dependent_rows(M, T, i) == set()

    def test_matches_naive_oracle_on_random_specs(self):
        # every kind, some cut by truncate_rows, supports of up to 8 columns
        rng = np.random.default_rng(31)
        for trial in range(60):
            M = build_structured(random_spec(rng, KINDS[trial % len(KINDS)], trial))
            if rng.random() < 0.4:
                M = truncate_rows(M, int(rng.integers(1, M.n + 1)))
            size = int(rng.integers(1, min(8, M.N) + 1))
            T = SupportSet(tuple(sorted(rng.choice(M.N, size, replace=False).tolist())))
            expected = [naive_dependent_rows(M, T, i) for i in range(M.n)]
            rep = dependency_report(M, T)
            assert rep.per_row == tuple(frozenset(s) for s in expected)
            assert rep.max_size == max(len(s) for s in expected)
            for i in range(M.n):
                assert dependent_rows(M, T, i) == expected[i]

    def test_row_out_of_range(self):
        M = build_structured(iid_spec(3, 3, seed=0))
        with pytest.raises(IndexError):
            dependent_rows(M, SupportSet((0,)), 5)


class TestDependencyReport:
    def test_symmetry_and_irreflexivity_enforced(self):
        rng = np.random.default_rng(77)
        for trial in range(20):
            M = build_structured(
                toeplitz_block_spec(
                    int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                    int(rng.integers(1, 3)), int(rng.integers(1, 3)), seed=trial,
                )
            )
            size = int(rng.integers(1, min(4, M.N) + 1))
            T = SupportSet(tuple(sorted(rng.choice(M.N, size, replace=False).tolist())))
            rep = dependency_report(M, T)  # constructor checks both properties
            for i, deps in enumerate(rep.per_row):
                assert i not in deps
                for j in deps:
                    assert i in rep.per_row[j]

    def test_1000_row_report_peaks_below_20_mb(self):
        # the label grouping keeps memory near n|T|; an n x n x |T| x |T|
        # comparison would need about 400 MB here
        M = build_structured(toeplitz_block_spec(100, 250, 4, 4, seed=0))
        T = SupportSet(tuple(np.random.default_rng(5).choice(M.N, 20, replace=False).tolist()))
        tracemalloc.start()
        try:
            rep = dependency_report(M, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.n == 1000 and rep.passed
        assert peak < 20 * 2**20


class TestToeplitzBound:
    def test_small_l_regime_bound_is_l_minus_1(self):
        # |T| = 3 pairs count 6 >= l = 2, so the block count governs
        M = build_structured(toeplitz_block_spec(8, 2, 1, 1, seed=3))
        rep = check_toeplitz_dependency_bound(M, SupportSet((0, 3, 6)))
        assert rep.bound == 1

    def test_large_l_regime_bound_is_pair_count(self):
        M = build_structured(toeplitz_block_spec(4, 100, 1, 1, seed=3))
        rep = check_toeplitz_dependency_bound(M, SupportSet((0, 1, 2)))
        assert rep.bound == 6

    def test_wrong_kind_rejected(self):
        M = build_structured(circulant_block_spec(3, 3, 1, 1, seed=1))
        with pytest.raises(ValueError):
            check_toeplitz_dependency_bound(M, SupportSet((0, 1)))

    def test_exhaustive_small_instances(self):
        # a slice of the acceptance sweep, all supports up to size 3
        for k, e in ((10, 1), (5, 2)):
            for l in range(1, 5):
                M = build_structured(toeplitz_block_spec(k, l, 2, e, seed=k * l))
                for size in (1, 2, 3):
                    for T in itertools.combinations(range(M.N), size):
                        check_toeplitz_dependency_bound(M, SupportSet(T))


class TestCirculantShiftBound:
    def test_single_column_has_no_pairs(self):
        assert circulant_dependency_bound(5, 5, SupportSet((2,))) == 0

    def test_q4_pair_support_counts_two(self):
        # shifts of (1,1,0,0): s=1 and s=3 overlap {0,1}, s=2 does not
        assert circulant_dependency_bound(4, 4, SupportSet((0, 1))) == 2

    def test_exhaustive_q8_triples(self):
        for T in itertools.combinations(range(8), 3):
            assert circulant_dependency_bound(8, 8, SupportSet(T)) <= 6

    def test_matches_provenance_counts(self):
        # the shift count equals the provenance count on a built matrix
        for q in (4, 5, 7):
            spec = circulant_block_spec(q, q, 1, 1, seed=q)
            M = build_structured(spec)
            for T in itertools.combinations(range(q), 2):
                shift_count = circulant_dependency_bound(q, q, SupportSet(T))
                prov = len(dependent_rows(M, SupportSet(T), 0))
                assert shift_count == prov

    def test_requires_p_at_most_q(self):
        with pytest.raises(ValueError):
            circulant_dependency_bound(6, 4, SupportSet((0, 1)))


class TestDoublyCirculantDependency:
    def test_bound_holds_within_validity_domain(self):
        # untruncated periods: inner q <= p and outer l <= k
        rng = np.random.default_rng(0)
        for trial in range(60):
            p = int(rng.integers(2, 6))
            q = int(rng.integers(1, p + 1))
            k = int(rng.integers(2, 5))
            l = int(rng.integers(1, k + 1))
            M = build_structured(circulant_circulant_spec(k, l, p, q, seed=trial))
            size = int(rng.integers(2, min(4, M.N) + 1))
            T = SupportSet(tuple(sorted(rng.choice(M.N, size, replace=False).tolist())))
            rep = dependency_report(M, T)
            assert rep.max_size <= size * (size - 1)


def graph_from_edges(n, edges):
    neighbors = [set() for _ in range(n)]
    for i, j in edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    return neighbors


def seeded_graph(n, p, seed):
    """G(n, p): each pair i < j, in order, is an edge with probability p."""
    rng = random.Random(seed)
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < p])


# Classes pinned so that the greedy's choices cannot drift: degree-
# descending order, the least-loaded admissible class with the lowest
# index on ties, then the balancing moves in order.  The first graph
# needs one single move, the second a two-step shuffle, the third both,
# and the fourth (q above its maximum degree) none.
GOLDEN_COLORINGS = [
    (graph_from_edges(6, [(0, 5), (1, 3), (1, 4), (2, 3)]), 3,
     ((2, 5), (3, 4), (0, 1))),
    (graph_from_edges(8, [(0, 4), (0, 5), (0, 7), (1, 2), (1, 5), (2, 6), (3, 5),
                          (3, 7), (4, 5), (6, 7)]), 3,
     ((2, 5, 7), (0, 3, 6), (1, 4))),
    (seeded_graph(24, 0.15, 26), 4,
     ((4, 8, 10, 14, 17, 23), (1, 12, 16, 18, 19, 21), (0, 2, 3, 6, 11, 22),
      (5, 7, 9, 13, 15, 20))),
    (seeded_graph(60, 0.08, 0), 13,
     ((11, 27, 29, 30, 52), (3, 9, 31, 35, 51), (8, 12, 15, 38, 41), (0, 22, 32, 48, 57),
      (24, 33, 36, 47, 59), (2, 4, 37, 39, 44), (5, 17, 42, 55), (6, 34, 45, 54, 56),
      (1, 10, 13, 21, 53), (7, 16, 19, 43), (14, 18, 40, 46), (20, 23, 25, 49),
      (26, 28, 50, 58))),
]


class TestEquitableColoring:
    @pytest.mark.parametrize("neighbors, q, classes", GOLDEN_COLORINGS,
                             ids=["single-move", "shuffle", "both", "no-move"])
    def test_golden_classes(self, neighbors, q, classes):
        assert equitable_color_graph(neighbors, q).classes == classes

    def test_certificates_colorings_digest(self):
        # every support of size 1..3 of the two dependency grids of the
        # certificates benchmark workload at seed 1
        parts = []
        for build in (toeplitz_block_spec, circulant_block_spec):
            M = build_structured(build(8, 6, 3, 2, "bernoulli", seed=1))
            for size in (1, 2, 3):
                for T in itertools.combinations(range(M.N), size):
                    parts.append(equitable_coloring(M, SupportSet(T)).classes)
        assert len(parts) == 1392
        digest = hashlib.sha256(json.dumps(parts).encode()).hexdigest()
        assert digest == "6610ebf3a6c8b9b2ff4c8f08f5507107acd08bd3b79f9b918c78d54b7f2e9787"

    def test_edgeless_graph_three_classes(self):
        part = equitable_color_graph([set() for _ in range(10)], 3)
        assert sorted(part.sizes()) == [3, 3, 4]

    def test_path_graph_two_classes(self):
        neighbors = [{1}, {0, 2}, {1, 3}, {2}]
        part = equitable_color_graph(neighbors, 2)
        assert sorted(part.sizes()) == [2, 2]
        for cls in part.classes:
            for v in cls:
                assert not (neighbors[v] & set(cls))

    def test_pure_toeplitz_64x128(self):
        M = build_structured(toeplitz_block_spec(128, 64, 1, 1, seed=9))
        part = equitable_coloring(M, SupportSet((3, 40, 100)))
        assert part.q == 7
        sizes = part.sizes()
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 64

    def test_infeasible_graph_raises_distinct_error(self):
        # K_{1,4} with q=2 has no equitable 2-coloring: the center's
        # class can hold only the center, so sizes must be {1, 4}
        star = [set(range(1, 5))] + [{0} for _ in range(4)]
        with pytest.raises(ColoringFailureError):
            equitable_color_graph(star, 2)

    def test_failure_error_type_exists(self):
        assert issubclass(ColoringFailureError, RuntimeError)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 1000))
    def test_random_toeplitz_colorings_verify(self, k, l, seed):
        M = build_structured(toeplitz_block_spec(k, l, 2, 1, seed=seed))
        size = min(3, M.N)
        T = SupportSet(tuple(range(size)))
        part = equitable_coloring(M, T)
        assert sum(part.sizes()) == M.n
