import pytest
from math import comb

from plethyray import (
    Partition,
    hermite_check,
    inner_monomial_contents,
    plethysm_multiplicity,
    signed_weights,
    weight_count,
    weyl_dimension,
)
from plethyray.kernels import count_capped_multisets
from plethyray.plethysm import _PartitionTable, _partition_table, _signed_subset_counts
from plethyray.rays import OUTER, RaySpec, sample_ray
from oracle_utils import brute_weight_count, oracle_multiplicity, partitions_of


def test_inner_monomial_contents_order_and_counts():
    assert inner_monomial_contents(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert inner_monomial_contents(0, 3) == [(0, 0, 0)]
    assert len(inner_monomial_contents(3, 3)) == 10
    for k, n in [(4, 2), (3, 4), (5, 3)]:
        got = inner_monomial_contents(k, n)
        assert len(got) == comb(n + k - 1, k)
        assert got == sorted(got, reverse=True)


@pytest.mark.parametrize(
    "d,k,n,mu,expected",
    [
        (3, 2, 3, (2, 2, 2), 5),
        (1, 4, 2, (3, 1), 1),
        (2, 2, 2, (2, 2), 2),
    ],
)
def test_weight_count_spec_examples(d, k, n, mu, expected):
    assert brute_weight_count(d, k, n, mu) == expected  # oracle recomputes
    assert weight_count(d, k, n, mu) == expected


def test_weight_count_zero_conventions():
    assert weight_count(2, 3, 2, (-1, 7)) == 0
    assert weight_count(2, 3, 2, (3, 2)) == 0  # wrong total
    assert weight_count(3, 0, 2, (0, 0)) == 1
    assert weight_count(0, 4, 2, (0, 0)) == 1


def test_weight_count_matches_brute_force_sweep():
    # covers the d=1/d=2 closed forms and the main DP on one sweep
    for d in (1, 2, 3, 4):
        for k in (1, 2, 3):
            for n in (1, 2, 3):
                total = d * k
                for mu in set(
                    tuple(p + (0,) * (n - len(p)))
                    for p in partitions_of(total, n)
                ):
                    assert weight_count(d, k, n, mu) == brute_weight_count(d, k, n, mu), (
                        d, k, n, mu,
                    )


@pytest.mark.parametrize(
    "d,k,lam,expected",
    [
        (3, 4, (7, 5, 0), 0),
        (3, 8, (14, 10, 0), 1),
        (2, 3, (5, 1), 0),
        (2, 2, (2, 2), 1),
        (1, 5, (5,), 1),
    ],
)
def test_plethysm_multiplicity_examples(d, k, lam, expected):
    assert plethysm_multiplicity(d, k, Partition(lam)) == expected


def test_plethysm_against_schur_expansion_oracle():
    # the oracle expands the full character through semistandard tableaux;
    # it never touches the signed Weyl sum
    for d, k in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]:
        for lam in partitions_of(d * k, 3):
            got = plethysm_multiplicity(d, k, Partition(lam))
            assert got == oracle_multiplicity(d, k, Partition(lam)), (d, k, lam)


def test_plethysm_size_mismatch_returns_zero():
    assert plethysm_multiplicity(3, 4, Partition((7, 4))) == 0
    assert plethysm_multiplicity(2, 2, Partition((5,))) == 0


def test_plethysm_rejects_bad_outer():
    with pytest.raises(ValueError):
        plethysm_multiplicity(0, 4, Partition((0,)))


def test_padding_invariance():
    for d, k, lam in [(2, 2, (2, 2)), (3, 2, (4, 2)), (2, 3, (4, 2)), (3, 4, (7, 5, 0))]:
        base = plethysm_multiplicity(d, k, Partition(lam))
        for extra in (1, 2):
            padded = Partition(tuple(lam) + (0,) * extra)
            assert plethysm_multiplicity(d, k, padded) == base


def test_multiplicity_equals_naive_signed_sum():
    # dual route: the pruned enumeration must equal the full n! signed sum;
    # the naive sum counts in len(lam.parts) variables, so for a lam written
    # with a zero it also checks the Gaussian rows against three variables
    for d, k, lam in [(2, 2, (2, 2)), (3, 2, (4, 2)), (2, 4, (4, 2, 2)), (3, 3, (5, 3, 1)),
                      (3, 4, (7, 5, 0)), (4, 3, (7, 5, 0)), (2, 3, (4, 2, 0))]:
        lam_p = Partition(lam)
        n = len(lam_p.parts)
        naive = sum(
            sign * weight_count(d, k, n, w) for sign, w in signed_weights(lam_p, n)
        )
        assert plethysm_multiplicity(d, k, lam_p) == naive


def test_written_zeros_match_oracle_sweep():
    # every d*k <= 12 and every lam with at most three nonzero parts, written
    # with 0, 1 and 2 trailing zeros, against the tableau oracle
    checks = 0
    for d in range(1, 13):
        for k in range(1, 12 // d + 1):
            for lam in partitions_of(d * k, 3):
                expected = oracle_multiplicity(d, k, Partition(lam))
                for extra in (0, 1, 2):
                    padded = Partition(tuple(lam) + (0,) * extra)
                    assert plethysm_multiplicity(d, k, padded) == expected, (d, k, padded)
                    checks += 1
    assert checks == 1065


def test_dimension_conservation_small():
    for n in (1, 2, 3):
        for d, k in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 5)]:
            total = 0
            for lam in partitions_of(d * k, n):
                lam_p = Partition(tuple(lam) + (0,) * (n - len(lam)))
                total += plethysm_multiplicity(d, k, lam_p) * weyl_dimension(lam_p, n)
            assert total == comb(comb(n + k - 1, k) + d - 1, d), (n, d, k)


def test_two_row_multiplicities_match_box_partition_counts():
    # classical: the multiplicity of (dk-r, r) in S^d(S^k) equals the number
    # of partitions of r in a d x k box minus the number for r-1
    def count_box(r, d, k):
        """Partitions of r into at most d parts, each at most k, enumerated."""
        if r < 0:
            return 0

        def rec(remaining, largest, parts_left):
            if remaining == 0:
                return 1
            if parts_left == 0:
                return 0
            return sum(
                rec(remaining - part, part, parts_left - 1)
                for part in range(min(remaining, largest), 0, -1)
            )

        return rec(r, k, d)

    for d in range(1, 6):
        for k in range(1, 6):
            total = d * k
            for r in range(0, total // 2 + 1):
                lam = Partition((total - r, r)) if r else Partition((total,))
                expected = count_box(r, d, k) - count_box(r - 1, d, k)
                assert plethysm_multiplicity(d, k, lam) == expected, (d, k, r)


def test_hermite_check_examples():
    assert hermite_check(3, 4, Partition((7, 5, 0)))
    assert hermite_check(5, 1, Partition((5,)))
    assert hermite_check(2, 2, Partition((2, 2)))


def test_hermite_fails_beyond_two_rows():
    # classical Hermite reciprocity is a binary-forms statement; this
    # three-row partition separates S^2(S^3) from S^3(S^2)
    assert plethysm_multiplicity(2, 3, Partition((2, 2, 2))) == 0
    assert plethysm_multiplicity(3, 2, Partition((2, 2, 2))) == 1
    assert not hermite_check(2, 3, Partition((2, 2, 2)))


def test_hermite_check_rejects_size_mismatch():
    with pytest.raises(ValueError):
        hermite_check(3, 4, Partition((7, 4)))


def test_multiplicities_never_negative_sweep():
    for d, k in [(2, 3), (3, 2), (2, 4), (3, 3)]:
        for lam in partitions_of(d * k):
            assert plethysm_multiplicity(d, k, Partition(lam)) >= 0


def test_two_variable_weight_count_matches_brute_force():
    for d in range(1, 7):
        for k in range(1, 7):
            for j in range(d * k + 1):
                mu = (d * k - j, j)
                assert weight_count(d, k, 2, mu) == brute_weight_count(d, k, 2, mu), (d, k, mu)


def test_two_row_closed_form_matches_three_variable_count():
    # a written zero part never changes the multiplicity
    for d in range(1, 13):
        for k in range(1, 12 // d + 1):
            total = d * k
            for b in range(total // 2 + 1):
                two = plethysm_multiplicity(d, k, Partition((total - b, b)))
                three = plethysm_multiplicity(d, k, Partition((total - b, b, 0)))
                assert two == three, (d, k, b)


@pytest.mark.parametrize("d,k,dtype", [(32, 33, "int64"), (33, 33, "object")])
def test_gaussian_rows_match_python_kernel_at_the_int64_bound(d, k, dtype):
    # comb(65, 32) < 2**62 <= comb(66, 33): the two sides of the kernel's
    # exactness bound, where it fills an int64 table and an object table
    assert (comb(d + k, d) >= 2**62) == (dtype == "object")
    contents = [(a,) for a in range(k + 1)]
    for j in (0, 1, 7, 100, 400, d * k // 2):
        expected = count_capped_multisets(contents, d, (j,))
        assert weight_count(d, k, 2, (d * k - j, j)) == expected, j
        assert weight_count(d, k, 2, (j, d * k - j)) == expected, j


def test_weight_count_returns_int_and_row_cache_is_bounded():
    for d, k in [(3, 4), (33, 33)]:
        assert type(weight_count(d, k, 2, (d * k - 5, 5))) is int
    assert type(weight_count(3, 4, 1, (12,))) is int
    # both two-row caches are keyed by a = min(d, k) and hold at most 64 keys
    for cache in (_partition_table, _signed_subset_counts):
        assert cache.cache_info().maxsize == 64
    for k in range(1, 101):
        weight_count(k, k, 2, (k * k - 1, 1))
    for cache in (_partition_table, _signed_subset_counts):
        assert cache.cache_info().currsize <= 64
    # one table holds at most twice the entries its largest query needs
    table = _PartitionTable(3)
    assert len(table.upto(10)) == 11
    assert len(table.upto(11)) == 22
    assert len(table.upto(21)) == 22
    assert len(table.upto(100)) == 101
    assert table.upto(12)[12] == 19  # partitions of 12 into parts 1, 2, 3


@pytest.mark.parametrize("d,k,dtype", [(32, 33, "int64"), (33, 33, "object")])
def test_two_row_closed_form_matches_kernel_difference_at_the_int64_bound(d, k, dtype):
    # the multiplicity of (dk - j, j) is one difference of Gaussian-binomial
    # coefficients; the kernel counts each coefficient independently, on every
    # j of the half row, with an int64 table at (32, 33) and an object one at (33, 33)
    contents = [(a,) for a in range(k + 1)]
    counts = [count_capped_multisets(contents, d, (j,)) for j in range(d * k // 2 + 1)]
    top = plethysm_multiplicity(d, k, Partition((d * k,)))
    assert type(top) is int and top == counts[0] == 1
    for j in range(1, d * k // 2 + 1):
        got = plethysm_multiplicity(d, k, Partition((d * k - j, j)))
        assert type(got) is int, j
        assert got == counts[j] - counts[j - 1], j


@pytest.mark.parametrize("d,k", [(40, 3), (3, 40), (2, 500), (500, 2)])
def test_two_row_counts_match_kernel_when_d_and_k_differ(d, k):
    # the closed form sums over subsets of {1..min(d, k)}: both orders of
    # (d, k) must give the kernel's count of partitions of j in a d x k box
    contents = [(a,) for a in range(k + 1)]
    for j in (0, 1, d * k // 4, d * k // 2):
        expected = count_capped_multisets(contents, d, (j,))
        assert weight_count(d, k, 2, (d * k - j, j)) == expected, j
        assert weight_count(k, d, 2, (d * k - j, j)) == expected, j


def test_long_two_row_ray_matches_kernel_differences():
    # m^{7,2s}_{s(8,6)} for s <= 120: one partition table of parts <= 7 serves
    # every point, against two kernel counts per point
    samples = sample_ray(RaySpec(OUTER, 7, 2, Partition((8, 6))), 120)
    assert samples[0] == 1
    for s in range(1, 121):
        contents = [(a,) for a in range(2 * s + 1)]
        upper = count_capped_multisets(contents, 7, (6 * s,))
        lower = count_capped_multisets(contents, 7, (6 * s - 1,))
        assert samples[s] == upper - lower, s
