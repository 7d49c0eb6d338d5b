import pytest
from itertools import accumulate, product
from math import comb

from plethyray import (
    Partition,
    inner_monomial_contents,
    plethysm_multiplicity,
    weight_count,
)
from plethyray.kernels import count_capped_multisets
from plethyray.plethysm import _PartitionTable, _partition_table, two_row_multiplicity
from plethyray.rays import OUTER, RaySpec, sample_ray
from oracle_utils import (
    brute_partition_pairs,
    brute_weight_count,
    naive_signed_weights,
    oracle_multiplicity,
    partitions_of,
    weyl_dimension,
)


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
    # covers the d=2 pair count and the kernel (n = 1, 2, 3) on one sweep
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
            sign * weight_count(d, k, n, w) for sign, w in naive_signed_weights(lam_p.parts, n)
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
    for n in (1, 2, 3, 4):
        for d, k in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 5)]:
            total = 0
            for lam in partitions_of(d * k, n):
                lam_p = Partition(tuple(lam) + (0,) * (n - len(lam)))
                total += plethysm_multiplicity(d, k, lam_p) * weyl_dimension(lam_p.parts, n)
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
    # Hermite reciprocity: m^{d,k}_lam = m^{k,d}_lam
    for d, k, lam in [(3, 4, (7, 5, 0)), (5, 1, (5,)), (2, 2, (2, 2))]:
        lam_p = Partition(lam)
        assert plethysm_multiplicity(d, k, lam_p) == plethysm_multiplicity(k, d, lam_p), lam


def test_hermite_fails_beyond_two_rows():
    # classical Hermite reciprocity is a binary-forms statement; this
    # three-row partition separates S^2(S^3) from S^3(S^2)
    lam = Partition((2, 2, 2))
    assert plethysm_multiplicity(2, 3, lam) == 0
    assert plethysm_multiplicity(3, 2, lam) == 1


def test_multiplicities_never_negative_sweep():
    for d, k in [(2, 3), (3, 2), (2, 4), (3, 3)]:
        for lam in partitions_of(d * k):
            assert plethysm_multiplicity(d, k, Partition(lam)) >= 0


def test_outer_power_of_the_standard_representation_is_one_row():
    # S^d(S^1) = S^d: every lam of d <= 9 but (d) has multiplicity 0, and the
    # Weyl sum runs in up to 9 variables, where the n! list is 362,880 terms
    for d in range(1, 10):
        for lam in partitions_of(d):
            expected = 1 if lam == (d,) else 0
            assert plethysm_multiplicity(d, 1, Partition(lam)) == expected, lam


def test_outer_power_has_at_most_d_rows():
    # S^d(S^k) sits inside the d-th tensor power of S^k, so no constituent has
    # more than d rows: 212 partitions of dk <= 10 with more than d parts, for
    # d <= 3; at d = 2 they are the pair-count route, where the Weyl sum must
    # cancel to 0
    cases = 0
    for d in (1, 2, 3):
        for k in range(1, 10 // d + 1):
            for lam in partitions_of(d * k):
                if len(lam) > d:
                    assert plethysm_multiplicity(d, k, Partition(lam)) == 0, (d, k, lam)
                    cases += 1
    assert cases == 212


def test_pair_weight_count_matches_brute_force_in_three_and_four_variables():
    # d = 2 in n >= 3 variables is the pair count; it folds ordered pairs with
    # (ordered + 1) // 2, so mu whose odd entries all lie past the first two
    # coordinates (no diagonal pair, although mu[:2] is even) must be covered
    late_odd = 0
    for n in (3, 4):
        for k in range(6):
            for mu in product(range(2 * k + 1), repeat=n):
                if sum(mu) != 2 * k:
                    continue
                odd = [m % 2 for m in mu]
                late_odd += not any(odd[:2]) and any(odd)
                assert weight_count(2, k, n, mu) == brute_weight_count(2, k, n, mu), mu
    assert late_odd == 70


def test_two_row_multiplicity_matches_oracle():
    cases = 0
    for d in range(1, 13):
        for k in range(1, 12 // d + 1):
            for j in range(d * k // 2 + 1):
                lam = Partition((d * k - j, j))
                assert two_row_multiplicity(d, k, j) == oracle_multiplicity(d, k, lam), (d, k, j)
                cases += 1
    assert cases == 161


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


def two_row_partial_sums(d, k):
    """Sums over i <= j of two_row_multiplicity(d, k, i), for j <= d*k/2.

    By Cayley-Sylvester each is [q^j] of [d+k choose d]_q: the partitions of
    j in a d x k box, which the kernel counts as capped one-variable multisets.
    """
    return list(accumulate(two_row_multiplicity(d, k, i) for i in range(d * k // 2 + 1)))


def test_weight_count_returns_int_and_row_cache_is_bounded():
    for d, k in [(3, 4), (33, 33)]:
        assert type(two_row_multiplicity(d, k, 5)) is int
        assert type(weight_count(d, k, 2, (d * k - 5, 5))) is int
    assert type(weight_count(3, 4, 1, (12,))) is int
    # the one two-row cache is keyed by a = min(d, k) and holds at most 64 keys
    assert _partition_table.cache_info().maxsize == 64
    for k in range(1, 101):
        two_row_multiplicity(k, k, 1)
    assert _partition_table.cache_info().currsize <= 64
    # one row holds at most twice the entries its largest query needs
    table = _PartitionTable(3)
    assert len(table.row(0, 10)) == 11
    assert len(table.row(0, 11)) == 22
    assert len(table.row(0, 21)) == 22
    assert len(table.row(0, 100)) == 101
    assert table.row(0, 12)[12] == 19  # partitions of 12 into parts 1, 2, 3


def test_partition_pair_rows_match_brute_force():
    for a in range(9):
        table = _PartitionTable(a)
        for t in range(a // 2 + 1):
            row = table.row(t, 24)
            for m in range(25):
                assert row[m] == brute_partition_pairs(t, a - t, m), (a, t, m)


def test_two_row_rows_grow_only_as_far_as_read(monkeypatch):
    _partition_table.cache_clear()
    assert two_row_multiplicity(150, 150, 1) == 0
    table = _partition_table(150)
    assert len(table.rows[0]) == 2
    assert all(row == [] for row in table.rows[1:])
    # m^{12,s}_{s(6,6)} keeps a = 12 at every s, so the ray reads rows 0..5
    # of that one table, each row once and exactly as far as its last point
    reads: dict[tuple[int, int], list[int]] = {}
    read = _PartitionTable.row

    def spy(self, t, m):
        reads.setdefault((self.a, t), []).append(m)
        return read(self, t, m)

    _partition_table.cache_clear()
    monkeypatch.setattr(_PartitionTable, "row", spy)
    sample_ray(RaySpec(OUTER, 12, 1, Partition((6, 6))), 300)
    assert reads == {(12, t): [(6 - t) * 300 - t * (t + 1) // 2] for t in range(6)}
    for (a, t), (m,) in reads.items():
        assert len(_partition_table(a).rows[t]) == m + 1, (a, t, m)


def test_two_row_ray_matches_point_queries():
    # a ray keeps a = d (outer) or a = k (inner) at every s, while a point
    # query takes a = min of its two powers; they differ where the scaled
    # power is the smaller one at small s.  The inner ray of (d, k) makes the
    # point queries of the outer ray of (k, d), so each list is built once
    rays = [RaySpec(mode, d, k, Partition((d * k - j, j)))
            for d in range(1, 49) for k in range(1, 48 // d + 1)
            for j in range(1, d * k // 2 + 1) for mode in (OUTER, "inner")]
    for mode, d, k in [(OUTER, 12, 1), (OUTER, 6, 2), ("inner", 2, 6)]:
        assert RaySpec(mode, d, k, Partition((d * k // 2,) * 2)) in rays
        assert (k if mode == OUTER else d) < (d if mode == OUTER else k)
    points: dict[tuple[int, int, int], list[int]] = {}
    for spec in rays:
        d, k, j = spec.d, spec.k, spec.lam.parts[1]
        a, step = (d, k) if spec.mode == OUTER else (k, d)
        if (a, step, j) not in points:
            points[a, step, j] = [1] + [
                two_row_multiplicity(a, s * step, s * j) for s in range(1, 41)]
        assert sample_ray(spec, 40) == points[a, step, j], spec
    assert len(points) * 2 == len(rays) == 5368


@pytest.mark.parametrize("d,k", [(32, 33), (33, 33)])
def test_two_row_closed_form_matches_kernel_difference_around_2_to_the_62(d, k):
    # comb(65, 32) < 2**62 <= comb(66, 33): the kernel's cell bound on either
    # side of 2**62, where its packed digits are 62 and 63 bits wide.  The
    # multiplicity of (dk - j, j) is one difference of Gaussian-binomial
    # coefficients, in either order of (d, k); the kernel counts each
    # coefficient independently, on every j of the half row
    assert (comb(d + k, d) >= 2**62) == (d == 33)
    contents = [(a,) for a in range(k + 1)]
    counts = [count_capped_multisets(contents, d, (j,)) for j in range(d * k // 2 + 1)]
    assert counts[0] == 1
    for j in range(d * k // 2 + 1):
        lam = Partition((d * k - j, j))
        expected = counts[j] - counts[j - 1] if j else counts[0]
        for got in (plethysm_multiplicity(d, k, lam), plethysm_multiplicity(k, d, lam)):
            assert type(got) is int, j
            assert got == expected, j


@pytest.mark.parametrize("d,k", [(40, 3), (3, 40), (2, 500), (500, 2)])
def test_two_row_counts_match_kernel_when_d_and_k_differ(d, k):
    # the closed form sums over subsets of {1..min(d, k)}: both orders of
    # (d, k) must give the kernel's count of partitions of j in a d x k box
    contents = [(a,) for a in range(k + 1)]
    sums, swapped = two_row_partial_sums(d, k), two_row_partial_sums(k, d)
    for j in (0, 1, d * k // 4, d * k // 2):
        expected = count_capped_multisets(contents, d, (j,))
        assert sums[j] == expected, j
        assert swapped[j] == expected, j


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
