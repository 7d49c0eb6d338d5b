import pytest
from itertools import combinations_with_replacement
from math import comb, factorial

from plethyray import Partition, rho, scale, signed_weights, weyl_dimension
from plethyray.partitions import _surviving_permutations, iter_nonnegative_signed_weights


def test_scale_theorem_ray():
    assert scale(Partition((7, 5, 0)), 2).parts == (14, 10, 0)


def test_scale_trivia():
    assert scale(Partition((3, 1)), 0).parts == (0, 0)
    assert scale(Partition((2, 2)), 3).parts == (6, 6)


def test_scale_rejects_negative():
    with pytest.raises(ValueError):
        scale(Partition((2, 1)), -1)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partition_parse_and_str():
    lam = Partition.parse("7,5,0")
    assert lam.parts == (7, 5, 0)
    assert str(lam) == "7,5,0"
    with pytest.raises(ValueError):
        Partition.parse("7,,5")
    with pytest.raises(ValueError):
        Partition.parse("a,b")


def test_partition_equality_ignores_trailing_zeros():
    assert Partition((7, 5, 0)) == Partition((7, 5))
    assert hash(Partition((7, 5, 0))) == hash(Partition((7, 5)))
    assert Partition((7, 5, 0)).parts != Partition((7, 5)).parts


def test_rho():
    assert rho(3) == (2, 1, 0)
    assert rho(1) == (0,)
    assert rho(4) == (3, 2, 1, 0)
    with pytest.raises(ValueError):
        rho(0)


def test_signed_weights_n1():
    assert signed_weights(Partition((1,)), 1) == [(1, (1,))]


def test_signed_weights_n2_hand_derived():
    # identity keeps (1,0); the transposition sends lam+rho = (2,0) to (0,2),
    # and subtracting rho = (1,0) gives (-1,2) with sign -1
    got = signed_weights(Partition((1, 0)), 2)
    assert got == [(1, (1, 0)), (-1, (-1, 2))]


def test_signed_weights_counts_and_sign_balance():
    for lam, n in [((2, 1, 0), 3), ((3, 1), 4), ((2, 2), 2)]:
        got = signed_weights(Partition(lam), n)
        assert len(got) == factorial(n)
        if n >= 2:
            assert sum(sign for sign, _ in got) == 0


def test_signed_weights_rejects_truncation():
    with pytest.raises(ValueError):
        signed_weights(Partition((2, 1)), 1)


def test_pruned_enumeration_matches_naive_filter():
    # the plethysm engine's pruned iterator must equal the naive n! list
    # with the negative-entry terms dropped
    for lam, n in [((2, 1, 0), 3), ((7, 5, 0), 3), ((3, 1), 2), ((2, 2, 1, 1), 4), ((4,), 3)]:
        naive = [
            sw for sw in signed_weights(Partition(lam), n)
            if all(entry >= 0 for entry in sw.weight)
        ]
        pruned = list(iter_nonnegative_signed_weights(Partition(lam), n))
        assert sorted(pruned) == sorted(naive)


def test_cached_weyl_terms_match_naive_filter_exhaustively():
    # every partition with parts <= 7 in n <= 6 variables, zeros included
    checked = 0
    for n in range(1, 7):
        for parts in combinations_with_replacement(range(7, -1, -1), n):
            lam = Partition(parts)
            naive = [
                sw for sw in signed_weights(lam, n)
                if all(entry >= 0 for entry in sw.weight)
            ]
            assert sorted(iter_nonnegative_signed_weights(lam, n)) == sorted(naive), (parts, n)
            checked += 1
    assert checked == 3002


def test_weyl_term_cache_is_bounded():
    for n in range(1, 6):
        for parts in combinations_with_replacement(range(9, -1, -1), n):
            list(iter_nonnegative_signed_weights(Partition(parts), n))
    info = _surviving_permutations.cache_info()
    assert info.maxsize == 256 and info.currsize <= 256
    # parts at or above n - 1 share one pattern: (9, 8) and (1, 1) hit the same entry
    before = _surviving_permutations.cache_info().hits
    list(iter_nonnegative_signed_weights(Partition((9, 8)), 2))
    list(iter_nonnegative_signed_weights(Partition((1, 1)), 2))
    assert _surviving_permutations.cache_info().hits >= before + 2


def test_weyl_dimension_examples():
    assert weyl_dimension(Partition((1, 0)), 2) == 2
    assert weyl_dimension(Partition((2, 0)), 2) == 3
    assert weyl_dimension(Partition((1, 1)), 2) == 1


def test_weyl_dimension_binomial_identity():
    for n in range(1, 5):
        for k in range(1, 7):
            lam = Partition((k,) + (0,) * (n - 1))
            assert weyl_dimension(lam, n) == comb(n + k - 1, k)


def test_weyl_dimension_rejects_too_many_rows():
    with pytest.raises(ValueError):
        weyl_dimension(Partition((2, 1, 1)), 2)
