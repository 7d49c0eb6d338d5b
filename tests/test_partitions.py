import pytest
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

from plethyray import Partition, scale
from plethyray.partitions import iter_nonnegative_signed_weights

from oracle_utils import naive_signed_weights, weyl_dimension


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


def test_partition_rejects_non_integer_parts():
    # a float or a string part is refused, not truncated or parsed into a
    # different partition; Partition.parse keeps its ValueError
    for parts in [(7.9, 5), (7.0, 5), ("7", "5"), (Fraction(7), 5)]:
        with pytest.raises(TypeError):
            Partition(parts)
    with pytest.raises(ValueError, match="malformed partition string"):
        Partition.parse("7.9,5")


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


def test_signed_weights_n1():
    assert naive_signed_weights((1,), 1) == [(1, (1,))]


def test_signed_weights_n2_hand_derived():
    # identity keeps (1,0); the transposition sends lam+rho = (2,0) to (0,2),
    # and subtracting rho = (1,0) gives (-1,2) with sign -1
    got = naive_signed_weights((1, 0), 2)
    assert got == [(1, (1, 0)), (-1, (-1, 2))]


def test_signed_weights_counts_and_sign_balance():
    for lam, n in [((2, 1, 0), 3), ((3, 1), 4), ((2, 2), 2)]:
        got = naive_signed_weights(lam, n)
        assert len(got) == factorial(n)
        if n >= 2:
            assert sum(sign for sign, _ in got) == 0


def test_signed_weights_rejects_truncation():
    with pytest.raises(ValueError):
        naive_signed_weights((2, 1), 1)


def test_pruned_enumeration_matches_naive_filter():
    # the plethysm engine's pruned iterator must equal the naive n! list
    # with the negative-entry terms dropped
    for lam, n in [((2, 1, 0), 3), ((7, 5, 0), 3), ((3, 1), 2), ((2, 2, 1, 1), 4), ((4,), 3)]:
        naive = [
            sw for sw in naive_signed_weights(lam, n)
            if all(entry >= 0 for entry in sw[1])
        ]
        pruned = list(iter_nonnegative_signed_weights(Partition(lam), n))
        assert sorted(pruned) == sorted(naive)


def test_weyl_terms_match_naive_filter_exhaustively():
    # every partition with parts <= 7 in n <= 6 variables, zeros included
    checked = 0
    for n in range(1, 7):
        for parts in combinations_with_replacement(range(7, -1, -1), n):
            lam = Partition(parts)
            naive = [
                sw for sw in naive_signed_weights(parts, n)
                if all(entry >= 0 for entry in sw[1])
            ]
            assert sorted(iter_nonnegative_signed_weights(lam, n)) == sorted(naive), (parts, n)
            checked += 1
    assert checked == 3002


def test_all_ones_in_ten_variables_keeps_two_to_the_ninth_terms():
    # 10! permutations, but position i can take only the index j <= i + 1,
    # so the survivors are the products of cycles (a a+1 ... b) on the
    # blocks of a composition of 10: each block of length L gives the
    # entries 0, ..., 0, L and the sign (-1)^(L - 1)
    expected = []
    for cuts in range(2**9):
        blocks, length = [], 1
        for i in range(9):
            if cuts >> i & 1:
                blocks.append(length)
                length = 1
            else:
                length += 1
        blocks.append(length)
        weight = tuple(entry for L in blocks for entry in (0,) * (L - 1) + (L,))
        expected.append(((-1) ** (10 - len(blocks)), weight))
    terms = iter_nonnegative_signed_weights(Partition((1,) * 10), 10)
    assert len(terms) == 2**9
    assert sorted(terms) == sorted(expected)


def test_weyl_dimension_examples():
    assert weyl_dimension((1, 0), 2) == 2
    assert weyl_dimension((2, 0), 2) == 3
    assert weyl_dimension((1, 1), 2) == 1


def test_weyl_dimension_binomial_identity():
    for n in range(1, 5):
        for k in range(1, 7):
            assert weyl_dimension((k,) + (0,) * (n - 1), n) == comb(n + k - 1, k)


def test_weyl_dimension_rejects_too_many_rows():
    with pytest.raises(ValueError):
        weyl_dimension((2, 1, 1), 2)
