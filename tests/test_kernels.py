import pytest
from itertools import combinations_with_replacement
from math import comb

from plethyray import kernels
from plethyray.kernels import count_capped_multisets


def brute(contents, d, caps):
    total = 0
    for combo in combinations_with_replacement(range(len(contents)), d):
        sums = [0] * len(caps)
        for idx in combo:
            for i, v in enumerate(contents[idx]):
                sums[i] += v
        if tuple(sums) == tuple(caps):
            total += 1
    return total


CASES = [
    ([(2,), (1,), (0,)], 2, (2,)),
    ([(2,), (1,), (0,)], 3, (4,)),
    ([(2, 0), (1, 1), (0, 2), (0, 0)], 3, (2, 2)),
    ([(3, 0), (2, 1), (1, 2), (0, 3), (1, 0)], 4, (5, 4)),
    ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 4, (3, 3, 2)),
    ([(0,)], 5, (0,)),
    ([(2, 2)], 3, (6, 6)),
]


# The kernel fills an int64 table ("numpy") below its overflow bound and a
# table of exact Python ints ("python") above it; a zero bound forces the
# second table on every case.
TABLES = ["python", "numpy"]


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("contents,d,caps", CASES)
def test_backends_match_brute_force(table, contents, d, caps, monkeypatch):
    if table == "python":
        monkeypatch.setattr(kernels, "_INT64_SAFE", 0)
    assert count_capped_multisets(contents, d, caps) == brute(contents, d, caps)


def test_empty_caps_counts_all_multisets():
    assert count_capped_multisets([(), (), ()], 4, ()) == comb(3 + 4 - 1, 4)


def test_d_zero():
    assert count_capped_multisets([(1,)], 0, (0,)) == 1
    assert count_capped_multisets([(1,)], 0, (2,)) == 0


def test_unusable_contents_dropped():
    # entries exceeding caps can never appear in a valid multiset
    assert count_capped_multisets([(5,), (1,)], 2, (2,)) == 1


def test_overflow_guard_routes_to_python():
    # 400 contents at multiset size 40 overflows the int64 cell bound, so the
    # kernel must fill an exact object table; the answer is the number of
    # multisets of size 40 from 400 copies of the zero vector
    contents = [(0,)] * 400
    expected = comb(400 + 40 - 1, 40)
    assert expected >= 2**62  # the guard really is exercised
    assert count_capped_multisets(contents, 40, (0,)) == expected


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        count_capped_multisets([(1,)], -1, (1,))
    with pytest.raises(ValueError):
        count_capped_multisets([(1,)], 1, (-1,))
