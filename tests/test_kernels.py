import random

import pytest
from itertools import combinations_with_replacement
from math import comb

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


def dense_table(contents, d, caps):
    # the recurrence the kernel ran on a numpy table before its tables were
    # packed into integers, written out one cell at a time
    usable = [m for m in contents if all(mi <= ci for mi, ci in zip(m, caps))]
    tables = [{(0,) * len(caps): 1}] + [{} for _ in range(d)]
    for m in usable:
        for j in range(1, d + 1):
            for x, n in tables[j - 1].items():
                y = tuple(xi + mi for xi, mi in zip(x, m))
                if all(yi <= ci for yi, ci in zip(y, caps)):
                    tables[j][y] = tables[j].get(y, 0) + n
    return tables[d].get(tuple(caps), 0)


# The ids name the two tables the kernel filled before packing: "python"
# checks the packed kernel against brute-force enumeration, "numpy" against
# the unpacked dense-table recurrence, so a layout fault shows on its own.
REFERENCES = [pytest.param(brute, id="python"), pytest.param(dense_table, id="numpy")]


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("contents,d,caps", CASES)
def test_backends_match_brute_force(reference, contents, d, caps):
    expected = brute(contents, d, caps)
    assert reference(contents, d, caps) == expected
    assert count_capped_multisets(contents, d, caps) == expected


@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("n_caps", [1, 2, 3])
def test_kernel_matches_brute_force_on_seeded_cases(n_caps, d):
    # 67 seeded cases per cell, aimed at the packed table's corners: zero caps
    # (radix 1), contents equal to a cap (the largest shift that stays inside
    # a coordinate) and the last coordinate (radix cap + 1, so a shift runs
    # past the end of the table)
    rng = random.Random(1000 * n_caps + d)
    for case in range(67):
        caps = tuple(rng.choice((0, 0, 1, 2, 3, 4, 5, 6)) for _ in range(n_caps))
        contents = [tuple(rng.randint(0, c + 1) for c in caps)
                    for _ in range(rng.randint(1, 5))]
        contents.append(tuple(caps))
        if rng.random() < 0.5:
            contents.append((0,) * len(caps))
        rng.shuffle(contents)
        assert count_capped_multisets(contents, d, caps) == brute(contents, d, caps), (
            case, contents, d, caps)


def test_empty_caps_counts_all_multisets():
    assert count_capped_multisets([(), (), ()], 4, ()) == comb(3 + 4 - 1, 4)


def test_d_zero():
    assert count_capped_multisets([(1,)], 0, (0,)) == 1
    assert count_capped_multisets([(1,)], 0, (2,)) == 0


def test_unusable_contents_dropped():
    # entries exceeding caps can never appear in a valid multiset
    assert count_capped_multisets([(5,), (1,)], 2, (2,)) == 1


def test_wide_cells_stay_exact_at_zero_caps():
    # 400 copies of the zero vector at multiset size 40: every multiset
    # qualifies, and each cell needs far more than 64 bits
    contents = [(0,)] * 400
    expected = comb(400 + 40 - 1, 40)
    assert expected >= 2**62
    assert count_capped_multisets(contents, 40, (0,)) == expected


def test_wide_cells_stay_exact_at_a_nonzero_cap():
    # the (1,) once and 39 of the 400 zero vectors: comb(400 + 39 - 1, 39)
    # multisets, a 186-bit count in a two-cell table
    contents = [(0,)] * 400 + [(1,)]
    expected = comb(438, 39)
    assert expected.bit_length() == 186
    assert count_capped_multisets(contents, 40, (1,)) == expected


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        count_capped_multisets([(1,)], -1, (1,))
    with pytest.raises(ValueError):
        count_capped_multisets([(1,)], 1, (-1,))


def test_rejects_contents_of_another_length():
    # a content is a point with one entry per cap; zipping a longer or
    # shorter one against the caps would count the wrong thing
    with pytest.raises(ValueError):
        count_capped_multisets([(1, 2, 3)], 1, (1, 2))
    with pytest.raises(ValueError):
        count_capped_multisets([(1, 2), (1,)], 1, (1, 2))
    with pytest.raises(ValueError):
        count_capped_multisets([(0,)], 0, ())
