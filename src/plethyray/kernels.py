"""The capped-multiset counting kernel.

The one hot loop in this package counts the size-d multisets of integer
content vectors that sum to ``caps``: a dynamic program with one table per
multiset size, each packed into one exact Python integer (Kronecker packing).

No cell can exceed comb(len(usable) + d - 1, d), so a cell is a digit of w
bits, that count's bit length, and adding tables never carries.  Cell x sits
at digit sum(x_i * stride_i): coordinate i has radix 2 * caps_i + 1, the last
one caps_last + 1.  A usable content m gives x_i + m_i <= 2 * caps_i, so its
shift never carries into the next coordinate (the last one lands past the
table), and a mask of the cells x <= caps drops every cell past a cap.  Size
d is never stored: each content adds the one size-(d - 1) digit it completes.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import mul


def _dp(contents: list[tuple[int, ...]], d: int, caps: tuple[int, ...]) -> int:
    w = comb(len(contents) + d - 1, d).bit_length()
    strides = list(accumulate((2 * c + 1 for c in caps[:-1]), mul, initial=1))
    mask = (1 << w * (caps[0] + 1)) - 1
    for c, stride in zip(caps[1:], strides[1:]):
        mask = sum(mask << w * stride * x for x in range(c + 1))
    top = w * sum(map(mul, caps, strides))
    digit = (1 << w) - 1
    tables = [1] + [0] * (d - 1)  # tables[j]: multisets of size j, packed
    count = 0
    for m in contents:
        shift = w * sum(map(mul, m, strides))
        for j in range(1, d):
            tables[j] += (tables[j - 1] << shift) & mask
        count += (tables[-1] >> top - shift) & digit
    return count


def count_capped_multisets(
    contents: list[tuple[int, ...]], d: int, caps: tuple[int, ...]
) -> int:
    """Number of size-d multisets from ``contents`` summing exactly to ``caps``.

    ``contents`` entries and ``caps`` must be nonnegative and every content
    must have ``len(caps)`` entries; entries exceeding the caps can never be
    used and are dropped up front.
    """
    if d < 0:
        raise ValueError("multiset size must be nonnegative")
    if any(c < 0 for c in caps):
        raise ValueError("caps must be nonnegative")
    if any(len(m) != len(caps) for m in contents):
        raise ValueError("every content must have one entry per cap")
    if any(mi < 0 for m in contents for mi in m):
        raise ValueError("contents entries must be nonnegative")
    usable = [m for m in contents if all(mi <= ci for mi, ci in zip(m, caps))]
    if d == 0:
        return 1 if all(c == 0 for c in caps) else 0
    if not usable:
        return 0
    if not caps:
        # no tracked coordinates: every multiset qualifies
        return comb(len(usable) + d - 1, d)
    return _dp(usable, d, caps)
