"""The capped-multiset counting kernel.

The one hot loop in this package: count multisets of a fixed size d, drawn
with repetition from a list of integer content vectors, whose coordinatewise
sum equals a target vector.  It is a dynamic program over a numpy table, one
axis for the multiset size and one per tracked coordinate, filled by
vectorized shifted adds.

No cell can exceed the number of size-d multisets of the usable contents,
comb(len(usable) + d - 1, d).  Below 2**62 the table is int64; otherwise it
has dtype object, so every cell is an exact Python integer.  Results are
exact either way.

numpy is imported on the first DP call, not with the module: every query
with at most two nonzero parts, and every command that counts no weight
space in three or more variables, runs without it.
"""

from __future__ import annotations

from math import comb

_INT64_SAFE = 2**62


def _dp(contents: list[tuple[int, ...]], d: int, caps: tuple[int, ...]) -> int:
    import numpy as np

    dtype = np.int64 if comb(len(contents) + d - 1, d) < _INT64_SAFE else object
    shape = (d + 1,) + tuple(c + 1 for c in caps)
    table = np.zeros(shape, dtype=dtype)
    table[(0,) * len(shape)] = 1
    for m in contents:
        dst = tuple(slice(mi, None) for mi in m)
        src = tuple(slice(0, c + 1 - mi) for c, mi in zip(caps, m))
        for j in range(1, d + 1):
            table[(j,) + dst] += table[(j - 1,) + src]
    return int(table[(d,) + caps])


def count_capped_multisets(
    contents: list[tuple[int, ...]], d: int, caps: tuple[int, ...]
) -> int:
    """Number of size-d multisets from ``contents`` summing exactly to ``caps``.

    ``contents`` entries and ``caps`` must be nonnegative; entries exceeding
    the caps can never be used and are dropped up front.
    """
    if d < 0:
        raise ValueError("multiset size must be nonnegative")
    if any(c < 0 for c in caps):
        raise ValueError("caps must be nonnegative")
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
