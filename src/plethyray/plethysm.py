"""Multiplicities of irreducibles in symmetric powers of symmetric powers.

The multiplicity of the irreducible labelled by a partition lam inside
S^d(S^k C^n) is computed as the alternating sum, over the Weyl group, of
dimensions of weight spaces:

    m = sum over w in S_n of  sgn(w) * dim weightspace(w(lam+rho) - rho)

and each weight-space dimension is the number of size-d multisets of degree-k
monomial contents with the prescribed coordinate sum.  For every n at least
the number of nonzero parts of lam this is the same stable plethysm
coefficient, so plethysm_multiplicity takes n equal to that number.

In one or two variables the weight spaces have closed forms.  With one
variable the only weight of the right total is (d*k), of dimension 1.  With
two, the dimension of the (d*k - j, j) weight space is the number of
partitions of j into at most d parts of size at most k, the coefficient of
q^j in the Gaussian binomial [d+k choose d]_q; its rows are built once per
(d, k) and cached.  The Weyl sum in two variables then collapses to one
difference of that row (Cayley-Sylvester): the multiplicity of (d*k - j, j)
is [q^j] - [q^(j-1)], and of (d*k) it is [q^0] = 1.  So plethysm_multiplicity
answers every lam with at most two nonzero parts from the cached row without
a weight-space count, and only lam with three or more parts takes the Weyl
sum.  Wider weights go to the pair-count closed form (d = 2) or the
capped-multiset kernel.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .kernels import _INT64_SAFE, count_capped_multisets
from .partitions import (
    Partition,
    WeightVector,
    iter_nonnegative_signed_weights,
)


def inner_monomial_contents(k: int, n: int) -> list[WeightVector]:
    """Exponent vectors of the degree-k monomials in n variables, lex decreasing."""
    if n < 1:
        raise ValueError("need at least one variable")
    if k < 0:
        raise ValueError("degree must be nonnegative")

    def gen(rest: int, slots: int):
        if slots == 1:
            yield (rest,)
            return
        for first in range(rest, -1, -1):
            for tail in gen(rest - first, slots - 1):
                yield (first,) + tail

    return list(gen(k, n))


def _pair_weight_count(k: int, mu: WeightVector) -> int:
    """Multisets of two degree-k contents summing to mu (mu >= 0, |mu| = 2k).

    Ordered pairs (m, mu-m) are counted by a small per-coordinate DP, then
    folded to unordered pairs.
    """
    ways = [0] * (k + 1)
    ways[0] = 1
    for cap in mu:
        nxt = [0] * (k + 1)
        for partial, cnt in enumerate(ways):
            if cnt == 0:
                continue
            for take in range(0, min(cap, k - partial) + 1):
                nxt[partial + take] += cnt
        ways = nxt
    ordered = ways[k]
    diagonal = 1 if all(m % 2 == 0 for m in mu) else 0
    return (ordered + diagonal) // 2


@lru_cache(maxsize=128)
def _gaussian_half_row(d: int, k: int) -> np.ndarray:
    """Coefficients of q^0..q^(dk//2) in the Gaussian binomial [d+k choose d]_q.

    The product of (1 - q^(k+i)) / (1 - q^i) over i = 1..d, truncated at the
    middle of the symmetric row: each factor is a shifted subtraction followed
    by a prefix sum of stride i.  Every partial product is a Gaussian
    binomial [k+i choose i]_q, so no intermediate exceeds comb(d+k, d) in
    absolute value and int64 is exact below the kernel's 2**62 bound; larger
    rows are kept as exact Python integers.
    """
    size = d * k // 2 + 1
    dtype = np.int64 if comb(d + k, d) < _INT64_SAFE else object
    row = np.zeros(size, dtype=dtype)
    row[0] = 1
    for i in range(1, d + 1):
        shift = k + i
        if shift < size:
            row[shift:] = row[shift:] - row[: size - shift]
        # a column of the (-1, i) reshape is one residue class mod i
        padded = np.concatenate((row, np.zeros(-size % i, dtype=dtype)))
        row = np.cumsum(padded.reshape(-1, i), axis=0).ravel()[:size]
    row.flags.writeable = False  # shared by every caller through the cache
    return row


def weight_count(d: int, k: int, n: int, mu: WeightVector) -> int:
    """Dimension of the mu-weight space of S^d(S^k C^n).

    Negative entries or a wrong total simply give 0; the alternating Weyl sum
    relies on that convention.  One and two variables take closed forms (see
    the module docstring) and never reach the kernel.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if len(mu) != n:
        raise ValueError(f"weight {mu} does not have length {n}")
    if d < 0 or k < 0:
        raise ValueError("d and k must be nonnegative")
    if any(m < 0 for m in mu) or sum(mu) != d * k:
        return 0
    if d == 0 or d == 1:
        return 1  # empty multiset, or mu itself is the single content
    if n == 1:
        return 1  # d copies of the single content (k,)
    if n == 2:
        return int(_gaussian_half_row(d, k)[min(mu)])
    if d == 2:
        return _pair_weight_count(k, mu)
    # One coordinate is redundant (contents all have total k); dropping the
    # largest cap keeps the DP table smallest.
    drop = max(range(n), key=lambda i: mu[i])
    caps = tuple(m for i, m in enumerate(mu) if i != drop)
    contents = [
        tuple(c for i, c in enumerate(mono) if i != drop)
        for mono in inner_monomial_contents(k, n)
    ]
    return count_capped_multisets(contents, d, caps)


def plethysm_multiplicity(d: int, k: int, lam: Partition) -> int:
    """The multiplicity of S^lam in S^d(S^k); 0 whenever |lam| != d*k.

    The multiplicity in S^d(S^k C^n) is the same for every n >= l(lam), the
    number of nonzero parts of lam (Macdonald, Symmetric Functions and Hall
    Polynomials, I.8), so written zeros of lam never change the result.  A
    lam with at most two nonzero parts is one difference of the cached
    Gaussian row (see the module docstring); wider lam take the Weyl sum
    over l(lam) variables.
    """
    if d < 1:
        raise ValueError("outer power d must be positive")
    if k < 0:
        raise ValueError("inner power k must be nonnegative")
    parts = lam.stripped()
    if lam.size != d * k:
        return 0
    if len(parts) <= 2:
        row = _gaussian_half_row(d, k)
        if len(parts) < 2:
            return int(row[0])
        j = parts[1]
        return int(row[j]) - int(row[j - 1])
    n = len(parts)
    memo: dict[tuple[int, ...], int] = {}
    total = 0
    for sign, weight in iter_nonnegative_signed_weights(lam, n):
        key = tuple(sorted(weight, reverse=True))
        cached = memo.get(key)
        if cached is None:
            # weight-space dimensions are symmetric in the coordinates
            cached = weight_count(d, k, n, weight)
            memo[key] = cached
        total += sign * cached
    if total < 0:
        raise AssertionError(
            f"alternating weight sum went negative for d={d}, k={k}, lam={lam}"
        )
    return total


def hermite_check(d: int, k: int, lam: Partition) -> bool:
    """Whether m^{d,k}_lam equals m^{k,d}_lam (Hermite reciprocity)."""
    if d < 1 or k < 1:
        raise ValueError("hermite_check needs positive d and k")
    if lam.size != d * k:
        raise ValueError(f"|lam| = {lam.size} != d*k = {d * k}")
    return plethysm_multiplicity(d, k, lam) == plethysm_multiplicity(k, d, lam)
