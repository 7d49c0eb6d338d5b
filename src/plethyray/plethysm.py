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
q^j in the Gaussian binomial [d+k choose d]_q.  With a = min(d, k) and
b = max(d, k), expanding the numerator of the product
prod_{i=1..a} (1 - q^(b+i)) / (1 - q^i) gives the denumerant sum

    [q^j] = sum over S in {1..a} of (-1)^|S| * p_a(j - |S|*b - sum(S))

where p_a(m) counts the partitions of m into parts of size at most a
(Andrews, The Theory of Partitions, ch. 3).  Only subsets with |S| <= a/2
reach j <= d*k/2, the half of the symmetric row that is ever asked for.
One table of p_a, grown on demand, and one table of signed subset counts
by (|S|, sum(S)) are cached per a, so every point of a ray that keeps a
fixed serves from the same two tables.  The Weyl sum in two variables
collapses to one difference (Cayley-Sylvester): the multiplicity of
(d*k - j, j) is [q^j] - [q^(j-1)], and of (d*k) it is [q^0] = 1.  So
plethysm_multiplicity answers every lam with at most two nonzero parts in
integer arithmetic without a weight-space count, and only lam with three or
more parts takes the Weyl sum.  Wider weights go to the pair-count closed
form (d = 2) or the capped-multiset kernel.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import mul

from .kernels import count_capped_multisets
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


def _divide_by_one_minus(row: list[int], i: int) -> None:
    """Replace the power series row by row / (1 - q^i), truncated, in place.

    Dividing by 1 - q^i is a prefix sum over each residue class mod i.
    """
    for start in range(i):
        row[start::i] = accumulate(row[start::i])


class _PartitionTable:
    """p_a(0), p_a(1), ...: partitions of m into parts of size at most a."""

    def __init__(self, a: int):
        self.a = a
        self.values = [1]

    def upto(self, m: int) -> list[int]:
        """The table through p_a(m) at least; it at least doubles when it grows."""
        if len(self.values) <= m:
            values = [1] + [0] * max(m, 2 * len(self.values) - 1)
            for i in range(1, self.a + 1):
                _divide_by_one_minus(values, i)
            self.values = values
        return self.values


@lru_cache(maxsize=64)
def _partition_table(a: int) -> _PartitionTable:
    return _PartitionTable(a)


@lru_cache(maxsize=64)
def _signed_subset_counts(a: int) -> tuple[tuple[int, ...], ...]:
    """Row t, for t <= a/2: (-1)^t * #{S in {1..a} : |S| = t, sum(S) = sigma}.

    The row runs over sigma = t(t+1)/2 .. t(t+1)/2 + t(a-t).  Removing the
    staircase 1..t from the sorted subset leaves a partition in a
    t x (a-t) box, so row t is (-1)^t times the Gaussian binomial
    [a choose t]_q; each binomial is the last one times
    (1 - q^(a-t+1)) / (1 - q^t).
    """
    rows = [(1,)]
    gauss = [1]
    for t in range(1, a // 2 + 1):
        shift = a - t + 1
        gauss = [x - y for x, y in zip(gauss + [0] * shift, [0] * shift + gauss)]
        _divide_by_one_minus(gauss, t)
        del gauss[t * (a - t) + 1:]  # the exact quotient's zero tail
        rows.append(tuple(-c for c in gauss) if t % 2 else tuple(gauss))
    return tuple(rows)


def _two_row_count(d: int, k: int, j: int) -> int:
    """[q^j] of the Gaussian binomial [d+k choose d]_q, for 0 <= j <= d*k/2.

    The denumerant sum of the module docstring: partitions of j into at
    most d parts of size at most k.
    """
    a, b = min(d, k), max(d, k)
    p = _partition_table(a).upto(j)
    total = 0
    for t, row in enumerate(_signed_subset_counts(a)):
        # row[i] counts the subsets with sum(S) = t(t+1)/2 + i; they meet p_a(top - i)
        top = j - t * b - t * (t + 1) // 2
        if top < 0:
            break
        low = max(0, top - len(row) + 1)
        total += sum(map(mul, row, reversed(p[low:top + 1])))
    return total


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
        return _two_row_count(d, k, min(mu))
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
    lam with at most two nonzero parts is one difference of two
    Gaussian-binomial coefficients (see the module docstring); wider lam take
    the Weyl sum over l(lam) variables.
    """
    if d < 1:
        raise ValueError("outer power d must be positive")
    if k < 0:
        raise ValueError("inner power k must be nonnegative")
    parts = lam.stripped()
    if lam.size != d * k:
        return 0
    if len(parts) < 2:
        return 1  # lam = (d*k), or k = 0: [q^0] = 1
    if len(parts) == 2:
        j = parts[1]
        return _two_row_count(d, k, j) - _two_row_count(d, k, j - 1)
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
