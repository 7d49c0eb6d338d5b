"""Multiplicities of irreducibles in symmetric powers of symmetric powers.

The multiplicity of the irreducible labelled by a partition lam inside
S^d(S^k C^n) is computed as the alternating sum, over the Weyl group, of
dimensions of weight spaces:

    m = sum over w in S_n of  sgn(w) * dim weightspace(w(lam+rho) - rho)

and each weight-space dimension is the number of size-d multisets of degree-k
monomial contents with the prescribed coordinate sum.  For every n at least
the number of nonzero parts of lam this is the same stable plethysm
coefficient, so plethysm_multiplicity takes n equal to that number.

Two-row multiplicities have a closed form.  In two variables the dimension
of the (d*k - j, j) weight space is the number of partitions of j into at
most d parts of size at most k, the coefficient of q^j in the Gaussian
binomial [d+k choose d]_q.  With a either of d and k and b the other,
expanding the numerator of the product
prod_{i=1..a} (1 - q^(b+i)) / (1 - q^i) by the q-binomial theorem, and
[a choose t]_q / prod_{i<=a} (1 - q^i) = 1 / (prod_{i<=t} (1 - q^i) *
prod_{i<=a-t} (1 - q^i)), gives

    [q^j] = sum over t of (-1)^t * Q_t(j - t*b - t(t+1)/2)

where Q_t(m) counts the pairs of partitions of sizes summing to m, one into
parts of size at most t and one into parts of size at most a - t (Andrews,
The Theory of Partitions, ch. 3).  Only t <= a/2 reach j <= d*k/2, the half
of the symmetric row that is ever asked for.  The Weyl sum in two variables
collapses to one difference (Cayley-Sylvester): the multiplicity of
(d*k - j, j) is [q^j] - [q^(j-1)], and of (d*k) it is [q^0] = 1.  Both
coefficients run over the same t, so the difference is taken term by term
from one row of Q_t, with Q_t(-1) = 0.  As b is free, a whole ray keeps one
a and one cached table: a = d on an outer ray (d, s*k, s*j), a = k on an
inner ray (s*d, k, s*j), and with step the other of d and k,

    m(s) = sum over t <= a/2 of (-1)^t * (Q_t(m_t) - Q_t(m_t - 1)),
    m_t = (j - t*step)*s - t(t+1)/2,

as s*j <= a*s*step/2.  two_row_ray sums this for s = 0..s_max, reading each
row once, and two_row_multiplicity is its s = 1 point with a = min(d, k).
plethysm_multiplicity answers every lam with at most two nonzero parts this
way, in integer arithmetic without a weight-space count, and rays.sample_ray
calls two_row_ray once for a whole two-row ray.  A lam with more
than d nonzero parts is 0 before any sum: S^d(S^k) lies in h_k^d, which by
Pieri's rule has no constituent with more than d rows.  So only lam with
three to d nonzero parts takes the Weyl sum, and its weights go through
weight_count to the capped-multiset kernel.  Two-row multiplicities never
reach either.  A direct weight_count call, in any number of variables, takes
the pair-count closed form when d = 2 and the kernel otherwise.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

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
    folded to unordered pairs.  m -> mu - m is an involution on the ordered
    pairs whose only possible fixed point is mu/2, so the ordered count is odd
    exactly when the diagonal pair (mu/2, mu/2) exists, and the unordered count
    is (ordered + 1) // 2.
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
    return (ways[k] + 1) // 2


def _divide_by_one_minus(row: list[int], i: int) -> None:
    """Replace the power series row by row / (1 - q^i), truncated, in place.

    Dividing by 1 - q^i is a prefix sum over each residue class mod i.
    """
    for start in range(i):
        row[start::i] = accumulate(row[start::i])


class _PartitionTable:
    """Row t, for t <= a/2: Q_t(0), Q_t(1), ... of the module docstring.

    Row 0 counts the partitions into parts of size at most a; row t is
    row t - 1 times (1 - q^(a-t+1)) / (1 - q^t).
    """

    def __init__(self, a: int):
        self.a = a
        self.rows: list[list[int]] = [[] for _ in range(a // 2 + 1)]

    def row(self, t: int, m: int) -> list[int]:
        """Row t through Q_t(m) at least; a row at least doubles when it grows."""
        size = len(self.rows[t])
        if size <= m:
            self._build(t, max(m + 1, 2 * size))
        return self.rows[t]

    def _build(self, t: int, size: int) -> None:
        """Make row t exactly size entries long, extending row t - 1 first."""
        if t == 0:
            row = [1] + [0] * (size - 1)
            for i in range(1, self.a + 1):
                _divide_by_one_minus(row, i)
        else:
            if len(self.rows[t - 1]) < size:
                self._build(t - 1, size)
            prev = self.rows[t - 1][:size]
            shift = self.a - t + 1
            row = prev[:shift] + [x - y for x, y in zip(prev[shift:], prev)]
            _divide_by_one_minus(row, t)
        self.rows[t] = row


@lru_cache(maxsize=64)
def _partition_table(a: int) -> _PartitionTable:
    return _PartitionTable(a)


def two_row_ray(a: int, step: int, j: int, s_max: int) -> list[int]:
    """[q^(s*j)] - [q^(s*j-1)] of [a + s*step choose a]_q for s = 0..s_max.

    For 0 <= j <= a*step/2 this is the outer ray of (d, k) = (a, step) and
    the inner ray of (d, k) = (step, a) at lam = (dk - j, j); entry 0 is 1.
    """
    table = _partition_table(a)
    values = [0] * (s_max + 1)
    for t in range(a // 2 + 1):
        alpha, tri = j - t * step, t * (t + 1) // 2
        top = alpha * s_max - tri
        if top < 0:
            break
        row = table.row(t, top)
        sign = -1 if t % 2 else 1
        # t >= 1 has tri >= 1, so top >= 0 makes alpha >= 1; t = 0 starts at s = 0
        for s in range(-(-tri // alpha) if t else 0, s_max + 1):
            m = alpha * s - tri
            values[s] += sign * (row[m] - row[m - 1] if m else row[0])
    return values


def two_row_multiplicity(d: int, k: int, j: int) -> int:
    """m^{d,k} of (d*k - j, j), for 0 <= j <= d*k/2: the s = 1 point of two_row_ray."""
    return two_row_ray(min(d, k), max(d, k), j, 1)[1]


def weight_count(d: int, k: int, n: int, mu: WeightVector) -> int:
    """Dimension of the mu-weight space of S^d(S^k C^n).

    Negative entries or a wrong total simply give 0; the alternating Weyl sum
    relies on that convention.  d = 2 is the pair count; every other d, in
    any number of variables, goes to the capped-multiset kernel.
    plethysm_multiplicity calls this only with 3 <= n <= d.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if len(mu) != n:
        raise ValueError(f"weight {mu} does not have length {n}")
    if d < 0 or k < 0:
        raise ValueError("d and k must be nonnegative")
    if any(m < 0 for m in mu) or sum(mu) != d * k:
        return 0
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
    Gaussian-binomial coefficients, taken by two_row_multiplicity (see the
    module docstring); a lam with more than d nonzero parts is 0 (Pieri); the
    others take the Weyl sum over l(lam) variables.
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
        return two_row_multiplicity(d, k, parts[1])
    if len(parts) > d:
        return 0  # S^d(S^k) lies in h_k^d, whose constituents have at most d rows
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
