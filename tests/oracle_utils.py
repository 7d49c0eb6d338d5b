"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive: multisets are enumerated explicitly,
Schur polynomials come from semistandard tableaux, lattice points from
scanning candidate integers with exact Fraction comparisons.  None of it
shares code paths with the package internals it checks.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product


def partitions_of(total, max_parts=None):
    """All partitions of `total`, optionally with at most max_parts parts."""
    cap = total if max_parts is None else max_parts

    def rec(remaining, largest, parts):
        if remaining == 0:
            yield tuple(parts)
            return
        if len(parts) == cap:
            return
        for p in range(min(remaining, largest), 0, -1):
            parts.append(p)
            yield from rec(remaining - p, p, parts)
            parts.pop()

    yield from rec(total, total, [])


def monomial_exponents(k, n):
    """Exponent vectors of the degree-k monomials in n variables, by filtering a grid."""
    return [e for e in product(range(k + 1), repeat=n) if sum(e) == k]


def brute_weight_count(d, k, n, mu):
    """Count size-d multisets of degree-k contents summing to mu by enumeration."""
    if any(m < 0 for m in mu) or sum(mu) != d * k:
        return 0
    contents = monomial_exponents(k, n)
    total = 0
    for combo in combinations_with_replacement(contents, d):
        if tuple(sum(col) for col in zip(*combo)) == tuple(mu):
            total += 1
    return total


def brute_character(d, k, n):
    """Weight-multiplicity dict of S^d(S^k C^n) by full multiset enumeration."""
    out = {}
    contents = monomial_exponents(k, n)
    for combo in combinations_with_replacement(contents, d):
        key = tuple(sum(col) for col in zip(*combo))
        out[key] = out.get(key, 0) + 1
    return out


def ssyt_schur(shape, n):
    """Monomial dict of the Schur polynomial s_shape(x_1..x_n) via tableaux."""
    rows = [r for r in shape if r > 0]
    if not rows:
        return {(0,) * n: 1}
    out = {}

    def fill(r, cidx, tableau):
        if r == len(rows):
            weight = [0] * n
            for row in tableau:
                for v in row:
                    weight[v - 1] += 1
            key = tuple(weight)
            out[key] = out.get(key, 0) + 1
            return
        if cidx == rows[r]:
            fill(r + 1, 0, tableau + [[]])
            return
        lo = 1
        if cidx > 0:
            lo = tableau[r][cidx - 1]
        if r > 0 and cidx < len(tableau[r - 1]):
            lo = max(lo, tableau[r - 1][cidx] + 1)
        for v in range(lo, n + 1):
            tableau[r].append(v)
            fill(r, cidx + 1, tableau)
            tableau[r].pop()

    fill(0, 0, [[]])
    return out


def schur_expand(character, n):
    """Triangular elimination of a character into Schur multiplicities."""
    char = dict(character)
    mults = {}
    while True:
        nonzero = [(mu, c) for mu, c in char.items() if c != 0]
        if not nonzero:
            return mults
        mu = max(mu for mu, _ in nonzero)
        c = char[mu]
        if c < 0 or list(mu) != sorted(mu, reverse=True):
            raise AssertionError(f"character is not Schur-positive at {mu}: {c}")
        mults[mu] = c
        for key, val in ssyt_schur(mu, n).items():
            char[key] = char.get(key, 0) - c * val


def oracle_multiplicity(d, k, lam):
    """Stable plethysm multiplicity from the tableau-based Schur expansion.

    Only ``lam.parts`` is read (a weakly decreasing tuple, as in Partition).
    """
    nonzero = tuple(p for p in lam.parts if p > 0)
    n = max(len(nonzero), 1)
    mults = schur_expand(brute_character(d, k, n), n)
    return mults.get(nonzero + (0,) * (n - len(nonzero)), 0)


def brute_interval_count(lo: Fraction, hi: Fraction) -> int:
    """Integers x with lo <= x <= hi, by scanning candidates exactly."""
    if hi < lo:
        return 0
    start = int(lo) - 2
    stop = int(hi) + 2
    return sum(1 for x in range(start, stop + 1) if lo <= x <= hi)
