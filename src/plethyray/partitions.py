"""Exact partition and weight-vector combinatorics.

Partitions are weakly decreasing tuples of nonnegative integers; trailing
zeros are kept as given, so a partition prints as it was written, but are
ignored by equality and hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, NamedTuple

WeightVector = tuple[int, ...]


class SignedWeight(NamedTuple):
    sign: int
    weight: WeightVector


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 0:
                raise ValueError(f"negative part {p} in partition {parts}")
            if i + 1 < len(parts) and parts[i + 1] > p:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse a comma-separated part list such as "7,5,0"."""
        pieces = [p.strip() for p in text.split(",")]
        if not all(pieces):
            raise ValueError(f"malformed partition string: {text!r}")
        try:
            return cls(int(p) for p in pieces)
        except ValueError as exc:
            raise ValueError(f"malformed partition string: {text!r}") from exc

    @property
    def size(self) -> int:
        return sum(self.parts)

    def stripped(self) -> tuple[int, ...]:
        """Parts with trailing zeros removed."""
        parts = self.parts
        n = len(parts)
        while n > 0 and parts[n - 1] == 0:
            n -= 1
        return parts[:n]

    def padded(self, n: int) -> tuple[int, ...]:
        """Parts padded with zeros to length n; error if nonzero parts would be cut."""
        stripped = self.stripped()
        if len(stripped) > n:
            raise ValueError(f"partition {self.parts} has more than {n} nonzero parts")
        return stripped + (0,) * (n - len(stripped))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.stripped() == other.stripped()

    def __hash__(self) -> int:
        return hash(self.stripped())

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def scale(lam: Partition, s: int) -> Partition:
    """Multiply every part by the nonnegative integer s, keeping declared zeros."""
    if s < 0:
        raise ValueError("scale factor must be nonnegative")
    # s >= 0 keeps lam's parts nonnegative and weakly decreasing, so the
    # result skips Partition's validation (ray sampling scales every point)
    scaled = object.__new__(Partition)
    object.__setattr__(scaled, "parts", tuple(p * s for p in lam.parts))
    return scaled


def rho(n: int) -> WeightVector:
    """The staircase weight (n-1, n-2, ..., 1, 0)."""
    if n < 1:
        raise ValueError("rho requires n >= 1")
    return tuple(range(n - 1, -1, -1))


def permutation_sign(perm: tuple[int, ...]) -> int:
    """Sign of a permutation given as a tuple of images of 0..n-1."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def signed_weights(lam: Partition, n: int) -> list[SignedWeight]:
    """All n! pairs (sgn(w), w(lam+rho)-rho).

    Enumerates the full symmetric group; intended for the small n (<= 4 or so)
    where an explicit list is useful.  The plethysm engine uses a pruned
    equivalent for larger n.
    """
    padded = lam.padded(n)
    staircase = rho(n)
    shifted = tuple(p + r for p, r in zip(padded, staircase))
    out = []
    for perm in permutations(range(n)):
        weight = tuple(shifted[perm[i]] - staircase[i] for i in range(n))
        out.append(SignedWeight(permutation_sign(perm), weight))
    return out


@lru_cache(maxsize=256)
def _surviving_permutations(
    capped: tuple[int, ...],
) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The permutations whose weight w(lam+rho)-rho is nonnegative.

    Each is given as (sign, ((j, i - j) for each position i)), where j is the
    entry of lam + rho placed at position i, so that the weight's entry at i
    is lam_j + i - j.

    capped is lam with every part capped at n - 1: lam_j + i - j is negative
    only when lam_j < j - i <= n - 1, so the survivors depend on nothing else.
    Positions are filled by depth-first search, cutting a branch as soon as
    an entry would go negative; the sign is the parity of the positions the
    chosen indices held in the list of those still free.
    """
    n = len(capped)
    out = []
    choice = [0] * n

    def rec(pos: int, free: list[int], parity: int) -> None:
        if pos == n:
            places = tuple((j, i - j) for i, j in enumerate(choice))
            out.append((-1 if parity else 1, places))
            return
        for index, j in enumerate(free):
            if capped[j] + pos - j < 0:
                continue
            choice[pos] = j
            rec(pos + 1, free[:index] + free[index + 1:], parity ^ (index & 1))

    rec(0, list(range(n)), 0)
    return tuple(out)


def iter_nonnegative_signed_weights(lam: Partition, n: int) -> list[SignedWeight]:
    """Exactly the signed weights whose entries are all nonnegative.

    Equivalent to filtering signed_weights(lam, n) but without enumerating
    all n! permutations: the surviving permutations come from a table cached
    per pattern of parts capped at n - 1 (see _surviving_permutations).  The
    skipped terms contribute nothing to the alternating weight-count sum
    (negative weights have empty weight spaces).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    padded = lam.padded(n)
    table = _surviving_permutations(tuple(min(part, n - 1) for part in padded))
    return [
        SignedWeight(sign, tuple([padded[j] + offset for j, offset in places]))
        for sign, places in table
    ]


def weyl_dimension(lam: Partition, n: int) -> int:
    """Dimension of the irreducible GL(n) representation labelled by lam.

    Product formula prod_{i<j} (lam_i - lam_j + j - i) / (j - i); always an
    exact positive integer.
    """
    padded = lam.padded(n)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= padded[i] - padded[j] + j - i
            den *= j - i
    if num % den != 0:
        raise AssertionError("Weyl dimension product is not integral")
    return num // den
