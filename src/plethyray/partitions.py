"""Partitions, ray scaling, and the nonnegative terms of the Weyl alternating sum.

Partitions are weakly decreasing tuples of nonnegative integers; trailing
zeros are kept as given, so a partition prints as it was written, but are
ignored by equality and hashing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple

WeightVector = tuple[int, ...]


class SignedWeight(NamedTuple):
    sign: int
    weight: WeightVector


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        parts = tuple(operator.index(p) for p in parts)
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


def iter_nonnegative_signed_weights(lam: Partition, n: int) -> list[SignedWeight]:
    """Exactly the signed weights whose entries are all nonnegative.

    Equivalent to filtering the n! pairs (sgn(w), w(lam+rho)-rho), the list
    the test oracle naive_signed_weights builds, but without enumerating all
    n! permutations: positions are filled in order by depth-first search,
    placing the entry j of lam + rho at position i as the weight entry
    lam_j + i - j, and a branch is cut at its first negative entry.
    The sign is the parity of the places the chosen indices held among the
    indices still free.  The skipped terms contribute nothing to the
    alternating weight-count sum (negative weights have empty weight spaces).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    padded = lam.padded(n)
    out = []
    weight = [0] * n

    def rec(pos: int, free: list[int], parity: int) -> None:
        if pos == n:
            out.append(SignedWeight(-1 if parity else 1, tuple(weight)))
            return
        for index, j in enumerate(free):
            entry = padded[j] + pos - j
            if entry < 0:
                continue
            weight[pos] = entry
            rec(pos + 1, free[:index] + free[index + 1:], parity ^ (index & 1))

    rec(0, list(range(n)), 0)
    return out
