"""One-dimensional shifted (inhomogeneous) rational interval families.

A family has dilations Q(s) = [s*b + c, s*bbar + cbar]; the slopes scale
with s, the offsets do not.  Counting is exact rational floor/ceil
arithmetic, and a family whose slopes are compatible with a period p can be
certified as a genuine quasi-polynomial via the shift identity
count(s+p) = count(s) + p*(bbar-b) on the un-clamped count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .quasipoly import (
    QuasiPolynomial,
    RationalLike,
    _as_fraction,
    format_rational,
    parse_rational,
    phi_reference,
)


@dataclass(frozen=True)
class ShiftedIntervalFamily:
    b: Fraction
    c: Fraction
    bbar: Fraction
    cbar: Fraction

    def __init__(self, b: RationalLike, c: RationalLike, bbar: RationalLike, cbar: RationalLike):
        object.__setattr__(self, "b", _as_fraction(b))
        object.__setattr__(self, "c", _as_fraction(c))
        object.__setattr__(self, "bbar", _as_fraction(bbar))
        object.__setattr__(self, "cbar", _as_fraction(cbar))

    def to_json_dict(self) -> dict:
        return {
            "b": format_rational(self.b),
            "c": format_rational(self.c),
            "bbar": format_rational(self.bbar),
            "cbar": format_rational(self.cbar),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ShiftedIntervalFamily":
        return cls(*(parse_rational(data[key]) for key in ("b", "c", "bbar", "cbar")))


@dataclass(frozen=True)
class PointFamily:
    q: Fraction

    def __init__(self, q: RationalLike):
        object.__setattr__(self, "q", _as_fraction(q))


@dataclass(frozen=True)
class NotPeriodic:
    reason: str


def raw_count(fam: ShiftedIntervalFamily, s: int) -> int:
    """floor(s*bbar+cbar) - ceil(s*b+c) + 1 without clamping (may be negative)."""
    return floor(s * fam.bbar + fam.cbar) - ceil(s * fam.b + fam.c) + 1


def count(fam: ShiftedIntervalFamily, s: int) -> int:
    """Number of integers in the s-th dilation [s*b+c, s*bbar+cbar]."""
    if s < 0:
        raise ValueError("dilation parameter must be nonnegative")
    return max(0, raw_count(fam, s))


def count_point(fam: PointFamily, s: int) -> int:
    """1 when s*q is an integer (the dilated point is a lattice point), else 0."""
    if s < 0:
        raise ValueError("dilation parameter must be nonnegative")
    return 1 if (s * fam.q).denominator == 1 else 0


def periodic_count_qp(fam: ShiftedIntervalFamily, p: int) -> QuasiPolynomial | NotPeriodic:
    """The counting function as a period-p quasi-polynomial, when it is one.

    Requires p*b and p*bbar integral, so that the un-clamped count satisfies
    raw(j + p*t) = raw(j) + t*p*(bbar-b).  The clamped count equals that
    affine function for all s >= 0 exactly when raw stays nonnegative; with a
    slope gap >= 0 each residue's raw count never decreases in t, so that
    holds exactly when raw(j) >= 0 for every j < p.
    """
    if p < 1:
        raise ValueError("period must be positive")
    if (p * fam.b).denominator != 1 or (p * fam.bbar).denominator != 1:
        return NotPeriodic(f"p*b = {p * fam.b} or p*bbar = {p * fam.bbar} is not an integer")
    slope = fam.bbar - fam.b
    base = [raw_count(fam, j) for j in range(p)]
    if slope < 0:
        return NotPeriodic("negative slope gap: dilations are eventually empty")
    j = next((j for j, r in enumerate(base) if r < 0), None)
    if j is not None:
        if slope == 0:
            return NotPeriodic(f"raw count is negative at s={j} and never recovers")
        return NotPeriodic(f"count clamps at s={j}; not a period-{p} quasi-polynomial")
    if slope == 0:
        rows = [[base[j]] for j in range(p)]
    else:
        rows = [[base[j] - j * slope, slope] for j in range(p)]
    return QuasiPolynomial(p, rows)


def verify_sum_decomposition(eps: RationalLike, s_max: int) -> dict:
    """Check phi(s) = #P'(s) + #(s{1/2} cap Z) for P'(s) = {x: eps <= x <= s/3}.

    P' is the corrected inhomogeneous reading; the literal dilating family
    P(s) = s[eps, 1/3+eps] is evaluated side by side, recording every s where
    it misses phi (it already misses at s=0, where it contributes 2).
    """
    eps = _as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must satisfy 0 < eps <= 1")
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    phi = phi_reference()
    corrected = ShiftedIntervalFamily(0, eps, Fraction(1, 3), 0)
    literal = ShiftedIntervalFamily(eps, 0, Fraction(1, 3) + eps, 0)
    half = PointFamily(Fraction(1, 2))
    corrected_failures = []
    literal_failures = []
    for s in range(s_max + 1):
        target = phi.eval_int(s)
        point = count_point(half, s)
        if count(corrected, s) + point != target:
            corrected_failures.append(s)
        if count(literal, s) + point != target:
            literal_failures.append(s)
    first_positive = next((s for s in literal_failures if s >= 1), None)
    return {
        "eps": format_rational(eps),
        "s_max": s_max,
        "corrected_pass": not corrected_failures,
        "corrected_failures": corrected_failures,
        "literal_failures": literal_failures,
        "literal_fails_at_zero": 0 in literal_failures,
        "first_positive_literal_failure": first_positive,
    }
