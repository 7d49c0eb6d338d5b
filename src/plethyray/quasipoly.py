"""Exact rational quasi-polynomials.

A quasi-polynomial of period p is one polynomial per residue class mod p,
stored as rational coefficient rows (constant term first).  Evaluation at a
negative integer uses the nonnegative residue representative, which is what
makes the Ehrhart-reciprocity check meaningful.

Evaluation runs in integers: each instance scales its rows, once and on first
use, to integer numerators over one common denominator, and Horner's rule on
those numerators serves eval, eval_int and the validation inside fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

RationalLike = int | Fraction


def _as_fraction(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def format_rational(x: RationalLike) -> str:
    return str(_as_fraction(x))


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


@dataclass(frozen=True)
class FitFailure:
    """Interpolation did not reproduce a supplied sample."""

    s: int
    expected: Fraction
    actual: Fraction

    def __str__(self) -> str:
        return f"fit mismatch at s={self.s}: sample {self.expected}, interpolant {self.actual}"


@dataclass(frozen=True)
class QuasiPolynomial:
    period: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, period: int, rows: Iterable[Sequence[RationalLike]]):
        if period < 1:
            raise ValueError("period must be positive")
        raw = [tuple(_as_fraction(c) for c in row) for row in rows]
        if len(raw) != period:
            raise ValueError(f"expected {period} rows, got {len(raw)}")
        if any(len(row) == 0 for row in raw):
            raise ValueError("rows must have at least the constant coefficient")
        # common degree: pad, then trim trailing columns that are zero in every row
        width = max(len(row) for row in raw)
        padded = [row + (Fraction(0),) * (width - len(row)) for row in raw]
        while width > 1 and all(row[width - 1] == 0 for row in padded):
            width -= 1
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "rows", tuple(row[:width] for row in padded))

    @property
    def degree(self) -> int:
        return len(self.rows[0]) - 1

    @cached_property
    def _scaled_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(numerator rows, den): row j is the integer row / den.

        Kept in the instance dict, outside the dataclass fields, so it takes
        no part in ==, hash or repr.
        """
        den = lcm(*[c.denominator for row in self.rows for c in row])
        rows = tuple(
            tuple(c.numerator * (den // c.denominator) for c in row) for row in self.rows
        )
        return rows, den

    def _numerator(self, s: int) -> int:
        """q(s) times the common denominator, by Horner's rule in integers."""
        acc = 0
        for coeff in reversed(self._scaled_rows[0][s % self.period]):
            acc = acc * s + coeff
        return acc

    def eval(self, s: int) -> Fraction:
        """Value at any integer; the residue of s is taken in 0..period-1."""
        return Fraction(self._numerator(s), self._scaled_rows[1])

    def eval_int(self, s: int) -> int:
        acc, den = self._numerator(s), self._scaled_rows[1]
        value, rest = divmod(acc, den)
        if rest:
            raise ValueError(f"value at s={s} is not an integer: {Fraction(acc, den)}")
        return value

    def __add__(self, other: "QuasiPolynomial") -> "QuasiPolynomial":
        if not isinstance(other, QuasiPolynomial):
            return NotImplemented
        p = lcm(self.period, other.period)
        width = max(self.degree, other.degree) + 1
        rows = []
        for j in range(p):
            a = self.rows[j % self.period]
            b = other.rows[j % other.period]
            rows.append(
                tuple(
                    (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                    for i in range(width)
                )
            )
        return QuasiPolynomial(p, rows)

    def scaled(self, factor: RationalLike) -> "QuasiPolynomial":
        f = _as_fraction(factor)
        return QuasiPolynomial(self.period, [[c * f for c in row] for row in self.rows])

    def with_period(self, p: int) -> "QuasiPolynomial":
        """The same function declared with period p (p must be a multiple)."""
        if p % self.period != 0:
            raise ValueError(f"{p} is not a multiple of period {self.period}")
        return QuasiPolynomial(p, [self.rows[j % self.period] for j in range(p)])

    def reduced_period(self) -> "QuasiPolynomial":
        """The same function at its minimal period.

        Periods are never minimized implicitly (a stable declared period is
        what the decider's certification leans on); call this when the
        smallest representation is wanted.
        """
        for p in range(1, self.period + 1):
            if self.period % p != 0:
                continue
            if all(self.rows[j] == self.rows[j % p] for j in range(self.period)):
                return QuasiPolynomial(p, self.rows[:p])
        return self  # pragma: no cover

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "degree": self.degree,
            "rows": [[format_rational(c) for c in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuasiPolynomial":
        """Read back what to_json_dict writes; ValueError on anything else.

        That is an object with an integer period and rows written as a list
        of lists of rational strings; the written degree is not read.
        """
        if not isinstance(data, dict) or "period" not in data or "rows" not in data:
            raise ValueError("expected an object with 'period' and 'rows'")
        period, rows = data["period"], data["rows"]
        if type(period) is not int:
            raise ValueError(f"period must be an integer, got {period!r}")
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(isinstance(c, str) for c in row) for row in rows
        ):
            raise ValueError("rows must be a list of lists of rational strings")
        return cls(period, [[parse_rational(c) for c in row] for row in rows])

    @classmethod
    def constant(cls, value: RationalLike, period: int = 1) -> "QuasiPolynomial":
        return cls(period, [[value]] * period)


def same_function(q1: QuasiPolynomial, q2: QuasiPolynomial) -> bool:
    """Whether two quasi-polynomials agree on every integer (periods may differ)."""
    p = lcm(q1.period, q2.period)
    return q1.with_period(p).rows == q2.with_period(p).rows


def phi_reference() -> QuasiPolynomial:
    """The period-6 multiplicity function (s + r(s))/3 with r = (3,-1,1,0,2,-2)."""
    r = (3, -1, 1, 0, 2, -2)
    return QuasiPolynomial(6, [[Fraction(rj, 3), Fraction(1, 3)] for rj in r])


def _newton_row(window: list[tuple[int, RationalLike]]) -> tuple[list[int], int]:
    """Monomial coefficients of the interpolant through window, over one denominator.

    Returns (coeffs, den) with integer coeffs, constant term first, such that
    the polynomial is sum(coeffs[e] * s**e) / den.  Divided differences are
    kept as integers over a per-level common denominator, the Newton form is
    expanded by Horner's rule on coefficient lists, and nothing is reduced
    until the caller builds its Fractions.
    """
    xs = [s for s, _ in window]
    den = lcm(*[value.denominator for _, value in window])
    level = [value.numerator * (den // value.denominator) for _, value in window]
    newton = [level[0]]
    scales = [1]  # newton[k] / (den * scales[k]) is the k-th divided difference
    scale = 1
    for k in range(1, len(xs)):
        gaps = [xs[i + k] - xs[i] for i in range(len(level) - 1)]
        step = lcm(*gaps)
        level = [(b - a) * (step // gap) for a, b, gap in zip(level, level[1:], gaps)]
        scale *= step
        newton.append(level[0])
        scales.append(scale)
    # p(s) * den * scale = sum_k newton[k] * (scale / scales[k]) * prod_{i<k} (s - xs[i])
    top = len(newton) - 1
    poly = [newton[top]]
    for k in range(top - 1, -1, -1):
        shifted = [0] + poly  # poly * s
        for e, c in enumerate(poly):
            shifted[e] -= xs[k] * c
        shifted[0] += newton[k] * (scale // scales[k])
        poly = shifted
    return poly, den * scale


def fit(
    samples: Iterable[tuple[int, RationalLike]],
    period: int,
    degree: int,
) -> QuasiPolynomial | FitFailure:
    """Interpolate one polynomial per residue class and validate on all samples.

    The first degree+1 samples of each residue class (by increasing s) are the
    interpolation window; every supplied sample, including those beyond the
    window, must be reproduced exactly, otherwise the first mismatching s is
    reported as a FitFailure.  Fewer than degree+1 samples in some class is a
    usage error and raises.

    Each class's polynomial comes from Newton divided differences over its
    window; validation runs in integers, through the fitted
    QuasiPolynomial's own scaled rows.
    """
    if period < 1 or degree < 0:
        raise ValueError("period must be positive and degree nonnegative")
    # ints already carry numerator and denominator; only a FitFailure needs
    # them as Fractions
    table: dict[int, RationalLike] = {}
    for s, value in samples:
        if type(value) is not int:
            value = _as_fraction(value)
        if s < 0:
            raise ValueError("samples must have nonnegative s")
        if s in table and table[s] != value:
            return FitFailure(s, _as_fraction(value), _as_fraction(table[s]))
        table[s] = value
    points = sorted(table.items())
    by_class: list[list[tuple[int, RationalLike]]] = [[] for _ in range(period)]
    for point in points:
        by_class[point[0] % period].append(point)
    rows = []
    for j in range(period):
        window = by_class[j][: degree + 1]
        if len(window) < degree + 1:
            raise ValueError(
                f"residue class {j} mod {period} has {len(window)} samples, needs {degree + 1}"
            )
        coeffs, den = _newton_row(window)
        rows.append([Fraction(c, den) for c in coeffs])
    result = QuasiPolynomial(period, rows)
    den = result._scaled_rows[1]
    for s, value in points:
        acc = result._numerator(s)
        if acc * value.denominator != value.numerator * den:
            return FitFailure(s, _as_fraction(value), Fraction(acc, den))
    return result


def leading_coefficient(q: QuasiPolynomial) -> Fraction | None:
    """The coefficient shared by all rows at the quasi-polynomial's degree.

    None signals that the rows disagree there (no single leading behavior).
    """
    tops = {row[q.degree] for row in q.rows}
    if len(tops) == 1:
        return next(iter(tops))
    return None


def growth_rate(q: QuasiPolynomial) -> Fraction | None:
    """Shared coefficient of s^1 for degree <= 1 quasi-polynomials (0 if constant).

    None when the rows grow at different linear rates.
    """
    if q.degree > 1:
        raise ValueError("growth_rate is defined for degree <= 1")
    if q.degree == 0:
        return Fraction(0)
    return leading_coefficient(q)


def reciprocity_violations(q: QuasiPolynomial, s_max: int) -> list[int]:
    """All s in 1..s_max with |q(-s)| > q(s).

    A nonempty list certifies q is not the Ehrhart function of any rational
    polytope (Ehrhart-Macdonald reciprocity bounds |q(-s)| by the count of
    interior points of the s-th dilation).  Values must be integers.
    """
    if s_max < 1:
        raise ValueError("s_max must be positive")
    out = []
    for s in range(1, s_max + 1):
        plus = q.eval_int(s)
        minus = q.eval_int(-s)
        if abs(minus) > plus:
            out.append(s)
    return out
