"""Exact feasibility of rational linear inequality systems in three unknowns.

Systems hold constraints a0*b + a1*c + a2*cbar (< or <=) rhs with a
first-class strictness flag.  Feasibility, exact bounds of linear
functionals, redundancy, and rational point extraction all run through one
Fourier-Motzkin loop that eliminates cbar, then c, then b; a derived
constraint is strict exactly when one of its parents is.

The decider's constraints each involve (b, c) or (b, cbar), never c and cbar
together.  Eliminating the offsets before the shared slope b keeps the two
groups apart, so pair products stay small; and extending a system keeps it
irredundant, so it does not grow with the number of dilations seen.

Coefficient vectors are kept as primitive integer tuples (the right-hand
side stays an exact Fraction), which keeps the elimination inner loop in
machine integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .quasipoly import RationalLike, _as_fraction

NUM_VARS = 3


class Constraint(NamedTuple):
    """coeffs . (b, c, cbar) <= rhs, or < rhs when strict; coeffs primitive ints."""

    coeffs: tuple[int, ...]
    rhs: Fraction
    strict: bool


def _reduce(coeffs: Iterable[int], rhs: Fraction, strict: bool) -> Constraint:
    """Divide by the gcd of the integer coefficients (positive scaling only)."""
    coeffs = tuple(coeffs)
    g = 0
    for a in coeffs:
        g = gcd(g, abs(a))
    if g > 1:
        coeffs = tuple(a // g for a in coeffs)
        rhs = rhs / g
    return Constraint(coeffs, rhs, strict)


def make_constraint(
    coeffs: Iterable[RationalLike], rhs: RationalLike, strict: bool = False
) -> Constraint:
    fracs = [_as_fraction(a) for a in coeffs]
    if len(fracs) != NUM_VARS:
        raise ValueError(f"expected {NUM_VARS} coefficients, got {len(fracs)}")
    rhs = _as_fraction(rhs)
    scale = lcm(*[a.denominator for a in fracs])
    return _reduce((int(a * scale) for a in fracs), rhs * scale, bool(strict))


def _violated(cons: Constraint) -> bool:
    """Whether an all-zero-coefficient constraint 0 (<|<=) rhs fails."""
    return cons.rhs < 0 or (cons.rhs == 0 and cons.strict)


def _combine(lower: Constraint, upper: Constraint, var: int) -> Constraint:
    """Eliminate var between a lower bound (negative coeff) and an upper bound.

    The right-hand side is built as one Fraction from integer parts: this is
    the innermost step of every elimination, and Fraction's operators cost
    several times more.
    """
    al = -lower.coeffs[var]  # > 0
    au = upper.coeffs[var]  # > 0
    coeffs = [al * u + au * l for l, u in zip(lower.coeffs, upper.coeffs)]
    g = gcd(*coeffs) or 1
    lo, up = lower.rhs, upper.rhs
    return Constraint(
        tuple(a // g for a in coeffs),
        Fraction(al * up.numerator * lo.denominator + au * lo.numerator * up.denominator,
                 lo.denominator * up.denominator * g),
        lower.strict or upper.strict,
    )


def _dedupe(constraints: Iterable[Constraint]) -> list[Constraint] | None:
    """Tightest constraint per direction; None on an immediate contradiction."""
    seen: dict[tuple[int, ...], Constraint] = {}
    for cons in constraints:
        if not any(cons.coeffs):
            if _violated(cons):
                return None
            continue
        old = seen.get(cons.coeffs)
        if old is None or (cons.rhs, not cons.strict) < (old.rhs, not old.strict):
            seen[cons.coeffs] = cons
    return list(seen.values())


def _eliminate(constraints: list[Constraint], var: int) -> list[Constraint] | None:
    """One Fourier-Motzkin step; None as soon as a contradiction appears."""
    lowers, uppers, rest = [], [], []
    for cons in constraints:
        a = cons.coeffs[var]
        if a < 0:
            lowers.append(cons)
        elif a > 0:
            uppers.append(cons)
        else:
            rest.append(cons)
    deduped = _dedupe(_combine(lo, up, var) for lo in lowers for up in uppers)
    if deduped is None:
        return None
    return rest + deduped


def _project(work: list[Constraint], keep: int | None = None) -> list[Constraint] | None:
    """Eliminate every unknown but keep, in the order cbar, c, b; None if infeasible."""
    for var in range(NUM_VARS - 1, -1, -1):
        if var != keep:
            work = _eliminate(work, var)
            if work is None:
                return None
    return work


def _satisfiable(constraints: Iterable[Constraint]) -> bool:
    """Whether some rational point satisfies every constraint."""
    work = _dedupe(constraints)
    if work is None:
        return False
    work = _project(work)
    # everything that survives total elimination is a 0 (<|<=) rhs check
    return work is not None and not any(_violated(cons) for cons in work)


def _negation(cons: Constraint) -> Constraint:
    """a.x <= r becomes a.x > r, and a.x < r becomes a.x >= r."""
    return Constraint(tuple(-a for a in cons.coeffs), -cons.rhs, not cons.strict)


def _alone_on_its_side(cons: Constraint, rest: list[Constraint]) -> bool:
    """Whether cons is the only constraint that bounds some unknown from its side.

    Then moving far enough that way from any solution of a feasible rest
    breaks cons alone, so rest does not imply it.
    """
    return any(
        a and all(other.coeffs[var] * a <= 0 for other in rest)
        for var, a in enumerate(cons.coeffs)
    )


def _irredundant(constraints: list[Constraint]) -> list[Constraint]:
    """Drop, one at a time, each constraint that the remaining ones imply.

    Requires a feasible system.  A constraint is implied exactly when the
    others plus its negation are infeasible.  A constraint kept at its turn
    stays irredundant after later drops, since dropping only enlarges the
    solution set of the others.
    """
    kept = list(constraints)
    i = 0
    while i < len(kept):
        cons = kept[i]
        rest = kept[:i] + kept[i + 1:]
        if _alone_on_its_side(cons, rest) or _satisfiable(rest + [_negation(cons)]):
            i += 1
        else:
            kept = rest
    return kept


_CONTRADICTION = Constraint((0,) * NUM_VARS, Fraction(-1), False)


@dataclass(frozen=True)
class LinearSystem3:
    constraints: tuple[Constraint, ...] = ()
    # set by extended(), which has just decided feasibility; None means unknown
    known_feasible: bool | None = field(default=None, compare=False, repr=False)

    def extended(self, new: Iterable[Constraint]) -> "LinearSystem3":
        """The system with extra constraints, reduced to an irredundant one.

        An infeasible result is the explicit contradiction 0 <= -1; otherwise
        every constraint implied by the others is dropped.  The solution set
        is unchanged either way, and the result records its feasibility, so
        feasible() answers it without another elimination.
        """
        deduped = _dedupe(self.constraints + tuple(new))
        if deduped is None or not _satisfiable(deduped):
            return LinearSystem3((_CONTRADICTION,), known_feasible=False)
        return LinearSystem3(tuple(_irredundant(deduped)), known_feasible=True)

    def canonical_key(self) -> tuple:
        return tuple(sorted(self.constraints))


def feasible(system: LinearSystem3) -> bool:
    """Whether some rational point satisfies every constraint."""
    if system.known_feasible is not None:
        return system.known_feasible
    return _satisfiable(system.constraints)


class Bound(NamedTuple):
    """Exact range of a linear functional over a system's solution set."""

    lo: Fraction | None
    lo_strict: bool
    hi: Fraction | None
    hi_strict: bool


def functional_bound(
    system: LinearSystem3, coeffs: Iterable[RationalLike]
) -> Bound | None:
    """Range of coeffs . (b, c, cbar) over the system; None if infeasible.

    A pivot coordinate with nonzero functional coefficient is replaced by
    u = functional via an exact change of variables, then the remaining two
    unknowns are eliminated in the usual order, projecting the solution set
    onto u.
    """
    f = [_as_fraction(a) for a in coeffs]
    if len(f) != NUM_VARS:
        raise ValueError(f"expected {NUM_VARS} coefficients, got {len(f)}")
    scale = lcm(*[a.denominator for a in f])
    fi = [int(a * scale) for a in f]  # u = scale * (f . x)

    if not any(fi):
        if not feasible(system):
            return None
        return Bound(Fraction(0), False, Fraction(0), False)

    pivot = next(i for i in range(NUM_VARS) if fi[i] != 0)
    p = fi[pivot]
    sgn = 1 if p > 0 else -1
    mag = abs(p)

    # substitute x_pivot = (u - sum_{j != pivot} fi_j x_j) / p, scaled by |p|
    work: list[Constraint] | None = []
    for cons in system.constraints:
        a = cons.coeffs
        new = [mag * aj - sgn * a[pivot] * fj for aj, fj in zip(a, fi)]
        new[pivot] = sgn * a[pivot]  # coefficient of u
        work.append(_reduce(new, mag * cons.rhs, cons.strict))

    work = _dedupe(work)
    if work is None:
        return None
    work = _project(work, keep=pivot)
    if work is None:
        return None

    lo: Fraction | None = None
    lo_strict = False
    hi: Fraction | None = None
    hi_strict = False
    for cons in work:
        a = cons.coeffs[pivot]
        if a == 0:
            if _violated(cons):
                return None
            continue
        value = cons.rhs / a
        if a > 0:
            if hi is None or value < hi or (value == hi and cons.strict):
                hi, hi_strict = value, cons.strict
        else:
            if lo is None or value > lo or (value == lo and cons.strict):
                lo, lo_strict = value, cons.strict
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            return None
    # u was scale * (f . x): rescale back
    return Bound(
        None if lo is None else lo / scale,
        lo_strict,
        None if hi is None else hi / scale,
        hi_strict,
    )


def _pick_in_bound(bound: Bound) -> Fraction:
    """A deterministic rational value inside a nonempty bound."""
    lo, lo_strict, hi, hi_strict = bound
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1 if hi_strict else hi
    if hi is None:
        return lo + 1 if lo_strict else lo
    if lo == hi:
        return lo
    return (lo + hi) / 2


def _substitute(system: LinearSystem3, var: int, value: Fraction) -> LinearSystem3:
    out = []
    for cons in system.constraints:
        coeffs = list(cons.coeffs)
        rhs = cons.rhs - coeffs[var] * value
        coeffs[var] = 0
        out.append(Constraint(tuple(coeffs), rhs, cons.strict))
    return LinearSystem3(tuple(out))


def sample_point(system: LinearSystem3) -> tuple[Fraction, Fraction, Fraction] | None:
    """A deterministic rational solution of the system, or None if infeasible.

    Variables are fixed one at a time to a point of their exact projected
    range; the projection property of Fourier-Motzkin guarantees each partial
    assignment extends.
    """
    if not feasible(system):
        return None
    values: list[Fraction] = []
    current = system
    for var in range(NUM_VARS):
        unit = [0] * NUM_VARS
        unit[var] = 1
        bound = functional_bound(current, unit)
        if bound is None:
            return None  # unreachable on a feasible system
        value = _pick_in_bound(bound)
        values.append(value)
        current = _substitute(current, var, value)
    return (values[0], values[1], values[2])
