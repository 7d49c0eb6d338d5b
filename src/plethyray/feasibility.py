"""Exact feasibility of the decider's linear inequality systems in three unknowns.

Systems hold constraints a0*b + a1*c + a2*cbar (< or <=) rhs with integer
coefficients and a first-class strictness flag.

Every constraint involves (b, c), (b, cbar) or b alone, never c and cbar
together; one that does raises ValueError.  Feasibility of such a system is
therefore the intersection of two 2-D shadows on the b axis: every lower
bound on c is paired with every upper bound on c (likewise for cbar), each
pair gives one bound on b, and the system is feasible exactly when those
bounds and the b-only constraints fold into a non-empty interval of b.  Pairs
and bounds are plain integer tuples compared by cross-multiplication.
`feasible` asks for that interval; `extended` keeps each system irredundant
by one such shadow per negation test, so a system does not grow with the
number of dilations seen; `functional_bound` pivots on the functional's last
nonzero coordinate, which keeps the shape.

General 3-variable Fourier-Motzkin elimination is kept below as the
reference that the tests compare the shadows against; the program calls it
only to decide the zero functional in `functional_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    coeffs: Iterable[int], rhs: RationalLike, strict: bool = False
) -> Constraint:
    """The constraint coeffs . (b, c, cbar) <= rhs (< when strict), integer coeffs."""
    coeffs = tuple(coeffs)
    if len(coeffs) != NUM_VARS:
        raise ValueError(f"expected {NUM_VARS} coefficients, got {len(coeffs)}")
    return _reduce(coeffs, _as_fraction(rhs), bool(strict))


def _violated(cons: Constraint) -> bool:
    """Whether an all-zero-coefficient constraint 0 (<|<=) rhs fails."""
    return cons.rhs < 0 or (cons.rhs == 0 and cons.strict)


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


# --- the Fourier-Motzkin reference --------------------------------------------
#
# General elimination of cbar, then c, then b, for any shape of system; a
# derived constraint is strict exactly when one of its parents is.  These
# are the independent reference the tests compare the shadows against; the
# program calls them only for the zero functional in `functional_bound`.


def _combine(lower: Constraint, upper: Constraint, var: int) -> Constraint:
    """Eliminate var between a lower bound (negative coeff) and an upper bound."""
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


def _project(work: list[Constraint]) -> list[Constraint] | None:
    """Eliminate every unknown, in the order cbar, c, b; None if infeasible."""
    for var in range(NUM_VARS - 1, -1, -1):
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


# --- the decider's shape: constraints on (b, c), on (b, cbar) or on b alone ---
#
# A row x*b + y*v (<|<=) num/den, where v is its group's offset (c or cbar;
# y = 0 for b alone), is held as the integers (x, y, num, den, strict), den > 0.
# A bound a*t (<|<=) num/den on one unknown t is held as (a, num, den, strict).
# Groups are numbered 0 (b alone), 1 (b, c) and 2 (b, cbar).


def _row(cons: Constraint) -> tuple[int, tuple]:
    """The group of a constraint and its row; ValueError if it has c and cbar."""
    b, c, cbar = cons.coeffs
    if c and cbar:
        raise ValueError(f"constraint {cons} involves both c and cbar")
    rhs = cons.rhs
    return (2 if cbar else 1 if c else 0), (
        b, c or cbar, rhs.numerator, rhs.denominator, cons.strict)


def _groups(rows: Iterable[tuple[int, tuple]]) -> list[list[tuple]]:
    """The rows of each group, from (group, row) pairs."""
    members: list[list[tuple]] = [[], [], []]
    for group, row in rows:
        members[group].append(row)
    return members


def _shadow(rows: list[tuple]) -> list[tuple]:
    """Bounds on x of the rows' projection, eliminating y.

    Every lower bound on y is paired with every upper bound on y; rows
    without y pass through.  The pair is consistent exactly where its
    bound holds, strict when either row is.
    """
    lowers, uppers, out = [], [], []
    for row in rows:
        y = row[1]
        if y < 0:
            lowers.append(row)
        elif y > 0:
            uppers.append(row)
        else:
            out.append((row[0], row[2], row[3], row[4]))
    for xl, yl, nl, dl, sl in lowers:
        for xu, yu, nu, du, su in uppers:
            # -yl * upper + yu * lower cancels y
            out.append((xu * -yl + xl * yu, nu * dl * -yl + nl * du * yu, dl * du, sl or su))
    return out


def _fold(bounds: Iterable[tuple]) -> list[tuple] | None:
    """The interval of t the bounds allow; None if it is empty.

    The interval comes back as at most two bounds, -t <= ... for its lower
    end and t <= ... for its upper end.  Endpoints are compared by
    cross-multiplication.
    """
    lo = hi = None  # (num, den, strict): t >= num/den and t <= num/den
    for a, num, den, strict in bounds:
        if a > 0:
            den *= a
            if hi is None:
                hi = (num, den, strict)
            else:
                gap = num * hi[1] - hi[0] * den
                if gap < 0 or (gap == 0 and strict):
                    hi = (num, den, strict)
        elif a < 0:
            num, den = -num, -a * den
            if lo is None:
                lo = (num, den, strict)
            else:
                gap = num * lo[1] - lo[0] * den
                if gap > 0 or (gap == 0 and strict):
                    lo = (num, den, strict)
        elif num < 0 or (num == 0 and strict):
            return None
    out = []
    if lo is not None:
        if hi is not None:
            gap = hi[0] * lo[1] - lo[0] * hi[1]
            if gap < 0 or (gap == 0 and (lo[2] or hi[2])):
                return None
        out.append((-1, -lo[0], lo[1], lo[2]))
    if hi is not None:
        out.append((1, hi[0], hi[1], hi[2]))
    return out


def _b_interval(*groups: list[tuple]) -> list[tuple] | None:
    """The interval of b that the groups' shadows allow together; None if empty."""
    return _fold([bound for group in groups for bound in _shadow(group)])


def _alone_on_its_side(cons: Constraint, rest: list[Constraint]) -> bool:
    """Whether cons is the only constraint that bounds some unknown from its side.

    Then moving far enough that way from any solution of a feasible rest
    breaks cons alone, so rest does not imply it.
    """
    return any(
        a and all(other.coeffs[var] * a <= 0 for other in rest)
        for var, a in enumerate(cons.coeffs)
    )


def _irredundant(constraints: list[Constraint]) -> list[Constraint] | None:
    """Drop, one at a time, each constraint that the remaining ones imply.

    Returns None for an infeasible system.  A constraint is implied exactly
    when the others plus its negation are infeasible.  Only the constraint's
    own group differs in that test, so it is one shadow of that group,
    folded with the cached intervals of b that the other two groups allow;
    a group's interval is recomputed only when one of its constraints is
    dropped.  A constraint kept at its turn stays irredundant after later
    drops, since dropping only enlarges the solution set of the others.
    """
    kept = list(constraints)
    rows = [_row(cons) for cons in kept]
    members = _groups(rows)
    allowed = [_fold(_shadow(group)) for group in members]
    if None in allowed or _fold(allowed[0] + allowed[1] + allowed[2]) is None:
        return None
    i = 0
    while i < len(kept):
        cons = kept[i]
        rest = kept[:i] + kept[i + 1:]
        if _alone_on_its_side(cons, rest):
            i += 1
            continue
        group, row = rows[i]
        x, y, num, den, strict = row
        others = [other for other in members[group] if other is not row]
        negation = (-x, -y, -num, den, not strict)
        outside = [bound for g in range(3) if g != group for bound in allowed[g]]
        if _fold(outside + _shadow(others + [negation])) is not None:
            i += 1
        else:
            kept = rest
            del rows[i]
            members[group] = others
            allowed[group] = _fold(_shadow(others))
    return kept


_CONTRADICTION = Constraint((0,) * NUM_VARS, Fraction(-1), False)


@dataclass(frozen=True)
class LinearSystem3:
    constraints: tuple[Constraint, ...] = ()

    def extended(self, new: Iterable[Constraint]) -> "LinearSystem3":
        """The system with extra constraints, reduced to an irredundant one.

        Every constraint must involve (b, c), (b, cbar) or b alone; one that
        involves both c and cbar raises ValueError.  An infeasible result is
        the explicit contradiction 0 <= -1; otherwise every constraint
        implied by the others is dropped.  The solution set is unchanged
        either way.
        """
        deduped = _dedupe(self.constraints + tuple(new))
        kept = None if deduped is None else _irredundant(deduped)
        if kept is None:
            return LinearSystem3((_CONTRADICTION,))
        return LinearSystem3(tuple(kept))


def feasible(system: LinearSystem3) -> bool:
    """Whether some rational point satisfies every constraint.

    The system is feasible exactly when the interval of b its three groups
    allow is non-empty.  A constraint with both c and cbar raises ValueError.
    """
    return _b_interval(*_groups(map(_row, system.constraints))) is not None


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

    The system's constraints, and the functional, must not involve both c
    and cbar (ValueError otherwise).  The functional's last nonzero
    coordinate is replaced by u = functional via an exact change of
    variables, which keeps every constraint on (b, u), (b, cbar) or b alone.
    If u replaces b, its range is the interval of b.  Otherwise it is the
    shadow on u of u's group over the interval of b that the other two
    groups allow.  The zero functional's range is the point 0, on a system
    that Fourier-Motzkin elimination finds feasible.
    """
    f = [_as_fraction(a) for a in coeffs]
    if len(f) != NUM_VARS:
        raise ValueError(f"expected {NUM_VARS} coefficients, got {len(f)}")
    scale = lcm(*[a.denominator for a in f])
    fi = [int(a * scale) for a in f]  # u = scale * (f . x)
    if fi[1] and fi[2]:
        raise ValueError(f"functional {tuple(f)} involves both c and cbar")
    members = _groups(map(_row, system.constraints))

    if not any(fi):
        # the range is {0} on a feasible system.  This is the program's one
        # Fourier-Motzkin call: the benchmark's traced `fm_pairs` count (see
        # perfbench/layertrace.py) hooks `_eliminate`, and this question moves
        # to `_b_interval` when that count is re-pointed at the shadows
        if not _satisfiable(system.constraints):
            return None
        return Bound(Fraction(0), False, Fraction(0), False)

    pivot = 2 if fi[2] else 1 if fi[1] else 0
    p = fi[pivot]
    sgn = 1 if p > 0 else -1
    mag = abs(p)

    if pivot == 0:
        interval = _b_interval(*members)
        if interval is None:
            return None
        # u = p * b: a*b <= r becomes sgn*a*u <= mag*r
        u_range = _fold([(sgn * a, mag * num, den, strict)
                         for a, num, den, strict in interval])
    else:
        interval = _b_interval(members[0], members[3 - pivot])
        if interval is None:
            return None
        # in u's group, substitute x_pivot = (u - fi[0]*b) / p, scaled by |p|;
        # each row reads (coefficient of u, coefficient of b), and eliminating
        # b against the interval of b leaves the bounds on u
        rows = [(sgn * y, mag * x - sgn * y * fi[0], mag * num, den, strict)
                for x, y, num, den, strict in members[pivot]]
        rows += [(0, a, num, den, strict) for a, num, den, strict in interval]
        u_range = _fold(_shadow(rows))
    if u_range is None:
        return None

    lo: Fraction | None = None
    lo_strict = False
    hi: Fraction | None = None
    hi_strict = False
    # u was scale * (f . x): rescale back
    for a, num, den, strict in u_range:
        if a < 0:
            lo, lo_strict = Fraction(-num, den * scale), strict
        else:
            hi, hi_strict = Fraction(num, den * scale), strict
    return Bound(lo, lo_strict, hi, hi_strict)


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
