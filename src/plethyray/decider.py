"""Decide 1-D representability of integer-valued quasi-polynomials.

Given a degree <= 1, integer-valued, nonnegative quasi-polynomial q, decide
whether q is the counting function of the dilations of a one-dimensional
inhomogeneous rational interval family [s*b + c, s*bbar + cbar] (or, in the
homogeneous variant, of a genuine dilating interval [s*beta, s*betabar]).

Nonexistence is established by branch-and-prune over the unknowns
(b, c, cbar): the value q(s) forces, for some integer m = ceil(s*b + c),
exact rational constraints on the endpoints; when every branch is infeasible
the accumulated trace is a replayable certificate.  Existence is established
by searching slopes on a rational grid, pinning b, and certifying a sampled
witness by exact periodic counting.  When neither side concludes, the
verdict is an honest "unknown".

The witness search runs first and is fast (pinned slopes decouple the
offsets into interval arithmetic).  In the nonexistence search every
constraint has integer coefficients on (b, c), (b, cbar) or b alone, so
every feasibility question, from the initial box on, is settled on one
exact interval of b (see feasibility).  Every branch system is kept
irredundant, so its size stays bounded (at most 8 constraints on the stress
ladder up to period 30) instead of growing with the window; the work is the
number of branches times a few small integer shadows.  Inputs that are in
fact not representable tend to empty the disjunction within the first
period or two.  s_max must be at least 1 in both forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, lcm
from typing import NamedTuple

from .feasibility import (
    Bound,
    Constraint,
    LinearSystem3,
    _pick_in_bound,
    feasible,
    functional_bound,
    make_constraint,
)
from .intervals import ShiftedIntervalFamily, count, periodic_count_qp
from .quasipoly import (
    QuasiPolynomial,
    format_rational,
    growth_rate,
    parse_rational,
    reciprocity_violations,
    same_function,
)

INHOMOGENEOUS = "inhomogeneous"
HOMOGENEOUS = "homogeneous"

REPRESENTABLE = "representable"
NOT_REPRESENTABLE = "not_representable"
UNKNOWN = "unknown"


class CertStep(NamedTuple):
    s: int
    count: int
    parent: int
    m: int
    status: str  # "feasible" | "infeasible"
    child: int | None

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "N": self.count,
            "m": self.m,
            "status": self.status,
            "parent": self.parent,
            "child": self.child,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CertStep":
        return cls(
            int(data["s"]),
            int(data["N"]),
            int(data["parent"]),
            int(data["m"]),
            str(data["status"]),
            None if data.get("child") is None else int(data["child"]),
        )


@dataclass(frozen=True)
class Certificate:
    """Replayable evidence for a not_representable verdict."""

    kind: str  # "branch" | "slope" | "reciprocity"
    form: str  # "inhomogeneous" | "homogeneous"
    period: int
    s_max: int
    growth: Fraction | None
    steps: tuple[CertStep, ...] = ()
    final_s: int | None = None
    violating_s: int | None = None
    note: str = ""

    def meta_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "form": self.form,
            "period": self.period,
            "s_max": self.s_max,
            "growth": None if self.growth is None else format_rational(self.growth),
            "final_s": self.final_s,
            "violating_s": self.violating_s,
            "note": self.note,
        }

    @classmethod
    def from_json(cls, steps: list[dict], meta: dict) -> "Certificate":
        return cls(
            kind=str(meta["kind"]),
            form=str(meta["form"]),
            period=int(meta["period"]),
            s_max=int(meta["s_max"]),
            growth=None if meta.get("growth") is None else parse_rational(meta["growth"]),
            steps=tuple(CertStep.from_json_dict(step) for step in steps),
            final_s=None if meta.get("final_s") is None else int(meta["final_s"]),
            violating_s=None if meta.get("violating_s") is None else int(meta["violating_s"]),
            note=str(meta.get("note", "")),
        )


@dataclass(frozen=True)
class DecisionOutcome:
    verdict: str
    witness: ShiftedIntervalFamily | None = None
    certificate: Certificate | None = None
    reason: str | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        if self.certificate is not None:
            out["certificate"] = [step.to_json_dict() for step in self.certificate.steps]
            out["certificate_meta"] = self.certificate.meta_json_dict()
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "DecisionOutcome":
        witness = None
        if "witness" in data:
            witness = ShiftedIntervalFamily.from_json_dict(data["witness"])
        certificate = None
        if "certificate" in data:
            certificate = Certificate.from_json(data["certificate"], data["certificate_meta"])
        return cls(str(data["verdict"]), witness, certificate, data.get("reason"))


def _initial_system(form: str) -> LinearSystem3:
    cons = [
        make_constraint((-1, 0, 0), 0),  # b >= 0
        make_constraint((1, 0, 0), 1, strict=True),  # b < 1
    ]
    if form == INHOMOGENEOUS:
        cons.append(make_constraint((0, -1, 0), 0, strict=True))  # c > 0
        cons.append(make_constraint((0, 1, 0), 1))  # c <= 1
    else:
        cons.append(make_constraint((0, 1, 0), 0))  # c == 0
        cons.append(make_constraint((0, -1, 0), 0))
        cons.append(make_constraint((0, 0, 1), 0))  # cbar == 0
        cons.append(make_constraint((0, 0, -1), 0))
    # distinct directions, none implied by the others: already irredundant
    return LinearSystem3(tuple(cons))


def _lower_coeffs(form: str, s: int) -> tuple[int, int, int]:
    return (s, 1, 0) if form == INHOMOGENEOUS else (s, 0, 0)


def _upper_coeffs(form: str, s: int) -> tuple[int, int, int]:
    return (s, 0, 1) if form == INHOMOGENEOUS else (s, 0, 0)


def _branch_constraints(
    form: str, s: int, target: int, m: int, growth: Fraction
) -> list[Constraint]:
    """Constraints forced by 'the dilation at s holds exactly target integers'
    under the branch choice m = ceil of the lower endpoint.

    The upper endpoint is s*b + cbar + s*growth (the slope gap equals the
    quasi-polynomial's growth rate), so s*growth moves to the right-hand side.
    Every constraint is a logical consequence of the count data and the branch
    choice, which is what makes an emptied disjunction a proof.
    """
    lo = _lower_coeffs(form, s)
    up = _upper_coeffs(form, s)
    shift = s * growth
    cons = [
        make_constraint(lo, m),  # lower <= m
        make_constraint(tuple(-a for a in lo), -(m - 1), strict=True),  # lower > m-1
    ]
    if target >= 1:
        # floor(upper) = m + target - 1
        cons.append(make_constraint(tuple(-a for a in up), -(m + target - 1) + shift))
        cons.append(make_constraint(up, m + target - shift, strict=True))
    else:
        cons.append(make_constraint(up, m - shift, strict=True))  # upper < m
    return cons


def _m_range(system: LinearSystem3, form: str, s: int) -> list[int] | None:
    """All integers m that can equal ceil of the lower endpoint; None if infeasible.

    Exact by construction: the functional's range over the polyhedron is
    computed exactly, with strictness tracking.
    """
    bound = functional_bound(system, _lower_coeffs(form, s))
    if bound is None:
        return None
    lo, lo_strict, hi, _ = bound
    if lo is None or hi is None:
        raise AssertionError("lower endpoint must be bounded under the normalizations")
    if lo_strict and lo.denominator == 1:
        m_min = int(lo) + 1
    else:
        m_min = ceil(lo)
    m_max = ceil(hi)
    return list(range(m_min, m_max + 1))


def _phase_n(
    q: QuasiPolynomial, form: str, growth: Fraction, s_max: int
) -> tuple[list[LinearSystem3], list[CertStep], int]:
    """Branch-and-prune over s = 0..s_max; empty survivor list proves nonexistence."""
    systems = [_initial_system(form)]
    steps: list[CertStep] = []
    for s in range(s_max + 1):
        target = q.eval_int(s)
        new_systems: list[LinearSystem3] = []
        for parent, sys in enumerate(systems):
            for m in _m_range(sys, form, s):
                child = sys.extended(_branch_constraints(form, s, target, m, growth))
                ok = feasible(child)
                steps.append(
                    CertStep(s, target, parent, m, "feasible" if ok else "infeasible",
                             len(new_systems) if ok else None)
                )
                if ok:
                    new_systems.append(child)
        systems = new_systems
        if not systems:
            return [], steps, s
    return systems, steps, s_max


def _first_all_positive(q: QuasiPolynomial, growth: Fraction) -> int:
    """Least s1 with q(s) >= 1 for every s >= s1 (0 for constant-growth-0 input).

    Row j is r0 + growth*s on s = j + p*t, t >= 0; with growth > 0 it first
    reaches 1 at the least t with growth*(j + p*t) >= 1 - r0.
    """
    if growth == 0:
        return 0
    p = q.period
    return max(
        j + p * max(0, ceil((1 - row[0] - growth * j) / (growth * p)))
        for j, row in enumerate(q.rows)
    )


def _intersect(a: Bound, b: Bound) -> Bound | None:
    """Intersection of two rational intervals with open/closed endpoints."""
    lo, lo_strict = a.lo, a.lo_strict
    if b.lo is not None and (lo is None or b.lo > lo or (b.lo == lo and b.lo_strict)):
        lo, lo_strict = b.lo, b.lo_strict
    hi, hi_strict = a.hi, a.hi_strict
    if b.hi is not None and (hi is None or b.hi < hi or (b.hi == hi and b.hi_strict)):
        hi, hi_strict = b.hi, b.hi_strict
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            return None
    return Bound(lo, lo_strict, hi, hi_strict)


def _phase_e(
    q: QuasiPolynomial,
    form: str,
    growth: Fraction,
    denom_multiplier: int,
) -> ShiftedIntervalFamily | None:
    """Search witness slopes b = j/(p*denom_multiplier); certify before returning.

    With the slope pinned, no constraint couples the two offsets: every branch
    is a product of a c-interval and a cbar-interval, so the search is plain
    exact interval arithmetic.  Branches at count 0 additionally pin the raw
    count to 0, which keeps the sampled family periodically certifiable.

    Every endpoint is a multiple of 1/unit, so the boxes hold integers in
    units of 1/unit and only the surviving ones become Fractions.
    """
    p = q.period
    grid = p * denom_multiplier
    unit = lcm(grid, growth.denominator)
    rise = growth.numerator * (unit // growth.denominator)  # growth in units
    s1 = _first_all_positive(q, growth)
    targets: list[int] = []  # q(s), evaluated once per s for all slopes
    # coarse slopes first: small certification periods have short windows and
    # cover every family certifiable at the declared period
    candidates = sorted(range(grid), key=lambda j: (lcm(p, grid // gcd(j, grid)), j))
    for j in candidates:
        b0 = Fraction(j, grid)
        slope = j * (unit // grid)  # b0 in units
        p_prime = lcm(p, b0.denominator)
        window = max(2 * p_prime, s1 + p_prime)
        if form == INHOMOGENEOUS:
            boxes = [(Bound(0, True, unit, False), Bound(None, False, None, False))]
        else:
            boxes = [(Bound(0, False, 0, False), Bound(0, False, 0, False))]
        for s in range(window + 1):
            if s == len(targets):
                targets.append(q.eval_int(s))
            target = targets[s]
            lift = s * slope
            new_boxes = []
            for c_int, cbar_int in boxes:
                low = lift + c_int.lo
                if c_int.lo_strict and low % unit == 0:
                    m_min = low // unit + 1
                else:
                    m_min = -(-low // unit)
                for m in range(m_min, -(-(lift + c_int.hi) // unit) + 1):
                    top = m * unit - lift
                    new_c = _intersect(c_int, Bound(top - unit, True, top, False))
                    if new_c is None:
                        continue
                    # floor(upper endpoint) = m + target - 1; at target 0 this
                    # pins the raw count to exactly 0 (strengthened zero branch)
                    base = top + (target - 1) * unit - s * rise
                    new_cbar = _intersect(cbar_int, Bound(base, False, base + unit, True))
                    if new_cbar is None:
                        continue
                    new_boxes.append((new_c, new_cbar))
            boxes = new_boxes
            if not boxes:
                break
        for c_int, cbar_int in boxes:
            c_val = _pick_in_bound(_in_fractions(c_int, unit))
            cbar_val = _pick_in_bound(_in_fractions(cbar_int, unit))
            fam = ShiftedIntervalFamily(b0, c_val, b0 + growth, cbar_val)
            qp = periodic_count_qp(fam, p_prime)
            if not isinstance(qp, QuasiPolynomial) or not same_function(qp, q):
                continue
            if all(count(fam, t) == q.eval_int(t) for t in range(2 * max(p, p_prime) + 1)):
                return fam
    return None


def _in_fractions(bound: Bound, unit: int) -> Bound:
    """A bound held in integer units of 1/unit, as Fractions."""
    lo, lo_strict, hi, hi_strict = bound
    return Bound(
        None if lo is None else Fraction(lo, unit),
        lo_strict,
        None if hi is None else Fraction(hi, unit),
        hi_strict,
    )


def _validate_input(q: QuasiPolynomial, s_max: int) -> None:
    if q.degree > 1:
        raise ValueError(
            "decider handles degree <= 1 quasi-polynomials only "
            "(higher growth needs polytopes of dimension > 1)"
        )
    for s in range(s_max + 1):
        value = q.eval(s)
        if value.denominator != 1:
            raise ValueError(f"q({s}) = {value} is not an integer")
        if value < 0:
            raise ValueError(f"q({s}) = {value} < 0 cannot be a counting function")


def _decide(
    q: QuasiPolynomial, form: str, s_max: int | None, denom_multiplier: int
) -> DecisionOutcome:
    if s_max is None:
        s_max = 4 * q.period
    if s_max < 1:
        raise ValueError("s_max must be positive")
    if denom_multiplier < 1:
        raise ValueError("denom_multiplier must be positive")
    _validate_input(q, s_max)

    if form == HOMOGENEOUS:
        violations = reciprocity_violations(q, s_max)
        if violations:
            cert = Certificate(
                kind="reciprocity",
                form=form,
                period=q.period,
                s_max=s_max,
                growth=None,
                violating_s=violations[0],
                note=f"|q(-{violations[0]})| > q({violations[0]}) violates Ehrhart-Macdonald reciprocity",
            )
            return DecisionOutcome(NOT_REPRESENTABLE, certificate=cert)

    growth = growth_rate(q)
    if growth is None or growth < 0:
        note = (
            "residue rows grow at different linear rates"
            if growth is None
            else f"negative growth rate {growth}"
        )
        cert = Certificate(
            kind="slope", form=form, period=q.period, s_max=s_max, growth=growth, note=note
        )
        return DecisionOutcome(NOT_REPRESENTABLE, certificate=cert)

    witness = _phase_e(q, form, growth, denom_multiplier)
    if witness is not None:
        return DecisionOutcome(REPRESENTABLE, witness=witness)

    survivors, steps, last_s = _phase_n(q, form, growth, s_max)
    if not survivors:
        cert = Certificate(
            kind="branch",
            form=form,
            period=q.period,
            s_max=s_max,
            growth=growth,
            steps=tuple(steps),
            final_s=last_s,
            note=f"all branches infeasible at s={last_s}",
        )
        return DecisionOutcome(NOT_REPRESENTABLE, certificate=cert)

    return DecisionOutcome(
        UNKNOWN,
        reason=(
            f"no witness with slope denominator dividing {q.period * denom_multiplier}; "
            f"constraints consistent through s={s_max}"
        ),
    )


def decide_inhomogeneous_1d(
    q: QuasiPolynomial, s_max: int | None = None, denom_multiplier: int = 4
) -> DecisionOutcome:
    """Is q the counting function of dilations [s*b + c, s*bbar + cbar]?"""
    return _decide(q, INHOMOGENEOUS, s_max, denom_multiplier)


def decide_homogeneous_1d(
    q: QuasiPolynomial, s_max: int | None = None, denom_multiplier: int = 4
) -> DecisionOutcome:
    """Is q the Ehrhart function of a genuine dilating interval [s*beta, s*betabar]?

    Runs the reciprocity necessary condition first; a violation short-circuits
    to not_representable.  The interval is normalized to beta in [0,1) -- an
    integer shift of beta moves every dilation by an integer and cannot change
    the count.
    """
    return _decide(q, HOMOGENEOUS, s_max, denom_multiplier)


# --- certificate replay ----------------------------------------------------
#
# The replayer rebuilds everything from (q, the recorded branch integers)
# alone, on purpose sharing only the feasibility primitives with the decider:
# constraint construction is duplicated below so that a bug in the decider's
# builder cannot silently validate its own certificates.


def _replay_initial(form: str) -> LinearSystem3:
    cons = [
        make_constraint((-1, 0, 0), 0),
        make_constraint((1, 0, 0), 1, strict=True),
    ]
    if form == INHOMOGENEOUS:
        cons += [
            make_constraint((0, -1, 0), 0, strict=True),
            make_constraint((0, 1, 0), 1),
        ]
    else:
        cons += [
            make_constraint((0, 1, 0), 0),
            make_constraint((0, -1, 0), 0),
            make_constraint((0, 0, 1), 0),
            make_constraint((0, 0, -1), 0),
        ]
    return LinearSystem3(tuple(cons))


def _replay_branch(form: str, s: int, target: int, m: int, growth: Fraction) -> list[Constraint]:
    if form == INHOMOGENEOUS:
        low = (s, 1, 0)
        upp = (s, 0, 1)
    else:
        low = (s, 0, 0)
        upp = (s, 0, 0)
    sg = s * growth
    out = [
        make_constraint(low, m),
        make_constraint(tuple(-a for a in low), 1 - m, strict=True),
    ]
    if target >= 1:
        out.append(make_constraint(tuple(-a for a in upp), sg - (m + target - 1)))
        out.append(make_constraint(upp, (m + target) - sg, strict=True))
    else:
        out.append(make_constraint(upp, m - sg, strict=True))
    return out


def replay_certificate(cert: Certificate, q: QuasiPolynomial) -> bool:
    """Independently re-derive a certificate; True only for a valid proof.

    Branch certificates are replayed step by step: branch integers must
    exhaust the exact range of ceil(lower endpoint) over every surviving
    system, every recorded status must match a fresh feasibility check, and
    the final disjunction must be empty.  Any mismatch, gap, or malformed
    trace yields False; an error in the replayer itself propagates.
    """
    if cert.form not in (INHOMOGENEOUS, HOMOGENEOUS):
        return False
    try:
        if cert.kind == "slope":
            if q.degree > 1:
                return False
            g = growth_rate(q)
            return g is None or g < 0
        if cert.kind == "reciprocity":
            if cert.form != HOMOGENEOUS or cert.violating_s is None:
                return False
            s = cert.violating_s
            return s >= 1 and abs(q.eval_int(-s)) > q.eval_int(s)
        if cert.kind != "branch":
            return False

        if q.degree > 1:
            return False
        growth = growth_rate(q)
        if growth is None or growth < 0:
            return False  # should have been a slope certificate
        if cert.growth != growth or cert.final_s is None or not cert.steps:
            return False

        by_s: dict[int, list[CertStep]] = {}
        for step in cert.steps:
            by_s.setdefault(step.s, []).append(step)
        if sorted(by_s) != list(range(cert.final_s + 1)):
            return False

        systems = [_replay_initial(cert.form)]
        for s in range(cert.final_s + 1):
            target = q.eval_int(s)
            recorded = by_s[s]
            if any(step.count != target for step in recorded):
                return False
            by_parent: dict[int, list[CertStep]] = {}
            for step in recorded:
                by_parent.setdefault(step.parent, []).append(step)
            if sorted(by_parent) != list(range(len(systems))):
                return False  # some surviving system was not branched on
            new_systems: list[LinearSystem3] = []
            for parent, sys in enumerate(systems):
                bound = functional_bound(sys, _lower_coeffs(cert.form, s))
                if bound is None or bound.lo is None or bound.hi is None:
                    return False
                if bound.lo_strict and bound.lo.denominator == 1:
                    m_min = int(bound.lo) + 1
                else:
                    m_min = ceil(bound.lo)
                m_max = ceil(bound.hi)
                steps_here = by_parent[parent]
                if [step.m for step in steps_here] != list(range(m_min, m_max + 1)):
                    return False  # enumeration not exhaustive (or reordered)
                for step in steps_here:
                    child = sys.extended(
                        _replay_branch(cert.form, s, target, step.m, growth)
                    )
                    ok = feasible(child)
                    if ok != (step.status == "feasible"):
                        return False
                    if ok:
                        if step.child != len(new_systems):
                            return False
                        new_systems.append(child)
                    elif step.child is not None:
                        return False
            systems = new_systems
        return not systems
    except ValueError:  # malformed input, e.g. a non-integer value of q
        return False
