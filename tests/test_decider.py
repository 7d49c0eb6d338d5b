import hashlib
import json
import random

import pytest
from dataclasses import replace
from fractions import Fraction
from math import ceil, lcm

from plethyray import (
    DecisionOutcome,
    QuasiPolynomial,
    ShiftedIntervalFamily,
    count,
    decide_homogeneous_1d,
    decide_inhomogeneous_1d,
    fit,
    periodic_count_qp,
    phi_reference,
    replay_certificate,
)
from plethyray import decider
from plethyray.cli import main
from plethyray import feasibility
from plethyray.decider import (
    HOMOGENEOUS,
    INHOMOGENEOUS,
    _first_all_positive,
    _initial_system,
    _intersect,
    _phase_e,
    _replay_branch,
    _replay_initial,
)
from plethyray.feasibility import (
    Bound,
    Constraint,
    LinearSystem3,
    feasible,
    functional_bound,
    make_constraint,
)
from plethyray.quasipoly import growth_rate, same_function


def third_half_qp():
    return fit([(s, s // 2 - (-(-s // 3)) + 1) for s in range(24)], 6, 1)


PARITY = QuasiPolynomial(2, [[1], [0]])


def ladder_qp(p):
    """The stress input: [s/p + 1/2, 3s/p + 3/4] with 1 added to its last residue row."""
    family = ShiftedIntervalFamily(
        Fraction(1, p), Fraction(1, 2), Fraction(3, p), Fraction(3, 4))
    rows = [list(row) for row in periodic_count_qp(family, p).rows]
    rows[p - 1][0] += 1
    return QuasiPolynomial(p, rows)


def fuzzed_quasipolynomials():
    """Arbitrary integer-valued nonnegative degree <= 1 inputs."""
    rng = random.Random(777)
    for _ in range(40):
        p = rng.randrange(1, 7)
        growth = Fraction(rng.randrange(0, 2 * p + 1), p)
        values = [rng.randrange(0, 5) for _ in range(p)]
        yield QuasiPolynomial(
            p, [[values[j] - j * growth, growth] for j in range(p)]
        )


def bumped_planted_families():
    """Seeded period-p families, inhomogeneous and homogeneous, with one residue row raised by 1."""
    rng = random.Random(2015)
    out = []
    while len(out) < 40:
        p = rng.choice([1, 2, 3, 4, 6, 8, 12])
        b = Fraction(rng.randrange(0, p), p)
        gap = Fraction(rng.randrange(0, p + 1), p)
        if len(out) % 2:
            c = cbar = Fraction(0)
        else:
            c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 7))
            cbar = c + Fraction(rng.randrange(0, 13), rng.randrange(1, 7))
        qp = periodic_count_qp(ShiftedIntervalFamily(b, c, b + gap, cbar), p)
        if not isinstance(qp, QuasiPolynomial) or any(qp.eval(s) < 0 for s in range(p)):
            continue
        rows = [list(row) for row in qp.rows]
        rows[rng.randrange(p)][0] += 1
        out.append(QuasiPolynomial(p, rows))
    return out


def surviving_systems(q, steps):
    """The feasible branch systems at each s, rebuilt from a certificate's steps."""
    growth = growth_rate(q)
    systems = [_replay_initial(INHOMOGENEOUS)]
    out = [systems]
    for s in range(max(st.s for st in steps) + 1):
        by_parent = {}
        for st in steps:
            if st.s == s and st.status == "feasible":
                by_parent.setdefault(st.parent, []).append(st.m)
        systems = [
            sys.extended(_replay_branch(INHOMOGENEOUS, s, q.eval_int(s), m, growth))
            for parent, sys in enumerate(systems)
            for m in by_parent.get(parent, [])
        ]
        out.append(systems)
    return out


# --- feasibility primitives -------------------------------------------------


def normalization_box():
    return LinearSystem3().extended([
        make_constraint((-1, 0, 0), 0),
        make_constraint((1, 0, 0), 1, strict=True),
        make_constraint((0, -1, 0), 0, strict=True),
        make_constraint((0, 1, 0), 1),
    ])


def test_feasible_normalization_box():
    assert feasible(normalization_box())


def test_infeasible_split_point():
    sys = LinearSystem3().extended([
        make_constraint((1, 0, 0), Fraction(2, 3), strict=True),
        make_constraint((-1, 0, 0), Fraction(-2, 3)),
    ])
    assert not feasible(sys)


def test_known_landmark_system_infeasible():
    # normalizations, the s=0 and s=1 consequences, and the branch
    # "6 is in the 5th dilation": 5b+c > 5, 4b+c > 4, 4b + cbar >= 14/3,
    # with b + cbar <= 5/3 forces 3b >= 3, contradicting b < 1
    sys = normalization_box().extended([
        make_constraint((0, 0, -1), -1),
        make_constraint((0, 0, 1), 2, strict=True),
        make_constraint((-5, -1, 0), -5, strict=True),
        make_constraint((-4, -1, 0), -4, strict=True),
        make_constraint((-4, 0, -1), Fraction(-14, 3)),
        make_constraint((1, 0, 1), Fraction(5, 3)),
    ])
    assert not feasible(sys)


def test_functional_bound_tracks_strictness():
    box = normalization_box()
    bound = functional_bound(box, (0, 1, 0))
    assert (bound.lo, bound.lo_strict, bound.hi, bound.hi_strict) == (0, True, 1, False)
    bound = functional_bound(box, (1, 1, 0))
    assert (bound.lo, bound.lo_strict, bound.hi, bound.hi_strict) == (0, True, 2, True)


def test_functional_bound_infeasible_is_none():
    sys = LinearSystem3().extended([
        make_constraint((1, 0, 0), 0, strict=True),
        make_constraint((-1, 0, 0), 0),
    ])
    assert functional_bound(sys, (1, 0, 0)) is None


# --- the headline decisions -------------------------------------------------


def test_phi_not_representable_inhomogeneous():
    phi = phi_reference()
    out = decide_inhomogeneous_1d(phi, s_max=24, denom_multiplier=4)
    assert out.verdict == "not_representable"
    cert = out.certificate
    assert cert.kind == "branch"
    assert cert.final_s == 6  # the disjunction empties at the 6th dilation
    assert replay_certificate(cert, phi)


def test_phi_certificate_branch_structure():
    phi = phi_reference()
    out = decide_inhomogeneous_1d(phi)
    steps = out.certificate.steps
    # s=0 pins a single branch m=1 (the single integer in the 0th dilation is 1,
    # bounding 1 <= cbar < 2); s=1 with value 0 forces 1 < b+c (m=1 dies, m=2 lives)
    assert [st.m for st in steps if st.s == 0] == [1]
    assert [(st.m, st.status) for st in steps if st.s == 1] == [
        (1, "infeasible"), (2, "feasible")]
    # every branch at the final step s=6 (three integers in the 6th dilation)
    # is infeasible
    final = [st for st in steps if st.s == 6]
    assert final and all(st.status == "infeasible" for st in final)

    # rebuild the two branches surviving s=5: the slope is pinned into two
    # disjoint windows with upper endpoints 4/15 and 7/15
    systems = surviving_systems(phi, steps)[6]
    assert len(systems) == 2
    ranges = sorted(
        (functional_bound(sys, (1, 0, 0)).lo, functional_bound(sys, (1, 0, 0)).hi)
        for sys in systems
    )
    assert ranges == [
        (Fraction(1, 5), Fraction(4, 15)),
        (Fraction(2, 5), Fraction(7, 15)),
    ]


def test_phi_not_representable_homogeneous_via_reciprocity():
    phi = phi_reference()
    out = decide_homogeneous_1d(phi, s_max=24, denom_multiplier=4)
    assert out.verdict == "not_representable"
    assert out.certificate.kind == "reciprocity"
    assert out.certificate.violating_s == 1
    assert replay_certificate(out.certificate, phi)


def test_third_half_interval_representable_inhomogeneous():
    q = third_half_qp()
    out = decide_inhomogeneous_1d(q, s_max=24, denom_multiplier=4)
    assert out.verdict == "representable"
    # equivalent to (1/3, 1, 1/2, 1) up to an integral shift: slopes match and
    # the counting function is reproduced exactly
    assert (out.witness.b, out.witness.bbar) == (Fraction(1, 3), Fraction(1, 2))
    for s in range(25):
        assert count(out.witness, s) == q.eval(s)


def test_third_half_interval_representable_homogeneous():
    q = third_half_qp()
    out = decide_homogeneous_1d(q)
    assert out.verdict == "representable"
    assert (out.witness.b, out.witness.c, out.witness.bbar, out.witness.cbar) == (
        Fraction(1, 3), 0, Fraction(1, 2), 0)


def test_constant_one_representable():
    out = decide_inhomogeneous_1d(QuasiPolynomial.constant(1), s_max=12, denom_multiplier=1)
    assert out.verdict == "representable"
    for s in range(13):
        assert count(out.witness, s) == 1


def test_parity_representable_both_forms():
    inhom = decide_inhomogeneous_1d(PARITY, s_max=8)
    assert inhom.verdict == "representable"
    homog = decide_homogeneous_1d(PARITY, s_max=8)
    assert homog.verdict == "representable"
    # the homogeneous witness degenerates to the point polytope {1/2}
    assert homog.witness.b == homog.witness.bbar == Fraction(1, 2)
    assert homog.witness.c == homog.witness.cbar == 0
    for s in range(13):
        assert count(homog.witness, s) == (1 if s % 2 == 0 else 0)


def test_constant_two_homogeneous_impossible():
    # the 0th dilation of any homogeneous interval holds exactly one integer
    out = decide_homogeneous_1d(QuasiPolynomial.constant(2), s_max=8)
    assert out.verdict == "not_representable"
    assert out.certificate.kind == "branch"
    assert out.certificate.final_s == 0
    assert replay_certificate(out.certificate, QuasiPolynomial.constant(2))


def test_constant_two_inhomogeneous_fine():
    out = decide_inhomogeneous_1d(QuasiPolynomial.constant(2), s_max=8)
    assert out.verdict == "representable"


def test_slope_certificates():
    mixed = QuasiPolynomial(2, [[0, 1], [0, 2]])
    out = decide_inhomogeneous_1d(mixed, s_max=8)
    assert out.verdict == "not_representable"
    assert out.certificate.kind == "slope"
    assert replay_certificate(out.certificate, mixed)

    decreasing = QuasiPolynomial(1, [[10, -1]])
    out = decide_inhomogeneous_1d(decreasing, s_max=4)
    assert out.verdict == "not_representable"
    assert out.certificate.kind == "slope"
    assert replay_certificate(out.certificate, decreasing)


def test_unknown_when_search_space_exhausted():
    out = decide_inhomogeneous_1d(phi_reference(), s_max=4, denom_multiplier=1)
    assert out.verdict == "unknown"
    assert "denominator dividing 6" in out.reason
    assert "s=4" in out.reason


def test_input_validation():
    with pytest.raises(ValueError):
        decide_inhomogeneous_1d(QuasiPolynomial(1, [[0, 0, 1]]))  # degree 2
    with pytest.raises(ValueError):
        decide_inhomogeneous_1d(QuasiPolynomial(1, [[Fraction(1, 2)]]))  # non-integer
    with pytest.raises(ValueError):
        decide_inhomogeneous_1d(QuasiPolynomial(1, [[-1]]))  # negative value
    with pytest.raises(ValueError):
        decide_inhomogeneous_1d(phi_reference(), denom_multiplier=0)


# --- certificates: replay, tampering, determinism ---------------------------


def test_replay_rejects_deleted_branch():
    phi = phi_reference()
    cert = decide_inhomogeneous_1d(phi).certificate
    for drop in (0, len(cert.steps) // 2, len(cert.steps) - 1):
        tampered = replace(
            cert, steps=tuple(st for i, st in enumerate(cert.steps) if i != drop)
        )
        assert replay_certificate(tampered, phi) is False


def test_replay_rejects_modified_branch_integer():
    phi = phi_reference()
    cert = decide_inhomogeneous_1d(phi).certificate
    step = cert.steps[-1]
    tampered = replace(
        cert, steps=cert.steps[:-1] + (step._replace(m=step.m + 1),)
    )
    assert replay_certificate(tampered, phi) is False


def test_replay_rejects_flipped_status():
    phi = phi_reference()
    cert = decide_inhomogeneous_1d(phi).certificate
    flipped = []
    for st in cert.steps:
        if st.status == "infeasible":
            flipped.append(st._replace(status="feasible", child=0))
        else:
            flipped.append(st)
    tampered = replace(cert, steps=tuple(flipped))
    assert replay_certificate(tampered, phi) is False


def test_replay_rejects_empty_trace():
    phi = phi_reference()
    cert = decide_inhomogeneous_1d(phi).certificate
    assert replay_certificate(replace(cert, steps=()), QuasiPolynomial.constant(1)) is False


def test_replay_rejects_wrong_quasipolynomial():
    phi = phi_reference()
    cert = decide_inhomogeneous_1d(phi).certificate
    assert replay_certificate(cert, QuasiPolynomial.constant(1)) is False


def test_replay_rejects_non_integer_values():
    phi = phi_reference()
    cert = decide_inhomogeneous_1d(phi).certificate
    shifted = phi + QuasiPolynomial.constant(Fraction(1, 2))
    assert replay_certificate(cert, shifted) is False


def test_replay_rejects_unknown_form():
    two = QuasiPolynomial.constant(2)
    homog = decide_homogeneous_1d(two, s_max=8).certificate
    assert homog.kind == "branch" and replay_certificate(homog, two)
    assert replay_certificate(replace(homog, form="bogus"), two) is False
    phi = phi_reference()
    inhom = decide_inhomogeneous_1d(phi).certificate
    assert inhom.form == INHOMOGENEOUS and replay_certificate(inhom, phi)
    mixed = QuasiPolynomial(2, [[0, 1], [0, 2]])
    slope = decide_inhomogeneous_1d(mixed, s_max=8).certificate
    assert slope.kind == "slope" and replay_certificate(slope, mixed)
    assert replay_certificate(replace(slope, form="bogus"), mixed) is False


def test_replay_lets_internal_errors_through(monkeypatch):
    # a fault in the replayer must not read as a rejected proof
    phi = phi_reference()
    cert = decide_inhomogeneous_1d(phi).certificate

    def broken(system):
        raise RuntimeError("feasibility fault")

    monkeypatch.setattr(decider, "feasible", broken)
    with pytest.raises(RuntimeError, match="feasibility fault"):
        replay_certificate(cert, phi)


def test_certificates_are_deterministic():
    phi = phi_reference()
    a = decide_inhomogeneous_1d(phi, s_max=24, denom_multiplier=4).to_json_dict()
    b = decide_inhomogeneous_1d(phi, s_max=24, denom_multiplier=4).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_outcome_json_round_trip():
    phi = phi_reference()
    out = decide_inhomogeneous_1d(phi)
    data = json.loads(json.dumps(out.to_json_dict()))
    assert data["verdict"] == "not_representable"
    back = DecisionOutcome.from_json_dict(data)
    assert back.certificate == out.certificate
    assert replay_certificate(back.certificate, phi)

    rep = decide_inhomogeneous_1d(third_half_qp())
    data = json.loads(json.dumps(rep.to_json_dict()))
    back = DecisionOutcome.from_json_dict(data)
    assert back.witness == rep.witness


def test_fuzzed_quasipolynomials_decide_coherently():
    # every verdict must be internally consistent and cross-form coherent
    for q in fuzzed_quasipolynomials():
        inhom = decide_inhomogeneous_1d(q)
        homog = decide_homogeneous_1d(q)
        for out in (inhom, homog):
            assert out.verdict in ("representable", "not_representable", "unknown")
            if out.verdict == "representable":
                horizon = 2 * max(q.period, out.witness.b.denominator * q.period) + 1
                for s in range(horizon):
                    assert count(out.witness, s) == q.eval(s)
            if out.verdict == "not_representable":
                assert replay_certificate(out.certificate, q)
        # a homogeneous interval shifted by 1 is an inhomogeneous witness,
        # so homogeneous-representable forces inhomogeneous-representable
        if homog.verdict == "representable":
            assert inhom.verdict == "representable"
        if inhom.verdict == "not_representable":
            assert homog.verdict != "representable"


def test_round_trip_random_families():
    rng = random.Random(55)
    produced = 0
    while produced < 25:
        p = rng.choice([1, 2, 3, 4, 6, 12])
        b = Fraction(rng.randrange(0, p), p)
        gap = Fraction(rng.randrange(0, p + 1), p)
        c = Fraction(rng.randrange(-12, 13), rng.randrange(1, 13))
        cbar = c + Fraction(rng.randrange(0, 25), rng.randrange(1, 13))
        family = ShiftedIntervalFamily(b, c, b + gap, cbar)
        qp = periodic_count_qp(family, p)
        if not isinstance(qp, QuasiPolynomial):
            continue
        produced += 1
        out = decide_inhomogeneous_1d(qp)
        assert out.verdict == "representable", (family, out.reason)
        for s in range(25):
            assert count(out.witness, s) == qp.eval(s)


# --- the stress ladder: bounded, irredundant branch systems -----------------


def implied_by_others(constraints, i):
    """The negation test: the others plus the negation of constraint i are infeasible."""
    cons = constraints[i]
    negation = Constraint(tuple(-a for a in cons.coeffs), -cons.rhs, not cons.strict)
    others = constraints[:i] + constraints[i + 1:]
    return not feasibility._satisfiable(others + (negation,))


@pytest.mark.parametrize("p", [12, 30])
def test_ladder_branch_systems_stay_irredundant(p):
    q = ladder_qp(p)
    out = decide_inhomogeneous_1d(q)
    assert out.certificate.kind == "branch"
    layers = surviving_systems(q, out.certificate.steps)
    assert layers[-1] == []  # the disjunction empties at final_s
    systems = [sys for layer in layers for sys in layer]
    assert len(systems) > p
    for sys in systems:
        cons = sys.constraints
        assert feasible(sys) and len(cons) <= 8
        assert not any(implied_by_others(cons, i) for i in range(len(cons)))


def test_extended_reports_infeasibility_explicitly():
    box = normalization_box()
    # b > 1 contradicts b < 1 only through the rest of the system
    child = box.extended([make_constraint((-1, -1, 0), -2, strict=True)])
    assert len(child.constraints) == 1 and not any(child.constraints[0].coeffs)
    assert not feasible(child)
    # a constraint implied by the box is dropped; one that cuts it is kept
    assert box.extended([make_constraint((1, 1, 0), 2, strict=True)]) == box
    cut = make_constraint((1, 1, 0), 1)
    assert cut in box.extended([cut]).constraints


def test_ladder_period_30_decides_and_replays_both_forms():
    q = ladder_qp(30)
    for decide in (decide_inhomogeneous_1d, decide_homogeneous_1d):
        out = decide(q)
        assert out.verdict == "not_representable"
        assert replay_certificate(out.certificate, q)


@pytest.mark.parametrize("p, steps", [(6, 23), (9, 42), (12, 67), (15, 101)])
def test_ladder_certificate_step_counts_pinned(p, steps):
    cert = decide_inhomogeneous_1d(ladder_qp(p)).certificate
    assert cert.kind == "branch" and len(cert.steps) == steps


def test_decide_stdout_is_pinned(tmp_path, capsys):
    # decide FILE --form F byte for byte, over phi, the ladder and the fuzz
    # inputs in both forms: any change to a verdict, a witness or a
    # certificate step shows here
    inputs = [phi_reference(), *(ladder_qp(p) for p in (6, 9, 12, 15)),
              *fuzzed_quasipolynomials()]
    digest = hashlib.sha256()
    for i, q in enumerate(inputs):
        path = tmp_path / f"q{i}.json"
        path.write_text(json.dumps(q.to_json_dict()))
        for form in (INHOMOGENEOUS, HOMOGENEOUS):
            assert main(["decide", str(path), "--form", form]) == 0
            digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == (
        "a11eb152c5686876b932f411e297e84781b1997dd0e066b6a3ba24723b85e728"
    )


def first_all_positive_by_scan(q, growth):
    """Reference: walk each residue class until q first reaches 1."""
    if growth == 0:
        return 0
    worst = 0
    for residue in range(q.period):
        s = residue
        while q.eval(s) < 1:
            s += q.period
        worst = max(worst, s)
    return worst


def test_first_all_positive_closed_form_matches_scan():
    late = QuasiPolynomial(3, [[-40, Fraction(1, 3)], [-7, Fraction(1, 3)], [2, Fraction(1, 3)]])
    cases = [phi_reference(), late, ladder_qp(12), *fuzzed_quasipolynomials()]
    for q in cases:
        growth = growth_rate(q)
        assert _first_all_positive(q, growth) == first_all_positive_by_scan(q, growth)


# --- feasibility without elimination ----------------------------------------


def counting_eliminations(monkeypatch):
    calls = []
    real = feasibility._eliminate

    def counted(constraints, var):
        calls.append(var)
        return real(constraints, var)

    monkeypatch.setattr(feasibility, "_eliminate", counted)
    return calls


def test_feasible_trusts_extended_and_checks_hand_built_systems(monkeypatch):
    box = normalization_box()
    cut = box.extended([make_constraint((1, 1, 0), 1)])
    empty = box.extended([make_constraint((-1, -1, 0), -2, strict=True)])
    calls = counting_eliminations(monkeypatch)
    assert feasible(cut) and not feasible(empty)
    assert calls == []
    # a system built by hand is decided on its interval of b as well
    assert feasible(LinearSystem3(cut.constraints))
    split = LinearSystem3((make_constraint((1, 0, 0), 0), make_constraint((-1, 0, 0), -1)))
    assert not feasible(split)
    assert calls == []


def test_branch_and_replay_feasibility_checks_make_no_elimination(monkeypatch):
    # phase N and replay check children that extended has just settled
    calls = counting_eliminations(monkeypatch)
    inside = []

    def checked(system):
        before = len(calls)
        ok = feasible(system)
        inside.append(len(calls) - before)
        return ok

    monkeypatch.setattr(decider, "feasible", checked)
    q = ladder_qp(6)
    out = decide_inhomogeneous_1d(q)
    assert out.verdict == "not_representable" and replay_certificate(out.certificate, q)
    assert len(inside) == 2 * len(out.certificate.steps)
    assert not any(inside)


# --- the witness search in integer units against its Fraction form ----------


def _pick_in_bound(bound):
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


def phase_e_in_fractions(q, form, growth, denom_multiplier):
    """The witness search as it was, on Fraction boxes throughout."""
    full_line = Bound(None, False, None, False)
    point_zero = Bound(Fraction(0), False, Fraction(0), False)
    p = q.period
    grid = p * denom_multiplier
    s1 = _first_all_positive(q, growth)
    candidates = sorted(range(grid), key=lambda j: (lcm(p, Fraction(j, grid).denominator), j))
    for j in candidates:
        b0 = Fraction(j, grid)
        p_prime = lcm(p, b0.denominator)
        window = max(2 * p_prime, s1 + p_prime)
        if form == INHOMOGENEOUS:
            boxes = [(Bound(Fraction(0), True, Fraction(1), False), full_line)]
        else:
            boxes = [(point_zero, point_zero)]
        for s in range(window + 1):
            target = q.eval_int(s)
            new_boxes = []
            for c_int, cbar_int in boxes:
                low = s * b0 + c_int.lo
                high = s * b0 + c_int.hi
                if c_int.lo_strict and low.denominator == 1:
                    m_min = int(low) + 1
                else:
                    m_min = ceil(low)
                for m in range(m_min, ceil(high) + 1):
                    new_c = _intersect(
                        c_int, Bound(m - 1 - s * b0, True, m - s * b0, False)
                    )
                    if new_c is None:
                        continue
                    base = m + target - 1 - s * b0 - s * growth
                    new_cbar = _intersect(cbar_int, Bound(base, False, base + 1, True))
                    if new_cbar is None:
                        continue
                    new_boxes.append((new_c, new_cbar))
            boxes = new_boxes
            if not boxes:
                break
        for c_int, cbar_int in boxes:
            c_val = _pick_in_bound(c_int)
            cbar_val = _pick_in_bound(cbar_int)
            fam = ShiftedIntervalFamily(b0, c_val, b0 + growth, cbar_val)
            qp = periodic_count_qp(fam, p_prime)
            if not isinstance(qp, QuasiPolynomial) or not same_function(qp, q):
                continue
            if all(count(fam, t) == q.eval_int(t) for t in range(2 * max(p, p_prime) + 1)):
                return fam
    return None


def test_integer_witness_search_matches_fraction_form():
    inputs = [*fuzzed_quasipolynomials(), ladder_qp(6), ladder_qp(12), phi_reference(), PARITY]
    found = 0
    for q in inputs:
        growth = growth_rate(q)
        for form in (INHOMOGENEOUS, HOMOGENEOUS):
            for denom_multiplier in range(1, 5):
                witness = _phase_e(q, form, growth, denom_multiplier)
                assert witness == phase_e_in_fractions(q, form, growth, denom_multiplier), \
                    (q, form, denom_multiplier)
                found += witness is not None
    assert found > 0


# --- s_max is refused below 1 in both forms ---------------------------------


@pytest.mark.parametrize("s_max", [-1, 0])
@pytest.mark.parametrize("decide", [decide_inhomogeneous_1d, decide_homogeneous_1d])
def test_nonpositive_s_max_is_refused_in_both_forms(decide, s_max):
    for q in (QuasiPolynomial.constant(1), phi_reference()):
        with pytest.raises(ValueError, match="s_max must be positive"):
            decide(q, s_max=s_max)


# --- shadows on b against full Fourier-Motzkin ------------------------------


def irredundant_reference(constraints):
    """The redundancy pass as it was: a full elimination per negation test."""
    kept = list(constraints)
    i = 0
    while i < len(kept):
        cons = kept[i]
        rest = kept[:i] + kept[i + 1:]
        negation = Constraint(tuple(-a for a in cons.coeffs), -cons.rhs, not cons.strict)
        if feasibility._satisfiable(rest + [negation]):
            i += 1
        else:
            kept = rest
    return kept


def extended_reference(system, new):
    """(constraints, feasibility) of extended as it was, on 3-variable elimination."""
    deduped = feasibility._dedupe(system.constraints + tuple(new))
    if deduped is None or not feasibility._satisfiable(deduped):
        return (feasibility._CONTRADICTION,), False
    return tuple(irredundant_reference(deduped)), True


def functional_bound_reference(system, coeffs):
    """functional_bound as it was: pivot on the first nonzero coordinate of the
    functional, then eliminate the other two unknowns in the order cbar, c, b."""
    f = [Fraction(a) for a in coeffs]
    scale = lcm(*[a.denominator for a in f])
    fi = [int(a * scale) for a in f]
    if not any(fi):
        if not feasibility._satisfiable(system.constraints):
            return None
        return Bound(Fraction(0), False, Fraction(0), False)
    pivot = next(i for i in range(3) if fi[i] != 0)
    p = fi[pivot]
    sgn = 1 if p > 0 else -1
    mag = abs(p)
    work = []
    for cons in system.constraints:
        a = cons.coeffs
        new = [mag * aj - sgn * a[pivot] * fj for aj, fj in zip(a, fi)]
        new[pivot] = sgn * a[pivot]
        work.append(feasibility._reduce(new, mag * cons.rhs, cons.strict))
    work = feasibility._dedupe(work)
    for var in (2, 1, 0):
        if work is None:
            return None
        if var != pivot:
            work = feasibility._eliminate(work, var)
    if work is None:
        return None
    lo, lo_strict, hi, hi_strict = None, False, None, False
    for cons in work:
        a = cons.coeffs[pivot]
        if a == 0:
            if feasibility._violated(cons):
                return None
            continue
        value = cons.rhs / a
        if a > 0:
            if hi is None or value < hi or (value == hi and cons.strict):
                hi, hi_strict = value, cons.strict
        elif lo is None or value > lo or (value == lo and cons.strict):
            lo, lo_strict = value, cons.strict
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            return None
    return Bound(
        None if lo is None else lo / scale, lo_strict,
        None if hi is None else hi / scale, hi_strict,
    )


def recorded_feasibility_calls(monkeypatch, inputs,
                               decides=(decide_inhomogeneous_1d, decide_homogeneous_1d)):
    """Every distinct call of extended and of functional_bound, with its result,
    made while deciding each input and replaying each certificate."""
    extends, bounds = {}, {}
    real_extended = LinearSystem3.extended
    real_bound = decider.functional_bound

    def extended(self, new):
        new = tuple(new)
        out = real_extended(self, new)
        extends.setdefault((self.constraints, new), out)
        return out

    def bound(system, coeffs):
        out = real_bound(system, coeffs)
        bounds.setdefault((system.constraints, tuple(coeffs)), out)
        return out

    monkeypatch.setattr(LinearSystem3, "extended", extended)
    monkeypatch.setattr(decider, "functional_bound", bound)
    for q in inputs:
        for decide in decides:
            out = decide(q)
            if out.certificate is not None:
                assert replay_certificate(out.certificate, q)
    monkeypatch.undo()
    return extends, bounds


def test_shadows_match_elimination_on_every_decider_system(monkeypatch):
    inputs = [ladder_qp(p) for p in range(6, 31)]
    inputs += [phi_reference(), *fuzzed_quasipolynomials(), *bumped_planted_families()]
    extends, bounds = recorded_feasibility_calls(monkeypatch, inputs)
    assert len(extends) > 3000 and len(bounds) > 2000
    for (constraints, new), out in extends.items():
        expected = extended_reference(LinearSystem3(constraints), new)
        assert (out.constraints, feasible(out)) == expected, (constraints, new)
    for (constraints, coeffs), out in bounds.items():
        assert out == functional_bound_reference(LinearSystem3(constraints), coeffs), \
            (constraints, coeffs)


def random_shaped_constraint(rng):
    """b alone, (b, c), (b, cbar) or all-zero, with few right-hand sides so that ties are common."""
    kind = rng.randrange(7)
    coeffs = [rng.randint(-3, 3), 0, 0]
    if kind in (1, 2, 3, 4):
        coeffs[1 + kind % 2] = rng.choice((-2, -1, 1, 2))
    elif kind == 5:
        coeffs[0] = 0
    rhs = rng.choice((-2, -1, 0, 0, Fraction(1, 2), 1, 1, Fraction(5, 3), 3))
    return make_constraint(coeffs, rhs, strict=rng.random() < 0.4)


def random_shaped_system(rng, size):
    cons = []
    while len(cons) < size:
        one = random_shaped_constraint(rng)
        cons.append(one)
        if rng.random() < 0.2:  # an equality pair
            cons.append(Constraint(tuple(-a for a in one.coeffs), -one.rhs, False))
            cons[-2] = one._replace(strict=False)
    return cons


def test_shadows_match_elimination_on_random_shaped_systems():
    rng = random.Random(4242)
    functionals = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, 0, 0), (3, 1, 0),
                   (Fraction(1, 2), 0, Fraction(-2, 3)), (-1, Fraction(3, 4), 0), (0, -5, 0)]
    seen = {"feasible": 0, "infeasible": 0, "unbounded": 0, "point": 0}
    for _ in range(1500):
        base = LinearSystem3(tuple(random_shaped_system(rng, rng.randrange(0, 6))))
        new = random_shaped_system(rng, rng.randrange(0, 5))
        out = base.extended(new)
        assert (out.constraints, feasible(out)) == extended_reference(base, new), (base, new)
        assert feasible(base) == feasibility._satisfiable(base.constraints), base
        seen["feasible" if feasible(out) else "infeasible"] += 1
        for system in (base, out):
            for coeffs in functionals:
                bound = functional_bound(system, coeffs)
                assert bound == functional_bound_reference(system, coeffs), (system, coeffs)
                if bound is not None:
                    seen["unbounded"] += bound.lo is None or bound.hi is None
                    seen["point"] += bound.lo is not None and bound.lo == bound.hi
    assert min(seen.values()) > 100, seen


def test_constraints_and_functionals_with_both_offsets_are_refused():
    box = normalization_box()
    mixed = make_constraint((0, 1, 1), 1)
    with pytest.raises(ValueError, match="both c and cbar"):
        box.extended([mixed])
    with pytest.raises(ValueError, match="both c and cbar"):
        functional_bound(box, (0, 1, -1))
    with pytest.raises(ValueError, match="both c and cbar"):
        functional_bound(LinearSystem3(box.constraints + (mixed,)), (1, 0, 0))
    with pytest.raises(ValueError, match="both c and cbar"):
        feasible(LinearSystem3(box.constraints + (mixed,)))


def test_branch_systems_stay_irredundant_in_both_forms(monkeypatch):
    inputs = [ladder_qp(p) for p in (6, 12, 30)]
    inputs += [phi_reference(), *fuzzed_quasipolynomials(), *bumped_planted_families()]
    homogeneous, _ = recorded_feasibility_calls(monkeypatch, inputs, (decide_homogeneous_1d,))
    planted, _ = recorded_feasibility_calls(monkeypatch, bumped_planted_families())
    for extends in (homogeneous, planted):
        systems = [sys for sys in extends.values() if feasible(sys)]
        assert len(systems) >= 40
        for sys in systems:
            cons = sys.constraints
            assert len(cons) <= 8
            assert not any(implied_by_others(cons, i) for i in range(len(cons)))


def test_homogeneous_systems_hold_b_alone(monkeypatch):
    initial = _initial_system(HOMOGENEOUS)
    assert initial == _replay_initial(HOMOGENEOUS)
    assert len(initial.constraints) == 2
    inputs = [phi_reference(), *fuzzed_quasipolynomials(), *bumped_planted_families()]
    extends, bounds = recorded_feasibility_calls(monkeypatch, inputs, (decide_homogeneous_1d,))
    assert len(extends) >= 40 and len(bounds) >= 40
    systems = [constraints + new + out.constraints
               for (constraints, new), out in extends.items()]
    systems += [constraints for constraints, _ in bounds]
    for constraints in systems:
        assert all(cons.coeffs[1:] == (0, 0) for cons in constraints), constraints
    assert all(coeffs[1:] == (0, 0) for _, coeffs in bounds)
