import random

import pytest
from fractions import Fraction
from math import ceil, floor

from plethyray import (
    NotPeriodic,
    PointFamily,
    QuasiPolynomial,
    ShiftedIntervalFamily,
    count,
    count_point,
    periodic_count_qp,
    phi_reference,
    verify_sum_decomposition,
)
from plethyray.intervals import raw_count
from plethyray.quasipoly import leading_coefficient
from oracle_utils import brute_interval_count


def fam(b, c, bbar, cbar):
    return ShiftedIntervalFamily(Fraction(b), Fraction(c), Fraction(bbar), Fraction(cbar))


def test_count_examples():
    third_half = fam("1/3", 0, "1/2", 0)
    assert count(third_half, 6) == 2
    assert count(third_half, 1) == 0
    assert count(fam(0, "1/100", "1/3", 0), 12) == 4


def test_count_rejects_negative_s():
    with pytest.raises(ValueError):
        count(fam(0, 0, 1, 0), -1)


def test_count_point():
    half = PointFamily(Fraction(1, 2))
    assert count_point(half, 4) == 1
    assert count_point(half, 5) == 0
    assert count_point(PointFamily(Fraction(1, 3)), 0) == 1


def test_count_matches_brute_force_enumeration():
    rng = random.Random(4242)
    for _ in range(200):
        b = Fraction(rng.randrange(-16, 17), rng.randrange(1, 9))
        c = Fraction(rng.randrange(-16, 17), rng.randrange(1, 9))
        bbar = b + Fraction(rng.randrange(-4, 17), rng.randrange(1, 9))
        cbar = c + Fraction(rng.randrange(-8, 17), rng.randrange(1, 9))
        family = ShiftedIntervalFamily(b, c, bbar, cbar)
        for s in (0, 1, 2, 3, 5, 8, 13, 21, 40):
            lo = s * family.b + family.c
            hi = s * family.bbar + family.cbar
            assert count(family, s) == brute_interval_count(lo, hi), (family, s)


def test_shift_invariance():
    rng = random.Random(7)
    for _ in range(50):
        b = Fraction(rng.randrange(-8, 9), rng.randrange(1, 9))
        c = Fraction(rng.randrange(-8, 9), rng.randrange(1, 9))
        bbar = b + Fraction(rng.randrange(0, 9), rng.randrange(1, 9))
        cbar = c + Fraction(rng.randrange(0, 9), rng.randrange(1, 9))
        t = rng.randrange(-5, 6)
        base = ShiftedIntervalFamily(b, c, bbar, cbar)
        shifted = ShiftedIntervalFamily(b, c + t, bbar, cbar + t)
        for s in range(0, 20):
            assert count(base, s) == count(shifted, s)


def test_periodic_count_qp_derived_example():
    family = fam("1/3", 1, "1/2", 1)
    qp = periodic_count_qp(family, 6)
    assert isinstance(qp, QuasiPolynomial)
    assert leading_coefficient(qp) == Fraction(1, 6)
    for s in range(37):  # direct-counting oracle window
        assert qp.eval(s) == count(family, s)


def test_periodic_count_qp_constant():
    qp = periodic_count_qp(fam(0, 1, 0, 1), 1)
    assert isinstance(qp, QuasiPolynomial)
    assert qp.eval(17) == 1


def test_periodic_count_qp_rejects_incompatible_period():
    out = periodic_count_qp(fam("1/5", 0, "1/2", 0), 6)
    assert isinstance(out, NotPeriodic)


def test_periodic_count_qp_refuses_clamped_regime():
    # raw count is negative forever on an empty constant family
    out = periodic_count_qp(fam(0, 2, 0, 0), 1)
    assert isinstance(out, NotPeriodic)
    # negative slope gap can never certify
    out = periodic_count_qp(fam("1/2", 0, "1/3", 5), 6)
    assert isinstance(out, NotPeriodic)


def test_periodic_count_qp_clamped_prefix_detected():
    # starts empty, grows later: count is max(0, raw) with a kink, not a
    # single linear row per residue
    family = fam(0, 10, "1/2", 0)
    assert raw_count(family, 0) < 0 and raw_count(family, 40) > 0
    out = periodic_count_qp(family, 2)
    assert isinstance(out, NotPeriodic)


def test_periodic_count_qp_matches_counts_when_it_succeeds():
    rng = random.Random(99)
    produced = 0
    while produced < 50:
        p = rng.choice([1, 2, 3, 4, 6])
        b = Fraction(rng.randrange(0, 2 * p), p)
        gap = Fraction(rng.randrange(0, p + 1), p)
        c = Fraction(rng.randrange(-10, 11), rng.randrange(1, 9))
        cbar = c + Fraction(rng.randrange(0, 17), rng.randrange(1, 9))
        family = ShiftedIntervalFamily(b, c, b + gap, cbar)
        qp = periodic_count_qp(family, p)
        if isinstance(qp, NotPeriodic):
            continue
        produced += 1
        for s in range(10 * p + 1):
            assert qp.eval(s) == count(family, s)
        # monotone slope law past the nonempty threshold
        if gap > 0:
            for s in range(10 * p):
                assert count(family, s + p) - count(family, s) in (p * gap,)


def test_periodic_count_qp_certifies_exactly_the_unclamped_families():
    # both sides: a quasi-polynomial comes back exactly when the slope gap is
    # >= 0 and the unclamped count is >= 0 on the first period, and then it
    # matches the counts; otherwise the answer is a refusal
    rng = random.Random(2024)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        p = rng.choice([1, 2, 3, 4, 5, 6])
        b = Fraction(rng.randrange(-2 * p, 2 * p + 1), p)
        bbar = b + Fraction(rng.randrange(-2, p + 2), p)
        c = Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
        cbar = Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
        family = ShiftedIntervalFamily(b, c, bbar, cbar)
        unclamped = [floor(s * bbar + cbar) - ceil(s * b + c) + 1 for s in range(p)]
        expected = bbar >= b and min(unclamped) >= 0
        qp = periodic_count_qp(family, p)
        assert isinstance(qp, QuasiPolynomial) == expected, (family, p)
        assert isinstance(qp, NotPeriodic) != expected
        outcomes[expected] += 1
        if expected:
            for s in range(10 * p + 1):
                assert qp.eval(s) == brute_interval_count(s * b + c, s * bbar + cbar)
    assert min(outcomes.values()) >= 100, outcomes


def test_family_json_round_trip():
    family = fam("1/3", 1, "1/2", 1)
    data = family.to_json_dict()
    assert data == {"b": "1/3", "c": "1", "bbar": "1/2", "cbar": "1"}
    assert ShiftedIntervalFamily.from_json_dict(data) == family


def test_sum_decomposition_corrected_reading():
    report = verify_sum_decomposition(Fraction(1, 100), 600)
    assert report["corrected_pass"]
    assert report["corrected_failures"] == []


def test_sum_decomposition_literal_reading_failures():
    report = verify_sum_decomposition(Fraction(1, 100), 600)
    assert report["literal_fails_at_zero"]
    assert report["first_positive_literal_failure"] == 35
    # confirm the first failure by raw enumeration, not by the count formula
    phi = phi_reference()
    eps = Fraction(1, 100)
    for s in range(1, 36):
        lo, hi = s * eps, s * (Fraction(1, 3) + eps)
        literal = brute_interval_count(lo, hi) + (1 if s % 2 == 0 else 0)
        if s < 35:
            assert literal == phi.eval(s), s
        else:
            assert literal == 12 + 0 and phi.eval(35) == 11
    # the s = 299 data point also fails, with sum 100 vs 99
    s = 299
    assert brute_interval_count(s * eps, s * (Fraction(1, 3) + eps)) == 100
    assert phi.eval(s) == 99
    assert s in report["literal_failures"]


def test_sum_decomposition_eps_one():
    report = verify_sum_decomposition(1, 3)
    assert report["corrected_pass"]


def test_sum_decomposition_validation():
    with pytest.raises(ValueError):
        verify_sum_decomposition(Fraction(3, 2), 10)
    with pytest.raises(ValueError):
        verify_sum_decomposition(0, 10)
