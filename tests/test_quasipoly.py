import json
import random

import pytest
from fractions import Fraction

from plethyray import (
    FitFailure,
    QuasiPolynomial,
    fit,
    leading_coefficient,
    phi_reference,
    reciprocity_violations,
)
from plethyray.quasipoly import growth_rate


def test_phi_values_on_first_period():
    phi = phi_reference()
    assert [phi.eval(s) for s in range(7)] == [1, 0, 1, 1, 2, 1, 3]


def test_phi_further_values():
    phi = phi_reference()
    assert phi.eval(12) == 5
    assert phi.eval(-1) == -1  # residue of -1 mod 6 is 5: (-1 - 2)/3


def test_phi_matches_r_table():
    phi = phi_reference()
    r = (3, -1, 1, 0, 2, -2)
    for s in range(-24, 25):
        assert phi.eval(s) == Fraction(s + r[s % 6], 3)


def test_eval_zero_qp():
    zero = QuasiPolynomial(1, [[0]])
    assert zero.eval(17) == 0


def test_eval_int_rejects_fractions():
    q = QuasiPolynomial(1, [[Fraction(1, 2)]])
    with pytest.raises(ValueError):
        q.eval_int(3)


def test_construction_validation():
    with pytest.raises(ValueError):
        QuasiPolynomial(0, [])
    with pytest.raises(ValueError):
        QuasiPolynomial(2, [[1]])
    with pytest.raises(ValueError):
        QuasiPolynomial(1, [[]])


def test_rows_are_canonicalized():
    q = QuasiPolynomial(2, [[1, 0, 0], [2]])
    assert q.degree == 0
    assert q.rows == ((Fraction(1),), (Fraction(2),))


def test_fit_phi_round_trip():
    phi = phi_reference()
    fitted = fit([phi.eval(s) for s in range(18)], 6, 1)
    assert fitted == phi


def test_fit_constant():
    assert fit([1] * 5, 1, 0) == QuasiPolynomial.constant(1)


def test_fit_third_interval_counts():
    q = fit([s // 2 - (-(-s // 3)) + 1 for s in range(24)], 6, 1)
    assert isinstance(q, QuasiPolynomial)
    assert leading_coefficient(q) == Fraction(1, 6)


def test_fit_reports_first_mismatch():
    phi = phi_reference()
    samples = [phi.eval(s) for s in range(20)]
    samples[13] += 1
    failure = fit(samples, 6, 1)
    assert isinstance(failure, FitFailure)
    assert failure.s == 13


def test_fit_wrong_period_fails_validation():
    phi = phi_reference()
    failure = fit([phi.eval(s) for s in range(20)], 3, 1)
    assert isinstance(failure, FitFailure)


def test_fit_requires_enough_samples():
    with pytest.raises(ValueError):
        fit([1, 1], 2, 1)


def test_fit_random_round_trip():
    rng = random.Random(991)
    for _ in range(25):
        period = rng.randrange(1, 7)
        degree = rng.randrange(0, 3)
        rows = [
            [Fraction(rng.randrange(-24, 25), rng.randrange(1, 13)) for _ in range(degree + 1)]
            for _ in range(period)
        ]
        q = QuasiPolynomial(period, rows)
        s_top = period * (q.degree + 2) + period
        fitted = fit([q.eval(s) for s in range(s_top + 1)], period, q.degree)
        assert fitted == q


def test_translation_law():
    rng = random.Random(17)
    for _ in range(10):
        period = rng.randrange(1, 7)
        lead = Fraction(rng.randrange(1, 25), rng.randrange(1, 13))
        rows = [[Fraction(rng.randrange(-24, 25), rng.randrange(1, 13)), lead]
                for _ in range(period)]
        q = QuasiPolynomial(period, rows)
        for s in range(-10, 11):
            assert q.eval(s + period) - q.eval(s) == period * lead


def test_leading_coefficient():
    assert leading_coefficient(phi_reference()) == Fraction(1, 3)
    assert leading_coefficient(QuasiPolynomial.constant(1)) == 1
    mixed = QuasiPolynomial(2, [[0, 1], [0, 2]])  # rows s and 2s
    assert leading_coefficient(mixed) is None


def test_growth_rate():
    assert growth_rate(phi_reference()) == Fraction(1, 3)
    assert growth_rate(QuasiPolynomial(2, [[1], [0]])) == 0
    assert growth_rate(QuasiPolynomial(2, [[0, 1], [0, 2]])) is None
    with pytest.raises(ValueError):
        growth_rate(QuasiPolynomial(1, [[0, 0, 1]]))


def test_reciprocity_violations_phi():
    assert 1 in reciprocity_violations(phi_reference(), 10)


def test_reciprocity_clean_for_unit_interval_ehrhart():
    # Ehrhart function of [0,1] is s+1; |1-s| <= s+1
    q = QuasiPolynomial(1, [[1, 1]])
    assert reciprocity_violations(q, 10) == []


def test_reciprocity_clean_for_third_interval():
    q = fit([s // 2 - (-(-s // 3)) + 1 for s in range(24)], 6, 1)
    assert reciprocity_violations(q, 30) == []
    # |q(-s)| must equal the interior count of s[1/3, 1/2] (Ehrhart-Macdonald)
    for s in range(1, 31):
        interior = sum(1 for x in range(0, s + 2) if 3 * x > s and 2 * x < s)
        assert abs(q.eval(-s)) == interior


def test_reciprocity_rejects_non_integer():
    q = QuasiPolynomial(1, [[Fraction(1, 2)]])
    with pytest.raises(ValueError):
        reciprocity_violations(q, 5)


def test_reciprocity_clean_on_true_ehrhart_interval_functions():
    # counting functions of genuine dilating intervals [beta, betabar] never
    # violate reciprocity; counts are cross-checked by direct enumeration
    from math import lcm as _lcm
    from plethyray import ShiftedIntervalFamily, count, periodic_count_qp

    rng = random.Random(661)
    for _ in range(40):
        den1 = rng.randrange(1, 7)
        den2 = rng.randrange(1, 7)
        beta = Fraction(rng.randrange(0, 3 * den1), den1)
        betabar = beta + Fraction(rng.randrange(1, 2 * den2 + 1), den2)
        family = ShiftedIntervalFamily(beta, 0, betabar, 0)
        period = _lcm(beta.denominator, betabar.denominator)
        q = periodic_count_qp(family, period)
        assert isinstance(q, QuasiPolynomial)
        for s in range(0, 51):
            lo, hi = s * beta, s * betabar
            direct = sum(1 for x in range(int(lo) - 1, int(hi) + 2) if lo <= x <= hi)
            assert q.eval(s) == direct
        assert reciprocity_violations(q, 50) == []


def test_reduced_period():
    fat = QuasiPolynomial(6, [[1], [0]] * 3)
    slim = fat.reduced_period()
    assert slim.period == 2 and slim.with_period(6) == fat
    assert phi_reference().reduced_period().period == 6  # already minimal
    assert QuasiPolynomial(4, [[1]] * 4).reduced_period() == QuasiPolynomial.constant(1)


def test_json_round_trip_bit_exact():
    phi = phi_reference()
    data = phi.to_json_dict()
    assert data == {
        "period": 6,
        "degree": 1,
        "rows": [["1", "1/3"], ["-1/3", "1/3"], ["1/3", "1/3"],
                 ["0", "1/3"], ["2/3", "1/3"], ["-2/3", "1/3"]],
    }
    back = QuasiPolynomial.from_json_dict(json.loads(json.dumps(data)))
    assert back == phi


# --- fit against the Gaussian-elimination interpolation it replaced ---------


def solve_linear_reference(matrix, rhs):
    """Exact Gaussian elimination; matrix must be square and invertible."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular interpolation system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def fit_reference(samples, period, degree):
    """fit by a Vandermonde solve per class and Fraction validation."""
    if period < 1 or degree < 0:
        raise ValueError("period must be positive and degree nonnegative")
    values = [v if isinstance(v, Fraction) else Fraction(v) for v in samples]
    rows = []
    for j in range(period):
        window = [(s, values[s]) for s in range(j, len(values), period)][: degree + 1]
        if len(window) < degree + 1:
            raise ValueError(
                f"residue class {j} mod {period} has {len(window)} samples, needs {degree + 1}"
            )
        matrix = [[Fraction(s) ** e for e in range(degree + 1)] for s, _ in window]
        rows.append(solve_linear_reference(matrix, [v for _, v in window]))
    result = QuasiPolynomial(period, rows)
    for s, value in enumerate(values):
        got = result.eval(s)
        if got != value:
            return FitFailure(s, value, got)
    return result


def fit_outcome(fitter, samples, period, degree):
    try:
        result = fitter(samples, period, degree)
    except ValueError as exc:
        return ("raises", str(exc))
    if isinstance(result, QuasiPolynomial):
        return ("fits", result.period, result.rows)
    return ("fails", result, type(result.expected), type(result.actual))


def random_fit_input(rng):
    """Values at s = 0, 1, ... of a random quasi-polynomial (sometimes bumped),
    free integers, or free values mixing integers and Fractions."""
    period = rng.randrange(1, 7)
    degree = rng.randrange(0, 4)
    kind = rng.randrange(3)
    if kind == 0:
        rows = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(degree + 1)]
                for _ in range(period)]
        q = QuasiPolynomial(period, rows)
        samples = [q.eval(s) for s in range(rng.randrange(period * (degree + 3) + 3))]
        if samples and rng.random() < 0.3:
            samples[rng.randrange(len(samples))] += rng.choice([1, Fraction(1, 2)])
    elif kind == 1:
        samples = [rng.randrange(-5, 6) for _ in range(rng.randrange(40))]
    else:
        samples = [
            rng.choice([rng.randrange(-3, 4), Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))])
            for _ in range(rng.randrange(30))
        ]
    return samples, period, degree


def test_fit_matches_gaussian_elimination_reference():
    rng = random.Random(4000)
    kinds = set()
    for _ in range(1500):
        samples, period, degree = random_fit_input(rng)
        expected = fit_outcome(fit_reference, samples, period, degree)
        assert fit_outcome(fit, samples, period, degree) == expected, (samples, period, degree)
        kinds.add(expected[0])
    assert kinds == {"fits", "fails", "raises"}


def test_fit_matches_reference_on_ladder_windows():
    # the scan's widest pair: period 12, degree 4, on s = 0..72
    for values in ([s * s // 7 + s // 3 for s in range(73)],
                   [(s + (3, -1, 1, 0, 2, -2)[s % 6]) // 3 for s in range(73)]):
        for period, degree in ((12, 4), (6, 1), (4, 2), (1, 0)):
            assert fit_outcome(fit, values, period, degree) == \
                fit_outcome(fit_reference, values, period, degree)


# --- integer evaluation against a plain Fraction Horner reference -----------


def horner_reference(q, s):
    """q(s) by Horner's rule on the Fraction rows, as eval was first written."""
    acc = Fraction(0)
    for coeff in reversed(q.rows[s % q.period]):
        acc = acc * s + coeff
    return acc


def random_qp(rng):
    period = rng.randrange(1, 13)
    degree = rng.randrange(0, 5)
    rows = [
        [rng.choice([rng.randrange(-30, 31),
                     Fraction(rng.randrange(-30, 31), rng.randrange(1, 25))])
         for _ in range(degree + 1)]
        for _ in range(period)
    ]
    return QuasiPolynomial(period, rows)


def test_eval_matches_fraction_horner_reference():
    rng = random.Random(8080)
    integral = fractional = 0
    for _ in range(300):
        q = random_qp(rng)
        for s in range(-3 * q.period - 5, 3 * q.period + 6):
            expected = horner_reference(q, s)
            got = q.eval(s)
            assert type(got) is Fraction and got == expected, (q, s)
            if expected.denominator == 1:
                value = q.eval_int(s)
                assert type(value) is int and value == expected, (q, s)
                integral += 1
            else:
                with pytest.raises(ValueError) as info:
                    q.eval_int(s)
                assert str(info.value) == f"value at s={s} is not an integer: {expected}"
                fractional += 1
    assert integral > 1000 and fractional > 1000


def test_eval_int_error_text_is_unchanged():
    q = QuasiPolynomial(2, [[Fraction(1, 2)], [Fraction(-7, 3), 1]])
    with pytest.raises(ValueError) as info:
        q.eval_int(3)
    assert str(info.value) == "value at s=3 is not an integer: 2/3"
    with pytest.raises(ValueError) as info:
        q.eval_int(-2)
    assert str(info.value) == "value at s=-2 is not an integer: 1/2"


def test_cached_integer_rows_stay_out_of_identity():
    import dataclasses
    import pickle

    assert [f.name for f in dataclasses.fields(QuasiPolynomial)] == ["period", "rows"]
    rng = random.Random(4242)
    for _ in range(60):
        q = random_qp(rng)
        fresh = QuasiPolynomial(q.period, q.rows)
        values = [q.eval(s) for s in range(-2 * q.period, 2 * q.period + 1)]
        # q has evaluated (its integer rows are cached), fresh has not
        assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)
        assert len({q, fresh}) == 1
        back = pickle.loads(pickle.dumps(q))
        assert back == q and hash(back) == hash(q)
        wide = q.with_period(2 * q.period)
        slim = q.reduced_period()
        assert wide == fresh.with_period(2 * q.period)
        assert slim == fresh.reduced_period()
        for i, s in enumerate(range(-2 * q.period, 2 * q.period + 1)):
            assert back.eval(s) == wide.eval(s) == slim.eval(s) == values[i], (q, s)
