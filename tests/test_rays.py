import pytest
import random
from fractions import Fraction

from plethyray import (
    FitFailure,
    fit,
    Partition,
    QuasiPolynomial,
    RaySpec,
    discover_quasipoly,
    extract_quasipoly,
    interior_ray_check,
    phi_reference,
    plethysm_multiplicity,
    sample_ray,
    scale,
    verify_theorem_ray,
)
from plethyray import plethysm
from plethyray.rays import MAX_DEGREE, PERIOD_LADDER, ray_value


THEOREM_LAM = Partition((7, 5, 0))


def test_rayspec_validation():
    with pytest.raises(ValueError):
        RaySpec("sideways", 3, 4, THEOREM_LAM)
    with pytest.raises(ValueError):
        RaySpec("outer", 3, 4, Partition((7, 4)))
    with pytest.raises(ValueError):
        RaySpec("outer", 0, 4, Partition((0,)))


def test_sample_ray_outer_theorem_values():
    spec = RaySpec("outer", 3, 4, THEOREM_LAM)
    assert sample_ray(spec, 6) == [1, 0, 1, 1, 2, 1, 3]


def test_sample_ray_inner_theorem_values():
    spec = RaySpec("inner", 4, 3, THEOREM_LAM)
    assert sample_ray(spec, 6) == [1, 0, 1, 1, 2, 1, 3]


def test_sample_ray_trivial_row():
    spec = RaySpec("outer", 1, 2, Partition((2,)))
    assert sample_ray(spec, 5) == [1, 1, 1, 1, 1, 1]


def test_sample_ray_normalizes_s_zero():
    # every ray starts at 1: the empty partition in the trivial representation
    for spec in (RaySpec("outer", 2, 3, Partition((5, 1))),
                 RaySpec("inner", 2, 3, Partition((5, 1)))):
        assert sample_ray(spec, 0) == [1]


def test_two_row_sample_ray_matches_ray_value():
    # the one-pass path of sample_ray against ray_value point by point, for
    # every ray with d, k <= 6 and at most two nonzero parts, with and without
    # a written zero; the one-row lam are j = 0
    rays = 0
    for d in range(1, 7):
        for k in range(1, 7):
            for j in range(d * k // 2 + 1):
                parts = (d * k - j, j) if j else (d * k,)
                for lam in (parts, parts + (0,)):
                    for mode in ("outer", "inner"):
                        spec = RaySpec(mode, d, k, Partition(lam))
                        expected = [ray_value(spec, s) for s in range(13)]
                        assert sample_ray(spec, 12) == expected, spec
                        rays += 1
    assert rays == 4 * sum(d * k // 2 + 1 for d in range(1, 7) for k in range(1, 7))


def test_outer_and_inner_agree_on_theorem_ray():
    outer = sample_ray(RaySpec("outer", 3, 4, THEOREM_LAM), 4)
    inner = sample_ray(RaySpec("inner", 4, 3, THEOREM_LAM), 4)
    assert outer == inner


def test_extract_quasipoly_recovers_phi():
    spec = RaySpec("outer", 3, 4, THEOREM_LAM)
    got = extract_quasipoly(sample_ray(spec, 24), 6, 1)
    assert got == phi_reference()


def test_extract_quasipoly_constant_ray():
    spec = RaySpec("outer", 2, 2, Partition((2, 2)))
    got = extract_quasipoly(sample_ray(spec, 8), 2, 0)
    assert isinstance(got, QuasiPolynomial)
    for s in range(9):
        assert got.eval(s) == 1


def test_extract_quasipoly_k1_interval_law():
    # m^{3,s}_{s(2,1)} counts integers in s[1/3,1/2]
    spec = RaySpec("outer", 3, 1, Partition((2, 1)))
    got = extract_quasipoly(sample_ray(spec, 24), 6, 1)
    assert isinstance(got, QuasiPolynomial)
    for s in range(25):
        assert got.eval(s) == s // 2 - (-(-s // 3)) + 1


def test_extract_quasipoly_window_precondition():
    spec = RaySpec("outer", 3, 4, THEOREM_LAM)
    with pytest.raises(ValueError):
        extract_quasipoly(sample_ray(spec, 17), 6, 1)


def test_extract_quasipoly_propagates_fit_failure():
    spec = RaySpec("outer", 3, 4, THEOREM_LAM)
    got = extract_quasipoly(sample_ray(spec, 12), 2, 1)  # wrong period hypothesis
    assert isinstance(got, FitFailure)


def test_discover_quasipoly_walks_ladder():
    spec = RaySpec("outer", 2, 3, Partition((5, 1)))
    got = discover_quasipoly(sample_ray(spec, 24))
    assert not isinstance(got, FitFailure)
    qp, period, degree = got
    assert (period, degree) == (2, 0)
    assert [qp.eval(s) for s in range(4)] == [1, 0, 1, 0]


def ladder_over_fit(samples):
    """The ladder without the finite-difference screen: fit at every (period, degree)."""
    s_max = len(samples) - 1
    last = None
    for period in PERIOD_LADDER:
        for degree in range(MAX_DEGREE + 1):
            if s_max < period * (degree + 2):
                continue
            result = fit(samples, period, degree)
            if isinstance(result, QuasiPolynomial):
                return result, period, degree
            last = result
    return last if last is not None else FitFailure(0, 0, 0)


def outcome_or_error(call):
    try:
        return call()
    except Exception as exc:  # the exact error is part of the contract
        return type(exc), str(exc)


def scan12_specs():
    for d in range(2, 7):
        for k in range(2, 12 // d + 1):
            total = d * k
            for b in range(total // 2 + 1):
                yield RaySpec("outer", d, k, Partition((total - b, b) if b else (total,)))


def test_discover_quasipoly_matches_fit_ladder_on_scan12_rays():
    specs = list(scan12_specs())
    assert len(specs) == 66
    for spec in specs:
        samples = sample_ray(spec, 72)
        assert discover_quasipoly(samples) == ladder_over_fit(samples), spec


def test_no_two_row_query_reaches_the_weight_count(monkeypatch):
    # two-row points take two_row_multiplicity; a slip that sent them through
    # the Weyl sum would still be exact, only slower, so make it raise
    def refuse(*args):
        raise AssertionError(f"two-row query reached the weight count: {args}")

    monkeypatch.setattr(plethysm, "weight_count", refuse)
    monkeypatch.setattr(plethysm, "count_capped_multisets", refuse)
    for spec in scan12_specs():
        for mode in ("outer", "inner"):
            sample_ray(RaySpec(mode, spec.d, spec.k, spec.lam), 72)
    queries = 0
    for d in range(1, 25):
        for k in range(1, 24 // d + 1):
            total = d * k
            for j in range(total // 2 + 1):
                parts = (total - j, j) if j else (total,)
                for zeros in (0, 1, 2):
                    plethysm_multiplicity(d, k, Partition(parts + (0,) * zeros))
                    queries += 1
    assert queries == 3 * sum(
        d * k // 2 + 1 for d in range(1, 25) for k in range(1, 24 // d + 1))


PHI_SAMPLES = [int(phi_reference().eval(s)) for s in range(37)]


@pytest.mark.parametrize(
    "samples",
    [
        [s**3 - 2 * s + 5 for s in range(31)],
        PHI_SAMPLES,
        PHI_SAMPLES[:-1] + [PHI_SAMPLES[-1] + 1],
        [2**s for s in range(31)],
        [7] * 5,
        [Fraction(s, 2) for s in range(25)],
        # s_max = 20 ends the ladder at (6, 1): s = 12, sample 4096, interpolant 127
        [2**s for s in range(21)],
        # the last pair, (12, 1), first misses s = 33, in residue class 9
        PHI_SAMPLES[:33] + [PHI_SAMPLES[33] - 1] + PHI_SAMPLES[34:],
        # (12, 1) again: s = 24, sample 1/25, interpolant -11/13
        [Fraction(1, s + 1) for s in range(37)],
    ],
    ids=["cubic", "phi", "phi-bumped", "powers-of-two", "constant-short", "fractions",
         "last-pair-6-1", "phi-bumped-in-class-9", "fractions-failing"],
)
def test_discover_quasipoly_matches_fit_ladder_on_sequences(samples):
    got = discover_quasipoly(samples)
    assert got == ladder_over_fit(samples)
    if samples is PHI_SAMPLES:
        assert got == (phi_reference(), 6, 1)
    if isinstance(got, FitFailure):
        assert type(got.expected) is type(got.actual) is Fraction


def test_discover_quasipoly_matches_fit_ladder_on_bumped_quasipolynomials():
    # a random quasi-polynomial with one sample bumped: wherever the bump
    # lies, the ladder's failure (or fit) is the one fit reports
    rng = random.Random(28)
    for _ in range(60):
        period, degree = rng.choice(PERIOD_LADDER), rng.randrange(4)
        rows = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(degree + 1)]
                for _ in range(period)]
        qp = QuasiPolynomial(period, rows)
        samples = [qp.eval(s) for s in range(rng.randrange(12, 50))]
        bump = rng.randrange(len(samples))
        samples[bump] += rng.choice((-1, 1, Fraction(1, 2)))
        assert discover_quasipoly(samples) == ladder_over_fit(samples), (qp, bump)


@pytest.mark.parametrize(
    "samples",
    [PHI_SAMPLES[:-1] + [None], PHI_SAMPLES[:-1] + ["x"]],
    ids=["none", "text"],
)
def test_discover_quasipoly_malformed_inputs_fail_as_the_fit_ladder(samples):
    got = outcome_or_error(lambda: discover_quasipoly(samples))
    assert got == outcome_or_error(lambda: ladder_over_fit(samples))


@pytest.mark.parametrize("s_max", [1, 0])
def test_discover_quasipoly_without_a_ladder_pair_raises(s_max):
    # no (period, degree) fits the window: a usage error, not a made-up FitFailure
    samples = sample_ray(RaySpec("outer", 2, 2, Partition((3, 1))), s_max)
    with pytest.raises(ValueError, match="too small for every"):
        discover_quasipoly(samples)


def test_verify_theorem_ray_passes():
    report = verify_theorem_ray(12, 6)
    assert report["pass"]
    assert report["s_max_inner"] == 6
    assert len(report["checks"]) == 13 + 7


def test_verify_theorem_ray_smax_zero():
    report = verify_theorem_ray(0, 0)
    assert report["pass"]
    assert all(chk["expected"] == 1 for chk in report["checks"])


def test_verify_theorem_ray_inner_defaults_to_eight():
    report = verify_theorem_ray(12)
    assert report["s_max_inner"] == 8


def test_verify_theorem_ray_detects_tampering():
    tampered = QuasiPolynomial(
        6, [[1, Fraction(1, 3)], [0, Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 3)],
            [0, Fraction(1, 3)], [Fraction(2, 3), Fraction(1, 3)],
            [Fraction(-2, 3), Fraction(1, 3)]],
    )
    report = verify_theorem_ray(6, 0, reference=tampered)
    assert not report["pass"]
    bad = [chk for chk in report["checks"] if not chk["ok"]]
    assert bad and bad[0]["s"] == 1


@pytest.mark.parametrize("t,s_max", [(1, 6), (2, 4)])
def test_interior_ray_matches_phi(t, s_max):
    report = interior_ray_check(t, s_max)
    assert report["pass"], report
    assert report["inner_degree"] == f"s*{4 + 2 * t}"


def test_interior_ray_smax_zero():
    report = interior_ray_check(1, 0)
    assert report["pass"]
    assert report["checks"][0]["actual"] == 1


def test_interior_ray_rejects_bad_t():
    with pytest.raises(ValueError):
        interior_ray_check(0, 4)


def test_interior_ray_literal_inner_degree_vanishes():
    # the size constraint rules out the inner degree s(5+2t) entirely
    for t in (1, 2):
        for s in (1, 2, 3):
            lam = scale(Partition((7 + 2 * t, 5 + 2 * t, 2 * t)), s)
            assert plethysm_multiplicity(3, s * (5 + 2 * t), lam) == 0
    report = interior_ray_check(1, 2)
    assert report["rejected_inner_degree"] == "s*7"


def test_outer_d3_three_row_rays_fit_period6_degree1():
    # every outer d=3 ray with a three-row partition is period-6, degree <= 1
    rays = [
        (1, (2, 1, 0)), (1, (1, 1, 1)),
        (2, (4, 1, 1)), (2, (2, 2, 2)), (2, (3, 2, 1)),
        (3, (7, 1, 1)), (3, (5, 3, 1)), (3, (4, 3, 2)),
        (4, (7, 5, 0)), (4, (6, 5, 1)),
    ]
    for k, lam in rays:
        spec = RaySpec("outer", 3, k, Partition(lam))
        got = extract_quasipoly(sample_ray(spec, 24), 6, 1)
        assert isinstance(got, QuasiPolynomial), (k, lam, got)


def test_ray_samples_nonnegative_and_one_at_zero():
    for spec in (RaySpec("outer", 2, 4, Partition((6, 2))),
                 RaySpec("outer", 3, 2, Partition((4, 2))),
                 RaySpec("inner", 2, 3, Partition((4, 2)))):
        samples = sample_ray(spec, 6)
        assert samples[0] == 1
        assert all(v >= 0 for v in samples)
