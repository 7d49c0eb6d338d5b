"""Sample plethysm multiplicities along scaled rays and fit quasi-polynomials.

A ray scales every parameter of a multiplicity query by s: either the inner
power and the partition (outer mode, f(s) = m^{d, s*k}_{s*lam}) or the outer
power and the partition (inner mode, g(s) = m^{s*d, k}_{s*lam}).  Both start
at f(0) = g(0) = 1 (the empty partition in the trivial representation), and
both are quasi-polynomials in s that we recover by exact interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import Partition, scale
from .plethysm import plethysm_multiplicity, two_row_ray
from .quasipoly import FitFailure, QuasiPolynomial, _as_fraction, fit, phi_reference

OUTER = "outer"
INNER = "inner"

PERIOD_LADDER = (1, 2, 3, 4, 6, 12)
MAX_DEGREE = 4


@dataclass(frozen=True)
class RaySpec:
    mode: str
    d: int
    k: int
    lam: Partition

    def __init__(self, mode: str, d: int, k: int, lam: Partition):
        if mode not in (OUTER, INNER):
            raise ValueError(f"mode must be '{OUTER}' or '{INNER}', got {mode!r}")
        if d < 1 or k < 1:
            raise ValueError("d and k must be positive")
        if lam.size != d * k:
            raise ValueError(f"|lam| = {lam.size} != d*k = {d * k}: ray is not well-formed")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "lam", lam)

    def to_json_dict(self) -> dict:
        return {"mode": self.mode, "d": self.d, "k": self.k, "lambda": str(self.lam)}


def ray_value(spec: RaySpec, s: int) -> int:
    """The multiplicity at one ray point; s = 0 is 1 by convention."""
    if s == 0:
        return 1
    if spec.mode == OUTER:
        return plethysm_multiplicity(spec.d, s * spec.k, scale(spec.lam, s))
    return plethysm_multiplicity(s * spec.d, spec.k, scale(spec.lam, s))


def sample_ray(spec: RaySpec, s_max: int) -> list[int]:
    """Multiplicities for s = 0..s_max, in s order.

    lam is stripped once.  A ray with two nonzero parts (dk - j, j) is one
    two_row_ray call, one pass per t over one table, with (a, step) = (d, k)
    on an outer ray and (k, d) on an inner one; a one-row ray is 1
    throughout.  Wider rays take ray_value point by point.
    """
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    parts = spec.lam.stripped()
    if len(parts) > 2:
        return [ray_value(spec, s) for s in range(s_max + 1)]
    if len(parts) < 2:
        return [1] * (s_max + 1)
    if spec.mode == OUTER:
        return two_row_ray(spec.d, spec.k, parts[1], s_max)
    return two_row_ray(spec.k, spec.d, parts[1], s_max)


def extract_quasipoly(
    samples: list[int], period_hint: int, degree_hint: int
) -> QuasiPolynomial | FitFailure:
    """Fit samples (the values at s = 0, 1, ...) with the hinted period and degree.

    Requires s_max = len(samples) - 1 >= period_hint*(degree_hint+2): at
    least one full period of samples beyond the interpolation window
    validates the hypothesis instead of merely restating it.
    """
    s_max = len(samples) - 1
    if s_max < period_hint * (degree_hint + 2):
        raise ValueError(
            f"s_max = {s_max} < period*(degree+2) = {period_hint * (degree_hint + 2)}: "
            "not enough samples to validate the fit"
        )
    return fit(samples, period_hint, degree_hint)


def discover_quasipoly(samples: list[int]) -> tuple[QuasiPolynomial, int, int] | FitFailure:
    """Fit samples (the values at s = 0, 1, ...) at the first validated ladder pair.

    Periods come from PERIOD_LADDER and degrees from 0..MAX_DEGREE; a pair
    (period, degree) is tried when s_max = len(samples) - 1 is at least
    period*(degree+2).  Returns (qp, period, degree) or the FitFailure of
    the last pair tried when nothing in the ladder validates; raises
    ValueError when s_max is too small to try any pair.  Samples (each
    non-int read once as a Fraction) are screened with exact finite
    differences: each residue class mod period is a polynomial of degree <=
    degree exactly when its (degree+1)-th differences at step period all
    vanish.  The step-period differences of the whole sample vector
    interleave those of the classes, once more per degree.  So ``fit`` runs
    only on a pair that passes, where it interpolates and validates every
    sample.  The ladder's failure is read from the last pair's differences:
    in a class, the first nonzero one, at index i, is the first sample the
    interpolant misses, at s = i + (degree+1)*period, minus the interpolant;
    as s grows with i, the first nonzero i is fit's first mismatch.
    """
    s_max = len(samples) - 1
    values = [value if type(value) is int else _as_fraction(value) for value in samples]
    last: tuple[int, int, list] | None = None
    for period in PERIOD_LADDER:
        diffs = values  # differenced at step period once per degree below
        for degree in range(MAX_DEGREE + 1):
            if s_max < period * (degree + 2):
                break
            diffs = [b - a for a, b in zip(diffs, diffs[period:])]
            last = (period, degree, diffs)
            if any(diffs):
                continue
            result = fit(values, period, degree)
            if isinstance(result, QuasiPolynomial):
                return result, period, degree
    if last is None:
        raise ValueError(
            f"s_max = {s_max} is too small for every (period, degree) of the ladder: "
            "each needs s_max >= period*(degree+2)"
        )
    period, degree, diffs = last
    i = next(i for i, diff in enumerate(diffs) if diff)
    s = i + (degree + 1) * period
    return FitFailure(s, _as_fraction(values[s]), _as_fraction(values[s] - diffs[i]))


def _compare_to_reference(spec: RaySpec, s_max: int, reference: QuasiPolynomial) -> list[dict]:
    """One check per s <= s_max: the ray's multiplicity against reference(s)."""
    checks = []
    for s, actual in enumerate(sample_ray(spec, s_max)):
        expected = reference.eval(s)
        checks.append(
            {"s": s,
             "expected": int(expected) if expected.denominator == 1 else str(expected),
             "actual": actual, "ok": expected == actual}
        )
    return checks


def verify_theorem_ray(
    s_max: int,
    inner_s_max: int | None = None,
    reference: QuasiPolynomial | None = None,
) -> dict:
    """Compare both scaled rays of (d=3, k=4, lam=(7,5,0)) against the period-6 reference.

    The inner mode defaults to min(s_max, 8), the default of
    ``verify-paper --smax-inner``, because the verify-paper report is fixed at
    that cap; both rays are two-row, so each point is one difference of two
    Gaussian-binomial coefficients and cost does not set the cap.
    Failures are report content, not exceptions.
    """
    if reference is None:
        reference = phi_reference()
    if inner_s_max is None:
        inner_s_max = min(s_max, 8)
    lam = Partition((7, 5, 0))
    checks = []
    for mode, cap, d, k in ((OUTER, s_max, 3, 4), (INNER, inner_s_max, 4, 3)):
        spec = RaySpec(mode, d, k, lam)
        checks += [{"mode": mode, **chk} for chk in _compare_to_reference(spec, cap, reference)]
    return {
        "s_max_outer": s_max,
        "s_max_inner": inner_s_max,
        "checks": checks,
        "pass": all(item["ok"] for item in checks),
    }


def interior_ray_check(
    t: int,
    s_max: int,
    reference: QuasiPolynomial | None = None,
) -> dict:
    """Check the strictly interior ray lam = s*(7+2t, 5+2t, 2t) against the reference.

    The inner power is s*(4+2t): the partition has size s*(12+6t) = 3*s*(4+2t),
    so no other inner degree admits a nonzero multiplicity.  The report also
    records that the size constraint rules out the inner degree s*(5+2t) for
    every s >= 1 (those multiplicities vanish identically).
    """
    if t < 1:
        raise ValueError("t must be positive")
    if reference is None:
        reference = phi_reference()
    lam = Partition((7 + 2 * t, 5 + 2 * t, 2 * t))
    checks = _compare_to_reference(RaySpec(OUTER, 3, 4 + 2 * t, lam), s_max, reference)
    return {
        "t": t,
        "inner_degree": f"s*{4 + 2 * t}",
        "s_max": s_max,
        "checks": checks,
        "pass": all(item["ok"] for item in checks),
        "rejected_inner_degree": f"s*{5 + 2 * t}",
        "rejected_reason": (
            f"|s*lam| = {12 + 6 * t}*s != 3*{5 + 2 * t}*s: multiplicity is 0 for s >= 1"
        ),
    }
