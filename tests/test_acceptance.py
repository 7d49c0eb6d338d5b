"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Every check is an exact integer or rational equality (tolerance zero).  Run
with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.

Criterion 2 as literally stated is known-false (see the strict xfail and its
reason); the mathematically supported scope is verified green right below it.
The last test keeps the brute-force oracles these criteria compare against
free of any import of the package.
"""

import ast
import csv
import random
import time
from pathlib import Path

import pytest
from fractions import Fraction
from math import comb

from plethyray import (
    Partition,
    QuasiPolynomial,
    RaySpec,
    ShiftedIntervalFamily,
    count,
    decide_homogeneous_1d,
    decide_inhomogeneous_1d,
    fit,
    periodic_count_qp,
    phi_reference,
    plethysm_multiplicity,
    reciprocity_violations,
    replay_certificate,
    sample_ray,
    scale,
    verify_sum_decomposition,
)
from plethyray.cli import main
from oracle_utils import brute_interval_count, partitions_of, weyl_dimension


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def phi_value(s: int) -> int:
    r = (3, -1, 1, 0, 2, -2)[s % 6]
    assert (s + r) % 3 == 0
    return (s + r) // 3


def test_criterion_01_theorem_ray_values():
    lam = Partition((7, 5, 0))
    outer = sample_ray(RaySpec("outer", 3, 4, lam), 24)
    assert outer == [phi_value(s) for s in range(25)]
    inner = sample_ray(RaySpec("inner", 4, 3, lam), 8)
    assert inner == [phi_value(s) for s in range(9)]
    report(1, "theorem ray values (outer s<=24, inner s<=8)")


HERMITE_COUNTEREXAMPLE = (
    "known-false as stated: m^{d,k}_lam = m^{k,d}_lam fails beyond two rows; "
    "classical Hermite reciprocity is a binary-forms theorem.  Smallest "
    "counterexample at dk = 6: m^{2,3}_{(2,2,2)} = 0 (S^2(S^3 C^3) has "
    "dimension 55 = 28 + 27 with no (2,2,2) part) while m^{3,2}_{(2,2,2)} = 1 "
    "(S^3(S^2) = (6) + (4,2) + (2,2,2), dimension 56).  34 of the 1034 "
    "triples with dk <= 12 fail, every one with >= 3 rows.  See the "
    "supported-scope test below for what does hold."
)


@pytest.mark.xfail(reason=HERMITE_COUNTEREXAMPLE, strict=True)
def test_criterion_02_hermite_reciprocity_as_stated():
    for total in range(1, 13):
        for d in range(1, total + 1):
            if total % d:
                continue
            k = total // d
            for lam in partitions_of(total):
                lam_p = Partition(lam)
                assert plethysm_multiplicity(d, k, lam_p) == plethysm_multiplicity(k, d, lam_p), (
                    d, k, lam)
    report(2, "hermite reciprocity for ALL partitions with dk <= 12")


def test_criterion_02_hermite_reciprocity_supported_scope():
    start = time.time()
    # two-row partitions: the classical scope, exhaustively
    for total in range(1, 13):
        for d in range(1, total + 1):
            if total % d:
                continue
            k = total // d
            for lam in partitions_of(total, max_parts=2):
                lam_p = Partition(lam)
                assert plethysm_multiplicity(d, k, lam_p) == plethysm_multiplicity(k, d, lam_p), (
                    d, k, lam)
    # and the flagship three-row ray, where the symmetry does hold
    for d, k, lam in [(3, 4, (7, 5, 0)), (5, 1, (5,)), (2, 2, (2, 2))]:
        lam_p = Partition(lam)
        assert plethysm_multiplicity(d, k, lam_p) == plethysm_multiplicity(k, d, lam_p), lam
    elapsed = time.time() - start
    assert elapsed < 60
    report(2, f"hermite reciprocity, two-row scope + theorem ray ({elapsed:.1f}s)")


def test_criterion_03_dimension_conservation():
    for total in range(1, 13):
        for d in range(1, total + 1):
            if total % d:
                continue
            k = total // d
            lhs = 0
            for lam in partitions_of(total, max_parts=3):
                lam_p = Partition(tuple(lam) + (0,) * (3 - len(lam)))
                lhs += plethysm_multiplicity(d, k, lam_p) * weyl_dimension(lam_p.parts, 3)
            assert lhs == comb(comb(k + 2, k) + d - 1, d), (d, k)
    report(3, "dimension conservation for dk <= 12, n = 3")


def test_criterion_04_example_laws():
    for k in range(1, 5):
        for s in range(0, 9):
            law1 = 1 if s == 0 else plethysm_multiplicity(
                2, s * k, scale(Partition((2 * k - 1, 1)), s))
            assert law1 == (1 if s % 2 == 0 else 0), ("law1", k, s)
            law2 = 1 if s == 0 else plethysm_multiplicity(
                3, s * k, scale(Partition((2 * k, k)), s))
            # the ray s(2k,k) is the sk-th point of the primitive ray (2,1),
            # so the interval count dilates by sk (for k = 1 this is exactly
            # floor(s/2) - ceil(s/3) + 1)
            assert law2 == (s * k) // 2 - (-(-(s * k) // 3)) + 1, ("law2", k, s)
    for s in range(0, 9):
        value = 1 if s == 0 else plethysm_multiplicity(3, s, scale(Partition((2, 1)), s))
        assert value == s // 2 - (-(-s // 3)) + 1
    report(4, "example laws for k <= 4, s <= 8 (law 2 dilates by s*k)")


def test_criterion_05_reciprocity_violation():
    assert 1 in reciprocity_violations(phi_reference(), 10)
    report(5, "reciprocity violation at s = 1")


def test_criterion_06_decider_negative_results():
    start = time.time()
    phi = phi_reference()
    inhom = decide_inhomogeneous_1d(phi, s_max=24, denom_multiplier=4)
    assert inhom.verdict == "not_representable"
    assert replay_certificate(inhom.certificate, phi)
    homog = decide_homogeneous_1d(phi, s_max=24, denom_multiplier=4)
    assert homog.verdict == "not_representable"
    elapsed = time.time() - start
    assert elapsed < 10
    report(6, f"phi not representable, certificate replays ({elapsed:.2f}s)")


def test_criterion_07_decider_positive_results():
    third_half = fit([s // 2 - (-(-s // 3)) + 1 for s in range(24)], 6, 1)
    parity = QuasiPolynomial(2, [[1], [0]])
    for q in (third_half, parity):
        for decide in (decide_inhomogeneous_1d, decide_homogeneous_1d):
            out = decide(q)
            assert out.verdict == "representable", (q.period, decide.__name__, out.reason)
            for s in range(13):
                assert count(out.witness, s) == q.eval(s)
    report(7, "interval and parity quasi-polynomials representable, witnesses verified")


def test_criterion_08_decider_round_trip():
    rng = random.Random(20260808)
    produced = 0
    while produced < 100:
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
            assert count(out.witness, s) == qp.eval(s), (family, s)
    report(8, "100 random families round-trip to representable")


def test_criterion_09_sum_decomposition():
    eps = Fraction(1, 100)
    rep = verify_sum_decomposition(eps, 600)
    assert rep["corrected_pass"]
    # literal reading: confirmed by raw enumeration, independent of count()
    phi = phi_reference()
    enumerated_failures = []
    for s in range(0, 601):
        literal = brute_interval_count(s * eps, s * (Fraction(1, 3) + eps))
        point = 1 if s % 2 == 0 else 0
        if literal + point != phi.eval(s):
            enumerated_failures.append(s)
    assert enumerated_failures == rep["literal_failures"]
    assert enumerated_failures[0] == 0  # sum 2 vs phi(0) = 1
    assert rep["first_positive_literal_failure"] == 35
    # the s = 299 data point also fails, sum 100 vs 99
    assert brute_interval_count(299 * eps, 299 * (Fraction(1, 3) + eps)) == 100
    assert phi.eval(299) == 99
    report(9, "sum decomposition: corrected reading 0..600; literal first fails at 35")


def test_criterion_10_interior_rays():
    for t in (1, 2):
        lam = Partition((7 + 2 * t, 5 + 2 * t, 2 * t))
        for s in range(0, 7):
            value = 1 if s == 0 else plethysm_multiplicity(
                3, s * (4 + 2 * t), scale(lam, s))
            assert value == phi_value(s), (t, s)
    report(10, "interior rays t = 1, 2 match phi for s <= 6")


def test_criterion_11_minimality_scan(tmp_path):
    start = time.time()
    out12 = tmp_path / "scan12.csv"
    assert main(["scan", "--rows", "2", "--max-boxes", "12", "--form", "both",
                 "-o", str(out12)]) == 0
    rows12 = list(csv.DictReader(open(out12)))
    flagged = {(r["d"], r["k"], r["lambda"]) for r in rows12
               if r["verdict"] == "not_representable"}
    # the single flagged ray is the flagship counterexample itself, written
    # as the two-row partition (7,5); nothing else with dk <= 12 is flagged
    assert flagged == {("3", "4", "7,5")}
    unknowns = [r for r in rows12 if r["verdict"] == "unknown"]
    fit_failures = [r for r in rows12 if r["verdict"] == "fit_failure"]
    out11 = tmp_path / "scan11.csv"
    assert main(["scan", "--rows", "2", "--max-boxes", "11", "--form", "both",
                 "-o", str(out11)]) == 0
    rows11 = list(csv.DictReader(open(out11)))
    assert all(r["verdict"] != "not_representable" for r in rows11)
    elapsed = time.time() - start
    assert elapsed < 600
    report(11, "minimality scan: only the theorem ray (3,4,(7,5)) flagged at 12 boxes, "
               f"none below ({len(unknowns)} unknown, {len(fit_failures)} fit-failure rows; "
               f"{elapsed:.0f}s)")


def test_criterion_12_counting_oracle():
    rng = random.Random(1234321)
    for _ in range(200):
        b = Fraction(rng.randrange(-8, 9), rng.randrange(1, 9))
        c = Fraction(rng.randrange(-8, 9), rng.randrange(1, 9))
        bbar = b + Fraction(rng.randrange(-4, 9), rng.randrange(1, 9))
        cbar = c + Fraction(rng.randrange(-8, 9), rng.randrange(1, 9))
        family = ShiftedIntervalFamily(b, c, bbar, cbar)
        for s in range(0, 41):
            lo = s * family.b + family.c
            hi = s * family.bbar + family.cbar
            assert count(family, s) == brute_interval_count(lo, hi)
    report(12, "count() agrees with brute-force enumeration on 200 random families, s <= 40")


def plethyray_imports(source: str) -> list[str]:
    """Every module named by an import of plethyray or a submodule of it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [name for name in names if name.split(".")[0] == "plethyray"]
    return found


def test_oracles_import_nothing_from_the_package():
    source = (Path(__file__).parent / "oracle_utils.py").read_text()
    assert plethyray_imports(source) == []
    # the scan sees every import form, at any depth
    assert plethyray_imports("from plethyray import Partition") == ["plethyray"]
    assert plethyray_imports("def f():\n    import plethyray.kernels as k") == [
        "plethyray.kernels"]
    assert plethyray_imports("import os, plethyray") == ["plethyray"]
