"""Command-line surface: plethysm, ray, decide, verify-paper, scan.

Exit codes: 0 success (or verdict decided), 1 verification failure, 2 usage
error, 3 decider returned unknown.  All outputs are UTF-8 JSON except scan,
which emits RFC-4180 CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .decider import (
    HOMOGENEOUS,
    INHOMOGENEOUS,
    NOT_REPRESENTABLE,
    REPRESENTABLE,
    UNKNOWN,
    DecisionOutcome,
    decide_homogeneous_1d,
    decide_inhomogeneous_1d,
    replay_certificate,
)
from .intervals import verify_sum_decomposition
from .partitions import Partition
from .plethysm import plethysm_multiplicity
from .quasipoly import FitFailure, QuasiPolynomial, phi_reference, reciprocity_violations
from .rays import (
    RaySpec,
    discover_quasipoly,
    extract_quasipoly,
    interior_ray_check,
    sample_ray,
    verify_theorem_ray,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


class UsageError(Exception):
    pass


def _emit(text: str, path: str | None, newline: str | None = None) -> None:
    """Write text, newline-terminated, to stdout or to path.

    An output path that cannot be written (a missing directory, a
    directory) is a usage error.
    """
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit_json(data: dict, path: str | None) -> None:
    _emit(json.dumps(data, indent=2, sort_keys=True), path)


def _read_qp(path: str, what: str) -> QuasiPolynomial:
    """The quasi-polynomial in a JSON file; a usage error naming `what` if unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return QuasiPolynomial.from_json_dict(json.load(handle))
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise UsageError(f"cannot read {what}: {exc}") from exc


def _parse_partition(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_plethysm(args: argparse.Namespace) -> int:
    lam = _parse_partition(args.partition)
    if args.d < 1:
        return _usage_error("d must be positive")
    if args.k < 0:
        return _usage_error("k must be nonnegative")
    if lam.size != args.d * args.k:
        print(
            f"warning: |lambda| = {lam.size} != d*k = {args.d * args.k}; multiplicity is 0",
            file=sys.stderr,
        )
        print(0)
        return EXIT_OK
    print(plethysm_multiplicity(args.d, args.k, lam))
    return EXIT_OK


def cmd_ray(args: argparse.Namespace) -> int:
    lam = _parse_partition(args.partition)
    try:
        spec = RaySpec(args.mode, args.d, args.k, lam)
    except ValueError as exc:
        return _usage_error(str(exc))
    if (args.period is None) != (args.degree is None):
        return _usage_error("--period and --degree must be given together")
    if args.smax < 0:
        return _usage_error("--smax must be nonnegative")
    samples = sample_ray(spec, args.smax)
    try:
        if args.period is None:
            result = discover_quasipoly(spec, args.smax, samples=samples)
        else:
            result = extract_quasipoly(spec, args.period, args.degree, args.smax,
                                       samples=samples)
    except ValueError as exc:
        return _usage_error(str(exc))
    if isinstance(result, QuasiPolynomial):  # the hinted fit
        result = (result, args.period, args.degree)
    failed = isinstance(result, FitFailure)
    fitted, period, degree = (None, None, None) if failed else result
    report = {
        "spec": spec.to_json_dict(),
        "s_max": args.smax,
        "samples": samples,
        "fitted_qp": None if fitted is None else fitted.to_json_dict(),
        "period": period,
        "degree": degree,
        "failures": [str(result)] if failed else [],
    }
    _emit_json(report, args.output)
    return EXIT_OK


def _decide(form: str, qp: QuasiPolynomial, **options) -> DecisionOutcome:
    """Decide qp in form.

    The decider is looked up at call time, so a wrapper installed on this
    module's decide_* attributes (as perfbench/layertrace.py does) sees it.
    """
    decide = decide_inhomogeneous_1d if form == INHOMOGENEOUS else decide_homogeneous_1d
    return decide(qp, **options)


def cmd_decide(args: argparse.Namespace) -> int:
    qp = _read_qp(args.qp_file, f"quasi-polynomial from {args.qp_file}")
    try:
        outcome = _decide(args.form, qp, s_max=args.smax, denom_multiplier=args.denom_mult)
    except ValueError as exc:
        return _usage_error(str(exc))
    _emit_json(outcome.to_json_dict(), args.output)
    return EXIT_UNKNOWN if outcome.verdict == UNKNOWN else EXIT_OK


def _theorem_ray_item(smax_outer: int, smax_inner: int, reference: QuasiPolynomial) -> tuple:
    report = verify_theorem_ray(smax_outer, smax_inner, reference=reference)
    return report["pass"], {
        "s_max_outer": report["s_max_outer"],
        "s_max_inner": report["s_max_inner"],
        "failures": [chk for chk in report["checks"] if not chk["ok"]],
    }


def _reciprocity_item(reference: QuasiPolynomial) -> tuple:
    violations = reciprocity_violations(reference, 10)
    return 1 in violations, {"violations_up_to_10": violations}


def _inhomogeneous_item(reference: QuasiPolynomial) -> tuple:
    outcome = decide_inhomogeneous_1d(reference, s_max=24, denom_multiplier=4)
    replays = outcome.certificate is not None and replay_certificate(
        outcome.certificate, reference
    )
    return outcome.verdict == NOT_REPRESENTABLE and replays, {
        "verdict": outcome.verdict, "certificate_replays": replays,
    }


def _homogeneous_item(reference: QuasiPolynomial) -> tuple:
    outcome = decide_homogeneous_1d(reference, s_max=24, denom_multiplier=4)
    cert = outcome.certificate
    return outcome.verdict == NOT_REPRESENTABLE, {
        "verdict": outcome.verdict,
        "violating_s": None if cert is None else cert.violating_s,
    }


def _sum_decomposition_item(reference: QuasiPolynomial) -> tuple:
    report = verify_sum_decomposition(Fraction(1, 100), 600)
    return report["corrected_pass"], report


def _interior_ray_item(reference: QuasiPolynomial) -> tuple:
    report = interior_ray_check(1, 6, reference=reference)
    return report["pass"], {
        key: report[key] for key in ("t", "inner_degree", "rejected_inner_degree", "s_max")
    }


def cmd_verify_paper(args: argparse.Namespace) -> int:
    for option, value in (("--smax-outer", args.smax_outer), ("--smax-inner", args.smax_inner)):
        if value < 0:
            return _usage_error(f"{option} must be nonnegative")
    reference = phi_reference()
    if args.reference_qp is not None:
        reference = _read_qp(args.reference_qp, "reference qp")
    # the items in report order: a name, and a function of the reference
    # that returns (pass, detail)
    checks = (
        ("theorem-ray-values",
         lambda ref: _theorem_ray_item(args.smax_outer, args.smax_inner, ref)),
        ("reciprocity-violation", _reciprocity_item),
        ("decide-inhomogeneous-not-representable", _inhomogeneous_item),
        ("decide-homogeneous-not-representable", _homogeneous_item),
        ("sum-decomposition", _sum_decomposition_item),
        ("interior-ray", _interior_ray_item),
    )
    items = []
    for name, check in checks:
        try:  # a ValueError fails its item, not the run
            passed, detail = check(reference)
        except ValueError as exc:
            passed, detail = False, str(exc)
        items.append({"name": name, "pass": passed, "detail": detail})

    summary = {"items": items, "pass": all(item["pass"] for item in items)}
    _emit_json(summary, args.output)
    for item in items:
        status = "PASS" if item["pass"] else "FAIL"
        print(f"{status}  {item['name']}", file=sys.stderr)
    return EXIT_OK if summary["pass"] else EXIT_VERIFY_FAILED


SCAN_FIELDS = (
    "d", "k", "lambda", "mode", "form", "verdict", "period", "degree", "qp", "reference"
)


def _scan_partitions(total: int, rows: int) -> list[Partition]:
    """Partitions of `total` with at most `rows` parts, largest part first."""
    if rows == 1:
        return [Partition((total,))]
    out = []
    for second in range(0, total // 2 + 1):
        out.append(Partition((total - second, second)) if second else Partition((total,)))
    return out


def _scan_one(d: int, k: int, lam: Partition, form: str, s_max: int) -> list[dict]:
    spec = RaySpec("outer", d, k, lam)
    samples = sample_ray(spec, s_max)
    try:
        found = discover_quasipoly(spec, s_max, samples=samples)
    except ValueError as exc:  # s_max too short for every pair of the ladder
        raise UsageError(str(exc)) from exc
    forms = [INHOMOGENEOUS, HOMOGENEOUS] if form == "both" else [form]
    base = {"d": d, "k": k, "lambda": str(lam), "mode": "outer"}
    if isinstance(found, FitFailure):
        return [
            {**base, "form": fm, "verdict": "fit_failure", "period": "", "degree": "",
             "qp": "", "reference": str(found)}
            for fm in forms
        ]
    qp, period, degree = found
    qp_json = json.dumps(qp.to_json_dict(), sort_keys=True)
    rows = []
    for fm in forms:
        row = {**base, "form": fm, "period": period, "degree": degree, "qp": qp_json}
        if qp.degree > 1:
            row["verdict"] = UNKNOWN
            row["reference"] = f"degree {qp.degree} exceeds the 1-d decider scope"
        else:
            outcome = _decide(fm, qp)
            row["verdict"] = outcome.verdict
            if outcome.verdict == REPRESENTABLE:
                row["reference"] = json.dumps(outcome.witness.to_json_dict(), sort_keys=True)
            elif outcome.verdict == NOT_REPRESENTABLE:
                cert = outcome.certificate
                row["reference"] = (
                    f"certificate kind={cert.kind} final_s={cert.final_s} steps={len(cert.steps)}"
                )
            else:
                row["reference"] = outcome.reason or ""
        rows.append(row)
    return rows


def cmd_scan(args: argparse.Namespace) -> int:
    if args.rows not in (1, 2):
        return _usage_error("--rows must be 1 or 2")
    if args.form not in (INHOMOGENEOUS, HOMOGENEOUS, "both"):
        return _usage_error("--form must be inhomogeneous, homogeneous, or both")
    for option, value in (("--max-boxes", args.max_boxes), ("--smax", args.smax)):
        if value < 0:
            return _usage_error(f"{option} must be nonnegative")
    rows = []
    for d in range(2, args.max_boxes // 2 + 1):
        for k in range(2, args.max_boxes // d + 1):
            for lam in _scan_partitions(d * k, args.rows):
                rows += _scan_one(d, k, lam, args.form, args.smax)
    rows.sort(key=lambda row: (row["d"], row["k"], row["lambda"], row["form"]))

    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=SCAN_FIELDS, lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(table.getvalue(), args.output, newline="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plethyray",
        description="Exact plethysm ray analysis and 1-D polytope representability decisions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pleth = sub.add_parser("plethysm", help="print one plethysm multiplicity")
    p_pleth.add_argument("d", type=int)
    p_pleth.add_argument("k", type=int)
    p_pleth.add_argument("partition", help='partition as comma-separated parts, e.g. "7,5,0"')
    p_pleth.set_defaults(func=cmd_plethysm)

    p_ray = sub.add_parser("ray", help="sample a ray and fit its quasi-polynomial")
    p_ray.add_argument("mode", choices=("outer", "inner"))
    p_ray.add_argument("d", type=int)
    p_ray.add_argument("k", type=int)
    p_ray.add_argument("partition")
    p_ray.add_argument("--smax", type=int, default=24)
    p_ray.add_argument("--period", type=int, default=None)
    p_ray.add_argument("--degree", type=int, default=None)
    p_ray.add_argument("-o", "--output", default=None)
    p_ray.set_defaults(func=cmd_ray)

    p_dec = sub.add_parser("decide", help="decide 1-D representability of a quasi-polynomial")
    p_dec.add_argument("qp_file", help="JSON file with period/degree/rows")
    p_dec.add_argument("--form", choices=(INHOMOGENEOUS, HOMOGENEOUS),
                       default=INHOMOGENEOUS)
    p_dec.add_argument("--smax", type=int, default=None)
    p_dec.add_argument("--denom-mult", type=int, default=4)
    p_dec.add_argument("-o", "--output", default=None)
    p_dec.set_defaults(func=cmd_decide)

    p_ver = sub.add_parser("verify-paper", help="run the end-to-end verification pipeline")
    p_ver.add_argument("--smax-outer", type=int, default=24)
    p_ver.add_argument("--smax-inner", type=int, default=8)
    p_ver.add_argument("--reference-qp", default=None,
                       help="override the built-in period-6 reference (negative controls)")
    p_ver.add_argument("-o", "--output", default=None)
    p_ver.set_defaults(func=cmd_verify_paper)

    p_scan = sub.add_parser("scan", help="scan small two-row rays and classify them")
    p_scan.add_argument("--rows", type=int, default=2)
    p_scan.add_argument("--max-boxes", type=int, default=12)
    p_scan.add_argument("--form", default="both")
    p_scan.add_argument("--smax", type=int, default=72)
    p_scan.add_argument("-o", "--output", default=None)
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
