"""Independent references and the output checks of every workload.

Nothing here imports plethyray: each reference is computed by the
benchmark's own arithmetic, so a defect in the program cannot validate its
own output.

* scan12: the two-row Cayley-Sylvester closed form
  m^{d,K}_{(dK-j, j)} = p_{d,K}(j) - p_{d,K}(j-1), where p_{d,K}(j) counts
  the partitions of j in a d x K box (coefficients of a Gaussian binomial).
* paper: phi(s) = (s + r(s mod 6))/3 with r = (3, -1, 1, 0, 2, -2).
* decide: lattice-point counts of the planted families by floor/ceil.

Each check returns a list of (unit id, reason) failures; an empty list means
the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from math import lcm

from inputs import SCAN_SMAX, raw_count, scan_rays

DEFINITE = ("representable", "not_representable")
FORMS = ("inhomogeneous", "homogeneous")
PAPER_ITEMS = (
    "theorem-ray-values",
    "reciprocity-violation",
    "decide-inhomogeneous-not-representable",
    "decide-homogeneous-not-representable",
    "sum-decomposition",
    "interior-ray",
)
# the only inhomogeneous refutation in the 12-box two-row scan
SCAN_REFUTED = (3, 4, (7, 5))


def phi(s: int) -> int:
    # s + r(s) is a multiple of 3 on every residue class
    return (s + (3, -1, 1, 0, 2, -2)[s % 6]) // 3


def count(fam: tuple[Fraction, ...], s: int) -> int:
    """Integers in [s*b + c, s*bbar + cbar]."""
    return max(0, raw_count(fam, s))


def eval_qp(qp: dict, s: int) -> Fraction:
    """A quasi-polynomial in the program's JSON form, at any integer s."""
    row = qp["rows"][s % int(qp["period"])]
    acc = Fraction(0)
    for coeff in reversed(row):
        acc = acc * s + Fraction(coeff)
    return acc


def family_from_json(data: dict) -> tuple[Fraction, ...]:
    return tuple(Fraction(data[key]) for key in ("b", "c", "bbar", "cbar"))


# --- scan12 -----------------------------------------------------------------


def box_partition_counts(d: int, K: int, J: int) -> list[int]:
    """p_{d,K}(j) for j = 0..J: coefficients of prod_{i<=d} (1-q^{K+i})/(1-q^i)."""
    coeffs = [1] + [0] * J
    for i in range(1, d + 1):
        for j in range(i, J + 1):
            coeffs[j] += coeffs[j - i]
    for i in range(1, d + 1):
        step = K + i
        for j in range(J, step - 1, -1):
            coeffs[j] -= coeffs[j - step]
    return coeffs


def two_row_table(max_boxes: int, s_max: int = SCAN_SMAX) -> dict:
    """m^{d,sk}_{s*lam} for s = 0..s_max on every ray of a two-row scan."""
    rays = scan_rays(max_boxes)
    table = {}
    for d, k in sorted({(d, k) for d, k, _ in rays}):
        seconds = [lam[1] if len(lam) > 1 else 0 for dd, kk, lam in rays if (dd, kk) == (d, k)]
        boxes = [box_partition_counts(d, s * k, s * max(seconds)) for s in range(s_max + 1)]
        for dd, kk, lam in rays:
            if (dd, kk) != (d, k):
                continue
            second = lam[1] if len(lam) > 1 else 0
            table[(d, k, lam)] = [
                boxes[s][s * second] - (boxes[s][s * second - 1] if s * second else 0)
                for s in range(s_max + 1)
            ]
    return table


def _ray_label(ray) -> str:
    d, k, lam = ray
    return f"{d},{k},({','.join(map(str, lam))})"


_FIT_MISMATCH = re.compile(r"at s=(\d+): sample (-?\d+(?:/\d+)?),")


def _check_scan_ray(ray, rows: dict, values: list[int]) -> str | None:
    if set(rows) != set(FORMS):
        return f"expected one row per form, got {sorted(rows)}"
    inh, hom = rows["inhomogeneous"], rows["homogeneous"]
    if "fit_failure" in (inh["verdict"], hom["verdict"]):
        if inh["verdict"] != hom["verdict"]:
            return "fit_failure in one form only"
        match = _FIT_MISMATCH.search(inh["reference"])
        if match is None:
            return f"unreadable fit failure {inh['reference']!r}"
        s, sample = int(match.group(1)), Fraction(match.group(2))
        if s >= len(values) or sample != values[s]:
            return f"fit failure quotes sample {sample} at s={s}, closed form differs"
        return None
    qp = json.loads(inh["qp"])
    if json.loads(hom["qp"]) != qp:
        return "the two forms report different quasi-polynomials"
    if (str(qp["period"]), str(qp["degree"])) != (inh["period"], inh["degree"]):
        return "period/degree columns disagree with the qp"
    for s, value in enumerate(values):
        if eval_qp(qp, s) != value:
            return f"fitted qp({s}) = {eval_qp(qp, s)} != closed form {value}"
    for form, row in rows.items():
        verdict = row["verdict"]
        if verdict == "representable":
            fam = family_from_json(json.loads(row["reference"]))
            if form == "homogeneous" and (fam[1], fam[3]) != (0, 0):
                return "homogeneous witness has nonzero offsets"
            for s, value in enumerate(values):
                if count(fam, s) != value:
                    return f"{form} witness counts {count(fam, s)} at s={s}, expected {value}"
        elif verdict == "not_representable":
            if form == "inhomogeneous" and ray != SCAN_REFUTED:
                return "inhomogeneous refutation outside (3, 4, (7,5))"
            if "kind=reciprocity" in row["reference"]:
                if not any(abs(eval_qp(qp, -s)) > eval_qp(qp, s) for s in range(1, len(values))):
                    return "reciprocity certificate but no violation"
        elif verdict != "unknown":
            return f"unexpected verdict {verdict!r}"
    if hom["verdict"] == "representable" and inh["verdict"] != "representable":
        return "homogeneous witness exists but inhomogeneous verdict is not representable"
    if ray == SCAN_REFUTED and inh["verdict"] != "not_representable":
        return f"(3, 4, (7,5)) inhomogeneous verdict is {inh['verdict']}"
    return None


def check_scan(exit_code: int, text: str | None, table: dict) -> tuple[list, int, int]:
    """(failures per ray, definite rows, rows) for one scan CSV."""
    if exit_code != 0 or text is None:
        return [(_ray_label(ray), f"scan exited {exit_code}") for ray in table], 0, 0
    grouped: dict = {}
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        parts = tuple(int(x) for x in row["lambda"].split(","))
        key = (int(row["d"]), int(row["k"]), parts)
        grouped.setdefault(key, {})[row["form"]] = row
    failures = []
    for ray, values in table.items():
        reason = _check_scan_ray(ray, grouped.get(ray, {}), values)
        if reason is not None:
            failures.append((_ray_label(ray), reason))
    if len(rows) != 2 * len(table) or set(grouped) != set(table):
        failures.append(("scan:rows", f"{len(rows)} rows for {len(table)} rays"))
    decided = sum(row["verdict"] in DEFINITE for row in rows)
    return failures, decided, len(rows)


# --- paper ------------------------------------------------------------------


def check_query(item: dict, value: int) -> list:
    expected = phi(item["s"])
    if value != expected:
        return [(item["id"], f"multiplicity {value} != phi({item['s']}) = {expected}")]
    return []


def check_verify_paper(exit_code: int, text: str | None) -> tuple[list, int, int]:
    """(failures, definite verdicts, verdicts) for one verify-paper summary."""
    if exit_code != 0 or text is None:
        return [("verify-paper", f"exited {exit_code}")], 0, 2
    summary = json.loads(text)
    items = {item["name"]: item for item in summary["items"]}
    decisions = [items[name]["detail"] for name in PAPER_ITEMS[2:4] if name in items]
    decided = sum(isinstance(det, dict) and det.get("verdict") in DEFINITE for det in decisions)
    if tuple(item["name"] for item in summary["items"]) != PAPER_ITEMS:
        return [("verify-paper", f"items {sorted(items)}")], decided, 2
    failed = [name for name in PAPER_ITEMS if items[name]["pass"] is not True]
    if failed or summary["pass"] is not True:
        return [("verify-paper", f"failing items {failed}")], decided, 2
    return [], decided, 2


# --- decide -----------------------------------------------------------------


def decide_reference(item: dict):
    """The item's counting function, from its family by floor/ceil."""
    fam = tuple(Fraction(x) for x in item["family"])
    period, bump = item["period"], item["bump"]
    return lambda s: count(fam, s) + (1 if bump is not None and s % period == bump else 0)


def _check_form(item, form, out, ref) -> str | None:
    verdict = out["verdict"]
    if out["exit"] != (3 if verdict == "unknown" else 0):
        return f"{form}: exit {out['exit']} with verdict {verdict}"
    if item["refutable"] and verdict != "not_representable":
        return f"{form}: stress input judged {verdict}"
    if form == "inhomogeneous" and item["bump"] is None and verdict == "not_representable":
        return "planted family refuted in inhomogeneous form"
    if verdict == "representable":
        fam = family_from_json(out["witness"])
        if form == "homogeneous" and (fam[1], fam[3]) != (0, 0):
            return "homogeneous witness has nonzero offsets"
        horizon = 3 * lcm(item["period"], fam[0].denominator, fam[2].denominator) + 24
        for s in range(horizon + 1):
            if count(fam, s) != ref(s):
                return f"{form}: witness counts {count(fam, s)} at s={s}, expected {ref(s)}"
    elif verdict == "not_representable":
        if out["replayed"] is not True:
            return f"{form}: certificate does not replay"
    elif verdict != "unknown":
        return f"{form}: unexpected verdict {verdict!r}"
    return None


def check_decide(item: dict, output: dict) -> tuple[list, int, int]:
    """(failures, definite verdicts, verdicts) for one input decided in both forms."""
    ref = decide_reference(item)
    forms = output["forms"]
    decided = sum(forms[form]["verdict"] in DEFINITE for form in forms)
    for s in range(3 * item["period"] + 1):
        if eval_qp(output["qp"], s) != ref(s):
            return [(item["id"], f"input qp({s}) != reference {ref(s)}")], decided, 2
    if set(forms) != set(FORMS):
        return [(item["id"], f"forms {sorted(forms)}")], decided, 2
    for form in FORMS:
        reason = _check_form(item, form, forms[form], ref)
        if reason is not None:
            return [(item["id"], reason)], decided, 2
    return [], decided, 2
