"""Seeded inputs of the three workloads.

Pure Python with no import of plethyray: the orchestrator generates the
inputs here, hands them to a worker process as JSON, and checks the worker's
outputs against references computed from the same inputs (see checks.py).
The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, floor

WORKLOADS = ("scan12", "paper", "decide")

# scan12: the CLI's own 12-box two-row scan at its default --smax (72).
SCAN_MAX_BOXES = 12
SCAN_SMAX = 72


def scan_argv(max_boxes: int = SCAN_MAX_BOXES) -> list[str]:
    return ["scan", "--rows", "2", "--max-boxes", str(max_boxes), "--form", "both"]


def scan_rays(max_boxes: int = SCAN_MAX_BOXES) -> list[tuple[int, int, tuple[int, ...]]]:
    """The outer rays (d, k, lam) a two-row scan classifies, in CLI order."""
    rays = []
    for d in range(2, max_boxes // 2 + 1):
        for k in range(2, max_boxes // d + 1):
            total = d * k
            for second in range(0, total // 2 + 1):
                rays.append((d, k, (total - second, second) if second else (total,)))
    return rays


# paper: five three-row rays that the paper proves equal phi, as
# (label, mode, d, k, lam, s_max).  The outer mode scales k and lam by s
# (m^{d,sk}_{s*lam}); the inner mode scales d and lam (m^{sd,k}_{s*lam}).
PAPER_RAYS = (
    ("outer", "outer", 3, 4, (7, 5, 0), 36),
    ("inner", "inner", 4, 3, (7, 5, 0), 12),
    ("interior1", "outer", 3, 6, (9, 7, 2), 10),
    ("interior2", "outer", 3, 8, (11, 9, 4), 9),
    ("interior3", "outer", 3, 10, (13, 11, 6), 7),
)


def paper_items(seed: int) -> list[dict]:
    """verify-paper plus one multiplicity query per ray point, in seeded order."""
    items: list[dict] = [{"id": "verify-paper", "kind": "cli", "argv": ["verify-paper"]}]
    for label, mode, d, k, lam, s_max in PAPER_RAYS:
        for s in range(1, s_max + 1):
            items.append({
                "id": f"{label}:s={s}", "kind": "query", "s": s,
                "d": d if mode == "outer" else s * d,
                "k": s * k if mode == "outer" else k,
                "lam": [s * part for part in lam],
            })
    random.Random(seed).shuffle(items)
    return items


# decide: the fixed stress ladder plus a batch of planted families.  The batch
# is drawn once, from PLANTED_SEED; --seed shuffles the order of all items.
# A batch drawn per seed made the per-item latency percentiles depend on the
# seed far more than on the program: over ten seeds the quartile spread of
# the median latency was 11-22% and of the tail latency 15-70%, because the
# cost of refuting a bumped family is heavy-tailed.
LADDER_PERIODS = (6, 9, 12, 15)
PLANTED_PERIODS = (1, 2, 3, 4, 6)
PLANTED_PER_PERIOD = 8
PLANTED_SEED = 20150727


def raw_count(fam: tuple[Fraction, Fraction, Fraction, Fraction], s: int) -> int:
    b, c, bbar, cbar = fam
    return floor(s * bbar + cbar) - ceil(s * b + c) + 1


def _family_item(item_id: str, fam, period: int, bump: int | None,
                 refutable: bool = False) -> dict:
    return {"id": item_id, "kind": "decide", "period": period,
            "family": [str(x) for x in fam], "bump": bump, "refutable": refutable}


def ladder_items() -> list[dict]:
    """[s/p + 1/2, 3s/p + 3/4] with 1 added to its last residue row."""
    return [
        _family_item(f"ladder:p={p}", (Fraction(1, p), Fraction(1, 2), Fraction(3, p),
                                        Fraction(3, 4)), p, p - 1, refutable=True)
        for p in LADDER_PERIODS
    ]


def planted_items() -> list[dict]:
    """Families [s*b + c, s*bbar + cbar] of period p, half bumped at one residue.

    The batch is drawn from PLANTED_SEED.  Every period gets the same number
    of families, and within each period every other family is bumped.  A
    family is kept only when its raw count is nonnegative on one full period,
    which (with bbar >= b) makes it a period-p quasi-polynomial from s = 0 on.
    """
    rng = random.Random(PLANTED_SEED)
    items = []
    for p in PLANTED_PERIODS:
        kept = 0
        while kept < PLANTED_PER_PERIOD:
            b = Fraction(rng.randrange(0, p), p)
            gap = Fraction(rng.randrange(0, p + 1), p)
            c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 7))
            cbar = c + Fraction(rng.randrange(0, 13), rng.randrange(1, 7))
            fam = (b, c, b + gap, cbar)
            if any(raw_count(fam, j) < 0 for j in range(p)):
                continue
            bump = rng.randrange(p) if kept % 2 else None
            items.append(_family_item(f"planted:p={p}:{kept}", fam, p, bump))
            kept += 1
    return items


def decide_items(seed: int) -> list[dict]:
    items = ladder_items() + planted_items()
    random.Random(seed).shuffle(items)
    return items


def workload_items(workload: str, seed: int) -> list[dict]:
    if workload == "scan12":
        return [{"id": "scan", "kind": "cli", "argv": scan_argv()}]
    if workload == "paper":
        return paper_items(seed)
    if workload == "decide":
        return decide_items(seed)
    raise ValueError(f"unknown workload {workload!r}")
