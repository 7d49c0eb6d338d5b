"""Tests of the benchmark itself: determinism, robust tracing and checks.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402

WORK_COUNTERS = (
    "kernels.dp_cell_updates",
    "feasibility.fm_pairs",
    "decider.branch_steps",
    "quasipoly.fit.calls",
)
SMALL_BOXES = 6


def small_job_items() -> list[dict]:
    query = next(item for item in inputs.paper_items(0) if item["id"] == "interior1:s=2")
    planted = inputs.planted_items()
    return [
        {"id": "scan", "kind": "cli", "argv": inputs.scan_argv(SMALL_BOXES)},
        {"id": "verify-paper", "kind": "cli", "argv": ["verify-paper"]},
        query,
        inputs.ladder_items()[0],
        next(item for item in planted if item["bump"] is None and item["period"] > 1),
    ]


def run_small(tmp_path: Path, trace: bool) -> dict:
    env, _ = run.worker_env()
    job = {"items": small_job_items(), "trace": trace, "scratch": str(tmp_path)}
    return run.run_worker(job, env, tmp_path, time.monotonic() + 170)[1]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict:
    result = run_small(tmp_path_factory.mktemp("small"), trace=False)
    return {rec["id"]: rec["output"] for rec in result["items"]}


def test_work_counters_repeat_exactly(tmp_path):
    first = run_small(tmp_path, trace=True)["trace"]
    second = run_small(tmp_path, trace=True)["trace"]
    assert not first["absent"]
    for name in WORK_COUNTERS:
        assert first["metrics"][name] > 0, name
        assert first["metrics"][name] == second["metrics"][name], name


def test_traced_wall_time_is_accounted_for(tmp_path):
    metrics = run_small(tmp_path, trace=True)["trace"]["metrics"]
    parts = metrics["trace.layers_s"] + metrics["trace.hook_s"] + metrics["trace.harness_s"]
    assert parts == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.harness_s"] < 0.1 * metrics["trace.wall_s"]


def test_generators_are_deterministic_per_seed():
    assert inputs.decide_items(5) == inputs.decide_items(5)
    assert inputs.decide_items(5) != inputs.decide_items(6)
    assert sorted(map(str, inputs.decide_items(5))) == sorted(map(str, inputs.decide_items(6)))
    assert inputs.paper_items(3) == inputs.paper_items(3)
    assert inputs.paper_items(3) != inputs.paper_items(4)


def test_missing_hook_targets_are_absent_not_zero():
    tracer = layertrace.Tracer()
    tracer.install([
        ("plethyray.decider", "_no_such_phase", "decider.no_such_phase", None),
        ("plethyray.feasibility", "_no_such_step", None, layertrace._fm_pairs),
        ("plethyray.no_such_module", "f", "no_such.f", None),
    ])
    report = tracer.report(wall_s=1.0)
    assert {"decider.no_such_phase", "feasibility.fm_pairs", "no_such.f"} <= set(report["absent"])
    assert "decider.no_such_phase.calls" not in report["metrics"]
    assert "feasibility.fm_pairs" not in report["metrics"]


def test_references_agree_with_known_values():
    assert [checks.phi(s) for s in range(7)] == [1, 0, 1, 1, 2, 1, 3]
    # m^{2,2}_{(2,2)} = 1 and m^{2,2}_{(3,1)} = 0 (S^2(S^2) = S^(4) + S^(2,2))
    table = checks.two_row_table(4, s_max=1)
    assert table[(2, 2, (2, 2))][1] == 1 and table[(2, 2, (3, 1))][1] == 0


def test_scan_check_rejects_tampering(outputs):
    table = checks.two_row_table(SMALL_BOXES)
    scan = outputs["scan"]
    assert checks.check_scan(scan["exit"], scan["text"], table)[0] == []
    constant = scan["text"].replace('[[""1""]]', '[[""2""]]')
    assert constant != scan["text"]
    assert checks.check_scan(0, constant, table)[0]
    lines = scan["text"].splitlines(keepends=True)
    witness = next(i for i, line in enumerate(lines) if '""cbar"": ""' in line)
    moved = lines[:witness] + [_shift_cbar(lines[witness])] + lines[witness + 1:]
    assert checks.check_scan(0, "".join(moved), table)[0]
    assert checks.check_scan(0, "".join(lines[:-1]), table)[0]
    assert checks.check_scan(1, scan["text"], table)[0]


def _shift_cbar(line: str) -> str:
    """The CSV line with its witness's cbar raised by 1."""
    head, rest = line.split('""cbar"": ""', 1)
    value, tail = rest.split('""', 1)
    return f'{head}""cbar"": ""{checks.Fraction(value) + 1}""{tail}'


def test_paper_checks_reject_tampering(outputs):
    query = next(item for item in inputs.paper_items(0) if item["id"] == "interior1:s=2")
    assert outputs[query["id"]]["value"] == checks.phi(2)
    assert checks.check_query(query, outputs[query["id"]]["value"]) == []
    assert checks.check_query(query, outputs[query["id"]]["value"] + 1)
    paper = outputs["verify-paper"]
    assert checks.check_verify_paper(paper["exit"], paper["text"]) == ([], 2, 2)
    summary = json.loads(paper["text"])
    summary["items"][4]["pass"] = False
    assert checks.check_verify_paper(0, json.dumps(summary))[0]
    assert checks.check_verify_paper(1, paper["text"])[0]


def test_decide_checks_reject_tampering(outputs):
    items = small_job_items()
    for item in items[3:]:
        out = outputs[item["id"]]
        assert checks.check_decide(item, out) == ([], 2, 2), item["id"]
    ladder, planted = items[3], items[4]

    tampered = copy.deepcopy(outputs[ladder["id"]])
    tampered["forms"]["inhomogeneous"]["replayed"] = False
    assert checks.check_decide(ladder, tampered)[0]
    tampered = copy.deepcopy(outputs[ladder["id"]])
    tampered["forms"]["inhomogeneous"].update(verdict="unknown", exit=3)
    assert checks.check_decide(ladder, tampered)[0]

    tampered = copy.deepcopy(outputs[planted["id"]])
    witness = tampered["forms"]["inhomogeneous"]["witness"]
    witness["cbar"] = str(checks.Fraction(witness["cbar"]) + 1)
    assert checks.check_decide(planted, tampered)[0]
    tampered = copy.deepcopy(outputs[planted["id"]])
    tampered["qp"]["rows"][0][0] = str(checks.Fraction(tampered["qp"]["rows"][0][0]) + 1)
    assert checks.check_decide(planted, tampered)[0]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
