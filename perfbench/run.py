#!/usr/bin/env python3
"""Layered benchmark of plethyray: the scan12, paper and decide workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {scan12,paper,decide} --seed N \\
        --seconds S --trace {0,1}

The program runs from the checkout's ``src`` with every ``PLETHYRAY_*``
variable cleared, in closed loop: one client, items in sequence, no process
pool.  Each pass of a workload runs in a fresh interpreter (worker.py),
because a CLI user pays every cache and lazy set-up on each invocation;
passes repeat while the next is expected to end within ``--seconds``.
Every output is checked against references computed by checks.py, which
does not use the program.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
with ``trace.overhead_ratio`` = traced wall time / untraced wall time.  The
summary goes to standard output, ending with one JSON line; the full record
(environment, every per-layer metric, failures) is written to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from math import ceil
from pathlib import Path

from checks import check_decide, check_query, check_scan, check_verify_paper, two_row_table
from inputs import SCAN_MAX_BOXES, WORKLOADS, workload_items

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5  # fresh interpreters per run whose set-up time is measured
TIME_LIMIT_S = 170  # the whole run, set-up included, stops short of 180 s
TAIL_BEYOND = 10  # item_tail_s: the highest percentile with this many units of a pass beyond it


class RunError(Exception):
    pass


def worker_env() -> tuple[dict, list[str]]:
    cleared = sorted(key for key in os.environ if key.startswith("PLETHYRAY_"))
    env = {key: value for key, value in os.environ.items() if key not in cleared}
    env["PYTHONPATH"] = str(SRC)  # this checkout's program and nothing else
    env["PYTHONHASHSEED"] = "0"
    return env, cleared


def run_worker(job: dict, env: dict, scratch: Path, deadline: float) -> tuple[float, dict | None]:
    """(seconds from spawn to ready, the worker's result or None for a set-up probe)."""
    job_path, result_path, log_path = scratch / "job.json", scratch / "result.json", scratch / "log"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    with open(log_path, "w+", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
            stdout=subprocess.PIPE, stderr=log, env=env, cwd=ROOT, text=True,
        )
        try:
            if not select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))[0]:
                raise subprocess.TimeoutExpired(proc.args, deadline)
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RunError("worker passed the time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        log.seek(0)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RunError(f"worker exited {proc.returncode}:\n{log.read()[-4000:]}")
    if not job["items"]:
        return ready, None
    return ready, json.loads(result_path.read_text(encoding="utf-8"))


def check_pass(items: dict, result: dict, table: dict | None) -> dict:
    """Failures, attempted units and definite verdicts of one pass."""
    rays = len(table) if table else 0
    failures, attempted, decided, verdicts, latencies = [], 0, 0, 0, {}
    for rec in result["items"]:
        item, out = items[rec["id"]], rec["output"]
        units = rays if item["id"] == "scan" else 1
        attempted += units
        if rec["error"] is not None:
            failed, dec, res = [(item["id"], rec["error"].strip().splitlines()[-1])] * units, 0, 0
        elif item["kind"] == "query":
            failed, dec, res = check_query(item, out["value"]), 0, 0
        elif item["id"] == "scan":
            failed, dec, res = check_scan(out["exit"], out["text"], table)
        elif item["id"] == "verify-paper":
            failed, dec, res = check_verify_paper(out["exit"], out["text"])
        else:
            failed, dec, res = check_decide(item, out)
        failures += failed
        decided += dec
        verdicts += res
        # in scan12 every ray's result arrives with the whole CSV, so there the
        # latency quantiles are pass times and restate items_per_s
        for unit in range(units):
            latencies[(item["id"], unit)] = rec["latency_s"]
    return {"failures": failures, "attempted": attempted, "decided": decided,
            "verdicts": verdicts, "latencies": latencies}


def end_to_end(passes: list[dict], checked: list[dict], setup: list[float]) -> dict:
    # Latency quantiles are taken over every unit execution of the run.  On a
    # shared 2-core VM the speed alternated between two levels about 1.4x
    # apart, often for minutes; a per-unit best or median over passes jumped
    # between the two levels from run to run, the pooled quantiles did not.
    pooled = sorted(value for c in checked for value in c["latencies"].values())
    per_pass = checked[0]["attempted"]

    def quantile(q: float) -> float:
        return pooled[max(0, ceil(q * len(pooled)) - 1)]

    verdicts = sum(c["verdicts"] for c in checked)
    return {
        "items_per_s": sum(c["attempted"] for c in checked) / sum(p["wall_s"] for p in passes),
        "item_p50_s": quantile(0.5),
        "item_tail_s": quantile(1 - TAIL_BEYOND / per_pass),
        "decided_ratio": sum(c["decided"] for c in checked) / verdicts if verdicts else 0.0,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Medians of the traced passes; counts must repeat exactly between passes."""
    reports = [p["trace"] for p in traced]
    names = sorted(set().union(*(r["metrics"] for r in reports)))
    metrics, unsteady = {}, []
    for name in names:
        values = [r["metrics"][name] for r in reports if name in r["metrics"]]
        if isinstance(values[0], int) and not isinstance(values[0], bool):
            if len(set(values)) > 1:
                unsteady.append(name)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced)
    )
    absent = sorted(set().union(*(r["absent"] for r in reports)))
    return metrics, absent, unsteady


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("ratio", "rate")) else "count"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and awaited
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "plethyray" / "cli.py").is_file():
        print(f"error: no plethyray sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env, cleared = worker_env()
    item_list = workload_items(args.workload, args.seed)
    items = {item["id"]: item for item in item_list}
    table = two_row_table(SCAN_MAX_BOXES) if args.workload == "scan12" else None
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    job = {"items": item_list, "trace": False, "scratch": str(scratch)}
    try:
        setup: list[float] = []
        if not args.trace:
            run_worker({**job, "items": []}, env, scratch, deadline)  # warm the file cache
            setup = [run_worker({**job, "items": []}, env, scratch, deadline)[0]
                     for _ in range(SETUP_PROBES)]
        untraced, traced = [], []
        start = time.monotonic()
        while True:
            trace = bool(args.trace) and len(untraced) > len(traced)
            result = run_worker({**job, "trace": trace}, env, scratch, deadline)[1]
            (traced if trace else untraced).append(result)
            elapsed = time.monotonic() - start
            # stop before a pass that would end past the measuring window
            done = elapsed * (1 + 1 / (len(untraced) + len(traced))) > args.seconds
            if done and (not args.trace or traced):
                break
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = untraced + traced
    checked = [check_pass(items, p, table) for p in passes]
    failures = [f for c in checked for f in c["failures"]]
    attempted = sum(c["attempted"] for c in checked)
    failed = min(attempted, len(failures))
    env_record = {
        **passes[0]["env"],
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "seed": args.seed,
        "plethyray_vars_cleared": cleared,
    }
    if env_record["plethyray"] != str(SRC / "plethyray"):
        print(f"error: worker imported plethyray from {env_record['plethyray']}", file=sys.stderr)
        return 1

    if args.trace:
        report, absent, unsteady = per_layer(traced, untraced)
        wanted = declared["per_layer"]
    else:
        report = {**end_to_end(untraced, checked[: len(untraced)], setup),
                  "error_rate": failed / attempted}
        absent, unsteady = [], []
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": report[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in report and m["name"] not in absent}

    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced"
          f" + {len(traced)} traced  units {attempted}  failed {failed}")
    for key, value in env_record.items():
        print(f"  env {key}: {value}")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name in sorted(report):
        print(f"  {name:<48} {report[name]:>16.6g} {units.get(name) or unit_of(name)}")
    for name in absent:
        print(f"  {name:<48} {'absent':>16}")
    for name in unsteady:
        print(f"  warning: counter {name} differs between traced passes")
    for unit_id, reason in failures[:20]:
        print(f"  FAILED {unit_id}: {reason}")
    latencies = {rec["id"]: [] for rec in passes[0]["items"]}
    for p in untraced:
        for rec in p["items"]:
            latencies[rec["id"]].append(rec["latency_s"])
    record = {"env": env_record, "metrics": report,
              "absent": absent, "failures": failures, "attempted": attempted,
              "pass_wall_s": [p["wall_s"] for p in untraced], "item_latency_s": latencies}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    correct = not failures and not unsteady
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
