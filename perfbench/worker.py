"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The worker imports ``plethyray.cli``, builds its parser and prints ``ready``
on standard output; the orchestrator times set-up up to that line.  A job
with no items stops there.  Otherwise the worker runs the items in sequence
(one client, closed loop), optionally under the layer tracer, and writes
each item's latency and raw output to RESULT.json.  It checks nothing: the
orchestrator checks the outputs against its own references.
"""

from __future__ import annotations

import contextlib
import io
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback
from fractions import Fraction

import plethyray.cli as cli

# Set-up ends once plethyray.cli is imported and its parser built; other
# program modules are imported where they are used, so that a lazier CLI
# shows up as a shorter set-up.

FORMS = ("inhomogeneous", "homogeneous")


def environment() -> dict:
    try:
        from plethyray.kernels import resolve_backend
        backend = resolve_backend()
    except ImportError:
        backend = "absent"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "resolve_backend": backend,
        "plethyray": os.path.dirname(cli.__file__),
    }


def build_qp(item: dict, scratch: str) -> str:
    """The item's quasi-polynomial from its family, as a JSON file for the CLI."""
    from plethyray.intervals import ShiftedIntervalFamily, periodic_count_qp
    from plethyray.quasipoly import QuasiPolynomial

    fam = ShiftedIntervalFamily(*(Fraction(x) for x in item["family"]))
    qp = periodic_count_qp(fam, item["period"])
    if not isinstance(qp, QuasiPolynomial):
        raise ValueError(f"{item['id']}: periodic_count_qp gave {qp}")
    if item["bump"] is not None:
        rows = [list(row) for row in qp.rows]
        rows[item["bump"]][0] += 1
        qp = QuasiPolynomial(qp.period, rows)
    path = os.path.join(scratch, f"{item['id'].replace(':', '_')}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(qp.to_json_dict(), handle)
    return path


def run_cli(argv: list[str]) -> dict:
    """One in-process CLI call; its standard output is the result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exit_code = cli.main(argv)
    return {"exit": exit_code, "text": out.getvalue() or None}


def run_decide(item: dict, qp_path: str) -> dict:
    """Both forms through the CLI, then replay each certificate from its JSON."""
    from plethyray import decider
    from plethyray.quasipoly import QuasiPolynomial

    with open(qp_path, encoding="utf-8") as handle:
        qp_json = json.load(handle)
    q = QuasiPolynomial.from_json_dict(qp_json)
    forms = {}
    for form in FORMS:
        out = run_cli(["decide", qp_path, "--form", form])
        data = json.loads(out["text"]) if out["text"] else {"verdict": "missing"}
        replayed = None
        if "certificate" in data:
            outcome = decider.DecisionOutcome.from_json_dict(data)
            replayed = decider.replay_certificate(outcome.certificate, q)
        forms[form] = {"exit": out["exit"], "verdict": data["verdict"],
                       "witness": data.get("witness"), "replayed": replayed}
    return {"qp": qp_json, "forms": forms}


def run_item(item: dict, qp_paths: dict) -> dict:
    if item["kind"] == "cli":
        return run_cli(item["argv"])
    if item["kind"] == "query":
        from plethyray import plethysm
        from plethyray.partitions import Partition

        lam = Partition(tuple(item["lam"]))
        return {"value": plethysm.plethysm_multiplicity(item["d"], item["k"], lam)}
    if item["kind"] == "decide":
        path = qp_paths[item["id"]]
        if isinstance(path, Exception):
            raise RuntimeError("input not built") from path
        return run_decide(item, path)
    raise ValueError(f"unknown item kind {item['kind']!r}")


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    if not job["items"]:
        return 0
    qp_paths = {}
    for item in job["items"]:
        if item["kind"] == "decide":
            try:
                qp_paths[item["id"]] = build_qp(item, job["scratch"])
            except Exception as exc:  # the item then fails with this cause
                qp_paths[item["id"]] = exc
    tracer = None
    if job["trace"]:
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
    records = []
    with contextlib.redirect_stdout(sys.stderr):  # keep stray output off the ready pipe
        start = time.perf_counter()
        for item in job["items"]:
            t0 = time.perf_counter()
            try:
                output, error = run_item(item, qp_paths), None
            except Exception:  # an item that raises is a failed item, not a failed run
                output, error = None, traceback.format_exc()
            records.append({"id": item["id"], "latency_s": time.perf_counter() - t0,
                            "output": output, "error": error})
        wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": records,
        "env": environment(),
        "trace": tracer.report(wall) if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    cli.build_parser()
    print("ready", flush=True)
    sys.exit(main(sys.argv[1], sys.argv[2]))
