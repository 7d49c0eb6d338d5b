import csv
import io
import json
import subprocess
import sys

import pytest

from plethyray.cli import SCAN_FIELDS, main
from plethyray.partitions import Partition
from plethyray.quasipoly import QuasiPolynomial, phi_reference


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plethysm_flagship_zero(capsys):
    code, out, _ = run(capsys, "plethysm", "3", "4", "7,5,0")
    assert code == 0 and out.strip() == "0"


def test_plethysm_trivial(capsys):
    code, out, _ = run(capsys, "plethysm", "1", "5", "5")
    assert code == 0 and out.strip() == "1"


def test_plethysm_derived(capsys):
    code, out, _ = run(capsys, "plethysm", "3", "2", "4,2")
    assert code == 0 and out.strip() == "1"


def test_plethysm_size_mismatch_warns_and_prints_zero(capsys):
    code, out, err = run(capsys, "plethysm", "3", "4", "7,4")
    assert code == 0 and out.strip() == "0"
    assert "warning" in err


def test_plethysm_malformed_partition_exits_2(capsys):
    code, _, err = run(capsys, "plethysm", "3", "4", "7,x")
    assert code == 2 and "error" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_ray_outer_phi(tmp_path, capsys):
    out_file = tmp_path / "ray.json"
    code, _, _ = run(capsys, "ray", "outer", "3", "4", "7,5,0",
                     "--smax", "24", "-o", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["samples"][:7] == [1, 0, 1, 1, 2, 1, 3]
    assert QuasiPolynomial.from_json_dict(report["fitted_qp"]) == phi_reference()
    assert report["failures"] == []


def test_ray_parity(capsys):
    code, out, _ = run(capsys, "ray", "outer", "2", "2", "3,1", "--smax", "12")
    assert code == 0
    report = json.loads(out)
    assert report["samples"] == [1, 0] * 6 + [1]
    assert report["fitted_qp"]["period"] == 2


def test_ray_constant(capsys):
    code, out, _ = run(capsys, "ray", "outer", "1", "3", "3", "--smax", "6")
    assert code == 0
    report = json.loads(out)
    assert report["fitted_qp"] == {"period": 1, "degree": 0, "rows": [["1"]]}


def test_ray_inner_mode(capsys):
    code, out, _ = run(capsys, "ray", "inner", "4", "3", "7,5,0", "--smax", "6")
    assert code == 0
    report = json.loads(out)
    assert report["samples"] == [1, 0, 1, 1, 2, 1, 3]
    assert report["spec"]["mode"] == "inner"


def test_ray_lone_hint_is_usage_error(capsys):
    code, _, err = run(capsys, "ray", "outer", "3", "4", "7,5,0",
                       "--smax", "24", "--period", "6")
    assert code == 2 and "together" in err


def test_ray_undersized_window_is_usage_error(capsys):
    code, _, err = run(capsys, "ray", "outer", "3", "4", "7,5,0",
                       "--smax", "10", "--period", "6", "--degree", "1")
    assert code == 2 and "enough samples" in err


def test_ray_explicit_hints_failure_is_reported(capsys):
    code, out, _ = run(capsys, "ray", "outer", "3", "4", "7,5,0",
                       "--smax", "24", "--period", "2", "--degree", "1")
    assert code == 0
    report = json.loads(out)
    assert report["fitted_qp"] is None and report["failures"]


def test_decide_phi_inhomogeneous(tmp_path, capsys):
    qp_file = tmp_path / "phi.json"
    qp_file.write_text(json.dumps(phi_reference().to_json_dict()))
    code, out, _ = run(capsys, "decide", str(qp_file), "--form", "inhomogeneous")
    assert code == 0
    outcome = json.loads(out)
    assert outcome["verdict"] == "not_representable"
    assert outcome["certificate_meta"]["final_s"] == 6
    assert {"s", "N", "m", "status"} <= set(outcome["certificate"][0])


def test_decide_representable(tmp_path, capsys):
    qp_file = tmp_path / "const.json"
    qp_file.write_text(json.dumps(QuasiPolynomial.constant(1).to_json_dict()))
    code, out, _ = run(capsys, "decide", str(qp_file))
    assert code == 0
    outcome = json.loads(out)
    assert outcome["verdict"] == "representable"
    assert set(outcome["witness"]) == {"b", "c", "bbar", "cbar"}


def test_decide_unknown_exits_3(tmp_path, capsys):
    qp_file = tmp_path / "phi.json"
    qp_file.write_text(json.dumps(phi_reference().to_json_dict()))
    code, out, _ = run(capsys, "decide", str(qp_file), "--smax", "4", "--denom-mult", "1")
    assert code == 3
    assert json.loads(out)["verdict"] == "unknown"


def test_decide_degree_two_exits_2(tmp_path, capsys):
    qp_file = tmp_path / "square.json"
    qp_file.write_text(json.dumps({"period": 1, "degree": 2, "rows": [["0", "0", "1"]]}))
    code, _, err = run(capsys, "decide", str(qp_file))
    assert code == 2 and "degree" in err


@pytest.mark.parametrize("smax", ["-1", "0"])
@pytest.mark.parametrize("form", ["inhomogeneous", "homogeneous"])
def test_decide_nonpositive_smax_is_usage_error(tmp_path, capsys, form, smax):
    for name, qp in (("one", QuasiPolynomial.constant(1)), ("phi", phi_reference())):
        qp_file = tmp_path / f"{name}.json"
        qp_file.write_text(json.dumps(qp.to_json_dict()))
        code, out, err = run(capsys, "decide", str(qp_file), "--form", form, "--smax", smax)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "s_max must be positive" in err


def test_decide_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "decide", "/nonexistent/q.json")
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "content",
    [
        pytest.param('{"period": 1, "rows": [[1]]}', id="number-entries"),
        pytest.param('{"period": 1, "rows": [[null]]}', id="null-entry"),
        pytest.param('[{"period": 1, "rows": [["1"]]}]', id="top-level-array"),
        pytest.param('{"period": 1.5, "rows": [["1"]]}', id="fractional-period"),
        pytest.param('{"period": true, "rows": [["1"]]}', id="boolean-period"),
        pytest.param('{"period": 1, "rows": ["1"]}', id="string-row"),
        pytest.param('{"period": 1, "rows": [["1/0"]]}', id="zero-denominator"),
        pytest.param('{"rows": [["1"]]}', id="no-period"),
    ],
)
@pytest.mark.parametrize("command", [("decide",), ("verify-paper", "--reference-qp")],
                         ids=["decide", "verify-paper"])
def test_malformed_quasi_polynomial_file_is_usage_error(tmp_path, capsys, command, content):
    qp_file = tmp_path / "bad.json"
    qp_file.write_text(content)
    code, out, err = run(capsys, *command, str(qp_file))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read ") and err.count("\n") == 1


def test_verify_paper_default_passes(tmp_path, capsys):
    out_file = tmp_path / "verify.json"
    code, _, err = run(capsys, "verify-paper", "-o", str(out_file))
    assert code == 0
    summary = json.loads(out_file.read_text())
    assert summary["pass"] and len(summary["items"]) == 6
    assert err.count("PASS") == 6


def test_verify_paper_stdout_is_pinned(capsys):
    # the default verify-paper JSON report byte for byte: any change to a ray
    # value, a verdict, a certificate replay or a witness shows here
    import hashlib

    code, out, _ = run(capsys, "verify-paper")
    raw = out.encode("utf-8")
    assert code == 0 and raw.count(b"\n") == 270 and len(raw) == 4320
    assert hashlib.sha256(raw).hexdigest() == (
        "aa97089e7bcfdc500467a60c05974fa7ba9e38681d3a6a94b54227ad773b210d"
    )


def test_verify_paper_smax_outer_zero_still_passes(capsys):
    code, out, _ = run(capsys, "verify-paper", "--smax-outer", "0", "--smax-inner", "0")
    assert code == 0
    assert json.loads(out)["items"][0]["pass"]


def test_verify_paper_tampered_reference_fails(tmp_path, capsys):
    data = phi_reference().to_json_dict()
    data["rows"][1][0] = "0"  # r(1) set to 0
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    out_file = tmp_path / "verify.json"
    code, _, _ = run(capsys, "verify-paper", "--reference-qp", str(bad), "-o", str(out_file))
    assert code == 1
    summary = json.loads(out_file.read_text())
    first = summary["items"][0]
    assert first["name"] == "theorem-ray-values" and not first["pass"]
    assert any(chk["s"] == 1 for chk in first["detail"]["failures"])


def scan_rows(raw: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(raw)))


def test_scan_small(capsys):
    code, out, _ = run(capsys, "scan", "--rows", "2", "--max-boxes", "4", "--form", "both")
    assert code == 0
    rows = scan_rows(out)
    assert {(r["d"], r["k"], r["lambda"]) for r in rows} == {("2", "2", "4"),
                                                             ("2", "2", "3,1"),
                                                             ("2", "2", "2,2")}
    flat = {(r["lambda"], r["form"]): r for r in rows}
    assert flat[("2,2", "inhomogeneous")]["verdict"] == "representable"
    assert flat[("3,1", "homogeneous")]["verdict"] == "representable"
    witness = json.loads(flat[("3,1", "homogeneous")]["reference"])
    assert witness["b"] == witness["bbar"] == "1/2"


def test_scan_rows_1(capsys):
    code, out, _ = run(capsys, "scan", "--rows", "1", "--max-boxes", "6",
                       "--form", "inhomogeneous")
    assert code == 0
    rows = scan_rows(out)
    assert rows and all(r["verdict"] == "representable" for r in rows)


def test_scan_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "scan", "--rows", "2", "--max-boxes", "4")
    code2, out2, _ = run(capsys, "scan", "--rows", "2", "--max-boxes", "4")
    assert code1 == code2 == 0 and out1 == out2


def test_scan_ignores_the_retired_workers_variable(capsys, monkeypatch):
    # every scan runs in one process: PLETHYRAY_WORKERS, once a pool size,
    # changes nothing, whatever its value
    monkeypatch.delenv("PLETHYRAY_WORKERS", raising=False)
    code, serial, _ = run(capsys, "scan", "--rows", "2", "--max-boxes", "4")
    assert code == 0 and serial.count("\r\n") == 7
    for value in ("two", "5000"):
        monkeypatch.setenv("PLETHYRAY_WORKERS", value)
        assert run(capsys, "scan", "--rows", "2", "--max-boxes", "4")[:2] == (0, serial)


@pytest.mark.parametrize("max_boxes", ["0", "3"])
def test_scan_below_four_boxes_is_empty(capsys, max_boxes):
    code, out, _ = run(capsys, "scan", "--max-boxes", max_boxes)
    assert code == 0 and out == ",".join(SCAN_FIELDS) + "\r\n"


def test_scan_rejects_bad_rows(capsys):
    code, _, err = run(capsys, "scan", "--rows", "3")
    assert code == 2 and "rows" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ray", "outer", "3", "4", "7,5", "--smax", "-1"),
        ("scan", "--smax", "-1"),
        ("scan", "--max-boxes", "-1"),
        ("verify-paper", "--smax-outer", "-1"),
        ("verify-paper", "--smax-inner", "-1"),
        ("plethysm", "0", "4", "0"),
        ("plethysm", "3", "-1", "0"),
        ("ray", "outer", "2", "2", "3,1", "--smax", "1"),  # too short for any ladder pair
        ("scan", "--max-boxes", "4", "--smax", "1"),
    ],
)
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_scan_csv_is_rfc4180(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--rows", "1", "--max-boxes", "4",
                     "-o", str(out_file))
    assert code == 0
    raw = out_file.read_bytes()
    assert b"\r\n" in raw


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "plethyray.cli", "plethysm", "2", "2", "2,2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "1"


def test_no_command_imports_numpy(tmp_path):
    # the package has no dependency: with numpy blocked, so that importing it
    # raises, every command runs, the three-row DP kernel included
    import os

    import plethyray
    from oracle_utils import oracle_multiplicity

    qp_file = tmp_path / "phi.json"
    qp_file.write_text(json.dumps(phi_reference().to_json_dict()))
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "import plethyray.cli as cli\n"
        "def call(*argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.main(list(argv))\n"
        "    return code, out.getvalue().strip()\n"
        "def numpy_loaded():\n"
        "    return sys.modules['numpy'] is not None\n"
        "print(call('scan', '--max-boxes', '6')[0], numpy_loaded())\n"
        "print(call('decide', sys.argv[1])[0], numpy_loaded())\n"
        "print(call('verify-paper')[0], numpy_loaded())\n"
        "for lam in ('5,4,3', '6,4,2'):\n"
        "    print(*call('plethysm', '3', '4', lam), numpy_loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plethyray.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, str(qp_file)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    expected = [oracle_multiplicity(3, 4, Partition(lam)) for lam in ((5, 4, 3), (6, 4, 2))]
    assert expected == [0, 1]
    assert proc.stdout.splitlines() == [
        "0 False", "0 False", "0 False", "0 0 False", "0 1 False",
    ]


@pytest.mark.parametrize("bad", ["missing-dir", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ("ray", "outer", "2", "2", "3,1", "--smax", "12"),
        ("decide", "{qp}"),
        ("verify-paper",),
        ("scan", "--max-boxes", "4"),
    ],
    ids=["ray", "decide", "verify-paper", "scan"],
)
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv, bad):
    qp_file = tmp_path / "phi.json"
    qp_file.write_text(json.dumps(phi_reference().to_json_dict()))
    target = tmp_path / "no-such-dir" / "out.txt" if bad == "missing-dir" else tmp_path
    argv = [arg.format(qp=qp_file) for arg in argv]
    code, out, err = run(capsys, *argv, "-o", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and str(target) in err


def test_default_scan_csv_is_pinned(capsys):
    # the default 12-box scan, the 18-box one (194 witness rows against 92)
    # and the 24-box one (186 of its 333 rays share another ray's rows),
    # byte for byte: any change to a sample, a fit, a verdict, a witness or
    # the sharing of rows between rays with equal samples shows here.  The
    # 12-box scan at s_max 24 and 48 ends its ladders at (12, 0) and (12, 2),
    # so fit runs on windows that the 72-sample scans never reach
    import hashlib

    pins = [
        ("12", "72", 133, 27334,
         "e9e2f78731b6d73c81db1042f19db905c35d05cc301f2c9f432d525c49873033"),
        ("18", "72", 331, 62076,
         "4af19311963ad2a63ee87d014e4ecc2419f4afd2a9e620ee2a6aca4f2560d7e5"),
        ("24", "72", 667, 122243,
         "f05de495629bc4cd0b92ab89cf9a8f557a366abb0a27214deeebae85f15f8c37"),
        ("12", "24", 133, 23116,
         "20e56f37d1223024f192f0d018c4db39863264a72d72ea17dd6011aa48dcaf94"),
        ("12", "48", 133, 27306,
         "c5f603da9661e32c3ff57e5cc9ee4dcb5aebb074b0adfc9ca42b7066eb372651"),
    ]
    for max_boxes, smax, lines, size, digest in pins:
        code, out, _ = run(capsys, "scan", "--rows", "2", "--max-boxes", max_boxes,
                           "--form", "both", "--smax", smax)
        raw = out.encode("utf-8")
        assert code == 0 and raw.count(b"\r\n") == lines and len(raw) == size, (max_boxes, smax)
        assert hashlib.sha256(raw).hexdigest() == digest, (max_boxes, smax)


def test_scan_classifies_each_distinct_ray_function_once(capsys, monkeypatch):
    # the 66 rays of the 12-box scan have 24 distinct sample vectors, 7 of
    # them fitting a function of degree <= 1: one fit per vector and one
    # decision per form of each of those 7.  Of the 24 ladders, 14 find a pair
    # that passes the finite-difference screen and interpolate there once; the
    # other 10 read their failure from the differences, without a fit
    import plethyray.cli as cli
    import plethyray.rays as rays

    calls = {"fit": 0, "interpolate": 0, "decide": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "discover_quasipoly", counting("fit", cli.discover_quasipoly))
    monkeypatch.setattr(cli, "_decide", counting("decide", cli._decide))
    monkeypatch.setattr(rays, "fit", counting("interpolate", rays.fit))
    code, both, _ = run(capsys, "scan", "--max-boxes", "12", "--form", "both")
    assert code == 0 and calls == {"fit": 24, "interpolate": 14, "decide": 14}

    header, *lines = both.split("\r\n")[:-1]
    rows = scan_rows(both)
    assert len(rows) == len(lines) == 132
    for form in ("inhomogeneous", "homogeneous"):
        code, out, _ = run(capsys, "scan", "--max-boxes", "12", "--form", form)
        expected = [header] + [line for line, row in zip(lines, rows) if row["form"] == form]
        assert code == 0 and out.split("\r\n")[:-1] == expected, form
