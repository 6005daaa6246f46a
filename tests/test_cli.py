import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steerkit as sk
from steerkit import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- analyze -------------------------------------------------------------------


def test_analyze_werner_steerable(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "werner", "--v", "0.6")
    assert code == 0
    report = json.loads(out)
    assert report["label"] == "werner(v=0.6)"
    verdicts = {v["criterion"]: v for v in report["verdicts"]}
    assert verdicts["steering"]["detected"]
    assert verdicts["steering"]["margin"] == pytest.approx(0.12, abs=1e-12)
    assert "steering detected" in report["summary"]


def test_analyze_werner_entangled_not_steerable(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "werner", "--v", "0.4")
    assert code == 0
    verdicts = {v["criterion"]: v for v in json.loads(out)["verdicts"]}
    assert verdicts["entanglement"]["detected"]
    assert not verdicts["steering"]["detected"]


def test_analyze_report_is_self_consistent(capsys):
    code, out, _ = run(
        capsys, "analyze", "--family", "noisy-schmidt", "--alpha", "1.2",
        "--v", "0.8",
    )
    assert code == 0
    report = json.loads(out)
    tensor = sk.CorrelationTensor(np.array(report["tensor"]))
    schmidt = sk.svd3(tensor.block)
    rebuilt = sk.ladder(schmidt.t1, schmidt.t2, sk.tensor_norm_sq(tensor))
    for stored, (criterion, (lhs, _, margin)) in zip(
            report["verdicts"], rebuilt.items()):
        assert stored["criterion"] == criterion.value
        assert stored["lhs"] == pytest.approx(lhs, abs=1e-12)
        assert stored["detected"] == sk.criteria.detected(margin)


def test_analyze_document_round_trip(tmp_path, capsys):
    state = sk.werner(0.6)
    doc = cli.state_to_document(state, label="werner(v=0.6)")
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code_doc, out_doc, _ = run(capsys, "analyze", str(path))
    code_fam, out_fam, _ = run(capsys, "analyze", "--family", "werner", "--v", "0.6")
    assert code_doc == code_fam == 0
    assert json.loads(out_doc) == json.loads(out_fam)


def test_analyze_accepted_state_at_the_positivity_floor(tmp_path, capsys):
    # Smallest eigenvalue -9.0e-10 passes validation; one tensor entry
    # exceeds 1 by 3.6e-9, which the expansion must accept too.
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = np.outer(phi, phi) + 9e-10 * np.diag([1.0, -1.0, -1.0, 1.0])
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(cli.state_to_document(sk.validate_state(rho))))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert max(abs(x) for row in report["tensor"] for x in row) > 1.0 + 1e-9
    assert len(report["verdicts"]) == 4


def test_analyze_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "analyze", "--family", "werner", "--v", "0.3", "--out",
        str(out_path),
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["label"] == "werner(v=0.3)"


def test_analyze_malformed_document(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert err != ""


def test_analyze_wrong_shape_document(tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"matrix": [[[1.0, 0.0]] * 3] * 3}))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "4x4" in err


@pytest.mark.parametrize("cell", [[1.0, 0.0, 7.0], [True, False], [10 ** 400, 0]])
def test_analyze_malformed_cell(tmp_path, capsys, cell):
    # Read as 1+0j, either of the first two cells would make the document a
    # valid |00><00|. The third is valid JSON, but its integer has no float value.
    matrix = [[[0.0, 0.0]] * 4 for _ in range(4)]
    matrix[0][0] = cell
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert "[re, im]" in err


def test_analyze_invalid_state_document(tmp_path, capsys):
    matrix = [[[0.0, 0.0]] * 4 for _ in range(4)]
    for k, value in enumerate([2.0, -1.0, 0.0, 0.0]):
        matrix[k][k] = [value, 0.0]
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "NotPositive" in err


def test_analyze_nan_document(tmp_path, capsys):
    doc = cli.state_to_document(sk.werner(0.5))
    doc["matrix"][0][1] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:")
    assert "NonFinite" in err


def test_analyze_document_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"matrix": []}).encode("utf-16-le"))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def run_process(*argv):
    # A fresh interpreter, for failures that would escape cli.main in-process.
    src = str(Path(sk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "steerkit.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_analyze_deeply_nested_document(tmp_path):
    # The JSON parser recurses once per level; 100,000 levels exhaust the
    # interpreter's recursion limit, which must read as a malformed document.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    proc = run_process("analyze", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("upper, lower, diagonal", [
    pytest.param(9e307, 9e307, 0.25, id="9e+307-0.25"),
    pytest.param(0.0, 0.0, 1e308, id="0.0-1e+308"),
    pytest.param(1e308, -1e308, 0.25, id="1e+308--1e+308-0.25"),
])
def test_analyze_overflowing_document(tmp_path, upper, lower, diagonal):
    # Finite entries whose sum m + m^H or difference m - m^H overflows:
    # off-diagonal cells of 9e307 or of opposite signs near 1e308 on a
    # maximally mixed diagonal, and a diagonal of four 1e308 entries.
    # A fresh interpreter shows the whole stderr, warnings included.
    matrix = [[[diagonal if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    matrix[0][1], matrix[1][0] = [upper, 0.0], [lower, 0.0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"matrix": matrix}))
    proc = run_process("analyze", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("invalid input: not a valid two-qubit state:")
    assert proc.stderr.count("\n") == 1


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/state.json")
    assert code == 1


def test_analyze_family_out_of_range(capsys):
    code, _, err = run(capsys, "analyze", "--family", "werner", "--v", "1.5")
    assert code == 2


def test_analyze_rejects_both_inputs(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(cli.state_to_document(sk.werner(0.5))))
    code, _, err = run(
        capsys, "analyze", str(path), "--family", "werner", "--v", "0.5"
    )
    assert code == 1


@pytest.mark.parametrize("option,value", [("--v", "0.3"), ("--alpha", "2")])
def test_analyze_document_rejects_family_options(tmp_path, capsys, option, value):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(cli.state_to_document(sk.werner(0.5))))
    code, out, err = run(capsys, "analyze", str(path), option, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert option in err


# --- sweep ---------------------------------------------------------------------


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_sweep_werner_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "werner", "--grid", "0:1:101")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "family", "alpha", "v", "T1", "normSq", "ent", "steer", "bell", "chsh",
        "steer_margin",
    ]
    assert len(rows) == 101
    assert all(row[0] == "werner" and row[1] == "" for row in rows)
    first_steer = next(row for row in rows if row[6] == "1")
    assert float(first_steer[2]) == pytest.approx(0.51)


def test_sweep_noisy_schmidt_slice(capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "noisy-schmidt", "--alpha",
        str(np.pi / 3), "--grid", "0:1:101",
    )
    assert code == 0
    _, rows = parse_csv(out)
    first_steer = next(row for row in rows if row[6] == "1")
    # threshold 3 / (2 * 2.5) = 0.6 sits on a boundary grid point
    assert float(first_steer[2]) == pytest.approx(0.61)
    assert float(rows[0][1]) == pytest.approx(np.pi / 3)


def test_sweep_empty_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "werner", "--grid", "0:1:0")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "family"
    assert rows == []


def test_sweep_range_error(capsys):
    code, _, err = run(capsys, "sweep", "--family", "werner", "--grid", "0:2:5")
    assert code == 2


def test_sweep_grid_count_bounded():
    # 10**15 points would need petabytes; the count is refused before any
    # array is built.
    proc = run_process("sweep", "--family", "werner", "--grid", "0:1:1000000000000000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("invalid input:")
    assert "Traceback" not in proc.stderr


def test_sweep_bad_grid_spec(capsys):
    code, _, err = run(capsys, "sweep", "--family", "werner", "--grid", "nope")
    assert code == 1


@pytest.mark.parametrize("alpha", ["99", "-0.5", "nan"])
def test_sweep_rejects_alpha_before_the_grid(capsys, alpha):
    code, out, err = run(
        capsys, "sweep", "--family", "noisy-schmidt", "--alpha", alpha,
        "--grid", "0:1:0",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:")


def test_sweep_to_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "sweep", "--family", "werner", "--grid", "0:1:5", "--out",
        str(out_path),
    )
    assert code == 0
    assert out == ""
    _, rows = parse_csv(out_path.read_text())
    assert len(rows) == 5


def test_sweep_values_have_12_significant_digits(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "werner", "--grid", "0:1:3")
    _, rows = parse_csv(out)
    margin = rows[2][9]  # v = 1: margin = 2 - 1 = 1
    assert float(margin) == pytest.approx(1.0, abs=1e-11)
    t1 = rows[1][3]  # v = 0.5
    assert abs(float(t1) - 0.5) <= 1e-11


@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "werner", "--v", "0.6"],
    ["sweep", "--family", "werner", "--grid", "0:1:3"],
    ["threshold", "--family", "werner", "--criterion", "steering"],
], ids=lambda argv: argv[0])
def test_werner_rejects_alpha(capsys, argv):
    code, out, err = run(capsys, *argv, "--alpha", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:")


# --- threshold -----------------------------------------------------------------


def test_threshold_werner_steering(capsys):
    code, out, _ = run(
        capsys, "threshold", "--family", "werner", "--criterion", "steering"
    )
    assert code == 0
    line = out.strip()
    assert len(line.split(".")[1]) == 10
    assert float(line) == pytest.approx(0.5, abs=1e-8)


def test_threshold_werner_entanglement(capsys):
    code, out, _ = run(
        capsys, "threshold", "--family", "werner", "--criterion", "entanglement"
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_threshold_near_boundary_angle(capsys):
    code, out, _ = run(
        capsys, "threshold", "--family", "noisy-schmidt", "--alpha", "0.5236",
        "--criterion", "steering",
    )
    assert code == 0
    expected = 3.0 / (2.0 * (1.0 + 2.0 * np.sin(0.5236) ** 2))
    assert float(out.strip()) == pytest.approx(expected, abs=1e-8)


def test_threshold_no_detection(capsys):
    code, out, _ = run(
        capsys, "threshold", "--family", "noisy-schmidt", "--alpha",
        str(np.pi / 8), "--criterion", "steering",
    )
    assert code == 4
    assert out.strip() == "none"


# --- verify --------------------------------------------------------------------


def test_verify_fast_passes(capsys):
    code, out, _ = run(capsys, "verify", "--level", "fast")
    assert code == 0
    assert "all" in out and "passed" in out
    assert "(E_Q,E_Q) Werner(1) = 16pi^2/3" in out
    assert "FAIL" not in out


def test_verify_deterministic_output(capsys):
    _, first, _ = run(capsys, "verify", "--level", "fast", "--seed", "7")
    _, second, _ = run(capsys, "verify", "--level", "fast", "--seed", "7")
    assert first == second
    _, other_seed, _ = run(capsys, "verify", "--level", "fast", "--seed", "8")
    assert other_seed != first


# (name, target, tol, status) of each line of the seed-42 fast table.
FAST_TABLE = [
    ("orthogonality(N=2)", "(4pi/3) delta_kl", "1e-12", "pass"),
    ("orthogonality(N=8)", "(4pi/3) delta_kl", "1e-12", "pass"),
    ("(E_Q,E_Q) Werner(1) = 16pi^2/3", "52.637890", "1e-10", "pass"),
    ("norm identity (10 random states)", "(16pi^2/9)||T||^2", "1e-10", "pass"),
    ("vector integral identity (20 draws)", "(4pi/3) m.T lambda", "1e-12", "pass"),
    ("ns inequality (1000 models)", "(E_Q,E_NS) <= (8pi^2/3) T1", "1e-06", "pass"),
    ("ns bound saturation (5 states)", "(8pi^2/3) T1", "1e-06", "pass"),
    ("chsh ns maximum", "2", "1e-06", "pass"),
    ("abs-cos integral (split grid)", "2pi", "1e-12", "pass"),
    ("projection constant", "sqrt(3pi)", "1e-12", "pass"),
    ("steering/LHV bound ratio", "2/3", "5e-16", "pass"),
]


def test_verify_fast_table_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--level", "fast", "--seed", "42")
    assert code == 0
    head, columns, *rows, tail = out.splitlines()
    assert head == "verification level=fast seed=42"
    assert columns.split() == ["check", "target", "computed", "defect", "tol", "status"]
    assert tail == "all 11 checks passed"
    # Fixed-width columns; the defects are rounding-level and not pinned.
    parsed = [(r[:42].rstrip(), r[43:71].rstrip(), r[100:109].strip(), r[110:])
              for r in rows]
    assert parsed == FAST_TABLE
    values = {r[:42].rstrip(): r[72:86].strip() for r in rows}
    assert values["ns inequality (1000 models)"] == "-1.197417e-01"
    assert values["chsh ns maximum"] == "2.000000e+00"


def test_verify_full_passes(capsys):
    code, out, _ = run(capsys, "verify", "--level", "full", "--seed", "42")
    assert code == 0
    assert out.splitlines()[-1] == "all 12 checks passed"
    assert "ns inequality (10000 models)" in out
    assert "ns overlap Monte Carlo (1e6 samples)" in out


def test_verify_rejects_negative_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "non-negative" in err


def test_verify_injected_fault_fails(capsys):
    code, out, _ = run(capsys, "verify", "--level", "fast", "--inject-fault")
    assert code == 3
    assert "FAIL" in out


# --- dependencies ----------------------------------------------------------------


def test_cli_import_does_not_load_scipy():
    src = str(Path(sk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, steerkit.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "False"
