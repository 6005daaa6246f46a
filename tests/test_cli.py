import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steerkit as sk
from helpers import perturb_low_grid, python_env, state_to_document
from steerkit import cli, verify


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
    doc = state_to_document(state, label="werner(v=0.6)")
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
    path.write_text(json.dumps(state_to_document(sk.validate_state(rho))))
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


def test_analyze_label_must_be_a_string(tmp_path, capsys):
    path = tmp_path / "label.json"
    path.write_text(json.dumps({**state_to_document(sk.werner(0.5)), "label": 7}))
    assert run(capsys, "analyze", str(path)) == (1, "", "error: label must be a string\n")


def test_analyze_needs_a_document_or_family(capsys):
    assert run(capsys, "analyze") == (1, "", "error: give a document path or --family\n")


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
    doc = state_to_document(sk.werner(0.5))
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
    return subprocess.run([sys.executable, "-m", "steerkit.cli", *argv],
                          capture_output=True, text=True, env=python_env())


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


# One digit past the interpreter's int-from-text limit (4300 by default).
LONG_INT = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("text", [
    pytest.param(LONG_INT, id="top-level"),
    pytest.param(f'{{"matrix": [[[{LONG_INT}, 0]]]}}', id="cell"),
])
def test_analyze_long_integer_document(tmp_path, capsys, text):
    # json.load refuses the integer with a plain ValueError, not a JSONDecodeError.
    path = tmp_path / "long.json"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: Exceeds the limit")
    assert err.count("\n") == 1


def overflowing_trace_document() -> dict:
    # |trace - 1| is about 2.4e308, past the float range though every entry is finite.
    matrix = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
    matrix[0][0] = matrix[1][1] = [1.7e308, 1.7e308]
    return {"matrix": matrix}


def test_analyze_overflowing_trace_document(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(overflowing_trace_document()))
    proc = run_process("analyze", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("invalid input: not a valid two-qubit state:")
    assert "TraceNotOne (defect inf)" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/state.json")
    assert code == 1


def test_analyze_family_out_of_range(capsys):
    code, _, err = run(capsys, "analyze", "--family", "werner", "--v", "1.5")
    assert code == 2


def test_analyze_rejects_both_inputs(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_document(sk.werner(0.5))))
    code, _, err = run(
        capsys, "analyze", str(path), "--family", "werner", "--v", "0.5"
    )
    assert code == 1


@pytest.mark.parametrize("option,value", [("--v", "0.3"), ("--alpha", "2")])
def test_analyze_document_rejects_family_options(tmp_path, capsys, option, value):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_document(sk.werner(0.5))))
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
    ("ns inequality (1000 models)", "||C||_* <= 8pi^2/3", "1e-06", "pass"),
    ("ns bound saturation (5 states)", "(8pi^2/3) T1", "1e-06", "pass"),
    ("chsh maximum, Born rule (5 states)", "2 sqrt(T1^2+T2^2)", "1e-12", "pass"),
    ("abs-cos integral (split grid)", "2pi", "1e-12", "pass"),
    ("clipped moment quadrature (r = 0.5, 1.5)", "builder's C_zz / (4pi/3)", "1e-12", "pass"),
    ("lhv bound saturation (5 states)", "(2pi)^2 T1", "1e-12", "pass"),
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
    assert values["ns inequality (1000 models)"] == "4.049608e-16"


def test_verify_run_checks_records():
    checks = verify.run_checks("fast", 42)
    assert [(c.name, c.target, format(c.tol, ".0e"), "pass" if c.passed else "FAIL")
            for c in checks] == FAST_TABLE
    assert all(c.passed == (c.defect <= c.tol) for c in checks)


@pytest.mark.parametrize("level", ["Fast", "quick", "", None])
def test_verify_run_checks_rejects_unknown_level(level):
    with pytest.raises(ValueError, match="level"):
        verify.run_checks(level, 42)


def test_verify_full_passes(capsys):
    code, out, _ = run(capsys, "verify", "--level", "full", "--seed", "42")
    assert code == 0
    assert out.splitlines()[-1] == "all 12 checks passed"
    assert "ns inequality (10000 models)" in out
    assert "ns overlap Monte Carlo (1e6 samples)" in out


@pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
def test_verify_rejects_negative_seed(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "non-negative" in err


def test_verify_injected_fault_fails(capsys, monkeypatch):
    perturb_low_grid(monkeypatch)
    code, out, _ = run(capsys, "verify", "--level", "fast")
    assert code == 3
    rows = {r[:42].rstrip(): r for r in out.splitlines()}
    assert rows["orthogonality(N=2)"].endswith("FAIL")
    assert out.splitlines()[-1] == "1 of 11 checks FAILED"
    # The fault is injected by patching; the CLI has no option for it.
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--level", "fast", "--inject-fault"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage:")


def test_verify_takes_one_svd_per_tensor(monkeypatch):
    # Five tensors each for the ns bound's saturation, the LHV bound's
    # saturation and the Born-rule CHSH maximum, and the identity whose
    # top singular value scales the ns inequality's bound; every svd3 goes
    # through np.linalg.svd, whatever binding of svd3 called it. The
    # models' trace norms take their SVDs inside np.linalg.norm, whose
    # module calls its own binding of svd.
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a: calls.append(a) or svd(a))
    verify.run_checks("fast", 42)
    assert len(calls) == 16


# --- properties over the command line ---------------------------------------------


def run_in_process(*argv):
    """cli.main without capsys, which Hypothesis cannot reset between examples;
    argparse's SystemExit reads as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_documented(result, codes):
    """An exit code the CLI documents, and on failure one line on stderr
    (argparse's usage message for its own exit 2)."""
    code, out, err = result
    assert code in codes
    if code in (0, 4):
        assert err == ""
    elif err.startswith("usage:"):
        assert (code, out) == (2, "")
    else:
        assert out == ""
        assert err.startswith("error:" if code == 1 else "invalid input:")
        assert err.count("\n") == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=40,
)
NUMBERS = st.floats() | st.integers() | st.booleans()
MATRICES = st.lists(st.lists(st.lists(NUMBERS, min_size=2, max_size=2) | JSON_VALUES,
                             min_size=3, max_size=5), min_size=3, max_size=5)
DOCUMENTS = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.fixed_dictionaries({"matrix": MATRICES}, optional={"label": JSON_VALUES}).map(json.dumps),
    st.text(max_size=20),
).map(str.encode) | st.binary(max_size=20)
# argparse reads --v, --alpha and the grid's bounds with float().
OPTION_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["1e999", "-1e999", "0x1p-2", "1_0", " 0.5 ", ""]),
    st.text(max_size=6),
)
GRIDS = st.one_of(
    st.tuples(OPTION_TEXT, OPTION_TEXT,
              st.integers(-3, 40) | st.integers(cli.MAX_GRID_POINTS + 1, 10 ** 30)
              ).map(lambda parts: ":".join(map(str, parts))),
    st.text(max_size=12),
)
FAMILIES = st.sampled_from(["werner", "noisy-schmidt", "schmidt"])


def with_options(argv, **options):
    return [*argv, *(f"--{name}={value}" for name, value in options.items()
                     if value is not None)]


@settings(max_examples=80, deadline=None)
@given(DOCUMENTS)
@example(LONG_INT.encode())
@example(f'{{"matrix": [[[0, {LONG_INT}]]]}}'.encode())
@example(json.dumps(overflowing_trace_document()).encode())
@example(json.dumps({"matrix": [[[9e307 if i != j else 0.25, 0.0] for j in range(4)]
                                for i in range(4)]}).encode())
@example(json.dumps({"matrix": [[[1e308 if i == j else 0.0, 0.0] for j in range(4)]
                                for i in range(4)]}).encode())
@example(json.dumps(state_to_document(sk.werner(0.5))).encode())
@example(json.dumps({**state_to_document(sk.werner(0.5)), "label": 7}).encode())
def test_analyze_document_property(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "property_document.json"
    path.write_bytes(document)
    assert_documented(run_in_process("analyze", str(path)), (0, 1, 2))


@settings(max_examples=150, deadline=None)
@given(FAMILIES, st.none() | OPTION_TEXT, st.none() | OPTION_TEXT)
@example("werner", "0.6", None)
@example("noisy-schmidt", "nan", "inf")
@example("noisy-schmidt", "-0.0", "1e-330")
@example("werner", "1e308", None)
def test_analyze_family_property(family, v, alpha):
    argv = with_options(["analyze", f"--family={family}"], v=v, alpha=alpha)
    assert_documented(run_in_process(*argv), (0, 1, 2))


@settings(max_examples=150, deadline=None)
@given(FAMILIES, GRIDS, st.none() | OPTION_TEXT)
@example("werner", "0:1:1000000000000000", None)
@example("werner", "nan:1:3", None)
@example("noisy-schmidt", "0:1:3", "0.5")
def test_sweep_property(family, grid, alpha):
    argv = with_options(["sweep", f"--family={family}"], grid=grid, alpha=alpha)
    assert_documented(run_in_process(*argv), (0, 1, 2))


def csv_sweep_table(family, alpha, grid):
    """The sweep table as csv.writer writes it, each number by format(x, ".12g")."""
    result = sk.sweep(sk.family_from_name(family, alpha), np.linspace(*grid))
    fmt = lambda x: format(x, ".12g")
    flags = [sk.criteria.detected(margin).astype(int).tolist()
             for _, _, margin in result.rows.values()]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "alpha", "v", "T1", "normSq", "ent", "steer", "bell",
                     "chsh", "steer_margin"])
    writer.writerows(
        [family, "" if alpha is None else fmt(alpha), fmt(v), fmt(t1), fmt(n), *flag, fmt(m)]
        for v, t1, n, m, *flag in zip(
            result.v.tolist(), result.sigma[:, 0].tolist(), result.norm_sq.tolist(),
            result.rows[sk.Criterion.GEOMETRIC_STEERING][2].tolist(), *flags))
    return buf.getvalue()


SWEEP_GRIDS = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                        st.sampled_from([0, 1, 2, 10_000]) | st.integers(0, 60))


@settings(max_examples=60, deadline=None)
@given(st.none() | st.floats(0.0, math.pi), SWEEP_GRIDS)
@example(-0.0, (0.0, 1.0, 10_000))
@example(5e-324, (0.0, 1.0, 1))
@example(math.pi, (0.0, 1.0, 0))
@example(None, (0.5, 0.5, 3))
@example(None, (0.0, 1.0, 10_001))
def test_sweep_table_is_the_csv_rendering(alpha, grid):
    start, stop, count = min(grid[:2]), max(grid[:2]), grid[2]
    family = "werner" if alpha is None else "noisy-schmidt"
    argv = with_options(["sweep", f"--family={family}"], grid=f"{start!r}:{stop!r}:{count}",
                        alpha=None if alpha is None else repr(alpha))
    assert run_in_process(*argv) == (0, csv_sweep_table(family, alpha, (start, stop, count)), "")


@settings(max_examples=100, deadline=None)
@given(FAMILIES, st.sampled_from(["entanglement", "steering", "bell", "chsh", "none"]),
       st.none() | OPTION_TEXT)
@example("noisy-schmidt", "steering", "0.5")
@example("noisy-schmidt", "steering", "nan")
def test_threshold_property(family, criterion, alpha):
    argv = with_options(["threshold", f"--family={family}", f"--criterion={criterion}"],
                        alpha=alpha)
    assert_documented(run_in_process(*argv), (0, 2, 4))


# --- dependencies ----------------------------------------------------------------


def test_cli_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, steerkit.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=python_env(), check=True,
    )
    assert proc.stdout.strip() == "False"


BENCH_MODULES = ["csv", "steerkit.oracle", "steerkit.sphere", "steerkit.verify"]
LOADED_PER_COMMAND = """
import contextlib, io, json, sys
from steerkit import cli

def loaded():
    return [name for name in %r if name in sys.modules]

seen = {"import": loaded()}
for argv in (["analyze", "--family", "werner", "--v", "0.6"],
             ["sweep", "--family", "werner", "--grid", "0:1:5"],
             ["threshold", "--family", "werner", "--criterion", "steering"],
             ["verify", "--level", "fast"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    seen[argv[0]] = loaded()
print(json.dumps({"seen": seen, "code": code, "verify": out.getvalue()}))
"""


def test_criteria_commands_load_no_bench_module(capsys):
    # In a fresh interpreter the import and the criteria commands load
    # neither the oracle, the quadrature, the bench nor csv; verify loads
    # the three when it runs, and prints what it prints in this process.
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_PER_COMMAND % BENCH_MODULES],
        capture_output=True, text=True, env=python_env(), check=True,
    )
    result = json.loads(proc.stdout)
    assert result["seen"] == {"import": [], "analyze": [], "sweep": [], "threshold": [],
                              "verify": BENCH_MODULES[1:]}
    assert (result["code"], result["verify"]) == run(capsys, "verify", "--level", "fast")[:2]


SWEEP_AND_THRESHOLD = """
import contextlib, io, sys
from steerkit import cli

with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["sweep", "--family", "werner", "--grid", "0:1:5"]),
             cli.main(["threshold", "--family", "werner", "--criterion", "steering"])]
print(codes, "json" in sys.modules)
"""


def test_sweep_and_threshold_load_no_json():
    # Only analyze reads or writes JSON, so the other commands never import it.
    proc = subprocess.run([sys.executable, "-c", SWEEP_AND_THRESHOLD], capture_output=True,
                          text=True, env=python_env(), check=True)
    assert proc.stdout.strip() == "[0, 0] False"
