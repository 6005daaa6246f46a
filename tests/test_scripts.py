"""The example scripts run end to end against the installed package."""

import math
import os
import subprocess
import sys
from pathlib import Path

import steerkit as sk

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(sk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_werner_ladder_prints_four_thresholds():
    proc = run_script("werner_ladder.py", "--points", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    tail = lines[lines.index("critical noise:") + 1:]
    found = {name.strip(): float(v) for name, v in (line.split(":") for line in tail)}
    expected = {"entanglement": 1.0 / 3.0, "steering": 0.5, "bell": 0.75,
                "chsh": 1.0 / math.sqrt(2.0)}
    assert found.keys() == expected.keys()
    for name, v in expected.items():
        assert abs(found[name] - v) <= 1e-9


def test_threshold_curves_against_closed_form(tmp_path):
    out = tmp_path / "curve.csv"
    proc = run_script("threshold_curves.py", "--points", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert "critical noise" in header and "bisection" not in header
    assert len(rows) == 5
    for row in rows:
        alpha, closed, found, *defect = row.split()
        if float(closed) > 1.0:
            assert found == "none" and not defect
        else:
            assert abs(float(found) - float(closed)) <= 1e-9
    header = out.read_text().splitlines()[0]
    assert header == "alpha,closed_form,critical_noise,abs_diff"
