"""Smoke runs of the demo scripts, which read the public library surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sampler_quality_demo_prints_its_tables():
    out = run_demo("sampler_quality.py")
    assert out.count("TV distance = ") == 4
    assert "acceptance rate" in out and "effective sample size" in out
    table = out[out.index("step size    acceptance    total ESS"):].splitlines()[1:]
    assert len(table) == 5 and all(len(row.split()) == 3 for row in table)


@pytest.mark.parametrize("name, marker", [
    ("closed_form_walkthrough.py", "residual J - (E_rho1[l] + T*KL) = "),
    ("identity_suite.py", "Batched suite on 10 fresh instances"),
    ("estimators_vs_oracle.py", "coords within 3 sigma: "),
])
def test_demo_runs_and_prints_its_marker(name, marker):
    assert marker in run_demo(name)


def test_training_comparison_demo_prints_four_methods():
    out = run_demo("training_comparison.py")
    assert "chance accuracy: " in out
    table = out[out.index("method"):].splitlines()[1:5]
    names = ["backprop", "ep  beta=1.0", "path integral", "ep  beta=0.01"]
    for row, name in zip(table, names):
        assert row.startswith(name) and len(row[len(name):].split()) == 3
