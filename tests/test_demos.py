"""Smoke runs of the demo scripts, which read the public sampler surface."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sampler_quality_demo_prints_its_tables():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "sampler_quality.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert out.count("TV distance = ") == 4
    assert "acceptance rate" in out and "effective sample size" in out
    table = out[out.index("step size    acceptance    total ESS"):].splitlines()[1:]
    assert len(table) == 5 and all(len(row.split()) == 3 for row in table)
