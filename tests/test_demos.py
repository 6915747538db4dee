"""Smoke test: every demo script runs to completion and prints its verdicts."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "refute_counterexample.py": ("multiplier ray: [-0.363636 -1.        0.363636]",
                                 "quadratic-form value: +1.083333",
                                 "verdict: refuted"),
    "sphere_transport.py": ("sectional curvature at [0.4, -0.3]: 1.000000000",
                            "holonomy angle around latitude 1.2: 2.276760919"),
    "finite_dimensional.py": ("worst values [-0.5] -> consistent",
                              "no multiplier ray exists -> refuted",
                              "worst values [1.] -> refuted",
                              "grid search: confirmed"),
}


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_demo_runs_and_prints_its_verdicts(script):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    for line in EXPECTED[script]:
        assert line in proc.stdout, line
