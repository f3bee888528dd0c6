"""Smoke test: the lcm-side demos run to completion.

Demo 05 is left out because it writes scan_demo.csv next to itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_products_and_lcms.py", "02_triangle.py", "03_valuations.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
