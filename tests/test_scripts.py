"""The study scripts run to completion against this checkout.

The scripts call the public API; a change that breaks one of them fails
here instead of in a study run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("run_demo_pipeline.py", ["--outdir", "{tmp}"]),
    ("run_selection_study.py", ["--reps", "2"]),
    ("run_calibration_study.py", ["--reps", "2"]),
])
def test_script_exits_0(tmp_path, script, args):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
