"""The study scripts print, and write, what they printed when the fixtures were made.

The scripts call the public API; a change that breaks one of them, or that
changes a figure one of them reports, fails here instead of in a study run.
Each case runs one script in a fresh process and compares its stdout, and
for the demo pipeline each file it writes, with ``tests/golden/scripts/``.
Elapsed times and the ``--outdir`` path are masked first.  A change that
alters a script's output on purpose rewrites the fixtures with

    python tests/test_scripts.py

and says in CHANGES.md which figures changed and why.
"""

from __future__ import annotations

import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "golden" / "scripts"

CASES = {
    "calibration": ("run_calibration_study.py", ["--reps", "20"]),
    "selection-forward": ("run_selection_study.py", ["--method", "forward", "--reps", "3"]),
    "selection-backward": ("run_selection_study.py", ["--method", "backward", "--reps", "3"]),
    "demo": ("run_demo_pipeline.py", ["--outdir", "{outdir}"]),
}
# the files the demo pipeline writes under --outdir
DEMO_FILES = ("data.csv", "true_coeffs.csv", "true_zeros.txt", "selected_zeros.txt",
              "fitted_coeffs.csv")
# an elapsed time closes its line: "[0.3s]" in the calibration study, "   0.3s" in the selection study
ELAPSED = re.compile(r"(?m)\d+\.\ds(\]?)$")


def run(name: str, workdir: Path) -> str:
    """The script's masked stdout, run from ``workdir`` with ``workdir/out`` as outdir;
    AssertionError, with its output, unless it exits 0."""
    script, args = CASES[name]
    outdir = workdir / "out"
    argv = [arg.replace("{outdir}", str(outdir)) for arg in args]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          cwd=workdir, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return ELAPSED.sub(r"<t>s\1", proc.stdout.replace(str(outdir), "{outdir}"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_output_is_unchanged(tmp_path, name):
    assert run(name, tmp_path) == (FIXTURES / f"{name}.out").read_text(encoding="utf-8")
    if name == "demo":
        for file in DEMO_FILES:
            assert ((tmp_path / "out" / file).read_bytes()
                    == (FIXTURES / "demo" / file).read_bytes()), file


def regenerate() -> None:
    """Rewrite every fixture from the current tree."""
    (FIXTURES / "demo").mkdir(parents=True, exist_ok=True)
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            (FIXTURES / f"{name}.out").write_text(run(name, workdir), encoding="utf-8")
            if name == "demo":
                for file in DEMO_FILES:
                    (FIXTURES / "demo" / file).write_bytes((workdir / "out" / file).read_bytes())


if __name__ == "__main__":
    regenerate()
