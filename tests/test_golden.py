"""Frozen CLI outputs: every command prints the same bytes, on stdout and stderr,
and exits with the same code as when the goldens were written.

Each case runs ``lmlreg.cli.main`` in-process, from a directory holding
README's chest files and a few malformed inputs, and compares its output
with ``tests/golden/``: stdout is stored as ``<case>.out``, so a change
reads as a text diff, and the exit code and stderr in ``golden.json``.
The outputs at the CLI cap (8 responses, 4 covariates, data seed 1:
``fit`` and ``risk`` with ``--out json``, ``transform`` of the truth matrix
with ``--out json`` and ``--out tsv``, and ``simulate --format cases`` from
it, about 3.5 MB together) are stored as SHA-256 and byte length; their
inputs are drawn here with lmlreg's own ``simulate`` from fixed seeds.

The help texts and argparse's usage errors are pinned the same way: a case
that ends in ``SystemExit`` records its exit code, and every case runs with
``COLUMNS`` fixed, so argparse wraps its lines alike on any terminal.

The bytes are promised for the numpy and BLAS named in ``golden.json``'s
header, and a failure names both builds.  A change that alters output on
purpose rewrites every golden with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which bytes changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import lmlreg
from lmlreg import io as lio
from lmlreg.cli import main
from lmlreg.inference import simulate
from lmlreg.lattice import SubsetLattice
from lmlreg.params import BoundaryError, ParamMatrix, pi_from_beta

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "golden.json"

# README's chest table, zero set and coefficient matrix, and malformed inputs
INPUTS = {
    "chest.csv": "cough,fever,exposed,count\n0,0,0,610\n1,0,0,180\n0,1,0,140\n1,1,0,70\n"
                 "0,0,1,350\n1,0,1,240\n0,1,1,210\n1,1,1,200\n",
    # the same table with every exposed row 0: an empty covariate cell
    "chest-missing.csv": "cough,fever,exposed,count\n0,0,0,610\n1,0,0,180\n0,1,0,140\n1,1,0,70\n"
                         "0,0,1,0\n1,0,1,0\n0,1,1,0\n1,1,1,0\n",
    "zeros.txt": "{cough,fever};{exposed}\n",
    "coeffs.csv": 'D,{},{exposed}\n{},0.000,0.000\n{cough},-1.386,0.565\n'
                  '{fever},-1.561,0.669\n"{cough,fever}",0.288,-0.185\n',
    "undecodable.csv": b"cough,fever,exposed\n0,1,0\n1,\xff,0\n",
    "badrow.csv": "cough,fever,exposed\n0,1,0\n1,1,0\n\n1,2,0\n",
    "nan.csv": 'D,{},{exposed}\n{},0,0\n{cough},-1.386,nan\n'
               '{fever},-1.561,0.669\n"{cough,fever}",0.288,-0.185\n',
    # malformed coefficient matrices: one fault each, then two faults on
    # lines 3 and 4 in both orders (the earlier line is reported)
    "bad-label.csv": 'D,{},{exposed}\n{},0,0\n{cough},-1.386,0.565\n'
                     '{fevr},-1.561,0.669\n"{cough,fever}",0.288,-0.185\n',
    "short-row.csv": 'D,{},{exposed}\n{},0,0\n{cough},-1.386\n'
                     '{fever},-1.561,0.669\n"{cough,fever}",0.288,-0.185\n',
    "duplicate-row.csv": 'D,{},{exposed}\n{},0,0\n{cough},-1.386,0.565\n'
                         '{cough},-1.561,0.669\n"{cough,fever}",0.288,-0.185\n',
    "missing-row.csv": 'D,{},{exposed}\n{},0,0\n{cough},-1.386,0.565\n'
                       '"{cough,fever}",0.288,-0.185\n',
    "nan-then-bad-label.csv": 'D,{},{exposed}\n{},0,0\n{cough},-1.386,nan\n'
                              '{fevr},-1.561,0.669\n"{cough,fever}",0.288,-0.185\n',
    "bad-label-then-nan.csv": 'D,{},{exposed}\n{},0,0\n{cogh},-1.386,0.565\n'
                              '{fever},nan,0.669\n"{cough,fever}",0.288,-0.185\n',
    # a pi matrix for 3 responses and 2 covariates: CRLF ends, the header's
    # columns and the rows out of order, cells below 1e-4 and two cells of
    # 1e-300 that put coefficients above 1e3
    "wide.csv": 'D,"{x1,x2}",{},{x2},{x1}\r\n"{y1,y3}",0.0625,3.5e-05,0.03125,0.0625\r\n'
                '{},0.125,0.437465,0.3984375,0.25\r\n"{y1,y2,y3}",0.0625,0.0625,1e-300,1e-300\r\n'
                '{y2},0.25,0.125,0.0625,0.125\r\n{y1},0.25,0.125,0.125,0.25\r\n'
                '"{y2,y3}",0.0625,0.0625,0.0078125,0.0625\r\n"{y1,y2}",0.0625,0.0625,0.125,0.125\r\n'
                '{y3},0.125,0.125,0.25,0.125\r\n',
    # a gamma matrix whose ∅ row is 1e-10, so each implied pi column sums to 1 + 1e-10
    "gamma-offset.csv": 'D,{},{exposed}\n{},1e-10,1e-10\n{cough},-1.386,-0.821\n'
                        '{fever},-1.561,-0.892\n"{cough,fever}",0.288,0.103\n',
    # a boundary sample from acceptance check C9: the single-covariate
    # preset's truth drawn with simulate(..., seed=50759), and the preset's
    # zero set.  Its one empty cell ({b,c,r} at h=0) leaves no interior
    # optimum, so the fit stops at its iteration cap
    "boundary.csv": "b,c,d,r,h,count\n"
                    "0,0,0,0,0,8418\n0,0,0,0,1,3443\n1,0,0,0,0,660\n1,0,0,0,1,822\n"
                    "0,1,0,0,0,572\n0,1,0,0,1,571\n1,1,0,0,0,77\n1,1,0,0,1,302\n"
                    "0,0,1,0,0,1252\n0,0,1,0,1,821\n1,0,1,0,0,59\n1,0,1,0,1,174\n"
                    "0,1,1,0,0,325\n0,1,1,0,1,215\n1,1,1,0,0,40\n1,1,1,0,1,111\n"
                    "0,0,0,1,0,417\n0,0,0,1,1,633\n1,0,0,1,0,13\n1,0,0,1,1,130\n"
                    "0,1,0,1,0,11\n0,1,0,1,1,96\n1,1,0,1,0,0\n1,1,0,1,1,54\n"
                    "0,0,1,1,0,112\n0,0,1,1,1,379\n1,0,1,1,0,19\n1,0,1,1,1,95\n"
                    "0,1,1,1,0,21\n0,1,1,1,1,101\n1,1,1,1,0,4\n1,1,1,1,1,53\n",
    "boundary-zeros.txt": "{b,c};{h}\n{b,d};{}\n{b,d};{h}\n{b,r};{}\n{b,r};{h}\n{c,r};{}\n"
                          "{c,r};{h}\n{d,r};{h}\n{b,c,d};{}\n{b,c,d};{h}\n{c,d,r};{}\n{c,d,r};{h}\n",
}

LABELS = ["--responses", "cough,fever", "--covariates", "exposed"]
CHEST = ["--input", "chest.csv", "--format", "counts", *LABELS]
COEFFS = ["--input", "coeffs.csv", *LABELS]
COMMANDS = ("fit", "transform", "select", "risk", "simulate", "plot-data")
WIDE = ["--input", "wide.csv", "--responses", "y1,y2,y3", "--covariates", "x1,x2", "--kind", "pi"]


def _cases() -> dict[str, list[str]]:
    cases = {}
    for out in ("tsv", "json"):
        for command in ("fit", "risk"):
            for link in ("lm", "lml"):
                argv = [command, *CHEST, "--link", link, "--out", out]
                cases[f"{command}-{link}-{out}"] = argv
                cases[f"{command}-{link}-zeros-{out}"] = argv + ["--zeros", "zeros.txt"]
        # at alpha 0.01 both methods drop the {cough,fever};{exposed} term (p 0.048)
        select = ["select", *CHEST, "--alpha", "0.01", "--out", out, "--method"]
        cases[f"select-forward-{out}"] = [*select, "forward"]
        for link in ("lm", "lml"):
            cases[f"select-backward-{link}-{out}"] = [*select, "backward", "--link", link]
        cases[f"plot-data-{out}"] = ["plot-data", *CHEST, "--effect", "exposed", "--out", out]
        cases[f"transform-{out}"] = ["transform", *COEFFS, "--kind", "beta_gamma", "--out", out]
        cases[f"transform-wide-{out}"] = ["transform", *WIDE, "--out", out]
    missing = ["fit", "--input", "chest-missing.csv", "--format", "counts", *LABELS,
               "--smooth", "--allow-missing-cells"]
    cases["fit-smooth-missing-tsv"] = missing
    cases["fit-smooth-missing-json"] = missing + ["--out", "json"]
    cases["fit-smooth-missing-lm-tsv"] = missing + ["--link", "lm"]
    cases["fit-smooth-missing-lm-json"] = missing + ["--link", "lm", "--out", "json"]
    cases["simulate-counts"] = ["simulate", *COEFFS, "--link", "lml", "--totals", "1000,1000",
                                "--seed", "7", "--format", "counts"]
    cases["simulate-cases"] = ["simulate", *COEFFS, "--link", "lml", "--totals", "4,3",
                               "--seed", "7", "--format", "cases"]
    cases["error-pi-column-sum"] = ["simulate", "--input", "gamma-offset.csv", *LABELS,
                                    "--kind", "gamma", "--totals", "10", "--seed", "7"]
    cases["error-undecodable-byte"] = ["fit", "--input", "undecodable.csv", *LABELS]
    cases["error-bad-row"] = ["fit", "--input", "badrow.csv", *LABELS]
    cases["error-nan-cell"] = ["transform", "--input", "nan.csv", *LABELS, "--kind", "beta_gamma"]
    cases["error-no-input"] = ["fit", *LABELS]
    cases["error-unconverged"] = ["fit", "--input", "boundary.csv", "--format", "counts",
                                  "--responses", "b,c,d,r", "--covariates", "h",
                                  "--zeros", "boundary-zeros.txt"]
    for fault in ("bad-label", "short-row", "duplicate-row", "missing-row",
                  "nan-then-bad-label", "bad-label-then-nan"):
        cases[f"error-{fault}"] = ["transform", "--input", f"{fault}.csv", *LABELS,
                                   "--kind", "beta_gamma"]
    # argparse's own output: every help text and the usage errors, one of
    # which ("unrecognized arguments") prints the top-level usage
    cases["usage-help"] = ["-h"]
    for command in COMMANDS:
        cases[f"usage-{command}-help"] = [command, "-h"]
    cases["usage-no-arguments"] = []
    cases["usage-unknown-command"] = ["bogus"]
    cases["usage-unknown-flag"] = ["fit", *CHEST, "--bogus"]
    cases["usage-bad-choice"] = ["fit", *CHEST, "--link", "probit"]
    return cases


CASES = _cases()


def environment() -> dict[str, str]:
    """The builds the bytes are promised for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}"}


# the terminal width argparse wraps its help and usage lines to
COLUMNS = "80"


def run(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` in-process: exit code, stdout and stderr.

    An argparse exit (help, usage error) gives the code it exits with."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_inputs(directory: Path) -> None:
    for name, content in INPUTS.items():
        if isinstance(content, bytes):
            (directory / name).write_bytes(content)
        else:
            (directory / name).write_text(content, encoding="utf-8")


# ---------------------------------------------------------------------------
# the CLI cap

CAP_TRUTH_SEED = 0
CAP_DATA_SEED = 1
CAP_PER_CELL = 4000
CAP_RESPONSES = tuple(f"y{i}" for i in range(1, 9))
CAP_COVARIATES = tuple(f"x{i}" for i in range(1, 5))


def cap_inputs(directory: Path) -> dict[str, list[str]]:
    """Cap cases, truth matrix and zero-set files in ``directory``; the cap argv by name.

    The lml truth is pairwise with small effects, 236 free coefficients:
    singleton rows with |E| ≤ 2, pairs with |E| ≤ 1 and the intercepts of
    the 8 cyclic triples (zero in the truth).  Draws are repeated until
    every cell probability is positive.
    """
    V, U = SubsetLattice(CAP_RESPONSES), SubsetLattice(CAP_COVARIATES)
    d, e = np.divmod(np.arange(V.size * U.size), U.size)
    kd, ke = np.bitwise_count(d), np.bitwise_count(e)
    triples = [sum(1 << (i + j) % 8 for j in range(3)) for i in range(8)]
    free = (((kd == 1) & (ke <= 2)) | ((kd == 2) & (ke <= 1))
            | (np.isin(d, triples) & (e == 0)))
    intercept = (kd == 1) & (ke == 0)
    sd = np.select([(kd == 1) & (ke == 1), (kd == 2) & (ke == 0),
                    ((kd == 1) & (ke == 2)) | ((kd == 2) & (ke == 1))], [0.25, 0.2, 0.1], 0.0)
    rng = np.random.default_rng(CAP_TRUTH_SEED)
    for _ in range(100):
        values = np.where(intercept, np.log(rng.uniform(0.15, 0.35, d.size)),
                          rng.normal(0.0, 1.0, d.size) * sd)
        beta = ParamMatrix("beta_gamma", V, U, values.reshape(V.size, U.size))
        try:
            pi_from_beta(beta, "lml")
            break
        except BoundaryError:
            continue
    else:
        raise RuntimeError("no valid cap truth in 100 draws")
    with open(directory / "cap-truth.csv", "w", encoding="utf-8", newline="") as f:
        lio.write_param_matrix(beta, f)
    table = simulate(beta, "lml", [CAP_PER_CELL] * U.size, seed=CAP_DATA_SEED)
    with open(directory / "cap.csv", "w", encoding="utf-8", newline="") as f:
        lio.write_count_data(table, f, "cases")
    zeros = zip(d[~free & (d > 0)].tolist(), e[~free & (d > 0)].tolist())
    with open(directory / "cap-zeros.txt", "w", encoding="utf-8", newline="") as f:
        lio.write_zero_set(zeros, V, U, f)
    return cap_argvs()


def cap_argvs() -> dict[str, list[str]]:
    """The cap's argv by name, reading the files :func:`cap_inputs` writes."""
    labels = ["--responses", ",".join(CAP_RESPONSES), "--covariates", ",".join(CAP_COVARIATES)]
    common = ["--input", "cap.csv", *labels, "--zeros", "cap-zeros.txt", "--out", "json"]
    truth = ["--input", "cap-truth.csv", *labels]
    transform = ["transform", *truth, "--kind", "beta_gamma", "--out"]
    return {"fit": ["fit", *common], "risk": ["risk", *common],
            "transform-json": [*transform, "json"], "transform-tsv": [*transform, "tsv"],
            "simulate-cases": ["simulate", *truth, "--link", "lml", "--totals", str(CAP_PER_CELL),
                               "--seed", str(CAP_DATA_SEED), "--format", "cases"]}


def digest(text: str) -> dict:
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


# ---------------------------------------------------------------------------
# tests

@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def builds(manifest: dict) -> str:
    now = environment()
    return (f"goldens written under numpy {manifest['numpy']}, BLAS {manifest['blas']}; "
            f"this run: numpy {now['numpy']}, BLAS {now['blas']}")


def test_manifest_lists_every_case(manifest):
    assert sorted(manifest["cases"]) == sorted(CASES)


def test_every_rendering_has_its_twin():
    """Each ``*-tsv`` case has a ``*-json`` twin and the reverse, so both
    renderings of a command stay covered alike."""
    stems = {out: {name.removesuffix(f"-{out}") for name in CASES if name.endswith(f"-{out}")}
             for out in ("tsv", "json")}
    assert stems["tsv"] == stems["json"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, manifest, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    code, out, err = run(CASES[name])
    want = manifest["cases"][name]
    assert (code, err) == (want["exit"], want["stderr"]), builds(manifest)
    assert out == (GOLDEN / f"{name}.out").read_bytes().decode("utf-8"), builds(manifest)


def test_bad_row_through_a_pipe(manifest, workdir):
    """The bad-row case read as ``--input /dev/stdin`` from a pipe, in a fresh
    process, names the same line and exits the same way as from its path."""
    env = {**os.environ, "PYTHONPATH": str(Path(lmlreg.__file__).parents[1])}
    argv = [arg.replace("badrow.csv", "/dev/stdin") for arg in CASES["error-bad-row"]]
    proc = subprocess.run([sys.executable, "-m", "lmlreg.cli", *argv], env=env, cwd=workdir,
                          input=(workdir / "badrow.csv").read_bytes(), capture_output=True,
                          timeout=120)
    want = manifest["cases"]["error-bad-row"]
    assert want["stderr"].startswith("error: line 5: ")
    assert (proc.returncode, proc.stderr.decode(), proc.stdout) == (want["exit"], want["stderr"], b"")


def test_cap_outputs_are_unchanged(manifest, tmp_path, monkeypatch):
    argvs = cap_inputs(tmp_path)
    assert sorted(manifest["cap"]) == sorted(argvs)
    monkeypatch.chdir(tmp_path)
    for name, argv in argvs.items():
        code, out, err = run(argv)
        assert (code, err) == (0, ""), name
        assert digest(out) == manifest["cap"][name], f"{name}: {builds(manifest)}"


def regenerate() -> None:
    """Rewrite every golden from the current tree."""
    doc = {**environment(), "cases": {}, "cap": {}}
    start = os.getcwd()
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_inputs(directory)
        argvs = cap_inputs(directory)
        os.chdir(directory)
        try:
            for name, argv in CASES.items():
                code, out, err = run(argv)
                (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8", newline="")
                doc["cases"][name] = {"exit": code, "stderr": err}
            for name, argv in argvs.items():
                code, out, err = run(argv)
                if (code, err) != (0, ""):
                    raise RuntimeError(f"cap {name} exited {code}: {err}")
                doc["cap"][name] = digest(out)
        finally:
            os.chdir(start)
    MANIFEST.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    regenerate()
