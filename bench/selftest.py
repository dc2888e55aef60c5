"""Self-test of the benchmark; run from the root of a checkout::

    python3 bench/selftest.py

It checks that BENCHMARK.json declares exactly the metrics the benchmark
prints, with their units and directions, that the host-speed kernel imports
nothing of the program, and that the correctness checks
catch a perturbed estimate, a dropped risk entry, a transform that does not
round-trip and a changed simulated sample.  The CLI checks run on small
instances (3 responses, 2 covariates) of the same generators.
"""

import ast
import dataclasses
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(root: Path, spans) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bad = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        bad.append(f"BENCHMARK.json keys {sorted(spec)}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        bad.append("workload names differ from run.WORKLOAD_NAMES")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            bad.append(f"workload {w['name']}: keys or why malformed")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        bad.append("a metric name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            bad.append(f"metric {m['name']}: malformed name or unit")
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    if e2e != run.END_TO_END:
        bad.append(f"end_to_end declarations {e2e} != printed {run.END_TO_END}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if max(bounds.values()) > 0.25 or bounds["setup_s"] != max(bounds.values()):
        bad.append("bounds must be <= 0.25 with setup_s the largest")
    printed = spans.layer_metrics([{}], {"trace.ops_per_s_ratio": 1.0})
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    want = {k: (spans.unit_of(k), spans.better_of(k)) for k in printed}
    if layer != want:
        bad.append(f"per_layer declarations differ from printed: {sorted(set(layer) ^ set(want))}")
    return bad


def check_hostspeed() -> list[str]:
    """The reference kernel must not depend on lmlreg, or a change to the
    program could move the host-speed factor that rescales its times."""
    tree = ast.parse((run.BENCH_DIR / "hostspeed.py").read_text())
    names = {a.name.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.Import)
             for a in n.names}
    names |= {(n.module or "").split(".")[0] for n in ast.walk(tree)
              if isinstance(n, ast.ImportFrom)}
    if names - {"math", "time", "numpy"}:
        return [f"hostspeed.py imports {sorted(names - {'math', 'time', 'numpy'})}"]
    return []


def expect(bad: list[str], label: str, problems: list[str], should_fail: bool) -> None:
    if bool(problems) != should_fail:
        bad.append(f"{label}: check {'passed' if not problems else 'failed'} "
                   f"({problems[:1]})")


def check_presets(lmlreg, workloads, spans, workdir) -> list[str]:
    bad = []
    wl = workloads.PresetsSelect(lmlreg, 7, workdir)
    wl.prepare()
    rec = spans.Recorder()
    inst = spans.Instrumentation(lmlreg, rec)
    with inst.tracing(0):
        out = wl.op()
    counts = spans.op_counts(rec)
    layers = sum(v for k, v in counts.items()
                 if k.split(".")[0] in spans.LAYERS and k.count(".") == 1 and k.endswith("self_ms"))
    if abs(layers - counts["trace.op_ms"]) > 1e-3:
        bad.append("layer self times do not add up to the traced op time")
    expect(bad, "presets: unchanged outputs", wl.check(out), False)

    trace = out["traces"][0]
    f = trace.final_fit
    est = f.estimates.copy()
    est[0] += 1e-3
    moved = dataclasses.replace(trace, final_fit=dataclasses.replace(f, estimates=est))
    expect(bad, "presets: perturbed estimate",
           wl.check({**out, "traces": [moved] + out["traces"][1:]}), True)

    report = out["reports"][1]["risk"]
    short = dataclasses.replace(report, entries=report.entries[:-1])
    reports = [out["reports"][0], {**out["reports"][1], "risk": short}, out["reports"][2]]
    expect(bad, "presets: dropped risk entry", wl.check({**out, "reports": reports}), True)
    return bad


def _edit_json(call, fn):
    code, text, err = call
    obj = json.loads(text)
    fn(obj)
    return code, json.dumps(obj), err


def check_cli(lmlreg, workloads, workdir) -> list[str]:
    bad = []
    wl = workloads.CliCap(lmlreg, 3, workdir, p=3, q=2, per_cell=3000)
    wl.prepare()
    fit_call, risk_call = wl.op()
    expect(bad, "cli fit/risk: unchanged outputs", wl.check([fit_call, risk_call]), False)

    def perturb(obj):
        c = next(c for c in obj["coefficients"] if not c["constrained"])
        c["estimate"] += 1e-3
    expect(bad, "cli fit: perturbed estimate",
           wl.check([_edit_json(fit_call, perturb), risk_call]), True)
    expect(bad, "cli risk: dropped entry",
           wl.check([fit_call, _edit_json(risk_call, lambda obj: obj.pop(5))]), True)

    wl = workloads.ConvertSimulate(lmlreg, 3, workdir, p=3, q=2, per_cell=3000)
    wl.prepare()
    tr_call, sim_call = wl.op()
    expect(bad, "cli transform/simulate: unchanged outputs", wl.check([tr_call, sim_call]), False)

    def shift(obj):
        obj["beta_gamma"]["values"][1][0] += 1e-3
    expect(bad, "cli transform: no round trip",
           wl.check([_edit_json(tr_call, shift), sim_call]), True)
    code, text, err = sim_call
    lines = text.split("\n")
    expect(bad, "cli simulate: changed sample",
           wl.check([tr_call, (code, "\n".join(lines[:1] + lines[2:]), err)]), True)
    return bad


def main() -> int:
    root = Path.cwd()
    lmlreg = run.load_program(root)
    import spans
    import workloads

    (root / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=root / ".bench_work"))
    try:
        bad = check_spec(root, spans) + check_hostspeed()
        bad += check_presets(lmlreg, workloads, spans, workdir)
        bad += check_cli(lmlreg, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for line in bad:
        print(f"FAIL {line}")
    print("selftest: " + ("ok" if not bad else f"{len(bad)} failure(s)"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
