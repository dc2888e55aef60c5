"""lmlreg benchmark: one workload, one single-threaded process, one client.

Run from the root of a checkout::

    python3 bench/run.py --workload presets-select --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads in turn, each in its own process.
The op loop is closed: the next op starts when the previous one has ended,
and ops start until ``--seconds`` have passed.  Every op's outputs are
checked against references from the independent model in ``oracle.py``.
End-to-end times are rescaled to a reference host speed measured by the
kernel in ``hostspeed.py`` around every op (see DESIGN.md).
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed;
with ``--trace 1`` untraced and traced ops alternate and the per-layer
metrics of the traced ops are printed, with the tracing overhead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import os
import sys
import time

T0 = time.perf_counter()

# numpy reads these when it is imported: pin them first, to the same value on
# every commit measured.  Unset, OpenBLAS threads make small eigh calls in
# the Newton loop up to 100x slower on a 2-CPU machine.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPS = 3
# Share of the previous op's time spent timing the host-speed kernel before
# and again after each op.
SPEED_SHARE = 0.05
WORKLOAD_NAMES = ("presets-select", "cli-cap", "convert-simulate")
# name -> (unit, which direction is better)
END_TO_END = {"ops_per_s": ("1/s", "higher"), "op_p50_ms": ("ms", "lower"),
              "op_tail_ms": ("ms", "lower"), "setup_s": ("s", "lower"),
              "peak_rss_mb": ("MB", "lower")}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_program(root: Path):
    """Import lmlreg from the checkout's src/ and nowhere else."""
    src = root / "src"
    if not (src / "lmlreg" / "__init__.py").is_file():
        raise FileNotFoundError(f"no src/lmlreg under {root}: run from the root of a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    import lmlreg
    import lmlreg.cli
    import lmlreg.presets
    if Path(lmlreg.__file__).resolve().parent != (src / "lmlreg").resolve():
        raise ImportError(f"lmlreg was imported from {lmlreg.__file__}, not {src}")
    return lmlreg


def environment() -> str:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"[{' '.join(str(blas.get('openblas configuration', '')).split())}] "
            + " ".join(f"{v}={os.environ[v]}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")))


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def tail(lat: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 samples above it (the max below 11)."""
    s = sorted(lat)
    n = len(s)
    if n >= 11:
        return s[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples"
    return s[-1], f"max of {n} samples (fewer than 11)"


def run_op(wl, failures: list[str], context=contextlib.nullcontext(), speed_budget=None):
    """One timed op inside ``context``, then its check; returns (seconds, rescaled
    seconds, outcome, ok).  Given ``speed_budget`` seconds, the host-speed kernel
    is timed for that long right before and right after the op, and the op's
    time is rescaled by it."""
    rescale = speed_budget is not None
    out = None
    before = hostspeed.sample(speed_budget) if rescale else None
    with context:
        t = time.perf_counter()
        try:
            out = wl.op()
        except Exception:
            failures.append(traceback.format_exc())
        dt = time.perf_counter() - t
    scaled = dt * hostspeed.scale(before, hostspeed.sample(speed_budget)) if rescale else dt
    if out is None:
        return dt, scaled, None, False
    try:
        problems = wl.check(out)
    except Exception:
        problems = [traceback.format_exc()]
    failures.extend(problems)
    return dt, scaled, out, not problems


def measure(args, root: Path, import_s: float, lmlreg) -> dict:
    import spans as tr
    import workloads

    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        # Set-up is rescaled by host speed like the ops: the import by the
        # kernel timed right after it, each set-up by the kernel around it.
        import_scaled = import_s * hostspeed.REFERENCE_S / hostspeed.sample()
        setups, setups_scaled = [], []
        for _ in range(SETUP_REPS):
            before = hostspeed.sample()
            t = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](lmlreg, args.seed, workdir)
            wl.prepare()
            setups.append(time.perf_counter() - t)
            setups_scaled.append(setups[-1] * hostspeed.scale(before, hostspeed.sample()))
        failures: list[str] = []
        warm_s, warm_scaled, _out, warm_ok = run_op(wl, failures, speed_budget=SPEED_SHARE)
        setup_raw = import_s + statistics.median(setups) + warm_s
        setup_s = import_scaled + statistics.median(setups_scaled) + warm_scaled
        print(f"inputs: {wl.describe()}")

        rec = tr.Recorder()
        inst = tr.Instrumentation(lmlreg, rec)
        lat, lat_raw, lat_traced, lat_plain, traced = [], [], [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds
               or (args.trace and not (lat_traced and lat_plain))):
            traced_op = bool(args.trace) and attempted % 2 == 1
            dt, scaled, out, ok = run_op(
                wl, failures, inst.tracing(attempted) if traced_op else contextlib.nullcontext(),
                speed_budget=None if args.trace else SPEED_SHARE * (lat_raw or [warm_s])[-1])
            attempted += 1
            failed += not ok
            lat.append(scaled)
            lat_raw.append(dt)
            (lat_traced if traced_op else lat_plain).append(dt)
            if traced_op:
                counts = tr.op_counts(rec)
                counts.update(workloads.cli_stats(out))
                traced.append(counts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for text in failures[:5]:
        print(f"check failed: {text}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fail_rate = failed / attempted
    if args.trace:
        ratio = (len(lat_traced) / sum(lat_traced)) / (len(lat_plain) / sum(lat_plain))
        metrics = tr.layer_metrics(traced, {"trace.ops_per_s_ratio": ratio})
        units = {k: tr.unit_of(k) for k in metrics}
        for k, v in metrics.items():
            print(f"{args.workload} {k} {v:.6g} {units[k]}")
        print(f"(per traced op, {len(lat_traced)} traced and {len(lat_plain)} untraced ops; "
              f"tracing keeps {100 * ratio:.1f}% of untraced ops_per_s)")
    else:
        tail_ms, tail_note = tail(lat)
        metrics = {
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * tail_ms,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {k: unit for k, (unit, _) in END_TO_END.items()}
        notes = {
            "ops_per_s": (f"({len(lat)} ops / {sum(lat):.3f} s busy; as measured "
                          f"{len(lat_raw) / sum(lat_raw):.6g} ops/s over {sum(lat_raw):.3f} s)"),
            "op_p50_ms": (f"(median of {len(lat)} samples; as measured "
                          f"{1e3 * statistics.median(lat_raw):.6g} ms)"),
            "op_tail_ms": f"({tail_note}; as measured {1e3 * tail(lat_raw)[0]:.6g} ms)",
            "setup_s": (f"(import {import_scaled:.3f} s + median of {SETUP_REPS} input/reference "
                        f"set-ups {statistics.median(setups_scaled):.3f} s + warm-up op "
                        f"{warm_scaled:.3f} s; as measured {setup_raw:.6g} s)"),
            "peak_rss_mb": "(peak resident set of this process)",
        }
        for k, v in metrics.items():
            print(f"{args.workload} {k} {v:.6g} {units[k]} {notes[k]}")
    print(f"{args.workload} fail_rate {fail_rate:.6g} ({failed}/{attempted} ops failed"
          f"{'' if warm_ok else '; warm-up op failed'})")

    declared = declared_metrics(root, bool(args.trace))
    if {k: units[k] for k in metrics} != declared:
        raise RuntimeError("metrics printed differ from those BENCHMARK.json declares: "
                           f"{sorted(set(metrics) ^ set(declared))}")
    return {"correct": failed == 0 and warm_ok, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        code |= subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                                str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)]).returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = Path.cwd()
    try:
        lmlreg = load_program(root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"env: {environment()}")
    result = measure(args, root, import_s, lmlreg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
