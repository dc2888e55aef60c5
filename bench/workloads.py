"""The three benchmark workloads: input generators, one timed op each, checks.

Each workload is built from ``--seed`` alone.  ``prepare()`` generates the
inputs and the references (from the independent model in ``oracle.py``),
``op()`` is the unit of timed work, and ``check(outcome)`` returns the list
of mismatches between an op's outputs and the references (empty = correct).

* ``presets-select``: the paper's analysis through the library API on the
  two bundled presets; many small fits, selection refit loops.
* ``cli-cap``: ``lmlreg fit`` and ``lmlreg risk`` in-process at the CLI cap
  (8 responses, 4 covariates, 64,000 cases rows, 236 free coefficients).
* ``convert-simulate``: ``lmlreg transform`` and ``lmlreg simulate`` at the
  same size; parameter maps and the write path, no fit.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

import oracle as O

# Tolerances.  Estimates of the program and of the oracle both satisfy a
# score sup-norm of 1e-8, so they agree far inside EST_ATOL.  Standard
# errors come from a finite-difference Hessian in the program, whose error
# was measured at 6e-7 to 7e-6 relative for lm; SE_RTOL admits that and an
# exact analytic Hessian alike.  JSON output is rounded to 6 decimals.
EST_ATOL = 1e-6
SE_RTOL = 1e-4
P_ATOL, P_RTOL = 1e-6, 1e-3
LL_RTOL = 1e-9
JSON_ATOL = 5e-7
RISK_ATOL = 1e-5


def close(a, b, atol: float, rtol: float = 0.0) -> bool:
    """Tolerant equality that also matches None with None (JSON null)."""
    if a is None or b is None:
        return a is None and b is None
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def fmt_mask(mask: int, labels) -> str:
    return "{" + ",".join(lab for i, lab in enumerate(labels) if mask >> i & 1) + "}"


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Call ``cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_stats(out) -> dict[str, float]:
    """Bytes written to stdout and non-zero exits of an op's CLI calls."""
    calls = out if isinstance(out, list) else []
    return {"cli.stdout_bytes": float(sum(len(text.encode()) for _, text, _ in calls)),
            "cli.exit_nonzero": float(sum(1 for code, _, _ in calls if code))}


# ---------------------------------------------------------------------------
# input generation at the CLI cap

# The true model at the cap is drawn from this fixed seed and only the data
# follow --seed.  Newton iteration counts depend on the truth far more than
# on sampling noise, and every extra iteration costs 2 x 236 score calls, so
# a per-seed truth would make op time vary by seed rather than by program.
# Truth seed 2 gives pi > 0 on its 6th draw; with it the fit took the same
# number of iterations on every data seed tried.
TRUTH_SEED = 2

def cap_free_set(p: int, q: int) -> list[tuple[int, int]]:
    """Free lml positions: singleton rows with |E| <= 2, pairs with |E| <= 1,
    and the intercepts of the p cyclic triples.  236 at p=8, q=4."""
    free = set()
    for d in range(1, 1 << p):
        k = O.popcount(d)
        for e in range(1 << q):
            if (k == 1 and O.popcount(e) <= 2) or (k == 2 and O.popcount(e) <= 1):
                free.add((d, e))
    for i in range(p):
        free.add((sum(1 << ((i + j) % p) for j in range(3)), 0))
    return sorted(free, key=O.canonical_key)


def draw_cap_truth(rng: np.random.Generator, lat: O.Lattices) -> tuple[np.ndarray, int]:
    """A pairwise lml truth with small effects, redrawn until every pi > 0.

    Singleton rows get intercepts log U(0.15, 0.35) and covariate effects
    N(0, 0.25) (|E| = 1) and N(0, 0.1) (|E| = 2); pair rows get associations
    N(0, 0.2) and covariate effects N(0, 0.1) (|E| = 1).  Naive draws of
    this kind at p=8, q=4 often imply a negative cell probability, so draws
    are repeated; the attempt count is returned.
    """
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for d in range(1, lat.R):
        for e in range(lat.C):
            groups.setdefault((O.popcount(d), O.popcount(e)), []).append((d, e))
    sds = {(1, 1): 0.25, (1, 2): 0.1, (2, 0): 0.2, (2, 1): 0.1}
    for attempt in range(1, 1001):
        bg = np.zeros((lat.R, lat.C))
        rows, cols = zip(*groups[(1, 0)])
        bg[rows, cols] = np.log(rng.uniform(0.15, 0.35, size=len(rows)))
        for key, sd in sds.items():
            if key in groups:
                rows, cols = zip(*groups[key])
                bg[rows, cols] = rng.normal(0.0, sd, size=len(rows))
        if np.all(lat.pi(bg, "lml") > 0.0):
            return bg, attempt
    raise RuntimeError("no valid truth in 1000 draws")


def cases_csv(counts: np.ndarray, labels_v, labels_u, rng: np.random.Generator) -> str:
    """One shuffled 0/1 row per observation, header of response then covariate labels."""
    p, q = len(labels_v), len(labels_u)
    R, C = counts.shape
    line = [[",".join(str(d >> i & 1) for i in range(p)) + "," +
             ",".join(str(e >> i & 1) for i in range(q)) for e in range(C)] for d in range(R)]
    cells = np.repeat(np.arange(R * C), counts.reshape(-1))
    rng.shuffle(cells)
    flat = [x for row in line for x in row]
    return ",".join(list(labels_v) + list(labels_u)) + "\n" + "\n".join(flat[c] for c in cells) + "\n"


def matrix_csv(values: np.ndarray, labels_v, labels_u) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["D"] + [fmt_mask(e, labels_u) for e in range(values.shape[1])])
    for d in range(values.shape[0]):
        w.writerow([fmt_mask(d, labels_v)] + [repr(float(x)) for x in values[d]])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# presets-select

class PresetsSelect:
    """Forward selection on preset 1 (totals x2.5), backward lml and lm on
    preset 2, then risk, independencies, average effects and Wald tests on
    each final fit.

    Every op simulates fresh data, with seeds drawn from (--seed, op index).
    How many refits selection needs depends on the sample, so one sample
    per run would make op time vary by seed; a run instead spans one sample
    per op.  References are built per op by the check, outside the timing.
    """

    def __init__(self, lmlreg, seed: int, workdir: Path):
        self.lib = lmlreg
        self.seed = seed
        pr1 = lmlreg.presets.single_covariate_preset()
        pr2 = lmlreg.presets.two_covariate_preset()
        self.presets = [(pr1, tuple(int(2.5 * t) for t in pr1.column_totals)),
                        (pr2, tuple(pr2.column_totals))]
        self.next_op = 0

    def sim_seeds(self, k: int) -> list[int]:
        return [int(s) for s in np.random.SeedSequence([self.seed, k]).generate_state(2)]

    def describe(self) -> str:
        return f"preset samples drawn per op from SeedSequence([{self.seed}, op])"

    def prepare(self) -> None:
        self.first_ref = self.reference(0)

    def reference(self, k: int) -> dict:
        """Simulated tables and oracle selections for the samples of op ``k``."""
        ref = []
        for (pr, totals), sim_seed in zip(self.presets, self.sim_seeds(k)):
            V, U = pr.beta_gamma.rows, pr.beta_gamma.cols
            lat = O.Lattices(V.ground_size, U.ground_size)
            counts = O.simulate_counts(lat.pi(pr.beta_gamma.values, "lml"), totals, sim_seed)
            ref.append((lat, counts, U.labels))
        (lat1, c1, _), (lat2, c2, _) = ref
        sels = [
            (0, O.forward_selection(c1, lat1.p, lat1.q)),
            (1, O.backward_selection(c2, lat2.p, lat2.q, "lml")),
            (1, O.backward_selection(c2, lat2.p, lat2.q, "lm")),
        ]
        selections = []
        for which, (zeros, res) in sels:
            lat, counts, labels_u = ref[which]
            selections.append({
                "zeros": zeros, "fit": res,
                "risk": O.risk_entries(lat, res, labels_u),
                "indep": O.response_independencies(lat, res),
                "avg": {u: O.average_effects(lat, res, counts, i) for i, u in enumerate(labels_u)},
            })
        return {"tables": [c1, c2], "selections": selections}

    def op(self):
        lib = self.lib
        k = self.next_op
        self.next_op += 1
        (pr1, t1), (pr2, t2) = self.presets
        s1, s2 = self.sim_seeds(k)
        d1 = lib.simulate(pr1.beta_gamma, "lml", t1, seed=s1)
        d2 = lib.simulate(pr2.beta_gamma, "lml", t2, seed=s2)
        traces = [
            (d1, lib.forward_margin_selection(d1)),
            (d2, lib.backward_staged_selection(d2, "lml")),
            (d2, lib.backward_staged_selection(d2, "lm")),
        ]
        reports = []
        for data, trace in traces:
            f = trace.final_fit
            reports.append({
                "risk": lib.risk_report(f),
                "indep": lib.implied_response_independencies(f),
                "avg": {u: lib.average_effects(f, data, u) for u in data.covariates.labels},
                "wald": lib.wald_tests(f),
            })
        return {"op": k, "tables": [d1, d2], "traces": [t for _, t in traces], "reports": reports}

    def check(self, out) -> list[str]:
        bad = []
        want = self.first_ref if out["op"] == 0 else self.reference(out["op"])
        for i, (table, ref) in enumerate(zip(out["tables"], want["tables"])):
            if not np.array_equal(table.counts, ref):
                bad.append(f"simulated table {i + 1} differs")
        for i, (trace, rep, ref) in enumerate(zip(out["traces"], out["reports"], want["selections"])):
            tag = f"selection {i + 1}"
            errors = [s.error for s in trace.steps if s.error]
            if errors:
                bad.append(f"{tag}: step error {errors[0]}")
            if trace.zero_set != ref["zeros"]:
                bad.append(f"{tag}: selected zero set differs")
                continue
            bad += check_fit(tag, trace.final_fit, ref["fit"])
            bad += check_wald(tag, rep["wald"], ref["fit"])
            bad += check_risk_report(tag, rep["risk"], ref["risk"])
            if [tuple(x) for x in rep["indep"]] != ref["indep"]:
                bad.append(f"{tag}: implied independencies differ")
            for u, effects in rep["avg"].items():
                want = ref["avg"][u]
                got = [(a.k, a.estimate, a.se, a.ci[0], a.ci[1]) for a in effects]
                if len(got) != len(want) or not all(
                        g[0] == w[0] and close(g[1], w[1], EST_ATOL)
                        and close(g[2], w[2], EST_ATOL, SE_RTOL)
                        and close(g[3], w[3], EST_ATOL, SE_RTOL)
                        and close(g[4], w[4], EST_ATOL, SE_RTOL)
                        for g, w in zip(got, want)):
                    bad.append(f"{tag}: average effects of {u} differ")
        return bad


def check_fit(tag: str, f, ref: O.OracleFit) -> list[str]:
    bad = []
    if not f.converged:
        bad.append(f"{tag}: final fit did not converge")
    if set(f.free_index) != set(ref.free):
        return bad + [f"{tag}: free coefficients differ"]
    want = ref.by_key()
    for i, de in enumerate(f.free_index):
        x, s, pv = want[de]
        if not close(f.estimates[i], x, EST_ATOL):
            bad.append(f"{tag}: estimate {de} {f.estimates[i]!r} != {x!r}")
        if not close(f.std_errors[i], s, 0.0, SE_RTOL):
            bad.append(f"{tag}: se {de} {f.std_errors[i]!r} != {s!r}")
        if not close(f.wald_p[i], pv, P_ATOL, P_RTOL):
            bad.append(f"{tag}: p {de} {f.wald_p[i]!r} != {pv!r}")
    if not close(f.loglik, ref.loglik, EST_ATOL, LL_RTOL):
        bad.append(f"{tag}: loglik {f.loglik!r} != {ref.loglik!r}")
    if not close(f.deviance, ref.deviance, EST_ATOL + 2 * LL_RTOL * abs(ref.loglik)):
        bad.append(f"{tag}: deviance {f.deviance!r} != {ref.deviance!r}")
    if f.df != ref.df:
        bad.append(f"{tag}: df {f.df} != {ref.df}")
    return bad


def check_wald(tag: str, rows, ref: O.OracleFit) -> list[str]:
    want = ref.by_key()
    if len(rows) != len(want):
        return [f"{tag}: wald_tests has {len(rows)} rows, expected {len(want)}"]
    for d, e, x, s, pv in rows:
        w = want.get((d, e))
        if w is None or not (close(x, w[0], EST_ATOL) and close(s, w[1], 0.0, SE_RTOL)
                             and close(pv, w[2], P_ATOL, P_RTOL)):
            return [f"{tag}: wald_tests row {(d, e)} differs"]
    return []


def check_risk_report(tag: str, report, ref_entries) -> list[str]:
    got = report.entries
    if len(got) != len(ref_entries):
        return [f"{tag}: risk report has {len(got)} entries, expected {len(ref_entries)}"]
    for en, (d, u, e, lrr, lref, lratio, cz) in zip(got, ref_entries):
        if ((en.d_mask, en.u, en.e_mask, en.constrained_zero) != (d, u, e, cz)
                or not close(en.log_rr, lrr, RISK_ATOL)
                or not close(en.log_ref_rr, lref, RISK_ATOL)
                or not close(en.log_ratio, lratio, RISK_ATOL)):
            return [f"{tag}: risk entry {(d, u, e)} differs"]
    return []


# ---------------------------------------------------------------------------
# CLI workloads at the cap

class _CapInputs:
    """Shared generator for the two CLI workloads: p responses, q covariates."""

    def __init__(self, lmlreg, seed: int, workdir: Path, p: int = 8, q: int = 4,
                 per_cell: int = 4000):
        self.cli = lmlreg.cli
        self.seed = seed
        self.workdir = workdir
        self.p, self.q, self.per_cell = p, q, per_cell
        self.labels_v = tuple(f"y{i + 1}" for i in range(p))
        self.labels_u = tuple(f"x{i + 1}" for i in range(q))
        self.attempts = 0

    def common_args(self) -> list[str]:
        return ["--responses", ",".join(self.labels_v), "--covariates", ",".join(self.labels_u)]

    def draw(self) -> tuple[O.Lattices, np.ndarray]:
        lat = O.Lattices(self.p, self.q)
        truth, self.attempts = draw_cap_truth(np.random.default_rng(TRUTH_SEED), lat)
        return lat, truth

    def describe(self) -> str:
        return (f"p={self.p} q={self.q}: pairwise lml truth from draw {self.attempts} of truth "
                f"seed {TRUTH_SEED} (earlier draws gave a pi <= 0); data seed {self.seed}")


class CliCap(_CapInputs):
    """``fit --out json`` then ``risk --out json`` on a 64,000-row cases file."""

    def describe(self) -> str:
        return super().describe() + f", sample {self.samples}"

    def prepare(self) -> None:
        lat, truth = self.draw()
        free = cap_free_set(self.p, self.q)
        zeros = frozenset((d, e) for d in range(1, lat.R) for e in range(lat.C)) - set(free)
        # A sample whose maximum lies on the boundary (some fitted pi -> 0)
        # makes the program stop unconverged, by design; such samples are
        # redrawn so that every op can succeed.
        for self.samples in range(1, 101):
            rng = np.random.default_rng([self.seed, self.samples])
            counts = O.simulate_counts(lat.pi(truth, "lml"), [self.per_cell] * lat.C,
                                       int(rng.integers(2 ** 31)))
            res = O.fit(lat, counts, "lml", zeros)
            if res.converged:
                break
        else:
            raise RuntimeError("no sample with an interior maximum in 100 draws")
        self.cases = self.workdir / "cases.csv"
        self.zeros = self.workdir / "zeros.txt"
        self.cases.write_text(cases_csv(counts, self.labels_v, self.labels_u, rng))
        self.zeros.write_text("".join(
            f"{fmt_mask(d, self.labels_v)};{fmt_mask(e, self.labels_u)}\n"
            for d, e in sorted(zeros, key=O.canonical_key)))
        self.ref_fit_json = self._fit_json(lat, res)
        self.ref_risk_json = self._risk_json(lat, res)

    def _fit_json(self, lat, res) -> dict:
        V, U = self.labels_v, self.labels_u
        rows = O.masks_by_cardinality(self.p)
        cols = [0] + O.masks_by_cardinality(self.q)
        want = res.by_key()
        coeffs = []
        for d in rows:
            for e in cols:
                w = want.get((d, e))
                coeffs.append((fmt_mask(d, V), fmt_mask(e, U), w is None, w))
        mu_vals, mu_ses = O.induced_mu(lat, res)
        induced = [(fmt_mask(d, V), fmt_mask(e, U), mu_vals[d, e], mu_ses[d, e])
                   for d in rows for e in cols]
        return {"deviance": res.deviance, "df": res.df, "loglik": res.loglik,
                "p_value": float(stats.chi2.sf(res.deviance, res.df)),
                "coefficients": coeffs, "induced": induced}

    def _risk_json(self, lat, res) -> list[tuple]:
        V, U = self.labels_v, self.labels_u
        return [(fmt_mask(d, V), u, fmt_mask(e, U), lrr, lref, lratio, cz)
                for d, u, e, lrr, lref, lratio, cz in O.risk_entries(lat, res, U)]

    def argv(self, command: str) -> list[str]:
        return [command, "--input", str(self.cases), "--format", "cases", *self.common_args(),
                "--link", "lml", "--zeros", str(self.zeros), "--out", "json"]

    def op(self):
        return [run_cli(self.cli, self.argv("fit")), run_cli(self.cli, self.argv("risk"))]

    def check(self, out) -> list[str]:
        (c1, fit_text, _), (c2, risk_text, _) = out
        if c1 or c2:
            return [f"exit codes fit={c1} risk={c2}"]
        return (check_fit_json(json.loads(fit_text), self.ref_fit_json)
                + check_risk_json(json.loads(risk_text), self.ref_risk_json))


def check_fit_json(obj: dict, ref: dict) -> list[str]:
    bad = []
    if obj.get("link") != "lml" or obj.get("converged") is not True or obj.get("notes") != []:
        bad.append("fit json: link/converged/notes unexpected")
    if obj.get("df") != ref["df"]:
        bad.append(f"fit json: df {obj.get('df')} != {ref['df']}")
    tol_ll = EST_ATOL + JSON_ATOL
    if not close(obj.get("loglik"), ref["loglik"], tol_ll, LL_RTOL):
        bad.append(f"fit json: loglik {obj.get('loglik')} != {ref['loglik']}")
    if not close(obj.get("deviance"), ref["deviance"], tol_ll + 2 * LL_RTOL * abs(ref["loglik"])):
        bad.append(f"fit json: deviance {obj.get('deviance')} != {ref['deviance']}")
    if not close(obj.get("p_value"), ref["p_value"], P_ATOL + JSON_ATOL, P_RTOL):
        bad.append("fit json: p_value differs")
    coeffs = obj.get("coefficients", [])
    if len(coeffs) != len(ref["coefficients"]):
        return bad + [f"fit json: {len(coeffs)} coefficients, expected {len(ref['coefficients'])}"]
    est_tol = EST_ATOL + JSON_ATOL
    for c, (d, e, constrained, w) in zip(coeffs, ref["coefficients"]):
        if (c["D"], c["E"], c["constrained"]) != (d, e, constrained):
            return bad + [f"fit json: coefficient {d};{e} label or constraint differs"]
        if constrained:
            if (c["estimate"], c["se"], c["p"]) != (None, None, None):
                return bad + [f"fit json: constrained {d};{e} has values"]
        elif not (close(c["estimate"], w[0], est_tol) and close(c["se"], w[1], JSON_ATOL, SE_RTOL)
                  and close(c["p"], w[2], P_ATOL + JSON_ATOL, P_RTOL)):
            return bad + [f"fit json: coefficient {d};{e} = {c} differs from {w}"]
    induced = obj.get("beta_mu_induced", [])
    if len(induced) != len(ref["induced"]):
        return bad + ["fit json: beta_mu_induced length differs"]
    for c, (d, e, x, s) in zip(induced, ref["induced"]):
        if (c["D"], c["E"]) != (d, e) or not (
                close(c["estimate"], x, 16 * EST_ATOL) and close(c["se"], s, JSON_ATOL, SE_RTOL)):
            return bad + [f"fit json: beta_mu_induced {d};{e} differs"]
    return bad


def check_risk_json(entries: list, ref: list) -> list[str]:
    if len(entries) != len(ref):
        return [f"risk json: {len(entries)} entries, expected {len(ref)}"]
    tol = RISK_ATOL + JSON_ATOL
    for en, (d, u, e, lrr, lref, lratio, cz) in zip(entries, ref):
        ok = ((en["D"], en["u"], en["E"], en["ratio_constrained_to_one"]) == (d, u, e, cz)
              and close(en["log_rr"], lrr, tol) and close(en["rr"], math.exp(lrr), tol, RISK_ATOL)
              and close(en["log_reference_rr"], lref, tol)
              and close(en["log_rr_ratio"], lratio, tol))
        if ok and lref is not None:
            ok = (close(en["reference_rr"], math.exp(lref), tol, RISK_ATOL)
                  and close(en["rr_ratio"], math.exp(lratio), tol, RISK_ATOL))
        if not ok:
            return [f"risk json: entry {d};{u};{e} differs"]
    return []


class ConvertSimulate(_CapInputs):
    """``transform --kind beta_gamma --out json`` then ``simulate --format cases``."""

    def prepare(self) -> None:
        lat, truth = self.draw()
        self.matrix = self.workdir / "beta_gamma.csv"
        self.matrix.write_text(matrix_csv(truth, self.labels_v, self.labels_u))
        self.truth = truth
        self.ref_kinds = lat.all_kinds(truth)
        counts = O.simulate_counts(self.ref_kinds["pi"], [self.per_cell] * lat.C, self.seed)
        self.ref_lines = collections.Counter()
        for d in range(lat.R):
            for e in range(lat.C):
                if counts[d, e]:
                    key = ",".join([str(d >> i & 1) for i in range(self.p)]
                                   + [str(e >> i & 1) for i in range(self.q)])
                    self.ref_lines[key] = int(counts[d, e])
        self.ref_header = ",".join(self.labels_v + self.labels_u)

    def op(self):
        base = ["--input", str(self.matrix), *self.common_args()]
        return [
            run_cli(self.cli, ["transform", *base, "--kind", "beta_gamma", "--out", "json"]),
            run_cli(self.cli, ["simulate", *base, "--totals", str(self.per_cell),
                                "--format", "cases", "--seed", str(self.seed)]),
        ]

    def check(self, out) -> list[str]:
        (c1, tr_text, _), (c2, sim_text, _) = out
        if c1 or c2:
            return [f"exit codes transform={c1} simulate={c2}"]
        bad = []
        obj = json.loads(tr_text)
        rows = [fmt_mask(d, self.labels_v) for d in range(1 << self.p)]
        cols = [fmt_mask(e, self.labels_u) for e in range(1 << self.q)]
        for kind, ref in self.ref_kinds.items():
            m = obj.get(kind)
            if m is None or m["rows"] != rows or m["cols"] != cols:
                bad.append(f"transform json: {kind} missing or mislabelled")
                continue
            got = np.array(m["values"], dtype=float)
            if got.shape != ref.shape or not np.allclose(got, ref, rtol=0.0, atol=2 * JSON_ATOL):
                bad.append(f"transform json: {kind} values differ")
        if "beta_gamma" in obj and not np.allclose(
                np.array(obj["beta_gamma"]["values"], dtype=float), self.truth,
                rtol=0.0, atol=2 * JSON_ATOL):
            bad.append("transform json: beta_gamma does not round-trip to the input")
        lines = sim_text.split("\n")
        if lines[0] != self.ref_header or lines[-1] != "":
            bad.append("simulate csv: header or termination differs")
        elif collections.Counter(lines[1:-1]) != self.ref_lines:
            bad.append("simulate csv: sampled counts differ")
        return bad


WORKLOADS = {
    "presets-select": PresetsSelect,
    "cli-cap": CliCap,
    "convert-simulate": ConvertSimulate,
}
