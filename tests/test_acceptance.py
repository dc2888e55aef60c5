"""Acceptance gate: every release criterion at its stated tolerance.

One test per numbered criterion.  Each produces a single ``[PASS] C<n>: ...``
or ``[FAIL] C<n>: ...`` line, printed live under ``pytest -s`` and echoed in
the terminal summary of every run.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy import stats as sstats

from lmlreg.cli import main as cli_main
from lmlreg import io as lio
from lmlreg.inference import CountTable, ModelSpec, fit, simulate
from lmlreg.lattice import SubsetLattice, mobius_transform, zeta_transform
from lmlreg.params import ParamMatrix, beta_from_pi, gamma_from_mu, mu_from_pi, pi_from_beta
from lmlreg.presets import single_covariate_preset, two_covariate_preset
from lmlreg.risk import implied_response_independencies
from lmlreg.selection import (
    CI_Z,
    backward_staged_selection,
    forward_margin_selection,
)

from conftest import record_acceptance_line
from oracles import (
    brute_force_max_loglik,
    empirical_pi,
    free_positions,
    implied_pi,
    log_reference_rr,
    log_relative_risk,
    mobius_matrix,
    zeta_matrix,
)
from test_inference import random_constrained_spec


def report(n: int, description: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] C{n}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    record_acceptance_line(line)
    assert ok, line


def lattices(p: int, q: int) -> tuple[SubsetLattice, SubsetLattice]:
    return (SubsetLattice(tuple(f"y{i}" for i in range(p))),
            SubsetLattice(tuple(f"x{i}" for i in range(q))))


def positive_table(p: int, q: int, seed: int, high: int = 500) -> CountTable:
    V, U = lattices(p, q)
    counts = np.random.default_rng(seed).integers(1, high, size=(2**p, 2**q))
    return CountTable(V, U, counts.astype(np.int64))


# ---------------------------------------------------------------------------
# published single-covariate saturated coefficient tables (3-decimal values),
# used only as an internal-consistency anchor between the two scales

V4 = SubsetLattice(("b", "c", "d", "r"))
U1 = SubsetLattice(("h",))

_BETA_GAMMA_TABLE = {
    ("b",): (-4.573, 2.621),
    ("c",): (-4.476, 1.056),
    ("d",): (-3.255, 1.061),
    ("r",): (-6.321, 3.570),
    ("b", "c"): (1.158, -0.737),
    ("b", "d"): (0.422, -0.539),
    ("b", "r"): (0.230, -0.257),
    ("c", "d"): (1.776, -1.165),
    ("c", "r"): (0.133, 0.404),
    ("d", "r"): (1.684, -0.863),
    ("b", "c", "d"): (-0.011, -0.553),
    ("b", "c", "r"): (2.493, -1.846),
    ("b", "d", "r"): (0.456, -0.101),
    ("c", "d", "r"): (-0.898, 0.748),
    ("b", "c", "d", "r"): (-0.867, 0.742),
}

_BETA_MU_TABLE = {
    ("b",): (-4.573, 2.621),
    ("c",): (-4.476, 1.056),
    ("d",): (-3.255, 1.061),
    ("r",): (-6.321, 3.570),
    ("b", "c"): (-7.892, 2.941),
    ("b", "d"): (-7.407, 3.144),
    ("b", "r"): (-10.665, 5.935),
    ("c", "d"): (-5.955, 0.953),
    ("c", "r"): (-10.665, 5.030),
    ("d", "r"): (-7.892, 3.768),
    ("b", "c", "d"): (-8.960, 1.745),
    ("b", "c", "r"): (-11.358, 4.812),
    ("b", "d", "r"): (-11.358, 5.493),
    ("c", "d", "r"): (-11.358, 4.812),
    ("b", "c", "d", "r"): (-12.051, 4.143),
}


def _table_to_array(table: dict) -> np.ndarray:
    values = np.zeros((V4.size, U1.size * 2))
    out = np.zeros((V4.size, 2))
    for labels, (v0, v1) in table.items():
        d = V4.mask_of(labels)
        out[d] = (v0, v1)
    return out


def test_c01_lattice_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(0)
    for n in range(1, 11):
        lat = SubsetLattice(tuple(f"g{i}" for i in range(n)))
        Z = zeta_matrix(lat)
        M = mobius_matrix(lat)
        # entries are 0/±1 and n ≤ 10, so float64 products are exact integers
        prod = M @ Z
        exact = np.array_equal(prod, np.eye(lat.size))
        assert exact, f"M·Z != I at ground size {n}"
        for _ in range(10):
            v = rng.standard_normal(lat.size)
            for fast, dense in (
                (zeta_transform(v, axis=0), Z.T @ v),
                (zeta_transform(v, axis=0, supersets=True), Z @ v),
                (mobius_transform(v, axis=0), M.T @ v),
                (mobius_transform(v, axis=0, supersets=True), M @ v),
            ):
                err = np.linalg.norm(fast - dense) / max(np.linalg.norm(dense), 1e-300)
                worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-13 and elapsed < 5.0
    report(1, "dense inverse identity (sizes 1..10) and fast-vs-dense transforms <= 1e-13 in < 5 s",
           ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_c02_parameterization_round_trips():
    t0 = time.perf_counter()
    worst = 0.0
    shapes = [(p, q) for p in range(1, 6) for q in range(1, 4)]
    rng = np.random.default_rng(1)
    for i in range(200):
        p, q = shapes[i % len(shapes)]
        V, U = lattices(p, q)
        raw = rng.gamma(2.0, size=(2**p, 2**q))
        pi = ParamMatrix("pi", V, U, raw / raw.sum(axis=0, keepdims=True))
        mu = mu_from_pi(pi)
        gamma = gamma_from_mu(mu)
        for link in ("lml", "lm"):
            beta = beta_from_pi(pi, link)
            back = pi_from_beta(beta, link)
            worst = max(worst, float(np.max(np.abs(back.values - pi.values))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 10.0
    report(2, "200 random pi round trip through mu/gamma/coefficients within 1e-11 in < 10 s",
           ok, f"sup-norm {worst:.2e}, {elapsed:.2f}s")


def test_c03_published_table_consistency():
    bgamma = _table_to_array(_BETA_GAMMA_TABLE)
    bmu = _table_to_array(_BETA_MU_TABLE)
    derived = mobius_transform(bmu, axis=0)  # alternating subset sums down rows
    diff = np.abs(derived - bgamma)[1:]      # empty row is structurally zero
    worst = float(diff.max())
    anchor1 = 2.941 - 2.621 - 1.056         # pair (b,c), covariate column
    anchor2 = -7.892 + 4.573 + 4.476        # pair (b,c), baseline column
    d_bc = V4.mask_of(("b", "c"))
    ok = (worst <= 0.015
          and abs(anchor1 - _BETA_GAMMA_TABLE[("b", "c")][1]) <= 0.015
          and abs(anchor2 - _BETA_GAMMA_TABLE[("b", "c")][0]) <= 0.015
          and derived[d_bc, 1] == pytest.approx(anchor1, abs=1e-12)
          and derived[d_bc, 0] == pytest.approx(anchor2, abs=1e-12))
    report(3, "published saturated coefficient tables agree across scales within 0.015",
           ok, f"max abs diff {worst:.4f} over 15 patterns x 2 columns")


def test_c04_saturated_closed_form():
    worst_coeff = 0.0
    worst_dev = 0.0
    shapes = [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1)]
    for i in range(50):
        p, q = shapes[i % len(shapes)]
        t = positive_table(p, q, 100 + i)
        emp = empirical_pi(t)
        for link in ("lm", "lml"):
            res = fit(ModelSpec(link), t)
            closed = beta_from_pi(emp, link)
            worst_coeff = max(worst_coeff, float(np.max(np.abs(res.beta_hat.values - closed.values))))
            worst_dev = max(worst_dev, abs(res.deviance))
    ok = worst_coeff <= 1e-8 and worst_dev <= 1e-8
    report(4, "saturated fit equals closed-form empirical coefficients within 1e-8 on 50 tables",
           ok, f"max coeff diff {worst_coeff:.2e}, max deviance {worst_dev:.2e}")


def test_c05_gradient_correctness():
    from lmlreg.inference import LogLikelihood

    worst = 0.0
    shapes = [(2, 1), (3, 1), (2, 2), (3, 2)]
    step = 1e-6
    for i in range(50):
        p, q = shapes[i % len(shapes)]
        link = "lml" if i % 2 == 0 else "lm"
        t = positive_table(p, q, 300 + i)
        spec = random_constrained_spec(p, q, i, link)
        ll = LogLikelihood(spec, t)
        res = fit(spec, t)
        rng = np.random.default_rng(i)
        x = res.estimates.copy()
        jitter = rng.normal(scale=0.05, size=x.size)
        for _ in range(10):
            if implied_pi(ll, x + jitter) is not None:
                x = x + jitter
                break
            jitter *= 0.5
        g = ll.gradient(x)
        fd = np.zeros_like(g)
        for j in range(x.size):
            up = x.copy(); up[j] += step
            dn = x.copy(); dn[j] -= step
            fd[j] = (ll.value(up) - ll.value(dn)) / (2 * step)
        rel = np.linalg.norm(g - fd) / max(1.0, float(np.linalg.norm(g)))
        worst = max(worst, float(rel))
    ok = worst <= 1e-5
    report(5, "analytic score matches central differences (step 1e-6) within 1e-5 at 50 points",
           ok, f"max rel err {worst:.2e}")


def test_c06_brute_force_oracle():
    worst = 0.0
    spec = ModelSpec("lml", frozenset({(3, 1)}))
    for i in range(20):
        t = positive_table(2, 1, 400 + i, high=200)
        res = fit(spec, t)
        assert res.converged
        oracle = brute_force_max_loglik(spec, t, n_starts=12, seed=i)
        worst = max(worst, abs(res.loglik - oracle))
    ok = worst <= 1e-6
    report(6, "constrained fit matches a multi-start brute-force maximizer within 1e-6 on 20 datasets",
           ok, f"max |loglik gap| {worst:.2e}")


def test_c07_block_product_structure():
    worst_gamma = 0.0
    worst_rr = 0.0
    splits = [(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1), (1, 2, 2), (2, 1, 2)]
    rng_seed = 0
    for i in range(100):
        p_a, p_b, q = splits[i % len(splits)]
        p = p_a + p_b
        V, U = lattices(p, q)
        rng = np.random.default_rng(500 + i)
        na, nb = 2**p_a, 2**p_b
        values = np.empty((na * nb, 2**q))
        for j in range(2**q):
            fa = rng.gamma(2.0, size=na)
            fb = rng.gamma(2.0, size=nb)
            fa /= fa.sum()
            fb /= fb.sum()
            for m in range(na * nb):
                values[m, j] = fa[m & (na - 1)] * fb[m >> p_a]
        pi = ParamMatrix("pi", V, U, values)
        a_mask = na - 1
        b_mask = (V.size - 1) ^ a_mask
        gamma = gamma_from_mu(mu_from_pi(pi))
        bmu = beta_from_pi(pi, "lm")
        for d in range(1, V.size):
            if not (d & a_mask and d & b_mask):
                continue
            worst_gamma = max(worst_gamma, float(np.max(np.abs(
                beta_from_pi(pi, "lml").values[d]))))
            worst_gamma = max(worst_gamma, float(np.max(np.abs(gamma.values[d]))))
            for u in U.labels:
                u_mask = U.mask_of([u])
                for e in range(U.size):
                    if e & u_mask:
                        continue
                    gap = abs(log_relative_risk(bmu, d, u, e)
                              - log_reference_rr(bmu, d, u, e))
                    worst_rr = max(worst_rr, gap)
    ok = worst_gamma <= 1e-10 and worst_rr <= 1e-10
    report(7, "block-product pi: straddling association terms vanish and RR equals reference RR (1e-10, 100 draws)",
           ok, f"max |gamma| {worst_gamma:.2e}, max RR gap {worst_rr:.2e}")


def test_c08_deviance_calibration():
    preset = single_covariate_preset()
    df = preset.spec.df
    devs = np.empty(500)
    for rep in range(500):
        data = simulate(preset.beta_gamma, "lml", preset.column_totals, seed=20000 + rep)
        res = fit(preset.spec, data)
        assert res.converged
        devs[rep] = res.deviance
    mean_ratio = float(devs.mean()) / df
    q95_ratio = float(np.percentile(devs, 95)) / float(sstats.chi2.ppf(0.95, df))
    ok = abs(mean_ratio - 1.0) <= 0.10 and abs(q95_ratio - 1.0) <= 0.15
    report(8, "deviance over 500 reps at n=20000: mean within 10% of df, 95th percentile within 15% of chi-square",
           ok, f"mean/df {mean_ratio:.3f}, q95 ratio {q95_ratio:.3f}")


def test_c09_wald_coverage():
    preset = single_covariate_preset()
    spec = preset.spec
    V, U = preset.responses, preset.covariates
    free = free_positions(spec, V, U)
    truth = {pos: preset.beta_gamma.values[pos] for pos in free}
    hits = np.zeros(len(free))
    reps = 1000
    nonconverged = 0
    for rep in range(reps):
        data = simulate(preset.beta_gamma, "lml", preset.column_totals, seed=50000 + rep)
        res = fit(spec, data)
        if not res.converged:
            # a draw with an empty count cell can push the MLE to the boundary
            # (a fitted cell probability -> 0); no interior optimum exists and
            # its interval, valid or not, simply counts against coverage
            nonconverged += 1
        for i, pos in enumerate(res.free_index):
            if abs(res.estimates[i] - truth[pos]) <= CI_Z * res.std_errors[i]:
                hits[i] += 1
    assert nonconverged <= 5, f"{nonconverged} of {reps} fits failed to converge"
    coverage = hits / reps
    lo, hi = float(coverage.min()), float(coverage.max())
    ok = lo >= 0.93 and hi <= 0.97
    report(9, "95% Wald intervals cover every true free coefficient at 95% +/- 2% over 1000 reps",
           ok, f"per-coefficient coverage in [{lo:.3f}, {hi:.3f}], {nonconverged} boundary fit(s)")


def test_c10_selection_recovery():
    fwd = single_covariate_preset()
    fwd_zeros = fwd.spec.zero_set
    fwd_exact = 0
    fwd_kept = 0
    for rep in range(100):
        data = simulate(fwd.beta_gamma, "lml", (30000, 20000), seed=1000 + rep)
        trace = forward_margin_selection(data)
        if trace.zero_set == fwd_zeros:
            fwd_exact += 1
        fwd_kept += len(fwd_zeros - trace.zero_set)
    fwd_keep_rate = fwd_kept / (100 * len(fwd_zeros))

    bwd = two_covariate_preset()
    bwd_zeros = bwd.spec.zero_set
    bwd_exact = 0
    bwd_kept = 0
    for rep in range(100):
        data = simulate(bwd.beta_gamma, "lml", bwd.column_totals, seed=7000 + rep)
        trace = backward_staged_selection(data)
        if trace.zero_set == bwd_zeros:
            bwd_exact += 1
        bwd_kept += len(bwd_zeros - trace.zero_set)
    bwd_keep_rate = bwd_kept / (100 * len(bwd_zeros))

    ok = (fwd_exact >= 60 and bwd_exact >= 60
          and fwd_keep_rate <= 0.05 + 0.015 and bwd_keep_rate <= 0.05 + 0.015)
    report(10, "both procedures recover the generating zero set in >= 60/100 reps with false-keep rate within the alpha level",
           ok, f"forward {fwd_exact}/100 (keep rate {fwd_keep_rate:.3f}), "
               f"backward {bwd_exact}/100 (keep rate {bwd_keep_rate:.3f})")


def test_c11_independence_reporting():
    preset = single_covariate_preset()
    found = implied_response_independencies(preset.spec, preset.responses, preset.covariates)
    b, c, d, r = (preset.responses.mask_of([lab]) for lab in ("b", "c", "d", "r"))
    expected = [(b | d, b, d), (b | r, b, r), (c | r, c, r)]
    ok = sorted(found) == sorted(expected)
    report(11, "the selected single-covariate zero set implies exactly three pairwise response independencies",
           ok, f"found {len(found)} statements")


def test_c12_plot_data_series(tmp_path, capsys):
    preset = single_covariate_preset()
    data = simulate(preset.beta_gamma, "lml", (30000, 20000), seed=12)
    path = tmp_path / "plot_input.csv"
    with path.open("w") as f:
        lio.write_count_data(data, f, "counts")
    code = cli_main(["plot-data", "--input", str(path), "--format", "counts",
                     "--responses", "b,c,d,r", "--covariates", "h"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    by_link: dict[str, dict[int, tuple[float, float, float, float]]] = {"lm": {}, "lml": {}}
    for link, k, est, se, lo, hi in rows:
        by_link[link][int(k)] = (float(est), float(se), float(lo), float(hi))
    four_each = sorted(by_link["lm"]) == [1, 2, 3, 4] and sorted(by_link["lml"]) == [1, 2, 3, 4]
    k1_lm, k1_lml = by_link["lm"][1], by_link["lml"][1]
    k1_equal = (abs(k1_lm[0] - k1_lml[0]) <= 1e-9
                and abs(k1_lm[1] - k1_lml[1]) <= 1e-6 * max(k1_lm[1], 1e-12))
    ci_ok = all(
        abs(lo - (est - CI_Z * se)) <= 1e-9 and abs(hi - (est + CI_Z * se)) <= 1e-9
        for link in by_link
        for est, se, lo, hi in by_link[link].values()
    )
    ok = four_each and k1_equal and ci_ok
    report(12, "plot series has 4 sizes per link, identical size-1 entries across links, CI half-width 1.96*se",
           ok, f"k=1 gap {abs(k1_lm[0] - k1_lml[0]):.1e}")
