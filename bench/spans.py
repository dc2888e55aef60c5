"""Span recorder for the traced run, installed from outside the program.

``Instrumentation.install()`` replaces the public functions of each layer
with timing wrappers *wherever a module binds them*: ``from .lattice import
zeta_transform`` gives ``params``, ``inference`` and ``risk`` their own
references, and ``selection`` and ``cli`` hold their own ``fit``, so every
binding that is the same function object is swapped.  The
``LogLikelihood`` methods are wrapped on the class, and the ``numpy.linalg``
calls made from ``fit`` through a proxy bound as ``inference.np``.
``uninstall()`` restores every original, so untraced ops run the program
untouched.

Each span is (name, start, end, parent, op id); spans stay in memory until
the op ends.  A span's self time is its duration minus its children's.
Helpers the wrappers do not cover (mask iteration, number formatting) are
counted in their caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time

# (module, attribute, span name).  Span names start with their layer.
FUNCTIONS = [
    ("lattice", "zeta_transform", "lattice.transform"),
    ("lattice", "mobius_transform", "lattice.transform"),
    *[("params", f, "params.chain") for f in (
        "validate", "mu_from_pi", "pi_from_mu", "gamma_from_mu", "mu_from_gamma",
        "coeffs_from_link", "link_from_coeffs", "beta_gamma_from_beta_mu",
        "beta_mu_from_beta_gamma", "mu_values_from_gamma", "mu_values_from_beta",
        "pi_values_from_beta", "beta_from_pi", "pi_from_beta")],
    ("inference", "fit", "inference.fit"),
    ("inference", "loglik", "inference.loglik"),
    ("inference", "wald_tests", "inference.wald_tests"),
    ("inference", "simulate", "inference.simulate"),
    ("inference", "induced_mu_stats", "inference.induced_mu_stats"),
    ("risk", "risk_report", "risk.risk_report"),
    ("risk", "reference_coeffs", "risk.reference_coeffs"),
    ("risk", "implied_response_independencies", "risk.independencies"),
    ("risk", "implied_covariate_independencies", "risk.independencies"),
    ("selection", "forward_margin_selection", "selection.select"),
    ("selection", "backward_staged_selection", "selection.select"),
    ("selection", "average_effects", "selection.average_effects"),
    ("selection", "pattern_weights", "selection.pattern_weights"),
    ("io", "read_count_data", "io.read"),
    ("io", "read_param_matrix", "io.read"),
    ("io", "read_zero_set", "io.read_zero_set"),
    ("io", "write_count_data", "io.write"),
    ("io", "write_param_matrix", "io.write"),
    ("io", "write_zero_set", "io.write"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_fit", "cli.fit"),
    ("cli", "cmd_transform", "cli.transform"),
    ("cli", "cmd_select", "cli.select"),
    ("cli", "cmd_risk", "cli.risk"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_plot_data", "cli.plot-data"),
]
METHODS = [("value", "inference.value"), ("gradient", "inference.gradient"),
           ("fd_hessian", "inference.hessian")]
LINALG = ["eigh", "inv"]
MODULES = ["lattice", "params", "inference", "risk", "selection", "io", "cli", "presets"]


class Recorder:
    """Spans of the current op, kept in flat lists indexed by span id."""

    def __init__(self):
        self.reset(0)

    def reset(self, op_id: int) -> None:
        """Start the spans of op ``op_id``; they share this identifier."""
        self.op_id = op_id
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> list[float]:
        """Duration minus the children's durations, per span, in seconds."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[i]
        return own


def _result_attrs(name: str, args, kwargs, result) -> dict | None:
    """Counts read off a call's arguments and result at the layer boundary."""
    if name == "lattice.transform":
        x = args[0]
        axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
        n = x.shape[axis].bit_length() - 1
        batch = x.size // x.shape[axis]
        return {"updates": n * (1 << max(n - 1, 0)) * batch}
    if name == "inference.fit":
        return {"iters": result.iterations, "converged": result.converged,
                "singular": result.singular_information}
    if name == "risk.risk_report":
        return {"entries": len(result.entries)}
    if name == "selection.select":
        return {"steps": len(result.steps), "errors": sum(1 for s in result.steps if s.error)}
    if name == "io.read":
        source = args[0]
        kind = args[3] if len(args) > 3 else kwargs.get("fmt", kwargs.get("kind", "cases"))
        if hasattr(result, "values"):      # a parameter matrix: one row per response subset
            rows = result.values.shape[0]
        else:                              # a count table: a cases file has a row per observation
            rows = result.total if kind == "cases" else result.counts.size
        return {"rows": rows, "bytes": os.stat(source).st_size if isinstance(source, str) else 0}
    return None


class Instrumentation:
    """Installs and removes the wrappers on one imported lmlreg package."""

    def __init__(self, lmlreg, recorder: Recorder):
        self.pkg = lmlreg
        self.rec = recorder
        self.mods = [lmlreg] + [getattr(lmlreg, m) for m in MODULES]
        self.saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        rec = self.rec
        counted = name in ("lattice.transform", "inference.fit", "risk.risk_report",
                           "selection.select", "io.read")
        writes = name == "io.write"

        sig = inspect.signature(fn) if writes else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = rec.open(name)
            try:
                if writes:
                    stream = sig.bind(*args, **kwargs).arguments["stream"]
                    pos = stream.tell()
                result = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if counted:
                rec.attrs[i] = _result_attrs(name, args, kwargs, result)
            elif writes:
                rec.attrs[i] = {"bytes": stream.tell() - pos}
            return result
        return wrapper

    def _swap(self, owner, attr: str, new) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        pkg = self.pkg
        for mod_name, attr, span in FUNCTIONS:
            orig = getattr(getattr(pkg, mod_name), attr)
            wrapped = self._wrap(orig, span)
            for mod in self.mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._swap(mod, key, wrapped)
        cls = pkg.inference.LogLikelihood
        for attr, span in METHODS:
            self._swap(cls, attr, self._wrap(getattr(cls, attr), span))
        self._swap(pkg.inference, "np", _NumpyProxy(pkg.inference.np, {
            f: self._wrap(getattr(pkg.inference.np.linalg, f), "inference.linalg")
            for f in LINALG}))

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, orig = self.saved.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def tracing(self, op_id: int):
        """Trace one op: wrappers installed and a root ``bench.op`` span open."""
        self.rec.reset(op_id)
        self.install()
        root = self.rec.open("bench.op")
        try:
            yield
        finally:
            self.rec.close(root)
            self.uninstall()


class _Namespace:
    def __init__(self, base, overrides: dict):
        self._base, self._overrides = base, overrides

    def __getattr__(self, attr):
        return self._overrides.get(attr) or getattr(self._base, attr)


class _NumpyProxy(_Namespace):
    """``numpy`` as seen from ``inference``, with selected ``linalg`` calls wrapped."""

    def __init__(self, np_module, linalg_overrides: dict):
        super().__init__(np_module, {"linalg": _Namespace(np_module.linalg, linalg_overrides)})


# ---------------------------------------------------------------------------
# per-layer metrics

LAYERS = ["lattice", "params", "inference", "risk", "selection", "io", "cli", "bench"]
# (span, parent span) pairs counted separately
NESTED = {
    ("inference.gradient", "inference.hessian"): "grad_in_hessian",
    ("inference.gradient", "inference.fit"): "grad_in_fit",
    ("inference.value", "inference.fit"): "value_in_fit",
    ("inference.fit", "selection.select"): "fits_in_select",
}


def op_counts(rec: Recorder) -> dict[str, float]:
    """Per-layer totals of one traced op (times in ms), from its spans.

    The op itself is span 0 (``bench.op``); the self times of all spans,
    grouped by layer, add up to its duration.
    """
    own = rec.self_times()
    dur = [e - s for s, e in zip(rec.start, rec.end)]
    names, parent, attrs = rec.names, rec.parent, rec.attrs
    c: dict[str, float] = {}

    def add(key, v):
        c[key] = c.get(key, 0.0) + v

    for i, name in enumerate(names):
        layer = name.split(".")[0]
        add(f"{layer}.self_ms", own[i] * 1e3)
        add(f"{name}.calls", 1)
        add(f"{name}.total_ms", dur[i] * 1e3)
        add(f"{name}.self_ms", own[i] * 1e3)
        a = attrs.get(i)
        if a:
            for k, v in a.items():
                add(f"{name}.{k}", float(v))
        par = names[parent[i]] if parent[i] >= 0 else None
        if (name, par) in NESTED:
            add(NESTED[(name, par)], 1)
    if rec.stack or abs(sum(own) - dur[0]) > 1e-6:
        raise RuntimeError("spans of the op do not nest or do not add up to the op time")
    c["trace.op_ms"] = dur[0] * 1e3
    c["trace.spans"] = len(names)
    return c


def layer_metrics(ops: list[dict[str, float]], extra: dict[str, float]) -> dict[str, float]:
    """Per-op means over the traced ops, with ratios taken of summed counts."""
    n = len(ops)
    tot: dict[str, float] = {}
    for c in ops:
        for k, v in c.items():
            tot[k] = tot.get(k, 0.0) + v

    def mean(key):
        return tot.get(key, 0.0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    fits = tot.get("inference.fit.calls", 0.0)
    m = {
        "lattice.transform.calls": mean("lattice.transform.calls"),
        "lattice.transform.self_ms": mean("lattice.transform.self_ms"),
        "lattice.transform.updates": mean("lattice.transform.updates"),
        # two float64 reads and one write per element update
        "lattice.transform.bytes_computed": 24.0 * mean("lattice.transform.updates"),
        "params.chain.calls": mean("params.chain.calls"),
        "params.chain.self_ms": mean("params.chain.self_ms"),
        "inference.self_ms": mean("inference.self_ms"),
        "inference.fit.calls": mean("inference.fit.calls"),
        "inference.fit.total_ms": mean("inference.fit.total_ms"),
        "inference.fit.self_ms": mean("inference.fit.self_ms"),
        "inference.newton_iters": mean("inference.fit.iters"),
        "inference.value.calls": mean("inference.value.calls"),
        "inference.value.self_ms": mean("inference.value.self_ms"),
        "inference.gradient.calls": mean("inference.gradient.calls"),
        "inference.gradient.self_ms": mean("inference.gradient.self_ms"),
        "inference.hessian.calls": mean("inference.hessian.calls"),
        "inference.hessian.total_ms": mean("inference.hessian.total_ms"),
        "inference.gradients_per_hessian": ratio(tot.get("grad_in_hessian", 0.0),
                                                 tot.get("inference.hessian.calls", 0.0)),
        # fit evaluates the start once, then once per line-search trial; it
        # takes one gradient at the start and one after each accepted step
        "inference.linesearch.accept_ratio": ratio(tot.get("grad_in_fit", 0.0) - fits,
                                                   tot.get("value_in_fit", 0.0) - fits),
        "inference.linalg.calls": mean("inference.linalg.calls"),
        "inference.linalg.total_ms": mean("inference.linalg.total_ms"),
        "inference.induced_mu_stats.total_ms": mean("inference.induced_mu_stats.total_ms"),
        "inference.simulate.total_ms": mean("inference.simulate.total_ms"),
        "inference.nonconverged": (tot.get("inference.fit.calls", 0.0)
                                   - tot.get("inference.fit.converged", 0.0)) / n,
        "inference.singular": mean("inference.fit.singular"),
        "risk.self_ms": mean("risk.self_ms"),
        "risk.risk_report.total_ms": mean("risk.risk_report.total_ms"),
        "risk.entries": mean("risk.risk_report.entries"),
        "risk.reference_coeffs_per_report": ratio(tot.get("risk.reference_coeffs.calls", 0.0),
                                                  tot.get("risk.risk_report.calls", 0.0)),
        "risk.independencies.total_ms": mean("risk.independencies.total_ms"),
        "selection.total_ms": mean("selection.select.total_ms"),
        "selection.self_ms": mean("selection.self_ms"),
        "selection.fits_per_select": ratio(tot.get("fits_in_select", 0.0),
                                           tot.get("selection.select.calls", 0.0)),
        "selection.steps": mean("selection.select.steps"),
        "selection.step_errors": mean("selection.select.errors"),
        "selection.average_effects.total_ms": mean("selection.average_effects.total_ms"),
        "io.self_ms": mean("io.self_ms"),
        "io.read.total_ms": mean("io.read.total_ms"),
        "io.read.rows": mean("io.read.rows"),
        "io.read.bytes": mean("io.read.bytes"),
        "io.write.total_ms": mean("io.write.total_ms"),
        "io.write.bytes": mean("io.write.bytes"),
        "io.read_zero_set.total_ms": mean("io.read_zero_set.total_ms"),
        "cli.self_ms": mean("cli.self_ms"),
        "cli.render.self_ms": mean("cli.self_ms") - mean("cli.main.self_ms"),
        **{f"cli.{cmd}.total_ms": mean(f"cli.{cmd}.total_ms")
           for cmd in ("fit", "risk", "transform", "simulate")},
        "cli.stdout_bytes": mean("cli.stdout_bytes"),
        "cli.exit_nonzero": mean("cli.exit_nonzero"),
        "bench.self_ms": mean("bench.self_ms"),
        "trace.op_ms": mean("trace.op_ms"),
        "trace.spans": mean("trace.spans"),
    }
    m.update(extra)
    return m


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_ratio") or name.endswith("_per_hessian") or name.endswith("_per_report") \
            or name.endswith("_per_select"):
        return "ratio"
    return "count"


def better_of(name: str) -> str:
    return "higher" if name in HIGHER_IS_BETTER else "lower"


HIGHER_IS_BETTER = {"inference.linesearch.accept_ratio", "trace.ops_per_s_ratio"}
