"""Spans around calls into the package's public functions.

The traced run replaces public functions of the package's modules with
timing wrappers, in every module namespace that holds them, so calls
made inside the package (``fit_direct`` calling ``direct.objective``,
``cli.main`` calling ``fit_em``) are recorded too.  The package itself
is not modified.  Each call gets one span with its start, end, parent
and phase; spans stay in memory and are written out at the end.
"""

import functools
import json
import statistics
import time
import tracemalloc

#: (module, function) pairs that get a span.  Spans of the functions
#: without a per-layer metric still matter: they are children, so their
#: time is not counted as the parent's self time.
TRACED = (
    ("model", "log_likelihood"),
    ("em", "fit_em"),
    ("cem", "fit_cem"),
    ("cem", "cem_m_step"),
    ("direct", "fit_direct"),
    ("direct", "objective"),
    ("circular", "initial_params"),
    ("simulate", "evaluate_fit"),
    ("simulate", "random_correlation"),
    ("simulate", "sample_wn"),
    ("simulate", "run_experiment"),
    ("mixed", "fit_mixed_em"),
    ("mixed", "fit_mixed_cem"),
    ("mixed", "mixed_log_likelihood"),
    ("cli", "main"),
)


def _lattice_terms(args, kwargs):
    """Observation count times lattice rows of a ``log_likelihood`` call."""
    import numpy as np

    sample = np.asarray(args[0] if args else kwargs["sample"])
    config = args[2] if len(args) > 2 else kwargs.get("config")
    J = 3 if config is None else config.J
    n = sample.shape[0]
    p = 1 if sample.ndim == 1 else sample.shape[1]
    return n * (2 * J + 1) ** p


class Tracer:
    """Records spans while installed; ``phase`` labels new spans.

    Phases: ``setup`` (input build), ``warmup``, ``timed`` (the rounds),
    ``probe`` (calls after the rounds that prepare a side call),
    ``side:<name>`` (direct calls made to measure one function) and
    ``alloc`` (calls under tracemalloc).  Metrics count set-up, timed
    and their own side spans only.
    """

    def __init__(self):
        self.spans = []
        self.alloc = {}
        self.phase = "setup"
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": stack[-1] if stack else None,
                "phase": self.phase,
            }
            if name == "model.log_likelihood":
                span["terms"] = _lattice_terms(args, kwargs)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            iterations = getattr(result, "iterations", None)
            if iterations is not None:
                span["iterations"] = int(iterations)
            return result

        return traced

    def install(self, package):
        """Wrap every function of TRACED wherever the package binds it."""
        modules = {
            name: getattr(package, name)
            for name in ("model", "em", "cem", "direct", "circular", "simulate", "mixed", "cli")
        }
        for module_name, func_name in TRACED:
            original = getattr(modules[module_name], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in list(modules.values()) + [package]:
                if getattr(module, func_name, None) is original:
                    self._restore.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def uninstall(self):
        for module, func_name, original in reversed(self._restore):
            setattr(module, func_name, original)
        self._restore.clear()

    def side(self, name, fn, *args, **kwargs):
        """A direct call made only to measure ``name``: its spans, and
        those of its children, count towards no other metric."""
        phase, self.phase = self.phase, f"side:{name}"
        try:
            return fn(*args, **kwargs)
        finally:
            self.phase = phase

    def measure_alloc(self, name, fn, *args, **kwargs):
        """Peak traced allocation of one call, in MB, kept under ``name``.

        Its spans are slowed by tracemalloc and count towards no metric.
        """
        phase, self.phase = self.phase, "alloc"
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            self.phase = phase
        self.alloc[name] = max(self.alloc.get(name, 0.0), peak / 2**20)

    def counted(self, name):
        """(index, span) of the spans of ``name`` that its metrics use:
        those of set-up, of the timed rounds and of its own side calls."""
        phases = ("setup", "timed", f"side:{name}")
        return [(i, s) for i, s in enumerate(self.spans) if s["name"] == name and s["phase"] in phases]

    def durations(self, name):
        return [s["end"] - s["start"] for _, s in self.counted(name)]

    def self_times(self, name):
        """Duration minus the time covered by direct child spans."""
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        return [s["end"] - s["start"] - child_time.get(i, 0.0) for i, s in self.counted(name)]

    def attribute(self, name, key):
        return [s[key] for _, s in self.counted(name) if key in s]

    def write(self, path, extra):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "alloc_mb": self.alloc, **extra}, handle)


def per_layer_metrics(tracer):
    """The per-layer metrics of BENCHMARK.json from the recorded spans."""

    def median(values, what):
        if not values:
            raise RuntimeError(f"no spans recorded for {what}")
        return statistics.median(values)

    def mean(values, what):
        if not values:
            raise RuntimeError(f"no spans recorded for {what}")
        return statistics.fmean(values)

    ll = "model.log_likelihood"
    ll_time = tracer.durations(ll)
    fit_em = "em.fit_em"
    em_iter_s = [
        (s["end"] - s["start"]) / s["iterations"]
        for _, s in tracer.counted(fit_em)
        if s.get("iterations")
    ]
    values = {
        "model.log_likelihood.call_s": (median(ll_time, ll), "s"),
        "model.log_likelihood.terms_per_s": (
            sum(tracer.attribute(ll, "terms")) / sum(ll_time),
            "1/s",
        ),
        "model.log_likelihood.peak_alloc_mb": (tracer.alloc[ll], "MB"),
        "em.fit_em.iter_s": (median(em_iter_s, fit_em), "s"),
        "em.fit_em.iters": (mean(tracer.attribute(fit_em, "iterations"), fit_em), "count"),
        "em.fit_em.peak_alloc_mb": (tracer.alloc[fit_em], "MB"),
    }
    for name in (
        "cem.fit_cem",
        "cem.cem_m_step",
        "direct.fit_direct",
        "direct.objective",
        "circular.initial_params",
        "simulate.evaluate_fit",
        "simulate.random_correlation",
        "simulate.sample_wn",
    ):
        values[f"{name}.call_s"] = (median(tracer.durations(name), name), "s")
    values["cem.fit_cem.iters"] = (
        mean(tracer.attribute("cem.fit_cem", "iterations"), "cem.fit_cem"),
        "count",
    )
    values["direct.fit_direct.evals"] = (
        mean(tracer.attribute("direct.fit_direct", "iterations"), "direct.fit_direct"),
        "count",
    )
    for name in ("mixed.fit_mixed_em", "cli.main"):
        values[f"{name}.self_s"] = (median(tracer.self_times(name), name), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
