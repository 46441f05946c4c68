"""In-memory span tracer that instruments chencensor from the outside.

The benchmark never edits the package: `installed(tracer)` replaces each
public function at the names its callers look it up under (for example
`montecarlo.simulate_experiment` and `gof.chen_sample`) with a wrapper that
records a span, and puts the original objects back on exit.

A span is (name, start, end, parent span, operation id).  Spans live in flat
arrays while the run is going and are written out once at the end.
"""
from __future__ import annotations

import collections
import functools
import json
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

ROOT_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.ops: list[str] = []
        self.current_op = -1
        self._stack = [ROOT_PARENT]
        self.counters: collections.Counter = collections.Counter()
        self.samples: dict[str, list[float]] = collections.defaultdict(list)

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_op(self, label: str) -> int:
        """Make `label` the operation id of the spans that follow."""
        self.ops.append(label)
        self.current_op = len(self.ops) - 1
        return self.current_op

    def name_of(self, idx: int) -> str | None:
        return None if idx == ROOT_PARENT else self.names[self.name_id[idx]]

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def wrap(self, name: str, fn, hook=None, op_label=None):
        """Return `fn` wrapped in a span called `name`.

        `hook(tracer, idx, args, kwargs, result, exc)` runs after the span
        closes and may update counters.  `op_label(args, kwargs)` gives the
        call its own operation id for its duration.
        """
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved_op = self.current_op
            if op_label is not None:
                self.begin_op(op_label(args, kwargs))
            idx = self._open(nid)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                self._close(idx)
                self.current_op = saved_op
                if hook is not None:
                    hook(self, idx, args, kwargs, result, exc)

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(self._id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def record(self, name: str, t0: float, t1: float) -> int:
        """Record a span whose perf_counter readings were taken beforehand."""
        idx = self._open(self._id(name))
        self.start[idx] = t0
        self.end[idx] = t1
        self._stack.pop()
        return idx

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- persistence and merging ------------------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "ops": self.ops,
            "name_id": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "counters": dict(self.counters),
            "samples": dict(self.samples),
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)

    def merge(self, other: dict, op_label: str) -> None:
        """Append a dump from another process under one operation id.

        perf_counter reads CLOCK_MONOTONIC on Linux, so times from a child
        process are on this process's time line.
        """
        offset = len(self.start)
        op = self.begin_op(op_label)
        remap = [self._id(n) for n in other["names"]]
        for k in range(len(other["start"])):
            self.name_id.append(remap[other["name_id"][k]])
            self.start.append(other["start"][k])
            self.end.append(other["end"][k])
            p = other["parent"][k]
            self.parent.append(ROOT_PARENT if p == ROOT_PARENT else p + offset)
            self.op.append(op)
        self.counters.update(other["counters"])
        for key, vals in other["samples"].items():
            self.samples[key].extend(vals)


def self_times(tracer: Tracer) -> np.ndarray:
    """Per-span duration minus the time its direct children cover.

    Spans come from one thread of calls, so the children of a span never
    overlap and their coverage is the sum of their durations.
    """
    dur = np.frombuffer(tracer.end, dtype=float) - np.frombuffer(tracer.start, dtype=float)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    nested = parent != ROOT_PARENT
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    return dur - child


def totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """calls, total seconds and self seconds per span name."""
    out: dict[str, dict[str, float]] = {}
    if not tracer.start:
        return out
    dur = np.frombuffer(tracer.end, dtype=float) - np.frombuffer(tracer.start, dtype=float)
    own = self_times(tracer)
    ids = np.frombuffer(tracer.name_id, dtype=np.int32)
    k = len(tracer.names)
    calls = np.bincount(ids, minlength=k)
    secs = np.bincount(ids, weights=dur, minlength=k)
    self_s = np.bincount(ids, weights=own, minlength=k)
    for i, name in enumerate(tracer.names):
        out[name] = {"calls": int(calls[i]), "s": float(secs[i]), "self_s": float(self_s[i])}
    return out


def root_coverage(tracer: Tracer) -> float:
    """Seconds covered by spans that have no parent span."""
    if not tracer.start:
        return 0.0
    dur = np.frombuffer(tracer.end, dtype=float) - np.frombuffer(tracer.start, dtype=float)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    return float(dur[parent == ROOT_PARENT].sum())


# -- probes ---------------------------------------------------------------
# Hooks turn call arguments and results into counters at the same boundary.

def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _count_failure(prefix: str):
    def hook(t, idx, args, kwargs, result, exc):
        if exc is not None:
            t.counters[f"{prefix}.failed.{type(exc).__name__}"] += 1
    return hook


def _solve_beta(t, idx, args, kwargs, result, exc):
    if result is not None:
        _, iterations, method = result
        t.counters[f"mle.solve_beta.{method.value}"] += 1
        t.counters["mle.solve_beta.iterations"] += iterations


def _run_mh(t, idx, args, kwargs, result, exc):
    if result is not None:
        t.counters["bayes.mh.iterations"] += int(result.alpha.size)
        t.samples["bayes.mh.acceptance_rate"].append(float(result.acceptance_rate))


def _importance(t, idx, args, kwargs, result, exc):
    if exc is not None:
        t.counters["bayes.importance_sample.failed"] += 1
        return
    cfg = _arg(args, kwargs, 2, "cfg")
    t.counters["bayes.is.requested"] += cfg.draws if cfg is not None else 10000  # IsConfig()
    t.counters["bayes.is.kept"] += int(result.alpha.size)


def _simulate(t, idx, args, kwargs, result, exc):
    t.counters["censoring.simulate.units"] += _arg(args, kwargs, 0, "plan").n
    if result is not None:
        t.counters[f"censoring.case.{result.case.value}"] += 1


def _chen_sample(t, idx, args, kwargs, result, exc):
    t.counters["chen.sample.variates"] += int(_arg(args, kwargs, 2, "count"))


def _run_study(t, idx, args, kwargs, result, exc):
    t.counters["montecarlo.replications"] += _arg(args, kwargs, 0, "scn").replications
    if result is not None:
        for estimator, n in result.failures.items():
            t.counters[f"montecarlo.failures.{estimator}"] += n


def _bootstrap(t, idx, args, kwargs, result, exc):
    if _arg(args, kwargs, 4, "params") is None:
        t.counters["gof.refit_pvalues"] += 1
        t.counters["gof.refit_path_s"] += t.duration(idx)


def _fit_complete(t, idx, args, kwargs, result, exc):
    if t.name_of(t.parent[idx]) == "gof.bootstrap_pvalue":
        t.counters["gof.fits_in_bootstrap"] += 1
        if exc is not None:
            t.counters["gof.refits_dropped"] += 1


def _replication_label(args, kwargs):
    scn, rep = args[0], args[2]
    return f"{scn.n}-{scn.m}-{scn.scheme}-{scn.t1:g}-{scn.t2:g}/rep{rep}"


# (span name, [(module, attribute looked up by callers)], hook, op_label)
PROBES = (
    ("chen.sample", [("gof", "chen_sample"), ("censoring", "chen_sample")], _chen_sample, None),
    ("chen.cdf", [("gof", "cdf")], None, None),
    ("censoring.simulate_experiment",
     [("montecarlo", "simulate_experiment"), ("cli", "simulate_experiment")], _simulate, None),
    ("censoring.classify", [("censoring", "classify")], None, None),
    ("censoring.load_sample", [("gof", "load_sample"), ("cli", "load_sample")], None, None),
    ("mle.fit", [("mle", "fit"), ("bayes", "mle_fit")], _count_failure("mle.fit"), None),
    ("mle.solve_beta", [("mle", "solve_beta")], _solve_beta, None),
    ("mle.profile_score", [("mle", "profile_score")], None, None),
    ("mle.observed_information", [("mle", "observed_information")], None, None),
    ("mle.confidence_intervals", [("mle", "confidence_intervals")], None, None),
    ("bayes.run_mh_gibbs", [("bayes", "run_mh_gibbs")], _run_mh, None),
    ("bayes.importance_sample", [("bayes", "importance_sample")], _importance, None),
    ("bayes.loss_estimates", [("bayes", "loss_estimates")], None, None),
    ("gof.gof_report", [("gof", "gof_report")], None, None),
    ("gof.bootstrap_pvalue", [("gof", "bootstrap_pvalue")], _bootstrap, None),
    ("gof.fit_complete", [("gof", "fit_complete")], _fit_complete, None),
    ("montecarlo.run_study", [("montecarlo", "run_study")], _run_study, None),
    ("montecarlo.replication", [("montecarlo", "_one_replication")], None, _replication_label),
    ("datasets.read_times", [("cli", "read_times")], None, None),
    ("cli.main", [("cli", "main")], None, None),
)


@contextmanager
def installed(tracer: Tracer):
    """Patch every probe site of the chencensor modules already imported.

    The original attributes are restored on exit, also when the block
    raises.
    """
    saved = []
    try:
        for name, sites, hook, op_label in PROBES:
            for module_name, attr in sites:
                module = sys.modules.get(f"chencensor.{module_name}")
                if module is None:
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(name, original, hook, op_label))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- per-layer metrics ----------------------------------------------------

PER_LAYER_UNITS = {
    "bayes.run_mh_gibbs.calls": "count",
    "bayes.run_mh_gibbs.s": "s",
    "bayes.mh.us_per_iter": "us",
    "bayes.mh.acceptance_rate.p50": "ratio",
    "bayes.importance_sample.calls": "count",
    "bayes.importance_sample.s": "s",
    "bayes.importance_sample.failed": "count",
    "bayes.is.us_per_draw": "us",
    "bayes.is.usable_share": "ratio",
    "bayes.loss_estimates.s": "s",
    "mle.fit.calls": "count",
    "mle.fit.s": "s",
    "mle.fit.failed.DegenerateSampleError": "count",
    "mle.fit.failed.NoRootError": "count",
    "mle.solve_beta.s": "s",
    "mle.solve_beta.fixed_point": "count",
    "mle.solve_beta.bracketed": "count",
    "mle.solve_beta.iterations": "count",
    "mle.profile_score.calls": "count",
    "mle.observed_information.s": "s",
    "mle.confidence_intervals.s": "s",
    "censoring.simulate_experiment.calls": "count",
    "censoring.simulate_experiment.s": "s",
    "censoring.simulate.us_per_unit": "us",
    "censoring.case.1": "count",
    "censoring.case.2": "count",
    "censoring.case.3": "count",
    "censoring.classify.calls": "count",
    "censoring.classify.s": "s",
    "censoring.load_sample.calls": "count",
    "censoring.load_sample.s": "s",
    "chen.sample.calls": "count",
    "chen.sample.s": "s",
    "chen.sample.variates": "count",
    "chen.cdf.calls": "count",
    "chen.cdf.s": "s",
    "gof.bootstrap_pvalue.calls": "count",
    "gof.bootstrap_pvalue.s": "s",
    "gof.bootstrap_pvalue.self_s": "s",
    "gof.refits": "count",
    "gof.refits_dropped": "count",
    "gof.us_per_refit": "us",
    "gof.fit_complete.calls": "count",
    "gof.fit_complete.s": "s",
    "montecarlo.run_study.s": "s",
    "montecarlo.run_study.self_s": "s",
    "montecarlo.replications": "count",
    "montecarlo.failures.mle": "count",
    "montecarlo.failures.mh": "count",
    "montecarlo.failures.is": "count",
    "cli.import_s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "datasets.read_times.s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.round_s": "s",
    "trace.untraced_round_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def per_layer(tracer: Tracer, wall_s: float, round_s: float,
              untraced_round_s: float) -> dict[str, float]:
    """Every per-layer metric, 0 where a layer did no work.

    `wall_s` is the traced operations' wall time; the part of it that no
    root span covers is the unattributed remainder.  `round_s` and
    `untraced_round_s` are the same operations with tracing on and off, in
    reference seconds; their difference is the tracing overhead.
    """
    tot = totals(tracer)
    c = tracer.counters

    def get(name: str, field: str) -> float:
        return tot.get(name, {}).get(field, 0)

    m: dict[str, float] = {}
    for layer in ("bayes.run_mh_gibbs", "bayes.importance_sample", "mle.fit",
                  "censoring.simulate_experiment", "censoring.classify",
                  "censoring.load_sample", "chen.sample", "chen.cdf",
                  "gof.bootstrap_pvalue", "gof.fit_complete"):
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.s"] = get(layer, "s")
    for layer in ("bayes.loss_estimates", "mle.solve_beta", "mle.observed_information",
                  "mle.confidence_intervals", "montecarlo.run_study", "cli.main",
                  "datasets.read_times"):
        m[f"{layer}.s"] = get(layer, "s")
    for layer in ("gof.bootstrap_pvalue", "montecarlo.run_study", "cli.main"):
        m[f"{layer}.self_s"] = get(layer, "self_s")
    m["mle.profile_score.calls"] = get("mle.profile_score", "calls")

    # the MH kernel's own time: run_mh_gibbs minus the MLE it may start from
    m["bayes.mh.us_per_iter"] = _ratio(get("bayes.run_mh_gibbs", "self_s"),
                                       c["bayes.mh.iterations"], 1e6)
    acc = tracer.samples.get("bayes.mh.acceptance_rate", [])
    m["bayes.mh.acceptance_rate.p50"] = statistics.median(acc) if acc else 0.0
    m["bayes.importance_sample.failed"] = c["bayes.importance_sample.failed"]
    m["bayes.is.us_per_draw"] = _ratio(get("bayes.importance_sample", "s"),
                                       c["bayes.is.requested"], 1e6)
    m["bayes.is.usable_share"] = _ratio(c["bayes.is.kept"], c["bayes.is.requested"])
    for err in ("DegenerateSampleError", "NoRootError"):
        m[f"mle.fit.failed.{err}"] = c[f"mle.fit.failed.{err}"]
    for key in ("fixed_point", "bracketed", "iterations"):
        m[f"mle.solve_beta.{key}"] = c[f"mle.solve_beta.{key}"]
    m["censoring.simulate.us_per_unit"] = _ratio(get("censoring.simulate_experiment", "s"),
                                                 c["censoring.simulate.units"], 1e6)
    for case in (1, 2, 3):
        m[f"censoring.case.{case}"] = c[f"censoring.case.{case}"]
    m["chen.sample.variates"] = c["chen.sample.variates"]
    # each refit-path bootstrap_pvalue first fits the observed data once
    refits = c["gof.fits_in_bootstrap"] - c["gof.refit_pvalues"]
    m["gof.refits"] = refits
    m["gof.refits_dropped"] = c["gof.refits_dropped"]
    m["gof.us_per_refit"] = _ratio(c["gof.refit_path_s"], refits, 1e6)
    m["montecarlo.replications"] = c["montecarlo.replications"]
    for estimator in ("mle", "mh", "is"):
        m[f"montecarlo.failures.{estimator}"] = c[f"montecarlo.failures.{estimator}"]
    imports = [tracer.duration(i) for i in range(len(tracer.start))
               if tracer.name_of(i) == "cli.import"]
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    m["trace.spans"] = len(tracer.start)
    m["trace.wall_s"] = wall_s
    m["trace.round_s"] = round_s
    m["trace.untraced_round_s"] = untraced_round_s
    m["trace.overhead_s"] = round_s - untraced_round_s
    m["trace.unattributed_s"] = wall_s - root_coverage(tracer)
    return m
