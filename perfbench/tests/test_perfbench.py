"""Tests of the benchmark's own code: statistics, tracing and output checks.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

from chencensor import datasets, gof, montecarlo
from chencensor.chen import ChenParams
from perfbench import checks, stats, tracing
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule -------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    got = stats.tail_percentile(samples)
    if expected is None:
        assert got is None
        return
    p, value = got
    assert p == expected
    assert sum(s > value for s in samples) >= stats.MIN_BEYOND
    higher = [q for q in stats.PERCENTILE_LADDER if q > p]
    if higher:  # the next rung up would leave fewer than ten beyond
        rank = math.ceil(higher[0] * n / 100 - 1e-9)
        assert n - rank < stats.MIN_BEYOND


def test_quartile_spread_and_geomean():
    assert stats.quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert stats.geomean([1.0, 100.0]) == pytest.approx(10.0)


# -- tracing ---------------------------------------------------------------

class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return float(next(self._ticks))


def test_self_time_subtracts_direct_children(monkeypatch):
    # outer 0..10 { a 1..4 { c 2..3 }, b 5..6 }
    monkeypatch.setattr(tracing.time, "perf_counter", FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    t = tracing.Tracer()
    with t.span("outer"):
        with t.span("a"):
            with t.span("c"):
                pass
        with t.span("b"):
            pass
    assert list(tracing.self_times(t)) == [6.0, 2.0, 1.0, 1.0]
    tot = tracing.totals(t)
    assert tot["outer"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert tot["a"]["self_s"] == 2.0
    assert tracing.root_coverage(t) == 10.0
    assert [t.name_of(p) for p in t.parent] == [None, "outer", "a", "outer"]


def test_merge_appends_child_spans_under_one_operation(monkeypatch):
    monkeypatch.setattr(tracing.time, "perf_counter", FakeClock(range(100)))
    child = tracing.Tracer()
    child.record("cli.import", 0.25, 0.75)  # timed before the tracer existed
    with child.span("cli.main"):
        with child.span("mle.fit"):
            pass
    child.counters["x"] += 2
    parent = tracing.Tracer()
    with parent.span("outer"):
        pass
    parent.merge(json.loads(json.dumps(child.dump())), "round0/fit")
    assert [parent.name_of(p) for p in parent.parent] == [None, None, None, "cli.main"]
    assert parent.ops == ["round0/fit"] and list(parent.op) == [-1, 0, 0, 0]
    assert parent.counters["x"] == 2
    assert (parent.start[1], parent.end[1]) == (0.25, 0.75)


def _sites():
    for _, sites, _, _ in tracing.PROBES:
        for module_name, attr in sites:
            module = sys.modules.get(f"chencensor.{module_name}")
            if module is not None:
                yield module, attr


def test_patched_names_are_restored_after_a_traced_run():
    import chencensor.cli  # noqa: F401  (so its sites are patched too)
    before = {(m.__name__, a): getattr(m, a) for m, a in _sites()}
    assert len(before) == sum(len(sites) for _, sites, _, _ in tracing.PROBES)
    t = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(t):
            assert all(getattr(m, a) is not before[(m.__name__, a)] for m, a in _sites())
            gof.gof_report(datasets.load_builtin("devices30"), reps=100, seed=1)
            raise RuntimeError("leave the block early")
    assert all(getattr(m, a) is before[(m.__name__, a)] for m, a in _sites())
    layer = tracing.per_layer(t, wall_s=1.0, round_s=1.0, untraced_round_s=1.0)
    assert layer["gof.refits"] == 200
    assert layer["gof.bootstrap_pvalue.calls"] == 2
    assert layer["mle.fit.calls"] == 203
    assert layer["mle.solve_beta.bracketed"] + layer["mle.solve_beta.fixed_point"] == 203


def test_traced_counts_repeat_exactly():
    scn = montecarlo.paper_grid(replications=4, seed=3)[10]

    def run():
        t = tracing.Tracer()
        with tracing.installed(t):
            montecarlo.run_study(scn, workers=1)
        return tracing.per_layer(t, 1.0, 1.0, 1.0)

    first, second = run(), run()
    for key in ("mle.solve_beta.bracketed", "mle.profile_score.calls", "censoring.case.1",
                "censoring.case.2", "censoring.case.3", "montecarlo.failures.mle",
                "montecarlo.failures.mh", "montecarlo.failures.is", "montecarlo.replications"):
        assert first[key] == second[key]
    assert first["montecarlo.replications"] == 4


def test_per_layer_reports_every_metric_on_an_empty_trace():
    layer = tracing.per_layer(tracing.Tracer(), wall_s=2.0, round_s=3.0, untraced_round_s=2.5)
    assert set(layer) == set(tracing.PER_LAYER_UNITS)
    assert layer["trace.overhead_s"] == 0.5
    assert layer["trace.unattributed_s"] == 2.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


# -- output checks ---------------------------------------------------------

def _report(fixed=False, **changes):
    if fixed:
        base = gof.GofReport(ChenParams(*checks.FIXED_PARAMS), 0.21649, 1.3748,
                             0.1018, 0.2086, 2000)
    else:
        base = gof.GofReport(ChenParams(*checks.MLE_DEVICES30), 0.19224, 2.00183,
                             0.0028, 0.0005, 2000)
    return dataclasses.replace(base, **changes)


@pytest.mark.parametrize("fixed", [False, True])
def test_gof_check_accepts_reference_and_rejects_perturbations(fixed):
    assert checks.check_gof_report(_report(fixed), fixed) == []
    a, b = _report(fixed).fitted.alpha, _report(fixed).fitted.beta
    for changes in ({"fitted": ChenParams(a + 1e-3, b)}, {"fitted": ChenParams(a, b * (1 + 1e-7))},
                    {"ks_stat": _report(fixed).ks_stat + 1e-3},
                    {"ad_stat": _report(fixed).ad_stat - 1e-3},
                    {"ks_pvalue": _report(fixed).ks_pvalue + 0.05},
                    {"ad_pvalue": _report(fixed).ad_pvalue + 0.05}):
        assert checks.check_gof_report(_report(fixed, **changes), fixed), changes


def test_gof_check_passes_a_real_report():
    data = datasets.load_builtin("devices30")
    report = gof.gof_report(data, reps=2000, seed=5, params=ChenParams(*checks.FIXED_PARAMS))
    assert checks.check_gof_report(report, fixed=True) == []


def test_pvalue_band_is_binomial():
    assert checks.pvalue_in_band(0.11, 0.1018, 2000, 80000)
    assert not checks.pvalue_in_band(0.15, 0.1018, 2000, 80000)
    assert checks.pvalue_in_band(0.0005, 0.0028, 2000, 20000)


def test_matches_stated_uses_the_stated_digits():
    assert checks.matches_stated(0.1922387, "0.19224")
    assert not checks.matches_stated(0.19226, "0.19224")
    assert checks.matches_stated(1.37484, "1.3748")


def _fit_payload(**changes):
    payload = {"alpha_hat": checks.MLE_DEVICES30[0], "beta_hat": checks.MLE_DEVICES30[1],
               "d2": 30, "case": 1, "alpha_ci": [0.1, 0.25], "beta_ci": [0.6, 1.1]}
    payload.update(changes)
    return payload


def test_fit_check_rejects_perturbed_payloads():
    assert checks.check_fit_payload(_fit_payload()) == []
    for changes in ({"alpha_hat": checks.MLE_DEVICES30[0] + 1e-3}, {"d2": 29},
                    {"beta_ci": [0.9, 1.1]}, {"alpha_ci": [float("nan"), 0.3]}):
        assert checks.check_fit_payload(_fit_payload(**changes)), changes


def _bayes_payload(alpha_sel=0.2092, rate=0.61):
    est = {"sel": alpha_sel, "linex": 0.2090, "entropy": 0.2040}
    return {"alpha": est, "beta": {"sel": 0.7965, "linex": 0.78, "entropy": 0.78},
            "diagnostics": {"sampler": "mh", "acceptance_rate": rate, "post_burn_in": 10000}}


def test_bayes_check_rejects_perturbed_payloads():
    assert checks.check_bayes_payload(_bayes_payload()) == []
    assert checks.check_bayes_payload(_bayes_payload(alpha_sel=0.23))
    assert checks.check_bayes_payload(_bayes_payload(rate=1.0))


def test_sample_check_rejects_broken_unit_conservation():
    rec = {"case": 2, "d2": 2, "b": 26, "times": [0.1, 0.5], "removals": [2, 0]}
    assert checks.check_sample_records([rec], n=30, count=1, t2=4.0) == []
    assert checks.check_sample_records([{**rec, "b": 25}], n=30, count=1, t2=4.0)
    assert checks.check_sample_records([{**rec, "times": [0.5, 0.1]}], n=30, count=1, t2=4.0)
    assert checks.check_sample_records([rec], n=30, count=2, t2=4.0)


def test_study_check_rejects_perturbed_reports():
    scn = montecarlo.paper_grid(replications=5, seed=2)[0]
    report = montecarlo.run_study(scn, workers=1)
    assert checks.check_study_report(report) == []
    for field_name, value in (("failures", 1), ("coverage", 1.5), ("bias", float("nan"))):
        broken = dataclasses.replace(report, rows=[dict(r) for r in report.rows])
        row = next(r for r in broken.rows if r["estimator"] == "mle")
        row[field_name] = row[field_name] + value if field_name == "failures" else value
        assert checks.check_study_report(broken), field_name
    skewed = dataclasses.replace(report, case_frequencies={1: 0.5, 2: 0.6, 3: 0.0})
    assert checks.check_study_report(skewed)


def test_round_inputs_depend_only_on_the_seed():
    a, b, c = (WORKLOADS["cli-devices30"](s) for s in (7, 7, 8))
    assert a.commands(3) == b.commands(3) != c.commands(3)
    assert [a.round_seed(i) for i in range(4)] == [b.round_seed(i) for i in range(4)]
    assert len({a.round_seed(i) for i in range(4)}) == 4
    assert list(itertools.islice(WORKLOADS, 3)) == ["study-grid", "gof-devices30",
                                                     "cli-devices30"]


def test_cli_check_reports_malformed_output_as_a_problem():
    cli = WORKLOADS["cli-devices30"](1)
    assert cli._check("fit", "not json") == ["cli fit: output is not JSON"]
    assert cli._check("fit", "{}")
    assert cli._check("sample", '[{"d2": 1}]')
    assert cli._check("fit", json.dumps(_fit_payload())) == []
