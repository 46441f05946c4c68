"""Output checks for the benchmark workloads.

Each check returns a list of problems; an empty list means the output is
correct.  Deterministic outputs (the devices30 MLE and its KS/AD statistics)
are checked exactly, to the precision stated.  Simulated outputs are checked
by invariants and by bands around reference values, so that a correct change
to how random streams are laid out still passes.
"""
from __future__ import annotations

import math

# devices30 complete-sample MLE (alpha, beta)
MLE_DEVICES30 = (0.1726244024823189, 0.8484897418196625)
MLE_RTOL = 1e-8
FIXED_PARAMS = (0.2, 0.7)
# KS / AD statistics, stated to the digits they are checked to
STATS_AT_MLE = ("0.19224", "2.00183")
STATS_AT_FIXED = ("0.21649", "1.3748")

# Bootstrap p-value references on devices30, as the add-one estimate
# (1 + exceed) / (used + 1) averages: the refit path over 10 seeds and the
# fixed (0.2, 0.7) path over 40 seeds, 2000 replicates each.
PVALUE_REFERENCE = {
    "refit": {"ks": 0.00280, "ad": 0.00055, "reps": 20000},
    "fixed": {"ks": 0.10182, "ad": 0.20863, "reps": 80000},
}
BAND_Z = 5.0

# `bayes --data builtin:devices30 --complete` (MH, 11000 iterations, 1000
# burn-in): squared-error posterior means over 20 seeds were
# alpha 0.2092 (sd 0.0017) and beta 0.7965 (sd 0.0032); the bands are
# about six standard deviations wide.
MH_SEL_BANDS = {"alpha": (0.2092, 0.010), "beta": (0.7965, 0.020)}
MH_POST_BURN_IN = 10000


def matches_stated(value: float, stated: str) -> bool:
    """True when `value` rounds to the decimal string `stated`."""
    decimals = len(stated.split(".")[1]) if "." in stated else 0
    return abs(value - float(stated)) <= 0.5 * 10.0 ** -decimals


def _rel_close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def pvalue_in_band(p_hat: float, p_ref: float, reps: int, ref_reps: int) -> bool:
    """Is a bootstrap p-value within BAND_Z binomial standard errors?

    The error of the reference itself is included, and 2/reps of slack
    covers the add-one estimator's offset.
    """
    sd = math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / reps + 1.0 / ref_reps))
    return abs(p_hat - p_ref) <= BAND_Z * sd + 2.0 / reps


def check_mle(alpha: float, beta: float, where: str) -> list[str]:
    problems = []
    for name, value, ref in (("alpha", alpha, MLE_DEVICES30[0]), ("beta", beta, MLE_DEVICES30[1])):
        if not _rel_close(value, ref, MLE_RTOL):
            problems.append(f"{where}: {name}_hat {value!r} != {ref!r} (rtol {MLE_RTOL:g})")
    return problems


def check_gof_report(report, fixed: bool) -> list[str]:
    """A `gof.GofReport` for devices30, at the MLE or at FIXED_PARAMS."""
    where = "gof fixed_report" if fixed else "gof report"
    problems = []
    if fixed:
        if (report.fitted.alpha, report.fitted.beta) != FIXED_PARAMS:
            problems.append(f"{where}: fitted {report.fitted} != {FIXED_PARAMS}")
        stated = STATS_AT_FIXED
    else:
        problems += check_mle(report.fitted.alpha, report.fitted.beta, where)
        stated = STATS_AT_MLE
    for name, value, ref in (("ks_stat", report.ks_stat, stated[0]),
                             ("ad_stat", report.ad_stat, stated[1])):
        if not matches_stated(value, ref):
            problems.append(f"{where}: {name} {value!r} does not round to {ref}")
    refs = PVALUE_REFERENCE["fixed" if fixed else "refit"]
    for name, p_hat, ref in (("ks_pvalue", report.ks_pvalue, refs["ks"]),
                             ("ad_pvalue", report.ad_pvalue, refs["ad"])):
        if not pvalue_in_band(p_hat, ref, report.bootstrap_reps, refs["reps"]):
            problems.append(f"{where}: {name} {p_hat!r} outside the band around {ref}")
    return problems


def check_study_report(report) -> list[str]:
    """A `montecarlo.StudyReport`: counts add up, rows finite, shares in range."""
    scn = report.scenario
    where = f"study {scn.n}-{scn.m}-{scn.scheme}-{scn.t1:g}-{scn.t2:g}"
    problems = []
    freq = sum(report.case_frequencies.values())
    if abs(freq - 1.0) > 1e-9:
        problems.append(f"{where}: case frequencies sum to {freq!r}")
    if set(report.failures) != set(scn.estimators):
        problems.append(f"{where}: failures reported for {sorted(report.failures)}")
    for row in report.to_rows():
        tag = f"{where} {row['estimator']}/{row['parameter']}/{row['loss']}"
        if row["replications_used"] + row["failures"] != scn.replications:
            problems.append(f"{tag}: replications_used + failures != {scn.replications}")
        numeric = ["bias", "mse"]
        if row["estimator"] == "mle":
            numeric += ["coverage", "avg_ci_length"]
        for key in numeric:
            if not (isinstance(row[key], float) and math.isfinite(row[key])):
                problems.append(f"{tag}: {key} is {row[key]!r}")
        if row["estimator"] == "mle" and not 0.0 <= row["coverage"] <= 1.0:
            problems.append(f"{tag}: coverage {row['coverage']!r} outside [0, 1]")
    return problems


def check_fit_payload(payload: dict) -> list[str]:
    """`fit --data builtin:devices30 --complete --format json`."""
    problems = check_mle(payload["alpha_hat"], payload["beta_hat"], "cli fit")
    if payload["d2"] != 30 or payload["case"] != 1:
        problems.append(f"cli fit: d2={payload['d2']} case={payload['case']}, expected 30 and 1")
    for key, est in (("alpha_ci", payload["alpha_hat"]), ("beta_ci", payload["beta_hat"])):
        lo, hi = payload[key]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < est < hi):
            problems.append(f"cli fit: {key} {payload[key]} does not bracket {est}")
    return problems


def check_bayes_payload(payload: dict) -> list[str]:
    """`bayes --data builtin:devices30 --complete --format json` (MH sampler)."""
    problems = []
    diag = payload["diagnostics"]
    if diag.get("sampler") != "mh" or diag.get("post_burn_in") != MH_POST_BURN_IN:
        problems.append(f"cli bayes: diagnostics {diag}")
    if not 0.0 < diag.get("acceptance_rate", -1.0) < 1.0:
        problems.append(f"cli bayes: acceptance_rate {diag.get('acceptance_rate')!r}")
    for param, (centre, half_width) in MH_SEL_BANDS.items():
        estimates = payload[param]
        if not all(math.isfinite(v) and v > 0 for v in estimates.values()):
            problems.append(f"cli bayes: {param} estimates {estimates}")
        if abs(estimates["sel"] - centre) > half_width:
            problems.append(f"cli bayes: {param} sel {estimates['sel']!r} outside "
                            f"{centre} +/- {half_width}")
    return problems


def check_sample_records(records: list, n: int, count: int, t2: float) -> list[str]:
    """`sample ... --format json`: one record per experiment, units conserved."""
    if len(records) != count:
        return [f"cli sample: {len(records)} records, expected {count}"]
    problems = []
    for k, rec in enumerate(records):
        times = rec["times"]
        if rec["d2"] + sum(rec["removals"]) + rec["b"] != n:
            problems.append(f"cli sample #{k}: d2 + sum(removals) + b != {n}")
        if not (len(times) == rec["d2"] == len(rec["removals"])
                and rec["case"] in (1, 2, 3)
                and all(a <= b for a, b in zip(times, times[1:]))
                and all(0.0 < t < t2 for t in times)):
            problems.append(f"cli sample #{k}: malformed record")
    return problems
