"""Command-line front end.

Subcommands: sample (simulate experiments), fit (MLE + intervals),
bayes (MH or importance sampling), study (Monte Carlo grid), gof
(goodness of fit on complete data).

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage/validation error.

Each subcommand imports the estimation modules it runs when it runs, so
`sample` loads no estimator and `fit` no sampler, study engine or bootstrap.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .censoring import (SCHEME_KINDS, CensoringPlan, build_scheme, complete_plan,
                        load_sample, simulate_experiment)
from .chen import ChenParams, hazard
from .datasets import read_times

USAGE_ERROR = 2
RUNTIME_ERROR = 1


class UsageError(Exception):
    pass


def _default_seed() -> int | None:
    env = os.environ.get("CHEN_CENSOR_SEED")
    return int(env) if env else None


def _emit(payload, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        json.dump(payload, out, sort_keys=True, indent=2)
        out.write("\n")
    elif fmt == "csv":
        rows = payload if isinstance(payload, list) else _flatten_rows(payload)
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    else:
        _emit_plain(payload, out)


def _flatten_rows(payload: dict) -> list[dict]:
    flat = _flatten(payload)
    return [{"key": k, "value": v} for k, v in flat]


def _flatten(d, prefix=""):
    items = []
    for k in sorted(d) if isinstance(d, dict) else range(len(d)):
        v = d[k]
        key = f"{prefix}{k}"
        if isinstance(v, (dict, list)):
            items.extend(_flatten(v, key + "."))
        else:
            items.append((key, v))
    return items


def _emit_plain(payload, out) -> None:
    if isinstance(payload, list):
        if not payload:
            return
        cols = list(payload[0].keys())
        widths = [max(len(str(c)), max(len(_fmt(r.get(c))) for r in payload)) for c in cols]
        out.write("  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip() + "\n")
        for r in payload:
            out.write("  ".join(_fmt(r.get(c)).ljust(w) for c, w in zip(cols, widths)).rstrip() + "\n")
    else:
        for k, v in _flatten(payload):
            out.write(f"{k:<32s} {_fmt(v)}\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="master RNG seed "
                   "(default: env CHEN_CENSOR_SEED)")
    p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="units on test")
    p.add_argument("--m", type=int, help="target number of failures")
    p.add_argument("--scheme", help="removal scheme I/II/III/IV or comma list r1,r2,...")
    p.add_argument("--t1", type=float, help="warning threshold")
    p.add_argument("--t2", type=float, help="maximum test time")


def _scheme(text: str) -> str | tuple[int, ...]:
    """A scheme given as text: its name I-IV in any case, or a comma list of
    removal counts; ValueError when it is neither."""
    if text.upper() in SCHEME_KINDS:
        return text.upper()
    return tuple(int(tok) for tok in text.split(","))


def _estimators(text: str) -> frozenset:
    """An estimator list given as text: names separated by commas or spaces."""
    return frozenset(text.replace(",", " ").split())


def _build_plan(args) -> CensoringPlan:
    for name in ("n", "m", "scheme", "t1", "t2"):
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required for a censoring plan")
    try:
        scheme = _scheme(args.scheme)
        removals = build_scheme(scheme, args.n, args.m) if isinstance(scheme, str) else scheme
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return _checked(CensoringPlan, n=args.n, m=args.m, removals=removals,
                    t1=args.t1, t2=args.t2)


def _checked(build, *args, **kwargs):
    """Build a config object from option values; the ValueError it raises
    for an invalid value is a usage error, not a runtime failure."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _seed_of(args) -> int | None:
    return args.seed if args.seed is not None else _default_seed()


def _load_data(args) -> np.ndarray:
    try:
        return read_times(args.data)
    except OSError as exc:
        raise UsageError(f"cannot read data file: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _sample_record(s) -> dict:
    return {
        "case": s.case.value,
        # k1/k2 are the output schema's names for d1/d2
        "k1": s.d1,
        "k2": s.d2,
        "d1": s.d1,
        "d2": s.d2,
        "b": s.b,
        "x_b": s.x_b,
        "times": [float(t) for t in s.times],
        "removals": [int(r) for r in s.effective_removals],
    }


def cmd_sample(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    plan = _build_plan(args)
    params = _checked(ChenParams, args.alpha, args.beta)
    rng = np.random.default_rng(_seed_of(args))
    records = [_sample_record(simulate_experiment(plan, params, rng))
               for _ in range(args.count)]
    if args.format == "csv":
        rows = [{**{k: v for k, v in r.items() if k not in ("times", "removals")},
                 "times": " ".join(f"{t:.10g}" for t in r["times"]),
                 "removals": " ".join(str(x) for x in r["removals"])}
                for r in records]
        _emit(rows, "csv")
    else:
        _emit(records if args.format == "json" else
              [{k: (v if not isinstance(v, list) else " ".join(map(_fmt, v)))
                for k, v in r.items()} for r in records], args.format)
    return 0


def _load_censored(args):
    """The sample of `--data`, complete or under the plan flags; data that
    the plan cannot have produced is a usage error."""
    data = _load_data(args)
    plan = complete_plan(data.size) if args.complete else _build_plan(args)
    return _checked(load_sample, data, plan)


def cmd_fit(args) -> int:
    from . import mle
    if not 0.0 < args.level < 1.0:
        raise UsageError("--level must lie in (0, 1)")
    if args.hazard_grid < 0:
        raise UsageError("--hazard-grid must be >= 0")
    if not (math.isfinite(args.hazard_max) and args.hazard_max > 0):
        raise UsageError("--hazard-max must be a positive finite real")
    sample = _load_censored(args)
    fit_result = mle.fit(sample)
    ci = mle.confidence_intervals(fit_result, args.level)
    payload = {
        "alpha_hat": fit_result.params_hat.alpha,
        "beta_hat": fit_result.params_hat.beta,
        "loglik": fit_result.loglik,
        "case": sample.case.value,
        "d2": sample.d2,
        "varcov": [[float(v) for v in row] for row in fit_result.varcov],
        "ci_level": ci.level,
        "alpha_ci": list(ci.alpha_interval),
        "beta_ci": list(ci.beta_interval),
        "solver": fit_result.converged_by.value,
        "iterations": fit_result.iterations,
    }
    if args.hazard_grid:
        xs = np.linspace(args.hazard_max / args.hazard_grid, args.hazard_max,
                         args.hazard_grid)
        payload["hazard_grid"] = [{"x": float(x),
                                   "hazard": float(hazard(fit_result.params_hat, x))}
                                  for x in xs]
    _emit(payload, args.format)
    return 0


def cmd_bayes(args) -> int:
    from . import bayes
    sample = _load_censored(args)
    prior = _checked(bayes.GammaPrior, args.a, args.b, args.c, args.d)
    loss = _checked(bayes.LossParams, g=args.g, q=args.q)
    seed = _seed_of(args)
    if args.sampler == "mh":
        cfg = _checked(bayes.MhConfig, chain_length=args.chain_length, burn_in=args.burn_in,
                       proposal_sd=args.proposal_sd, seed=seed)
        result = bayes.loss_estimates(bayes.run_mh_gibbs(sample, prior, cfg), loss)
    else:
        cfg = _checked(bayes.IsConfig, draws=args.draws, seed=seed)
        result = bayes.loss_estimates(bayes.importance_sample(sample, prior, cfg), loss)
    payload = {
        "alpha": result.alpha,
        "beta": result.beta,
        "loss": {"g": loss.g, "q": loss.q},
        "diagnostics": result.diagnostics,
    }
    _emit(payload, args.format)
    return 0


def _scenario_from_config(path: str, args):
    from . import bayes, montecarlo
    cfg: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line: {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                cfg[key] = value
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc

    def pick(key, cast, default=None):
        if key in cfg:
            return cast(cfg[key])
        return default

    seed = _seed_of(args)
    try:
        return montecarlo.Scenario(
            n=pick("n", int),
            m=pick("m", int),
            scheme=pick("scheme", _scheme, "IV"),
            t1=pick("t1", float),
            t2=pick("t2", float),
            true_params=ChenParams(pick("alpha", float, 0.2), pick("beta", float, 0.5)),
            replications=args.reps if args.reps is not None else pick("reps", int, 2000),
            estimators=_estimators(args.estimators or cfg.get("estimators", "mle")),
            prior=bayes.GammaPrior(pick("a", float, 2.0), pick("b", float, 2.0),
                                   pick("c", float, 2.0), pick("d", float, 2.0)),
            loss=bayes.LossParams(pick("g", float, 1.0), pick("q", float, 1.0)),
            ci_level=pick("level", float, 0.95),
            seed=seed if seed is not None else pick("seed", int, 0),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid scenario config: {exc}") from exc


def cmd_study(args) -> int:
    from . import montecarlo
    # checked before any scenario runs, not when the report is written
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    if args.out and (os.path.isdir(args.out)
                     or not os.path.isdir(os.path.dirname(args.out) or ".")):
        raise UsageError(f"--out {args.out}: not a file in an existing directory")
    if args.paper_grid:
        estimators = _estimators(args.estimators or "mle,mh,is")
        seed = _seed_of(args)
        scenarios = _checked(montecarlo.paper_grid,
                             replications=args.reps if args.reps is not None else 2000,
                             seed=seed if seed is not None else 0, estimators=estimators)
    elif args.config:
        scenarios = [_scenario_from_config(args.config, args)]
    else:
        raise UsageError("provide --paper-grid or --config FILE")

    if args.dry_run:
        rows = [{"n": s.n, "m": s.m,
                 "scheme": s.scheme if isinstance(s.scheme, str) else "custom",
                 "t1": s.t1, "t2": s.t2, "replications": s.replications,
                 "estimators": " ".join(sorted(s.estimators))}
                for s in scenarios]
    else:
        rows = []
        for scn in scenarios:
            report = montecarlo.run_study(scn, workers=args.workers)
            rows.extend(report.to_rows())
        if not rows:
            raise RuntimeError("study produced no rows")
    fmt = args.format if args.format != "plain" else "csv"
    if args.out:
        buf = io.StringIO()
        _emit(rows, fmt, buf)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    else:
        _emit(rows, fmt)
    return 0


def cmd_gof(args) -> int:
    from . import gof
    data = _load_data(args)
    params = None
    if (args.alpha is None) != (args.beta is None):
        raise UsageError("--alpha and --beta must be given together")
    if args.alpha is not None:
        params = _checked(ChenParams, args.alpha, args.beta)
    if args.reps < 100:
        raise UsageError("--reps must be >= 100")
    # data that fails as a complete sample is refused before the bootstrap,
    # on the fixed path too
    _checked(load_sample, data, complete_plan(data.size))
    report = gof.gof_report(data, reps=args.reps, seed=_seed_of(args), params=params)
    payload = {
        "alpha_hat": report.fitted.alpha,
        "beta_hat": report.fitted.beta,
        "ks_stat": report.ks_stat,
        "ad_stat": report.ad_stat,
        "ks_pvalue": report.ks_pvalue,
        "ad_pvalue": report.ad_pvalue,
        "bootstrap_reps": report.bootstrap_reps,
        "ks_refits_dropped": report.ks_refits_dropped,
        "ad_refits_dropped": report.ad_refits_dropped,
    }
    _emit(payload, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chencensor",
        description="Chen bathtub-hazard lifetimes under improved adaptive "
                    "Type-II progressive censoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="simulate censored experiments")
    _add_plan_flags(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--count", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit", help="maximum likelihood fit with intervals")
    p.add_argument("--data", required=True, help="file path or builtin:<name>")
    p.add_argument("--complete", action="store_true",
                   help="treat data as a complete (uncensored) sample")
    _add_plan_flags(p)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--hazard-grid", type=int, default=0,
                   help="emit N plot-ready hazard curve points")
    p.add_argument("--hazard-max", type=float, default=3.0)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bayes", help="Bayesian estimation under three losses")
    p.add_argument("--data", required=True)
    p.add_argument("--complete", action="store_true")
    _add_plan_flags(p)
    p.add_argument("--sampler", choices=("mh", "is"), default="mh")
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--b", type=float, default=2.0)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--d", type=float, default=2.0)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--chain-length", type=int, default=11000)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--proposal-sd", type=float, default=None)
    p.add_argument("--draws", type=int, default=10000)
    _add_common(p)
    p.set_defaults(func=cmd_bayes)

    p = sub.add_parser("study", help="Monte Carlo bias/MSE/coverage study")
    p.add_argument("--paper-grid", action="store_true",
                   help="run the canonical 24-scenario grid")
    p.add_argument("--config", help="flat key=value scenario file")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--estimators", help="comma list from mle,mh,is")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--out", help="write report to file instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("gof", help="KS/AD goodness of fit with bootstrap p-values")
    p.add_argument("--data", required=True)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--alpha", type=float, default=None,
                   help="evaluate at fixed alpha instead of the MLE")
    p.add_argument("--beta", type=float, default=None,
                   help="evaluate at fixed beta instead of the MLE")
    _add_common(p)
    p.set_defaults(func=cmd_gof)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except BrokenPipeError:
        # the reader closed stdout early: point its descriptor at devnull so
        # the interpreter's final flush of the buffered rest cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
