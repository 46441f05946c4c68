"""Goodness of fit for complete samples: KS and AD statistics against a
fitted Chen model, with parametric-bootstrap p-values (MLE refit in each
bootstrap replicate, so parameter estimation is accounted for).

The bootstrap runs in blocks of replicates: each block's samples are drawn,
sorted, refitted by the row-batched MLE and scored as one array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mle
from .censoring import CensoringPlan, load_sample
# chen_sample is not called here; it stays a module attribute because
# perfbench's tracer patches the names this module looks up
from .chen import ChenParams, _cdf, cdf, quantile, sample as chen_sample  # noqa: F401

__all__ = ["GofReport", "ks_statistic", "ad_statistic", "bootstrap_pvalue",
           "fit_complete", "gof_report"]

# thresholds are irrelevant for a complete sample; any valid pair keeps
# the classification in the no-censoring case
_HUGE_T1 = 1e12
_HUGE_T2 = 2e12

# values per bootstrap block, about 273 replicates of 30: large enough that
# numpy's per-call cost is spread thin, small enough to keep the block's
# temporaries in cache and the peak memory flat
_BLOCK_ELEMENTS = 8192


def complete_plan(n: int) -> CensoringPlan:
    return CensoringPlan(n=n, m=n, removals=(0,) * n, t1=_HUGE_T1, t2=_HUGE_T2)


def fit_complete(data) -> mle.MleFit:
    """Chen MLE treating `data` as a complete (uncensored) sample."""
    data = np.asarray(data, dtype=float)
    return mle.fit(load_sample(data, complete_plan(data.size)))


def _ks(f: np.ndarray) -> np.ndarray:
    """KS distance of each row, from the model cdf at its sorted values."""
    n = f.shape[-1]
    i = np.arange(1, n + 1)
    return np.max(np.maximum(i / n - f, f - (i - 1) / n), axis=-1)


def _ad(f: np.ndarray) -> np.ndarray:
    """A^2 of each row, from the model cdf at its sorted values."""
    if np.any(f <= 0.0) or np.any(f >= 1.0):
        raise ValueError("model cdf hits 0 or 1 at an observation; AD undefined")
    n = f.shape[-1]
    i = np.arange(1, n + 1)
    return -n - np.mean((2 * i - 1) * (np.log(f) + np.log1p(-f[..., ::-1])), axis=-1)


def _sorted_data(data) -> np.ndarray:
    x = np.sort(np.asarray(data, dtype=float))
    if x.size < 1:
        raise ValueError("need at least one observation")
    return x


def ks_statistic(data, p: ChenParams) -> float:
    """Kolmogorov-Smirnov sup-distance between the empirical cdf and the model."""
    return float(_ks(cdf(p, _sorted_data(data))))


def ad_statistic(data, p: ChenParams) -> float:
    """Anderson-Darling statistic A^2 for the fitted model."""
    return float(_ad(cdf(p, _sorted_data(data))))


_STATISTICS = {"ks": (ks_statistic, _ks), "ad": (ad_statistic, _ad)}


def _bootstrap(data, which: str, reps: int, seed: int | None,
               params: ChenParams | None, fitted: ChenParams) -> tuple[float, int]:
    """`bootstrap_pvalue` from the model `fitted` to the data, and how many
    refits it dropped; `params` is None when the replicates are refitted."""
    if which not in _STATISTICS:
        raise ValueError(f"statistic must be one of {sorted(_STATISTICS)}")
    if reps < 100:
        raise ValueError("reps must be >= 100")
    stat_fn, row_stat = _STATISTICS[which]
    data = np.asarray(data, dtype=float)
    observed = stat_fn(data, fitted)
    rng = np.random.default_rng(seed)
    n = data.size
    block = max(1, _BLOCK_ELEMENTS // n)
    exceed = dropped = 0
    for start in range(0, reps, block):
        # one row of uniforms per replicate, in the order of one
        # rng.random(n) call per replicate
        boot = np.sort(quantile(fitted, rng.random((min(block, reps - start), n))), axis=1)
        if params is not None:
            # fully specified null: no estimation step to replicate
            alpha, beta = params.alpha, params.beta
        else:
            refits = mle._fit_rows(mle._complete_rows(boot))
            fitted_rows = ~np.isnan(refits.alpha)
            dropped += boot.shape[0] - int(np.count_nonzero(fitted_rows))
            boot = boot[fitted_rows]
            alpha = refits.alpha[fitted_rows, None]
            beta = refits.beta[fitted_rows, None]
        exceed += int(np.count_nonzero(row_stat(_cdf(alpha, beta, boot)) >= observed))
    if dropped > 0.1 * reps:
        raise RuntimeError(f"{dropped}/{reps} bootstrap fits failed")
    return (1 + exceed) / (reps - dropped + 1), dropped


def bootstrap_pvalue(data, which: str, reps: int = 2000,
                     seed: int | None = None,
                     params: ChenParams | None = None) -> float:
    """Parametric-bootstrap p-value for the chosen statistic.

    Fits the model (or evaluates at `params` when given), simulates
    `reps` complete samples from it, refits each, and compares the
    refitted statistics with the observed one via the add-one estimator.
    Replicates whose refit fails are dropped from the count; more than
    10 % dropped raises RuntimeError.
    """
    fitted = params if params is not None else fit_complete(data).params_hat
    return _bootstrap(data, which, reps, seed, params, fitted)[0]


@dataclass(frozen=True)
class GofReport:
    fitted: ChenParams
    ks_stat: float
    ad_stat: float
    ks_pvalue: float
    ad_pvalue: float
    bootstrap_reps: int
    # bootstrap replicates whose refit raised a typed MLE error; 0 when the
    # parameters are fixed
    ks_refits_dropped: int = 0
    ad_refits_dropped: int = 0


def gof_report(data, reps: int = 2000, seed: int | None = None,
               params: ChenParams | None = None) -> GofReport:
    """Full report; by default the model is the complete-sample MLE, but
    fixed parameters may be supplied to test a specific hypothesis."""
    data = np.asarray(data, dtype=float)
    fitted = params if params is not None else fit_complete(data).params_hat
    ks_stat = ks_statistic(data, fitted)
    ad_stat = ad_statistic(data, fitted)
    ks_pvalue, ks_dropped = _bootstrap(data, "ks", reps, seed, params, fitted)
    ad_pvalue, ad_dropped = _bootstrap(data, "ad", reps,
                                       None if seed is None else seed + 1, params, fitted)
    return GofReport(
        fitted=fitted,
        ks_stat=ks_stat,
        ad_stat=ad_stat,
        ks_pvalue=ks_pvalue,
        ad_pvalue=ad_pvalue,
        bootstrap_reps=reps,
        ks_refits_dropped=ks_dropped,
        ad_refits_dropped=ad_dropped,
    )
