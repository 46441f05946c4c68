"""Goodness of fit for complete samples: KS and AD statistics against a
fitted Chen model, with parametric-bootstrap p-values (MLE refit in each
bootstrap replicate, so parameter estimation is accounted for).

The bootstrap runs in blocks of replicates: each block's samples are drawn,
sorted, refitted by the row-batched MLE and scored as one array.  Both
statistics of a report are scored on the same replicates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mle
from .censoring import complete_plan, load_sample
# chen_sample is not called here; it stays a module attribute because
# perfbench's tracer patches the names this module looks up
from .chen import ChenParams, _cdf, cdf, quantile, sample as chen_sample  # noqa: F401

__all__ = ["GofReport", "ks_statistic", "ad_statistic", "bootstrap_pvalue",
           "fit_complete", "gof_report"]

# values per bootstrap block, about 273 replicates of 30: large enough that
# numpy's per-call cost is spread thin, small enough to keep the block's
# temporaries in cache and the peak memory flat.  With the four-array
# `mle._sums`, a devices30 refit report at 2000 reps took a median 13.7,
# 12.8 and 13.5 ms of CPU at 8192, 16384 and 32768 values (15 reports each,
# one core of a shared 2-core x86-64 host).  16384 was the fastest, but it
# raised the gof-devices30 benchmark's peak RSS by 2.2% (39.8 to 40.7 MB,
# 10 of 10 runs), so the block stays at 8192
_BLOCK_ELEMENTS = 8192


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


_STATISTICS = {"ks": _ks, "ad": _ad}


def _bootstrap(data, which: tuple[str, ...], reps: int, seed: int | None,
               params: ChenParams | None, fitted: ChenParams) -> tuple[tuple, tuple, int]:
    """The value on the data and the `bootstrap_pvalue` of each statistic
    named in `which`, from the model `fitted` to the data, and how many
    refits were dropped; `params` is None when the replicates are refitted.

    The row functions that score the replicates score the data too.  Every
    statistic is scored on the same replicates: one draw, sort and refit per
    replicate, and one model cdf that all statistics read, so a statistic's
    p-value is the one `bootstrap_pvalue` gives it at `seed`.
    """
    if not set(which) <= _STATISTICS.keys():
        raise ValueError(f"statistic must be one of {sorted(_STATISTICS)}")
    if reps < 100:
        raise ValueError("reps must be >= 100")
    stats = [_STATISTICS[name] for name in which]
    f = cdf(fitted, _sorted_data(data))
    observed = tuple(float(row_stat(f)) for row_stat in stats)
    rng = np.random.default_rng(seed)
    n = f.size
    block = max(1, _BLOCK_ELEMENTS // n)
    exceed = [0] * len(stats)
    dropped = 0
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
        f = _cdf(alpha, beta, boot)
        for j, row_stat in enumerate(stats):
            exceed[j] += int(np.count_nonzero(row_stat(f) >= observed[j]))
        del f  # not held through the next block's draw
    if dropped > 0.1 * reps:
        raise RuntimeError(f"{dropped}/{reps} bootstrap fits failed")
    return observed, tuple((1 + e) / (reps - dropped + 1) for e in exceed), dropped


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
    return _bootstrap(data, (which,), reps, seed, params, fitted)[1][0]


@dataclass(frozen=True)
class GofReport:
    fitted: ChenParams
    ks_stat: float
    ad_stat: float
    ks_pvalue: float
    ad_pvalue: float
    bootstrap_reps: int
    # bootstrap replicates whose refit raised a typed MLE error, 0 when the
    # parameters are fixed; both statistics share the replicates, so the
    # two counts are equal
    ks_refits_dropped: int = 0
    ad_refits_dropped: int = 0


def gof_report(data, reps: int = 2000, seed: int | None = None,
               params: ChenParams | None = None) -> GofReport:
    """Full report; by default the model is the complete-sample MLE, but
    fixed parameters may be supplied to test a specific hypothesis.

    Both statistics are scored on one bootstrap replicate set, drawn from
    the stream `seed`: each p-value equals `bootstrap_pvalue` of its
    statistic at `seed`, and the two dropped counts are the same count."""
    data = np.asarray(data, dtype=float)
    fitted = params if params is not None else fit_complete(data).params_hat
    (ks_stat, ad_stat), (ks_pvalue, ad_pvalue), dropped = _bootstrap(
        data, ("ks", "ad"), reps, seed, params, fitted)
    return GofReport(
        fitted=fitted,
        ks_stat=ks_stat,
        ad_stat=ad_stat,
        ks_pvalue=ks_pvalue,
        ad_pvalue=ad_pvalue,
        bootstrap_reps=reps,
        ks_refits_dropped=dropped,
        ad_refits_dropped=dropped,
    )
