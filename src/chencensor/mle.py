"""Maximum likelihood for the Chen parameters under IAT-II censored data.

The profile structure is exploited: for fixed beta the alpha score is
linear in 1/alpha, giving alpha_hat(beta) = d2 / nu(beta) in closed form.
beta_hat is the root of the profile score h(beta), found by Newton's method
from `MleOptions.beta_init` and kept inside a sign-change bracket by
geometric bisection.  Two functions form sums over the sample's cached
weighted support: `_sums` at one beta, rescaled where e^(x^beta) would
overflow, for h, its slope and the information; and `_support_sums`, the
batched value kernel, for `nu`, the likelihood and the Bayesian samplers.
Asymptotic confidence intervals come from the inverse observed information.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .censoring import CensoredSample
from .chen import ChenParams

__all__ = [
    "MleOptions",
    "MleFit",
    "ConfidenceIntervals",
    "DegenerateSampleError",
    "NoRootError",
    "SolveMethod",
    "log_likelihood",
    "score",
    "nu",
    "alpha_profile",
    "profile_score",
    "profile_score_and_slope",
    "solve_beta",
    "fit",
    "observed_information",
    "confidence_intervals",
]


class DegenerateSampleError(ValueError):
    """Sample carries too little information to identify (alpha, beta)."""


class NoRootError(RuntimeError):
    """Profile score has no sign change on the search bracket."""


class SolveMethod(enum.Enum):
    """How `solve_beta` reached the root."""

    FIXED_POINT = "fixed_point"  # Newton steps only
    BRACKETED = "bracketed"  # at least one bisection step


@dataclass(frozen=True)
class MleOptions:
    beta_init: float = 1.0
    tol: float = 1e-10
    max_iter: int = 500
    bracket: tuple[float, float] = (1e-4, 50.0)

    def __post_init__(self) -> None:
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol must be > 0 and max_iter >= 1")
        lo, hi = self.bracket
        if not (0 < lo < hi):
            raise ValueError("bracket must satisfy 0 < low < high")
        if self.beta_init <= 0:
            raise ValueError("beta_init must be > 0")


@dataclass(frozen=True)
class ConfidenceIntervals:
    level: float
    alpha_interval: tuple[float, float]
    beta_interval: tuple[float, float]


@dataclass(frozen=True)
class MleFit:
    params_hat: ChenParams
    loglik: float
    info: np.ndarray
    varcov: np.ndarray
    iterations: int
    converged_by: SolveMethod
    sample: CensoredSample


def _check_params(p: ChenParams) -> None:
    if p.alpha <= 0 or p.beta <= 0:
        raise ValueError("parameters must be positive")


class _Sums(NamedTuple):
    """Sums over the weighted support at one beta, with t = x^beta.

    The weighted sums are scaled by e^(-shift); shift is 0 unless e^t would
    overflow, in which case it is the largest t.  The failure-time sums are
    not scaled.
    """

    shift: float
    nu: float       # sum w (e^t - 1)
    phi: float      # sum w phi,    phi = e^t t ln x
    phi_xi: float   # sum w phi xi, xi = ln x (1 + t)
    t_lnx: float    # sum of t ln x over the failures
    t_lnx2: float   # sum of t (ln x)^2 over the failures


_RESCALE_ABOVE = 600.0  # e^600 and the weighted sums of it stay finite
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def _sums(s: CensoredSample, beta: float) -> _Sums:
    lnx, w, d2 = s.log_support, s.weights, s.d2
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        t = np.exp(beta * lnx)
        shift = float(t.max())
        if shift <= _RESCALE_ABOVE:
            shift = 0.0
            e = np.exp(t)
            nu_terms = np.expm1(t)
        else:
            # e^(-shift) is below 1e-260, so e^t - 1 scales to e^(t-shift)
            e = np.exp(t - shift)
            nu_terms = e
        t_lnx = t * lnx
        we = w * e
        phi = float(we @ t_lnx)
        phi_xi = float(we @ (t_lnx * lnx * (1.0 + t)))
        t_lnx_f = t_lnx[:d2]
        return _Sums(shift, float(w @ nu_terms), phi, phi_xi,
                     float(t_lnx_f.sum()), float(t_lnx_f @ lnx[:d2]))


def _support_sums(lnx, weights, failure, beta):
    """Sum of x^beta over the failures, and nu(beta) = sum w (e^(x^beta) - 1).

    The arrays are a sample's support or zero-padded rows of supports; beta's
    axes broadcast against their leading axes.  Callers hold the errstate:
    entering one here would slow the per-iteration MH loop.
    """
    t = np.exp(np.asarray(beta)[..., None] * lnx)
    return np.vecdot(failure, t), np.vecdot(weights, np.expm1(t))


def _sample_sums(s: CensoredSample, beta: float) -> tuple[float, float]:
    """`_support_sums` of one sample at one beta."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if s.d2 < 1:
        raise DegenerateSampleError("need at least one observed failure")
    with np.errstate(over="ignore", invalid="ignore"):
        sum_t, v = _support_sums(s.log_support, s.weights, s.failure, beta)
        if math.isnan(sum_t):
            # x_b^beta overflowed, and its failure indicator 0 times inf is
            # nan; the sum over the failures alone is finite, as nu is inf
            d2 = s.d2
            sum_t = _support_sums(s.log_support[:d2], s.weights[:d2], s.failure[:d2], beta)[0]
    return float(sum_t), float(v)


def _unscale(x: float, shift: float) -> float:
    """x * e^shift, formed in logs so that it stays finite where x is as
    small as e^shift is large."""
    if shift == 0.0:
        return x
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.copysign(np.exp(np.log(abs(x)) + shift), x))


def nu(s: CensoredSample, beta: float) -> float:
    """Total cumulative-hazard-like sum sum (1+R_i)(e^(x_i^beta)-1) + B(e^(x_B^beta)-1)."""
    return _sample_sums(s, beta)[1]


def log_likelihood(p: ChenParams, s: CensoredSample) -> float:
    """Log-likelihood up to the parameter-free combinatorial constant."""
    _check_params(p)
    sum_t, v = _sample_sums(s, p.beta)
    value = s.d2 * (math.log(p.alpha) + math.log(p.beta))
    value += (p.beta - 1.0) * s.sum_lnx + sum_t
    return value - p.alpha * v


def score(p: ChenParams, s: CensoredSample) -> tuple[float, float]:
    """Gradient of the log-likelihood in (alpha, beta)."""
    _check_params(p)
    sums = _sums(s, p.beta)
    s_alpha = s.d2 / p.alpha - nu(s, p.beta)
    s_beta = (s.d2 / p.beta + s.sum_lnx + sums.t_lnx
              - _unscale(p.alpha, sums.shift) * sums.phi)
    return s_alpha, s_beta


def alpha_profile(s: CensoredSample, beta: float) -> float:
    """Closed-form alpha maximizer at fixed beta: d2 / nu."""
    v = nu(s, beta)
    if not v > 0:  # an overflowed nu gives alpha 0
        raise DegenerateSampleError("nu(beta) is not positive; all times at zero?")
    return s.d2 / v


def profile_score_and_slope(s: CensoredSample, beta: float) -> tuple[float, float]:
    """Profile score h(beta) and its slope h'(beta) = -(I_bb - I_ab^2 / I_aa)
    at alpha_hat(beta), from one pass over the support.

    Both are nan where nu(beta) is not finite or has underflowed below the
    smallest normal float, where its few remaining bits make h noise.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    sums = _sums(s, beta)
    if not (_SMALLEST_NORMAL <= sums.nu < np.inf):
        return math.nan, math.nan
    d2 = s.d2
    ratio = sums.phi / sums.nu
    h = d2 / beta + s.sum_lnx + sums.t_lnx - d2 * ratio
    slope = -d2 / beta**2 + sums.t_lnx2 - d2 * (sums.phi_xi / sums.nu - ratio * ratio)
    return h, slope


def profile_score(s: CensoredSample, beta: float) -> float:
    """d/d beta of the log-likelihood with alpha profiled out; nan where
    nu(beta) is not computable (see `profile_score_and_slope`)."""
    return profile_score_and_slope(s, beta)[0]


def solve_beta(s: CensoredSample, opts: MleOptions | None = None) -> tuple[float, int, SolveMethod]:
    """Profile MLE of beta: Newton's method on the profile score, kept inside a
    sign-change bracket by geometric bisection.

    Each evaluation narrows the bracket (lo, hi), which starts as
    `opts.bracket`: h > 0 raises lo, h < 0 or a non-finite h lowers hi.  A
    Newton step that leaves the bracket, or that comes from a slope that is
    not negative, is replaced by the geometric midpoint sqrt(lo * hi).  The
    method is FIXED_POINT when only Newton steps were taken (Newton's method
    is the fixed-point iteration of beta - h/h') and BRACKETED when at least
    one bisection step was; `iterations` counts both kinds of step.
    """
    opts = opts or MleOptions()
    if s.d2 < 2 or np.unique(s.times).size < 2:
        raise DegenerateSampleError("need at least two distinct failure times")
    lo, hi = opts.bracket
    # whether h(lo) > 0 and h(hi) < 0 have been seen, not merely assumed
    lo_signed = hi_signed = False
    beta = min(max(opts.beta_init, lo), hi)
    method = SolveMethod.FIXED_POINT
    for iterations in range(1, opts.max_iter + 1):
        h, slope = profile_score_and_slope(s, beta)
        if h > 0:
            lo, lo_signed = beta, True
        elif h < 0:
            hi, hi_signed = beta, True
        elif h == 0:
            return beta, iterations, method
        else:
            # nu over- or underflows only as beta grows, so a point where h
            # is not computable bounds the search from above
            hi, hi_signed = beta, False
        if slope < 0:
            step = -h / slope
            if abs(step) < opts.tol:
                return beta + step, iterations, method
            if lo < beta + step < hi:
                beta += step
                continue
        if hi - lo < opts.tol:
            if lo_signed and hi_signed:
                return math.sqrt(lo * hi), iterations, method
            raise NoRootError(
                f"profile score has no sign change on ({opts.bracket[0]:g}, "
                f"{opts.bracket[1]:g}); the search closed in at beta={beta:.6g}, h={h:.4g}")
        method = SolveMethod.BRACKETED
        beta = math.sqrt(lo * hi)
    raise NoRootError(f"profile score root not reached in {opts.max_iter} steps")


def observed_information(p: ChenParams, s: CensoredSample) -> np.ndarray:
    """Negative Hessian of the log-likelihood, evaluated at p."""
    _check_params(p)
    sums = _sums(s, p.beta)
    i_aa = s.d2 / p.alpha**2
    i_ab = _unscale(sums.phi, sums.shift)
    i_bb = s.d2 / p.beta**2 - sums.t_lnx2 + _unscale(p.alpha, sums.shift) * sums.phi_xi
    return np.array([[i_aa, i_ab], [i_ab, i_bb]])


def fit(s: CensoredSample, opts: MleOptions | None = None) -> MleFit:
    """Joint MLE with observed information and its inverse."""
    beta_hat, iterations, method = solve_beta(s, opts)
    alpha_hat = alpha_profile(s, beta_hat)
    params = ChenParams(alpha_hat, beta_hat)
    info = observed_information(params, s)
    det = info[0, 0] * info[1, 1] - info[0, 1] * info[1, 0]
    norm_sq = float(np.sum(info**2))
    if not np.isfinite(det) or abs(det) < 1e-12 * norm_sq:
        raise NoRootError("observed information is numerically singular")
    varcov = np.array([[info[1, 1], -info[0, 1]], [-info[1, 0], info[0, 0]]]) / det
    return MleFit(
        params_hat=params,
        loglik=log_likelihood(params, s),
        info=info,
        varcov=varcov,
        iterations=iterations,
        converged_by=method,
        sample=s,
    )


def confidence_intervals(mle_fit: MleFit, level: float = 0.95) -> ConfidenceIntervals:
    """Wald intervals theta_hat -/+ z * se at the given coverage level."""
    if not (0 < level < 1):
        raise ValueError("level must lie in (0, 1)")
    var_a, var_b = mle_fit.varcov[0, 0], mle_fit.varcov[1, 1]
    if var_a <= 0 or var_b <= 0:
        raise ValueError("variance-covariance matrix has non-positive diagonal")
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    a_hat = mle_fit.params_hat.alpha
    b_hat = mle_fit.params_hat.beta
    return ConfidenceIntervals(
        level=level,
        alpha_interval=(a_hat - z * np.sqrt(var_a), a_hat + z * np.sqrt(var_a)),
        beta_interval=(b_hat - z * np.sqrt(var_b), b_hat + z * np.sqrt(var_b)),
    )
