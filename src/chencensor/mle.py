"""Maximum likelihood for the Chen parameters under IAT-II censored data.

The profile structure is exploited: for fixed beta the alpha score is
linear in 1/alpha, giving alpha_hat(beta) = d2 / nu(beta) in closed form.
beta_hat is the root of the profile score h(beta), found by Newton's method
from the constant `_BETA_INIT` and kept inside the fixed sign-change bracket
`_BRACKET` by geometric bisection.

The solve is row-batched: `_solve_rows` iterates on the zero-padded
supports of many samples at once, one sample a row, and `_finish` forms
alpha_hat, the information and the verdicts on the same rows; `_fit_rows`
chains the two.  `fit` is the one-row call of `_fit_rows` and `solve_beta`
of `_solve_rows`, and both report the method as `newton` or `bracketed`;
the goodness-of-fit bootstrap fits its replicates as rows, the study fits
each block of replications as rows, and the lockstep MH kernel steps its
chains on rows.  Two functions form sums
over weighted supports: `_sums`, rescaled where e^(x^beta) would overflow,
for h, its slope and the information; and `_support_sums`, the value
kernel, for `nu`, the likelihood and the Bayesian samplers.  Asymptotic
confidence intervals come from the inverse observed information:
`_wald_rows` forms them for rows of fits, and `confidence_intervals` is its
one-row call.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .censoring import CensoredSample
from .chen import ChenParams

__all__ = [
    "MleFit",
    "ConfidenceIntervals",
    "DegenerateSampleError",
    "NoRootError",
    "SolveMethod",
    "log_likelihood",
    "score",
    "nu",
    "profile_score",
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
    """How `fit` and `solve_beta` reached the root."""

    NEWTON = "newton"  # Newton steps only
    BRACKETED = "bracketed"  # at least one bisection step


def _method(bracketed) -> SolveMethod:
    """The method of a row, from whether it took a bisection step."""
    return SolveMethod.BRACKETED if bracketed else SolveMethod.NEWTON


_BRACKET = (1e-4, 50.0)  # the search interval of beta_hat, where every solve starts
_BETA_INIT = 1.0  # the first beta a solve evaluates
_TOL = 1e-10  # a Newton step or a bracket shorter than this ends a solve
_MAX_ITER = 500  # the steps a solve may take before it fails


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


class _Rows(NamedTuple):
    """The weighted supports of k samples, one sample a row, zero-padded to a
    common width.

    Per column: ln x, the weight and the failure indicator, laid out as in
    `CensoredSample`; padding has ln x = 0, weight 0 and indicator 0, so it
    adds to no sum.  Per row: d2, the sum of ln x over the failures, and
    whether two failure times differ, without which (alpha, beta) is not
    identified.
    """

    lnx: np.ndarray
    weights: np.ndarray
    failure: np.ndarray
    d2: np.ndarray
    sum_lnx: np.ndarray
    identified: np.ndarray


def _sample_rows(samples, width: int | None = None) -> _Rows:
    """The rows of a sequence of censored samples, zero-padded to `width`,
    by default the widest support among them."""
    if width is None:
        width = max(s.log_support.size for s in samples)
    lnx, weights, failure = np.zeros((3, len(samples), width))
    for r, s in enumerate(samples):
        size = s.log_support.size
        lnx[r, :size], weights[r, :size], failure[r, :size] = (
            s.log_support, s.weights, s.failure)
    return _Rows(lnx, weights, failure,
                 np.array([s.d2 for s in samples], dtype=float),
                 np.array([s.sum_lnx for s in samples]),
                 np.array([s.d2 >= 2 and s.times.min() < s.times.max() for s in samples]))


def _complete_rows(x: np.ndarray) -> _Rows:
    """The rows of complete samples, one sample's sorted times a row of x:
    every time a failure of weight 1, as `load_sample` gives them under a
    plan that removes and censors nothing.  A row holding a time that is not
    positive and finite (a draw that under- or overflowed) is not
    identified, and its times are not logged: its ln x reads 0."""
    k, n = x.shape
    usable = (x[:, 0] > 0) & (x[:, -1] < np.inf)
    lnx = np.log(np.where(usable[:, None], x, 1.0))
    ones = np.ones_like(x)
    return _Rows(lnx, ones, ones, np.full(k, float(n)), lnx.sum(axis=-1),
                 usable & (n >= 2) & (x[:, 0] < x[:, -1]))


class _Sums(NamedTuple):
    """Sums over each row's weighted support at its beta, with t = x^beta.

    A row's weighted sums are scaled by e^(-shift); its shift is 0 unless
    e^t would overflow, in which case it is the row's largest t, and shift
    is None when no row needs one.  The failure-time sums are not scaled.
    """

    shift: np.ndarray | None
    nu: np.ndarray       # sum w (e^t - 1)
    phi: np.ndarray      # sum w phi,    phi = e^t t ln x
    phi_xi: np.ndarray   # sum w phi xi, xi = ln x (1 + t)
    t_lnx: np.ndarray    # sum of t ln x over the failures
    t_lnx2: np.ndarray   # sum of t (ln x)^2 over the failures


_RESCALE_ABOVE = 600.0  # e^600 and the weighted sums of it stay finite
_SMALLEST_NORMAL = float(np.finfo(float).tiny)
# over- and underflow, 0/0 and inf - inf end as inf, 0 or nan, which the
# solver and the verdicts read; every caller of the row functions holds this
_QUIET = {"all": "ignore"}


def _sums(lnx, w, failure, beta) -> _Sums:
    """The `_Sums` of a support, or of rows of supports at one beta a row
    (beta's axes broadcast against the leading axes of the support).

    Each pass writes into t or one of three work arrays of t's shape, in
    the order of the expression it stands for: e^(beta ln x) is taken in
    place, e^t - 1 is overwritten by e^t once nu is summed, and the phi xi
    terms are (t ln x * ln x) * (t + 1).  Every value rounds as the
    expression's temporaries would, so the fits stay bit-identical."""
    t = np.asarray(beta)[..., None] * lnx
    np.exp(t, out=t)
    if np.maximum.reduce(t, axis=None) <= _RESCALE_ABOVE:
        shift = None
        we = np.expm1(t)
        nu = np.vecdot(w, we)
        np.exp(t, out=we)
    else:
        # e^(-shift) is below 1e-260, so e^t - 1 scales to e^(t-shift)
        shift = t.max(axis=-1)
        rescale = ~(shift <= _RESCALE_ABOVE)
        shift = np.where(rescale, shift, 0.0)
        we = np.exp(t - shift[..., None])
        nu = np.vecdot(w, np.where(rescale[..., None], we, np.expm1(t)))
        # where x^beta itself overflowed, e^(t - shift) is e^(inf - inf) =
        # nan, but nu is inf
        nu = np.where(shift < np.inf, nu, np.inf)
    we *= w
    t_lnx = t * lnx
    phi = np.vecdot(we, t_lnx)
    xi_terms = t_lnx * lnx
    t += 1.0
    xi_terms *= t
    phi_xi = np.vecdot(we, xi_terms)
    t_lnx *= failure
    return _Sums(shift, nu, phi, phi_xi, np.add.reduce(t_lnx, axis=-1), np.vecdot(t_lnx, lnx))


def _support_sums(lnx, weights, failure, beta):
    """Sum of x^beta over the failures, and nu(beta) = sum w (e^(x^beta) - 1).

    The arrays are a sample's support or zero-padded rows of supports; beta's
    axes broadcast against their leading axes.  Callers hold the errstate.
    The lockstep MH loop forms the same sums in place, with the same
    operations, for all the proposals of a pass at once: (nodes, chains,
    width) arrays allocated once, whose rows are reduced as these are.
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


def _unscale(x, shift):
    """x * e^shift, formed in logs so that it stays finite where x is as
    small as e^shift is large."""
    if shift is None:
        return x
    return np.where(shift == 0.0, x, np.copysign(np.exp(np.log(np.abs(x)) + shift), x))


def _square(x):
    """x^2 by pow, as Python squares a float; numpy's x**2 is x*x, which
    rounds the other way for about one value in a thousand.  The solver's
    formulas were written for Python floats, and this keeps their digits."""
    return np.float_power(x, 2)


def nu(s: CensoredSample, beta: float) -> float:
    """Total cumulative-hazard-like sum sum (1+R_i)(e^(x_i^beta)-1) + B(e^(x_B^beta)-1)."""
    return _sample_sums(s, beta)[1]


def log_likelihood(p: ChenParams, s: CensoredSample) -> float:
    """Log-likelihood up to the parameter-free combinatorial constant."""
    sum_t, v = _sample_sums(s, p.beta)
    if v == math.inf:
        # an e^(x^beta) overflowed, so the likelihood is 0 at alpha > 0; where
        # that x is a failure time, sum_t is inf too and the sum below is nan
        return -math.inf
    value = s.d2 * (math.log(p.alpha) + math.log(p.beta))
    value += (p.beta - 1.0) * s.sum_lnx + sum_t
    return value - p.alpha * v


def score(p: ChenParams, s: CensoredSample) -> tuple[float, float]:
    """Gradient of the log-likelihood in (alpha, beta), from one pass over
    the support."""
    with np.errstate(**_QUIET):
        sums = _sums(s.log_support, s.weights, s.failure, p.beta)
        v = _unscale(sums.nu, sums.shift)
        if v == math.inf:
            # an e^(x^beta) overflowed at an x > 1, and its term
            # -alpha w e^(x^beta) x^beta ln x outgrows the rest; where x^beta
            # itself overflowed, the rescaled sums are e^(inf - inf) = nan
            return -math.inf, -math.inf
        s_alpha = s.d2 / p.alpha - v
        s_beta = (s.d2 / p.beta + s.sum_lnx + sums.t_lnx
                  - _unscale(p.alpha, sums.shift) * sums.phi)
    return float(s_alpha), float(s_beta)


def _profile(rows: _Rows, beta):
    """Profile score h and its slope h' = -(I_bb - I_ab^2 / I_aa) at each
    row's beta; nan where nu(beta) is not finite or has underflowed below
    the smallest normal float, where its few remaining bits make h noise.
    `rows` may also hold one sample's support as it is, with its d2 and sum
    of ln x as scalars."""
    sums = _sums(rows.lnx, rows.weights, rows.failure, beta)
    d2 = rows.d2
    nu = np.where((sums.nu >= _SMALLEST_NORMAL) & (sums.nu < np.inf), sums.nu, np.nan)
    ratio = sums.phi / nu
    h = d2 / beta + rows.sum_lnx + sums.t_lnx - d2 * ratio
    slope = -d2 / _square(beta) + sums.t_lnx2 - d2 * (sums.phi_xi / nu - ratio * ratio)
    return h, slope


def profile_score(s: CensoredSample, beta: float) -> float:
    """d/d beta of the log-likelihood with alpha profiled out, from one pass
    over the sample's support; nan where nu(beta) is not computable (see
    `_profile`)."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    row = _Rows(s.log_support, s.weights, s.failure, s.d2, s.sum_lnx, True)
    with np.errstate(**_QUIET):
        return float(_profile(row, beta)[0])


def _solve_rows(rows: _Rows):
    """`solve_beta` on every row at once.

    Each row keeps its own bracket, the profile score at its ends and its
    step count; a row leaves the iteration when it converges or fails, and
    the rest go on.  `_BRACKET`, `_BETA_INIT`, `_TOL` and `_MAX_ITER` are
    read at each call.  Returns beta_hat (nan where a row failed), the
    iteration counts, whether each row took a bisection step, and the typed
    error of each row that failed.
    """
    k = rows.d2.size
    root = np.full(k, np.nan)
    iterations = np.zeros(k, dtype=int)
    bracketed = np.zeros(k, dtype=bool)
    errors = {}
    idx = np.flatnonzero(rows.identified)
    if idx.size < k:
        errors = {int(r): DegenerateSampleError("need at least two distinct failure times")
                  for r in np.flatnonzero(~rows.identified)}
        rows = _Rows(*(a[idx] for a in rows))
    lo0, hi0 = _BRACKET
    # the bracket, h at its ends (nan until an evaluation has signed that
    # end: h(lo) > 0 and h(hi) < 0 are then seen, not merely assumed) and
    # the point to evaluate next
    lo, hi, h_lo, h_hi, beta = np.array(
        [[lo0], [hi0], [np.nan], [np.nan], [min(max(_BETA_INIT, lo0), hi0)]],
        dtype=float).repeat(idx.size, axis=1)
    bisected = np.zeros(idx.size, dtype=bool)
    step_no = 0
    with np.errstate(**_QUIET):
        while idx.size and step_no < _MAX_ITER:
            step_no += 1
            h, slope = _profile(rows, beta)
            # h > 0 raises lo; h < 0 lowers hi, and so does a point where h
            # is not computable, as nu over- or underflows only as beta grows
            rise = h > 0
            fall = ~rise
            np.putmask(lo, rise, beta)
            np.putmask(h_lo, rise, h)
            np.putmask(hi, fall, beta)
            np.putmask(h_hi, fall, h)
            newton = slope < 0
            step = h / slope  # the Newton step is -step
            nxt = beta - step
            inside = newton & (lo < nxt) & (nxt < hi)
            # a Newton step shorter than tol ends the row, as does h = 0; a
            # row whose step leaves the bracket ends if the bracket has
            # closed in, and else goes on from the bracket's geometric midpoint
            converged = (h == 0) | (newton & (np.abs(step) < _TOL))
            closed = (hi - lo < _TOL) & ~(converged | inside)
            mid = np.sqrt(lo * hi)
            stop = converged | closed
            bisected |= ~(stop | inside)
            current = beta
            beta = np.where(inside, nxt, mid)
            if not np.count_nonzero(stop):
                continue
            settled = closed & (h_lo > 0) & (h_hi < 0)
            done = converged | settled
            found = np.where(converged, np.where(h == 0, current, nxt), mid)
            root[idx[done]] = found[done]
            iterations[idx[stop]] = step_no
            bracketed[idx[stop]] = bisected[stop]
            failed = stop & ~done
            for r, b, hr in zip(idx[failed], current[failed], h[failed]):
                errors[int(r)] = NoRootError(
                    f"profile score has no sign change on ({lo0:g}, {hi0:g}); the "
                    f"search closed in at beta={b:.6g}, h={hr:.4g}")
            keep = ~stop
            idx = idx[keep]
            if not idx.size:
                break
            rows = _Rows(*(a[keep] for a in rows))
            beta, lo, hi, h_lo, h_hi, bisected = (
                a[keep] for a in (beta, lo, hi, h_lo, h_hi, bisected))
    for r in idx:
        errors[int(r)] = NoRootError(f"profile score root not reached in {_MAX_ITER} steps")
    return root, iterations, bracketed, errors


def solve_beta(s: CensoredSample) -> tuple[float, int, SolveMethod]:
    """Profile MLE of beta: Newton's method on the profile score, kept inside a
    sign-change bracket by geometric bisection.

    The first point is the constant `_BETA_INIT`, and each evaluation
    narrows the bracket (lo, hi), which starts as the constant `_BRACKET`:
    h > 0 raises lo, h < 0 or a non-finite h lowers hi.  A Newton step that
    leaves the bracket, or that comes from a slope that is not negative, is
    replaced by the geometric midpoint sqrt(lo * hi).  A Newton step shorter
    than `_TOL` ends the solve, and NoRootError ends one that has not
    converged in `_MAX_ITER` steps.  The method is NEWTON when only Newton
    steps were taken and BRACKETED when at least one bisection step was;
    `iterations` counts both kinds of step.  This is the one-row call of the
    solver that fits many samples at once.
    """
    root, iterations, bracketed, errors = _solve_rows(_sample_rows([s]))
    if errors:
        raise errors[0]
    return float(root[0]), int(iterations[0]), _method(bracketed[0])


def _information(alpha, beta, d2, sums: _Sums):
    """The entries I_aa, I_ab and I_bb of the negative Hessian of the
    log-likelihood at (alpha, beta), from the sums at beta."""
    i_aa = d2 / _square(alpha)
    i_ab = _unscale(sums.phi, sums.shift)
    i_bb = d2 / _square(beta) - sums.t_lnx2 + _unscale(alpha, sums.shift) * sums.phi_xi
    return i_aa, i_ab, i_bb


def observed_information(p: ChenParams, s: CensoredSample) -> np.ndarray:
    """Negative Hessian of the log-likelihood, evaluated at p."""
    with np.errstate(**_QUIET):
        i_aa, i_ab, i_bb = _information(p.alpha, p.beta, s.d2,
                                        _sums(s.log_support, s.weights, s.failure, p.beta))
    return np.array([[i_aa, i_ab], [i_ab, i_bb]])


_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _finish(rows: _Rows, beta: np.ndarray):
    """alpha_hat = d2 / nu, the observed information and its inverse at each
    row's beta_hat, and the verdict on each row whose fit is not usable: a
    DegenerateSampleError where alpha_hat is not a positive finite number, a
    NoRootError where the information is numerically singular."""
    with np.errstate(**_QUIET):
        sums = _sums(rows.lnx, rows.weights, rows.failure, beta)
        alpha = rows.d2 / _unscale(sums.nu, sums.shift)
        i_aa, i_ab, i_bb = _information(alpha, beta, rows.d2, sums)
        info = np.stack([i_aa, i_ab, i_ab, i_bb], axis=-1).reshape(-1, 2, 2)
        det = i_aa * i_bb - i_ab * i_ab
        usable = ((alpha > 0) & (alpha < np.inf) & np.isfinite(det)
                  & ~(np.abs(det) < 1e-12 * (info**2).sum(axis=(1, 2))))
        varcov = info[:, ::-1, ::-1] * _COFACTOR_SIGNS / det[:, None, None]
    verdicts = {}
    if np.count_nonzero(usable) < usable.size:
        for r in np.flatnonzero(~usable):
            verdicts[int(r)] = (
                NoRootError("observed information is numerically singular")
                if 0 < alpha[r] < np.inf
                else DegenerateSampleError("alpha_hat = d2 / nu(beta_hat) is not a positive "
                                           "finite number"))
    return alpha, info, varcov, verdicts


class _RowFits(NamedTuple):
    """`fit` of each row, without the log-likelihood."""

    alpha: np.ndarray        # nan where the row's fit failed
    beta: np.ndarray
    info: np.ndarray         # (k, 2, 2)
    varcov: np.ndarray
    iterations: np.ndarray
    bracketed: np.ndarray
    errors: dict             # row -> its DegenerateSampleError or NoRootError


def _fit_rows(rows: _Rows) -> _RowFits:
    """`fit` of every row at once, each row solved as `solve_beta` solves it."""
    beta, iterations, bracketed, errors = _solve_rows(rows)
    alpha, info, varcov, verdicts = _finish(rows, beta)
    # a row the solver failed has a nan beta_hat, which _finish also flags
    errors = {**verdicts, **errors}
    bad = list(errors)
    alpha[bad] = np.nan
    return _RowFits(alpha, beta, info, varcov, iterations, bracketed, errors)


def fit(s: CensoredSample) -> MleFit:
    """Joint MLE with observed information and its inverse: the one-row call
    of `_fit_rows`, plus the log-likelihood at the estimate.  beta_hat is
    solved as in `solve_beta`."""
    fits = _fit_rows(_sample_rows([s]))
    if fits.errors:
        raise fits.errors[0]
    params = ChenParams(float(fits.alpha[0]), float(fits.beta[0]))
    return MleFit(
        params_hat=params,
        loglik=log_likelihood(params, s),
        info=fits.info[0],
        varcov=fits.varcov[0],
        iterations=int(fits.iterations[0]),
        converged_by=_method(fits.bracketed[0]),
        sample=s,
    )


def _wald_rows(estimates: np.ndarray, varcov: np.ndarray, level: float):
    """Wald intervals theta_hat -/+ z * se of rows of (alpha_hat, beta_hat),
    from their variance-covariance matrices: the lower and upper ends, and
    whether each row's variances are both positive, without which the row
    has no interval.  `confidence_intervals` is the one-row call."""
    from statistics import NormalDist
    var = np.diagonal(varcov, axis1=-2, axis2=-1)
    usable = ~np.any(var <= 0, axis=-1)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    with np.errstate(invalid="ignore"):  # the square root of a negative variance
        half = z * np.sqrt(var)
    return estimates - half, estimates + half, usable


def confidence_intervals(mle_fit: MleFit, level: float = 0.95) -> ConfidenceIntervals:
    """Wald intervals theta_hat -/+ z * se at the given coverage level."""
    if not (0 < level < 1):
        raise ValueError("level must lie in (0, 1)")
    p = mle_fit.params_hat
    lower, upper, usable = _wald_rows(np.array([p.alpha, p.beta]), mle_fit.varcov, level)
    if not usable:
        raise ValueError("variance-covariance matrix has non-positive diagonal")
    return ConfidenceIntervals(
        level=level,
        alpha_interval=(lower[0], upper[0]),
        beta_interval=(lower[1], upper[1]),
    )
