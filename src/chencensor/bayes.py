"""Bayesian estimation under independent gamma priors.

Two samplers target the same unnormalized posterior: a Metropolis-within-
Gibbs chain (exact gamma draw for alpha, random-walk MH for beta) and a
self-normalized importance sampler whose gamma proposals mirror the
posterior factorization.  Point estimates are reported under squared
error, LINEX and entropy loss.

Both kernels work on rows.  `run_mh_lockstep` steps many chains at once,
one chain a row, in a loop that only decides acceptances; `run_mh_gibbs`
is its one-chain call.  `_loss_rows` forms the loss estimates of many rows
of weighted draws at once; `loss_estimates` is its one-row call.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .censoring import CensoredSample
from .chen import ChenParams
from .mle import _sample_rows, _support_sums, fit as mle_fit

__all__ = [
    "GammaPrior",
    "LossParams",
    "MhConfig",
    "IsConfig",
    "MhChains",
    "IsDraws",
    "BayesResult",
    "ProposalInvalidError",
    "run_mh_lockstep",
    "run_mh_gibbs",
    "importance_sample",
    "loss_estimates",
]

LOSSES = ("sel", "linex", "entropy")


class ProposalInvalidError(ValueError):
    """Importance proposal for beta is not a distribution for this dataset."""


@dataclass(frozen=True)
class GammaPrior:
    """Gamma(a, b) prior on alpha and Gamma(c, d) prior on beta (shape, rate)."""

    a: float = 2.0
    b: float = 2.0
    c: float = 2.0
    d: float = 2.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v > 0 for v in (self.a, self.b, self.c, self.d)):
            raise ValueError("all four hyperparameters must be positive finite reals")


@dataclass(frozen=True)
class LossParams:
    g: float = 1.0
    q: float = 1.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v != 0 for v in (self.g, self.q)):
            raise ValueError("loss constants g and q must be nonzero finite reals")


@dataclass(frozen=True)
class MhConfig:
    chain_length: int = 11000
    burn_in: int = 1000
    proposal_sd: float | None = None  # default 0.1*|beta_hat| with floor 0.01
    init: ChenParams | None = None  # default: the MLE
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (0 <= self.burn_in < self.chain_length):
            raise ValueError("need 0 <= burn_in < chain_length")
        if self.proposal_sd is not None and not (
                math.isfinite(self.proposal_sd) and self.proposal_sd > 0):
            raise ValueError("proposal_sd must be a positive finite real")


@dataclass(frozen=True)
class IsConfig:
    draws: int = 10000
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.draws < 1:
            raise ValueError("draws must be >= 1")


@dataclass(frozen=True)
class MhChains:
    alpha: np.ndarray
    beta: np.ndarray
    burn_in: int
    acceptance_rate: float
    acceptance_warning: bool


@dataclass(frozen=True)
class IsDraws:
    alpha: np.ndarray
    beta: np.ndarray
    log_weight: np.ndarray


@dataclass(frozen=True)
class BayesResult:
    alpha: dict[str, float]
    beta: dict[str, float]
    loss: LossParams
    diagnostics: dict = field(default_factory=dict)


def run_mh_lockstep(samples: Sequence[CensoredSample], prior: GammaPrior,
                    cfgs: Sequence[MhConfig]) -> list[MhChains]:
    """Run one Metropolis-within-Gibbs chain per (sample, config) pair in lockstep.

    Each iteration advances every chain by one exact alpha draw and one
    random-walk MH move on beta.  The samples' weighted supports are padded
    with zero weights to the width m + 1 of their shared plan, and each row
    is reduced on its own, so a chain's path does not depend on which chains
    share its batch.  Chain r pre-draws its uniforms, normals and alpha
    gammas, in that order, from `default_rng(cfgs[r].seed)`.

    The loop only decides acceptances, in 13 numpy calls an iteration.
    Each chain keeps its state (beta, the sum of x^beta over the failures,
    nu(beta), ln beta) next to that of its proposal, and the log acceptance
    ratio is one dot product of their difference with the chain's
    coefficients (-(d - sum ln x), 1, -alpha, d2 + c - 1), plus a second
    copy of ln beta with coefficient 0 that rejects proposals <= 0 (see the
    comment at the state).  The alpha draws
    are kept in the coefficient rows, and the beta path is rebuilt
    afterwards as the running sum of the accepted steps, which repeats the
    loop's own additions.
    """
    if not samples or len(samples) != len(cfgs):
        raise ValueError("need one MhConfig per sample, and at least one sample")
    n = cfgs[0].chain_length
    width = samples[0].plan.m + 1
    if any(cfg.chain_length != n for cfg in cfgs) or any(
            s.plan.m + 1 != width for s in samples):
        raise ValueError("lockstep chains need one chain_length and one plan size m")

    k = len(samples)
    rows = _sample_rows(samples, width=width)
    lnx, weight, failure = rows.lnx, rows.weights, rows.failure
    # each chain's streams, one row a chain: log-uniforms, the initial beta
    # followed by the proposal steps, and the coefficients of the log
    # acceptance ratio at each iteration, whose alpha column holds the
    # gamma draws until the loop turns them into -alpha
    log_unif = np.empty((k, n))
    steps = np.empty((k, n + 1))
    coefs = np.empty((k, n, 5))
    coefs[...] = np.stack((rows.sum_lnx - prior.d, np.ones(k), np.zeros(k),
                           rows.d2 + prior.c - 1.0, np.zeros(k)), axis=-1)[:, None]
    for r, (s, cfg) in enumerate(zip(samples, cfgs)):
        init = cfg.init if cfg.init is not None else mle_fit(s).params_hat
        sd = cfg.proposal_sd if cfg.proposal_sd is not None else max(0.1 * abs(init.beta), 0.01)
        rng = np.random.default_rng(cfg.seed)
        log_unif[r] = rng.random(n)
        steps[r, 0] = init.beta
        steps[r, 1:] = sd * rng.standard_normal(n)
        coefs[r, :, 2] = rng.standard_gamma(s.d2 + prior.a, n)
    np.log(log_unif, out=log_unif)
    moves = np.zeros((k, n), dtype=bool)
    # the state of each chain and of its proposal: beta, the sum of x^beta
    # over the failures, nu(beta) and ln beta twice.  The second ln beta has
    # coefficient 0, so a proposal <= 0 gives a nan delta and is rejected: a
    # negative one has a nan log, and at 0 the -inf log makes 0 * -inf,
    # where (d2 + c - 1) * -inf alone would be +inf for d2 + c < 1.  A
    # proposal whose x_b^beta overflows gives a nan delta too.
    cur, cand = np.empty((2, k, 5))
    beta, _, nu_cur = cur.T[:3]
    proposal, sum_t, nu = cand.T[:3]
    proposal_col = cand[:, :1]
    log_beta = cand[:, 3:]
    proposal_twice = np.broadcast_to(proposal_col, log_beta.shape)
    diff = np.empty((k, 5))
    neg_rate = np.empty(k)
    delta = np.empty((k, 1))
    t = np.empty((k, width))
    e = np.empty((k, width))
    with np.errstate(all="ignore"):
        beta[:] = steps[:, 0]
        cur[:, 1], cur[:, 2] = _support_sums(lnx, weight, failure, beta)
        np.log(np.broadcast_to(cur[:, :1], log_beta.shape), out=cur[:, 3:])
        for step, lu, coef, neg_alpha, move in zip(
                steps.T[1:], log_unif.T[:, :, None], coefs.transpose(1, 0, 2),
                coefs[:, :, 2].T, moves.T[:, :, None]):
            np.subtract(-prior.b, nu_cur, out=neg_rate)
            np.divide(neg_alpha, neg_rate, out=neg_alpha)
            np.add(beta, step, out=proposal)
            # `_support_sums` of the proposals, in place
            np.multiply(proposal_col, lnx, out=t)
            np.exp(t, out=t)
            np.expm1(t, out=e)
            np.vecdot(failure, t, out=sum_t)
            np.vecdot(weight, e, out=nu)
            np.log(proposal_twice, out=log_beta)
            np.subtract(cand, cur, out=diff)
            np.vecdot(diff, coef, out=delta[:, 0])
            np.less(lu, delta, out=move)
            np.copyto(cur, cand, where=move)
    # beta after each iteration: the running sum of the accepted steps
    np.multiply(steps[:, 1:], moves, out=steps[:, 1:])
    betas = np.add.accumulate(steps, axis=1, out=steps)[:, 1:]
    alphas = np.negative(coefs[:, :, 2])
    accepted = np.count_nonzero(moves, axis=1)
    chains = []
    for r, cfg in enumerate(cfgs):
        rate = float(accepted[r] / n)
        chains.append(MhChains(
            alpha=alphas[r],
            beta=betas[r],
            burn_in=cfg.burn_in,
            acceptance_rate=rate,
            acceptance_warning=not (0.1 <= rate <= 0.6),
        ))
    return chains


def run_mh_gibbs(s: CensoredSample, prior: GammaPrior,
                 cfg: MhConfig | None = None) -> MhChains:
    """Alternate the exact alpha draw and the beta MH step for N iterations."""
    return run_mh_lockstep([s], prior, [cfg or MhConfig()])[0]


def _gamma_logpdf(x, shape: float, rate):
    """Log-density of Gamma(shape, rate) at x > 0."""
    xr = x * rate
    return (shape - 1.0) * np.log(xr) - xr - math.lgamma(shape) + np.log(rate)


def importance_sample(s: CensoredSample, prior: GammaPrior,
                      cfg: IsConfig | None = None) -> IsDraws:
    """Weighted posterior draws via the gamma proposal factorization.

    Requires d > sum(ln x_i) for the beta proposal rate to be positive;
    otherwise the proposal is not a distribution and we refuse (use the
    MH sampler instead).
    """
    cfg = cfg or IsConfig()
    rng = np.random.default_rng(cfg.seed)
    drate = prior.d - s.sum_lnx
    if drate <= 0:
        raise ProposalInvalidError(
            f"beta proposal rate d - sum(ln x) = {drate:.4g} is not positive for this "
            "dataset; the importance sampler is invalid here, use the MH sampler"
        )
    shape_b = s.d2 + prior.c
    shape_a = s.d2 + prior.a
    betas = rng.gamma(shape=shape_b, scale=1.0 / drate, size=cfg.draws)

    # nu of all units and of the censored ones alone (weights R_i, then b),
    # which is all the alpha proposal's rate keeps
    weights = np.stack((s.weights, s.weights - s.failure))[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sum_t, (nu_all, cens) = _support_sums(s.log_support, weights, s.failure, betas)
        cens_rate = prior.b + cens
        alphas = rng.gamma(shape=shape_a, scale=1.0 / cens_rate)
        log_kernel = (
            (shape_a - 1.0) * np.log(alphas)
            - alphas * (prior.b + nu_all)
            + (shape_b - 1.0) * np.log(betas)
            - betas * drate
            + sum_t
        )
        log_w = (
            log_kernel
            - _gamma_logpdf(betas, shape_b, drate)
            - _gamma_logpdf(alphas, shape_a, cens_rate)
        )
    # proposal draws far enough in the beta tail overflow e^(x^beta); their
    # target density is zero there, so they carry no weight
    usable = np.isfinite(log_w) & (alphas > 0)
    if not np.any(usable):
        raise ProposalInvalidError("all importance weights degenerate for this dataset")
    alphas, betas, log_w = alphas[usable], betas[usable], log_w[usable]
    log_w -= np.max(log_w)
    return IsDraws(alpha=alphas, beta=betas, log_weight=log_w)


def _logsumexp(v: np.ndarray) -> np.ndarray:
    """log sum exp(v) over the last axis; a row whose largest entry is not
    finite gives that entry."""
    m = np.max(v, axis=-1)
    with np.errstate(invalid="ignore"):  # inf - inf in such rows, not used
        total = np.log(np.exp(v - m[..., None]).sum(axis=-1))
    return np.where(np.isfinite(m), m + total, m)


def _loss_rows(values: np.ndarray, log_w: np.ndarray, loss: LossParams) -> dict[str, np.ndarray]:
    """SEL, LINEX and entropy point estimates of rows of weighted draws.

    `values` holds one row of draws along its last axis, and `log_w` their
    log weights, broadcast against it.  Padding has log-weight -inf and
    value 1, so it adds to no sum.  Each row is reduced on its own, so its
    estimates do not depend on the rows beside it, only on its width.
    `loss_estimates` is the one-row call.
    """
    log_z = _logsumexp(log_w)
    w = np.exp(log_w - log_z[..., None])
    sel = np.vecdot(w, values)
    linex = -(_logsumexp(log_w - loss.g * values) - log_z) / loss.g
    with np.errstate(over="ignore", invalid="ignore"):
        powered = values**-loss.q
        entropy = np.vecdot(w, powered) ** (-1.0 / loss.q)
    overflowed = ~np.all(np.isfinite(powered), axis=-1)
    if np.any(overflowed):
        in_logs = np.exp(-(_logsumexp(log_w - loss.q * np.log(values)) - log_z) / loss.q)
        entropy = np.where(overflowed, in_logs, entropy)
    return {"sel": sel, "linex": linex, "entropy": entropy}


def loss_estimates(result: MhChains | IsDraws,
                   loss: LossParams | None = None) -> BayesResult:
    """SEL / LINEX / entropy point estimates for both parameters.

    MH chains contribute uniform weights over the post-burn-in states;
    importance draws contribute their self-normalized weights.
    """
    loss = loss or LossParams()
    if isinstance(result, MhChains):
        alpha = result.alpha[result.burn_in:]
        beta = result.beta[result.burn_in:]
        log_w = np.zeros(alpha.size)
        diagnostics = {
            "sampler": "mh",
            "acceptance_rate": result.acceptance_rate,
            "acceptance_warning": result.acceptance_warning,
            "post_burn_in": int(alpha.size),
        }
    else:
        alpha, beta, log_w = result.alpha, result.beta, result.log_weight
        w = np.exp(log_w - _logsumexp(log_w))
        diagnostics = {
            "sampler": "is",
            "effective_sample_size": float(1.0 / np.max(w)),
            "kish_ess": float(1.0 / (w @ w)),
            "weight_entropy": float(-np.sum(w * np.log(np.where(w > 0, w, 1.0)))),
            "draws": int(alpha.size),
        }
    if alpha.size == 0:
        raise ValueError("no post-burn-in draws")
    est = _loss_rows(np.stack((alpha, beta)), log_w, loss)
    return BayesResult(
        alpha={name: float(v[0]) for name, v in est.items()},
        beta={name: float(v[1]) for name, v in est.items()},
        loss=loss,
        diagnostics=diagnostics,
    )
