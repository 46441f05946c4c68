"""Bayesian estimation under independent gamma priors.

Two samplers target the same unnormalized posterior: a Metropolis-within-
Gibbs chain (exact gamma draw for alpha, random-walk MH for beta) and a
self-normalized importance sampler whose gamma proposals mirror the
posterior factorization.  Point estimates are reported under squared
error, LINEX and entropy loss.

Both kernels work on rows.  `run_mh_lockstep` steps many chains at once,
one chain a row, in a loop that only decides acceptances: each pass
evaluates every proposal the next L iterations of each chain can make and
decides those L iterations, with L from 1 to 4 set by the batch size and
the support width, and every chain is the same bit for bit at any L.
`run_mh_gibbs` is its one-chain call.  `_loss_rows` forms the loss
estimates of many rows of weighted draws at once; `loss_estimates` is its
one-row call.
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


# A lockstep pass decides L iterations of every chain (prefetching,
# Brockwell 2006, J. Comput. Graph. Statist. 15:246).  The next L accept or
# reject decisions of a random-walk chain can reach 2^L - 1 distinct
# proposals, and the pass evaluates all of them at once, in arrays of
# chains x (2^L - 1) x (m + 1) values.  A deeper pass makes fewer numpy
# calls an iteration but more arithmetic, so L is the deepest depth up to
# _MAX_DEPTH whose arrays hold at most _PASS_ELEMENTS values.  The budget
# is measured: over 1 to 256 chains and widths 3 to 31 on one core, any
# budget from 1500 to 2500 picked a depth within 3% of the fastest on
# average.
_MAX_DEPTH = 4
_PASS_ELEMENTS = 2400
# The streams are laid out by node _CHUNK_PASSES passes at a time, so that
# this copy, (2^L - 1) / L times their size, adds little memory however
# long the chains.
_CHUNK_PASSES = 64


def _depth(chains: int, width: int) -> int:
    """Iterations one lockstep pass decides for `chains` chains of
    support width `width`."""
    depth = 1
    while depth < _MAX_DEPTH and chains * (2 ** (depth + 1) - 1) * width <= _PASS_ELEMENTS:
        depth += 1
    return depth


def run_mh_lockstep(samples: Sequence[CensoredSample], prior: GammaPrior,
                    cfgs: Sequence[MhConfig]) -> list[MhChains]:
    """Run one Metropolis-within-Gibbs chain per (sample, config) pair in lockstep.

    Each iteration advances every chain by one exact alpha draw and one
    random-walk MH move on beta.  The samples' weighted supports are padded
    with zero weights to the width m + 1 of their shared plan, and each row
    is reduced on its own, so a chain's path does not depend on which chains
    share its batch.  Chain r pre-draws its uniforms, normals and alpha
    gammas, in that order, from `default_rng(cfgs[r].seed)`.

    The loop only decides acceptances, L iterations of every chain a pass,
    with L from `_depth`; the streams are padded to whole passes.  The L
    decisions ahead of a chain form a binary tree of 2^L - 1 nodes, one
    proposal each: the beta of the state the node is proposed from (the
    chain's state at the start of the pass, or the proposal of the last
    node accepted on the way) plus the step of the node's iteration.  A
    pass forms the sums of all the proposals in one batch, then each
    node's alpha draw and log acceptance ratio from the state it is
    proposed from, with the operations of a single iteration: the log
    acceptance ratio is one dot product of the two states' difference
    with the chain's coefficients (-(d - sum ln x), 1, -alpha, d2 + c - 1,
    0).  Each chain then takes the state its own decisions lead to, so
    every chain is the same, bit for bit, at any depth and in any batch.
    After the loop the realised path and its alpha draws are read off the
    stored decisions, and the beta path is rebuilt as the running sum of
    the accepted steps, which repeats the loop's own additions: adding 0
    for a rejected step leaves the sum as it was.
    """
    if not samples or len(samples) != len(cfgs):
        raise ValueError("need one MhConfig per sample, and at least one sample")
    n = cfgs[0].chain_length
    width = samples[0].plan.m + 1
    if any(cfg.chain_length != n for cfg in cfgs) or any(
            s.plan.m + 1 != width for s in samples):
        raise ValueError("lockstep chains need one chain_length and one plan size m")

    k = len(samples)
    depth = _depth(k, width)
    nodes = 2**depth - 1
    passes = -(-n // depth)
    rows = _sample_rows(samples, width=width)
    # each chain's streams, one row a chain, padded to whole passes:
    # log-uniforms, the initial beta followed by the proposal steps, and the
    # alpha gammas
    log_unif, gammas = np.ones((2, k, passes * depth))
    steps = np.zeros((k, passes * depth + 1))
    for r, (s, cfg) in enumerate(zip(samples, cfgs)):
        init = cfg.init if cfg.init is not None else mle_fit(s).params_hat
        sd = cfg.proposal_sd if cfg.proposal_sd is not None else max(0.1 * abs(init.beta), 0.01)
        rng = np.random.default_rng(cfg.seed)
        log_unif[r, :n] = rng.random(n)
        steps[r, 0] = init.beta
        steps[r, 1:n + 1] = sd * rng.standard_normal(n)
        gammas[r, :n] = rng.standard_gamma(s.d2 + prior.a, n)
    np.log(log_unif, out=log_unif)

    # The states of a pass, by column: each chain's state at the start of
    # the pass, then the proposal of each node.  The nodes are in
    # breadth-first order: node 2^j - 1 + h decides iteration j of the pass
    # after the history h, whose bit i is the decision at iteration i.  A
    # state is (beta, the sum of x^beta over the failures, nu(beta), ln
    # beta, ln beta).  Node 2^j - 1 + h is proposed from state h, and after
    # iteration j a chain with history h is in state h or 2^j + h.  The
    # second ln beta has coefficient 0, so a proposal <= 0 gives a nan
    # delta and is rejected: a negative one has a nan log, and at 0 the
    # -inf log makes 0 * -inf, where (d2 + c - 1) * -inf alone would be
    # +inf for d2 + c < 1.  A proposal whose x_b^beta overflows gives a
    # nan delta too.
    states = np.empty((5, 2**depth, k))
    cand = states[:, 1:]
    cand_beta, cand_sums, cand_logs = cand[0, :, :, None], cand[1:3], cand[3:]
    cand_beta_twice = np.broadcast_to(cand[:1], cand_logs.shape)
    # each node's state of origin
    origin = np.concatenate([np.arange(2**j) for j in range(depth)])
    cur = np.empty((5, nodes, k))
    # the differences and the coefficients are rows of five, as in a
    # single iteration's dot product
    diff, coefs = np.empty((2, nodes, k, 5))
    coefs[...] = np.stack((rows.sum_lnx - prior.d, np.ones(k), np.zeros(k),
                           rows.d2 + prior.c - 1.0, np.zeros(k)), axis=-1)
    diff_by_column, nu_cur, coef_alpha = diff.transpose(2, 0, 1), cur[2], coefs[:, :, 2]
    neg_rate, delta = np.empty((2, nodes, k))
    # x^beta and e^(x^beta) - 1 at each proposal, and the failure
    # indicators and weights they are summed with
    powers = np.empty((2, nodes, k, width))
    t, e = powers
    indicators = np.stack((rows.failure, rows.weights))[:, None]
    # by iteration j of a pass: its nodes, the betas its proposals are made
    # from and its proposals, and the states its decisions choose between
    at_level = [slice(2**j - 1, 2**(j + 1) - 1) for j in range(depth)]
    grow = [(states[0, :2**j].reshape(-1), states[0, 2**j:2**(j + 1)].reshape(-1))
            for j in range(depth)]
    fold = [(states[:, :2**j], states[:, 2**j:2**(j + 1)]) for j in range(depth)][::-1]
    # the realised path, by pass, iteration and chain: the decision and the
    # alpha drawn at each iteration
    moves = np.empty((passes, depth, k), dtype=bool)
    alphas = np.empty((passes, depth, k))
    # per pass of a chunk, node and chain: the step, the log-uniform and
    # the alpha gamma of the node's iteration, and the node's decision; the
    # gammas turn into -alpha in place
    node_streams = np.empty((3, min(passes, _CHUNK_PASSES), nodes, k))
    node_decided = np.empty(node_streams.shape[1:], dtype=bool)
    with np.errstate(all="ignore"):
        beta = steps[:, 0]
        states[0, 0] = beta
        states[1, 0], states[2, 0] = _support_sums(rows.lnx, rows.weights, rows.failure, beta)
        np.log(np.broadcast_to(beta, (2, k)), out=states[3:, 0])
        for first in range(0, passes, _CHUNK_PASSES):
            chunk = slice(first, first + _CHUNK_PASSES)
            count = min(_CHUNK_PASSES, passes - first)
            node_steps, node_lu, neg_alpha = node_streams[:, :count]
            decided = node_decided[:count]
            for by_node, stream in zip((node_steps, node_lu, neg_alpha),
                                       (steps[:, 1:], log_unif, gammas)):
                by_pass = stream.reshape(k, passes, depth)[:, chunk].transpose(1, 2, 0)
                for j, at in enumerate(at_level):
                    by_node[:, at] = by_pass[:, j, None]
            for pass_steps, lu, alpha, move, pass_moves in zip(
                    zip(*(node_steps[:, at].reshape(count, -1) for at in at_level)),
                    node_lu, neg_alpha, decided, zip(*(decided[:, at] for at in at_level[::-1]))):
                for (src, dst), step in zip(grow, pass_steps):
                    np.add(src, step, out=dst)
                # `_support_sums` of the proposals, in place
                np.multiply(cand_beta, rows.lnx, out=t)
                np.exp(t, out=t)
                np.expm1(t, out=e)
                np.vecdot(indicators, powers, out=cand_sums)
                np.log(cand_beta_twice, out=cand_logs)
                np.take(states, origin, axis=1, out=cur, mode="clip")
                np.subtract(cand, cur, out=diff_by_column)
                np.subtract(-prior.b, nu_cur, out=neg_rate)
                np.divide(alpha, neg_rate, out=alpha)
                np.copyto(coef_alpha, alpha)
                np.vecdot(diff, coefs, out=delta)
                np.less(lu, delta, out=move)
                # from the last iteration back, the state that history h
                # reaches after iteration j: that of history h, or of
                # 2^j + h where node 2^j - 1 + h accepts
                for (lo, hi), accept in zip(fold, pass_moves):
                    np.copyto(lo, hi, where=accept)
            # the realised path: at iteration j, node 2^j - 1 + h, with h
            # the decisions before it
            path_moves, path_alphas = moves[chunk], alphas[chunk]
            path_moves[:, 0], path_alphas[:, 0] = decided[:, 0], neg_alpha[:, 0]
            history = path_moves[:, :1].astype(np.intp)
            for j in range(1, depth):
                node = history + (2**j - 1)
                path_moves[:, j:j + 1] = np.take_along_axis(decided, node, axis=1)
                path_alphas[:, j:j + 1] = np.take_along_axis(neg_alpha, node, axis=1)
                history += path_moves[:, j:j + 1] << j
    moves = moves.reshape(-1, k).T[:, :n]
    alphas = np.negative(alphas.reshape(-1, k).T[:, :n], order="C")
    # beta after each iteration: the running sum of the accepted steps
    steps = steps[:, :n + 1]
    np.multiply(steps[:, 1:], moves, out=steps[:, 1:])
    betas = np.add.accumulate(steps, axis=1, out=steps)[:, 1:]
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
    shape_a = s.d2 + prior.a
    betas = rng.gamma(shape=s.d2 + prior.c, scale=1.0 / drate, size=cfg.draws)

    # nu of the failures alone (weights 1) and of the censored units alone
    # (weights R_i, then b); the alpha proposal's rate keeps the second.  The
    # target kernel less the two gamma proposal log-densities is then
    # sum x^beta - alpha nu_fail - (d2 + a) ln(b + nu_cens), up to a
    # constant that the normalisation below drops
    weights = np.stack((s.failure, s.weights - s.failure))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        sum_t, (nu_fail, nu_cens) = _support_sums(s.log_support, weights, s.failure, betas)
        cens_rate = prior.b + nu_cens
        alphas = rng.gamma(shape=shape_a, scale=1.0 / cens_rate)
        log_w = sum_t - alphas * nu_fail - shape_a * np.log(cens_rate)
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
