"""Monte Carlo study engine: replicated experiments, and Bias / MSE /
coverage / interval-length aggregation.

Replications run in blocks, and a block calls each estimation kernel once:
one row-batched MLE fit of all its samples, one lockstep call for all its
MH chains and one row-batched loss call per sampler; only the simulator and
the importance sampler run once per replication.  A block keeps each
estimator's results as one array, a row per replication, from the kernels
to the report, which one loop builds from the concatenated blocks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bayes, mle
from .censoring import (SCHEME_KINDS, CensoredSample, CensoringPlan, build_scheme,
                        simulate_experiment)
from .chen import ChenParams

__all__ = [
    "Scenario",
    "StudyReport",
    "build_scheme",
    "run_study",
    "paper_grid",
    "REPORT_COLUMNS",
]

# sampler sizes per replication; smaller than the one-shot analysis
# defaults of `bayes.MhConfig` and `bayes.IsConfig`, to keep large grids
# tractable
MH_CHAIN_LENGTH = 2000
MH_BURN_IN = 500
IS_DRAWS = 2000

# replications in one block, whose MH chains step together in one lockstep
# call; bounds the (block, chain_length) arrays of pre-drawn streams and of
# the realised path a block holds.  A block this large makes lockstep
# passes of one iteration each.
MH_BLOCK = 256

# frozen report schema: one row per scenario x estimator x parameter x loss
REPORT_COLUMNS = (
    "n", "m", "scheme", "t1", "t2", "estimator", "parameter", "loss",
    "bias", "mse", "coverage", "avg_ci_length", "replications_used", "failures",
)


@dataclass(frozen=True)
class Scenario:
    n: int
    m: int
    scheme: str | tuple[int, ...]
    t1: float
    t2: float
    true_params: ChenParams
    replications: int = 2000
    estimators: frozenset = frozenset({"mle"})
    prior: bayes.GammaPrior = bayes.GammaPrior()
    loss: bayes.LossParams = bayes.LossParams()
    ci_level: float = 0.95
    seed: int = 0

    def plan(self) -> CensoringPlan:
        removals = (build_scheme(self.scheme, self.n, self.m)
                    if isinstance(self.scheme, str) else tuple(self.scheme))
        return CensoringPlan(n=self.n, m=self.m, removals=removals, t1=self.t1, t2=self.t2)

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie in (0, 1)")
        if not self.estimators:
            raise ValueError("estimators must name at least one of mle, mh, is")
        bad = set(self.estimators) - {"mle", "mh", "is"}
        if bad:
            raise ValueError(f"unknown estimators: {sorted(bad)}")
        self.plan()  # validate scheme/plan eagerly


@dataclass
class StudyReport:
    scenario: Scenario
    rows: list[dict] = field(default_factory=list)
    case_frequencies: dict[int, float] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)

    def to_rows(self) -> list[dict]:
        scn = self.scenario
        scheme = scn.scheme if isinstance(scn.scheme, str) else "custom"
        out = []
        for row in self.rows:
            flat = {
                "n": scn.n, "m": scn.m, "scheme": scheme,
                "t1": scn.t1, "t2": scn.t2,
            }
            flat.update(row)
            out.append({k: flat.get(k) for k in REPORT_COLUMNS})
        return out


def _one_replication(scn: Scenario, plan: CensoringPlan,
                     rep: int) -> tuple[np.random.Generator, CensoredSample]:
    """Replication `rep`'s random stream and its simulated sample.

    The stream is counter-based, `default_rng([scn.seed, rep])`, and gives,
    in order: the sample, the MH seed (drawn only when the fit of the sample
    succeeded) and the IS seed.  It is returned positioned after the sample.
    """
    rng = np.random.default_rng([scn.seed, rep])
    return rng, simulate_experiment(plan, scn.true_params, rng)


def _replicate_block(scn: Scenario, plan: CensoringPlan, start: int,
                     stop: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Replications start..stop-1, with one call of each kernel for the block.

    Returns each replication's censoring case and, per estimator, one
    (replications, 2, 3) array over (alpha, beta): the MLE's estimate and
    Wald interval ends, or a sampler's SEL, LINEX and entropy estimates;
    nan where the replication has no estimate.

    Every replication is simulated first.  One `mle._fit_rows` call then
    fits all the samples, and only then does each replication draw its MH
    and IS seeds from its own stream.  The MH chains step in one lockstep
    call, IS runs once per replication, and the loss estimates of each
    sampler come from one `bayes._loss_rows` call.  MH rows are
    `MH_CHAIN_LENGTH - MH_BURN_IN` draws wide; IS rows are padded to
    `IS_DRAWS`, so no row's sums depend on its block.
    """
    streams, samples = zip(*(_one_replication(scn, plan, rep) for rep in range(start, stop)))
    estimates = {name: np.full((len(samples), 2, 3), np.nan) for name in scn.estimators}
    if scn.estimators & {"mle", "mh"}:
        fits = mle._fit_rows(mle._sample_rows(samples, width=plan.m + 1))
        fitted = ~np.isnan(fits.alpha)
        if "mle" in scn.estimators:
            theta = np.stack((fits.alpha, fits.beta), axis=-1)
            lower, upper, usable = mle._wald_rows(theta, fits.varcov, scn.ci_level)
            ok = fitted & usable
            estimates["mle"][ok] = np.stack((theta, lower, upper), axis=-1)[ok]
    mh_rows, mh_samples, mh_cfgs = [], [], []
    is_rows, is_draws = [], []
    for r, (rng, sample) in enumerate(zip(streams, samples)):
        if "mh" in scn.estimators and fitted[r]:
            mh_rows.append(r)
            mh_samples.append(sample)
            mh_cfgs.append(bayes.MhConfig(
                chain_length=MH_CHAIN_LENGTH,
                burn_in=MH_BURN_IN,
                init=ChenParams(float(fits.alpha[r]), float(fits.beta[r])),
                seed=int(rng.integers(2**63)),
            ))
        if "is" in scn.estimators:
            try:
                is_draws.append(bayes.importance_sample(
                    sample, scn.prior,
                    bayes.IsConfig(draws=IS_DRAWS, seed=int(rng.integers(2**63)))))
            except bayes.ProposalInvalidError:
                continue
            is_rows.append(r)
    samplers = []
    if mh_rows:
        chains = bayes.run_mh_lockstep(mh_samples, scn.prior, mh_cfgs)
        values = np.array([(c.alpha[MH_BURN_IN:], c.beta[MH_BURN_IN:]) for c in chains])
        samplers.append(("mh", mh_rows, values, np.zeros((len(chains), 1, values.shape[-1]))))
    if is_rows:
        values = np.ones((len(is_draws), 2, IS_DRAWS))
        log_w = np.full((len(is_draws), 1, IS_DRAWS), -np.inf)
        for row, draws in enumerate(is_draws):
            size = draws.alpha.size
            values[row, :, :size] = draws.alpha, draws.beta
            log_w[row, 0, :size] = draws.log_weight
        samplers.append(("is", is_rows, values, log_w))
    for name, rows, values, log_w in samplers:
        est = bayes._loss_rows(values, log_w, scn.loss)
        estimates[name][rows] = np.stack([est[loss] for loss in bayes.LOSSES], axis=-1)
    return np.array([s.case.value for s in samples]), estimates


def _aggregate(scn: Scenario, blocks: list[tuple[np.ndarray, dict]]) -> StudyReport:
    """The report of the blocks' cases and estimates, in replication order.

    A replication's estimate of alpha (the MLE, or a sampler's SEL) is
    finite whenever it has one, so a nan there marks a failure.  The MLE's
    only loss is "none", and its interval ends give the coverage and the
    interval length.
    """
    report = StudyReport(scenario=scn)
    cases = np.concatenate([block[0] for block in blocks])
    n_rep = cases.size
    report.case_frequencies = {c: float(np.mean(cases == c)) for c in (1, 2, 3)}
    truth = (scn.true_params.alpha, scn.true_params.beta)
    for estimator in sorted(scn.estimators):
        est = np.concatenate([block[1][estimator] for block in blocks])
        est = est[~np.isnan(est[:, 0, 0])]
        used = est.shape[0]
        report.failures[estimator] = n_rep - used
        if not used:
            continue
        losses = ("none",) if estimator == "mle" else bayes.LOSSES
        for i, param in enumerate(("alpha", "beta")):
            for j, loss_name in enumerate(losses):
                row = {
                    "estimator": estimator, "parameter": param, "loss": loss_name,
                    "bias": float(np.mean(est[:, i, j]) - truth[i]),
                    "mse": float(np.mean((est[:, i, j] - truth[i]) ** 2)),
                    "coverage": None,
                    "avg_ci_length": None,
                    "replications_used": used,
                    "failures": n_rep - used,
                }
                if estimator == "mle":
                    lower, upper = est[:, i, 1], est[:, i, 2]
                    row["coverage"] = float(np.mean((lower <= truth[i]) & (truth[i] <= upper)))
                    row["avg_ci_length"] = float(np.mean(upper - lower))
                report.rows.append(row)
    if all(report.failures.get(e, 0) == n_rep for e in scn.estimators):
        raise RuntimeError("every replication failed for every estimator")
    return report


def run_study(scn: Scenario, workers: int = 1) -> StudyReport:
    """Replicate the scenario and aggregate bias/MSE (and CI metrics for MLE).

    Replications run in contiguous blocks of at most `MH_BLOCK`, split
    evenly over the workers; the rows do not depend on the split.
    """
    plan = scn.plan()
    total = scn.replications
    size = min(MH_BLOCK, -(-total // max(workers, 1)))
    starts = range(0, total, size)
    stops = [min(start + size, total) for start in starts]
    if workers > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_replicate_block, [scn] * len(stops),
                                   [plan] * len(stops), starts, stops))
    else:
        blocks = [_replicate_block(scn, plan, a, b) for a, b in zip(starts, stops)]
    return _aggregate(scn, blocks)


def paper_grid(replications: int = 2000, seed: int = 0,
               estimators: frozenset = frozenset({"mle", "mh", "is"})) -> list[Scenario]:
    """The 3 sizes x 4 schemes x 2 threshold-pair study grid."""
    scenarios = []
    for n, m in ((15, 5), (20, 10), (30, 15)):
        for kind in SCHEME_KINDS:
            for t1, t2 in ((0.4, 4.0), (1.0, 7.0)):
                scenarios.append(Scenario(
                    n=n, m=m, scheme=kind, t1=t1, t2=t2,
                    true_params=ChenParams(0.2, 0.5),
                    replications=replications,
                    estimators=estimators,
                    prior=bayes.GammaPrior(2.0, 2.0, 2.0, 2.0),
                    loss=bayes.LossParams(g=1.0, q=1.0),
                    seed=seed,
                ))
    return scenarios
