"""Improved adaptive Type-II progressive censoring: plans, simulation, ingestion.

A lifetime test on n units targets m failures with a pre-planned removal
vector R and two thresholds t1 < t2.  Removals are applied only at
failures observed strictly before t1; the test hard-terminates at t2.
The realized experiment falls in one of three cases:

  Case 1  all m failures before t1            (removals fully applied)
  Case 2  m-th failure in [t1, t2)            (survivors censored at x_m)
  Case 3  fewer than m failures by t2         (survivors censored at t2)
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .chen import ChenParams, sample as chen_sample

__all__ = [
    "Case",
    "CensoringPlan",
    "CensoredSample",
    "InconsistentSampleError",
    "simulate_experiment",
    "classify",
    "load_sample",
]


class InconsistentSampleError(ValueError):
    """Observed times cannot have arisen under the stated plan."""


class Case(enum.Enum):
    CASE1 = 1
    CASE2 = 2
    CASE3 = 3


@dataclass(frozen=True)
class CensoringPlan:
    """Pre-experiment design: n units, m target failures, removals, thresholds."""

    n: int
    m: int
    removals: tuple[int, ...]
    t1: float
    t2: float

    def __post_init__(self) -> None:
        if not (1 <= self.m <= self.n):
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        object.__setattr__(self, "removals", tuple(int(r) for r in self.removals))
        if len(self.removals) != self.m:
            raise ValueError("removal vector must have length m")
        if any(r < 0 for r in self.removals):
            raise ValueError("removals must be non-negative")
        if sum(self.removals) + self.m != self.n:
            raise ValueError("sum(removals) + m must equal n")
        if not (0 < self.t1 < self.t2):
            raise ValueError("need 0 < t1 < t2")


@dataclass(frozen=True)
class CensoredSample:
    """Realized experiment outcome plus the likelihood coefficients.

    `effective_removals[i]` is the number of survivors withdrawn at the
    i-th failure (the planned R_i when x_i < t1, else 0).  `b` units are
    censored at the terminal time `x_b`.  d1 counts the failure times
    carrying removals, d2 the observed failures.

    The likelihood's weighted support is cached once per sample:
    `log_support` holds ln x_i for the d2 failures, then ln x_b when b > 0;
    `weights` holds 1 + R_i for the failures, then b; `failure` holds 1 for
    the failures, then 0; `sum_lnx` is the sum of ln x_i over the failures.
    """

    times: np.ndarray
    case: Case
    effective_removals: np.ndarray
    d1: int
    d2: int
    b: int
    x_b: float
    plan: CensoringPlan = field(repr=False)
    log_support: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    failure: np.ndarray = field(init=False, repr=False, compare=False)
    sum_lnx: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        rem = np.asarray(self.effective_removals, dtype=int)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "effective_removals", rem)
        if self.d2 != times.size or rem.size != times.size:
            raise InconsistentSampleError("d2 must equal the number of observed times")
        if self.d2 + int(rem.sum()) + self.b != self.plan.n:
            raise InconsistentSampleError("unit conservation d2 + sum(removals) + b = n violated")
        if self.d1 > self.d2 or self.b < 0:
            raise InconsistentSampleError("invalid censoring coefficients")
        coef = 1.0 + rem.astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lnx = np.log(times)
            if self.b > 0:
                lnx_all = np.append(lnx, np.log(self.x_b))
                coef_all = np.append(coef, float(self.b))
            else:
                lnx_all, coef_all = lnx, coef
        failure = (np.arange(lnx_all.size) < self.d2).astype(float)
        for name, arr in (("log_support", lnx_all), ("weights", coef_all),
                          ("failure", failure)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "sum_lnx", float(np.sum(lnx)))


def _assemble(times, plan: CensoringPlan, case: Case, b: int, x_b: float,
              removals) -> CensoredSample:
    times = np.asarray(times, dtype=float)
    return CensoredSample(
        times=times,
        case=case,
        effective_removals=np.asarray(removals, dtype=int),
        d1=int(np.count_nonzero(times < plan.t1)),
        d2=times.size,
        b=int(b),
        x_b=float(x_b),
        plan=plan,
    )


def simulate_experiment(plan: CensoringPlan, params: ChenParams,
                        rng: np.random.Generator) -> CensoredSample:
    """Run one experiment by sequential observation of latent lifetimes.

    Draws n iid lifetimes, repeatedly observes the minimum among the
    surviving pool as the next failure, applies the planned removal when
    the failure precedes t1, and terminates per the three-case logic.
    """
    lifetimes = chen_sample(params, rng, plan.n)
    alive = np.ones(plan.n, dtype=bool)
    times: list[float] = []
    applied: list[int] = []

    while True:
        alive_idx = np.flatnonzero(alive)
        if alive_idx.size == 0:
            # planned removals exhausted the pool early (defensive; cannot
            # happen when sum(R) + m = n holds exactly)
            case = Case.CASE1 if (times and times[-1] < plan.t1) else Case.CASE2
            return _assemble(times, plan, case, 0, times[-1], applied)
        nxt = alive_idx[np.argmin(lifetimes[alive_idx])]
        x = float(lifetimes[nxt])
        if x >= plan.t2:
            # hard termination: survivors censored at t2
            return _assemble(times, plan, Case.CASE3, alive_idx.size, plan.t2, applied)
        times.append(x)
        alive[nxt] = False
        i = len(times)
        if x < plan.t1:
            survivors = np.flatnonzero(alive)
            r = min(plan.removals[i - 1], survivors.size)
            if r > 0:
                drop = rng.choice(survivors, size=r, replace=False)
                alive[drop] = False
            applied.append(r)
        else:
            applied.append(0)
        if i == plan.m:
            case = Case.CASE1 if x < plan.t1 else Case.CASE2
            return _assemble(times, plan, case, int(alive.sum()), x, applied)


def classify(times, plan: CensoringPlan) -> CensoredSample:
    """Deterministically extract the likelihood coefficients for observed times.

    Pure and idempotent; raises InconsistentSampleError when the times
    cannot have arisen under the plan.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise InconsistentSampleError("no observed failure times")
    if times.size > plan.m:
        raise InconsistentSampleError(f"{times.size} failures exceed the target m={plan.m}")
    if np.any(np.diff(times) < 0):
        raise InconsistentSampleError("times must be sorted ascending")
    d2 = times.size
    last = float(times[-1])
    rem = np.where(times < plan.t1, np.asarray(plan.removals[:d2]), 0)
    if d2 == plan.m and last < plan.t1:
        case, b, x_b = Case.CASE1, 0, last
    elif d2 == plan.m and last < plan.t2:
        case = Case.CASE2
        b = plan.n - d2 - int(rem.sum())
        x_b = last
    else:
        if last >= plan.t2:
            raise InconsistentSampleError("failure observed at or beyond t2")
        case = Case.CASE3
        b = plan.n - d2 - int(rem.sum())
        x_b = plan.t2
    if b < 0:
        raise InconsistentSampleError("negative terminal censored count")
    return _assemble(times, plan, case, b, x_b, rem)


def load_sample(times, plan: CensoringPlan) -> CensoredSample:
    """Wrap externally observed failure times (e.g. real data) as a sample.

    Ties are kept in input order and treated as distinct ordered failures.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty data")
    if np.any(~np.isfinite(times)) or np.any(times <= 0):
        raise ValueError("failure times must be positive finite reals")
    times = np.sort(times, kind="stable")
    return classify(times, plan)
