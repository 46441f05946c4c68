"""Shared fixtures: the bundled dataset and censored-sample factories."""
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from chencensor.censoring import CensoringPlan, classify, simulate_experiment
from chencensor.chen import ChenParams
from chencensor.datasets import load_builtin


@pytest.fixture(scope="session")
def devices30():
    return load_builtin("devices30")


@pytest.fixture(scope="session")
def base_plan():
    """n=10 units, m=3 target failures, removals at every failure."""
    return CensoringPlan(n=10, m=3, removals=(2, 2, 3), t1=4.0, t2=10.0)


@pytest.fixture(scope="session")
def sample_case1(base_plan):
    return classify(np.array([1.0, 2.0, 3.0]), base_plan)


@pytest.fixture(scope="session")
def sample_case2(base_plan):
    return classify(np.array([1.0, 2.0, 4.5]), base_plan)


@pytest.fixture(scope="session")
def sample_case3(base_plan):
    return classify(np.array([1.0, 2.0]), base_plan)


@pytest.fixture(scope="session")
def all_case_samples(sample_case1, sample_case2, sample_case3):
    return (sample_case1, sample_case2, sample_case3)


def random_censored_sample(rng, min_failures=2):
    """One simulated experiment under a randomized plan and parameters.

    Draws until the realization carries at least `min_failures` distinct
    failure times so likelihood-based code is well defined.
    """
    while True:
        n = int(rng.integers(10, 40))
        m = int(rng.integers(max(3, n // 4), n + 1))
        removals = rng.multinomial(n - m, np.ones(m) / m)
        params = ChenParams(float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.3, 1.8)))
        t1 = float(rng.uniform(0.3, 2.0))
        t2 = t1 + float(rng.uniform(0.5, 4.0))
        plan = CensoringPlan(n=n, m=m, removals=tuple(int(r) for r in removals),
                             t1=t1, t2=t2)
        s = simulate_experiment(plan, params, rng)
        if s.d2 >= min_failures and np.unique(s.times).size >= min_failures:
            return s, params


@st.composite
def experiments(draw):
    """One simulated experiment: n units, m target failures with the n - m
    removals spread over them, thresholds and parameters drawn log-uniform
    over ranges where fits succeed, fail as degenerate and find no root."""
    n = draw(st.integers(5, 200))
    m = draw(st.integers(1, n))
    at = draw(st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
    removals = tuple(int(r) for r in np.bincount(at, minlength=m))
    t1 = math.exp(draw(st.floats(-3.0, 2.0)))
    t2 = t1 * math.exp(draw(st.floats(0.01, 3.0)))
    params = ChenParams(math.exp(draw(st.floats(-6.0, 2.0))),
                        math.exp(draw(st.floats(-2.0, 1.5))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return simulate_experiment(CensoringPlan(n, m, removals, t1, t2), params, rng)
