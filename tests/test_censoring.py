"""Censoring plan validation, case classification, and simulator behavior."""
import math

import numpy as np
import pytest
from scipy import stats

from chencensor import gof, montecarlo
from chencensor.censoring import (SCHEME_KINDS, Case, CensoredSample, CensoringPlan,
                                  InconsistentSampleError, _assemble, build_scheme,
                                  classify, complete_plan, load_sample,
                                  simulate_experiment)
from chencensor.chen import ChenParams, sample as chen_sample


def pool_replay(plan, params, rng):
    """Oracle simulator: draw all n lifetimes, observe the least survivor as
    the next failure, and withdraw R_i survivors picked at random when that
    failure precedes t1."""
    lifetimes = chen_sample(params, rng, plan.n)
    alive = np.ones(plan.n, dtype=bool)
    times, applied = [], []
    while True:
        alive_idx = np.flatnonzero(alive)
        nxt = alive_idx[np.argmin(lifetimes[alive_idx])]
        x = float(lifetimes[nxt])
        if x >= plan.t2:
            return _assemble(times, plan, Case.CASE3, alive_idx.size, plan.t2, applied)
        times.append(x)
        alive[nxt] = False
        r = plan.removals[len(times) - 1] if x < plan.t1 else 0
        if r > 0:
            alive[rng.choice(np.flatnonzero(alive), size=r, replace=False)] = False
        applied.append(r)
        if len(times) == plan.m:
            case = Case.CASE1 if x < plan.t1 else Case.CASE2
            return _assemble(times, plan, case, int(alive.sum()), x, applied)


class TestPlanValidation:
    def test_valid_plan(self):
        plan = CensoringPlan(n=10, m=3, removals=(2, 2, 3), t1=1.0, t2=2.0)
        assert plan.removals == (2, 2, 3)

    def test_removal_length_mismatch(self):
        with pytest.raises(ValueError):
            CensoringPlan(n=10, m=3, removals=(2, 5), t1=1.0, t2=2.0)

    def test_conservation_violation(self):
        with pytest.raises(ValueError):
            CensoringPlan(n=10, m=3, removals=(1, 1, 1), t1=1.0, t2=2.0)

    def test_negative_removal(self):
        with pytest.raises(ValueError):
            CensoringPlan(n=10, m=3, removals=(-1, 4, 4), t1=1.0, t2=2.0)

    def test_threshold_ordering(self):
        with pytest.raises(ValueError):
            CensoringPlan(n=10, m=3, removals=(2, 2, 3), t1=2.0, t2=1.0)
        with pytest.raises(ValueError):
            CensoringPlan(n=10, m=3, removals=(2, 2, 3), t1=0.0, t2=1.0)

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            CensoringPlan(n=5, m=6, removals=(0,) * 6, t1=1.0, t2=2.0)
        with pytest.raises(ValueError):
            CensoringPlan(n=5, m=0, removals=(), t1=1.0, t2=2.0)

    def test_builders_keep_their_names_in_montecarlo_and_gof(self):
        assert montecarlo.build_scheme is build_scheme
        assert montecarlo.SCHEME_KINDS is SCHEME_KINDS
        assert gof.complete_plan is complete_plan


class TestClassify:
    def test_case1_all_failures_before_t1(self, base_plan, sample_case1):
        s = sample_case1
        assert s.case is Case.CASE1
        assert s.d2 == 3 and s.b == 0
        assert tuple(s.effective_removals) == (2, 2, 3)
        assert s.x_b == 3.0
        assert s.d1 == 3

    def test_case2_last_failure_between_thresholds(self, base_plan, sample_case2):
        s = sample_case2
        assert s.case is Case.CASE2
        # removal at the third failure (4.5 >= t1) is suspended
        assert tuple(s.effective_removals) == (2, 2, 0)
        assert s.b == 10 - 3 - 4
        assert s.x_b == 4.5
        assert s.d1 == 2

    def test_case3_short_of_target(self, base_plan, sample_case3):
        s = sample_case3
        assert s.case is Case.CASE3
        assert s.d2 == 2
        assert tuple(s.effective_removals) == (2, 2)
        assert s.b == 10 - 2 - 4
        assert s.x_b == base_plan.t2

    def test_conservation_in_every_case(self, all_case_samples):
        for s in all_case_samples:
            assert s.d2 + int(s.effective_removals.sum()) + s.b == s.plan.n

    def test_rejects_unsorted_times(self, base_plan):
        with pytest.raises(InconsistentSampleError):
            classify(np.array([2.0, 1.0, 3.0]), base_plan)

    def test_rejects_time_beyond_t2(self, base_plan):
        with pytest.raises(InconsistentSampleError):
            classify(np.array([1.0, 2.0, 10.5]), base_plan)

    def test_rejects_too_many_failures(self, base_plan):
        with pytest.raises(InconsistentSampleError):
            classify(np.array([0.5, 1.0, 1.5, 2.0]), base_plan)

    def test_rejects_empty(self, base_plan):
        with pytest.raises(InconsistentSampleError):
            classify(np.array([]), base_plan)

    def test_idempotent(self, base_plan):
        times = np.array([1.0, 2.0, 4.5])
        a = classify(times, base_plan)
        b = classify(a.times, base_plan)
        assert a.case is b.case and a.b == b.b
        np.testing.assert_array_equal(a.effective_removals, b.effective_removals)


class TestLoadSample:
    def test_sorts_input(self, base_plan):
        s = load_sample([3.0, 1.0, 2.0], base_plan)
        np.testing.assert_array_equal(s.times, [1.0, 2.0, 3.0])

    def test_rejects_nonpositive(self, base_plan):
        with pytest.raises(ValueError):
            load_sample([1.0, -2.0, 3.0], base_plan)

    def test_device_subsample_all_removals_at_last_failure(self, devices30):
        """Five smallest device lifetimes under a last-failure removal plan."""
        plan = CensoringPlan(n=30, m=5, removals=(0, 0, 0, 0, 25), t1=0.4, t2=4.0)
        s = load_sample(np.sort(devices30)[:5], plan)
        np.testing.assert_allclose(s.times, [0.02, 0.10, 0.13, 0.23, 0.23])
        assert s.case is Case.CASE1
        assert s.b == 0 and int(s.effective_removals.sum()) == 25

    def test_device_subsample_spread_removals(self, devices30):
        """Twenty device lifetimes, removals at the first and last failures."""
        removals = (1,) + (0,) * 18 + (9,)
        plan = CensoringPlan(n=30, m=20, removals=removals, t1=1.0, t2=7.0)
        times = np.sort(devices30)[:20]
        s = load_sample(times, plan)
        assert s.d2 == 20
        assert s.case is Case.CASE2
        # the final planned removal falls at a failure beyond t1, so it is
        # suspended and those units are censored at the last failure instead
        assert tuple(s.effective_removals)[0] == 1
        assert tuple(s.effective_removals)[-1] == 0
        assert s.b == 9
        assert s.x_b == times[-1]
        assert s.d1 == int(np.sum(times < 1.0))


class TestSimulate:
    PARAMS = ChenParams(0.2, 0.5)

    def test_conservation_and_case_logic(self):
        rng = np.random.default_rng(123)
        plan = CensoringPlan(n=20, m=10, removals=(1,) * 10, t1=0.4, t2=4.0)
        seen = set()
        for _ in range(500):
            s = simulate_experiment(plan, self.PARAMS, rng)
            assert s.d2 + int(s.effective_removals.sum()) + s.b == plan.n
            seen.add(s.case)
            if s.case is Case.CASE1:
                assert s.d2 == plan.m and s.times[-1] < plan.t1 and s.b == 0
            elif s.case is Case.CASE2:
                assert s.d2 == plan.m and plan.t1 <= s.times[-1] < plan.t2
                assert s.x_b == s.times[-1]
            else:
                assert s.d2 < plan.m and s.x_b == plan.t2
            assert np.all(np.diff(s.times) >= 0)
            assert np.all(s.times < plan.t2)
            # removals only at failures strictly before t1
            late = s.times >= plan.t1
            assert np.all(s.effective_removals[late] == 0)
        assert Case.CASE2 in seen or Case.CASE3 in seen

    def test_deterministic_given_seed(self):
        plan = CensoringPlan(n=15, m=5, removals=(2, 2, 2, 2, 2), t1=0.4, t2=4.0)
        a = simulate_experiment(plan, self.PARAMS, np.random.default_rng(7))
        b = simulate_experiment(plan, self.PARAMS, np.random.default_rng(7))
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.effective_removals, b.effective_removals)
        assert a.case is b.case and a.b == b.b

    def test_simulated_output_reclassifies_identically(self):
        rng = np.random.default_rng(99)
        plan = CensoringPlan(n=20, m=10, removals=(1,) * 10, t1=0.4, t2=4.0)
        for _ in range(200):
            s = simulate_experiment(plan, self.PARAMS, rng)
            c = classify(s.times, plan)
            assert c.case is s.case
            assert c.b == s.b and c.x_b == s.x_b
            np.testing.assert_array_equal(c.effective_removals, s.effective_removals)

    def test_first_failure_at_or_after_t2_ends_with_no_failures(self):
        plan = CensoringPlan(n=15, m=5, removals=(0, 0, 0, 0, 10), t1=1e-9, t2=2e-9)
        s = simulate_experiment(plan, self.PARAMS, np.random.default_rng(0))
        assert s.case is Case.CASE3
        assert s.d2 == 0 and s.d1 == 0 and s.times.size == 0
        assert s.b == plan.n and s.x_b == plan.t2

    def test_matches_pool_replay_in_distribution(self):
        """Case frequencies within 3 pooled standard errors, and d2, b, the
        first and the last failure time by two-sample KS at level 0.01/k,
        against the lifetime-pool oracle on paper-grid plans with active
        thresholds."""
        n_sims = 5000
        plans = [CensoringPlan(20, 10, build_scheme(kind, 20, 10), 0.4, 4.0)
                 for kind in ("I", "II", "IV")]
        level = 0.01 / (4 * len(plans))
        issues = []
        for j, plan in enumerate(plans):
            summaries = []
            for simulate, seed in ((simulate_experiment, 10 + j), (pool_replay, 20 + j)):
                rng = np.random.default_rng(seed)
                rows = []
                for _ in range(n_sims):
                    s = simulate(plan, self.PARAMS, rng)
                    first, last = (s.times[0], s.times[-1]) if s.d2 else (np.nan, np.nan)
                    rows.append((s.case.value, s.d2, s.b, first, last))
                summaries.append(np.array(rows))
            ours, oracle = summaries
            for c in (1, 2, 3):
                p1, p2 = np.mean(ours[:, 0] == c), np.mean(oracle[:, 0] == c)
                pooled = (p1 + p2) / 2
                se = math.sqrt(max(pooled * (1 - pooled), 1e-12) * 2 / n_sims)
                if abs(p1 - p2) > 3 * se:
                    issues.append(f"{plan.removals}: case {c} {p1:.4f} vs {p2:.4f}")
            for col, name in ((1, "d2"), (2, "b"), (3, "first"), (4, "last")):
                a, b = ours[:, col], oracle[:, col]
                pval = stats.ks_2samp(a[~np.isnan(a)], b[~np.isnan(b)]).pvalue
                if pval < level:
                    issues.append(f"{plan.removals}: {name} KS p={pval:.3g}")
        assert not issues, "; ".join(issues)


class TestCensoredSampleValidation:
    def test_conservation_enforced(self, base_plan):
        with pytest.raises(InconsistentSampleError):
            CensoredSample(times=np.array([1.0, 2.0]), case=Case.CASE3,
                           effective_removals=np.array([2, 2]), d1=2, d2=2,
                           b=99, x_b=10.0, plan=base_plan)

    def test_d2_matches_times(self, base_plan):
        with pytest.raises(InconsistentSampleError):
            CensoredSample(times=np.array([1.0, 2.0]), case=Case.CASE3,
                           effective_removals=np.array([2, 2]), d1=2, d2=3,
                           b=4, x_b=10.0, plan=base_plan)
