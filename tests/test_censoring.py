"""Censoring plan validation, case classification, and simulator behavior."""
import numpy as np
import pytest

from chencensor.censoring import (Case, CensoredSample, CensoringPlan,
                                  InconsistentSampleError, classify,
                                  load_sample, simulate_experiment)
from chencensor.chen import ChenParams


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
