"""Likelihood, score, information and the profile solver against oracles."""
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from chencensor import mle
from chencensor.censoring import CensoringPlan, classify, load_sample
from chencensor.chen import ChenParams, pdf, sample as chen_sample, survival
from conftest import random_censored_sample

PARAMS = [ChenParams(0.2, 0.5), ChenParams(0.8, 1.2), ChenParams(0.15, 0.7)]


def direct_log_likelihood(p, s):
    """Independent oracle: log of prod f(x_i) * prod S(x_i)^R_i * S(x_B)^B.

    Log-survival is taken analytically (-alpha*(e^(x^beta)-1)) because the
    plain survival function underflows to zero for strongly censored tails.
    """
    def log_s(x):
        return -p.alpha * np.expm1(np.asarray(x, dtype=float)**p.beta)

    value = float(np.sum(np.log(pdf(p, s.times))))
    value += float(s.effective_removals @ log_s(s.times))
    if s.b > 0:
        value += s.b * float(log_s(s.x_b))
    return value


class TestLogLikelihood:
    @pytest.mark.parametrize("p", PARAMS)
    def test_matches_direct_product(self, p, all_case_samples):
        for s in all_case_samples:
            assert mle.log_likelihood(p, s) == pytest.approx(
                direct_log_likelihood(p, s), rel=1e-10)

    def test_extra_terminal_unit_additivity(self, sample_case2):
        """Raising B by one changes the log-likelihood by log S(x_B)."""
        s = sample_case2
        p = ChenParams(0.3, 0.8)
        # grow the pool by one unit; the extra planned removal sits at a
        # failure past t1 where removals are suspended, so the unit ends
        # up censored at the terminal time instead
        removals = s.plan.removals[:-1] + (s.plan.removals[-1] + 1,)
        plan = CensoringPlan(n=s.plan.n + 1, m=s.plan.m, removals=removals,
                             t1=s.plan.t1, t2=s.plan.t2)
        s_plus = classify(s.times, plan)
        np.testing.assert_array_equal(s_plus.effective_removals, s.effective_removals)
        assert s_plus.b == s.b + 1
        delta = mle.log_likelihood(p, s_plus) - mle.log_likelihood(p, s)
        assert delta == pytest.approx(-p.alpha * np.expm1(s.x_b**p.beta), rel=1e-12)


class TestNu:
    def test_hand_value_unit_contribution(self):
        """A single failure at x with x^beta = ln 2 contributes e^(ln 2) - 1 = 1."""
        beta = 0.7
        x = np.log(2.0) ** (1.0 / beta)
        plan = CensoringPlan(n=1, m=1, removals=(0,), t1=x + 1.0, t2=x + 2.0)
        s = classify(np.array([x]), plan)
        assert mle.nu(s, beta) == pytest.approx(1.0, rel=1e-12)

    def test_weights_scale_with_removals(self, sample_case1):
        s = sample_case1
        beta = 0.9
        manual = float((1.0 + s.effective_removals) @ np.expm1(s.times**beta))
        assert mle.nu(s, beta) == pytest.approx(manual, rel=1e-12)


def loop_support_sums(s, beta):
    """Term-by-term oracle of the value kernel: the sum of x_i^beta over the
    failures, and nu(beta) = sum (1+R_i)(e^(x_i^beta)-1) + b(e^(x_b^beta)-1)."""
    sum_t = nu = 0.0
    for x, r in zip(s.times, s.effective_removals):
        sum_t += x**beta
        nu += (1 + r) * math.expm1(x**beta)
    if s.b > 0:
        nu += s.b * math.expm1(s.x_b**beta)
    return sum_t, nu


class TestSupportSums:
    BETAS = (0.4, 0.8, 1.3)

    @staticmethod
    def samples(all_case_samples, devices30):
        complete = load_sample(devices30, CensoringPlan(30, 30, (0,) * 30, 1e12, 2e12))
        return (*all_case_samples, complete)

    def test_matches_term_by_term_loop(self, all_case_samples, devices30):
        """A scalar beta gives 0-d sums; an array of beta gives one pair per beta."""
        for s in self.samples(all_case_samples, devices30):
            expected = np.array([loop_support_sums(s, b) for b in self.BETAS])
            for beta, (sum_t, nu) in zip(self.BETAS, expected):
                got = mle._support_sums(s.log_support, s.weights, s.failure, beta)
                assert np.shape(got[0]) == np.shape(got[1]) == ()
                np.testing.assert_allclose(got, (sum_t, nu), rtol=1e-12, atol=0)
            got = mle._support_sums(s.log_support, s.weights, s.failure, np.array(self.BETAS))
            np.testing.assert_allclose(np.transpose(got), expected, rtol=1e-12, atol=0)

    def test_zero_weight_padding_changes_neither_sum(self, all_case_samples, devices30):
        """Rows padded with zero weights (and ln x = 0) to a common width give
        each row's unpadded sums: bit for bit at the short supports, to
        rounding at the 30-point one, whose summation blocks move."""
        samples = self.samples(all_case_samples, devices30)
        width = 40
        lnx, weights, failure = np.zeros((3, len(samples), width))
        for r, s in enumerate(samples):
            size = s.log_support.size
            lnx[r, :size], weights[r, :size], failure[r, :size] = (
                s.log_support, s.weights, s.failure)
        for beta in self.BETAS:
            padded = mle._support_sums(lnx, weights, failure, np.full(len(samples), beta))
            for r, s in enumerate(samples):
                alone = mle._support_sums(s.log_support, s.weights, s.failure, beta)
                rtol = 0 if s.log_support.size < 8 else 1e-14
                np.testing.assert_allclose(np.array(padded)[:, r], alone, rtol=rtol, atol=0)

    def test_overflowed_terminal_time_gives_minus_inf(self, sample_case3):
        """Once beta * ln x_b > 710, x_b^beta is inf while the failures' sum
        is finite: nu is inf and the log-likelihood is -inf, not nan."""
        s = sample_case3
        assert s.b > 0 and s.x_b > s.times[-1]
        beta = 720.0 / math.log(s.x_b)
        sum_t, nu = mle._sample_sums(s, beta)
        assert sum_t == pytest.approx(sum(x**beta for x in s.times), rel=1e-12)
        assert nu == math.inf
        assert mle.log_likelihood(ChenParams(0.5, beta), s) == -math.inf


class TestScoreAndInformation:
    def test_score_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            s, _ = random_censored_sample(rng)
            p = ChenParams(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.3, 1.5)))
            sa, sb = mle.score(p, s)
            h = 1e-6
            fd_a = (mle.log_likelihood(ChenParams(p.alpha + h, p.beta), s)
                    - mle.log_likelihood(ChenParams(p.alpha - h, p.beta), s)) / (2 * h)
            fd_b = (mle.log_likelihood(ChenParams(p.alpha, p.beta + h), s)
                    - mle.log_likelihood(ChenParams(p.alpha, p.beta - h), s)) / (2 * h)
            assert sa == pytest.approx(fd_a, rel=1e-5, abs=1e-6)
            assert sb == pytest.approx(fd_b, rel=1e-5, abs=1e-6)

    def test_information_matches_fd_hessian(self, all_case_samples):
        h = 1e-4  # balances truncation against roundoff in the second difference
        for s in all_case_samples:
            p = ChenParams(0.4, 0.8)
            info = mle.observed_information(p, s)

            def ll(a, b):
                return mle.log_likelihood(ChenParams(a, b), s)

            a0, b0 = p.alpha, p.beta
            h_aa = (ll(a0 + h, b0) - 2 * ll(a0, b0) + ll(a0 - h, b0)) / h**2
            h_bb = (ll(a0, b0 + h) - 2 * ll(a0, b0) + ll(a0, b0 - h)) / h**2
            h_ab = (ll(a0 + h, b0 + h) - ll(a0 + h, b0 - h)
                    - ll(a0 - h, b0 + h) + ll(a0 - h, b0 - h)) / (4 * h**2)
            assert info[0, 0] == pytest.approx(-h_aa, rel=1e-5)
            assert info[1, 1] == pytest.approx(-h_bb, rel=1e-5)
            assert info[0, 1] == pytest.approx(-h_ab, rel=1e-5)

    def test_alpha_alpha_entry_closed_form(self, sample_case2):
        p = ChenParams(0.37, 0.9)
        info = mle.observed_information(p, sample_case2)
        assert info[0, 0] == pytest.approx(sample_case2.d2 / p.alpha**2, rel=1e-14)

    def test_information_symmetric(self, sample_case3):
        info = mle.observed_information(ChenParams(0.2, 0.5), sample_case3)
        assert info[0, 1] == info[1, 0]


class TestProfile:
    def test_alpha_profile_zeroes_alpha_score(self, all_case_samples):
        for s in all_case_samples:
            for beta in (0.4, 0.8, 1.3):
                a = mle.alpha_profile(s, beta)
                sa, _ = mle.score(ChenParams(a, beta), s)
                assert sa == pytest.approx(0.0, abs=1e-9 * s.d2)

    def test_profile_score_is_total_derivative(self, sample_case2):
        """d/d beta of ll(alpha_hat(beta), beta) equals the profile score."""
        s = sample_case2
        h = 1e-6
        for beta in (0.6, 1.0, 1.4):
            def prof(b):
                return mle.log_likelihood(ChenParams(mle.alpha_profile(s, b), b), s)
            fd = (prof(beta + h) - prof(beta - h)) / (2 * h)
            assert mle.profile_score(s, beta) == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_slope_matches_finite_difference_and_information(self, all_case_samples):
        """h'(beta) is d/d beta of the profile score and -(I_bb - I_ab^2/I_aa)
        of the observed information at (alpha_hat(beta), beta)."""
        step = 1e-6
        for s in all_case_samples:
            for beta in (0.4, 0.8, 1.3):
                h, slope = mle.profile_score_and_slope(s, beta)
                assert h == mle.profile_score(s, beta)
                fd = (mle.profile_score(s, beta + step)
                      - mle.profile_score(s, beta - step)) / (2 * step)
                assert slope == pytest.approx(fd, rel=1e-5)
                info = mle.observed_information(
                    ChenParams(mle.alpha_profile(s, beta), beta), s)
                schur = info[1, 1] - info[0, 1] ** 2 / info[0, 0]
                assert slope == pytest.approx(-schur, rel=1e-9)

    def test_underflowing_nu_gives_nan_not_zero_division(self):
        """x^beta underflows for these times well inside the search bracket."""
        plan = CensoringPlan(32, 2, (12, 18), 1.0, 2.0)
        s = classify([1.49e-9, 1.54e-9], plan)
        assert np.isfinite(mle.profile_score(s, 1.0))
        for beta in (40.0, 50.0):
            assert np.isnan(mle.profile_score(s, beta))
            assert np.isnan(mle.profile_score_and_slope(s, beta)).all()


class TestFit:
    def test_fit_is_local_maximum(self, devices30):
        plan = CensoringPlan(n=30, m=30, removals=(0,) * 30, t1=1e12, t2=2e12)
        s = load_sample(devices30, plan)
        fit = mle.fit(s)
        best = fit.loglik
        a0, b0 = fit.params_hat.alpha, fit.params_hat.beta
        for fa in (0.9, 1.1):
            for fb in (0.9, 1.1):
                assert mle.log_likelihood(ChenParams(a0 * fa, b0 * fb), s) < best

    def test_score_vanishes_at_fit(self, devices30):
        plan = CensoringPlan(n=30, m=30, removals=(0,) * 30, t1=1e12, t2=2e12)
        fit = mle.fit(load_sample(devices30, plan))
        sa, sb = mle.score(fit.params_hat, fit.sample)
        assert abs(sa) < 1e-6 and abs(sb) < 1e-6

    def test_fixed_point_and_bracket_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s, _ = random_censored_sample(rng)
            beta_hat, _, _ = mle.solve_beta(s)
            # independent check: the profile score must vanish at the solution
            assert mle.profile_score(s, beta_hat) == pytest.approx(
                0.0, abs=1e-6 * (1 + s.d2 / beta_hat))

    def test_underflowing_nu_is_no_root(self):
        plan = CensoringPlan(32, 2, (12, 18), 1.0, 2.0)
        with pytest.raises(mle.NoRootError):
            mle.fit(classify([1.49e-9, 1.54e-9], plan))

    def test_max_iter_exhausted_is_no_root(self, devices30):
        s = load_sample(devices30, CensoringPlan(30, 30, (0,) * 30, 1e12, 2e12))
        _, iterations, _ = mle.solve_beta(s)
        with pytest.raises(mle.NoRootError):
            mle.solve_beta(s, mle.MleOptions(max_iter=iterations - 1))

    def test_loglik_and_info_are_their_functions_at_the_fit(self, all_case_samples,
                                                              devices30):
        """fit's alpha_hat, log-likelihood and information equal the public
        functions at its estimate."""
        complete = load_sample(devices30, CensoringPlan(30, 30, (0,) * 30, 1e12, 2e12))
        rng = np.random.default_rng(8)
        randoms = [random_censored_sample(rng)[0] for _ in range(20)]
        for s in (*all_case_samples, complete, *randoms):
            fit = mle.fit(s)
            p = fit.params_hat
            assert p.alpha == pytest.approx(mle.alpha_profile(s, p.beta), rel=1e-12)
            assert fit.loglik == pytest.approx(mle.log_likelihood(p, s), rel=1e-12)
            np.testing.assert_allclose(fit.info, mle.observed_information(p, s),
                                       rtol=1e-12, atol=0)

    def test_varcov_inverts_information(self, devices30):
        plan = CensoringPlan(n=30, m=30, removals=(0,) * 30, t1=1e12, t2=2e12)
        fit = mle.fit(load_sample(devices30, plan))
        np.testing.assert_allclose(fit.info @ fit.varcov, np.eye(2), atol=1e-10)

    def test_degenerate_sample_rejected(self, base_plan):
        one = classify(np.array([1.5]), base_plan)
        with pytest.raises(mle.DegenerateSampleError):
            mle.solve_beta(one)

    def test_censored_fit_consistency_smoke(self):
        """Estimates concentrate near truth as replications accumulate."""
        from chencensor.censoring import simulate_experiment
        truth = ChenParams(0.2, 0.5)
        plan = CensoringPlan(n=60, m=40, removals=(1,) * 20 + (0,) * 20,
                             t1=0.6, t2=5.0)
        alphas, betas = [], []
        for rep in range(200):
            rng = np.random.default_rng([11, rep])
            s = simulate_experiment(plan, truth, rng)
            try:
                fit = mle.fit(s)
            except (mle.DegenerateSampleError, mle.NoRootError):
                continue
            alphas.append(fit.params_hat.alpha)
            betas.append(fit.params_hat.beta)
        assert len(alphas) > 180
        assert abs(np.mean(alphas) - truth.alpha) < 0.05
        assert abs(np.mean(betas) - truth.beta) < 0.07


def _oracle_root(s):
    """Independent root of the profile score: the first sign change of a
    geometric scan over the default bracket, refined by brentq; None when
    the scan finds no sign change."""
    lo, hi = mle.MleOptions().bracket
    grid = np.geomspace(lo, hi, 200)
    vals = np.array([mle.profile_score(s, float(b)) for b in grid])
    for j in range(grid.size - 1):
        if np.isfinite(vals[j]) and np.isfinite(vals[j + 1]) and vals[j] * vals[j + 1] < 0:
            return brentq(lambda b: mle.profile_score(s, b), grid[j], grid[j + 1],
                          xtol=1e-14, rtol=1e-15)
    return None


def _oracle_samples(devices30):
    rng = np.random.default_rng(31)
    for _ in range(300):
        yield random_censored_sample(rng)[0]
    plan = CensoringPlan(30, 30, (0,) * 30, 1e12, 2e12)
    fitted = mle.fit(load_sample(devices30, plan)).params_hat
    rng = np.random.default_rng(32)
    for _ in range(300):
        yield load_sample(chen_sample(fitted, rng, 30), plan)


def test_solver_matches_brentq_oracle(devices30):
    iterations = []
    for s in _oracle_samples(devices30):
        root = _oracle_root(s)
        if root is None:
            with pytest.raises(mle.NoRootError):
                mle.solve_beta(s)
            continue
        beta, its, _ = mle.solve_beta(s)
        assert beta == pytest.approx(root, rel=1e-9)
        iterations.append(its)
    assert len(iterations) > 500
    assert np.median(iterations) <= 8


class TestConfidenceIntervals:
    def test_interval_structure(self, devices30):
        plan = CensoringPlan(n=30, m=30, removals=(0,) * 30, t1=1e12, t2=2e12)
        fit = mle.fit(load_sample(devices30, plan))
        ci90 = mle.confidence_intervals(fit, 0.90)
        ci99 = mle.confidence_intervals(fit, 0.99)
        for param, (lo90, hi90), (lo99, hi99) in (
            ("alpha", ci90.alpha_interval, ci99.alpha_interval),
            ("beta", ci90.beta_interval, ci99.beta_interval),
        ):
            hat = getattr(fit.params_hat, param)
            assert lo90 < hat < hi90
            assert lo99 < lo90 and hi99 > hi90  # nested by level

    def test_level_validation(self, devices30):
        plan = CensoringPlan(n=30, m=30, removals=(0,) * 30, t1=1e12, t2=2e12)
        fit = mle.fit(load_sample(devices30, plan))
        with pytest.raises(ValueError):
            mle.confidence_intervals(fit, 1.2)
