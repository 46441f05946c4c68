"""Likelihood, score, information and the profile solver against oracles."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import brentq

from chencensor import mle
from chencensor.censoring import CensoringPlan, classify, complete_plan, load_sample
from chencensor.chen import ChenParams, pdf, sample as chen_sample, survival
from conftest import experiments, random_censored_sample

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
        is finite: nu is inf, and the log-likelihood and both score
        components are -inf, not nan."""
        s = sample_case3
        assert s.b > 0 and s.x_b > s.times[-1]
        beta = 720.0 / math.log(s.x_b)
        sum_t, nu = mle._sample_sums(s, beta)
        assert sum_t == pytest.approx(sum(x**beta for x in s.times), rel=1e-12)
        assert nu == math.inf
        assert mle.log_likelihood(ChenParams(0.5, beta), s) == -math.inf
        # the score reads its sums from its rescaled pass, where
        # e^(inf - inf) is nan
        assert mle.score(ChenParams(0.5, beta), s) == (-math.inf, -math.inf)

    def test_overflowed_failure_time_gives_minus_inf(self):
        """In case 2 the last failure is x_b, so its x^beta overflows into
        both sums: the log-likelihood and both score components are -inf,
        not nan."""
        plan = CensoringPlan(n=10, m=4, removals=(1, 1, 2, 2), t1=0.5, t2=10.0)
        s = load_sample([0.2, 0.3, 0.8, 2.0], plan)
        assert s.case.value == 2
        beta = 720.0 / math.log(2.0)
        assert mle._sample_sums(s, beta) == (math.inf, math.inf)
        assert mle.log_likelihood(ChenParams(0.5, beta), s) == -math.inf
        # the score's rescaled sums are e^(inf - inf) = nan here
        assert mle.score(ChenParams(0.2, beta), s) == (-math.inf, -math.inf)


def loop_score(p, s):
    """Term-by-term oracle of the score: d2/alpha - nu(beta), and
    d2/beta + sum ln x + sum x^beta ln x - alpha sum w e^(x^beta) x^beta ln x."""
    s_beta = s.d2 / p.beta + s.sum_lnx
    for x, r in zip(s.times, s.effective_removals):
        t = x**p.beta
        s_beta += t * math.log(x) - p.alpha * (1 + r) * math.exp(t) * t * math.log(x)
    if s.b > 0:
        t = s.x_b**p.beta
        s_beta -= p.alpha * s.b * math.exp(t) * t * math.log(s.x_b)
    return s.d2 / p.alpha - mle.nu(s, p.beta), s_beta


class TestScoreAndInformation:
    @pytest.mark.parametrize("p", PARAMS)
    def test_score_matches_two_pass_value(self, p, all_case_samples, devices30):
        """score reads nu from its one pass over the support; it equals
        d2/alpha - nu(beta) from a second pass, and the loop's beta score."""
        complete = load_sample(devices30, complete_plan(30))
        for s in (*all_case_samples, complete):
            np.testing.assert_allclose(mle.score(p, s), loop_score(p, s), rtol=1e-12, atol=0)

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


def alpha_profile(s, beta):
    """The closed-form alpha maximizer at fixed beta, d2 / nu(beta)."""
    return s.d2 / mle.nu(s, beta)


def profile_and_slope(s, beta):
    """h(beta) and h'(beta) of the one-sample row, as the solver forms them."""
    with np.errstate(all="ignore"):
        h, slope = mle._profile(mle._sample_rows([s]), np.array([beta]))
    return float(h[0]), float(slope[0])


class TestProfile:
    def test_alpha_profile_zeroes_alpha_score(self, all_case_samples):
        for s in all_case_samples:
            for beta in (0.4, 0.8, 1.3):
                a = alpha_profile(s, beta)
                sa, _ = mle.score(ChenParams(a, beta), s)
                assert sa == pytest.approx(0.0, abs=1e-9 * s.d2)

    def test_profile_score_is_total_derivative(self, sample_case2):
        """d/d beta of ll(alpha_hat(beta), beta) equals the profile score."""
        s = sample_case2
        h = 1e-6
        for beta in (0.6, 1.0, 1.4):
            def prof(b):
                return mle.log_likelihood(ChenParams(alpha_profile(s, b), b), s)
            fd = (prof(beta + h) - prof(beta - h)) / (2 * h)
            assert mle.profile_score(s, beta) == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_slope_matches_finite_difference_and_information(self, all_case_samples):
        """h'(beta) is d/d beta of the profile score and -(I_bb - I_ab^2/I_aa)
        of the observed information at (alpha_hat(beta), beta)."""
        step = 1e-6
        for s in all_case_samples:
            for beta in (0.4, 0.8, 1.3):
                h, slope = profile_and_slope(s, beta)
                assert h == mle.profile_score(s, beta)
                fd = (mle.profile_score(s, beta + step)
                      - mle.profile_score(s, beta - step)) / (2 * step)
                assert slope == pytest.approx(fd, rel=1e-5)
                info = mle.observed_information(
                    ChenParams(alpha_profile(s, beta), beta), s)
                schur = info[1, 1] - info[0, 1] ** 2 / info[0, 0]
                assert slope == pytest.approx(-schur, rel=1e-9)

    def test_underflowing_nu_gives_nan_not_zero_division(self):
        """x^beta underflows for these times well inside the search bracket."""
        plan = CensoringPlan(32, 2, (12, 18), 1.0, 2.0)
        s = classify([1.49e-9, 1.54e-9], plan)
        assert np.isfinite(mle.profile_score(s, 1.0))
        for beta in (40.0, 50.0):
            assert np.isnan(mle.profile_score(s, beta))
            assert np.isnan(profile_and_slope(s, beta)).all()


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
        """h > 0 wherever nu is computable: the search closes in on the
        point where nu underflows, whose h is not a sign."""
        plan = CensoringPlan(32, 2, (12, 18), 1.0, 2.0)
        with pytest.raises(mle.NoRootError, match="no sign change"):
            mle.fit(classify([1.49e-9, 1.54e-9], plan))

    def test_max_iter_exhausted_is_no_root(self, devices30, monkeypatch):
        s = load_sample(devices30, CensoringPlan(30, 30, (0,) * 30, 1e12, 2e12))
        _, iterations, _ = mle.solve_beta(s)
        monkeypatch.setattr(mle, "_MAX_ITER", iterations - 1)
        with pytest.raises(mle.NoRootError):
            mle.solve_beta(s)

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
            assert p.alpha == pytest.approx(alpha_profile(s, p.beta), rel=1e-12)
            assert fit.loglik == pytest.approx(mle.log_likelihood(p, s), rel=1e-12)
            np.testing.assert_allclose(fit.info, mle.observed_information(p, s),
                                       rtol=1e-12, atol=0)

    def test_varcov_inverts_information(self, devices30):
        plan = CensoringPlan(n=30, m=30, removals=(0,) * 30, t1=1e12, t2=2e12)
        fit = mle.fit(load_sample(devices30, plan))
        np.testing.assert_allclose(fit.info @ fit.varcov, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("times, plan", [
        # beta_hat 3.84: the squares of the information's entries overflow
        ([3.8321462301574827, 3.843174757743335, 3.849280624273761], complete_plan(3)),
        # beta_hat 20.9 and alpha_hat 3e163: alpha_hat^2 overflows
        ([1.2905647482911181e-08, 1.4409694182090613e-08],
         CensoringPlan(12, 2, (4, 6), 0.5, 2.0)),
    ], ids=["complete", "case1"])
    def test_singular_information_raises_without_warnings(self, times, plan):
        """An information that overflows ends in NoRootError, with no
        warning and no bare OverflowError."""
        s = classify(times, plan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(mle.NoRootError, match="singular"):
                mle.fit(s)

    def test_no_sign_change_is_no_root(self, devices30, monkeypatch):
        """beta_hat is 0.85; on (2, 50) the profile score is negative
        throughout, so the search closes in at 2 with h(lo) never seen > 0."""
        s = load_sample(devices30, complete_plan(30))
        monkeypatch.setattr(mle, "_BRACKET", (2.0, 50.0))
        with pytest.raises(mle.NoRootError, match=r"no sign change on \(2, 50\)"):
            mle.solve_beta(s)

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


class TestRows:
    """The row-batched fit of zero-padded rows against the one-row calls."""

    def test_rows_match_one_row_fits(self, all_case_samples, devices30, base_plan,
                                     monkeypatch):
        monkeypatch.setattr(mle, "_MAX_ITER", 12)
        complete = load_sample(devices30, complete_plan(30))
        tied = classify([1.5, 1.5], base_plan)
        underflowing = classify([1.49e-9, 1.54e-9], CensoringPlan(32, 2, (12, 18), 1.0, 2.0))
        singular = load_sample([3.8321462301574827, 3.843174757743335, 3.849280624273761],
                               complete_plan(3))
        # needs 13 steps, one more than the 12 allowed here
        not_reached = classify(
            [2.1433981437907648e-05, 0.01253226251668223, 0.05787069973532754,
             0.06342551592420428, 0.08306118867839433, 0.10589183878418353,
             0.15116797718428632, 0.26650325013144566, 0.4546169920001497,
             0.5242536605574372, 0.6391939725303941, 0.6665824826862777,
             0.7091641203624977, 0.8863951835050364, 0.9087182045283512,
             0.9154948339534071, 0.9528910222143357],
            CensoringPlan(31, 23, (0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 2,
                                   0, 0), 0.3052299299979508, 1.1482527341294573))
        # takes bisection steps and converges in exactly 12
        bisected = classify(
            [0.00012712840663742158, 0.0028351957441884227, 0.5662887191406644,
             0.578840353527114, 0.9194605543433848, 1.3882195814607756, 1.402177083201523],
            CensoringPlan(20, 7, (2, 4, 1, 0, 2, 0, 4), 0.329856313483088, 4.0549546323912145))
        rng = np.random.default_rng(31)
        randoms = [random_censored_sample(rng)[0] for _ in range(45)]
        samples = (*all_case_samples, complete, tied, underflowing, singular, not_reached,
                   bisected, *randoms)
        rows = mle._sample_rows(samples)
        assert min(s.log_support.size for s in samples) < rows.lnx.shape[1]  # padded
        fits = mle._fit_rows(rows)
        failed = {}
        for r, s in enumerate(samples):
            try:
                one = mle.fit(s)
            except (mle.DegenerateSampleError, mle.NoRootError) as err:
                assert type(fits.errors[r]) is type(err)
                assert str(fits.errors[r]) == str(err)
                assert np.isnan(fits.alpha[r])
                failed[r] = type(err)
                continue
            assert r not in fits.errors
            assert fits.beta[r] == pytest.approx(one.params_hat.beta, rel=1e-12)
            assert fits.alpha[r] == pytest.approx(one.params_hat.alpha, rel=1e-12)
            np.testing.assert_allclose(fits.info[r], one.info, rtol=1e-12, atol=0)
            np.testing.assert_allclose(fits.varcov[r], one.varcov, rtol=1e-12, atol=0)
            assert (fits.iterations[r], mle._method(fits.bracketed[r])) == (
                one.iterations, one.converged_by)
        assert failed == {4: mle.DegenerateSampleError, 5: mle.NoRootError,
                          6: mle.NoRootError, 7: mle.NoRootError}
        assert "not reached" in str(fits.errors[7])
        assert fits.bracketed[8] and fits.iterations[8] == 12

    def test_complete_rows_equal_loaded_samples(self):
        """Complete-sample rows built from sorted times are the rows of the
        samples load_sample makes of them, bit for bit, a tied row too."""
        x = np.sort(chen_sample(ChenParams(0.2, 0.7), np.random.default_rng(3), 150).reshape(5, 30),
                    axis=1)
        x[2] = 1.5
        built = mle._complete_rows(x)
        assert built.identified.tolist() == [True, True, False, True, True]
        loaded = mle._sample_rows([load_sample(row, complete_plan(30)) for row in x])
        for a, b in zip(built, loaded):
            np.testing.assert_array_equal(a, b)

    def test_complete_rows_flag_times_that_are_not_positive_and_finite(self):
        """A row holding an under- or overflowed draw, 0.0 or inf, is not
        identified and its times are not logged; it fails as degenerate."""
        x = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, np.inf], [0.5, 1.0, 3.0]])
        built = mle._complete_rows(x)
        assert built.identified.tolist() == [False, False, True]
        assert np.isfinite(built.lnx).all() and np.isfinite(built.sum_lnx).all()
        np.testing.assert_array_equal(built.lnx[2], np.log(x[2]))
        fits = mle._fit_rows(built)
        assert {r: type(e) for r, e in fits.errors.items()} == {
            0: mle.DegenerateSampleError, 1: mle.DegenerateSampleError}


def expression_sums(lnx, w, failure, beta):
    """`mle._sums` as one expression a sum, each temporary its own array:
    the kernel's in-place passes must round as these do."""
    t = np.exp(np.asarray(beta)[..., None] * lnx)
    if np.maximum.reduce(t, axis=None) <= mle._RESCALE_ABOVE:
        shift = None
        nu = np.vecdot(w, np.expm1(t))
        we = np.exp(t)
    else:
        shift = t.max(axis=-1)
        rescale = ~(shift <= mle._RESCALE_ABOVE)
        shift = np.where(rescale, shift, 0.0)
        we = np.exp(t - shift[..., None])
        nu = np.vecdot(w, np.where(rescale[..., None], we, np.expm1(t)))
        nu = np.where(shift < np.inf, nu, np.inf)
    we *= w
    t_lnx = t * lnx
    t_lnx_f = t_lnx * failure
    return mle._Sums(shift, nu, np.vecdot(we, t_lnx), np.vecdot(we, t_lnx * lnx * (1.0 + t)),
                     np.add.reduce(t_lnx_f, axis=-1), np.vecdot(t_lnx_f, lnx))


class TestSumsKernel:
    """`mle._sums` equals the expression it replaces in all six fields, bit
    for bit, with nan equal to nan."""

    @staticmethod
    def assert_same_sums(lnx, w, failure, beta):
        with np.errstate(**mle._QUIET):
            got = mle._sums(lnx, w, failure, beta)
            expected = expression_sums(lnx, w, failure, beta)
        for name, a, b in zip(mle._Sums._fields, got, expected):
            if b is None:
                assert a is None, name
            else:
                assert np.array_equal(a, b, equal_nan=True), name
        return got

    @pytest.fixture(scope="class")
    def padded(self, all_case_samples, devices30):
        rng = np.random.default_rng(23)
        samples = (*all_case_samples, load_sample(devices30, complete_plan(30)),
                   *(random_censored_sample(rng)[0] for _ in range(60)))
        rows = mle._sample_rows(samples)
        assert min(s.log_support.size for s in samples) < rows.lnx.shape[1]
        return rows, rng.uniform(0.2, 3.0, len(samples))

    def test_zero_padded_rows(self, padded):
        rows, beta = padded
        got = self.assert_same_sums(rows.lnx, rows.weights, rows.failure, beta)
        assert got.shift is None

    def test_rows_that_rescale(self, padded):
        """A row of x = e^2 at beta 3.3 has x^beta > 600 and is rescaled;
        the rest are not."""
        rows, beta = padded
        lnx = rows.lnx.copy()
        lnx[[5, 17], :3] = 2.0
        beta = beta.copy()
        beta[[5, 17]] = 3.3
        got = self.assert_same_sums(lnx, rows.weights, rows.failure, beta)
        assert np.count_nonzero(got.shift) == 2

    def test_rows_whose_power_overflows(self, padded):
        """x = 1e300 at beta 1.1: x^beta is inf, so the rescaled sums are nan
        and nu is inf on that row."""
        rows, beta = padded
        lnx = rows.lnx.copy()
        lnx[9, 1] = math.log(1e300)
        beta = beta.copy()
        beta[9] = 1.1
        got = self.assert_same_sums(lnx, rows.weights, rows.failure, beta)
        assert got.shift[9] == np.inf and got.nu[9] == np.inf and np.isnan(got.phi[9])

    @pytest.mark.parametrize("beta", [0.35, 0.8, 1.7, 6.0])
    def test_one_support(self, all_case_samples, devices30, beta):
        """A 1-D support at a scalar beta, as `score` and
        `observed_information` pass it; at beta 6 devices30 holds
        3^6 > 600 and rescales."""
        for s in (*all_case_samples, load_sample(devices30, complete_plan(30))):
            got = self.assert_same_sums(s.log_support, s.weights, s.failure, beta)
        assert (got.shift is None) == (beta < 6.0)


def _oracle_root(s):
    """Independent root of the profile score: the first sign change of a
    geometric scan over the default bracket, refined by brentq; None when
    the scan finds no sign change."""
    lo, hi = mle._BRACKET
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


@settings(max_examples=60, deadline=None)
@given(s=experiments())
def test_fit_gives_finite_estimates_or_a_typed_error(s):
    """Every simulated experiment is fitted to finite estimates with a
    positive-definite varcov and finite Wald intervals, or raises
    DegenerateSampleError or NoRootError; it never warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fit = mle.fit(s)
        except (mle.DegenerateSampleError, mle.NoRootError):
            return
        ci = mle.confidence_intervals(fit)
    p = fit.params_hat
    assert np.isfinite([p.alpha, p.beta, fit.loglik]).all()
    assert np.isfinite(fit.varcov).all() and (np.linalg.eigvalsh(fit.varcov) > 0).all()
    assert np.isfinite([*ci.alpha_interval, *ci.beta_interval]).all()


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
