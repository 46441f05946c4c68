"""Posterior kernel identities, sampler exactness, and loss estimators."""
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from chencensor import bayes, mle, montecarlo
from chencensor.censoring import CensoringPlan, classify, load_sample, simulate_experiment
from chencensor.chen import ChenParams
from conftest import experiments

PRIOR = bayes.GammaPrior(2.0, 2.0, 2.0, 2.0)


def scaled_device_sample(devices30, m=15):
    """A censored sample whose times all sit inside (0, 1).

    Scaling keeps sum(ln x) negative so the importance proposal is valid.
    """
    times = np.sort(devices30)[:m] / 10.0
    plan = CensoringPlan(n=30, m=m, removals=(1,) * m, t1=0.15, t2=0.7)
    return load_sample(times, plan)


# The scalar Metropolis-within-Gibbs pieces, kept as oracles for the
# lockstep kernel: the joint log-kernel, the exact alpha draw, the beta
# log-kernel at fixed alpha and one random-walk move on beta.

def log_posterior_kernel(p, s, prior):
    """Log of the unnormalized joint posterior density at p."""
    sum_t, v = mle._sample_sums(s, p.beta)
    return float(
        (s.d2 + prior.a - 1.0) * np.log(p.alpha)
        - p.alpha * (prior.b + v)
        + (s.d2 + prior.c - 1.0) * np.log(p.beta)
        - p.beta * (prior.d - s.sum_lnx)
        + sum_t
    )


def gibbs_draw_alpha(s, beta, prior, rng):
    """Exact draw from the alpha full conditional Gamma(d2+a, b+nu(beta))."""
    rate = prior.b + mle.nu(s, beta)
    return float(rng.gamma(shape=s.d2 + prior.a, scale=1.0 / rate))


def beta_logkernel(s, alpha, beta, prior):
    """All beta-dependent terms of the joint log-kernel at fixed alpha."""
    sum_t, v = mle._sample_sums(s, beta)
    return float(
        (s.d2 + prior.c - 1.0) * np.log(beta)
        - beta * (prior.d - s.sum_lnx)
        + sum_t
        - alpha * v
    )


def mh_step_beta(s, alpha, beta_current, prior, proposal_sd, rng):
    """One random-walk MH move on beta targeting its full conditional."""
    proposal = beta_current + proposal_sd * rng.standard_normal()
    if proposal <= 0:
        return beta_current, False
    delta = (beta_logkernel(s, alpha, proposal, prior)
             - beta_logkernel(s, alpha, beta_current, prior))
    if np.log(rng.random()) < delta:
        return proposal, True
    return beta_current, False


def nu_by_terms(s, beta):
    """nu at each beta, summed from the sample's times, removals and terminal
    censoring rather than from its cached support."""
    beta = np.asarray(beta, dtype=float)[..., None]
    total = np.expm1(s.times**beta) @ (1.0 + s.effective_removals)
    if s.b > 0:
        total += s.b * np.expm1(s.x_b ** beta[..., 0])
    return total


def reference_chain(s, prior, cfg):
    """One chain by the scalar loop the lockstep kernel replaced: the same
    streams (uniforms, normals, then one gamma draw per iteration) and the
    same arithmetic over the unpadded support."""
    rng = np.random.default_rng(cfg.seed)
    beta = cfg.init.beta
    sd = cfg.proposal_sd if cfg.proposal_sd is not None else max(0.1 * abs(beta), 0.01)
    drate = prior.d - s.sum_lnx
    c1 = s.d2 + prior.c - 1.0

    def parts(b):
        # a wide proposal can overflow nu to inf; its delta is then -inf
        with np.errstate(over="ignore"):
            t = np.exp(b * s.log_support)
            return float(s.weights @ np.expm1(t)), float(t[:s.d2].sum())

    n = cfg.chain_length
    alphas, betas = np.empty(n), np.empty(n)
    nu_cur, sumt_cur = parts(beta)
    log_unif = np.log(rng.random(n))
    steps = sd * rng.standard_normal(n)
    accepted = 0
    for h in range(n):
        alpha = rng.gamma(shape=s.d2 + prior.a, scale=1.0 / (prior.b + nu_cur))
        proposal = beta + steps[h]
        if proposal > 0:
            nu_p, sumt_p = parts(proposal)
            delta = (c1 * np.log(proposal / beta) - (proposal - beta) * drate
                     + (sumt_p - sumt_cur) - alpha * (nu_p - nu_cur))
            if log_unif[h] < delta:
                beta, nu_cur, sumt_cur = proposal, nu_p, sumt_p
                accepted += 1
        alphas[h], betas[h] = alpha, beta
    return alphas, betas, accepted / n


class TestKernel:
    def test_kernel_is_loglik_plus_log_prior(self, all_case_samples):
        """The joint kernel differs from loglik + gamma log-prior kernels by
        a parameter-free constant."""
        rng = np.random.default_rng(1)
        for s in all_case_samples:
            offsets = []
            scale = 1.0
            for _ in range(10):
                p = ChenParams(float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.2, 2.0)))
                prior_kernel = ((PRIOR.a - 1) * np.log(p.alpha) - PRIOR.b * p.alpha
                                + (PRIOR.c - 1) * np.log(p.beta) - PRIOR.d * p.beta)
                offsets.append(log_posterior_kernel(p, s, PRIOR)
                               - mle.log_likelihood(p, s) - prior_kernel)
                # the cancelling alpha*nu terms bound the roundoff floor
                scale = max(scale, p.alpha * mle.nu(s, p.beta))
            assert np.ptp(offsets) < 1e-12 * scale + 1e-10

    def test_overflowed_terminal_time_gives_minus_inf(self, sample_case3):
        """x_b^beta overflowing to inf makes both posterior kernels -inf, not
        nan: `mle._sample_sums` sums the failures alone where x_b^beta is inf."""
        s = sample_case3
        beta = 720.0 / np.log(s.x_b)
        assert log_posterior_kernel(ChenParams(0.5, beta), s, PRIOR) == -np.inf
        assert beta_logkernel(s, 0.5, beta, PRIOR) == -np.inf


class TestGibbsAlpha:
    def test_draws_match_gamma_conditional(self, devices30):
        """Each alpha draw of the chain is Gamma(d2+a, b+nu(beta)) at the
        chain's previous beta, so alpha_h (b + nu(beta_{h-1})) is
        Gamma(d2+a, 1), on a support padded to the plan width m + 1."""
        s = scaled_device_sample(devices30)
        init = ChenParams(1.0, 0.8)
        chains = bayes.run_mh_gibbs(s, PRIOR, bayes.MhConfig(
            chain_length=20000, burn_in=0, init=init, seed=7))
        previous = np.concatenate(([init.beta], chains.beta[:-1]))
        scaled = chains.alpha * (PRIOR.b + nu_by_terms(s, previous))
        _, pval = stats.kstest(scaled, stats.gamma(s.d2 + PRIOR.a).cdf)
        assert pval > 0.01


class TestMhBeta:
    def test_chain_matches_quadrature_conditional(self, sample_case2):
        """Empirical cdf of the beta MH chain at fixed alpha vs the
        normalized full-conditional computed by quadrature."""
        s = sample_case2
        alpha = 0.4
        rng = np.random.default_rng(3)
        beta = 0.8
        draws = np.empty(40000)
        for i in range(draws.size):
            beta, _ = mh_step_beta(s, alpha, beta, PRIOR, 0.25, rng)
            draws[i] = beta
        draws = draws[5000:]

        def kernel(b):
            return np.exp(beta_logkernel(s, alpha, b, PRIOR))

        z, _ = integrate.quad(kernel, 1e-6, 20.0, limit=200)
        grid = np.quantile(draws, np.linspace(0.05, 0.95, 19))
        for g in grid:
            target, _ = integrate.quad(kernel, 1e-6, g, limit=200)
            assert np.mean(draws <= g) == pytest.approx(target / z, abs=0.02)


class TestRunMhGibbs:
    def test_deterministic_given_seed(self, devices30):
        s = scaled_device_sample(devices30)
        cfg = bayes.MhConfig(chain_length=500, burn_in=100, seed=11)
        a = bayes.run_mh_gibbs(s, PRIOR, cfg)
        b = bayes.run_mh_gibbs(s, PRIOR, cfg)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.beta, b.beta)
        assert a.acceptance_rate == b.acceptance_rate

    def test_loop_agrees_with_single_steps(self, devices30):
        """The vectorized chain must follow the same law as the reference
        one-step functions; compare posterior means loosely."""
        s = scaled_device_sample(devices30)
        cfg = bayes.MhConfig(chain_length=4000, burn_in=1000, seed=5)
        chains = bayes.run_mh_gibbs(s, PRIOR, cfg)
        rng = np.random.default_rng(17)
        init = mle.fit(s).params_hat
        sd = max(0.1 * abs(init.beta), 0.01)
        alpha, beta = init.alpha, init.beta
        ref_a, ref_b = [], []
        for _ in range(4000):
            alpha = gibbs_draw_alpha(s, beta, PRIOR, rng)
            beta, _ = mh_step_beta(s, alpha, beta, PRIOR, sd, rng)
            ref_a.append(alpha)
            ref_b.append(beta)
        assert np.mean(chains.alpha[1000:]) == pytest.approx(
            np.mean(ref_a[1000:]), abs=0.15)
        assert np.mean(chains.beta[1000:]) == pytest.approx(
            np.mean(ref_b[1000:]), abs=0.15)

    def test_posterior_concentrates_with_data(self):
        """With n=500 complete observations the posterior mean sits near truth."""
        truth = ChenParams(0.2, 0.5)
        rng = np.random.default_rng(23)
        from chencensor.chen import sample as chen_sample
        x = chen_sample(truth, rng, 500)
        plan = CensoringPlan(n=500, m=500, removals=(0,) * 500, t1=1e12, t2=2e12)
        s = load_sample(x, plan)
        chains = bayes.run_mh_gibbs(s, PRIOR, bayes.MhConfig(chain_length=4000,
                                                             burn_in=1000, seed=2))
        assert np.mean(chains.alpha[1000:]) == pytest.approx(truth.alpha, abs=0.05)
        assert np.mean(chains.beta[1000:]) == pytest.approx(truth.beta, abs=0.05)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            bayes.MhConfig(chain_length=100, burn_in=100)
        with pytest.raises(ValueError):
            bayes.MhConfig(proposal_sd=-0.1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                bayes.MhConfig(proposal_sd=bad)
            with pytest.raises(ValueError):
                bayes.GammaPrior(a=bad)


def lockstep_batch(count=8, chain_length=600, proposal_sd=None):
    """Fitted samples of two m = 20 plans, mixing censoring cases 1-3, so
    rows carry different support sizes and some end in zero padding.  Rows
    this wide sum in blocks, so a pad width that followed the batch would
    change the rounding of nu."""
    plans = (CensoringPlan(n=40, m=20, removals=(1,) * 20, t1=1.0, t2=3.0),
             CensoringPlan(n=40, m=20, removals=(1,) * 20, t1=5.0, t2=10.0))
    rng = np.random.default_rng(12)
    samples, cfgs = [], []
    while len(samples) < count:
        s = simulate_experiment(plans[len(samples) % 2], ChenParams(0.2, 0.5), rng)
        try:
            init = mle.fit(s).params_hat
        except (mle.DegenerateSampleError, mle.NoRootError):
            continue
        samples.append(s)
        cfgs.append(bayes.MhConfig(chain_length=chain_length, burn_in=min(100, chain_length - 1),
                                   proposal_sd=proposal_sd, init=init, seed=100 + len(samples)))
    return samples, cfgs


class TestLockstep:
    def test_rows_equal_single_chains_bit_for_bit(self):
        """Each row of a batch is its solo chain bit for bit, in any order
        and in batches of 1 to `MH_BLOCK` chains.  A lockstep pass decides
        up to four iterations of every chain, to a depth set by the batch
        size, so a solo chain and its row take passes of different
        depths.  Chains of 1, 7 and 601 iterations end inside a pass, and
        601 iterations span more than one chunk of passes at every depth.
        At proposal sd 3.0, proposals <= 0 and proposals whose nu
        overflows are made inside a pass."""
        width = 21
        counts = (1, 8, 10, 17, montecarlo.MH_BLOCK)
        depths = [bayes._depth(count, width) for count in counts]
        assert depths[0] == bayes._MAX_DEPTH and depths[-1] == 1
        assert len(set(depths)) == bayes._MAX_DEPTH
        assert 601 // bayes._MAX_DEPTH > bayes._CHUNK_PASSES
        samples, cfgs = lockstep_batch(count=counts[-1])
        assert {s.case.value for s in samples[:8]} == {1, 2, 3}
        assert {s.plan.m + 1 for s in samples} == {width}
        for chain_length, sd in ((600, None), (1, 3.0), (7, None), (601, 3.0)):
            cfgs = [dataclasses.replace(cfg, chain_length=chain_length, proposal_sd=sd,
                                        burn_in=0) for cfg in cfgs]
            solos = [bayes.run_mh_gibbs(s, PRIOR, cfg) for s, cfg in zip(samples, cfgs)]
            batches = [bayes.run_mh_lockstep(samples[:count], PRIOR, cfgs[:count])
                       for count in counts]
            batches.append(bayes.run_mh_lockstep(samples[7::-1], PRIOR, cfgs[7::-1])[::-1])
            for batch in batches:
                for chains, solo in zip(batch, solos):
                    np.testing.assert_array_equal(chains.alpha, solo.alpha)
                    np.testing.assert_array_equal(chains.beta, solo.beta)
                    assert chains.acceptance_rate == solo.acceptance_rate
        # the solo chains of the last setting propose inside a pass at
        # every iteration but the first of each pass
        nonpositive = overflowed = 0
        for s, cfg, solo in zip(samples, cfgs, solos):
            rng = np.random.default_rng(cfg.seed)
            rng.random(cfg.chain_length)
            steps = cfg.proposal_sd * rng.standard_normal(cfg.chain_length)
            proposals = np.concatenate(([cfg.init.beta], solo.beta[:-1])) + steps
            inside = proposals[np.arange(cfg.chain_length) % depths[0] != 0]
            nonpositive += np.count_nonzero(inside <= 0)
            with np.errstate(over="ignore", invalid="ignore"):
                nu = mle._support_sums(s.log_support, s.weights, s.failure, inside[inside > 0])[1]
            overflowed += np.count_nonzero(nu == np.inf)
        assert nonpositive > 0 and overflowed > 0

    def test_matches_scalar_reference_loop(self):
        """Padding changes only the summation order of nu, and the log
        acceptance ratio is summed in another order, so the chains agree
        with the scalar loop to rounding and accept the same proposals.
        Besides the default batch: a proposal sd so wide that proposals
        <= 0 occur and acceptance falls below 0.1, a chain of one
        iteration, and an odd chain length."""
        for kwargs in ({}, {"proposal_sd": 3.0}, {"chain_length": 1}, {"chain_length": 601}):
            samples, cfgs = lockstep_batch(**kwargs)
            nonpositive = 0
            for s, cfg, chains in zip(samples, cfgs, bayes.run_mh_lockstep(samples, PRIOR, cfgs)):
                alphas, betas, rate = reference_chain(s, PRIOR, cfg)
                np.testing.assert_allclose(chains.alpha, alphas, rtol=1e-12, atol=0)
                np.testing.assert_allclose(chains.beta, betas, rtol=1e-12, atol=0)
                assert chains.acceptance_rate == rate
                assert chains.burn_in == cfg.burn_in
                assert chains.alpha.size == chains.beta.size == cfg.chain_length
                if "proposal_sd" in kwargs:
                    assert rate < 0.1
                    rng = np.random.default_rng(cfg.seed)
                    rng.random(cfg.chain_length)
                    steps = cfg.proposal_sd * rng.standard_normal(cfg.chain_length)
                    previous = np.concatenate(([cfg.init.beta], betas[:-1]))
                    nonpositive += np.count_nonzero(previous + steps <= 0)
            if "proposal_sd" in kwargs:
                assert nonpositive > 0

    def test_proposal_of_exactly_zero_is_rejected(self):
        """With d2 = 0 and prior shape c < 1 the beta kernel's power
        d2 + c - 1 is negative, so its log term is +inf at beta = 0; a
        proposal of exactly 0 must still be rejected.  The first step of
        seed 0 is -z with z its first normal, and the chain starts at z."""
        plan = CensoringPlan(n=10, m=3, removals=(2, 2, 3), t1=1e-9, t2=2e-9)
        s = simulate_experiment(plan, ChenParams(0.2, 0.5), np.random.default_rng(0))
        assert s.d2 == 0
        n = 4
        rng = np.random.default_rng(0)
        rng.random(n)
        start = -rng.standard_normal(n)[0]
        assert start > 0
        prior = bayes.GammaPrior(c=0.5)
        cfg = bayes.MhConfig(chain_length=n, burn_in=0, proposal_sd=1.0, seed=0,
                             init=ChenParams(1.0, start))
        chains = bayes.run_mh_gibbs(s, prior, cfg)
        assert chains.beta[0] == start
        assert np.all(chains.beta > 0)

    def test_rejects_mismatched_batches(self):
        samples, cfgs = lockstep_batch(count=2)
        with pytest.raises(ValueError):
            bayes.run_mh_lockstep([], PRIOR, [])
        with pytest.raises(ValueError):
            bayes.run_mh_lockstep(samples, PRIOR, cfgs[:1])
        longer = bayes.MhConfig(chain_length=700, burn_in=100, init=cfgs[1].init, seed=1)
        with pytest.raises(ValueError, match="chain_length"):
            bayes.run_mh_lockstep(samples, PRIOR, [cfgs[0], longer])
        other_m = classify(np.array([0.5, 1.0]),
                           CensoringPlan(n=10, m=3, removals=(2, 2, 3), t1=4.0, t2=10.0))
        with pytest.raises(ValueError, match="plan size"):
            bayes.run_mh_lockstep([samples[0], other_m], PRIOR, cfgs)


class TestImportanceSampling:
    def test_refuses_invalid_proposal(self, devices30):
        """sum(ln x) above the prior rate d breaks the beta proposal."""
        plan = CensoringPlan(n=30, m=30, removals=(0,) * 30, t1=1e12, t2=2e12)
        s = load_sample(devices30, plan)
        assert float(np.sum(np.log(s.times))) > PRIOR.d
        with pytest.raises(bayes.ProposalInvalidError):
            bayes.importance_sample(s, PRIOR, bayes.IsConfig(draws=100, seed=0))

    def test_weights_normalize_and_ess(self, devices30):
        s = scaled_device_sample(devices30)
        draws = bayes.importance_sample(s, PRIOR, bayes.IsConfig(draws=5000, seed=9))
        w = np.exp(draws.log_weight)
        w /= w.sum()
        assert w.sum() == pytest.approx(1.0, rel=1e-12)
        result = bayes.loss_estimates(draws)
        ess = result.diagnostics["effective_sample_size"]
        assert ess == pytest.approx(1.0 / np.max(w), rel=1e-9)
        assert 1.0 <= ess <= draws.alpha.size

    def test_kish_ess(self, devices30):
        s = scaled_device_sample(devices30)
        draws = bayes.importance_sample(s, PRIOR, bayes.IsConfig(draws=5000, seed=9))
        w = np.exp(draws.log_weight)
        w /= w.sum()
        diagnostics = bayes.loss_estimates(draws).diagnostics
        assert diagnostics["kish_ess"] == pytest.approx(1.0 / np.sum(w**2), rel=1e-12)
        assert diagnostics["effective_sample_size"] <= diagnostics["kish_ess"] <= w.size

    def test_log_weights_match_scipy_oracle(self, devices30):
        """Target kernel minus the two gamma proposal log-densities, with
        scipy's gamma.logpdf and nu summed term by term."""
        s = scaled_device_sample(devices30)
        draws = bayes.importance_sample(s, PRIOR, bayes.IsConfig(draws=3000, seed=13))
        shape_a, shape_b = s.d2 + PRIOR.a, s.d2 + PRIOR.c
        drate = PRIOR.d - float(np.sum(np.log(s.times)))
        removed = s.effective_removals
        expected = []
        for alpha, beta in zip(draws.alpha, draws.beta):
            e = np.expm1(s.times**beta)
            e_b = np.expm1(s.x_b**beta) if s.b > 0 else 0.0
            cens = float(removed @ e) + s.b * e_b
            nu_all = float(e.sum()) + cens
            kernel = ((shape_a - 1) * np.log(alpha) - alpha * (PRIOR.b + nu_all)
                      + (shape_b - 1) * np.log(beta) - beta * drate
                      + float(np.sum(s.times**beta)))
            expected.append(kernel
                            - stats.gamma.logpdf(beta, shape_b, scale=1.0 / drate)
                            - stats.gamma.logpdf(alpha, shape_a, scale=1.0 / (PRIOR.b + cens)))
        expected = np.array(expected)
        expected -= expected.max()
        np.testing.assert_allclose(draws.log_weight, expected, rtol=0, atol=1e-12)

    def test_deterministic_given_seed(self, devices30):
        s = scaled_device_sample(devices30)
        a = bayes.importance_sample(s, PRIOR, bayes.IsConfig(draws=1000, seed=4))
        b = bayes.importance_sample(s, PRIOR, bayes.IsConfig(draws=1000, seed=4))
        np.testing.assert_array_equal(a.log_weight, b.log_weight)

    def test_both_samplers_match_quadrature_truth(self, devices30):
        """Posterior means by quadrature: alpha integrates out in closed
        form, leaving a one-dimensional marginal in beta."""
        from scipy.special import gammaln

        s = scaled_device_sample(devices30)
        sum_lnx = float(np.sum(np.log(s.times)))
        shape_a = s.d2 + PRIOR.a

        def log_marginal_beta(b):
            return (gammaln(shape_a) - shape_a * np.log(PRIOR.b + mle.nu(s, b))
                    + (s.d2 + PRIOR.c - 1) * np.log(b)
                    - b * (PRIOR.d - sum_lnx) + float(np.sum(s.times**b)))

        bs = np.linspace(1e-4, 15.0, 20001)
        logw = np.array([log_marginal_beta(b) for b in bs])
        w = np.exp(logw - logw.max())
        z = np.trapezoid(w, bs)
        truth_beta = float(np.trapezoid(w * bs, bs) / z)
        cond_alpha = np.array([shape_a / (PRIOR.b + mle.nu(s, b)) for b in bs])
        truth_alpha = float(np.trapezoid(w * cond_alpha, bs) / z)

        chains = bayes.run_mh_gibbs(s, PRIOR, bayes.MhConfig(chain_length=11000,
                                                             burn_in=1000, seed=21))
        mh = bayes.loss_estimates(chains)
        assert mh.beta["sel"] == pytest.approx(truth_beta, abs=0.03)
        assert mh.alpha["sel"] == pytest.approx(truth_alpha, abs=0.1)

        # the importance sampler is unbiased but weight-degenerate on this
        # dataset (small effective sample size), hence the loose tolerance
        draws = bayes.importance_sample(s, PRIOR, bayes.IsConfig(draws=10000, seed=22))
        is_ = bayes.loss_estimates(draws)
        assert is_.beta["sel"] == pytest.approx(truth_beta, abs=0.15)
        assert is_.alpha["sel"] == pytest.approx(truth_alpha, abs=0.3)


@pytest.fixture(scope="module")
def chains(devices30):
    s = scaled_device_sample(devices30)
    return bayes.run_mh_gibbs(s, PRIOR, bayes.MhConfig(chain_length=6000,
                                                       burn_in=1000, seed=31))


class TestLossEstimates:
    def test_linex_approaches_sel_for_small_g(self, chains):
        res = bayes.loss_estimates(chains, bayes.LossParams(g=1e-6, q=1.0))
        for est in (res.alpha, res.beta):
            assert abs(est["linex"] - est["sel"]) < 1e-4 * est["sel"]

    def test_entropy_with_q_minus_one_equals_sel(self, chains):
        res = bayes.loss_estimates(chains, bayes.LossParams(g=1.0, q=-1.0))
        assert res.alpha["entropy"] == res.alpha["sel"]
        assert res.beta["entropy"] == res.beta["sel"]

    def test_jensen_orderings(self, chains):
        res = bayes.loss_estimates(chains, bayes.LossParams(g=1.0, q=1.0))
        for est in (res.alpha, res.beta):
            assert est["linex"] <= est["sel"]
            assert est["entropy"] <= est["sel"]

    def test_negative_g_reverses_linex_ordering(self, chains):
        res = bayes.loss_estimates(chains, bayes.LossParams(g=-1.0, q=1.0))
        for est in (res.alpha, res.beta):
            assert est["linex"] >= est["sel"]

    def test_loss_params_validation(self):
        with pytest.raises(ValueError):
            bayes.LossParams(g=0.0)
        with pytest.raises(ValueError):
            bayes.LossParams(q=0.0)
        with pytest.raises(ValueError):
            bayes.LossParams(g=float("nan"))
        with pytest.raises(ValueError):
            bayes.LossParams(q=float("inf"))

    def test_prior_dominates_without_data_weight(self, sample_case3):
        """As the prior tightens, the posterior mean moves to the prior mean."""
        s = sample_case3
        means = []
        for scale in (1.0, 50.0, 2000.0):
            prior = bayes.GammaPrior(3.0 * scale, 2.0 * scale, 2.0, 2.0)
            chains = bayes.run_mh_gibbs(s, prior, bayes.MhConfig(chain_length=4000,
                                                                 burn_in=500, seed=8))
            means.append(float(np.mean(chains.alpha[500:])))
        gaps = [abs(mu - 1.5) for mu in means]
        assert gaps[2] < gaps[1] < gaps[0] + 0.05
        assert gaps[2] < 0.03


@settings(max_examples=40, deadline=None)
@given(s=experiments(), seed=st.integers(0, 2**32 - 1))
def test_samplers_give_finite_estimates_or_a_typed_error(s, seed):
    """On every simulated experiment MH and IS give finite SEL, LINEX and
    entropy estimates of both parameters, or raise a typed error: MH from
    its MLE start, IS where its proposal is not a distribution.  Neither
    warns."""
    runs = (
        (lambda: bayes.run_mh_gibbs(
            s, PRIOR, bayes.MhConfig(chain_length=600, burn_in=100, seed=seed)),
         (mle.DegenerateSampleError, mle.NoRootError)),
        (lambda: bayes.importance_sample(s, PRIOR, bayes.IsConfig(draws=500, seed=seed)),
         bayes.ProposalInvalidError),
    )
    for draw, typed_errors in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = bayes.loss_estimates(draw())
            except typed_errors:
                continue
        for est in (result.alpha, result.beta):
            assert est.keys() == {"sel", "linex", "entropy"}
            assert np.isfinite(list(est.values())).all()
