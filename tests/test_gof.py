"""KS and AD statistics against closed-form oracles, plus bootstrap p-values."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from chencensor import gof, mle
from chencensor.chen import ChenParams, cdf, pdf, quantile, sample


class TestKsStatistic:
    def test_single_median_observation(self):
        """One point at the model median: D = max(1 - 1/2, 1/2 - 0) = 1/2."""
        p = ChenParams(0.2, 0.5)
        x = quantile(p, 0.5)
        assert gof.ks_statistic([x], p) == pytest.approx(0.5)

    def test_matches_scipy(self):
        p = ChenParams(0.3, 0.8)
        rng = np.random.default_rng(6)
        x = sample(p, rng, 200)
        expected = stats.kstest(x, lambda t: cdf(p, t)).statistic
        assert gof.ks_statistic(x, p) == pytest.approx(expected, rel=1e-12)

    def test_tie_invariance(self):
        p = ChenParams(0.3, 0.8)
        x = [0.5, 0.5, 1.0, 1.5]
        assert gof.ks_statistic(x, p) == gof.ks_statistic(list(reversed(x)), p)

    def test_large_sample_converges(self):
        p = ChenParams(0.2, 0.5)
        x = sample(p, np.random.default_rng(1), 10000)
        assert gof.ks_statistic(x, p) < 0.02


class TestAdStatistic:
    def test_matches_quadrature_definition(self):
        """A^2 = n * integral of (Fn - F)^2 / (F(1-F)) dF."""
        p = ChenParams(0.3, 0.8)
        x = np.sort(sample(p, np.random.default_rng(8), 40))
        n = x.size

        def integrand(u):
            fn = np.searchsorted(cdf(p, x), u, side="right") / n
            return (fn - u) ** 2 / (u * (1 - u))

        val, err = integrate.quad(integrand, 1e-12, 1 - 1e-12, limit=2000)
        assert gof.ad_statistic(x, p) == pytest.approx(n * val, rel=1e-4)

    def test_undefined_when_cdf_saturates(self):
        p = ChenParams(5.0, 2.0)
        with pytest.raises(ValueError):
            gof.ad_statistic([50.0], p)


class TestReferenceValues:
    """Fixed-parameter evaluation on the bundled device data."""

    REF = ChenParams(0.2, 0.7)

    def test_ks_anchor(self, devices30):
        assert gof.ks_statistic(devices30, self.REF) == pytest.approx(0.21649, abs=1e-4)

    def test_ad_anchor(self, devices30):
        assert gof.ad_statistic(devices30, self.REF) == pytest.approx(1.3748, abs=1e-3)

    def test_fixed_param_pvalues_moderate(self, devices30):
        ks_p = gof.bootstrap_pvalue(devices30, "ks", reps=400, seed=1, params=self.REF)
        ad_p = gof.bootstrap_pvalue(devices30, "ad", reps=400, seed=2, params=self.REF)
        assert 0.05 < ks_p < 0.25
        assert 0.1 < ad_p < 0.35


class TestFitComplete:
    def test_score_zero_at_complete_fit(self, devices30):
        from chencensor import mle
        fit = gof.fit_complete(devices30)
        sa, sb = mle.score(fit.params_hat, fit.sample)
        assert abs(sa) < 1e-6 and abs(sb) < 1e-6
        assert fit.sample.b == 0 and fit.sample.d2 == devices30.size


class TestBootstrapPvalue:
    def test_bounds_and_determinism(self, devices30):
        p1 = gof.bootstrap_pvalue(devices30, "ks", reps=150, seed=5)
        p2 = gof.bootstrap_pvalue(devices30, "ks", reps=150, seed=5)
        assert p1 == p2
        assert 1.0 / 151 <= p1 <= 1.0

    def test_rejects_unknown_statistic(self, devices30):
        with pytest.raises(ValueError):
            gof.bootstrap_pvalue(devices30, "cvm", reps=150, seed=0)

    def test_rejects_too_few_reps(self, devices30):
        with pytest.raises(ValueError):
            gof.bootstrap_pvalue(devices30, "ks", reps=50, seed=0)

    def test_null_data_yields_moderate_pvalues(self):
        """Data actually drawn from a Chen model should rarely give a tiny
        p-value; check a handful of seeds stay above 0.01."""
        truth = ChenParams(0.2, 0.7)
        small = 0
        for seed in range(5):
            x = sample(truth, np.random.default_rng(100 + seed), 30)
            p = gof.bootstrap_pvalue(x, "ks", reps=150, seed=seed)
            if p < 0.01:
                small += 1
        assert small <= 1

    def test_report_structure(self, devices30):
        report = gof.gof_report(devices30, reps=150, seed=3)
        assert report.bootstrap_reps == 150
        assert report.ks_stat > 0 and report.ad_stat > 0
        assert 0 < report.ks_pvalue <= 1 and 0 < report.ad_pvalue <= 1


def reference_bootstrap(data, which, reps, seed, params=None):
    """The per-replicate loop the blocked bootstrap replaced: one
    rng.random(n) draw, one fit_complete and one statistic per replicate.
    Returns the p-value and the number of refits dropped."""
    stat = {"ks": gof.ks_statistic, "ad": gof.ad_statistic}[which]
    data = np.asarray(data, dtype=float)
    fitted = params if params is not None else gof.fit_complete(data).params_hat
    observed = stat(data, fitted)
    rng = np.random.default_rng(seed)
    exceed = failed = 0
    for _ in range(reps):
        boot = sample(fitted, rng, data.size)
        boot_params = params
        if params is None:
            try:
                boot_params = gof.fit_complete(boot).params_hat
            except (mle.DegenerateSampleError, mle.NoRootError):
                failed += 1
                continue
        if stat(boot, boot_params) >= observed:
            exceed += 1
    if failed > 0.1 * reps:
        raise RuntimeError(f"{failed}/{reps} bootstrap fits failed")
    return (1 + exceed) / (reps - failed + 1), failed


class TestBlockedBootstrap:
    """The blocked bootstrap gives the per-replicate loop's p-values, bit for bit."""

    @pytest.mark.parametrize("which", ["ks", "ad"])
    @pytest.mark.parametrize("params", [None, ChenParams(0.2, 0.7)], ids=["refit", "fixed"])
    def test_matches_per_replicate_loop(self, devices30, monkeypatch, which, params):
        # at 8192 values a block, 600 replicates of 30 make three blocks, the
        # last one short; the block is set here so that tuning it keeps them
        monkeypatch.setattr(gof, "_BLOCK_ELEMENTS", 8192)
        assert 600 // (gof._BLOCK_ELEMENTS // 30) == 2
        expected = reference_bootstrap(devices30, which, 600, 11, params)
        assert gof.bootstrap_pvalue(devices30, which, 600, 11, params) == expected[0]
        fitted = params if params is not None else gof.fit_complete(devices30).params_hat
        observed = {"ks": gof.ks_statistic, "ad": gof.ad_statistic}[which](devices30, fitted)
        assert gof._bootstrap(devices30, (which,), 600, 11, params, fitted) == (
            (observed,), (expected[0],), expected[1])

    @pytest.mark.parametrize("params", [None, ChenParams(0.2, 0.7)], ids=["refit", "fixed"])
    def test_block_size_does_not_change_the_report(self, devices30, monkeypatch, params):
        """Blocks of one replicate, of 273 and 546, and one block of all 600
        give the same p-values and dropped counts: each replicate is drawn
        in stream order and solved as its own row."""
        reports = set()
        for elements in (30, 8192, 16384, 10**6):
            monkeypatch.setattr(gof, "_BLOCK_ELEMENTS", elements)
            r = gof.gof_report(devices30, reps=600, seed=11, params=params)
            reports.add((r.ks_pvalue, r.ad_pvalue, r.ks_refits_dropped, r.ad_refits_dropped))
        assert len(reports) == 1

    def test_dropped_refits_leave_the_denominator(self):
        """Three points: the loop drops 12 of 300 refits, as NoRootError or
        DegenerateSampleError, and both statistics lose the same replicates."""
        x = sample(ChenParams(0.2, 0.7), np.random.default_rng(4), 3)
        ks, ad = reference_bootstrap(x, "ks", 300, 1), reference_bootstrap(x, "ad", 300, 1)
        assert (ks[1], ad[1]) == (12, 12)
        report = gof.gof_report(x, reps=300, seed=1)
        assert (report.ks_pvalue, report.ks_refits_dropped) == ks
        assert (report.ad_pvalue, report.ad_refits_dropped) == ad

    def test_too_many_dropped_refits_raise(self):
        """Two points: 34 of 300 refits fail, more than the 10 % allowed."""
        x = sample(ChenParams(0.2, 0.7), np.random.default_rng(1), 2)
        for bootstrap in (reference_bootstrap, gof.bootstrap_pvalue):
            with pytest.raises(RuntimeError, match="34/300"):
                bootstrap(x, "ks", 300, 1)

    def test_fixed_path_drops_nothing(self, devices30):
        report = gof.gof_report(devices30, reps=150, seed=3, params=ChenParams(0.2, 0.7))
        assert report.ks_refits_dropped == report.ad_refits_dropped == 0

    @pytest.mark.parametrize("params, fits", [(None, 1), (ChenParams(0.2, 0.7), 0)],
                             ids=["refit", "fixed"])
    def test_report_fits_the_data_at_most_once(self, devices30, monkeypatch, params, fits):
        """The observed data is fitted once for both statistics on the refit
        path, and not at all at fixed parameters."""
        real = gof.fit_complete
        calls = []

        def counted(data):
            calls.append(np.asarray(data).size)
            return real(data)

        monkeypatch.setattr(gof, "fit_complete", counted)
        report = gof.gof_report(devices30, reps=150, seed=3, params=params)
        assert calls == [devices30.size] * fits
        expected = params if params is not None else real(devices30).params_hat
        assert report.fitted == expected


class TestOneReplicateSet:
    """`gof_report` scores both statistics on the replicates of one stream."""

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("params", [None, ChenParams(0.2, 0.7)], ids=["refit", "fixed"])
    def test_report_pvalues_are_the_one_statistic_pvalues(self, devices30, params, seed):
        report = gof.gof_report(devices30, reps=300, seed=seed, params=params)
        assert (report.ks_pvalue, report.ad_pvalue) == (
            gof.bootstrap_pvalue(devices30, "ks", 300, seed, params),
            gof.bootstrap_pvalue(devices30, "ad", 300, seed, params))

    def test_both_dropped_counts_are_the_one_count(self):
        x = sample(ChenParams(0.2, 0.7), np.random.default_rng(4), 3)
        fitted = gof.fit_complete(x).params_hat
        observed, pvalues, dropped = gof._bootstrap(x, ("ks", "ad"), 300, 1, None, fitted)
        report = gof.gof_report(x, reps=300, seed=1)
        assert dropped == 12
        assert report.ks_refits_dropped == report.ad_refits_dropped == dropped
        assert (report.ks_stat, report.ad_stat) == observed
        assert (report.ks_pvalue, report.ad_pvalue) == pvalues

    # on the refit path the observed data's fit is one more row
    @pytest.mark.parametrize("params, rows", [(None, 601), (ChenParams(0.2, 0.7), 0)],
                             ids=["refit", "fixed"])
    def test_each_replicate_is_refitted_once(self, devices30, monkeypatch, params, rows):
        real = mle._fit_rows
        seen = []

        def counted(batch, *args):
            seen.append(batch.d2.size)
            return real(batch, *args)

        monkeypatch.setattr(mle, "_fit_rows", counted)
        gof.gof_report(devices30, reps=600, seed=3, params=params)
        assert sum(seen) == rows

    def test_overflowed_replicates_are_dropped_quietly(self):
        """At beta_hat about 0.001 the replicates of these four points hold
        exact 0.0 and inf; their rows are dropped as not identified, without
        a numpy warning, and 78 of 100 refits fail."""
        x = np.array([1e-300, 2e-300, 1.0, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="78/100 bootstrap fits failed"):
                gof.gof_report(x, reps=100, seed=1)


@st.composite
def _chen_times(draw):
    p = ChenParams(draw(st.floats(0.01, 5.0)), draw(st.floats(0.1, 3.0)))
    u = draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=3, max_size=12))
    return [float(t) for t in quantile(p, np.array(u))]


# positive finite samples of 3 to 12 times: Chen draws, or log-uniform over
# e^-690 .. e^690, where refits meet draws that under- or overflow
_samples = st.one_of(
    _chen_times(),
    st.lists(st.floats(-690.0, 690.0).map(math.exp), min_size=3, max_size=12),
)


@settings(max_examples=40, deadline=None)
@given(x=_samples)
def test_report_ends_in_pvalues_or_a_typed_error(x):
    """Any sample `load_sample` accepts gives p-values in (0, 1] or raises
    ValueError (DegenerateSampleError among them), NoRootError or the
    too-many-dropped-refits RuntimeError; it never warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            report = gof.gof_report(x, reps=100, seed=0)
        except (ValueError, mle.NoRootError):
            return
        except RuntimeError as exc:
            assert "bootstrap fits failed" in str(exc)
            return
    assert 0 < report.ks_pvalue <= 1 and 0 < report.ad_pvalue <= 1
