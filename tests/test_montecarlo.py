"""Scheme construction, scenario validation and study aggregation."""
from dataclasses import replace

import numpy as np
import pytest

from chencensor import bayes
from chencensor import montecarlo as mc
from chencensor.chen import ChenParams

TRUTH = ChenParams(0.2, 0.5)


class TestBuildScheme:
    def test_scheme_i_all_at_last(self):
        assert mc.build_scheme("I", 15, 5) == (0, 0, 0, 0, 10)

    def test_scheme_ii_all_at_first(self):
        assert mc.build_scheme("II", 15, 5) == (10, 0, 0, 0, 0)

    def test_scheme_iii_all_at_middle(self):
        assert mc.build_scheme("III", 20, 10) == (0, 0, 0, 0, 10, 0, 0, 0, 0, 0)
        assert mc.build_scheme("III", 15, 5) == (0, 0, 10, 0, 0)

    def test_scheme_iv_uniform(self):
        assert mc.build_scheme("IV", 30, 15) == (1,) * 15

    def test_scheme_iv_divisibility(self):
        with pytest.raises(ValueError, match="IV"):
            mc.build_scheme("IV", 20, 15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            mc.build_scheme("V", 10, 5)

    def test_all_schemes_conserve_units(self):
        for kind in ("I", "II", "III"):
            assert sum(mc.build_scheme(kind, 23, 7)) == 16


class TestScenario:
    def test_plan_from_named_scheme(self):
        scn = mc.Scenario(n=20, m=10, scheme="IV", t1=0.4, t2=4.0,
                          true_params=TRUTH, replications=10)
        assert scn.plan().removals == (1,) * 10

    def test_plan_from_explicit_removals(self):
        scn = mc.Scenario(n=20, m=10, scheme=(10,) + (0,) * 9, t1=0.4, t2=4.0,
                          true_params=TRUTH, replications=10)
        assert scn.plan().removals == (10,) + (0,) * 9

    def test_invalid_scheme_rejected_eagerly(self):
        with pytest.raises(ValueError):
            mc.Scenario(n=20, m=15, scheme="IV", t1=0.4, t2=4.0,
                        true_params=TRUTH, replications=10)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            mc.Scenario(n=20, m=10, scheme="I", t1=0.4, t2=4.0,
                        true_params=TRUTH, estimators=frozenset({"magic"}))

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            mc.Scenario(n=20, m=10, scheme="I", t1=0.4, t2=4.0,
                        true_params=TRUTH, replications=0)


class TestPaperGrid:
    def test_grid_has_24_scenarios(self):
        grid = mc.paper_grid(replications=10)
        assert len(grid) == 24
        keys = {(s.n, s.m, s.scheme, s.t1, s.t2) for s in grid}
        assert len(keys) == 24
        assert {(s.n, s.m) for s in grid} == {(15, 5), (20, 10), (30, 15)}
        assert {s.scheme for s in grid} == {"I", "II", "III", "IV"}
        assert {(s.t1, s.t2) for s in grid} == {(0.4, 4.0), (1.0, 7.0)}


@pytest.fixture(scope="module")
def report():
    scn = mc.Scenario(n=20, m=10, scheme="IV", t1=0.4, t2=4.0,
                      true_params=TRUTH, replications=60, seed=3,
                      estimators=frozenset({"mle", "mh", "is"}))
    return mc.run_study(scn)


class TestRunStudy:
    def test_row_schema(self, report):
        rows = report.to_rows()
        assert rows
        for row in rows:
            assert tuple(row.keys()) == mc.REPORT_COLUMNS

    def test_mse_dominates_squared_bias(self, report):
        for row in report.to_rows():
            assert row["mse"] >= row["bias"] ** 2 - 1e-12

    def test_case_frequencies_sum_to_one(self, report):
        assert sum(report.case_frequencies.values()) == pytest.approx(1.0)

    def test_mle_rows_have_ci_metrics(self, report):
        mle_rows = [r for r in report.to_rows() if r["estimator"] == "mle"]
        assert {r["parameter"] for r in mle_rows} == {"alpha", "beta"}
        for r in mle_rows:
            assert 0.0 <= r["coverage"] <= 1.0
            assert r["avg_ci_length"] > 0

    def test_bayes_rows_cover_all_losses(self, report):
        for est in ("mh", "is"):
            losses = {r["loss"] for r in report.to_rows() if r["estimator"] == est}
            assert losses == {"sel", "linex", "entropy"}

    def test_bit_identical_reruns(self):
        scn = mc.Scenario(n=15, m=5, scheme="I", t1=0.4, t2=4.0,
                          true_params=TRUTH, replications=20, seed=9)
        a = mc.run_study(scn).to_rows()
        b = mc.run_study(scn).to_rows()
        assert a == b

    def test_seed_changes_results(self):
        base = dict(n=15, m=5, scheme="I", t1=0.4, t2=4.0,
                    true_params=TRUTH, replications=20)
        a = mc.run_study(mc.Scenario(seed=1, **base)).to_rows()
        b = mc.run_study(mc.Scenario(seed=2, **base)).to_rows()
        assert a != b

    def test_replications_independent_of_batching(self, monkeypatch):
        """Counter-based per-replication streams and row-by-row lockstep MH:
        rep r gives the same case and estimates regardless of how many
        replications run before it, which block it shares and how many
        workers run."""
        scn = mc.Scenario(n=15, m=5, scheme="I", t1=0.4, t2=4.0,
                          true_params=TRUTH, replications=5, seed=4,
                          estimators=frozenset({"mle", "mh", "is"}))
        plan = scn.plan()

        def replication(block, r):
            cases, estimates = block
            return cases[r], {name: est[r] for name, est in estimates.items()}

        def assert_same(a, b):
            assert a[0] == b[0]
            assert a[1].keys() == b[1].keys()
            for name in a[1]:
                np.testing.assert_array_equal(a[1][name], b[1][name])

        solo = replication(mc._replicate_block(scn, plan, 3, 4), 0)
        again = replication(mc._replicate_block(scn, plan, 3, 4), 0)
        assert_same(solo, again)
        assert not np.isnan(solo[1]["mh"]).any()
        assert_same(replication(mc._replicate_block(scn, plan, 0, 5), 3), solo)
        assert_same(replication(
            mc._replicate_block(replace(scn, replications=20), plan, 0, 20), 3), solo)

        real = mc.bayes.run_mh_lockstep
        calls = []

        def recorded(samples, prior, cfgs):
            calls.append((samples, cfgs))
            return real(samples, prior, cfgs)

        monkeypatch.setattr(mc.bayes, "run_mh_lockstep", recorded)
        mc._replicate_block(scn, plan, 0, 5)
        [(samples, cfgs)] = calls
        assert len(samples) == 5
        rows = real(samples, scn.prior, cfgs)
        alone = bayes.run_mh_gibbs(samples[3], scn.prior, cfgs[3])
        np.testing.assert_array_equal(alone.alpha, rows[3].alpha)
        np.testing.assert_array_equal(alone.beta, rows[3].beta)
        monkeypatch.undo()

        rows_1 = mc.run_study(scn, workers=1).to_rows()
        assert mc.run_study(scn, workers=2).to_rows() == rows_1
        assert mc.run_study(scn, workers=0).to_rows() == rows_1  # one process
        monkeypatch.setattr(mc, "MH_BLOCK", 2)
        assert mc.run_study(scn, workers=1).to_rows() == rows_1

    def test_interval_failure_is_an_mle_failure(self, monkeypatch):
        """A fit without Wald intervals (a non-positive variance) drops that
        replication's MLE row only; MH and IS still run from the fit."""
        scn = mc.Scenario(n=15, m=5, scheme="I", t1=0.4, t2=4.0,
                          true_params=TRUTH, replications=6, seed=4,
                          estimators=frozenset({"mle", "mh", "is"}))
        base = mc.run_study(scn)
        real = mc.mle._fit_rows
        calls = []

        def second_fit_has_no_interval(rows):
            fits = real(rows)
            calls.append(fits)
            second = np.flatnonzero(~np.isnan(fits.alpha))[1]
            fits.varcov[second, 0, 0] = -fits.varcov[second, 0, 0]
            return fits

        monkeypatch.setattr(mc.mle, "_fit_rows", second_fit_has_no_interval)
        report = mc.run_study(scn)
        assert [fits.alpha.size for fits in calls] == [scn.replications]
        assert len(calls[0].errors) == base.failures["mle"]
        assert report.failures == {**base.failures, "mle": base.failures["mle"] + 1}
        bayes_rows = [r for r in base.to_rows() if r["estimator"] != "mle"]
        assert [r for r in report.to_rows() if r["estimator"] != "mle"] == bayes_rows

    def test_block_fits_match_one_fit_per_replication(self):
        """Each block row's estimates and Wald intervals equal those of
        `mle.fit` and `confidence_intervals` on the same sample, within
        1e-12 relative, and the block fails exactly the replications whose
        one-row fit raises (here samples with fewer than two failures)."""
        scn = mc.Scenario(n=15, m=5, scheme="II", t1=0.05, t2=0.4,
                          true_params=TRUTH, replications=24, seed=5,
                          estimators=frozenset({"mle"}))
        plan = scn.plan()
        _, estimates = mc._replicate_block(scn, plan, 0, scn.replications)
        failed = 0
        for rep, row in enumerate(estimates["mle"]):
            _, sample = mc._one_replication(scn, plan, rep)
            try:
                fit = mc.mle.fit(sample)
            except (mc.mle.DegenerateSampleError, mc.mle.NoRootError):
                assert sample.d2 < 2
                assert np.isnan(row).all()
                failed += 1
                continue
            ci = mc.mle.confidence_intervals(fit, scn.ci_level)
            (alpha, *alpha_ci), (beta, *beta_ci) = row
            np.testing.assert_allclose(
                [alpha, beta, *alpha_ci, *beta_ci],
                [fit.params_hat.alpha, fit.params_hat.beta, *ci.alpha_interval,
                 *ci.beta_interval], rtol=1e-12, atol=0)
        assert 0 < failed < scn.replications

    def test_experiments_without_failures_are_counted_not_raised(self):
        """Every unit outlives t2, so each sample has d2 = 0: MLE and MH
        fail in every replication, and the study still reports."""
        scn = mc.Scenario(n=15, m=5, scheme="I", t1=1e-9, t2=2e-9,
                          true_params=TRUTH, replications=4,
                          estimators=frozenset({"mle", "mh", "is"}))
        report = mc.run_study(scn)
        assert report.case_frequencies == {1: 0.0, 2: 0.0, 3: 1.0}
        assert report.failures["mle"] == report.failures["mh"] == 4

    def test_ci_level_validated(self):
        with pytest.raises(ValueError, match="ci_level"):
            mc.Scenario(n=15, m=5, scheme="I", t1=0.4, t2=4.0,
                        true_params=TRUTH, ci_level=1.0)
