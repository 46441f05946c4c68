"""Command-line behavior: output formats, determinism, exit codes."""
import csv
import io
import json
import subprocess
import sys

import pytest

from chencensor import cli
from chencensor.datasets import load_builtin, parse_times, read_times


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDatasets:
    def test_builtin_devices30(self):
        data = load_builtin("devices30")
        assert data.size == 30
        assert data.min() == pytest.approx(0.02)
        assert data.max() == pytest.approx(3.00)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            load_builtin("nosuch")

    def test_parse_times_formats(self):
        assert parse_times("1.0, 2.0\n3.0 # comment\n").tolist() == [1.0, 2.0, 3.0]

    def test_read_times_builtin_prefix(self):
        assert read_times("builtin:devices30").size == 30


class TestSample:
    def test_deterministic_given_seed(self, capsys):
        argv = ("sample", "--n", "15", "--m", "5", "--scheme", "I",
                "--t1", "0.4", "--t2", "4", "--alpha", "0.2", "--beta", "0.5",
                "--seed", "11", "--format", "json")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        record = json.loads(out1)[0]
        assert record["d2"] + sum(record["removals"]) + record["b"] == 15
        assert (record["k1"], record["k2"]) == (record["d1"], record["d2"])

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("CHEN_CENSOR_SEED", "77")
        argv = ("sample", "--n", "15", "--m", "5", "--scheme", "I",
                "--t1", "0.4", "--t2", "4", "--alpha", "0.2", "--beta", "0.5",
                "--format", "json")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_scheme_iv_divisibility_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--n", "20", "--m", "15",
                               "--scheme", "IV", "--t1", "0.4", "--t2", "4",
                               "--alpha", "0.2", "--beta", "0.5")
        assert code == 2
        assert "IV" in err

    @pytest.mark.parametrize("count, fmt", [("0", "csv"), ("-2", "json")])
    def test_count_below_one_is_usage_error(self, capsys, count, fmt):
        code, out, err = run_cli(capsys, "sample", "--n", "15", "--m", "5",
                                 "--scheme", "I", "--t1", "0.4", "--t2", "4",
                                 "--alpha", "0.2", "--beta", "0.5",
                                 "--count", count, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--count" in err

    def test_missing_plan_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--n", "20", "--m", "10",
                               "--scheme", "I", "--t1", "0.4",
                               "--alpha", "0.2", "--beta", "0.5")
        assert code == 2
        assert "--t2" in err


class TestFit:
    def test_complete_fit_json(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--data", "builtin:devices30",
                               "--complete", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha_hat"] == pytest.approx(0.17262, abs=1e-4)
        assert payload["beta_hat"] == pytest.approx(0.84849, abs=1e-4)
        assert payload["alpha_ci"][0] < payload["alpha_hat"] < payload["alpha_ci"][1]
        assert payload["d2"] == 30

    def test_censored_fit_with_plan(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--data", "builtin:devices30",
                               "--n", "30", "--m", "30",
                               "--scheme", ",".join(["0"] * 30),
                               "--t1", "2.95", "--t2", "3.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == 2

    def test_hazard_grid_emitted(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--data", "builtin:devices30",
                               "--complete", "--hazard-grid", "5", "--format", "json")
        assert code == 0
        grid = json.loads(out)["hazard_grid"]
        assert len(grid) == 5
        assert all(pt["hazard"] > 0 for pt in grid)

    def test_complete_data_beyond_any_threshold(self, capsys, tmp_path):
        """A complete sample is case 1 however large its times are."""
        data = tmp_path / "big.txt"
        data.write_text("1.0 2.0 3e12\n")
        code, out, err = run_cli(capsys, "fit", "--data", str(data), "--complete",
                                 "--format", "json")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["case"] == 1
        assert payload["alpha_hat"] > 0 and payload["beta_hat"] > 0

    def test_no_root_is_runtime_error_without_traceback(self, capsys, tmp_path):
        data = tmp_path / "tiny.txt"
        data.write_text("1.49e-9\n1.54e-9\n")
        code, out, err = run_cli(capsys, "fit", "--data", str(data), "--n", "32",
                                 "--m", "2", "--scheme", "12,18", "--t1", "1",
                                 "--t2", "2", "--format", "json")
        assert code == cli.RUNTIME_ERROR
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--data", "/nonexistent.txt",
                               "--complete")
        assert code == 2


class TestBayes:
    ARGS = ("bayes", "--data", "builtin:devices30", "--complete",
            "--chain-length", "2000", "--burn-in", "500", "--seed", "3",
            "--format", "json")

    def test_mh_runs_and_reports_losses(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        payload = json.loads(out)
        for param in ("alpha", "beta"):
            assert set(payload[param]) == {"sel", "linex", "entropy"}
        assert payload["diagnostics"]["sampler"] == "mh"

    def test_small_g_linex_close_to_sel(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--g", "1e-6")
        payload = json.loads(out)
        assert abs(payload["alpha"]["linex"] - payload["alpha"]["sel"]) \
            < 1e-4 * payload["alpha"]["sel"]

    def test_is_reports_kish_ess(self, capsys, tmp_path):
        # times below 1 keep sum(ln x) under the prior rate d
        data = tmp_path / "scaled.txt"
        data.write_text("\n".join(str(x / 10.0) for x in load_builtin("devices30")))
        code, out, _ = run_cli(capsys, "bayes", "--data", str(data), "--complete",
                               "--sampler", "is", "--draws", "2000", "--seed", "3",
                               "--format", "json")
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["sampler"] == "is"
        assert diagnostics["effective_sample_size"] <= diagnostics["kish_ess"] <= 2000

    def test_is_refused_when_proposal_invalid(self, capsys):
        # sum(ln x) for the device data exceeds the default prior rate d
        code, _, err = run_cli(capsys, "bayes", "--data", "builtin:devices30",
                               "--complete", "--sampler", "is", "--seed", "3")
        assert code == 1
        assert "importance" in err


class TestStudy:
    def test_dry_run_lists_24_scenarios(self, capsys):
        code, out, _ = run_cli(capsys, "study", "--paper-grid", "--dry-run",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 24

    def test_config_file_study(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("n = 15\nm = 5\nscheme = I\nt1 = 0.4\nt2 = 4\n"
                       "reps = 10\nseed = 5\nestimators = mle\n")
        code, out, _ = run_cli(capsys, "study", "--config", str(cfg),
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["parameter"] for r in rows} == {"alpha", "beta"}

    def test_seed_zero_overrides_config_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("CHEN_CENSOR_SEED", raising=False)
        body = "n = 15\nm = 5\nscheme = I\nt1 = 0.4\nt2 = 4\nreps = 10\nestimators = mle\n"
        outputs = {}
        for name, text, flags in (("flag0", body + "seed = 5\n", ("--seed", "0")),
                                  ("cfg0", body + "seed = 0\n", ()),
                                  ("cfg5", body + "seed = 5\n", ())):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            code, outputs[name], _ = run_cli(capsys, "study", "--config", str(cfg),
                                             "--workers", "1", "--format", "csv", *flags)
            assert code == 0
        assert outputs["flag0"] == outputs["cfg0"]
        assert outputs["flag0"] != outputs["cfg5"]

    def test_reps_zero_is_not_replaced_by_config(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("n = 15\nm = 5\nscheme = I\nt1 = 0.4\nt2 = 4\n"
                       "reps = 10\nseed = 5\nestimators = mle\n")
        code, _, err = run_cli(capsys, "study", "--config", str(cfg), "--reps", "0",
                               "--workers", "1")
        assert code == 2
        assert "replications" in err

    def test_missing_mode_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "study")
        assert code == 2

    def test_out_file_written(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("n = 15\nm = 5\nscheme = I\nt1 = 0.4\nt2 = 4\n"
                       "reps = 5\nseed = 5\nestimators = mle\n")
        out_file = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "study", "--config", str(cfg),
                             "--out", str(out_file))
        assert code == 0
        assert out_file.exists()
        rows = list(csv.DictReader(out_file.open()))
        assert rows


class TestGof:
    def test_fixed_params_report(self, capsys):
        code, out, _ = run_cli(capsys, "gof", "--data", "builtin:devices30",
                               "--alpha", "0.2", "--beta", "0.7",
                               "--reps", "150", "--seed", "9", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ks_stat"] == pytest.approx(0.21649, abs=1e-4)
        assert payload["ad_stat"] == pytest.approx(1.3748, abs=1e-3)
        assert payload["ks_refits_dropped"] == payload["ad_refits_dropped"] == 0

    def test_overflowing_replicates_end_in_one_error_line(self, capsys, tmp_path):
        """Replicates that under- and overflow fail their refits quietly: the
        command reports the dropped share and prints no numpy warning."""
        data = tmp_path / "extreme.txt"
        data.write_text("1e-300 2e-300 1 1e300\n")
        code, _, err = run_cli(capsys, "gof", "--data", str(data),
                               "--reps", "100", "--seed", "1")
        assert code == 1
        assert err == "error: 78/100 bootstrap fits failed\n"

    def test_single_fixed_param_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "gof", "--data", "builtin:devices30",
                             "--alpha", "0.2")
        assert code == 2

    def test_too_few_reps_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "gof", "--data", "builtin:devices30",
                             "--reps", "10")
        assert code == 2


DEVICES = ("--data", "builtin:devices30", "--complete")
SAMPLE = ("sample", "--n", "30", "--m", "15", "--scheme", "IV", "--t1", "0.4",
          "--t2", "4.0", "--alpha", "0.2", "--beta", "0.5")


@pytest.mark.parametrize("argv", [
    ("bayes", *DEVICES, "--chain-length", "0"),
    ("bayes", *DEVICES, "--sampler", "is", "--draws", "0"),
    ("bayes", *DEVICES, "--a", "0"),
    ("bayes", *DEVICES, "--g", "0"),
    ("study", "--paper-grid", "--reps", "0", "--dry-run"),
    ("study", "--paper-grid", "--estimators", "magic", "--dry-run"),
    ("fit", *DEVICES, "--level", "1.5"),
    ("study", "--paper-grid", "--reps", "1", "--workers", "0", "--estimators", "mle"),
    ("bayes", *DEVICES, "--a", "nan"),
    ("bayes", *DEVICES, "--d", "inf"),
    ("bayes", *DEVICES, "--g", "nan"),
    ("bayes", *DEVICES, "--proposal-sd", "nan"),
    ("study", "--paper-grid", "--reps", "1", "--workers", "-2", "--estimators", "mle"),
    ("study", "--paper-grid", "--workers", "0", "--dry-run"),
    ("fit", *DEVICES, "--hazard-grid", "-3"),
    ("fit", *DEVICES, "--hazard-grid", "2", "--hazard-max", "0"),
    ("fit", *DEVICES, "--hazard-grid", "2", "--hazard-max", "nan"),
    ("fit", *DEVICES, "--hazard-grid", "2", "--hazard-max", "inf"),
    ("study", "--paper-grid", "--reps", "1", "--workers", "1", "--seed", "1",
     "--estimators", ","),
    ("study", "--paper-grid", "--dry-run", "--estimators", ","),
])
def test_invalid_option_value_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.USAGE_ERROR
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


PLAN = ("--n", "10", "--m", "3", "--scheme", "I", "--t1", "1", "--t2", "5")


# {dir} is an existing directory, {bad_scheme} a config whose scheme is not
# a list of integers, {no_estimators} a config whose estimator list is empty;
# {negative} holds the times 1 -2 3, {four} four times, more than m = 3 of
# PLAN, and {late} a time at t2 = 5
@pytest.mark.parametrize("argv", [
    ("fit", "--data", "{dir}", "--complete"),
    ("bayes", "--data", "{dir}", "--complete"),
    ("gof", "--data", "{dir}"),
    ("study", "--config", "{dir}"),
    ("study", "--config", "{bad_scheme}"),
    ("study", "--paper-grid", "--reps", "1", "--workers", "1", "--estimators", "mle",
     "--out", "{dir}/missing/x.csv"),
    ("study", "--paper-grid", "--reps", "1", "--workers", "1", "--estimators", "mle",
     "--out", "{dir}"),
    ("study", "--config", "{no_estimators}", "--workers", "1"),
    ("fit", "--data", "{negative}", "--complete"),
    ("bayes", "--data", "{negative}", "--complete"),
    ("gof", "--data", "{negative}"),
    ("gof", "--data", "{negative}", "--alpha", "0.2", "--beta", "0.7"),
    ("fit", "--data", "{four}", *PLAN),
    ("bayes", "--data", "{four}", *PLAN),
    ("fit", "--data", "{late}", *PLAN),
], ids=["fit-data-dir", "bayes-data-dir", "gof-data-dir", "config-dir", "config-scheme",
        "out-missing-dir", "out-is-dir", "config-estimators", "fit-negative-time",
        "bayes-negative-time", "gof-negative-time", "gof-fixed-negative-time",
        "fit-too-many-failures", "bayes-too-many-failures", "fit-time-at-t2"])
def test_bad_path_or_config_ends_in_one_usage_error_line(capsys, tmp_path, argv):
    bad_scheme = tmp_path / "bad_scheme.cfg"
    bad_scheme.write_text("n = 15\nm = 5\nscheme = 1,x\nt1 = 0.4\nt2 = 4\nreps = 2\n")
    no_estimators = tmp_path / "no_estimators.cfg"
    no_estimators.write_text("n = 15\nm = 5\nscheme = I\nt1 = 0.4\nt2 = 4\nreps = 2\n"
                             "estimators = ,\n")
    files = {}
    for name, text in (("negative", "1 -2 3\n"), ("four", "0.5 1.5 2 3\n"),
                       ("late", "0.5 2 5\n")):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    argv = [a.format(dir=tmp_path, bad_scheme=bad_scheme, no_estimators=no_estimators,
                     **files)
            for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.USAGE_ERROR
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chencensor.cli", "sample", "--n", "10",
             "--m", "5", "--scheme", "I", "--t1", "0.4", "--t2", "4",
             "--alpha", "0.2", "--beta", "0.5", "--seed", "1",
             "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)

    def test_import_loads_no_scipy(self):
        """scipy is a test dependency only: the CLI must not import it."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, chencensor.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_reader_closing_the_pipe_ends_quietly(self):
        """Output far larger than a pipe's buffer, whose reader stops after
        one line: exit 1 and nothing on stderr, no traceback at shutdown."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "chencensor.cli", *SAMPLE, "--count", "2000",
             "--seed", "1", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err


MLE, BAYES, GOF, MONTECARLO = (f"chencensor.{name}"
                               for name in ("mle", "bayes", "gof", "montecarlo"))
PACKAGE = (MLE, BAYES, GOF, MONTECARLO)


@pytest.mark.parametrize("module, argv, absent", [
    ("chencensor.cli", None, PACKAGE + ("concurrent.futures", "statistics")),
    ("chencensor.cli", SAMPLE, PACKAGE),
    ("chencensor.cli", ("fit", *DEVICES), (BAYES, GOF, MONTECARLO)),
    ("chencensor.cli", ("bayes", *DEVICES, "--chain-length", "200", "--burn-in", "10"),
     (GOF, MONTECARLO)),
    ("chencensor.cli", ("gof", "--data", "builtin:devices30", "--reps", "100"),
     (BAYES, MONTECARLO)),
    ("chencensor.cli", ("study", "--paper-grid", "--dry-run"), ("concurrent.futures",)),
    ("chencensor.montecarlo", None, ("concurrent.futures",)),
], ids=["import-cli", "sample", "fit", "bayes", "gof", "study-dry-run", "import-montecarlo"])
def test_command_loads_only_the_modules_it_runs(module, argv, absent):
    """In a fresh interpreter, importing `module` and running `main(argv)`
    on it leaves none of the `absent` modules in sys.modules."""
    script = "\n".join([
        "import contextlib, importlib, io, sys",
        f"module = importlib.import_module({module!r})",
        f"argv = {argv!r}",
        "if argv is not None:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert module.main(list(argv)) == 0",
        f"print(' '.join(sorted(set({absent!r}) & set(sys.modules))))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
