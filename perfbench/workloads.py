"""The benchmark workloads.

Each workload is a closed loop with one caller.  Its inputs come from the
workload seed alone: round `i` always gets the same inputs for a given seed,
and the program sees only those inputs.  A round is one pass over the
workload's operation mix; `run_round` times every operation, checks its
output and returns one `Op` per operation.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One timed operation.  t0 and t1 are perf_counter readings; the run
    fills in `seconds` (wall time less the speed sampler's own time) and
    `ref_seconds` (the same at reference speed, see speed.py)."""
    kind: str
    t0: float
    t1: float
    failed: bool = False
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    seconds: float = 0.0
    ref_seconds: float = 0.0


def child_env() -> dict:
    """Environment for child interpreters: the package from src, no seed override."""
    env = dict(os.environ)
    env.pop("CHEN_CENSOR_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int) -> None:
        self._round_seeds = random.Random(f"{self.name}:{seed}")
        self._seeds: list[int] = []

    def round_seed(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(self._round_seeds.randrange(2**31))
        return self._seeds[i]

    def setup(self) -> None:
        """Import what the operations call and build the first round's inputs."""
        raise NotImplementedError

    def run_round(self, i: int, tracer=None) -> list[Op]:
        raise NotImplementedError


def _timed(kind: str, fn, check, label: str, tracer) -> Op:
    """Run one in-process operation and check its result outside the timing."""
    if tracer is not None:
        tracer.begin_op(label)
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # one failed operation must not end the run
        return Op(kind, t0, time.perf_counter(), True, [f"{label}: raised {exc!r}"])
    op = Op(kind, t0, time.perf_counter())
    try:
        op.problems, op.info = check(result)
    except (AttributeError, KeyError, TypeError) as exc:
        op.problems = [f"{label}: malformed result: {exc!r}"]
    return op


class StudyGrid(Workload):
    name = "study-grid"
    why = ("the paper's 24-scenario study with MLE, MH and IS on 1 worker: "
           "every inference layer and the simulator work, gof and cli do not")
    REPS = 5
    ESTIMATORS = frozenset({"mle", "mh", "is"})

    def setup(self) -> None:
        from chencensor import montecarlo
        self.montecarlo = montecarlo
        self.scenarios(0)

    def scenarios(self, i: int):
        return self.montecarlo.paper_grid(replications=self.REPS, seed=self.round_seed(i),
                                          estimators=self.ESTIMATORS)

    @staticmethod
    def _check(report):
        scn = report.scenario
        info = {"replications": scn.replications,
                "estimator_replications": scn.replications * len(scn.estimators),
                "estimator_failures": sum(report.failures.values())}
        return checks.check_study_report(report), info

    def run_round(self, i: int, tracer=None) -> list[Op]:
        ops = []
        for scn in self.scenarios(i):
            kind = f"{scn.n}-{scn.m}-{scn.scheme}-{scn.t1:g}-{scn.t2:g}"
            ops.append(_timed(kind, lambda: self.montecarlo.run_study(scn, workers=1),
                              self._check, f"round{i}/{kind}", tracer))
        return ops


class GofDevices30(Workload):
    name = "gof-devices30"
    why = ("bootstrap GOF on devices30 at the CLI default 2000 reps, refit path "
           "alternating with the fixed (0.2, 0.7) path: mle-heavy versus sampling only")
    REPS = 2000

    def setup(self) -> None:
        from chencensor import datasets, gof
        from chencensor.chen import ChenParams
        self.gof = gof
        self.data = datasets.load_builtin("devices30")
        self.fixed = ChenParams(*checks.FIXED_PARAMS)

    def run_round(self, i: int, tracer=None) -> list[Op]:
        seed = self.round_seed(i)
        return [
            _timed("report",
                   lambda: self.gof.gof_report(self.data, reps=self.REPS, seed=seed),
                   lambda r: (checks.check_gof_report(r, fixed=False), {}),
                   f"round{i}/report", tracer),
            _timed("fixed_report",
                   lambda: self.gof.gof_report(self.data, reps=self.REPS, seed=seed,
                                               params=self.fixed),
                   lambda r: (checks.check_gof_report(r, fixed=True), {}),
                   f"round{i}/fixed_report", tracer),
        ]


class CliDevices30(Workload):
    name = "cli-devices30"
    why = ("one fresh interpreter per CLI call (fit, bayes MH with 11000 iterations, "
           "sample): cold start and import cost plus the one long MH chain")
    SAMPLE_PLAN = {"n": 30, "m": 15, "scheme": "IV", "t1": 0.4, "t2": 4.0}
    SAMPLE_COUNT = 200

    def setup(self) -> None:
        import chencensor.cli  # noqa: F401  (what every invocation imports)
        from chencensor import datasets
        datasets.read_times("builtin:devices30")
        self.commands(0)

    def commands(self, i: int) -> list[tuple[str, list[str]]]:
        seed = str(self.round_seed(i))
        p = self.SAMPLE_PLAN
        return [
            ("fit", ["fit", "--data", "builtin:devices30", "--complete", "--format", "json"]),
            ("bayes", ["bayes", "--data", "builtin:devices30", "--complete", "--seed", seed,
                       "--format", "json"]),
            ("sample", ["sample", "--n", str(p["n"]), "--m", str(p["m"]), "--scheme", p["scheme"],
                        "--t1", str(p["t1"]), "--t2", str(p["t2"]), "--alpha", "0.2",
                        "--beta", "0.5", "--count", str(self.SAMPLE_COUNT), "--seed", seed,
                        "--format", "json"]),
        ]

    def _check(self, kind: str, stdout: str) -> list[str]:
        p = self.SAMPLE_PLAN
        try:
            payload = json.loads(stdout)
            if kind == "fit":
                return checks.check_fit_payload(payload)
            if kind == "bayes":
                return checks.check_bayes_payload(payload)
            return checks.check_sample_records(payload, p["n"], self.SAMPLE_COUNT, p["t2"])
        except ValueError:
            return [f"cli {kind}: output is not JSON"]
        except (AttributeError, KeyError, TypeError) as exc:
            return [f"cli {kind}: malformed output: {exc!r}"]

    def run_round(self, i: int, tracer=None) -> list[Op]:
        ops = []
        for kind, argv in self.commands(i):
            label = f"round{i}/{kind}"
            spans = OUT_DIR / f"cli-{os.getpid()}-{i}-{kind}.json"
            if tracer is None:
                cmd = [sys.executable, "-m", "chencensor.cli", *argv]
            else:
                cmd = [sys.executable, str(CHILD), "cli", "--spans", str(spans), "--", *argv]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                      text=True, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                ops.append(Op(kind, t0, time.perf_counter(), True,
                              [f"{label}: no exit within {CLI_TIMEOUT_S} s"]))
                continue
            op = Op(kind, t0, time.perf_counter())
            if proc.returncode != 0:
                op.failed = True
                op.problems = [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            else:
                op.problems = self._check(kind, proc.stdout)
            if tracer is not None and spans.exists():
                with open(spans, encoding="utf-8") as fh:
                    tracer.merge(json.load(fh), label)
                spans.unlink()
            ops.append(op)
        return ops


WORKLOADS = {w.name: w for w in (StudyGrid, GofDevices30, CliDevices30)}
