"""Benchmark for chencensor.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src`.
Human-readable lines come first.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.

--trace 0  sets the workload up SETUP_SAMPLES times in fresh interpreters,
           then runs rounds of it for S seconds (at least MIN_ROUNDS) with
           tracing off, and reports the end-to-end metrics.
--trace 1  runs round 0 once untraced and once traced and reports the
           per-layer metrics; S is not used, so that counts repeat exactly
           at one seed.  The spans go to .perfbench/spans-NAME-seedN.json.

End-to-end times are in reference seconds (see speed.py); the wall times
are printed next to them.  The exit code is 0 when every output check
passed, 1 when one failed and 2 when the benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import collections
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
MIN_ROUNDS = 2


def measure_setup(name: str, seed: int):
    """Time a fresh interpreter from spawn to the end of the workload's set-up.

    The child prints its perf_counter reading (CLOCK_MONOTONIC, shared by
    every process) as soon as set-up returns, so interpreter shutdown is
    left out."""
    from perfbench.workloads import CHILD, Op, child_env
    cmd = [sys.executable, str(CHILD), "setup", "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed: {proc.stderr.strip()[-500:]}")
    return Op("setup", t0, float(proc.stdout.split()[-1]))


def peak_rss_mb(children: bool) -> float:
    """Peak resident set in MB, of this process or of its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def settle(ops, sampler) -> None:
    """Fill in each operation's wall and reference seconds."""
    for op in ops:
        op.seconds = op.t1 - op.t0 - sampler.own_seconds(op.t0, op.t1)
        op.ref_seconds = sampler.reference_seconds(op.seconds, op.t0, op.t1)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def timing(name: str, ops, note: str = "") -> dict:
    """Median reference seconds, the tail percentile when there is one, the
    median wall seconds and the sample count of a group of operations."""
    from perfbench.stats import tail_percentile
    ref = [op.ref_seconds for op in ops]
    fig = {"name": name, "value": statistics.median(ref), "unit": "s", "n": len(ops),
           "wall": statistics.median(op.seconds for op in ops), "note": note}
    tail = tail_percentile(ref)
    if tail is not None and tail[0] > 50:
        fig["tail"] = {"percentile": tail[0], "value": tail[1]}
    return fig


def figure_line(fig: dict) -> str:
    line = f"{fig['name']:<24} {'p50 ' if 'n' in fig else ''}{_fmt(fig['value'])} {fig['unit']}"
    if "tail" in fig:
        line += f", p{fig['tail']['percentile']:g} {_fmt(fig['tail']['value'])} {fig['unit']}"
    extras = []
    if "wall" in fig:
        extras.append(f"wall {_fmt(fig['wall'])} {fig['unit']}")
    if "n" in fig:
        extras.append(f"n={fig['n']}")
    if fig.get("note"):
        extras.append(fig["note"])
    return line + (f"  ({'; '.join(extras)})" if extras else "")


def figures(wl, ops) -> list[dict]:
    """The workload's named end-to-end figures, with units and sample counts."""
    failed = sum(op.failed for op in ops)
    if wl.name == "study-grid":
        reps = sum(op.info.get("replications", 0) for op in ops)
        est = sum(op.info.get("estimator_replications", 0) for op in ops)
        est_failed = sum(op.info.get("estimator_failures", 0) for op in ops)
        return [
            {"name": "study.reps_per_s", "value": reps / sum(op.ref_seconds for op in ops),
             "unit": "1/s", "wall": reps / sum(op.seconds for op in ops),
             "note": f"{reps} replications in {len(ops)} run_study calls"},
            timing("study.run_study_s", ops),
            {"name": "study.failed_share", "value": est_failed / est, "unit": "ratio",
             "note": f"{est_failed} of {est} estimator-replications without an estimate"},
        ]
    prefix = wl.name.split("-")[0]
    by_kind = collections.defaultdict(list)
    for op in ops:
        by_kind[op.kind].append(op)
    what = "CLI calls with a nonzero exit" if prefix == "cli" else "gof_report calls that raised"
    return [timing(f"{prefix}.{kind}_s", kind_ops) for kind, kind_ops in by_kind.items()] + [
        {"name": f"{prefix}.failed_share", "value": failed / len(ops), "unit": "ratio",
         "note": f"{failed} of {len(ops)} {what}"}]


def timed_run(wl, seed: int, seconds: float, sampler) -> tuple[dict, list, list[str]]:
    from perfbench.stats import geomean
    with sampler:
        setups = [measure_setup(wl.name, seed) for _ in range(SETUP_SAMPLES)]
        wl.setup()
        rounds: list[list] = []
        t0 = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
            rounds.append(wl.run_round(len(rounds)))
        elapsed = time.perf_counter() - t0
    ops = [op for r in rounds for op in r]
    settle(setups + ops, sampler)
    by_kind = collections.defaultdict(list)
    for op in ops:
        by_kind[op.kind].append(op.ref_seconds)
    round_ref = [sum(op.ref_seconds for op in r) for r in rounds]
    round_wall = [sum(op.seconds for op in r) for r in rounds]
    metrics = {
        "setup_s": (statistics.median(op.ref_seconds for op in setups), "s"),
        "peak_rss_mb": (peak_rss_mb(children=wl.name == "cli-devices30"), "MB"),
        "round_s": (statistics.median(round_ref), "s"),
        "op_geomean_s": (geomean(statistics.median(v) for v in by_kind.values()), "s"),
    }
    figs = [
        timing("setup_s", setups, note="fresh interpreters"),
        {"name": "peak_rss_mb", "value": metrics["peak_rss_mb"][0], "unit": "MB",
         "note": "largest child process" if wl.name == "cli-devices30" else "this process"},
        {"name": "round_s", "value": metrics["round_s"][0], "unit": "s", "n": len(rounds),
         "wall": statistics.median(round_wall), "note": f"{len(rounds[0])} operations a round"},
        {"name": "op_geomean_s", "value": metrics["op_geomean_s"][0], "unit": "s",
         "note": f"geometric mean over {len(by_kind)} operation kinds of their medians"},
    ] + figures(wl, ops)
    lines = [f"# {wl.name} seed={seed} trace=0: {len(rounds)} rounds in {_fmt(elapsed)} s; "
             f"{len(sampler.at)} speed samples, mean kernel {_fmt(statistics.fmean(sampler.took))} s"]
    lines += [figure_line(f) for f in figs]
    lines.append("# figures " + json.dumps(figs))
    return metrics, ops, lines


def traced_run(wl, seed: int, sampler) -> tuple[dict, list, list[str]]:
    from perfbench import tracing
    from perfbench.workloads import OUT_DIR
    OUT_DIR.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    with sampler:
        wl.setup()
        untraced = wl.run_round(0)
        with tracing.installed(tracer):
            traced = wl.run_round(0, tracer)
    settle(untraced + traced, sampler)
    values = tracing.per_layer(
        tracer,
        wall_s=sum(op.t1 - op.t0 for op in traced),
        round_s=sum(op.ref_seconds for op in traced),
        untraced_round_s=sum(op.ref_seconds for op in untraced))
    spans_file = OUT_DIR / f"spans-{wl.name}-seed{seed}.json"
    tracer.write(spans_file)
    metrics = {k: (v, tracing.PER_LAYER_UNITS[k]) for k, v in values.items()}
    lines = [f"# {wl.name} seed={seed} trace=1: {len(tracer.start)} spans in "
             f"{spans_file.relative_to(ROOT)}"]
    lines += [f"{k:<40} {_fmt(v)} {unit}" for k, (v, unit) in metrics.items()]
    lines.append("# self time by span (s), largest first")
    by_self = sorted(tracing.totals(tracer).items(), key=lambda kv: -kv[1]["self_s"])
    lines += [f"{name:<40} self {_fmt(t['self_s'])} total {_fmt(t['s'])} calls {t['calls']}"
              for name, t in by_self if t["calls"]]
    if wl.name == "study-grid":
        from perfbench.stats import tail_percentile
        reps = [tracer.duration(i) for i in range(len(tracer.start))
                if tracer.name_of(i) == "montecarlo.replication"]
        tail = tail_percentile(reps)
        lines.append(f"{'study.replication_s':<24} p50 {_fmt(statistics.median(reps))} s, "
                     f"p{tail[0]:g} {_fmt(tail[1])} s wall  (n={len(reps)})")
    return metrics, untraced + traced, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chencensor" / "__init__.py").is_file():
        print(f"error: no chencensor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import speed
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    speed.pin_to_one_core()
    wl = WORKLOADS[args.workload](args.seed)
    sampler = speed.SpeedSampler()
    if args.trace:
        metrics, ops, lines = traced_run(wl, args.seed, sampler)
    else:
        metrics, ops, lines = timed_run(wl, args.seed, args.seconds, sampler)
    problems = [p for op in ops for p in op.problems]
    failed = sum(op.failed or bool(op.problems) for op in ops)
    for line in lines:
        print(line)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
