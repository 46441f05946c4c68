"""Run the benchmark over several seeds and summarise how steady it is.

    python3 perfbench/collect.py --seeds 10 --out perfbench/results/BENCH_1.json

It makes SETS sets of untraced runs of every workload in BENCHMARK.json,
one run per seed; set k uses seeds FIRST_SEED + k*N .. FIRST_SEED +
(k+1)*N - 1 for N = --seeds.  Then it makes TRACE_RUNS traced runs per
workload at the first seed.  It reports, per
set and end-to-end metric, the median, the quartiles and the quartile spread
as a share of the median next to the metric's bound in BENCHMARK.json, and
by how much the last set's median is worse than the first's.  It also
reports the medians of the named figures, the per-layer metrics of the
first traced run, whether the repeatable counts came out the same in every
traced run, the machine and library versions, and a comparison with the
ROADMAP baseline.  With --out the summary is written there as JSON.  The
exit code is 1 when a spread exceeds its bound, a set is worse than the
first by more than a bound, or a check failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench.stats import quartile_spread  # noqa: E402

# counts that must repeat exactly across traced runs at one seed
REPEATABLE = ("mle.solve_beta.bracketed", "mle.profile_score.calls", "censoring.case.1",
              "censoring.case.2", "censoring.case.3", "gof.refits_dropped",
              "montecarlo.failures.mle", "montecarlo.failures.mh", "montecarlo.failures.is")

# ROADMAP baseline (2-core x86_64 host, Python 3.10), compared with wall times:
# (figure, value, unit, workload, figure or per-layer metric measured here)
BASELINE = (
    ("chencensor gof, default settings, wall", 17.6, "s", "gof-devices30", "gof.report_s"),
    ("chencensor fit, wall", 1.8, "s", "cli-devices30", "cli.fit_s"),
    ("import chencensor.cli", 1.64, "s", "cli-devices30", "cli.import_s"),
    ("Python time per MH iteration", 12.0, "us", "cli-devices30", "bayes.mh.us_per_iter"),
    ("share of bootstrap refits on the bracketed fallback", 1.0, "ratio", "gof-devices30",
     "bracketed_share"),
    ("MH share of a study replication", 0.75, "ratio", "study-grid", "mh_share"),
)
FIRST_SEED = 1
SETS = 2
TRACE_RUNS = 2
TIMING_MATCH = 0.25   # a timing matches when within 25 % of the baseline
SHARE_MATCH = 0.05    # a share matches when within 5 percentage points


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    figures = {}
    for line in lines:
        if line.startswith("# figures "):
            figures = {f["name"]: f for f in json.loads(line[len("# figures "):])}
    return json.loads(lines[-1]), figures, elapsed


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": quartile_spread(values) if median else None, "values": values}


def library_versions() -> dict:
    code = "import numpy, scipy; print(numpy.__version__, scipy.__version__)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    return {"python": platform.python_version(), "numpy": out[0], "scipy": out[1]}


def compare_with_baseline(workloads: dict) -> list[dict]:
    rows = []
    for figure, base, unit, workload, key in BASELINE:
        w = workloads.get(workload)
        if w is None:
            continue
        layer = w["traced"]["per_layer"]
        if key == "bracketed_share":
            ours = layer.get("mle.solve_beta.bracketed", 0) / max(layer.get("mle.fit.calls", 0), 1)
        elif key == "mh_share":
            ours = (layer.get("bayes.run_mh_gibbs.s", 0)
                    / max(layer.get("montecarlo.run_study.s", 0), 1e-12))
        elif key in layer:
            ours = layer[key]
        elif key in w["figures"]:
            ours = w["figures"][key]["wall_median"]
        else:
            continue
        if unit == "ratio":
            match = abs(ours - base) <= SHARE_MATCH
        else:
            match = abs(ours / base - 1.0) <= TIMING_MATCH
        rows.append({"figure": figure, "baseline": base, "here": ours, "unit": unit,
                     "measured_as": f"{workload}: {key}", "matches": match})
    return rows


def summarise_set(runs, bounds) -> dict:
    out = {}
    for m, bound in bounds.items():
        s = summary([r[0]["metrics"][m]["value"] for r in runs])
        s["bound"] = bound
        s["within_bound"] = s["spread"] <= bound
        s["within_third_of_bound"] = s["spread"] < bound / 3
        out[m] = s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher_better = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    names = [w["name"] for w in spec["workloads"]]
    seed_sets = [list(range(FIRST_SEED + k * args.seeds, FIRST_SEED + (k + 1) * args.seeds))
                 for k in range(SETS)]
    runs = {name: [] for name in names}
    for seeds in seed_sets:
        for name in names:
            batch = []
            for seed in seeds:
                batch.append(run(name, seed, spec["run_seconds"], 0))
                print(f"  {name} seed {seed}: {json.dumps(batch[-1][0])}", flush=True)
            runs[name].append(batch)

    result = {"environment": {"nproc": os.cpu_count(), **library_versions(),
                              "machine": platform.machine()},
              "run_seconds": spec["run_seconds"], "seed_sets": seed_sets, "workloads": {}}
    accepted = True
    for name in names:
        every = [r for batch in runs[name] for r in batch]
        figs = {}
        for f, first in every[0][1].items():
            figs[f] = summary([r[1][f]["value"] for r in every])
            figs[f]["unit"] = first["unit"]
            if "wall" in first:
                figs[f]["wall_median"] = statistics.median(r[1][f]["wall"] for r in every)
        sets = [{"seeds": seeds, "end_to_end": summarise_set(batch, bounds)}
                for seeds, batch in zip(seed_sets, runs[name])]
        entry = {"correct": all(r[0]["correct"] for r in every),
                 "attempted": sum(r[0]["attempted"] for r in every),
                 "failed": sum(r[0]["failed"] for r in every),
                 "run_wall_s": summary([r[2] for r in every]),
                 "sets": sets, "figures": figs}
        print(f"{name}: {len(every)} runs, median wall {entry['run_wall_s']['median']:.1f} s, "
              f"correct={entry['correct']}")
        for k, st in enumerate(sets):
            for m, s in st["end_to_end"].items():
                accepted &= s["within_bound"]
                print(f"  set {k + 1} {m:<14} median {s['median']:.6g}  "
                      f"spread {s['spread']:.3f}  bound {s['bound']}")
        entry["worse_by"] = {}
        for m in bounds:
            first, last = (st["end_to_end"][m]["median"] for st in (sets[0], sets[-1]))
            worse = (first - last) / first if m in higher_better else (last - first) / first
            entry["worse_by"][m] = worse
            accepted &= worse <= bounds[m]
            print(f"  last set worse than first by {worse:+.3f} on {m} (bound {bounds[m]})")
        traced = [run(name, FIRST_SEED, spec["run_seconds"], 1) for _ in range(TRACE_RUNS)]
        layers = [{k: v["value"] for k, v in t[0]["metrics"].items()} for t in traced]
        repeat = {k: len({layer[k] for layer in layers}) == 1 for k in REPEATABLE}
        entry["traced"] = {"seed": FIRST_SEED, "runs": len(traced),
                           "correct": all(t[0]["correct"] for t in traced),
                           "counts_repeat_exactly": repeat, "per_layer": layers[0]}
        accepted &= entry["traced"]["correct"]
        print(f"  traced x{len(traced)}: counts repeat exactly: {all(repeat.values())}")
        result["workloads"][name] = entry
    result["accepted"] = accepted
    result["baseline_comparison"] = compare_with_baseline(result["workloads"])
    for row in result["baseline_comparison"]:
        print(f"  baseline {row['figure']}: {row['baseline']} vs {row['here']:.4g} "
              f"{row['unit']} -> {'matches' if row['matches'] else 'differs'}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0 if accepted and all(w["correct"] for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
