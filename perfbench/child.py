"""Child interpreters started by the benchmark.

    child.py setup --workload NAME --seed N
        Set a workload up in a fresh interpreter and print the perf_counter
        reading taken as soon as set-up returned; the parent times it from
        spawn to that reading.
    child.py cli --spans FILE -- ARGS...
        Run `chencensor.cli.main(ARGS)` with tracing on and write the spans
        to FILE.  Exits with the CLI's exit code.  `import chencensor.cli`
        is timed before the tracer (and numpy with it) is imported, so the
        `cli.import` span holds the program's whole import cost.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="role", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.role == "setup":
        from perfbench.workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed).setup()
        print(repr(time.perf_counter()))
        return 0

    t0 = time.perf_counter()
    import chencensor.cli as cli
    t1 = time.perf_counter()
    from perfbench import tracing
    tracer = tracing.Tracer()
    tracer.record("cli.import", t0, t1)
    cli_args = args.args[1:] if args.args[:1] == ["--"] else args.args
    try:
        with tracing.installed(tracer):
            return cli.main(cli_args)
    finally:
        tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
