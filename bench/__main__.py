"""Command line of the benchmark: run | compare | selftest (and the internal child)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench.workloads import MODULES

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = tuple(MODULES)


def _find_program() -> bool:
    """Put the program under test on ``sys.path``; False if it is not there.

    The benchmark measures the checkout it sits in and nothing else, so it
    never falls back to an installed copy.
    """
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {source / 'repro'} is missing", file=sys.stderr)
        return False
    sys.path.insert(0, str(source))
    return True


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", action="append", choices=WORKLOADS,
                     help="repeatable; default: all five")
    run.add_argument("--seed", action="append", type=int, help="repeatable; default: 1")
    run.add_argument("--seconds", type=float, default=None,
                     help="nominal length of a run's timed phases; scales wave, pass and "
                          "operation counts (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="0: plain run only, 1: traced run only; default: both")
    run.add_argument("--smoke", action="store_true", help="every workload at ~1/20 size")
    run.add_argument("--out", type=Path, help="results file (default bench/results/last-run.json)")

    child = commands.add_parser("child")  # internal: one (workload, mode) in this process
    child.add_argument("--workload", required=True, choices=WORKLOADS)
    child.add_argument("--mode", required=True, choices=("plain", "traced"))
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--smoke", action="store_true")

    compare = commands.add_parser("compare", help="compare two results files")
    compare.add_argument("before", type=Path)
    compare.add_argument("after", type=Path)

    commands.add_parser("selftest", help="check the tracer and the benchmark's own tables")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from bench import compare

        return compare.main(args.before, args.after)
    if not _find_program():
        return 2
    if args.command == "selftest":
        from bench import selftest

        return selftest.main()
    from bench import runner

    if args.command == "child":
        report = runner.run_child(args.workload, args.mode, args.seed, args.seconds, args.smoke)
        print(json.dumps(report))
        return 0
    seconds = args.seconds if args.seconds is not None else runner.load_manifest()["run_seconds"]
    modes = ("plain", "traced") if args.trace is None else (("plain", "traced")[args.trace],)
    return runner.run(args.workload or WORKLOADS, modes, args.seed or [1], seconds,
                      args.smoke, args.out)


if __name__ == "__main__":
    sys.exit(main())
