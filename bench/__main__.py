"""Command line of the benchmark.

``python -m bench --workload W --seed N --seconds S --trace 0|1``
    One run of one workload (the form ``BENCHMARK.json`` declares). The last
    line of standard output is one JSON object: ``correct``, ``attempted``,
    ``failed`` and ``metrics`` — every end-to-end metric with ``--trace 0``,
    every per-layer metric with ``--trace 1``.

``python -m bench [--seed 42] [--seconds S] [--out results.json] [--smoke]``
    Every workload, untraced then traced; prints every metric by name with
    its unit and exits non-zero if any output was wrong.

``python -m bench --compare A.json B.json``
    Compares two ``--out`` files (see ``bench/compare.py``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

# The benchmark measures the sources beside it; no installation needed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

if importlib.util.find_spec("repro") is None:
    sys.exit("bench: the repro package is not importable (expected in ./src)")

from bench import compare, run  # noqa: E402


def _units(decl: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in decl["end_to_end"] + decl["per_layer"]}


def _per_layer(decl: dict) -> list[str]:
    return [m["name"] for m in decl["per_layer"]]


def _with_units(metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def _show(result: dict, units: dict[str, str]) -> None:
    spread = result["spread"]
    for name, value in result["metrics"].items():
        note = ""
        if name in spread:
            note = f"   (repetitions: min {spread[name][0]:.6g}, max {spread[name][1]:.6g})"
        print(f"  {name:38s} {value:14.6g} {units[name]}{note}")
    for problem in result["problems"]:
        print(f"  WRONG: {problem}")


def _one(args: argparse.Namespace, decl: dict) -> int:
    seconds = decl["run_seconds"] if args.seconds is None else args.seconds
    result = run.run_workload(
        args.workload, args.seed, seconds, bool(args.trace), _per_layer(decl)
    )
    units = _units(decl)
    print(f"{args.workload} seed={args.seed} repetitions={result['repetitions']}")
    _show(result, units)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _with_units(result["metrics"], units),
    }))
    return 0 if result["correct"] else 1


def _all(args: argparse.Namespace, decl: dict) -> int:
    units = _units(decl)
    seconds = decl["run_seconds"] if args.seconds is None else args.seconds
    if args.smoke:
        seconds = 0.0
    report: dict = {"seed": args.seed, "smoke": args.smoke, "workloads": {}}
    ok = True
    for w in decl["workloads"]:
        name = w["name"]
        plain = run.run_workload(name, args.seed, seconds, False, _per_layer(decl), args.smoke)
        traced = run.run_workload(name, args.seed, seconds, True, _per_layer(decl), args.smoke)
        problems = plain["problems"] + traced["problems"]
        if plain["exact"] != traced["exact"]:
            problems.append("untraced and traced runs disagree on simulated results")
        ok = ok and not problems and plain["failed"] + traced["failed"] == 0
        print(f"{name}: {w['why']}")
        print(f"  attempted {plain['attempted'] + traced['attempted']}, "
              f"failed {plain['failed'] + traced['failed']}")
        _show(plain, units)
        _show(traced, units)
        report["workloads"][name] = {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "problems": problems,
            "end_to_end": _with_units(plain["metrics"], units),
            "spread": plain["spread"],
            "per_layer": _with_units(traced["metrics"], units),
            "exact": plain["exact"],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    print("all outputs correct" if ok else "WRONG OUTPUTS: see above")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at about 1/20 size, 1+1 repetitions")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--rep", help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.rep:
        print(json.dumps(run.repetition(
            args.rep, args.seed, bool(args.trace), args.smoke, args.spawned_at
        )))
        return 0
    decl = run.declared()
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], decl)
    if args.workload:
        if args.workload not in {w["name"] for w in decl["workloads"]}:
            ap.error(f"unknown workload {args.workload!r}")
        return _one(args, decl)
    return _all(args, decl)


if __name__ == "__main__":
    sys.exit(main())
