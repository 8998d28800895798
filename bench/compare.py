"""``python -m bench --compare A.json B.json``: is B worse than A?

One row per (workload, end-to-end metric) with both values, the widest
relative spread of the host-clock repetitions, and a verdict against the
bound ``BENCHMARK.json`` fixes for the metric:

``same``        B is within the bound of A
``worse``       B is worse than A by more than the bound
``better``      B is better than A by more than the bound
``unresolved``  the repetitions of one side spread wider than the bound, and
                the sides' repetitions overlap — run again, do not read it as
                unchanged

Simulated metrics and exact counts are deterministic for a seed, so they are
compared for equality and reported separately. Exit status is non-zero on
any ``worse`` row or when B failed more operations than A.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["verdict", "main"]


def verdict(
    a: float, b: float, better: str, bound: float,
    a_range: list[float] | None = None, b_range: list[float] | None = None,
) -> tuple[str, float]:
    """Verdict for B against A, and the widest relative spread seen."""
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b - a) / a if a else 0.0
    spread = 0.0
    if a_range and b_range:
        spread = max((a_range[1] - a_range[0]) / a, (b_range[1] - b_range[0]) / b)
        if spread > bound:
            apart_better = (
                b_range[0] > a_range[1] if better == "higher" else b_range[1] < a_range[0]
            )
            apart_worse = (
                b_range[1] < a_range[0] if better == "higher" else b_range[0] > a_range[1]
            )
            if not (apart_better or apart_worse):
                return "unresolved", spread
    if gain < -bound:
        return "worse", spread
    if gain > bound:
        return "better", spread
    return "same", spread


def main(path_a: str, path_b: str, decl: dict) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}); "
              "simulated metrics and exact counts are not comparable")
    bad = False
    print(f"{'workload':14s} {'metric':18s} {'A':>13s} {'B':>13s} {'unit':7s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for w in decl["workloads"]:
        name = w["name"]
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in decl["end_to_end"]:
            metric = m["name"]
            va = wa["end_to_end"][metric]["value"]
            vb = wb["end_to_end"][metric]["value"]
            word, spread = verdict(
                va, vb, m["better"], m["bound"],
                wa["spread"].get(metric), wb["spread"].get(metric),
            )
            bad = bad or word == "worse"
            print(f"{name:14s} {metric:18s} {va:13.6g} {vb:13.6g} {m['unit']:7s} "
                  f"{spread:7.1%} {m['bound']:6.0%}  {word}")
        fa, fb = wa["failed"] / wa["attempted"], wb["failed"] / wb["attempted"]
        if fb > fa:
            bad = True
            print(f"{name:14s} failed fraction rose from {fa:.3g} to {fb:.3g}: worse")

    print("\nsimulated metrics and exact counts (must be equal for one seed):")
    for w in decl["workloads"]:
        name = w["name"]
        ea, eb = a["workloads"][name]["exact"], b["workloads"][name]["exact"]
        differing = sorted(k for k in set(ea) | set(eb) if ea.get(k) != eb.get(k))
        if not differing:
            print(f"  {name}: all {len(ea)} equal")
        for key in differing:
            print(f"  {name}: {key} differs: {ea.get(key)} vs {eb.get(key)}")
    return 1 if bad else 0
