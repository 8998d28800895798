"""Repetitions in fresh processes, combined into the benchmark's metrics.

One *run* measures one workload with one seed. It spawns repetitions — each a
fresh single-threaded process running the same generated inputs — until the
measured phases add up to the requested seconds (at least
:data:`MIN_REPS`). Host-clock metrics are the median over repetitions;
simulated-clock metrics and exact counts must be identical in every
repetition, traced or not, or the run is incorrect.

A traced run alternates untraced and traced repetitions, so it can report
the sampler's overhead against its own untraced repetitions.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

from bench.calibrate import Calibrator

__all__ = ["MIN_REPS", "declared", "run_workload", "repetition"]

MIN_REPS = 3
_ROOT = Path(__file__).resolve().parent.parent
_OUT = Path(__file__).resolve().parent / "out"


def declared() -> dict[str, Any]:
    """``BENCHMARK.json``: the single declaration of workloads and metrics."""
    return json.loads((_ROOT / "BENCHMARK.json").read_text())


# -- the child: one repetition ----------------------------------------------------

def repetition(workload: str, seed: int, traced: bool, smoke: bool, spawned_at: float) -> dict:
    """Run one repetition in this process; returns its JSON-ready result."""
    calibrator = Calibrator().start()

    from bench.trace import Sampler, Spans
    from bench.workloads import WORKLOADS

    spans = Spans(spawned_at, calibrator)
    # Interpreter start and imports: from the spawn to here.
    spans.add("import", spans.origin, time.perf_counter())
    sampler = Sampler() if traced else None
    rep = WORKLOADS[workload](seed, smoke, sampler, spans)
    calibrator.stop()
    result = {
        "ops": rep.ops,
        "failed": rep.failed,
        "measured_s": rep.measured_s,
        "measured_wall_s": spans.wall("measured"),
        # Imports are file reads and C-level unmarshalling, which do not slow
        # down with the reference loop: wall seconds for them, calibrated
        # seconds for the simulator-like phases.
        "setup_s": spans.wall("import") + spans.calibrated("generate", "deploy", "preload", "settle"),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": rep.sim,
        "exact": rep.exact,
        "host": rep.host,
        "messages": rep.messages,
        "samples": sampler.samples if sampler is not None else None,
    }
    if traced:
        _OUT.mkdir(exist_ok=True)
        trace = {
            "workload": workload,
            "seed": seed,
            "host_spans_s": spans.rows,
            "samples": sampler.samples,
            "counters": rep.counters,
            "sim_op_spans": rep.op_spans,
        }
        (_OUT / f"{workload}.trace.json").write_text(json.dumps(trace))
    return result


def _spawn(workload: str, seed: int, traced: bool, smoke: bool) -> dict:
    cmd = [
        sys.executable, "-m", "bench", "--rep", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--spawned-at", repr(time.time()),
    ]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(
        cmd, cwd=_ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"repetition of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


# -- the parent: one run ---------------------------------------------------------------

def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, per_layer: list[str],
    smoke: bool = False,
) -> dict[str, Any]:
    """One run. Returns ``metrics`` (name -> value: end-to-end when untraced,
    every name in ``per_layer`` when traced), ``attempted``/``failed``/
    ``correct``, the values that must repeat exactly (``exact``) and the
    host-clock spreads."""
    # A traced run alternates untraced and traced repetitions, in pairs.
    if traced:
        min_reps = 2 if smoke else 4
    else:
        min_reps = 1 if smoke else MIN_REPS
    reps: list[dict] = []
    while (
        len(reps) < min_reps
        or sum(r["measured_wall_s"] for r in reps) < seconds
        or (traced and len(reps) % 2 == 1)
    ):
        reps.append(_spawn(workload, seed, traced and len(reps) % 2 == 1, smoke))

    def exact(r: dict) -> dict[str, float]:
        return {"ops": r["ops"], **r["sim"], **r["exact"]}

    problems = [m for r in reps for m in r["messages"]]
    first = exact(reps[0])
    for r in reps[1:]:
        if exact(r) != first:
            differing = sorted(k for k, v in exact(r).items() if first.get(k) != v)
            problems.append(f"not deterministic across repetitions: {differing}")
    failed = sum(r["failed"] for r in reps)

    plain = [r for r in reps if r["samples"] is None]
    rates = [r["ops"] / r["measured_s"] for r in plain]
    setups = [r["setup_s"] for r in plain]
    out: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "repetitions": len(reps),
        "attempted": sum(r["ops"] for r in reps),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems[:10],
        "exact": first,
        "spread": {
            "host_ops_per_s": [min(rates), max(rates)],
            "setup_s": [min(setups), max(setups)],
        },
    }
    if not traced:
        out["metrics"] = {
            "setup_s": median(setups),
            "host_ops_per_s": median(rates),
            "host_peak_rss_mb": median([r["rss_mb"] for r in plain]),
            **reps[0]["sim"],
        }
        return out

    sampled = [r for r in reps if r["samples"] is not None]
    n_samples = sum(sum(r["samples"].values()) for r in sampled)
    us_per_op = sum(r["measured_s"] for r in sampled) * 1e6 / sum(r["ops"] for r in sampled)
    events = first.get("sim.events_per_op", 0.0)
    special = {
        "sim.host_us_per_event": (
            median([r["measured_s"] * 1e6 / r["ops"] for r in plain]) / events if events else 0.0
        ),
        "trace.samples": n_samples,
        "trace.overhead_frac": (
            median([r["measured_s"] for r in sampled])
            / median([r["measured_s"] for r in plain]) - 1.0
        ),
    }
    metrics: dict[str, float] = {}
    for name in per_layer:
        layer, _, rest = name.partition(".")
        if rest == "self_us_per_op":
            hits = sum(r["samples"][layer] for r in sampled)
            metrics[name] = hits / n_samples * us_per_op if n_samples else 0.0
        elif name in special:
            metrics[name] = special[name]
        elif name in first:
            metrics[name] = first[name]
        else:
            # Timed by the repetition itself, or not applicable here (0).
            metrics[name] = median([r["host"].get(name, 0.0) for r in plain])
    out["metrics"] = metrics
    return out
