#!/usr/bin/env python3
"""Spectra benchmark: one workload per invocation, one JSON result line.

    python3 spectra_bench/run.py --workload lyapunov-curve --seed 1 --seconds 40 --trace 0

Run it from a checkout of the repository; the program is imported from
``src/`` next to this directory.  ``--trace 0`` times the workload with
tracing off and reports the end-to-end metrics; ``--trace 1`` runs twice as
long, alternating traced and untraced passes, and reports the per-layer
metrics.  Outputs are checked against mpmath references after the timed
phase.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("khintchine-curve", "lyapunov-curve")
SETUP_PROBES = 3
SETUP_TIMEOUT_S = 60
# One BLAS thread: the matrices are at most ~50 x 50, and a single thread
# keeps the run on one core of a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "point_p50_ms": "ms",
    "solves_per_point": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_UNITS = {
    "zeta.calls_per_solve": "count",
    "zeta.ms_per_solve": "ms",
    "zeta.time_share": "ratio",
    "transfer.solves": "count",
    "transfer.solve_ms": "ms",
    "transfer.deriv_ms": "ms",
    "transfer.hit_us": "us",
    "transfer.cache_hit_ratio": "ratio",
    "transfer.rss_kb_per_solve": "KB",
    "transfer.disc_builds": "count",
    "transfer.disc_build_ms": "ms",
    "transfer.boosted_solve_ratio": "ratio",
    "transfer.max_order": "count",
    "spectra.calls_per_point": "count",
    "spectra.self_ms_per_point": "ms",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="Spectra benchmark (see README.md).")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def current_rss_kb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024


def peak_rss_kb() -> float:
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def setup_seconds() -> float:
    """Median set-up time over several fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py")],
            env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def run_phase(workload: str, pool: list, refs, seconds: float, traced: bool) -> dict:
    """Whole cycles of passes over the pool until ``seconds`` of passes have run.

    With ``traced``, cycles alternate between traced and untraced, so the
    tracing overhead is measured on the same rounds and machine conditions.
    """
    import tracing
    import workloads

    run_pass = workloads.WORKLOADS[workload].run_pass
    cycle = len(pool) * (2 if traced else 1)
    probe = tracing.Probe(traced)
    passes = []
    attempted = failed = retained = 0
    first_pass = None                   # (RSS growth in KB, solves)
    busy = {False: 0.0, True: 0.0}      # seconds of passes, untraced / traced
    done = {False: 0, True: 0}          # points completed, untraced / traced
    rss_start = current_rss_kb()
    with probe.installed():
        while sum(busy.values()) < seconds or len(passes) % cycle:
            k = len(passes) % len(pool)
            probe.traced = traced and len(passes) % cycle < len(pool)
            solves_before = probe.solves
            start = perf_counter()
            out, n_att, n_fail = run_pass(pool[k], refs)
            busy[probe.traced] += perf_counter() - start
            done[probe.traced] += n_att - n_fail
            passes.append((k, out))
            attempted += n_att
            failed += n_fail
            if first_pass is None:
                # the pass's provider is still alive here, cache and all
                first_pass = (current_rss_kb() - rss_start, probe.solves - solves_before)
            # A finished curve's provider stays alive in a reference cycle until
            # the collector runs (see README.md); collect between passes, off
            # the clock, so every pass starts from the same heap.  No metric
            # therefore sees that retention; the count is printed instead.
            if probe.live_providers():
                retained = max(retained, probe.live_providers())
                gc.collect()
    return {
        "probe": probe,
        "passes": passes,
        "busy": busy,
        "done": done,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_kb": peak_rss_kb(),
        "first_pass": first_pass,
        "retained_providers": retained,
    }


def check_phase(workload: str, phase: dict, refs) -> list[str]:
    import checks

    failures, first = [], {}
    for k, out in phase["passes"]:
        if k not in first:
            first[k] = out
            failures += [f"round {k}: {msg}" for msg in checks.check_round(workload, out, refs)]
        elif not checks.same_outputs(first[k], out):
            failures.append(f"round {k}: a repeated pass gave different outputs")
    return failures


def end_to_end(phase: dict, setup_s: float) -> dict[str, float]:
    done = phase["done"][False]
    return {
        "points_per_s": done / phase["busy"][False],
        "point_p50_ms": statistics.median(phase["probe"].point_s) * 1e3,
        "solves_per_point": phase["probe"].solves / done if done else 0.0,
        "peak_rss_mb": phase["peak_rss_kb"] / 1024,
        "setup_s": setup_s,
    }


def per_layer(phase: dict) -> dict[str, float]:
    import tracing

    busy, done = phase["busy"], phase["done"]
    values = tracing.layer_metrics(phase["probe"].spans, busy[True])
    growth_kb, solves = phase["first_pass"]
    values["transfer.rss_kb_per_solve"] = growth_kb / solves if solves else 0.0
    values["trace.overhead_ratio"] = (done[True] / busy[True]) / (done[False] / busy[False])
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gauss_spectra" / "__init__.py").is_file():
        print(f"no gauss_spectra sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    setup_s = setup_seconds() if args.trace == 0 else 0.0

    import checks
    import workloads

    refs = checks.References()
    pool = workloads.make_pool(args.workload, args.seed, refs)
    if args.trace == 0:
        phase = run_phase(args.workload, pool, refs, args.seconds, traced=False)
        metrics, units = end_to_end(phase, setup_s), END_TO_END_UNITS
    else:
        # half the passes traced, half not: twice the run length
        phase = run_phase(args.workload, pool, refs, 2 * args.seconds, traced=True)
        metrics, units = per_layer(phase), LAYER_UNITS

    failures = check_phase(args.workload, phase, refs)
    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    attempted, failed = phase["attempted"], phase["failed"]
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} providers still alive after a pass, before collection: "
          f"{phase['retained_providers']}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}, "
          f"checks {'passed' if not failures else 'FAILED'}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
