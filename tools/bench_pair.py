#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pair.py --parent HEAD --out BENCH.json

The benchmark is the one ``BENCHMARK.json`` declares: its command, its
workloads, its end-to-end metrics and its run length.  The parent commit is
unpacked with ``git archive`` into a temporary directory (removed
afterwards), so the repository itself is left untouched; the change is the checkout this script lives in, working tree included, so run
it before committing with ``--parent HEAD``, or after with ``--parent
HEAD~1``.

Every run of either side has ``PYTHONDONTWRITEBYTECODE=1`` and
``PYTHONPYCACHEPREFIX`` set to a directory in the temporary directory
that stays empty, so both sides compile every module from source and neither
reads bytecode a checkout happens to hold: a working tree's
``__pycache__`` would otherwise spare the change side the compile time
that ``setup_s`` includes on the freshly unpacked parent.

For each workload the script runs PAIRS pairs of runs of the length
``BENCHMARK.json`` sets, each pair on its own seed, and alternates which
side runs first.  It writes, per workload and metric,
the median and quartiles of each side, the change's wins out of the pairs
(ties count for neither side), every run's value, and each run's attempted
and failed operations and its correctness flag, together with the commands
and the run length.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800
PAIRS = 10


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    p.add_argument("--first-seed", type=int, default=1,
                   help="seed of the first pair; pair i uses first-seed + i (default 1)")
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    return p.parse_args(argv), spec


def git(*argv: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True, text=True,
                          check=True).stdout.strip()


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float, env: dict[str, str]) -> dict:
    """One benchmark run; its last stdout line is the JSON result."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent_runs: list[dict], change_runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name = m["name"]
        before = [r["metrics"][name] for r in parent_runs]
        after = [r["metrics"][name] for r in change_runs]
        sign = 1.0 if m["better"] == "higher" else -1.0
        wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        losses = sum(sign * (a - b) < 0 for a, b in zip(after, before))
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "parent": summary(before), "change": summary(after),
                     "change_wins": wins, "change_losses": losses,
                     "pairs": len(before)}
    return out


def run_pairs(args, spec, parent_dir: Path, env: dict[str, str]) -> dict:
    seconds = spec["run_seconds"]
    sides = {"parent": parent_dir, "change": ROOT}
    workloads = {}
    for w in spec["workloads"]:
        runs = {"parent": [], "change": []}
        order = []
        for i in range(PAIRS):
            seed = args.first_seed + i
            first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append(first[0])
            for side in first:
                run = run_once(sides[side], spec["command"], w["name"], seed, seconds, env)
                runs[side].append(run)
                print(f"{w['name']} seed {seed} {side}: "
                      + ", ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                      file=sys.stderr, flush=True)
        workloads[w["name"]] = {
            "seeds": [args.first_seed + i for i in range(PAIRS)],
            "first_side": order,
            "metrics": compare(runs["parent"], runs["change"], spec["end_to_end"]),
            "runs": {side: [{k: r[k] for k in ("seed", "correct", "attempted", "failed")}
                            for r in runs[side]] for side in runs},
        }
    return workloads


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    parent_sha = git("rev-parse", args.parent)
    change = (f"working tree of {git('rev-parse', 'HEAD')}"
              + (" with uncommitted changes" if git("status", "--porcelain") else ""))
    scratch = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    parent_dir = scratch / "parent"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPYCACHEPREFIX=str(scratch / "pycache"))   # never written, so empty
    try:
        parent_dir.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent_sha],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive, check=True)
        workloads = run_pairs(args, spec, parent_dir, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report = {
        "parent": parent_sha,
        "change": change,
        "run_seconds": spec["run_seconds"],
        "pairs": PAIRS,
        "commands": [" ".join(spec["command"]) + f" --workload {w['name']} --seed SEED "
                     f"--seconds {spec['run_seconds']:g} --trace 0" for w in spec["workloads"]],
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": len(os.sched_getaffinity(0))},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
