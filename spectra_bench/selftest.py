#!/usr/bin/env python3
"""Show that every correctness check of the benchmark rejects a perturbed result.

Solves one seeded round of each workload, confirms that all checks pass on
it, then perturbs the outputs in a way each check is meant to catch and
confirms that check reports a failure.  Exits 1 if any of that does not hold.

    python3 spectra_bench/selftest.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402
import workloads  # noqa: E402
from gauss_spectra import spectra  # noqa: E402

# in the first round: the Lyapunov point fixed on the jump of P' fails every time
EXPECTED_FAILED = {"khintchine-curve": 0, "lyapunov-curve": 1}


def _edit(rows, index, field, fn):
    """Copy of ``rows`` with one field of one row replaced by fn(old value)."""
    out = list(rows)
    row = list(out[index])
    row[field] = fn(row[field])
    out[index] = tuple(row)
    return out


def _peak_index(rows, peak):
    return next(i for i, r in enumerate(rows) if r[0] == peak)


def _raise_all(rows, field, delta):
    return [tuple(v + delta if j == field else v for j, v in enumerate(r)) for r in rows]


def _jump_point(refs):
    """The fixed Lyapunov point that lands on the jump of P' (see workloads.py)."""
    beta = refs.gamma0 + workloads.LYAPUNOV_JUMP_OFFSET
    p = spectra.lyapunov_point(beta, spectra.default_provider())
    return lambda r: sorted(r + [(p.exponent, p.dimension, p.q_value)])


def perturbations(refs):
    """(workload, check, what is perturbed, perturb(outputs) -> outputs)."""
    k, ly = "khintchine-curve", "lyapunov-curve"
    kc, lc = checks.CHECKS[k], checks.CHECKS[ly]
    return [
        (k, kc[0], "peak t off by 1e-6",
         lambda r: _edit(r, _peak_index(r, refs.xi0), 1, lambda t: t - 1e-6)),
        (k, kc[1], "every dimension 0.05 too high", lambda r: _raise_all(r, 1, 0.05)),
        (k, kc[2], "q of the last point with the wrong sign",
         lambda r: _edit(r, -1, 2, lambda q: -q)),
        (k, kc[3], "q of the first point off by 1e-6",
         lambda r: _edit(r, 0, 2, lambda q: q + 1e-6)),
        (ly, lc[0], "peak q off by 1e-6",
         lambda r: _edit(r, _peak_index(r, refs.lam0), 2, lambda q: q + 1e-6)),
        (ly, lc[1], "every dimension 0.05 too high", lambda r: _raise_all(r, 1, 0.05)),
        (ly, lc[2], "first dimension above the second",
         lambda r: _edit(r, 0, 1, lambda t: r[1][1] + 1e-3)),
        (ly, lc[3], "t of the first point off by 1e-6",
         lambda r: _edit(r, 0, 1, lambda t: t + 1e-6)),
        (ly, lc[3], "the point stuck on the jump of P' added", _jump_point(refs)),
    ]


def main() -> int:
    refs = checks.References()
    outputs = {}
    ok = True
    for name, workload in workloads.WORKLOADS.items():
        pool = workloads.make_pool(name, 0, refs)
        outputs[name], _, failed = workload.run_pass(pool[0], refs)
        clean = checks.check_round(name, outputs[name], refs)
        print(f"{name}: {len(outputs[name])} outputs, {failed} failed, "
              f"unperturbed checks {'pass' if not clean else 'FAIL: ' + clean[0]}")
        ok &= not clean and failed == EXPECTED_FAILED[name]
    for name, check, what, perturb in perturbations(refs):
        rejected = check(perturb(outputs[name]), refs)
        print(f"  {name:17s} {what:45s} {'rejected' if rejected else 'NOT REJECTED'}")
        ok &= bool(rejected)
    repeat = _raise_all(outputs["lyapunov-curve"], 1, 1e-6)
    rejected = not checks.same_outputs(outputs["lyapunov-curve"], repeat)
    print(f"  {'repeated pass':17s} {'every t 1e-6 off the first pass':45s} "
          f"{'rejected' if rejected else 'NOT REJECTED'}")
    ok &= rejected
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
