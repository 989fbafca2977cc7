"""Seeded inputs for the two curve workloads and one pass of work over each.

A seed draws a pool of rounds.  A run repeats whole cycles of passes over the
pool until its time is up, so every run does the same mix of work whatever
the seed, and each pass starts from a fresh provider so the provider cache
serves only what the solver itself re-queries.

Every round is stratified: the seed only moves points inside fixed strata,
so the mix of cheap and expensive points is the same in every round.  Over
the pool the positions are a Latin hypercube: each stratum is cut into as
many slots as the pool has rounds and every slot is used by exactly one
round, so the cost of a cycle hardly depends on the seed.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from gauss_spectra import spectra

# Khintchine: log-spaced strata in [0.3, 40] on both sides of the peak xi0.
KHINTCHINE_LEFT = (0.3, 0.85, 2)     # (low, high, number of strata)
KHINTCHINE_RIGHT = (1.15, 40.0, 4)

# Lyapunov: strata in log(beta - gamma0) below the peak lambda0, in log(beta)
# above it.  The left strata stop at gamma0 + 0.04 (u = t - q below 4.2):
# beyond that brentq may bisect onto the jump of P' at u = 4.365 (see
# CHANGES.md), on some seeds and not others.  That fault is measured instead
# by one fixed beta that lands on the jump every time, solved from a fresh
# provider in the first round of the pool (once per cycle) and counted as a
# failed operation.
LYAPUNOV_LEFT_OFFSET = (0.04, 1.1, 6)
LYAPUNOV_RIGHT = (2.7, 150.0, 6)
LYAPUNOV_JUMP_OFFSET = 0.0213


def _log_strata(pos, low: float, high: float, n: int) -> list[float]:
    """One point per log-spaced stratum of [low, high], at fractions ``pos``."""
    edges = np.linspace(math.log(low), math.log(high), n + 1)
    return [float(v) for v in np.exp(edges[:-1] + np.asarray(pos) * np.diff(edges))]


def khintchine_round(pos, refs, first: bool) -> list[float]:
    n = KHINTCHINE_LEFT[2]
    return sorted(_log_strata(pos[:n], *KHINTCHINE_LEFT) + [refs.xi0]
                  + _log_strata(pos[n:], *KHINTCHINE_RIGHT))


def lyapunov_round(pos, refs, first: bool) -> tuple[list[float], list[float]]:
    """(curve grid, betas solved on their own)."""
    n = LYAPUNOV_LEFT_OFFSET[2]
    left = [refs.gamma0 + d for d in _log_strata(pos[:n], *LYAPUNOV_LEFT_OFFSET)]
    grid = sorted(left + [refs.lam0] + _log_strata(pos[n:], *LYAPUNOV_RIGHT))
    return grid, [refs.gamma0 + LYAPUNOV_JUMP_OFFSET] if first else []


def _solved(p) -> bool:
    """A point whose own residuals meet the solver's tolerance."""
    return max(p.residuals) <= spectra.SolverConfig().residual_tol


def _curve_pass(curve_fn, grid):
    # the curve's own point functions are timed by the probe's hooks
    curve = curve_fn(grid, spectra.default_provider())
    out = [(p.exponent, p.dimension, p.q_value) for p in curve.points]
    return out, len(grid), len(curve.metadata["failures"])


def khintchine_pass(grid, refs):
    return _curve_pass(spectra.khintchine_curve, grid)


def lyapunov_pass(lyapunov_round, refs):
    grid, singles = lyapunov_round
    out, attempted, failed = _curve_pass(spectra.lyapunov_curve, grid)
    for beta in singles:
        p = spectra.lyapunov_point(beta, spectra.default_provider())
        if _solved(p):
            out = sorted(out + [(p.exponent, p.dimension, p.q_value)])
        else:
            failed += 1
    return out, attempted + len(singles), failed


class Workload(NamedTuple):
    make_round: Callable      # (positions in [0, 1) per stratum, refs, first) -> round
    strata: int
    run_pass: Callable        # (round, refs) -> (outputs, attempted, failed)
    # Rounds per cycle.  A run does whole cycles, so a cycle must stay well
    # under the run length.
    pool: int


WORKLOADS = {
    "khintchine-curve": Workload(khintchine_round, KHINTCHINE_LEFT[2] + KHINTCHINE_RIGHT[2],
                                 khintchine_pass, 2),
    "lyapunov-curve": Workload(lyapunov_round, LYAPUNOV_LEFT_OFFSET[2] + LYAPUNOV_RIGHT[2],
                               lyapunov_pass, 8),
}


def make_pool(workload: str, seed: int, refs) -> list:
    w = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    slots = np.array([rng.permutation(w.pool) for _ in range(w.strata)])
    slots = slots.reshape(w.strata, w.pool).T                     # (pool, strata)
    pos = (slots + rng.uniform(size=slots.shape)) / w.pool
    return [w.make_round(pos[r], refs, r == 0) for r in range(w.pool)]
