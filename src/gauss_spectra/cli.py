"""Command-line interface: pressure sweeps, spectrum curves, constants, verify.

Output is CSV (``# key=value`` metadata comments, then a header row, then
data) or JSON (one object with ``metadata`` and ``rows``).  Floats are
written with shortest round-trip representation, so identical configs and
seeds produce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 domain or usage error,
3 a spectrum sweep solved fewer than 90% of its points.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .acceptance import CRITERIA, VerifyConfig, run_criterion
from .spectra import (SolverConfig, WindowError, _central_derivatives,
                      bounded_digit_dimension, khintchine_curve, lyapunov_curve,
                      spectrum_shape_report, InsufficientGridError)
from .transfer import (DOMAIN_MARGIN, Alphabet, ConvergenceError, Discretization,
                       DomainError, PressureProvider)
from .zeta import (golden_constant, khintchine_constant, khintchine_exponent,
                   lyapunov_constant)


@dataclass
class CurveRecord:
    exponent: float
    dimension: float
    q_value: float
    residual_1: float
    residual_2: float
    slope_fd: float

    def row(self) -> list[float]:
        return [self.exponent, self.dimension, self.q_value,
                self.residual_1, self.residual_2, self.slope_fd]


def _default_jobs() -> int:
    env = os.environ.get("GAUSS_SPECTRA_JOBS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cutoff", type=int, default=64,
                        help="digit cutoff M of the full alphabet (default 64)")
    common.add_argument("--collocation-order", type=int, default=16, dest="order",
                        help="number of Chebyshev nodes K (default 16)")
    common.add_argument("--tolerance", type=float, default=1e-10,
                        help="upper bound on the eigen-solve's relative error; "
                             "the direct solve always meets it (default 1e-10)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="out_format", help="output format")
    common.add_argument("--output", default=None, help="output file (default stdout)")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument("--jobs", type=int, default=None,
                        help="accepted and echoed in the metadata; sweeps run in "
                             "one process (default: $GAUSS_SPECTRA_JOBS or all cores)")
    common.add_argument("--gnuplot", action="store_true",
                        help="also write a gnuplot script next to --output")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--min", type=float, default=None)
    grid.add_argument("--max", type=float, default=None)
    grid.add_argument("--count", type=int, default=None)
    grid.add_argument("--spacing", choices=("linear", "log"), default="linear")

    p = argparse.ArgumentParser(
        prog="gauss-spectra",
        description="Pressure and dimension spectra of the Gauss "
                    "continued-fraction system")
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("pressure", parents=[common, grid],
                        help="pressure and its derivatives at points or sweeps")
    pp.add_argument("--t", type=float, default=None)
    pp.add_argument("--q", type=float, default=None)

    ps = sub.add_parser("spectrum", parents=[common, grid],
                        help="solve a dimension spectrum on a grid")
    ps.add_argument("kind", choices=("khintchine", "lyapunov"))

    sub.add_parser("constants", parents=[common],
                   help="table of the constants of the Gauss map")

    pv = sub.add_parser("verify", parents=[common],
                        help="run the acceptance criteria")
    pv.add_argument("--list", action="store_true", dest="list_only",
                    help="enumerate the criteria without running them")
    return p


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _validate_common(args) -> str | None:
    if args.cutoff < 8:
        return f"--cutoff must be >= 8, got {args.cutoff}"
    if args.order < 4:
        return f"--collocation-order must be >= 4, got {args.order}"
    if not 0.0 < args.tolerance <= 1e-4:
        return f"--tolerance must be in (0, 1e-4], got {args.tolerance}"
    return None


def _make_grid(args) -> np.ndarray | None:
    given = [args.min is not None, args.max is not None, args.count is not None]
    if not any(given):
        return None
    if not all(given):
        raise ValueError("--min, --max and --count must be given together")
    if args.count < 2:
        raise ValueError(f"--count must be >= 2, got {args.count}")
    if not args.max > args.min:
        raise ValueError("--max must exceed --min")
    if args.spacing == "log":
        if args.min <= 0:
            raise ValueError("log spacing needs --min > 0")
        return np.geomspace(args.min, args.max, args.count)
    return np.linspace(args.min, args.max, args.count)


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write(metadata: dict, header: list[str], rows: list[list], args,
           trailer: dict | None = None) -> None:
    if args.out_format == "json":
        payload = {"metadata": metadata, "rows": [dict(zip(header, r)) for r in rows]}
        if trailer:
            payload["metadata"] = {**metadata, **trailer}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# {k}={_fmt(v)}" for k, v in metadata.items()]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in r) for r in rows)
        if trailer:
            lines.extend(f"# {k}={_fmt(v)}" for k, v in trailer.items())
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_gnuplot(args, xlabel: str, ylabel: str, xcol: int, ycol: int) -> int | None:
    if not args.gnuplot:
        return None
    if not args.output:
        return _usage_error("--gnuplot requires --output")
    script = args.output + ".gp"
    with open(script, "w") as fh:
        fh.write(
            "set datafile separator \",\"\n"
            f"set xlabel \"{xlabel}\"\n"
            f"set ylabel \"{ylabel}\"\n"
            f"plot \"{args.output}\" using {xcol}:{ycol} with linespoints notitle\n"
        )
    return None


def _metadata(args, extra: dict) -> dict:
    meta = {
        "tool": "gauss-spectra",
        "version": __version__,
        "command": args.command,
        "cutoff": args.cutoff,
        "collocation_order": args.order,
        "tolerance": args.tolerance,
        "seed": args.seed,
    }
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------

def cmd_pressure(args) -> int:
    try:
        grid = _make_grid(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.t is not None and args.q is not None:
        points = [(args.t, args.q)]
    elif args.t is not None and grid is not None:
        points = [(args.t, float(q)) for q in grid]
    elif args.q is not None and grid is not None:
        points = [(float(t), args.q) for t in grid]
    else:
        return _usage_error(
            "pressure needs --t and --q, or one of them plus --min/--max/--count")

    for (t, q) in points:
        if 2 * t - q - 1 < DOMAIN_MARGIN:
            return _usage_error(
                f"(t, q) = ({t}, {q}) outside the pressure domain: "
                f"2t - q = {2 * t - q} <= {1 + DOMAIN_MARGIN}")

    prov = PressureProvider(Alphabet.full(args.cutoff), Discretization.chebyshev(args.order))
    rows = []
    for (t, q) in points:
        res = prov.result(t, q)
        rows.append([t, q, res.value, res.dP_dt, res.dP_dq, res.tail_error_bound])

    jobs = args.jobs if args.jobs is not None else _default_jobs()
    meta = _metadata(args, {"jobs": jobs, "points": len(points)})
    header = ["t", "q", "pressure", "dP_dt", "dP_dq", "tail_error"]
    _write(meta, header, rows, args)
    err = _write_gnuplot(args, "q" if args.t is not None and grid is not None else "t",
                         "pressure", 2 if args.t is not None and grid is not None else 1, 3)
    return err if err is not None else 0


def cmd_spectrum(args) -> int:
    try:
        grid = _make_grid(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    if grid is None:
        return _usage_error("spectrum needs --min, --max and --count")

    cfg = SolverConfig()
    provider = PressureProvider(Alphabet.full(args.cutoff),
                                Discretization.chebyshev(args.order))
    try:
        if args.kind == "khintchine":
            curve = khintchine_curve(grid, provider, cfg)
            center = khintchine_exponent()
        else:
            curve = lyapunov_curve(grid, provider, cfg)
            center = lyapunov_constant()
    except WindowError as exc:
        return _usage_error(str(exc))

    # slopes at interior solved points from their solved neighbours
    slopes = np.full(len(curve.points), math.nan)
    if len(curve.points) >= 3:
        slopes[1:-1] = _central_derivatives(curve.exponents, curve.dimensions)[0]
    solved = {p.exponent: (p, s) for p, s in zip(curve.points, slopes)}
    records: list[CurveRecord] = []
    for g in grid:
        g = float(g)
        if g not in solved:
            records.append(CurveRecord(g, math.nan, math.nan, math.inf, math.inf,
                                       math.nan))
            continue
        pt, slope = solved[g]
        records.append(CurveRecord(g, pt.dimension, pt.q_value,
                                   pt.residuals[0], pt.residuals[1], float(slope)))

    trailer = {}
    try:
        rep = spectrum_shape_report(curve, peak_reference=center)
        trailer = {
            "shape_peak_exponent": rep.peak_exponent,
            "shape_peak_dimension": rep.peak_dimension,
            "shape_slope_sign_changes": rep.slope_sign_changes,
            "shape_curvature_at_peak": rep.curvature_at_peak,
            "shape_convexity_witness": (
                rep.convexity_witness[0] if rep.convexity_witness else math.nan),
            "shape_q_sign_consistent": rep.q_sign_consistent,
        }
    except InsufficientGridError:
        pass

    meta = _metadata(args, {
        "kind": args.kind,
        "grid_min": float(grid[0]), "grid_max": float(grid[-1]),
        "grid_count": len(grid), "grid_spacing": args.spacing,
        "solved": len(curve.points), "failed": len(curve.metadata["failures"]),
        "solves": curve.metadata["solves"],
    })
    header = ["exponent", "dimension", "q_value", "residual_1", "residual_2",
              "slope_fd"]
    _write(meta, header, [r.row() for r in records], args, trailer=trailer)
    err = _write_gnuplot(args, "exponent", "dimension", 1, 2)
    if err is not None:
        return err
    return 0 if len(curve.points) >= 0.9 * len(grid) else 3


def cmd_constants(args) -> int:
    disc = Discretization.chebyshev(args.order)
    rows = [
        ["khintchine_constant", khintchine_constant(),
         "exp of the mean log-digit series"],
        ["khintchine_exponent", khintchine_exponent(),
         "Bailey-Borwein-Crandall zeta series (spectrum peak abscissa)"],
        ["lyapunov_constant", lyapunov_constant(), "pi^2 / (6 log 2)"],
        ["golden_constant", golden_constant(), "2 log((1 + sqrt 5)/2)"],
        ["dim_E2", bounded_digit_dimension({1, 2}, disc),
         "zero of the {1,2}-restricted pressure"],
    ]
    meta = _metadata(args, {})
    _write(meta, ["name", "value", "method"], rows, args)
    return 0


def cmd_verify(args) -> int:
    if args.list_only:
        for cid, title, _ in CRITERIA:
            print(f"{cid}  {title}")
        return 0
    cfg = VerifyConfig(cutoff=args.cutoff, order=args.order, seed=args.seed)
    all_ok = True
    for cid, _, _ in CRITERIA:
        r = run_criterion(cid, cfg)
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{status} {r.cid} {r.title}")
        print(f"     measured:  {r.measured}")
        print(f"     expected:  {r.expected}   tolerance: {r.tolerance}   "
              f"runtime: {r.runtime:.2f}s (budget {r.budget:.0f}s)")
    print("result:", "all criteria passed" if all_ok else "FAILURES present")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    msg = _validate_common(args)
    if msg:
        return _usage_error(msg)
    try:
        if args.command == "pressure":
            return cmd_pressure(args)
        if args.command == "spectrum":
            return cmd_spectrum(args)
        if args.command == "constants":
            return cmd_constants(args)
        if args.command == "verify":
            return cmd_verify(args)
    except (DomainError, ConvergenceError) as exc:
        return _usage_error(str(exc))
    raise AssertionError("unreachable")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
